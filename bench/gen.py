"""Seeded inputs for the benchmark and the answers they must produce.

Nothing here imports finstack: group tables, site files, library cases and
classification counts are built from plain Python data, and every expected
verdict is known by construction (a planted defect, or a closed form), not
by asking the code under test.
"""

from __future__ import annotations

import itertools
import math
from random import Random

# ------------------------------------------------------------------ groups


def cyclic(n):
    """Z/n as (elements, rows): i*j = (i + j) mod n."""
    elems = list(range(n))
    return elems, [[(i + j) % n for j in elems] for i in elems]


def klein():
    """Z/2 x Z/2 on {0, 1, 2, 3} as bitwise xor."""
    elems = [0, 1, 2, 3]
    return elems, [[i ^ j for j in elems] for i in elems]


def s3():
    """Permutations of three letters in lexicographic order; p*q = p after q."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    rows = [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    return list(range(len(perms))), rows


GROUPS = {
    "Z2": lambda: cyclic(2),
    "Z3": lambda: cyclic(3),
    "Z4": lambda: cyclic(4),
    "Z5": lambda: cyclic(5),
    "Z6": lambda: cyclic(6),
    "V4": klein,
    "S3": s3,
}


class Table:
    """A group given by its Cayley table, with the derived data the
    generators need (unit, non-units, an element of order two).

    With an rng the elements are relabelled by a random permutation, which
    gives an isomorphic group with a different table.
    """

    def __init__(self, name, rng: Random | None = None):
        self.name = name
        elems, rows = GROUPS[name]()
        pi = dict(zip(elems, rng.sample(elems, len(elems)) if rng else elems))
        self.elems = sorted(elems)
        self.mul = {(pi[a], pi[b]): pi[rows[i][j]]
                    for i, a in enumerate(elems) for j, b in enumerate(elems)}
        self.unit = next(e for e in self.elems
                         if all(self.mul[(e, a)] == a for a in self.elems))
        self.nonunit = [a for a in self.elems if a != self.unit]

    @property
    def order(self):
        return len(self.elems)

    def rows(self):
        return [[self.mul[(a, b)] for b in self.elems] for a in self.elems]

    def involution(self):
        """The least element of order two, or None."""
        for a in self.nonunit:
            if self.mul[(a, a)] == self.unit:
                return a
        return None

    def left_cosets(self, sub):
        """Cosets aH as sorted tuples, listed by least member."""
        cos = {tuple(sorted(self.mul[(a, h)] for h in sub)) for a in self.elems}
        return sorted(cos)


# ------------------------------------------------------------- site files


def _fmt(a):
    if isinstance(a, tuple):
        return "(" + " , ".join(_fmt(x) for x in a) + ")"
    return str(a)


def _table(entries, indent="  "):
    body = "\n".join(f"{indent}  {_fmt(k)} -> {_fmt(v)}" for k, v in entries)
    return "{\n" + body + "\n" + indent + "}"


def _group_decl(name, grp):
    rows = "\n".join("    [ " + " ".join(str(x) for x in r) + " ]" for r in grp.rows())
    elems = " ".join(str(a) for a in grp.elems)
    return f"group {name} {{\n  elements {{ {elems} }}\n  table [\n{rows}\n  ]\n}}"


def _set_decl(name, atoms):
    return f"set {name} = {{ " + " ".join(_fmt(a) for a in atoms) + " }"


def _map_decl(name, src, dst, table):
    return f"map {name} : {src} -> {dst} = " + _table(sorted(table.items()), "")


def scaled_site(rng: Random, group: str, n: int):
    """A site over a base of n atoms declaring every shape the CLI workload
    asks about, three of them with a planted defect.

    Returns (text, answers) where answers maps each command to its expected
    exit code and per-check rows (see `expect`).
    """
    grp = Table(group, rng)
    base = list(range(n))
    order = rng.sample(base, n)
    out = ["# generated benchmark site: group %s over %d atoms" % (group, n),
           _set_decl("Y", base), _group_decl("G", grp),
           "stack BG { group G classifying }",
           "bundle Triv { trivial group G base Y }"]

    # raw bundle: the trivial bundle, except that over y_bad the fiber is
    # two copies of G/H for H of order two, which has |G| atoms but is not free
    y_bad = order[0]
    h = grp.involution()
    cosets = grp.left_cosets([grp.unit, h])
    half = len(cosets)
    atoms = [(g, y) for y in base if y != y_bad for g in grp.elems]
    atoms += [(m, y_bad) for m in range(2 * half)]
    act = {}
    for g in grp.elems:
        for y in base:
            if y != y_bad:
                for x in grp.elems:
                    act[(g, (x, y))] = (grp.mul[(g, x)], y)
        for m in range(2 * half):
            copy, c = divmod(m, half)
            moved = tuple(sorted(grp.mul[(g, a)] for a in cosets[c]))
            act[(g, (m, y_bad))] = (copy * half + cosets.index(moved), y_bad)
    out.append(_set_decl("P", sorted(atoms)))
    out.append("action A { group G space P table "
               + _table(sorted(act.items())) + " }")
    out.append(_map_decl("pr", "P", "Y", {a: a[1] for a in atoms}))
    out.append("bundle NotB { action A proj pr }")

    # covers: points; three overlapping non-mono legs; two legs missing y_miss
    out.append("cover Pts { target Y points }")
    k = n // 3
    chunks = [order[:k], order[k:2 * k], order[2 * k:]]
    dup = [rng.choice(c) for c in chunks]
    leg_names = []
    for i, chunk in enumerate(chunks):
        nxt = chunks[(i + 1) % 3]
        pool = [y for y in nxt if y != dup[(i + 1) % 3]]
        extra = rng.sample(pool, min(2, len(pool)))
        values = chunk + [dup[i]] + extra
        src = [f"u{i}_{t}" for t in range(len(values))]
        out.append(_set_decl(f"U{i}", src))
        out.append(_map_decl(f"f{i}", f"U{i}", "Y", dict(zip(src, values))))
        leg_names.append(f"f{i}")
    out.append("cover Ov { target Y legs [ " + " ".join(leg_names) + " ] }")
    y_miss = rng.choice(base)
    rest = [y for y in order if y != y_miss]
    halves = [rest[:len(rest) // 2], rest[len(rest) // 2:]]
    for i, part in enumerate(halves):
        src = [f"v{i}_{t}" for t in range(len(part))]
        out.append(_set_decl(f"V{i}", src))
        out.append(_map_decl(f"g{i}", f"V{i}", "Y", dict(zip(src, part))))
    out.append("cover Gap { target Y legs [ g0 g1 ] }")

    # descent data: one per canonical cover, and one twisted on the nonempty
    # overlap of legs 0 and 1 by a non-unit, which breaks the cocycle
    kk = rng.choice(grp.nonunit)
    out += ["qsobject O { stack BG bundle Triv alpha bang }",
            "datum DPts = restrict O over Pts",
            "datum DOv = restrict O over Ov",
            f"datum Bad = restrict O over Ov twist (0 , 1) by {kk}"]

    # a classification task small enough to sit beside the rest: Z/5 over
    # one point enumerates 5^5 candidate morphisms per pair of bundles
    small = Table("Z5", rng)
    out += [_group_decl("H", small), _set_decl("C", [rng.choice(base)]),
            "classify K { group H base C }"]
    text = "\n".join(out) + "\n"

    # the twisted iso (0,1) is used once on the two sides of the triple
    # (0,1,0) and on neither or both sides of every earlier triple, so the
    # first failure the lexicographic scan finds is (0,1,0)
    answers = {
        "check-bundle": (1, [expect("Triv"),
                             expect("NotB", "NotBundle", base_atom=y_bad,
                                    reason="fiber action is not free")]),
        "check-cover": (1, [expect("Pts"), expect("Ov"),
                            expect("Gap", "CoverNotCanonical", uncovered=[y_miss])]),
        "glue-object": (1, [expect("DPts"), expect("DOv"),
                            expect("Bad", "CocycleFail", i=0, j=1, k=0)]),
        "classify": (0, [expect("K", detail=classify_detail(small.order, 1))]),
    }
    return text, answers


def expect(name, error=None, detail=None, **witness):
    """One expected report row: status fail exactly when an error kind is
    given; `witness` lists fields the report's witness must carry."""
    return {"name": name, "status": "fail" if error else "ok",
            "error": error, "witness": witness, "detail": detail}


def classify_answer(order: int, n: int):
    """Closed forms for Bun_G over n points: ((|G|-1)!)^n bundles (one
    torsor structure per fiber), all isomorphic, and |G|^n automorphisms of
    the trivial bundle (one translation per fiber)."""
    return math.factorial(order - 1) ** n, 1, order ** n


def classify_detail(order: int, n: int) -> str:
    """The detail `desc classify` must print for the closed forms."""
    bundles, classes, auts = classify_answer(order, n)
    return f"{bundles} bundles, {classes} classes, {auts} automorphisms of the trivial one"
