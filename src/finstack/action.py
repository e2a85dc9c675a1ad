"""Group objects in finite sets and their actions.

A group is a Cayley table certified by check_group; an action is a map
G×X -> X certified by check_action against both action diagrams. Equivariant
maps are certified squares. Actions and equivariant maps are certified on a
generating set of the group, kept on the group, which implies the laws for
every element. `trivial_action` is the one construction of a trivially
acted set, the base of every bundle and base change; it is memoized on the
younger of its two inputs and defers its table.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .errors import (
    AssocFail,
    EquivarianceFail,
    NoInverse,
    NotAssociative,
    NoUnit,
    SquareNotCommuting,
    UnitFail,
)
from .finset import (
    FinMap,
    FinSet,
    Record,
    atom_key,
    compose,
    cross_check,
    deferred_map,
    exact_map,
    kept_slot,
    memo,
    product_space,
    pullback,
    terminal,
)


class FinGroup(Record):
    """A group object: carrier with multiplication, unit and inverse tables.

    Only check_group constructs these, so holding a FinGroup is holding a
    certificate that the axioms were verified.

    A group keeps the values derived from it alone, its `generators` and
    its `bundle.torsor_structures`, in slots outside its fields, each built
    on first use: equality, hash and repr never read them, a copy starts
    without them, and an equal group built separately builds its own.
    """

    __slots__ = ("_generators", "_torsors")

    carrier: FinSet
    mul: FinMap
    unit: FinMap
    inv: FinMap

    @property
    def unit_atom(self):
        return self.unit.table["*"]

    def times(self, a, b):
        return self.mul.table[(a, b)]

    def inv_of(self, a):
        return self.inv.table[a]

    def __repr__(self):
        return f"FinGroup({self.carrier!r})"


def check_group(carrier: FinSet, mul: FinMap) -> FinGroup:
    """Certify a Cayley table, synthesizing unit and inverse maps.

    Raises NotAssociative(a,b,c), NoUnit, or NoInverse(a) at the first
    failed axiom, scanned in that order over the canonical atom order.
    """
    if mul.src != product_space(carrier, carrier) or mul.dst != carrier:
        raise ValueError("multiplication must be a map G×G -> G")
    t = mul.table
    for a in carrier:
        for b in carrier:
            ab = t[(a, b)]
            for c in carrier:
                if t[(ab, c)] != t[(a, t[(b, c)])]:
                    raise NotAssociative(a, b, c)
    unit_atom = None
    for e in carrier:
        if all(t[(e, a)] == a and t[(a, e)] == a for a in carrier):
            unit_atom = e
            break
    if unit_atom is None:
        raise NoUnit()
    inv_table = {}
    for a in carrier:
        found = None
        for b in carrier:
            if t[(a, b)] == unit_atom and t[(b, a)] == unit_atom:
                found = b
                break
        if found is None:
            raise NoInverse(a)
        inv_table[a] = found
    return FinGroup(
        carrier, mul,
        FinMap(terminal(), carrier, {"*": unit_atom}),
        FinMap(carrier, carrier, inv_table),
    )


def group_from_table(elements, rows) -> FinGroup:
    """Build and certify a group from elements and a row-major Cayley table."""
    carrier = FinSet(elements)
    order = list(elements)
    if len(rows) != len(order) or any(len(r) != len(order) for r in rows):
        raise ValueError("table must be square over the given elements")
    table = {}
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            table[(a, b)] = rows[i][j]
    return check_group(carrier, FinMap(product_space(carrier, carrier), carrier, table))


def zmod(n: int) -> FinGroup:
    elems = list(range(n))
    return group_from_table(elems, [[(i + j) % n for j in elems] for i in elems])


def klein_four() -> FinGroup:
    # xor on {0,1,2,3} is Z/2 × Z/2
    elems = [0, 1, 2, 3]
    return group_from_table(elems, [[i ^ j for j in elems] for i in elems])


def sym(n: int) -> FinGroup:
    """Symmetric group on n letters, elements numbered in itertools order."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    rows = [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]
    return group_from_table(list(range(len(perms))), rows)


def subgroups(g: FinGroup):
    """All subgroups as tuples of atoms; exhaustive, fine for |G| <= 8."""
    atoms = list(g.carrier)
    e = g.unit_atom
    rest = [a for a in atoms if a != e]
    found = []
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            sub = {e, *extra}
            if all(g.times(a, b) in sub for a in sub for b in sub):
                found.append(tuple(sorted(sub, key=atom_key)))
    return found


def generators(g: FinGroup) -> tuple:
    """A generating set, picked greedily in canonical order: an atom is taken
    when it is not in the subgroup generated by the earlier picks.

    So every atom before a pick is the unit, an earlier pick, or in the
    subgroup the earlier picks generate. (1,) for Z/n, two atoms for V4
    and S3. Found once and kept on the group.
    """
    return kept_slot(g, "_generators", _generators, g)


def _generators(g: FinGroup) -> tuple:
    picks = []
    span = {g.unit_atom}
    for a in g.carrier:
        if a in span:
            continue
        picks.append(a)
        # in a finite group, the subgroup the picks generate is the closure
        # of the unit under right multiplication by the picks
        frontier = span
        while frontier:
            frontier = {g.times(h, s) for h in frontier for s in picks} - span
            span |= frontier
    return tuple(picks)


# ----------------------------------------------------------------- actions ---

class GAction(Record):
    """A certified action: act : G×X -> X satisfying both action diagrams."""

    group: FinGroup
    space: FinSet
    act: FinMap

    def __call__(self, g, x):
        return self.act.table[(g, x)]

    def __repr__(self):
        return f"GAction({self.group!r} on {self.space!r})"


def _laws_on_generators(group: FinGroup, space: FinSet, act: FinMap) -> bool:
    """σ(e) = id and σ(g·s) = σ(g)∘σ(s) for every g and generator s, where
    σ(g) = act(g, -) is read as a list of indices into the space."""
    n = len(space)
    pos = {x: i for i, x in enumerate(space)}
    t = act.table
    # act.src is product_space(G, X), emitted G-major in canonical order
    flat = [pos[t[k]] for k in act.src]
    index = {g: i for i, g in enumerate(group.carrier)}
    rows = [flat[i * n:(i + 1) * n] for i in range(len(index))]
    if rows[index[group.unit_atom]] != list(range(n)):
        return False
    for s in generators(group):
        row_s = rows[index[s]]
        for g, i in index.items():
            row_g = rows[i]
            if rows[index[group.times(g, s)]] != [row_g[j] for j in row_s]:
                return False
    return True


def check_action(group: FinGroup, space: FinSet, act: FinMap) -> GAction:
    """Certify act against both action diagrams.

    The decider checks the unit law on every x and σ(g·s) = σ(g)∘σ(s) for
    every g, every generator s and every x, where σ(g) = act(g, -). This
    implies σ(g·h) = σ(g)∘σ(h) for all h, by induction on the length of h
    as a word in the generators: h = e holds by the unit law, and
    σ(g·h'·s) = σ(g·h')∘σ(s) = σ(g)∘σ(h')∘σ(s) = σ(g)∘σ(h'·s).

    Only on failure does it scan the diagrams pointwise over G×G×X and
    T×X in canonical order, so the witness is the first one: raises
    AssocFail(g,h,x) or UnitFail(x).
    """
    if act.src != product_space(group.carrier, space) or act.dst != space:
        raise ValueError("action must be a map G×X -> X")
    if _laws_on_generators(group, space, act):
        return GAction(group, space, act)
    t = act.table
    for g in group.carrier:
        for h in group.carrier:
            gh = group.times(g, h)
            for x in space:
                if t[(gh, x)] != t[(g, t[(h, x)])]:
                    raise AssocFail(g, h, x)
    e = group.unit_atom
    for x in space:
        if t[(e, x)] != x:
            raise UnitFail(x)
    return GAction(group, space, act)


def action_from_function(group: FinGroup, space: FinSet, fn) -> GAction:
    src = product_space(group.carrier, space)
    return check_action(
        group, space, FinMap(src, space, {(g, x): fn(g, x) for (g, x) in src}))


@memo(lambda group, space: (group.carrier, space))
def trivial_action(group: FinGroup, space: FinSet) -> GAction:
    """G acting by g·x = x: every σ(g) is the identity, so both action laws
    hold, and check_action runs only under cross-check. Its table is a
    `deferred_map`, built when first read."""
    def build():
        src = product_space(group.carrier, space)
        return exact_map(src, space, {k: k[1] for k in src})

    act = deferred_map(space, build)
    return cross_check("the trivial action", GAction(group, space, act),
                       check_action, group, space, act)


def regular_action(group: FinGroup) -> GAction:
    """G acting on itself by left multiplication: the laws are the group's
    associativity and unit, so check_action runs only under cross-check."""
    return cross_check("the regular action", GAction(group, group.carrier, group.mul),
                       check_action, group, group.carrier, group.mul)


def orbits(a: GAction):
    """Orbit partition of the space, each orbit sorted, listed by least atom."""
    seen = set()
    out = []
    for x in a.space:
        if x in seen:
            continue
        orb = sorted({a(g, x) for g in a.group.carrier}, key=atom_key)
        seen.update(orb)
        out.append(tuple(orb))
    return out


class EquivariantMap(Record):
    """A certified equivariant map between two actions of the same group."""

    map: FinMap
    src_action: GAction
    dst_action: GAction

    def __call__(self, x):
        return self.map.table[x]

    def __repr__(self):
        return f"EquivariantMap({self.map.src!r} -> {self.map.dst!r})"


def check_equivariant(f: FinMap, a: GAction, b: GAction) -> EquivariantMap:
    """Certify f(a.act(g,x)) = b.act(g, f(x)) for all g, x.

    a and b must be lawful actions (check_action builds a GAction, and so do
    the constructions lawful by their formula, through `cross_check`). Then
    the square commutes for g·s once it commutes for g and s, and for the
    unit, so checking the generators decides it for every g. They are
    scanned in canonical order, each over x in canonical order, and the
    first failure is raised as EquivarianceFail(s, x). That is the first
    witness of the full scan over G×X: every atom before s is the unit, an
    earlier generator or in the subgroup the earlier generators generate,
    and all of those pass.
    """
    if a.group != b.group:
        raise ValueError("actions are for different groups")
    if f.src != a.space or f.dst != b.space:
        raise ValueError("map endpoints do not match the action spaces")
    ft, at, bt = f.table, a.act.table, b.act.table
    for s in generators(a.group):
        for x in a.space:
            if ft[at[(s, x)]] != bt[(s, ft[x])]:
                raise EquivarianceFail(s, x)
    return EquivariantMap(f, a, b)


def pullback_action(p: GAction, z: GAction, y: GAction,
                    f: EquivariantMap, g: EquivariantMap) -> GAction:
    """The induced action on the pullback P×_Y Z of f along g: the mediating
    map of (act_P ∘ (id×proj1), act_Z ∘ (id×proj2)), h·(a, b) = (h·a, h·b),
    built in one pass over G×(P×_Y Z) and certified as an action. Raises
    SquareNotCommuting((h, (a, b)), f(h·a), g(h·b)) where the two differ.
    No production path calls it: base change writes (h·p, z) directly, and
    this is its reference and the local-triviality oracles' construction.
    """
    if f.src_action != p or f.dst_action != y:
        raise ValueError("f must be an equivariant map P -> Y")
    if g.src_action != z or g.dst_action != y:
        raise ValueError("g must be an equivariant map Z -> Y")
    group = p.group
    cert = pullback(f.map, g.map)
    src = product_space(group.carrier, cert.apex)
    pt, zt, ft, gt = p.act.table, z.act.table, f.map.table, g.map.table
    table = {}
    for k in src:
        h, (a, b) = k
        u, v = pt[(h, a)], zt[(h, b)]
        left, right = ft[u], gt[v]
        if left != right:
            raise SquareNotCommuting(k, left, right)
        table[k] = (u, v)
    return check_action(group, cert.apex, FinMap(src, cert.apex, table))


def product_action(group: FinGroup, u: FinSet) -> GAction:
    """The trivialized model: G acting on G×U by g·(h, u) = (gh, u), left
    multiplication on the first factor, so the unit law is e·h = h and the
    composition law is associativity."""
    space = product_space(group.carrier, u)
    src = product_space(group.carrier, space)
    mul = group.mul.table
    act = exact_map(src, space, {k: (mul[(k[0], k[1][0])], k[1][1]) for k in src})
    return cross_check("the trivialized model action", GAction(group, space, act),
                       check_action, group, space, act)


def gset_isomorphism_over(a: GAction, b: GAction,
                          pa: FinMap, pb: FinMap) -> Optional[FinMap]:
    """Search for an equivariant bijection h with pb ∘ h = pa, backtracking
    over orbit representatives in canonical order; None when none exists.
    No production path calls it: it is the reference of the isos in a fiber,
    the local-triviality oracles' search and classify's class count.
    """
    if a.group != b.group:
        raise ValueError("actions are for different groups")
    if pa.src != a.space or pb.src != b.space or pa.dst != pb.dst:
        raise ValueError("projections must share a target and match the spaces")
    if len(a.space) != len(b.space):
        return None
    group = a.group.carrier
    orbs = orbits(a)
    assignment: dict = {}
    images: set = set()     # assignment.values(), for constant-time probes

    def try_rep(rep, y):
        # propagate the orbit of rep through the candidate image y
        local = {}
        for g in group:
            x2, y2 = a(g, rep), b(g, y)
            if local.get(x2, y2) != y2:
                return None
            local[x2] = y2
        for x2, y2 in local.items():
            if pb.table[y2] != pa.table[x2]:
                return None
        if len(set(local.values())) != len(local):
            return None
        if not images.isdisjoint(local.values()):
            return None
        return local

    def search(k):
        if k == len(orbs):
            return True
        rep = orbs[k][0]
        for y in b.space:
            if pb.table[y] != pa.table[rep]:
                continue
            local = try_rep(rep, y)
            if local is None:
                continue
            assignment.update(local)
            images.update(local.values())
            if search(k + 1):
                return True
            for x2 in local:
                del assignment[x2]
            images.difference_update(local.values())
        return False

    found = search(0)
    del search      # its closure holds itself: a cycle keeping a and b alive
    if not found:
        return None
    h = FinMap(a.space, b.space, assignment)
    # sound by construction, but verify anyway: the caller gets a certificate
    check_equivariant(h, a, b)
    if compose(pb, h) != pa:
        raise RuntimeError("equivariant iso search returned a map not over the base")
    if len(set(h.table.values())) != len(h.src):
        raise RuntimeError("equivariant iso search returned a non-injective map")
    return h
