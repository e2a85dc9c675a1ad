"""The descent_corpus workload: seeded library cases built from plain tables
and run through finstack's public API, one case at a time.

Every call goes through the `finstack` package namespace at call time
(`fs.glue_object(...)`, never a name bound at import), so the tracer's
wrappers see the calls this module makes.

A case certifies an object, restricts it to a descent datum, glues it back,
glues the restrictions of a relabelling iso, and checks that a twisted datum
and a truncated cover are refused. Each step's right answer is known from
how the case was built.
"""

from __future__ import annotations

from random import Random

from gen import Table

CASE_GROUPS = ("Z2", "Z3", "Z4", "V4", "S3")
MAX_BASE = 4
# every (group, base size) pair once, and the heaviest one again: an odd
# window puts the median case inside one cell's samples, not between two
WINDOW = [(g, n) for n in range(1, MAX_BASE + 1) for g in CASE_GROUPS] + [("S3", MAX_BASE)]
STEPS = 6          # verdicts per case


class Wrong(Exception):
    """A verdict that differs from the known answer."""


def make_case(rng: Random, index: int, tables: dict) -> dict:
    """Plain-table description of case number `index`.

    Cases cycle through WINDOW. The shape of the cover is fixed by the base
    size; the seed picks labels, torsor structures, which atoms the legs
    repeat and borrow, the relabelling and the twist.
    """
    name, n = WINDOW[index % len(WINDOW)]
    grp = tables[name]
    base = [f"y{t}" for t in rng.sample(range(10 * MAX_BASE), n)]
    elems = grp.elems

    # each fiber carries the regular action conjugated by a random
    # relabelling beta: g . (h, y) = (beta(g * beta^-1(h)), y), free and
    # transitive by construction
    act = {}
    for y in base:
        beta = dict(zip(elems, rng.sample(elems, len(elems))))
        binv = {v: k for k, v in beta.items()}
        for g in elems:
            for h in elems:
                act[(g, (h, y))] = (beta[grp.mul[(g, binv[h])]], y)
    total = [(h, y) for y in base for h in elems]

    # cover: one private chunk per leg, one repeated atom per leg (non-mono)
    # and one atom borrowed from another chunk (overlap); the last leg keeps
    # a private atom, so dropping it leaves a family that misses that atom
    n_legs = min(3, n)
    order = rng.sample(base, n)
    chunks = [order[i::n_legs] for i in range(n_legs)]
    protected = chunks[-1][0]
    legs = []
    for i, chunk in enumerate(chunks):
        values = list(chunk) + [rng.choice(chunk)]
        others = [y for y in base if y not in chunk and y != protected]
        if others:
            values.append(rng.choice(others))
        legs.append({f"u{i}_{t}": v for t, v in enumerate(values)})
    images = [set(leg.values()) for leg in legs]
    overlapping = [(i, j) for i in range(n_legs) for j in range(n_legs)
                   if i != j and images[i] & images[j]] or [(0, 0)]

    relabel = {}
    for y in base:
        fib = [(h, y) for h in elems]
        relabel.update(zip(fib, rng.sample(fib, len(fib))))
    return {
        "group": grp.name, "base": base, "total": total, "act": act,
        "legs": legs, "relabel": relabel,
        "twist": rng.choice(overlapping), "k": rng.choice(grp.nonunit),
    }


def catalog(fs):
    """(tables, groups): the plain tables of the case groups and the
    certified groups built from them, both keyed by name."""
    tables = {name: Table(name) for name in CASE_GROUPS}
    groups = {name: fs.group_from_table(t.elems, t.rows()) for name, t in tables.items()}
    return tables, groups


def _certify(fs, group, base, total, act_table):
    """Certify the plain tables as an object of [T/G] over base."""
    space = fs.FinSet(total)
    act = fs.check_action(group, space,
                          fs.FinMap(fs.product(group.carrier, space).space, space, act_table))
    proj = fs.check_equivariant(fs.FinMap(space, base, {p: p[1] for p in total}),
                                act, fs.trivial_action(group, base))
    bundle = fs.is_principal_bundle(proj)
    if not isinstance(bundle, fs.Bundle):
        raise Wrong(f"free transitive fibers reported as {bundle!r}")
    point = fs.terminal()
    return fs.check_qs_object(bundle, fs.FinMap(space, point, {p: "*" for p in total}),
                              fs.trivial_action(group, point))


def run_case(fs, groups: dict, tables: dict, case: dict) -> None:
    """Run the six steps of one case; raise Wrong at the first verdict that
    differs from the known answer."""
    group, grp = groups[case["group"]], tables[case["group"]]
    base = fs.FinSet(case["base"])
    obj = _certify(fs, group, base, case["total"], case["act"])

    legs = [fs.FinMap(fs.FinSet(leg), base, leg) for leg in case["legs"]]
    cover = fs.CoveringFamily(base, legs)
    datum = fs.restrict_to_datum(obj, cover)
    if len(datum.objects) != len(legs):
        raise Wrong("datum has the wrong number of local objects")

    glued = fs.glue_object(datum)
    if len(glued.glued.total) != len(case["total"]) or len(glued.comparisons) != len(legs):
        raise Wrong("glued object has the wrong size")
    if fs.qs_isomorphism(glued.glued, obj) is None:
        raise Wrong("glued object is not isomorphic to the source")

    h = case["relabel"]
    hinv = {v: k for k, v in h.items()}
    act2 = {(g, q): h[case["act"][(g, hinv[q])]] for (g, q) in case["act"]}
    obj2 = _certify(fs, group, base, case["total"], act2)
    m = fs.check_qs_morphism(obj, obj2, fs.FinMap(obj.total, obj2.total, h))
    locals_ = [fs.restrict_morphism(m, f) for f in legs]
    eta = fs.glue_morphisms(cover, obj, obj2, locals_)
    if eta.fn.table != h:
        raise Wrong("glued morphism is not the relabelling")

    # right translation by k != e in the coordinates of one point per fiber
    i, j = case["twist"]
    phi = datum.overlap_iso(i, j)
    w = phi.dst
    proj, act = w.bundle.proj.map.table, w.bundle.total.act.table
    first = {}
    for p in w.total:
        first.setdefault(proj[p], p)
    gauge = {}
    for w0 in first.values():
        for g in grp.elems:
            gauge[act[(g, w0)]] = act[(grp.mul[(g, case["k"])], w0)]
    twisted = dict(datum.overlaps)
    twisted[(i, j)] = fs.compose_qs(
        fs.check_qs_morphism(w, w, fs.FinMap(w.total, w.total, gauge)), phi)
    try:
        fs.glue_object(fs.DescentDatum(cover, datum.objects, twisted))
    except fs.CocycleRequired as err:
        if err.cause.kind() != "CocycleFail":
            raise Wrong(f"twist refused with {err.cause.kind()}") from err
    else:
        raise Wrong("twisted datum was glued")

    n = len(legs)
    short = fs.CoveringFamily(base, legs[:-1])
    kept = {ij: iso for ij, iso in datum.overlaps.items() if max(ij) < n - 1}
    try:
        fs.glue_object(fs.DescentDatum(short, datum.objects[:-1], kept))
    except fs.CoverNotCanonical:
        pass
    else:
        raise Wrong("truncated cover was accepted")
