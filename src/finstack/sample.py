"""The corpora of verify_stack, which yield its cases one at a time:
`build_corpus`, seeded random cases with their covers, bundles, objects,
relabellings and planted faults, and `exhaustive_corpus`, every object,
morphism and point-cover datum over small bases.

Everything here is deterministic given the Random instance passed in, so
test runs and CLI runs with the same seed see the same corpus. Generated
bundles, objects, relabelling isos and conjugated data are lawful by their
formulas, so they are built by `formula_bundle`, `formula_object`,
`formula_morphism` and `cross_check`, which re-run their certifiers only
under cross-check.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Optional

from .action import (
    FinGroup,
    GAction,
    check_equivariant,
    orbits,
)
from .bundle import (
    Bundle,
    enumerate_bundle_morphisms,
    enumerate_bundles,
    formula_bundle,
    trivial_bundle,
)
from .descent import (
    DescentDatum,
    check_cocycle,
    overlap,
    restrict_to_datum,
    twist_overlap,
)
from .errors import BoundExceeded, CocycleFail, EquivarianceFail, TriangleFail
from .finset import (
    FinMap,
    FinSet,
    compose,
    cross_check,
    exact_map,
    fiber,
    invert,
    product_space,
)
from .stack import (
    QSObject,
    check_qs_morphism,
    compose_qs,
    constant_gauge,
    empty_object,
    formula_morphism,
    formula_object,
    qs_identity,
    qs_inverse,
    restrict_morphism,
)
from .topology import (
    CoveringFamily,
    all_maps,
    is_jointly_surjective,
    point_cover,
)


def random_cover(rng: Random, target: FinSet, max_legs: int = 3,
                 max_extra: int = 2, surjective: bool = True) -> CoveringFamily:
    """A random family over the target. With surjective=True every target
    atom is assigned to some leg, so the family is canonical by construction;
    otherwise one atom's coverage is deliberately removed."""
    n_legs = rng.randint(1, max_legs)
    assignment = {y: rng.randrange(n_legs) for y in target}
    missing = rng.choice(target.elements) if (not surjective and len(target)) else None
    legs = []
    for i in range(n_legs):
        vals = [y for y in target if assignment[y] == i and y != missing]
        others = [y for y in target if y != missing]
        if others:
            vals += [rng.choice(others) for _ in range(rng.randint(0, max_extra))]
        src = FinSet(f"u{i}_{k}" for k in range(len(vals)))
        legs.append(FinMap(src, target, {f"u{i}_{k}": v for k, v in enumerate(vals)}))
    fam = CoveringFamily(target, legs)
    if surjective and not is_jointly_surjective(fam):
        raise RuntimeError("a family built to cover misses a target atom")
    return fam


def twist_bundle(rng: Random, b: Bundle):
    """Relabel a bundle by a random fiber-preserving permutation h of its
    total; returns the twist and h, which is an iso onto it.

    The twist is a bundle by its formula g·q = h(g·h⁻¹(q)), so no certifier
    runs: conjugating a lawful action by a bijection keeps both action laws,
    and h keeps each fiber, so the projection stays equivariant onto the
    trivially acted base and each fiber stays a G-torsor. That h keeps the
    fibers is checked. Under cross-check `formula_bundle`'s certifiers
    re-run."""
    perm = {}
    for y in b.base:
        fib = fiber(b.proj.map, y)
        img = list(fib)
        rng.shuffle(img)
        perm.update(zip(fib, img))
    h = FinMap(b.total.space, b.total.space, perm)
    hinv = invert(h)
    if compose(b.proj.map, hinv) != b.proj.map:
        raise RuntimeError("the relabelling moves atoms across fibers")
    src = product_space(b.group.carrier, b.total.space)
    at, ht, hit = b.total.act.table, h.table, hinv.table
    act = exact_map(src, b.total.space, {(g, q): ht[at[(g, hit[q])]] for (g, q) in src})
    return formula_bundle("a relabelled bundle", act, b.proj.map, b.proj.dst_action), h


def random_bundle(rng: Random, group: FinGroup, base: FinSet) -> Bundle:
    return twist_bundle(rng, trivial_bundle(group, base))[0]


def random_qsobject(rng: Random, group: FinGroup, x_action: GAction,
                    base: FinSet) -> QSObject:
    """A random object over the base: a twisted trivial bundle with an alpha
    g·p0 ↦ g·x0 for x0 chosen freely at one point p0 per orbit, equivariant
    by its formula, since the orbits are the fibers, G-torsors."""
    if len(x_action.space) == 0 and len(base) > 0:
        raise ValueError("no structure map into an empty space")
    b = random_bundle(rng, group, base)
    table = {}
    for orb in orbits(b.total):
        x0 = rng.choice(x_action.space.elements)
        for g in group.carrier:
            table[b.total(g, orb[0])] = x_action(g, x0)
    return formula_object("a generated object", b,
                          exact_map(b.total.space, x_action.space, table), x_action)


def relabel_qsobject(rng: Random, obj: QSObject):
    """An isomorphic copy of the object with relabelled total, together with
    the iso onto it. When the relabelling is an automorphism, the copy
    equals obj, and obj itself is handed through, so the restrictions
    memoized on it serve the copy too. Both are lawful by their formulas:
    the copy's alpha is alpha∘h⁻¹, equivariant since h is, and h keeps
    fibers, is equivariant onto the twist and carries alpha to alpha∘h⁻¹."""
    b2, h = twist_bundle(rng, obj.bundle)
    obj2 = formula_object("a relabelled object", b2, compose(obj.alpha.map, invert(h)),
                          obj.x_action)
    if obj2 == obj:
        obj2 = obj
    return obj2, formula_morphism("a relabelling iso", obj, obj2, h)


def conjugate_datum(datum: DescentDatum, leg_isos) -> DescentDatum:
    """Transport a datum along one iso per leg; the overlap isos are
    conjugated accordingly, λ_j∘φ_ij∘λ_i⁻¹ on the same pairs, so cocycle
    validity and the glued iso class are preserved: under cross-check
    `check_cocycle` must pass on both data or on neither."""
    leg_isos = list(leg_isos)
    cover = datum.cover
    n = len(cover.legs)
    if len(leg_isos) != n:
        raise ValueError("need exactly one iso per leg")
    for i, iso in enumerate(leg_isos):
        if iso.src != datum.objects[i]:
            raise ValueError(f"iso {i} does not start at the datum's object")
    new_objects = tuple(iso.dst for iso in leg_isos)
    new_overlaps = {}
    for (i, j), phi in datum.overlaps.items():
        cert = overlap(cover, i, j)
        lam_i = restrict_morphism(leg_isos[i], cert.proj1)
        lam_j = restrict_morphism(leg_isos[j], cert.proj2)
        new_overlaps[(i, j)] = compose_qs(lam_j, compose_qs(phi, qs_inverse(lam_i)))
    conjugate = DescentDatum(cover, new_objects, new_overlaps)
    cross_check("a conjugated datum's cocycle", True,
                lambda: _cocycle_holds(datum) == _cocycle_holds(conjugate))
    return conjugate


def _cocycle_holds(datum: DescentDatum) -> bool:
    """Whether `check_cocycle` passes; a broken cocycle is no fault."""
    try:
        return check_cocycle(datum) is None
    except CocycleFail:
        return False


def break_cocycle(datum: DescentDatum, k, rng: Optional[Random] = None) -> DescentDatum:
    """Twist one overlap iso by the right translation k != e; the result
    fails check_cocycle on some triple through that overlap."""
    candidates = [(i, j) for (i, j), iso in datum.overlaps.items()
                  if len(iso.src.total) > 0]
    if not candidates:
        raise ValueError("no nonempty overlap to twist")
    i, j = rng.choice(candidates) if rng is not None else min(candidates)
    if k == datum.objects[0].bundle.group.unit_atom:
        raise ValueError("twisting by the unit changes nothing")
    return twist_overlap(datum, i, j, k)


def drop_leg(datum: DescentDatum) -> Optional[DescentDatum]:
    """Forget the last leg. Returns None when the rest still covers, else a
    datum over a non-canonical family, which gluing must refuse."""
    cover = datum.cover
    n = len(cover.legs)
    if n == 0:
        return None
    sub = CoveringFamily(cover.target, cover.legs[:-1])
    if is_jointly_surjective(sub):
        return None
    objects = datum.objects[:-1]
    overlaps = {(i, j): iso for (i, j), iso in datum.overlaps.items()
                if i < n - 1 and j < n - 1}
    return DescentDatum(sub, objects, overlaps)


def equivariant_maps(src: GAction, dst: GAction, bound: int = 4096):
    """All equivariant maps between two actions of the same group, by
    filtering the full function space; meant for small instances only."""
    total = len(dst.space) ** len(src.space)
    if total > bound:
        raise BoundExceeded("function space", total, bound)
    out = []
    for m in all_maps(src.space, dst.space):
        try:
            out.append(check_equivariant(m, src, dst))
        except EquivarianceFail:
            continue
    return out


def enumerate_qs_morphisms(a: QSObject, b: QSObject, bound: int = 65536):
    out = []
    for bm in enumerate_bundle_morphisms(a.bundle, b.bundle, bound=bound):
        try:
            out.append(check_qs_morphism(a, b, bm.fn))
        except TriangleFail:
            continue
    return out


def build_corpus(group: FinGroup, x_action: GAction, rng: Random,
                 cases: int = 8, max_base: int = 3):
    """A random verification corpus for [X/G], yielded as (condition, case)
    pairs, the condition naming a `StackReport` field, one case at a time.

    The empty-base round trip comes first. Each random case then contributes
    a round-trip datum, a leg-wise conjugated datum, a morphism gluing
    problem from a relabelled copy, and uniqueness pairs. When the structure
    space is a single point, gauge twists add distinct morphisms, cocycle
    violations and truncated covers as negative cases. A case's structures
    die once the next case starts. Over an empty structure space [∅/G] has
    the empty object alone, so only its round trip is yielded.
    """
    eobj = empty_object(group, x_action)
    yield "effectiveness", (restrict_to_datum(eobj, point_cover(eobj.base)), eobj)
    if len(x_action.space):
        for _ in range(cases):
            yield from _random_case(group, x_action, rng, max_base)


def _random_case(group: FinGroup, x_action: GAction, rng: Random, max_base: int):
    """The pairs of one random case of `build_corpus`; its locals die when it returns."""
    base = FinSet(range(rng.randint(1, max_base)))
    obj = random_qsobject(rng, group, x_action, base)
    cover = point_cover(base) if rng.random() < 0.5 else random_cover(rng, base)
    datum = restrict_to_datum(obj, cover)
    yield "effectiveness", (datum, obj)
    leg_isos = []
    for i in range(len(cover.legs)):
        w = datum.objects[i]
        if rng.random() < 0.5 and len(w.total):
            leg_isos.append(relabel_qsobject(rng, w)[1])
        else:
            leg_isos.append(qs_identity(w))
    yield "effectiveness", (conjugate_datum(datum, leg_isos), obj)
    obj2, m = relabel_qsobject(rng, obj)
    locals_ = tuple(restrict_morphism(m, f) for f in cover.legs)
    yield "gluing", (cover, obj, obj2, locals_, m)
    yield "uniqueness", (cover, m, m)
    if len(x_action.space) == 1:
        k = rng.choice(group.carrier.elements)
        m2 = compose_qs(constant_gauge(obj2, k), m)
        locals2 = tuple(restrict_morphism(m2, f) for f in cover.legs)
        yield "gluing", (cover, obj, obj2, locals2, m2)
        if m2.fn != m.fn:
            yield "uniqueness", (cover, m, m2)
        nonunit = [g for g in group.carrier if g != group.unit_atom]
        if nonunit:
            yield "rejected", break_cocycle(datum, rng.choice(nonunit), rng=rng)
    bad = drop_leg(datum)
    if bad is not None:
        yield "rejected", bad


def exhaustive_corpus(group: FinGroup, x_action: GAction,
                      max_base: int = 2, bound: int = 4096):
    """Every object, morphism and point-cover datum over bases of size up to
    max_base, paired into gluing and uniqueness cases exhaustively, yielded
    as `build_corpus` yields its cases. A base's objects are enumerated
    before its first case, so only one base's are alive at a time."""
    nonunit = [g for g in group.carrier if g != group.unit_atom]
    singleton_x = len(x_action.space) == 1
    for size in range(max_base + 1):
        base = FinSet(range(size))
        cover = point_cover(base)
        objs = []
        for b in enumerate_bundles(group, base, bound=bound):
            for alpha in equivariant_maps(b.total, x_action, bound=bound):
                objs.append(formula_object("an enumerated object", b, alpha.map, x_action))
        for o in objs:
            datum = restrict_to_datum(o, cover)
            yield "effectiveness", (datum, o)
            if size and nonunit and singleton_x:
                yield "rejected", break_cocycle(datum, nonunit[0])
        for a, b2 in itertools.product(objs, objs):
            ms = enumerate_qs_morphisms(a, b2, bound=bound)
            for m in ms:
                locals_ = tuple(restrict_morphism(m, f) for f in cover.legs)
                yield "gluing", (cover, a, b2, locals_, m)
            for m1, m2 in itertools.product(ms, ms):
                yield "uniqueness", (cover, m1, m2)
