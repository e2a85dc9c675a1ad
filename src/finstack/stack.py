"""Fibers of the quotient prestack [X/G]: objects are bundles with an
equivariant map to X, morphisms are bundle maps compatible with those,
restriction is by base change, and the pseudofunctor coherence cells are
computed isos, not assumptions: each component of ι and ε is written by its
point formula on the pulled-back totals, and the tests keep the pullbacks'
mediated maps as their oracles.

Every object and morphism this module builds from others is lawful by its
formula, so `formula_object` or `formula_morphism` builds it and re-runs
its certifier only under cross-check; each docstring gives the argument.
`check_qs_object` and `check_qs_morphism` certify a caller's tables, and
`fiber_gauge` its caller's k, at one point per fiber.

`classifying_fiber_equiv` counts [T/G](Y) ≃ Bun_G(Y) by closed forms, for
every base: nothing is enumerated, so no bound applies. Its oracle,
`classify_by_enumeration`, enumerates `classify_enumeration_cost` items at
most, and the caller runs it only within its bound.
"""

from __future__ import annotations

from typing import Optional

from .action import (
    EquivariantMap,
    FinGroup,
    GAction,
    check_equivariant,
    gset_isomorphism_over,
    trivial_action,
)
from .bundle import (
    Bundle,
    bundle_count,
    bundle_morphism_count,
    check_bundle_morphism,
    enumerate_bundle_morphisms,
    enumerate_bundles,
    fiber_map,
    pullback_bundle,
    trivial_bundle,
)
from .errors import TriangleFail
from .finset import (
    FinMap,
    FinSet,
    Record,
    bang,
    compose,
    cross_check,
    deferred_map,
    exact_map,
    fibers,
    identity,
    invert,
    memo,
    morphism_predicates,
    terminal,
)


class QuotientStack(Record):
    """The stack handle: a group acting on a space, over the canonical
    topology."""

    group: FinGroup
    x_action: GAction

    @property
    def space(self) -> FinSet:
        return self.x_action.space


def classifying_stack(group: FinGroup) -> QuotientStack:
    """[T/G]: the classifying case, X the terminal set."""
    return QuotientStack(group, trivial_action(group, terminal()))


class QSObject(Record):
    """An object of [X/G] over its base: a bundle P -> Y with an
    equivariant alpha : P -> X."""

    bundle: Bundle
    alpha: EquivariantMap

    @property
    def base(self) -> FinSet:
        return self.bundle.base

    @property
    def total(self) -> FinSet:
        return self.bundle.total.space

    @property
    def x_action(self) -> GAction:
        return self.alpha.dst_action

    def __repr__(self):
        return f"QSObject(|{len(self.total)}| over {self.base!r})"


def check_qs_object(bundle: Bundle, alpha: FinMap, x_action: GAction) -> QSObject:
    """Certify alpha as an equivariant map from the total action to X."""
    if x_action.group != bundle.group:
        raise ValueError("x-action is for a different group")
    eq = check_equivariant(alpha, bundle.total, x_action)
    return QSObject(bundle, eq)


class QSMorphism(Record):
    """A bundle morphism fn whose map also commutes with the alphas; src
    and dst fix its bundles and totals."""

    src: QSObject
    dst: QSObject
    fn: FinMap

    def __repr__(self):
        return f"QSMorphism({self.src!r} => {self.dst!r})"


def check_qs_morphism(src: QSObject, dst: QSObject, m: FinMap) -> QSMorphism:
    check_bundle_morphism(src.bundle, dst.bundle, m)
    for p in src.total:
        if dst.alpha.map.table[m.table[p]] != src.alpha.map.table[p]:
            raise TriangleFail(p, "alpha")
    return QSMorphism(src, dst, m)


def formula_object(what: str, bundle: Bundle, alpha: FinMap, x_action: GAction) -> QSObject:
    """The object (bundle, alpha) of the fiber, for a caller whose formula
    makes alpha equivariant: the record `check_qs_object` would return,
    built without running it. Under cross-check that re-runs."""
    return cross_check(what, QSObject(bundle, EquivariantMap(alpha, bundle.total, x_action)),
                       check_qs_object, bundle, alpha, x_action)


def formula_morphism(what: str, src: QSObject, dst: QSObject, fn: FinMap,
                     certify=None) -> QSMorphism:
    """The morphism src => dst with map fn, written by a point formula that
    makes it one: the record `check_qs_morphism` would return, built
    without running it. Under cross-check `certify(src, dst, fn)`, by
    default that certifier, re-runs and must return the same record."""
    return cross_check(what, QSMorphism(src, dst, fn), certify or check_qs_morphism,
                       src, dst, fn)


def fiber_gauge(obj: QSObject, k_by_base: dict) -> QSMorphism:
    """The automorphism acting on the fiber over y as the right translation
    by k_by_base[y] in the coordinates of the least fiber atom w0: the fiber
    map onto k·w0, a bundle morphism by its formula. Raises TriangleFail at
    the first w0, in fiber order, whose k moves alpha: alpha(g·k·w0) =
    g·alpha(k·w0), so a fiber keeps alpha at every point or at none, and
    that w0 is where `check_qs_morphism`, re-run under cross-check, fails."""
    act, at = obj.bundle.total, obj.alpha.map.table
    fibs = fibers(obj.bundle.proj.map)
    image = {y: act(k_by_base[y], fib[0]) for y, fib in fibs.items()}
    for y, fib in fibs.items():
        if at[image[y]] != at[fib[0]]:
            raise TriangleFail(fib[0], "alpha")
    return formula_morphism("a fiber gauge", obj, obj, fiber_map(obj.bundle, obj.bundle, image))


def constant_gauge(obj: QSObject, k) -> QSMorphism:
    return fiber_gauge(obj, {y: k for y in obj.base})


def empty_object(group: FinGroup, x_action: GAction) -> QSObject:
    """The unique object over the empty base, with its empty alpha."""
    b = trivial_bundle(group, FinSet(()))
    return formula_object("the empty object", b, exact_map(b.total.space, x_action.space, {}),
                          x_action)


# morphisms by their formulas; a morphism between G-torsor bundles over
# one base is bijective, so `invert` always finds the inverse
def qs_identity(obj: QSObject) -> QSMorphism:
    return formula_morphism("an identity", obj, obj, identity(obj.total))


def compose_qs(m2: QSMorphism, m1: QSMorphism) -> QSMorphism:
    if m1.dst != m2.src:
        raise ValueError("morphisms are not composable")
    return formula_morphism("a composite", m1.src, m2.dst, compose(m2.fn, m1.fn))


def qs_inverse(m: QSMorphism) -> QSMorphism:
    return formula_morphism("an inverse", m.dst, m.src, invert(m.fn))


@memo(lambda obj, f: (obj.total, f))
def restrict(obj: QSObject, f: FinMap) -> QSObject:
    """Restriction along f : Z -> Y, by base change of the bundle; the new
    alpha is (p, z) ↦ alpha(p).

    That alpha is equivariant by its formula, so `check_qs_object` does not
    run: h·(p, z) = (h·p, z) goes to alpha(h·p) = h·alpha(p). Under
    cross-check it re-runs on the result. Like the base change's tables,
    alpha is a `deferred_map`, written (reading obj's alpha) the first
    time something reads it."""
    if f.dst != obj.base:
        raise ValueError(f"{f.dst!r} != {obj.base!r}")
    b = pullback_bundle(obj.bundle, f)
    space, parent, x = b.total.space, obj.alpha.map, obj.x_action.space

    def build():
        at = parent.table
        return exact_map(space, x, {pz: at[pz[0]] for pz in space})

    return formula_object("a restriction", b, deferred_map(x, build), obj.x_action)


def restrict_morphism(m: QSMorphism, f: FinMap) -> QSMorphism:
    """Restriction of a morphism along f : Z -> Y, by its point formula
    (p, z) ↦ (m(p), z) on the pulled-back totals. That is the map the
    pullback's universal property mediates from m after the first
    projection and the second projection.

    It is a morphism by its formula, so `check_qs_morphism` does not run:
    (m(p), z) lies in the target's total because m lies over the base; h
    acts on (p, z) as on p, so it is equivariant because m is; it keeps z,
    so it lies over Z; and its alpha is alpha(m(p)) = alpha(p), because m
    commutes with the alphas. Under cross-check it re-runs."""
    src = restrict(m.src, f)
    dst = restrict(m.dst, f)
    mt = m.fn.table
    return formula_morphism("a restricted morphism", src, dst, exact_map(
        src.total, dst.total, {pz: (mt[pz[0]], pz[1]) for pz in src.total}))


def certify_canonical_iso(src: QSObject, dst: QSObject, fn: FinMap) -> QSMorphism:
    """The certifier of an iso in a fiber of [X/G] written by its point
    formula: a bijection of the totals, and `check_qs_morphism`. It runs
    only under cross-check, where a failure is an internal fault."""
    if not morphism_predicates(fn).iso:
        raise RuntimeError("a canonical iso is not a bijection")
    return check_qs_morphism(src, dst, fn)


def iota_component(obj: QSObject) -> QSMorphism:
    """The canonical iso restrict(obj, id) -> obj, (p, y) ↦ p: the first
    projection of the pullback along the identity.

    An iso in the fiber by its formula, so neither its bijectivity nor
    `check_qs_morphism` is checked: the pullback along the identity pairs
    each p with y = π(p) alone, so the map is a bijection over the base;
    h·(p, y) = (h·p, y) and the alpha (p, y) ↦ alpha(p) of the restriction
    make it equivariant and commute with the alphas. Under cross-check
    `certify_canonical_iso` re-runs."""
    src = restrict(obj, identity(obj.base))
    return formula_morphism("an ι component", src, obj, exact_map(
        src.total, obj.total, {py: py[0] for py in src.total}), certify_canonical_iso)


def epsilon_component(obj: QSObject, f: FinMap, g: FinMap) -> QSMorphism:
    """The canonical iso restrict(obj, f∘g) -> restrict(restrict(obj, f), g),
    (p, z) ↦ ((p, g(z)), z).

    An iso in the fiber by its formula, checked the same way as ι's: π(p)
    = f(g(z)) puts (p, g(z)) in P ×_Y X and the image in the target's
    total, ((p, x), z) ↦ (p, z) is its inverse, h acts on p alone on both
    sides, z is kept, and both alphas read alpha(p)."""
    if f.dst != obj.base or g.dst != f.src:
        raise ValueError("maps are not composable under the object's base")
    src, dst = restrict(obj, compose(f, g)), restrict(restrict(obj, f), g)
    gt = g.table
    return formula_morphism("an ε component", src, dst, exact_map(
        src.total, dst.total, {pz: ((pz[0], gt[pz[1]]), pz[1]) for pz in src.total}),
        certify_canonical_iso)


class CoherenceCell(Record):
    """A family of verified canonical isos, with its naturality evidence."""

    kind: str
    components: tuple
    naturality_squares: int


def coherence_iota(base: FinSet, objects, morphisms=()) -> CoherenceCell:
    """ι on a sample of the fiber over `base`: components for each object,
    naturality checked on each sampled morphism."""
    objects = tuple(objects)
    comps = {}
    for obj in objects:
        if obj.base != base:
            raise ValueError(f"object over {obj.base!r}, expected {base!r}")
        comps[obj] = iota_component(obj)
    checked = 0
    for m in morphisms:
        left = compose_qs(comps[m.dst], restrict_morphism(m, identity(base)))
        right = compose_qs(m, comps[m.src])
        if left.fn != right.fn:
            raise RuntimeError("iota naturality square failed")
        checked += 1
    return CoherenceCell("iota", tuple(comps[o] for o in objects), checked)


def coherence_epsilon(f: FinMap, g: FinMap, objects, morphisms=()) -> CoherenceCell:
    """ε_{f,g} on a sample of the fiber over f's target."""
    objects = tuple(objects)
    comps = {obj: epsilon_component(obj, f, g) for obj in objects}
    fg = compose(f, g)
    checked = 0
    for m in morphisms:
        left = compose_qs(comps[m.dst], restrict_morphism(m, fg))
        right = compose_qs(restrict_morphism(restrict_morphism(m, f), g),
                           comps[m.src])
        if left.fn != right.fn:
            raise RuntimeError("epsilon naturality square failed")
        checked += 1
    return CoherenceCell("epsilon", tuple(comps[o] for o in objects), checked)


def coherence_assoc(obj: QSObject, f: FinMap, g: FinMap, h: FinMap) -> bool:
    """The two ε routes restrict(obj, f∘g∘h) -> ((obj|f)|g)|h agree."""
    route_a = compose_qs(
        coherence_epsilon(g, h, [restrict(obj, f)]).components[0],
        epsilon_component(obj, f, compose(g, h)))
    route_b = compose_qs(
        restrict_morphism(epsilon_component(obj, f, g), h),
        epsilon_component(obj, compose(f, g), h))
    if route_a.fn != route_b.fn:
        raise RuntimeError("epsilon associativity failed")
    return True


def coherence_triangles(obj: QSObject, f: FinMap) -> bool:
    """ε against ι: both unit triangles collapse to the identity."""
    r = restrict(obj, f)
    left = compose_qs(iota_component(r), epsilon_component(obj, f, identity(f.src)))
    if left.fn != identity(r.total):
        raise RuntimeError("right unit triangle failed")
    eps = epsilon_component(obj, identity(obj.base), f)
    back = restrict_morphism(iota_component(obj), f)
    if compose_qs(back, eps).fn != identity(r.total):
        raise RuntimeError("left unit triangle failed")
    return True


# ------------------------------------------------------- classifying stack ---

def qs_isomorphism(a: QSObject, b: QSObject) -> Optional[FinMap]:
    """An iso of a and b in their fiber: an equivariant bijection of totals
    over the base that also commutes with the alphas, or None.

    It is the fiber map sending the least atom p0 of each fiber to a q0
    with alpha_b(q0) = alpha_a(p0). The first such q0 gives the map that the
    search `gset_isomorphism_over` returns first: the fibers are its orbits,
    and they never collide, so it never backtracks.

    An iso by its formula, so no certifier runs: g·p0 ↦ g·q0 is the one
    equivariant map with those images, it lies over the base because q0
    lies over p0's base atom, and it keeps alpha, since alpha_b(g·q0) =
    g·alpha_b(q0) = g·alpha_a(p0) = alpha_a(g·p0); a bundle morphism
    between G-torsor bundles over one base is bijective on each fiber.
    Under cross-check `certify_canonical_iso` re-runs. No q0 with the
    alpha of p0 means no iso: None is a verdict."""
    if a.base != b.base or a.x_action != b.x_action:
        return None
    aa, ba = a.alpha.map.table, b.alpha.map.table
    b_fibers = fibers(b.bundle.proj.map)
    image = {}
    for y, fib in fibers(a.bundle.proj.map).items():
        image[y] = next((q for q in b_fibers[y] if ba[q] == aa[fib[0]]), None)
        if image[y] is None:
            return None
    return formula_morphism("an iso in a fiber", a, b, fiber_map(a.bundle, b.bundle, image),
                            certify_canonical_iso).fn


class ClassifyingReport(Record):
    """Bun_G(Y) counted: its bundles, their iso classes and the
    automorphisms of the trivial one. [T/G](Y) agrees by construction."""

    n_bundles: int
    iso_classes: int
    aut_trivial: int


def classifying_fiber_equiv(group: FinGroup, base: FinSet) -> ClassifyingReport:
    """Bun_G(base) ≃ [T/G](base) counted by its closed forms: the bundles on
    the canonical total set, one iso class, since a bundle over a finite set
    is trivial (the fiber map onto any atom of each G-torsor fiber is an
    iso), and the automorphisms of the trivial bundle, one right translation
    per fiber. Nothing is built, so every base gets its answer;
    `classify_by_enumeration` is the oracle."""
    return ClassifyingReport(bundle_count(group, base), 1, bundle_morphism_count(group, base))


def classify_enumeration_cost(group: FinGroup, base: FinSet) -> int:
    """The largest enumeration `classify_by_enumeration` runs: the bundles,
    or the |G|^|base| morphisms of one hom set, whichever are more."""
    return max(bundle_count(group, base), bundle_morphism_count(group, base))


def classify_by_enumeration(group: FinGroup, base: FinSet, bound: int) -> ClassifyingReport:
    """`classifying_fiber_equiv` by definition: every bundle, certified as
    an object of [T/G] with its map to the point, and the hom sets among
    the first three, each morphism certified; the classes by the search
    `gset_isomorphism_over` against one representative each, and the
    distinct automorphisms of the trivial bundle."""
    x_act = trivial_action(group, terminal())
    reps, firsts = [], []
    for n, b in enumerate(enumerate_bundles(group, base, bound=bound), 1):
        obj = check_qs_object(b, bang(b.total.space), x_act)
        if len(firsts) < 3:
            firsts.append(obj)
        if all(gset_isomorphism_over(b.total, r.total, b.proj.map, r.proj.map) is None
               for r in reps):
            reps.append(b)
    for src in firsts:
        for dst in firsts:
            for bm in enumerate_bundle_morphisms(src.bundle, dst.bundle, bound=bound):
                check_qs_morphism(src, dst, bm.fn)
    triv = trivial_bundle(group, base)
    auts = {bm.fn for bm in enumerate_bundle_morphisms(triv, triv, bound=bound)}
    return ClassifyingReport(n, len(reps), len(auts))
