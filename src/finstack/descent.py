"""Descent for [X/G] along canonical covers: descent data, cocycle checking,
gluing of morphisms and of objects, and the four stack conditions.

An empty overlap U_i ×_Y U_j imposes nothing: a datum stores isos only on
the leg pairs with a nonempty overlap (`overlapping_pairs`), and every pass
walks those pairs, reading points through indexes by base atom, and each
overlap iso's table in place: φ_ij(w, (a, b)) is the image's first entry.

The cocycle is decided on one point per fiber. `check_cocycle` first checks
that each iso runs between the restrictions of its pair; the isos are then
morphisms, so around a triple overlap both composites are G-maps out of a
fiber of W_i, a G-torsor, and they agree on all of it once they agree at
its least atom (`cocycle_on_one_point`). The scan at every point,
`cocycle_pointwise`, is its oracle, re-run under cross-check.

Gluing builds by point formulas, not through colimits. Once the cocycle
holds, the overlap isos identify a point of W_i with exactly one point of
each W_j over the same base atom, so the glued object is written chart by
chart and its comparison isos back to the datum are single overlap isos,
built when first read.
A glued morphism is fixed point by point by the locals, since the cover is
jointly surjective. The tests keep the coequalizer builds of both as
oracles. A glued object, its comparisons and a glued morphism are lawful
by their formulas once their input is checked (the cocycle, the locals'
endpoints), and so are the restricted datum of an object and the
restrictions everything is built on (`stack.restrict`,
`stack.restrict_morphism`). Each is built by `formula_bundle`,
`formula_object` or `formula_morphism`; `check_qs_morphism`, `make_datum`
and `check_cocycle` re-run on them only under cross-check, and on the hot
path certify only a caller's isos (`make_datum`, `pullback_datum`).

A datum checks its shape and freezes its isos when it is built, so a
restricted datum carries its own certificate: `restrict_to_datum` keeps
the source object on it (`restricted_source`), and `glue_object` glues it
from the source's tables, its cocycle scan re-run only under cross-check.
Any other datum is checked in full.
"""

from __future__ import annotations

from collections.abc import Sequence
from types import MappingProxyType
from typing import NamedTuple, Optional

from .action import FinGroup, GAction, trivial_action
from .bundle import formula_bundle
from .errors import (
    CocycleFail,
    CocycleRequired,
    CoverNotCanonical,
    FinstackError,
    MissingOverlapIso,
    OverlapMismatch,
)
from .finset import (
    FinMap,
    FinSet,
    Record,
    Tag,
    cross_check,
    exact_map,
    fibers,
    identity,
    kept_slot,
    morphism_predicates,
    product_space,
    pullback,
)
from .stack import (
    QSMorphism,
    QSObject,
    check_qs_morphism,
    certify_canonical_iso,
    compose_qs,
    constant_gauge,
    empty_object,
    formula_morphism,
    formula_object,
    qs_isomorphism,
    restrict,
    restrict_morphism,
)
from .topology import CoveringFamily, pullback_family, require_canonical


def overlap(cover: CoveringFamily, i: int, j: int):
    """The canonical pairwise overlap U_i ×_Y U_j with its projections,
    built once per cover and kept on it (`CoveringFamily`)."""
    kept = kept_slot(cover, "_overlaps", dict)
    cert = kept.get((i, j))
    if cert is None:
        cert = kept[(i, j)] = pullback(cover.legs[i], cover.legs[j])
    return cert


def overlapping_pairs(cover: CoveringFamily) -> list:
    """The sorted leg pairs (i, j) whose overlap U_i ×_Y U_j is nonempty,
    found once per cover and kept on it (`CoveringFamily`): read the list,
    never mutate it."""
    return kept_slot(cover, "_pairs", _overlapping_pairs, cover)


def _overlapping_pairs(cover: CoveringFamily) -> list:
    """The pairs, found by indexing the legs by the base atoms they hit."""
    legs_at: dict = {}
    for i, f in enumerate(cover.legs):
        for y in set(f.table.values()):
            legs_at.setdefault(y, []).append(i)
    return sorted({(i, j) for legs in legs_at.values() for i in legs for j in legs})


def _identity_iso(objects, cert, i: int, j: int) -> QSMorphism:
    """The identity over an empty overlap or a mono diagonal, where the two
    restrictions are equal: a morphism by its formula."""
    src = restrict(objects[i], cert.proj1)
    return formula_morphism("an identity overlap iso", src, restrict(objects[j], cert.proj2),
                            identity(src.total))


class DescentDatum(Record):
    """Objects over the legs of a cover plus an overlap iso for every ordered
    pair of legs with a nonempty overlap, diagonal included (a non-mono leg
    has real self-overlap). Isos over empty overlaps are forced, not stored.

    Built checked and frozen: one object per leg, object i over leg i's
    source, all over object 0's group and structure action, and every iso
    keyed by a pair of legs, else ValueError, in that order; the isos are
    kept as a read-only copy, printed as a dict. Their endpoints and the
    cocycle are NOT checked, so violating data are representable;
    glue_object rejects them first. The one exception is a datum
    `restrict_to_datum` returns, lawful by its formulas: it keeps its source
    object in its `_restricted` slot, and glue_object checks its cocycle
    only under cross-check (`restricted_source`). The slot is not a field:
    equality, hash and repr never read it, and a copy, or any datum built
    by hand, starts without it.
    """

    __slots__ = ("_restricted",)

    cover: CoveringFamily
    objects: tuple
    overlaps: MappingProxyType

    def __init__(self, cover, objects, overlaps):
        objects = tuple(objects)
        legs = cover.legs
        if len(objects) != len(legs):
            raise ValueError("need exactly one object per leg")
        for i, (obj, leg) in enumerate(zip(objects, legs)):
            if obj.base != leg.src:
                raise ValueError(f"object {i} lives over {obj.base!r}, leg wants {leg.src!r}")
            if obj.bundle.group != objects[0].bundle.group or obj.x_action != objects[0].x_action:
                raise ValueError(f"object {i} has another group or structure action than object 0")
        indexes = range(len(legs))
        for ij in overlaps:
            if not (type(ij) is tuple and len(ij) == 2 and ij[0] in indexes and ij[1] in indexes):
                raise ValueError(f"overlap iso key {ij!r} is not a pair of legs")
        super().__init__(cover, objects, MappingProxyType(dict(overlaps)))

    def __repr__(self):
        return (f"DescentDatum(cover={self.cover!r}, objects={self.objects!r}, "
                f"overlaps={dict(self.overlaps)!r})")

    def overlap_iso(self, i: int, j: int) -> QSMorphism:
        """The stored iso, else the forced one over an empty overlap; raises
        MissingOverlapIso for a nonempty overlap with no iso."""
        iso = self.overlaps.get((i, j))
        if iso is not None:
            return iso
        cert = overlap(self.cover, i, j)
        if len(cert.apex):
            raise MissingOverlapIso(i, j)
        return _identity_iso(self.objects, cert, i, j)


def restricted_source(datum: DescentDatum) -> Optional[QSObject]:
    """The object `restrict_to_datum` restricted to this datum, else None:
    a datum built by hand, or a copy."""
    return getattr(datum, "_restricted", None)


def make_datum(cover: CoveringFamily, objects, overlaps) -> DescentDatum:
    """Validate the shape (`DescentDatum`), then the isos. Each pair of
    overlapping_pairs(cover) needs an iso: the identity on the diagonal of a
    mono leg is filled in, any other gap raises MissingOverlapIso. Isos over
    empty overlaps are kept. Each must run between the restrictions of its
    pair and be a bijection."""
    datum = DescentDatum(cover, objects, overlaps)
    overlaps = dict(datum.overlaps)
    for i, j in overlapping_pairs(cover):
        if (i, j) in overlaps:
            continue
        cert = overlap(cover, i, j)
        if i != j or cert.proj1 != cert.proj2:
            raise MissingOverlapIso(i, j)
        overlaps[(i, j)] = _identity_iso(datum.objects, cert, i, j)
    datum = DescentDatum(cover, datum.objects, overlaps)
    _check_endpoints(datum)
    for (i, j), iso in overlaps.items():
        if not morphism_predicates(iso.fn).iso:
            raise ValueError(f"overlap iso ({i},{j}) is not a bijection")
    return datum


def _check_endpoints(datum: DescentDatum) -> None:
    """Each iso (i, j) must run from W_i to W_j restricted to U_i ×_Y U_j;
    raises ValueError naming the first that does not."""
    for (i, j), iso in datum.overlaps.items():
        cert = overlap(datum.cover, i, j)
        if iso.src != restrict(datum.objects[i], cert.proj1):
            raise ValueError(f"overlap iso ({i},{j}) has the wrong source")
        if iso.dst != restrict(datum.objects[j], cert.proj2):
            raise ValueError(f"overlap iso ({i},{j}) has the wrong target")


def _require_stored_isos(datum: DescentDatum) -> None:
    """Raise MissingOverlapIso for a nonempty overlap without a stored iso."""
    for i, j in overlapping_pairs(datum.cover):
        if (i, j) not in datum.overlaps:
            raise MissingOverlapIso(i, j)


def _cocycle_scan(datum: DescentDatum, every_point: bool) -> Optional[tuple]:
    """The first (i, j, k, ((a, b), c)) in (i, j, k, a, b, c) order where
    φ_jk∘φ_ij and φ_ik differ on W_i's fiber over a, or None. The fiber is
    scanned at its least atom alone, or at every point if `every_point`.

    A nonempty triple overlap lies over stored pairs (i,j), (j,k), (i,k), so
    the scan takes the stored (i,j) in order and the k whose (j,k), (i,k) are
    stored; c comes from leg k's fiber over a's image, w from W_i's over a.
    What does not depend on k is read once per pair: the partners k, and per
    point (a, b) of the overlap the image y of a and each w with φ_ij(w, (a, b))."""
    cover = datum.cover
    _require_stored_isos(datum)
    phis = {ij: iso.fn.table for ij, iso in datum.overlaps.items()}
    pairs = sorted(phis)
    partners: dict = {}
    for i, k in pairs:
        partners.setdefault(i, []).append(k)
    legs_over = [fibers(f) for f in cover.legs]
    locals_over = [fibers(obj.bundle.proj.map) for obj in datum.objects]
    stop = None if every_point else 1
    for i, j in pairs:
        ks = [k for k in partners[i] if (j, k) in phis]
        if not ks:
            continue
        fi, over_i, phi_ij = cover.legs[i].table, locals_over[i], phis[(i, j)]
        rows = [(a, b, fi[a], [(w, phi_ij[(w, ab)][0]) for w in over_i.get(a, ())[:stop]])
                for ab in overlap(cover, i, j).apex for a, b in (ab,)]
        for k in ks:
            phi_jk, phi_ik, over_k = phis[(j, k)], phis[(i, k)], legs_over[k]
            for a, b, y, ws in rows:
                for c in over_k.get(y, ()):
                    for w, x in ws:
                        if phi_jk[(x, (b, c))][0] != phi_ik[(w, (a, c))][0]:
                            return (i, j, k, ((a, b), c))
    return None


def cocycle_on_one_point(datum: DescentDatum) -> Optional[tuple]:
    """The cocycle decider: `_cocycle_scan` at the least atom w of W_i's
    fiber over a. The isos are morphisms between the right restrictions,
    so φ_jk∘φ_ij and φ_ik are G-maps out of that fiber, a G-torsor, and
    they agree on all of it once they agree at w: where both send w to x,
    both send h·w to h·x. The witness names no w, so it is the pointwise
    scan's."""
    return _cocycle_scan(datum, False)


def cocycle_pointwise(datum: DescentDatum) -> Optional[tuple]:
    """The cocycle by definition, at every point of every fiber: the
    decider's oracle, re-run under cross-check."""
    return _cocycle_scan(datum, True)


def check_cocycle(datum: DescentDatum) -> None:
    """For every ordered triple (i,j,k), the two composites around the
    triple overlap agree pointwise. Raises ValueError when an iso does not
    run between the restrictions of its pair (`_check_endpoints`), else
    CocycleFail(i,j,k,point) at the first failure in (i, j, k, a, b, c)
    order, decided by `cocycle_on_one_point`; under cross-check
    `cocycle_pointwise` re-runs and must name the same witness."""
    _check_endpoints(datum)
    witness = cross_check("the cocycle on one point per fiber", cocycle_on_one_point(datum),
                          cocycle_pointwise, datum)
    if witness is not None:
        raise CocycleFail(*witness)


def restrict_to_datum(obj: QSObject, cover: CoveringFamily) -> DescentDatum:
    """Restrict an object over Y to a datum on the cover, with the canonical
    overlap isos ((p, a), (a, b)) -> ((p, b), (a, b)).

    A datum by its formulas, so no certifier runs. Each iso is a morphism:
    (p, b) lies over b because π(p) = f_i(a) = f_j(b), h acts on p alone,
    (a, b) is kept, and both alphas read alpha(p). It is a bijection, with
    inverse ((p, b), (a, b)) -> ((p, a), (a, b)). The cocycle holds, since
    φ_jk∘φ_ij and φ_ik both send (p, a) over a to (p, c) over c. So neither
    `make_datum` nor `check_cocycle` runs; under cross-check each iso's
    `check_qs_morphism`, then both, re-run. The datum, whose isos cannot
    be replaced, keeps obj (`restricted_source`), which holds no reference
    back to it, so that `glue_object` need not prove the cocycle again."""
    require_canonical(cover)
    if cover.target != obj.base:
        raise ValueError(f"cover is over {cover.target!r}, object over {obj.base!r}")
    objects = tuple(restrict(obj, f) for f in cover.legs)
    overlaps = {}
    for i, j in overlapping_pairs(cover):
        cert = overlap(cover, i, j)
        src = restrict(objects[i], cert.proj1)
        dst = restrict(objects[j], cert.proj2)
        overlaps[(i, j)] = formula_morphism("an overlap iso", src, dst, exact_map(
            src.total, dst.total, {w: ((w[0][0], w[1][1]), w[1]) for w in src.total}))
    datum = cross_check("a restricted datum", DescentDatum(cover, objects, overlaps),
                        make_datum, cover, objects, overlaps)
    cross_check("a restricted datum's cocycle", None, check_cocycle, datum)
    kept_slot(datum, "_restricted", lambda: obj)
    return datum


def glue_morphisms(cover: CoveringFamily, x: QSObject, y: QSObject,
                   locals_: list) -> QSMorphism:
    """Glue per-leg morphisms that agree on overlaps into the unique global
    one, by its point formula: p over y goes where every local sends (p, a)
    for a over y. The overlap scan compares the locals and fills the table,
    and reaches every p, since the cover is jointly surjective and each leg
    i is paired with itself. η is a morphism, as each local (p, a) ↦ (q, a)
    is, so `check_qs_morphism` re-runs only under cross-check; that η
    restricts back to each local is checked."""
    require_canonical(cover)
    if x.base != cover.target or y.base != cover.target:
        raise ValueError("objects do not live over the cover's target")
    locals_ = list(locals_)
    if len(locals_) != len(cover.legs):
        raise ValueError("need exactly one local morphism per leg")
    for i, loc in enumerate(locals_):
        if loc.src != restrict(x, cover.legs[i]) or loc.dst != restrict(y, cover.legs[i]):
            raise ValueError(f"local {i} does not go between the leg restrictions")
    # overlap agreement, pointwise through the canonical identifications
    x_over = fibers(x.bundle.proj.map)
    table = {}
    for i, j in overlapping_pairs(cover):
        fi = cover.legs[i].table
        for a, b in overlap(cover, i, j).apex:
            for p in x_over.get(fi[a], ()):
                qi = locals_[i].fn.table[(p, a)][0]
                qj = locals_[j].fn.table[(p, b)][0]
                if qi != qj:
                    raise OverlapMismatch(i, j, (p, (a, b)))
                table[p] = qi
    eta = formula_morphism("a glued morphism", x, y, exact_map(x.total, y.total, table))
    for i in range(len(cover.legs)):
        if restrict_morphism(eta, cover.legs[i]).fn != locals_[i].fn:
            raise RuntimeError(f"glued morphism does not restrict to local {i}")
    return eta


class Distinguish(NamedTuple):
    """A leg and a point of its restriction where two morphisms differ."""

    leg_index: int
    point: object


def check_uniqueness(cover: CoveringFamily, m1: QSMorphism,
                     m2: QSMorphism) -> Optional[Distinguish]:
    """Two globals with equal restrictions along a canonical cover are equal.
    Returns None when all restrictions (and hence the morphisms) agree, else
    the first distinguishing leg and point."""
    require_canonical(cover)
    if m1.src != m2.src or m1.dst != m2.dst:
        raise ValueError("morphisms do not share endpoints")
    if m1.src.base != cover.target:
        raise ValueError("morphisms do not live over the cover's target")
    for i, f in enumerate(cover.legs):
        r1 = restrict_morphism(m1, f)
        r2 = restrict_morphism(m2, f)
        if r1.fn != r2.fn:
            for pt in r1.fn.src:
                if r1.fn.table[pt] != r2.fn.table[pt]:
                    return Distinguish(i, pt)
    if m1.fn != m2.fn:
        raise RuntimeError("all restrictions agree but the morphisms differ")
    return None


class GluingResult(NamedTuple):
    """The glued object and its comparison isos ψ_j onto the datum's
    objects, one per leg, as a `DeferredComparisons` (a tuple over the
    empty cover)."""

    glued: QSObject
    comparisons: Sequence


class DeferredComparisons(Sequence):
    """The comparison isos of a gluing: their number, one per leg, is known
    at once, and the isos are built by `_comparison_isos` on the first
    index or iteration, once. Until then the sequence holds that function's
    arguments, which refer to the glued object and the datum and never to
    the sequence, so it closes no reference cycle; the first read drops
    them. `==`, `hash` and `repr` read through it, as a tuple's."""

    __slots__ = ("_n", "_args", "_isos")

    def __init__(self, n: int, *args):
        self._n, self._args, self._isos = n, args, None

    def _built(self) -> tuple:
        isos = self._isos
        if isos is None:
            isos = self._isos = _comparison_isos(*self._args)
            self._args = None
        return isos

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other) -> bool:
        if isinstance(other, DeferredComparisons):
            other = other._built()
        return self._built() == other

    def __hash__(self) -> int:
        return hash(self._built())

    def __repr__(self) -> str:
        return repr(self._built())


def glue_object(datum: DescentDatum, group=None, x_action=None) -> GluingResult:
    """Glue a descent datum to a global object by its point formulas.

    Once the cocycle holds, the class of w over a in W_i is
    {(j, φ_ij(w, (a, b)))}. So each base atom y is charted by the least leg
    i that hits it, and a glued point over y is Tag(i, r) for r the first
    atom in W_i's canonical order among the φ_ii(w, (a, b)) for b over y,
    the name the coequalizer of the overlap relation gives it. Action,
    projection and structure map are read through the chart, and
    ψ_j(Tag(i, r), b) = φ_ij(r, (π_i(r), b)).

    These are lawful by their formulas, so no certifier runs on them. The
    overlap isos are morphisms between the right restrictions (checked on
    the input), so each φ_ij is equivariant, lies over U_i ×_Y U_j and
    keeps alpha; with the cocycle, the class of w meets W_j in exactly the
    φ_ij(w, (a, b)), one point over each b. So h·Tag(i, r), the name of
    h·r, is well defined and both action laws hold, as they hold on W_i;
    the projection reads the chart's base atom, which h keeps, and the
    fiber over y is W_i's fiber over one a over y, a G-torsor; alpha reads
    alpha_i(r), equal on the whole class. ψ_j then lies over U_j, is
    equivariant and keeps alpha because φ_ij does, and it agrees with every
    overlap iso by the cocycle. A bundle morphism between G-torsor bundles
    over one base is bijective on each fiber, so each ψ_j is an iso. Under
    cross-check `check_action`, `constructed_bundle`, `check_qs_object`,
    each ψ_j's `check_qs_morphism` with its bijection check, and the scan
    of the ψ_j against the overlap isos re-run.

    The comparisons come back as `DeferredComparisons`: their number is
    known at once, and the restrictions glued|U_j and the ψ_j tables are
    built on the first index or iteration, once, so a caller that reads
    only the glued object or the number of legs builds none of them. Under
    cross-check the scan reads them all, so they are built and certified
    at once.

    The input is checked (its shape when it was built): the cover is
    canonical, every iso runs between the restrictions of its pair (else
    ValueError), and the cocycle holds (else CocycleRequired). The group
    and structure action are object 0's, which all objects share; passing
    others raises ValueError. The empty cover of the empty base has no
    objects to read them from, so it needs both passed in. A datum that
    `restrict_to_datum` built (`restricted_source`) has its isos and
    cocycle by their formulas, so `check_cocycle` re-runs on it only under
    cross-check, and each W_i is the source restricted along leg i: the
    chart reads g·(p, a) = (g·p, a) and alpha(p, a) = alpha(p) from the
    source's tables, not the locals'.
    """
    cover = datum.cover
    require_canonical(cover)
    if datum.objects:
        first = datum.objects[0]
        group = first.bundle.group if group is None else group
        x_action = first.x_action if x_action is None else x_action
        if first.bundle.group != group or first.x_action != x_action:
            raise ValueError("the datum's objects are not all over the group "
                             "and structure action of the gluing")
    elif group is None or x_action is None:
        raise ValueError("gluing over the empty cover needs group and x_action")
    source = restricted_source(datum)
    if source is None:
        try:
            check_cocycle(datum)
        except CocycleFail as err:
            raise CocycleRequired(err) from err
    else:
        cross_check("a glued restricted datum's cocycle", None, check_cocycle, datum)
    n = len(cover.legs)
    if n == 0:
        return GluingResult(empty_object(group, x_action), ())
    # the isos' tables in place: φ_ij(w, (a, b)) is the image's first entry
    phis = {ij: iso.fn.table for ij, iso in datum.overlaps.items()}
    legs = [f.table for f in cover.legs]
    pis = [obj.bundle.proj.map.table for obj in datum.objects]
    chart: dict = {}
    for i, fi in enumerate(legs):
        for y in fi.values():
            chart.setdefault(y, i)
    # names[i][w]: the glued point of w, for w over an atom charted by leg i;
    # W_i is walked in canonical order, so a class is named by its first atom
    # and the points come out i-major in the canonical order of Tag(i, w),
    # already sorted
    names = [{} for _ in range(n)]
    points = []
    for i, obj in enumerate(datum.objects):
        fi, legs_over = legs[i], fibers(cover.legs[i])
        for w in obj.total:
            a = pis[i][w]
            if chart[fi[a]] != i or w in names[i]:
                continue
            q = Tag(i, w)
            points.append(q)
            for b in legs_over[fi[a]]:
                names[i][phis[(i, i)][(w, (a, b))][0]] = q
    total = cross_check("the glued points", FinSet._ordered(points), FinSet, points)
    gxw = product_space(group.carrier, total)
    if source is None:
        acts = [obj.bundle.total.act.table for obj in datum.objects]
        alphas = [obj.alpha.map.table for obj in datum.objects]
        act_table = {(g, q): names[q.part][acts[q.part][(g, q.atom)]] for g, q in gxw}
        alpha_table = {q: alphas[q.part][q.atom] for q in total}
    else:
        # q.atom is (p, a) in source|leg i: g·(p, a) = (g·p, a), alpha(p, a) = alpha(p)
        st, sa = source.bundle.total.act.table, source.alpha.map.table
        act_table = {(g, q): names[q.part][(st[(g, q.atom[0])], q.atom[1])] for g, q in gxw}
        alpha_table = {q: sa[q.atom[0]] for q in total}
    act = exact_map(gxw, total, act_table)
    pi_w = exact_map(total, cover.target,
                     {q: legs[q.part][pis[q.part][q.atom]] for q in total})
    bundle = formula_bundle("a glued bundle", act, pi_w, trivial_action(group, cover.target))
    glued = formula_object("a glued object", bundle,
                           exact_map(total, x_action.space, alpha_table), x_action)
    comparisons = DeferredComparisons(n, cover.legs, datum.objects, glued, phis, pis)
    cross_check("the comparisons against the overlap isos", None,
                _check_comparisons, cover, phis, pi_w, comparisons)
    return GluingResult(glued, comparisons)


def _comparison_isos(legs: tuple, objects: tuple, glued: QSObject, phis: dict,
                     pis: list) -> tuple:
    """The comparison isos ψ_j : glued|U_j -> W_j, one overlap iso per
    point: ψ_j(Tag(i, r), b) = φ_ij(r, (π_i(r), b))."""
    comparisons = []
    for j, fj in enumerate(legs):
        src, dst = restrict(glued, fj), objects[j]
        comparisons.append(formula_morphism("a comparison iso", src, dst, exact_map(
            src.total, dst.total,
            {(q, b): phis[(q.part, j)][(q.atom, (pis[q.part][q.atom], b))][0]
             for q, b in src.total}),
            certify_canonical_iso))
    return tuple(comparisons)


def _check_comparisons(cover: CoveringFamily, phis: dict, pi_w: FinMap,
                       comparisons: Sequence) -> None:
    """Each ψ_j agrees with ψ_i followed by φ_ij, pointwise over every
    stored overlap; raises RuntimeError at the first pair where not. Every
    ψ_j is read first, so a deferred one is built, and certified under
    cross-check, whether or not a stored overlap reaches it."""
    psis = [psi.fn.table for psi in comparisons]
    glued_over = fibers(pi_w)
    for i, j in sorted(phis):
        fi = cover.legs[i].table
        for a, b in overlap(cover, i, j).apex:
            for q in glued_over.get(fi[a], ()):
                if phis[(i, j)][(psis[i][(q, a)], (a, b))][0] != psis[j][(q, b)]:
                    raise RuntimeError(
                        f"comparison isos disagree with overlap iso ({i},{j})")


def twist_overlap(datum: DescentDatum, i: int, j: int, k) -> DescentDatum:
    """The datum with its overlap iso (i, j) followed by the right
    translation by k in the coordinates of the least fiber atom; the cocycle
    is not checked, so a k != e over a nonempty overlap breaks it."""
    phi = datum.overlap_iso(i, j)
    twisted = dict(datum.overlaps)
    twisted[(i, j)] = compose_qs(constant_gauge(phi.dst, k), phi)
    return DescentDatum(datum.cover, datum.objects, twisted)


def pullback_datum(datum: DescentDatum, t: FinMap) -> DescentDatum:
    """Base change of a whole datum along t : Z -> Y; gluing commutes with
    this up to iso, which the tests exercise. The new isos move w over (a, z)
    by the old iso at (w, (a, b)): ((w, (a, z)), ((a, z), (b, z))) ->
    ((φ_ij(w, (a, b)), (b, z)), ((a, z), (b, z))).

    The old isos are the caller's and may be unlawful, so each new one is
    certified by `check_qs_morphism` and the datum by `make_datum`."""
    cover = datum.cover
    if t.dst != cover.target:
        raise ValueError(f"{t.dst!r} != {cover.target!r}")
    new_cover = pullback_family(cover, t)
    new_objects = tuple(
        restrict(obj, pullback(f, t).proj1) for obj, f in zip(datum.objects, cover.legs))
    _require_stored_isos(datum)
    overlaps = {}
    for i, j in overlapping_pairs(new_cover):
        cert = overlap(new_cover, i, j)
        src = restrict(new_objects[i], cert.proj1)
        dst = restrict(new_objects[j], cert.proj2)
        phi = datum.overlaps[(i, j)].fn.table
        table = {((w, az), (az2, bz)): ((phi[(w, (az[0], bz[0]))][0], bz), (az2, bz))
                 for ((w, az), (az2, bz)) in src.total}
        overlaps[(i, j)] = check_qs_morphism(src, dst, FinMap(src.total, dst.total, table))
    return make_datum(new_cover, new_objects, overlaps)


# ------------------------------------------------------------ verify-stack ---

class ConditionReport:
    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.passed = 0
        self.failures = []  # the first two failure messages

    @property
    def ok(self) -> bool:
        return self.passed == self.attempted


class StackReport:
    def __init__(self):
        # every attribute is a condition, keyed by the name the corpus
        # yields, in report order
        self.effectiveness = ConditionReport("effectiveness")
        self.gluing = ConditionReport("gluing of morphisms")
        self.uniqueness = ConditionReport("uniqueness of gluings")
        self.rejected = ConditionReport("rejection of invalid data")

    @property
    def conditions(self) -> dict:
        return dict(vars(self))

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.conditions.values())


def verify_stack(group: FinGroup, x_action: GAction, cases) -> StackReport:
    """Run the four stack conditions over (condition, case) pairs, as
    `sample.build_corpus` yields them, and report. Each case is checked as
    it arrives and then dropped, and a condition keeps the messages of its
    first two failures alone, so memory does not grow with the number of
    cases.

    Effectiveness: every datum glues, and round-trip data glue back to the
    object they came from, up to iso in the fiber. Gluing: compatible local
    morphisms glue to a global one restricting back to them. Uniqueness:
    globals agreeing on a canonical cover are equal. Rejected: an invalid
    datum is refused for its cocycle or its cover.

    A FinstackError from effectiveness or gluing is a witness and counts as
    a failed case. Any other exception is no verdict on the stack and
    propagates: an internal fault, or a ValueError for a case whose shapes
    do not fit, such as an iso between the wrong restrictions.
    """
    report = StackReport()
    for condition, case in cases:
        cond = getattr(report, condition)
        cond.attempted += 1
        failure = _case_failure(group, x_action, condition, case)
        if failure is None:
            cond.passed += 1
        elif len(cond.failures) < 2:
            cond.failures.append(failure)
    return report


def _case_failure(group, x_action, condition, case) -> Optional[str]:
    """Why the case fails its condition, or None when it passes."""
    if condition == "uniqueness":
        cover, m1, m2 = case
        if (check_uniqueness(cover, m1, m2) is None) != (m1.fn == m2.fn):
            return "uniqueness verdict inconsistent"
        return None
    if condition == "rejected":
        try:
            glue_object(case, group=group, x_action=x_action)
        except (CocycleRequired, CoverNotCanonical):
            return None
        return "invalid datum was not rejected"
    try:
        if condition == "effectiveness":
            datum, expected = case
            result = glue_object(datum, group=group, x_action=x_action)
            if expected is not None and qs_isomorphism(result.glued, expected) is None:
                return "not isomorphic to the source object"
        else:
            cover, x, y, locals_, expected = case
            eta = glue_morphisms(cover, x, y, locals_)
            if expected is not None and eta.fn != expected.fn:
                return "glued morphism differs from expected"
    except FinstackError as err:
        return repr(err)
    return None
