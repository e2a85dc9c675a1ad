"""Descent along canonical covers: data, cocycles, gluing of objects and
morphisms, uniqueness, and the stack verdict over generated corpora."""

import copy
import gc
import itertools
import re
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, strategies as st

import finstack.descent
from finstack import (
    CocycleFail,
    CocycleRequired,
    CoverNotCanonical,
    CoveringFamily,
    DescentDatum,
    FinMap,
    FinSet,
    MissingOverlapIso,
    OverlapMismatch,
    check_cocycle,
    check_uniqueness,
    compose_qs,
    glue_morphisms,
    glue_object,
    identity,
    klein_four,
    regular_action,
    point_cover,
    pullback_datum,
    qs_identity,
    qs_isomorphism,
    restrict,
    restrict_morphism,
    restrict_to_datum,
    sym,
    terminal,
    verify_stack,
    zmod,
)
from finstack.action import check_action, check_equivariant, trivial_action
from finstack.bundle import NotBundle, is_principal_bundle
from finstack.descent import (
    Distinguish,
    GluingResult,
    overlap,
    overlapping_pairs,
    restricted_source,
    twist_overlap,
)
from finstack.errors import FinstackError
from finstack.finset import (
    CrossCheck,
    Tag,
    coequalizer,
    compose,
    copair,
    coproduct,
    fibers,
    invert,
    is_mono,
    mediate_coequalizer,
    morphism_predicates,
    product,
    pullback,
)
from finstack.sample import (
    break_cocycle,
    build_corpus,
    conjugate_datum,
    drop_leg,
    exhaustive_corpus,
    random_cover,
    random_qsobject,
    relabel_qsobject,
)
from finstack.sitefile import load_site, parse_site
from finstack.stack import (
    QSMorphism,
    check_qs_morphism,
    check_qs_object,
    constant_gauge,
    empty_object,
    fiber_gauge,
    restricted_map,
)
from finstack.topology import is_jointly_surjective, require_canonical

from support import (
    group_catalog,
    mediate_pullback,
    point_x,
    random_finset,
    random_gset,
    random_map,
    trivial_object,
)

SITES = Path(__file__).resolve().parent.parent / "sites"


# ------------------------------------------------------------- data

def test_a_datum_fills_forced_overlaps_only():
    z2 = zmod(2)
    obj = trivial_object(z2, FinSet(("p", "q")))
    cover = point_cover(obj.base)
    datum = restrict_to_datum(obj, cover)
    # disjoint point legs: every off-diagonal overlap is empty, so a datum
    # can be rebuilt from the objects alone
    rebuilt = DescentDatum(cover, datum.objects, {})
    assert rebuilt == datum
    # two legs sharing the point q have a real overlap that must be supplied
    base = obj.base
    f = FinMap(FinSet(("a", "b")), base, {"a": "p", "b": "q"})
    g = FinMap(FinSet(("c",)), base, {"c": "q"})
    sharing = CoveringFamily(base, [f, g])
    parts = restrict_to_datum(obj, sharing)
    partial = {k: v for k, v in parts.overlaps.items() if k != (0, 1)}
    with pytest.raises(MissingOverlapIso) as exc:
        DescentDatum(sharing, parts.objects, partial)
    assert (exc.value.i, exc.value.j) == (0, 1)


def mixed_objects():
    """A Z/2 object over leg 0 and a Z/3 object over leg 1 of the point
    cover of a 2-atom base; the legs do not meet."""
    cover = point_cover(FinSet(("p", "q")))
    objects = [trivial_object(grp, leg.src)
               for grp, leg in zip((zmod(2), zmod(3)), cover.legs)]
    diagonals = {(i, i): qs_identity(restrict(obj, overlap(cover, i, i).proj1))
                 for i, obj in enumerate(objects)}
    return cover, objects, diagonals


def test_a_datum_refuses_mixed_groups():
    cover, objects, _ = mixed_objects()
    with pytest.raises(ValueError, match="another group or structure action"):
        DescentDatum(cover, objects, {})
    # the same group over another structure space is refused too
    z2 = zmod(2)
    other = random_qsobject(Random(3), z2, regular_action(z2), cover.legs[1].src)
    with pytest.raises(ValueError, match="another group or structure action"):
        DescentDatum(cover, [objects[0], other], {})


def test_glue_refuses_objects_off_its_group():
    cover, objects, diagonals = mixed_objects()
    # a record of mixed objects, with the diagonal isos given, is refused when
    # it is built, not with the action law failure of a mixed total when glued
    with pytest.raises(ValueError, match=re.escape(
            "object 1 has another group or structure action than object 0")):
        finstack.descent.DescentDatum(cover, tuple(objects), diagonals)
    z2 = zmod(2)
    datum = restrict_to_datum(trivial_object(z2, cover.target), cover)
    with pytest.raises(ValueError, match="not all over the group"):
        glue_object(datum, group=zmod(3), x_action=point_x(zmod(3)))
    with pytest.raises(ValueError, match="not all over the group"):
        glue_object(datum, x_action=regular_action(z2))
    assert glue_object(datum, group=z2).glued.x_action == point_x(z2)


def test_round_trip_datum_passes_cocycle():
    z2 = zmod(2)
    obj = trivial_object(z2, FinSet(("p", "q")))
    datum = restrict_to_datum(obj, point_cover(obj.base))
    check_cocycle(datum)  # no raise
    assert len(datum.objects) == 2
    assert datum.overlap_iso(0, 1).src.base == datum.overlap_iso(0, 1).dst.base


def test_restrict_to_datum_needs_matching_base():
    z2 = zmod(2)
    obj = trivial_object(z2, FinSet(("p",)))
    with pytest.raises(ValueError):
        restrict_to_datum(obj, point_cover(FinSet(("z",))))


def test_restrict_to_datum_needs_canonical_cover():
    z2 = zmod(2)
    obj = trivial_object(z2, FinSet(("p", "q")))
    missing = CoveringFamily(obj.base, [point_cover(obj.base).legs[0]])
    with pytest.raises(CoverNotCanonical):
        restrict_to_datum(obj, missing)


def test_broken_cocycle_is_detected(rng):
    z2 = zmod(2)
    obj = trivial_object(z2, FinSet(("p", "q")))
    datum = restrict_to_datum(obj, point_cover(obj.base))
    bad = break_cocycle(datum, 1)
    with pytest.raises(CocycleFail) as exc:
        check_cocycle(bad)
    assert exc.value.i == exc.value.j == exc.value.k
    with pytest.raises(ValueError):
        break_cocycle(datum, 0)  # the unit twists nothing


# ------------------------------------------------ sparse data and oracles

def dense_cocycle_witness(datum):
    """The first failing (i, j, k, point) of the dense cocycle scan over all
    triples of legs and all (a, b, c, w), or None: the oracle that
    check_cocycle must agree with. Reads every pair through overlap_iso."""
    cover = datum.cover
    n = len(cover.legs)
    phis = {(i, j): {key: v[0] for key, v in datum.overlap_iso(i, j).fn.table.items()}
            for i in range(n) for j in range(n)}
    pis = [obj.bundle.proj.map.table for obj in datum.objects]
    for i, j, k in itertools.product(range(n), repeat=3):
        fi, fj, fk = (cover.legs[m].table for m in (i, j, k))
        for a in cover.legs[i].src:
            for b in cover.legs[j].src:
                if fi[a] != fj[b]:
                    continue
                for c in cover.legs[k].src:
                    if fi[a] != fk[c]:
                        continue
                    for w in datum.objects[i].total:
                        if pis[i][w] != a:
                            continue
                        w2 = phis[(j, k)][(phis[(i, j)][(w, (a, b))], (b, c))]
                        if w2 != phis[(i, k)][(w, (a, c))]:
                            return (i, j, k, ((a, b), c))
    return None


def sparse_cocycle_witness(datum):
    try:
        check_cocycle(datum)
    except CocycleFail as err:
        return (err.i, err.j, err.k, err.point)
    return None


def mediated_overlap_iso(obj, cover, i, j):
    """The canonical overlap iso (i, j) built through the pullbacks'
    universal properties: the oracle for restrict_to_datum's point formula."""
    objects = [restrict(obj, f) for f in cover.legs]
    certs = [pullback(obj.bundle.proj.map, f) for f in cover.legs]
    cert_ij = overlap(cover, i, j)
    rc_i = pullback(objects[i].bundle.proj.map, cert_ij.proj1)
    rc_j = pullback(objects[j].bundle.proj.map, cert_ij.proj2)
    into_total_j = mediate_pullback(
        certs[j],
        compose(certs[i].proj1, rc_i.proj1),   # ((p,a),(a,b)) -> p
        compose(cert_ij.proj2, rc_i.proj2))    # ((p,a),(a,b)) -> b
    return mediate_pullback(rc_j, into_total_j, rc_i.proj2)


def sharing_cover(base):
    """Two legs over {p, q} that share the point q."""
    f = FinMap(FinSet(("a", "b")), base, {"a": "p", "b": "q"})
    g = FinMap(FinSet(("c",)), base, {"c": "q"})
    return CoveringFamily(base, [f, g])


def cocycle_cases(rng):
    """Round-trip, conjugated and broken data on point covers and on random
    covers of at least three legs."""
    for grp in (zmod(2), zmod(3), sym(3)):
        nonunit = [g for g in grp.carrier if g != grp.unit_atom]
        for _ in range(6):
            base = FinSet(range(rng.randint(1, 3)))
            obj = random_qsobject(rng, grp, point_x(grp), base)
            cover = random_cover(rng, base, max_legs=4, max_extra=2)
            while len(cover.legs) < 3:
                cover = random_cover(rng, base, max_legs=4, max_extra=2)
            for cov in (point_cover(base), cover):
                datum = restrict_to_datum(obj, cov)
                gauges = [constant_gauge(w, rng.choice(grp.carrier.elements))
                          for w in datum.objects]
                conjugated = conjugate_datum(datum, gauges)
                yield datum
                yield conjugated
                yield break_cocycle(datum, rng.choice(nonunit), rng=rng)
                yield break_cocycle(conjugated, rng.choice(nonunit), rng=rng)


def test_sparse_cocycle_matches_dense_oracle(rng):
    failing = 0
    for datum in cocycle_cases(rng):
        witness = dense_cocycle_witness(datum)
        assert sparse_cocycle_witness(datum) == witness
        failing += witness is not None
    assert failing >= 30


def gauge_twisted_cases(rng):
    """Round-trip data with one stored overlap iso followed by a fiber
    gauge, a translation chosen per base atom, so the cocycle breaks over
    some fibers and holds over others; and data conjugated leg-wise by such
    gauges, on which it holds."""
    for grp in (zmod(3), klein_four(), sym(3)):
        carrier = grp.carrier.elements
        for _ in range(6):
            base = FinSet(range(rng.randint(1, 3)))
            obj = random_qsobject(rng, grp, point_x(grp), base)
            for cov in (point_cover(base), random_cover(rng, base, max_legs=4, max_extra=2)):
                datum = restrict_to_datum(obj, cov)
                gauges = [fiber_gauge(w, {y: rng.choice(carrier) for y in w.base})
                          for w in datum.objects]
                yield conjugate_datum(datum, gauges)
                ij = rng.choice(sorted(datum.overlaps))
                phi = datum.overlaps[ij]
                twisted = dict(datum.overlaps)
                twisted[ij] = compose_qs(
                    fiber_gauge(phi.dst, {y: rng.choice(carrier) for y in phi.dst.base}), phi)
                yield DescentDatum(cov, datum.objects, twisted)


def test_one_point_decider_matches_dense_oracle_on_gauge_twisted_data(rng):
    failing = passing = 0
    for datum in gauge_twisted_cases(rng):
        witness = dense_cocycle_witness(datum)
        assert finstack.descent.cocycle_on_one_point(datum) == witness
        assert finstack.descent.cocycle_pointwise(datum) == witness
        failing += witness is not None
        passing += witness is None
    assert failing >= 20 and passing >= 30


def unhoisted_cocycle_scan(datum, every_point):
    """The cocycle scan as it read before its loop invariants were hoisted:
    each iso's table, the partners k and the row of each point (a, b) are
    read again for every k. The oracle of the hoisted scan: the same order
    (i, j, k, a, b, c), so the same first witness."""
    cover = datum.cover
    stored = datum.overlaps
    pairs = sorted(stored)
    partners = {}
    for i, k in pairs:
        partners.setdefault(i, []).append(k)
    legs_over = [fibers(f) for f in cover.legs]
    locals_over = [fibers(obj.bundle.proj.map) for obj in datum.objects]
    stop = None if every_point else 1
    for i, j in pairs:
        fi = cover.legs[i].table
        apex = overlap(cover, i, j).apex
        for k in partners[i]:
            if (j, k) not in stored:
                continue
            phi_ij, phi_jk, phi_ik = (stored[ij].fn.table for ij in ((i, j), (j, k), (i, k)))
            for a, b in apex:
                ws = locals_over[i].get(a, ())[:stop]
                for c in legs_over[k].get(fi[a], ()):
                    for w in ws:
                        if phi_jk[(phi_ij[(w, (a, b))][0], (b, c))][0] != phi_ik[(w, (a, c))][0]:
                            return (i, j, k, ((a, b), c))
    return None


def twisted_cases(rng):
    """Restricted data on random covers of three or more legs, each also
    with one or two stored overlap isos twisted: by a constant translation
    (`twist_overlap`, `break_cocycle`) or by a fiber gauge that moves only
    some base atoms, so the first failure lies at varied (k, a, b, c)."""
    for grp in (zmod(2), zmod(3), klein_four(), sym(3)):
        carrier = grp.carrier.elements
        nonunit = [g for g in carrier if g != grp.unit_atom]
        for _ in range(8):
            base = FinSet(range(rng.randint(1, 3)))
            obj = random_qsobject(rng, grp, point_x(grp), base)
            cover = random_cover(rng, base, max_legs=4, max_extra=2)
            while len(cover.legs) < 3:
                cover = random_cover(rng, base, max_legs=4, max_extra=2)
            datum = restrict_to_datum(obj, cover)
            yield datum
            yield break_cocycle(datum, rng.choice(nonunit), rng=rng)
            twisted = datum
            for _ in range(2):
                i, j = rng.choice(sorted(datum.overlaps))
                twisted = twist_overlap(twisted, i, j, rng.choice(nonunit))
                yield twisted
            ij = rng.choice(sorted(datum.overlaps))
            phi = datum.overlaps[ij]
            gauged = dict(datum.overlaps)
            gauged[ij] = compose_qs(
                fiber_gauge(phi.dst, {y: rng.choice(carrier) for y in phi.dst.base}), phi)
            yield DescentDatum(cover, datum.objects, gauged)


def test_hoisted_cocycle_scan_names_the_unhoisted_witness(rng):
    failing = 0
    for datum in twisted_cases(rng):
        one, every = (unhoisted_cocycle_scan(datum, p) for p in (False, True))
        assert finstack.descent.cocycle_on_one_point(datum) == one
        assert finstack.descent.cocycle_pointwise(datum) == every
        failing += one is not None
    assert failing >= 60


def test_canonical_iso_matches_mediated_oracle(rng):
    for grp in (zmod(2), zmod(3), klein_four()):
        base = FinSet(("p", "q", "r"))
        obj = random_qsobject(rng, grp, point_x(grp), base)
        for cover in (point_cover(base), random_cover(rng, base, max_legs=3, max_extra=2),
                      CoveringFamily(base, point_cover(base).legs * 2)):
            datum = restrict_to_datum(obj, cover)
            n = len(cover.legs)
            for i, j in itertools.product(range(n), repeat=2):
                assert datum.overlap_iso(i, j).fn == mediated_overlap_iso(obj, cover, i, j)


def test_datum_stores_the_nonempty_overlaps():
    z2 = zmod(2)
    base = FinSet(("p", "q"))
    obj = trivial_object(z2, base)
    cover = sharing_cover(base)
    datum = restrict_to_datum(obj, cover)
    assert list(datum.overlaps) == overlapping_pairs(cover) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    big = point_cover(FinSet(range(64)))
    datum = restrict_to_datum(trivial_object(z2, big.target), big)
    assert overlapping_pairs(big) == [(i, i) for i in range(64)]
    assert len(datum.overlaps) == 64


def test_empty_overlap_iso_is_forced():
    z2 = zmod(2)
    obj = trivial_object(z2, FinSet(("p", "q")))
    cover = point_cover(obj.base)
    datum = restrict_to_datum(obj, cover)
    assert (0, 1) not in datum.overlaps
    iso = datum.overlap_iso(0, 1)
    cert = overlap(cover, 0, 1)
    assert isinstance(iso, QSMorphism)
    assert iso.src == restrict(datum.objects[0], cert.proj1)
    assert iso.dst == restrict(datum.objects[1], cert.proj2)
    assert len(iso.fn.src) == 0 and iso.fn == identity(iso.src.total)


def test_missing_nonempty_overlap_is_refused():
    # a gap the cocycle does not fill is refused where the datum is built,
    # so no reader ever meets it
    z2 = zmod(2)
    obj = trivial_object(z2, FinSet(("p", "q")))
    cover = sharing_cover(obj.base)
    datum = restrict_to_datum(obj, cover)
    partial = {k: v for k, v in datum.overlaps.items() if k != (0, 1)}
    with pytest.raises(MissingOverlapIso) as exc:
        finstack.descent.DescentDatum(cover, datum.objects, partial)
    assert (exc.value.i, exc.value.j) == (0, 1)


def forced_pairs(cover):
    """The overlapping pairs whose iso the cocycle forces: the diagonals
    of the mono legs."""
    return [(i, i) for i, leg in enumerate(cover.legs) if len(leg.src) and is_mono(leg)]


@pytest.mark.parametrize("on", [False, True], ids=["production", "cross-checked"])
@pytest.mark.parametrize("seed", range(6))
def test_a_datum_missing_only_forced_isos_reads_as_complete(monkeypatch, on, seed):
    # the record, overlap_iso, check_cocycle, glue_object and pullback_datum
    # all see the datum with its forced isos filled in
    monkeypatch.setattr(CrossCheck, "on", on)
    rng = Random(seed)
    grp = zmod(2)
    obj = random_qsobject(rng, grp, point_x(grp), FinSet(("p", "q", "r")))
    # a random cover, and the point legs, which are monos, so some isos
    # are forced whatever legs are drawn
    cover = CoveringFamily(obj.base, random_cover(rng, obj.base).legs
                           + point_cover(obj.base).legs)
    datum = restrict_to_datum(obj, cover)
    forced = forced_pairs(cover)
    assert len(forced) >= len(obj.base)
    partial = {ij: iso for ij, iso in datum.overlaps.items() if ij not in forced}
    gappy = DescentDatum(cover, datum.objects, partial)
    assert gappy == datum
    assert restricted_source(gappy) is None
    for i, j in forced:
        assert gappy.overlap_iso(i, j) == datum.overlap_iso(i, j)
        assert gappy.overlap_iso(i, j).fn == identity(gappy.overlap_iso(i, j).src.total)
    assert check_cocycle(gappy) is None
    glued = glue_object(gappy)
    assert glued.glued == glue_object(datum).glued
    assert len(glued.glued.total) == len(obj.total)
    t = FinMap(FinSet(("z",)), obj.base, {"z": "p"})
    assert pullback_datum(gappy, t) == pullback_datum(datum, t)


def test_twist_of_an_empty_overlap_glues():
    # the point cover's legs 0 and 1 do not meet, so twisting their overlap
    # iso constrains nothing
    text = (SITES / "cocycle_bad.site").read_text(encoding="utf-8")
    assert "twist (0 , 0)" in text
    datum = parse_site(text.replace("twist (0 , 0)", "twist (0 , 1)"))["Bad"].value
    assert (0, 1) in datum.overlaps
    check_cocycle(datum)
    result = glue_object(datum)
    assert len(result.glued.total) == 4


# ------------------------------------------------------------- gluing

def test_glue_round_trip_point_cover(rng):
    for grp in (zmod(2), zmod(3), klein_four()):
        obj = random_qsobject(rng, grp, point_x(grp), FinSet(("p", "q")))
        datum = restrict_to_datum(obj, point_cover(obj.base))
        result = glue_object(datum)
        assert qs_isomorphism(result.glued, obj) is not None
        assert len(result.comparisons) == 2
        for i, psi in enumerate(result.comparisons):
            assert psi.src == restrict(result.glued, datum.cover.legs[i])
            assert psi.dst == datum.objects[i]


def test_glue_round_trip_overlapping_cover(rng):
    z2 = zmod(2)
    base = FinSet(("p", "q", "r"))
    obj = random_qsobject(rng, z2, point_x(z2), base)
    cover = random_cover(rng, base, max_legs=3, max_extra=2)
    datum = restrict_to_datum(obj, cover)
    result = glue_object(datum)
    assert qs_isomorphism(result.glued, obj) is not None


def test_round_trip_runs_no_oracle(rng, oracles_forbidden):
    z2 = zmod(2)
    obj = random_qsobject(rng, z2, point_x(z2), FinSet(("p", "q", "r")))
    cover = random_cover(rng, obj.base, max_legs=3, max_extra=2)
    result = glue_object(restrict_to_datum(obj, cover))
    assert qs_isomorphism(result.glued, obj) is not None


def test_glue_conjugated_datum_same_class(rng):
    z3 = zmod(3)
    base = FinSet(("p", "q"))
    obj = random_qsobject(rng, z3, point_x(z3), base)
    # legs must genuinely overlap, otherwise every overlap iso is forced and
    # conjugation is invisible
    f = FinMap(FinSet(("a", "b")), base, {"a": "p", "b": "q"})
    g = FinMap(FinSet(("c",)), base, {"c": "q"})
    datum = restrict_to_datum(obj, CoveringFamily(base, [f, g]))
    twisted = conjugate_datum(
        datum, [constant_gauge(w, k) for w, k in zip(datum.objects, (1, 2))])
    assert twisted != datum
    check_cocycle(twisted)
    result = glue_object(twisted)
    assert qs_isomorphism(result.glued, obj) is not None


def test_glue_rejects_broken_cocycle(rng):
    z2 = zmod(2)
    obj = trivial_object(z2, FinSet(("p", "q")))
    datum = restrict_to_datum(obj, point_cover(obj.base))
    bad = break_cocycle(datum, 1)
    with pytest.raises(CocycleRequired) as exc:
        glue_object(bad)
    assert isinstance(exc.value.__cause__, CocycleFail)


def test_glue_rejects_non_canonical_cover():
    z2 = zmod(2)
    obj = trivial_object(z2, FinSet(("p", "q")))
    datum = restrict_to_datum(obj, point_cover(obj.base))
    truncated = drop_leg(datum)
    assert truncated is not None  # dropping a point leg uncovers its point
    with pytest.raises(CoverNotCanonical):
        glue_object(truncated)


def test_glue_refuses_isos_between_the_wrong_restrictions(monkeypatch):
    # an input check, so it holds on the production path: a directly built
    # datum with the isos of two off-diagonal pairs swapped is refused before
    # the cocycle scan, which would index the isos by the wrong points
    monkeypatch.setattr(CrossCheck, "on", False)
    s3 = sym(3)
    base = FinSet(("p", "q"))
    obj = random_qsobject(Random(3), s3, regular_action(s3), base)
    cover = CoveringFamily(base, [FinMap(FinSet(("u",)), base, {"u": "p"}),
                                  FinMap(FinSet(("v", "w")), base, {"v": "p", "w": "q"})])
    datum = restrict_to_datum(obj, cover)
    swapped = dict(datum.overlaps)
    swapped[(0, 1)], swapped[(1, 0)] = datum.overlaps[(1, 0)], datum.overlaps[(0, 1)]
    with pytest.raises(ValueError, match=r"overlap iso \(0,1\) has the wrong source"):
        glue_object(DescentDatum(cover, datum.objects, swapped))
    misdirected = dict(datum.overlaps)
    misdirected[(0, 1)] = qs_identity(datum.overlaps[(0, 1)].src)
    with pytest.raises(ValueError, match=r"overlap iso \(0,1\) has the wrong target"):
        glue_object(DescentDatum(cover, datum.objects, misdirected))
    assert len(glue_object(datum).glued.total) == len(obj.total)


def test_check_cocycle_refuses_isos_between_the_wrong_restrictions(monkeypatch):
    # with cross-checking off, a directly built datum whose isos run between
    # the wrong restrictions is a ValueError, not a KeyError of the scan,
    # and the endpoints are checked before the cocycle
    monkeypatch.setattr(CrossCheck, "on", False)
    s3 = sym(3)
    base = FinSet(("p", "q"))
    obj = random_qsobject(Random(3), s3, point_x(s3), base)
    cover = CoveringFamily(base, [FinMap(FinSet(("u",)), base, {"u": "p"}),
                                  FinMap(FinSet(("v", "w")), base, {"v": "p", "w": "q"})])
    datum = restrict_to_datum(obj, cover)
    for source in (datum, break_cocycle(datum, 1, rng=Random(0))):
        swapped = dict(source.overlaps)
        swapped[(0, 1)], swapped[(1, 0)] = source.overlaps[(1, 0)], source.overlaps[(0, 1)]
        with pytest.raises(ValueError, match=r"overlap iso \(0,1\) has the wrong source"):
            check_cocycle(DescentDatum(cover, source.objects, swapped))
    with pytest.raises(CocycleFail):
        check_cocycle(break_cocycle(datum, 1, rng=Random(0)))


def miscounted_parts(kind: str):
    """Z/2 over {0 1} restricted to the cover [id_Y, ∅ -> Y]: the cover, its
    isos and object 0 alone ("short") or object 0 once more ("long")."""
    obj = trivial_object(zmod(2), FinSet((0, 1)))
    base = obj.base
    cover = CoveringFamily(base, [identity(base), FinMap(FinSet(()), base, {})])
    datum = restrict_to_datum(obj, cover)
    assert list(datum.overlaps) == [(0, 0)]
    objects = {"short": datum.objects[:1], "long": datum.objects + datum.objects[:1]}[kind]
    return cover, objects, datum.overlaps


@pytest.mark.parametrize("check", [glue_object, check_cocycle])
@pytest.mark.parametrize("kind", ["short", "long"])
def test_a_datum_needs_one_object_per_leg(check, kind):
    # the record is refused when built, so no check reads an object: the
    # short datum once glued 4 atoms with 2 comparisons that raised
    # IndexError when read, the long one raised IndexError inside
    # glue_object, and check_cocycle passed both
    cover, objects, isos = miscounted_parts(kind)
    with pytest.raises(ValueError, match="need exactly one object per leg"):
        check(DescentDatum(cover, objects, isos))


@pytest.mark.parametrize("key", [(5, 0), (0, 2), (0, -1), (0,), (0, 0, 0), "00"],
                         ids=repr)
def test_a_stray_iso_key_is_a_value_error(key):
    # an iso keyed by no pair of legs once raised IndexError from glue_object
    # and check_cocycle; the record refuses it when built
    cover = point_cover(FinSet(("p", "q")))
    datum = restrict_to_datum(trivial_object(zmod(2), cover.target), cover)
    isos = {**datum.overlaps, key: datum.overlaps[(0, 0)]}
    message = re.escape(f"overlap iso key {key!r} is not a pair of legs")
    with pytest.raises(ValueError, match=message):
        glue_object(DescentDatum(cover, datum.objects, isos))
    with pytest.raises(ValueError, match=message):
        check_cocycle(DescentDatum(cover, datum.objects, isos))


def test_a_datum_does_not_change_with_what_it_was_built_from():
    # the record keeps a read-only copy of the isos, not the caller's dict
    cover = sharing_cover(FinSet(("p", "q")))
    datum = restrict_to_datum(trivial_object(zmod(2), cover.target), cover)
    isos, objects = dict(datum.overlaps), list(datum.objects)
    by_hand = DescentDatum(cover, objects, isos)
    isos.clear()
    objects.clear()
    assert by_hand == datum and len(by_hand.overlaps) == 4 and len(by_hand.objects) == 2
    assert isinstance(by_hand.objects, tuple)
    with pytest.raises(TypeError):
        by_hand.overlaps[(0, 1)] = datum.overlaps[(0, 0)]
    with pytest.raises(AttributeError):
        by_hand.overlaps = {}
    check_cocycle(by_hand)


def test_empty_cover_gluing():
    z2 = zmod(2)
    empty_base = FinSet(())
    datum = restrict_to_datum(
        empty_object(z2, point_x(z2)), CoveringFamily(empty_base, []))
    with pytest.raises(ValueError):
        glue_object(datum)  # no legs to read group or structure space from
    result = glue_object(datum, group=z2, x_action=point_x(z2))
    assert len(result.glued.total) == 0
    assert result.comparisons == ()


def glue_object_by_coequalizer(datum, group=None, x_action=None):
    """The glued object through the coequalizer of the overlap relation on
    the disjoint union of the locals: action, projection and structure map
    mediated through it, each comparison assembled from every member of a
    class. The oracle for glue_object's point formulas.
    """
    cover = datum.cover
    require_canonical(cover)
    try:
        check_cocycle(datum)
    except CocycleFail as err:
        raise CocycleRequired(err) from err
    n = len(cover.legs)
    if n == 0:
        if group is None or x_action is None:
            raise ValueError("gluing over the empty cover needs group and x_action")
        return GluingResult(empty_object(group, x_action), ())
    group = datum.objects[0].bundle.group
    x_action = datum.objects[0].x_action
    # the stored isos as point functions (w over a, (a, b)) -> w' over b;
    # check_cocycle above refused a datum missing one
    phis = {ij: {key: value[0] for key, value in iso.fn.table.items()}
            for ij, iso in datum.overlaps.items()}
    pairs = sorted(phis)
    c1 = coproduct(obj.total for obj in datum.objects)
    rel = coproduct(datum.overlaps[ij].fn.src for ij in pairs).space
    d0 = FinMap(rel, c1.space, {t: Tag(pairs[t.part][0], t.atom[0]) for t in rel})
    d1 = FinMap(rel, c1.space,
                {t: Tag(pairs[t.part][1], phis[pairs[t.part]][t.atom]) for t in rel})
    cert = coequalizer(d0, d1)
    members = fibers(cert.proj)
    # the action descends because every relation map is equivariant; build
    # the table from any member and verify all members agree
    act_table = {}
    gxw = product(group.carrier, cert.quotient)
    for g in group.carrier:
        for q in cert.quotient:
            images = {
                cert.proj.table[Tag(t.part, datum.objects[t.part].bundle.total.act.table[(g, t.atom)])]
                for t in members[q]
            }
            if len(images) != 1:
                raise RuntimeError("overlap relation is not equivariant")
            act_table[(g, q)] = images.pop()
    act = check_action(group, cert.quotient,
                       FinMap(gxw.space, cert.quotient, act_table))
    pi_w = mediate_coequalizer(cert, copair(
        c1,
        [compose(cover.legs[i], datum.objects[i].bundle.proj.map) for i in range(n)],
        dst=cover.target))
    alpha_w = mediate_coequalizer(cert, copair(
        c1, [obj.alpha.map for obj in datum.objects], dst=x_action.space))
    bundle = is_principal_bundle(
        check_equivariant(pi_w, act, trivial_action(group, cover.target)))
    if isinstance(bundle, NotBundle):
        raise RuntimeError(f"the glued projection is not a bundle: {bundle}")
    glued = check_qs_object(bundle, alpha_w, x_action)
    # comparison isos psi_i : glued|U_i -> W_i, assembled through the datum
    pis = [obj.bundle.proj.map.table for obj in datum.objects]
    comparisons = []
    for i in range(n):
        fi = cover.legs[i]
        rcert = pullback(pi_w, fi)
        table = {}
        for (q, a) in rcert.apex:
            values = set()
            for t in members[q]:
                j, w = t.part, t.atom
                values.add(phis[(j, i)][(w, (pis[j][w], a))])
            if len(values) != 1:
                raise RuntimeError(
                    "comparison is ill-defined; cocycle should have caught this")
            table[(q, a)] = values.pop()
        psi = check_qs_morphism(
            restrict(glued, fi), datum.objects[i],
            FinMap(rcert.apex, datum.objects[i].total, table))
        if not morphism_predicates(psi.fn).iso:
            raise RuntimeError(f"comparison over leg {i} is not an iso")
        comparisons.append(psi)
    # compatibility of the comparisons against every overlap iso, pointwise
    glued_over = fibers(pi_w)
    for i, j in pairs:
        fi = cover.legs[i].table
        for a, b in overlap(cover, i, j).apex:
            for q in glued_over.get(fi[a], ()):
                via_phi = phis[(i, j)][(comparisons[i].fn.table[(q, a)], (a, b))]
                if via_phi != comparisons[j].fn.table[(q, b)]:
                    raise RuntimeError(
                        f"comparison isos disagree with overlap iso ({i},{j})")
    return GluingResult(glued, tuple(comparisons))


def glued_tables(result):
    """The glued total in order, its action, projection and structure map,
    and every comparison, as tables."""
    g = result.glued
    return (g.total.elements, g.bundle.total.act.table, g.bundle.proj.map.table,
            g.alpha.map.table, [psi.fn.table for psi in result.comparisons])


def glue_both(datum, **kwargs):
    """glue_object and its oracle on one datum: the tables, or the type of
    the error each raises."""
    out = []
    for glue in (glue_object, glue_object_by_coequalizer):
        try:
            out.append(glued_tables(glue(datum, **kwargs)))
        except FinstackError as err:
            out.append(type(err))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_gluing_defers_its_comparisons(monkeypatch, seed):
    # off, a gluing restricts its glued object to no leg until the
    # comparisons are read; the first read builds them all, once
    monkeypatch.setattr(CrossCheck, "on", False)
    restricted, builds = [], []
    real_restrict, real_build = finstack.descent.restrict, finstack.descent._comparison_isos

    def restrict_recorded(obj, f):
        restricted.append(obj)
        return real_restrict(obj, f)

    def build_counted(*args):
        builds.append(args)
        return real_build(*args)

    monkeypatch.setattr(finstack.descent, "restrict", restrict_recorded)
    monkeypatch.setattr(finstack.descent, "_comparison_isos", build_counted)
    rng = Random(seed)
    grp = sym(3)
    obj = random_qsobject(rng, grp, regular_action(grp), FinSet(("p", "q", "r")))
    cover = random_cover(rng, obj.base, max_legs=3, max_extra=2)
    datum = restrict_to_datum(obj, cover)
    result = glue_object(datum)

    def on_glued():
        return sum(x is result.glued for x in restricted)

    assert len(result.comparisons) == len(cover.legs)
    assert (on_glued(), len(builds)) == (0, 0)
    first = list(result.comparisons)
    assert (on_glued(), len(builds)) == (len(cover.legs), 1)
    # what built them is dropped: the sequence refers to its isos alone
    held = [x for x in gc.get_referents(result.comparisons)
            if isinstance(x, (tuple, list, dict))]
    assert held == [tuple(first)]
    assert all(result.comparisons[j] is psi for j, psi in enumerate(first))
    assert list(result.comparisons) == first and result.comparisons == tuple(first)
    assert (on_glued(), len(builds)) == (len(cover.legs), 1)
    tables, oracle = glue_both(datum)
    assert tables == oracle


def corpus_data():
    """build_corpus's round-trip, conjugated and refused data over the group
    catalog, with the one-point, the regular and a random structure space,
    for three seeds."""
    for seed in range(3):
        rng = Random(70 + seed)
        for grp in group_catalog():
            for x in (point_x(grp), regular_action(grp), random_gset(rng, grp, 4)):
                corpus = list(build_corpus(grp, x, rng, cases=3))
                for tag, case in corpus:
                    if tag == "effectiveness":
                        yield case[0], grp, x
                for tag, case in corpus:
                    if tag == "rejected":
                        yield case, grp, x


def test_glued_object_matches_coequalizer_oracle():
    kinds = []
    for datum, grp, x in corpus_data():
        new, old = glue_both(datum, group=grp, x_action=x)
        assert new == old
        kinds.append(new if isinstance(new, type) else "glued")
    assert kinds.count("glued") >= 500
    assert kinds.count(CocycleRequired) >= 60 and kinds.count(CoverNotCanonical) >= 150


@pytest.mark.parametrize("name", ["stack_demo.site", "cocycle_bad.site"])
def test_glued_object_matches_coequalizer_oracle_on_fixtures(name):
    # the refused twist of cocycle_bad must make the oracle refuse it too
    data = load_site(SITES / name).by_kind("datum")
    assert data
    for d in data:
        new, old = glue_both(d.value)
        assert new == old


# ------------------------------------- restricted data glued from their source

def assert_glues_as_by_hand(datum, **kwargs):
    """A datum from restrict_to_datum glues from its source, unchecked; a
    record of it built by hand, and a copy, take the general path, with the
    cocycle scanned and the locals' tables read. All three glue to equal
    objects and equal comparisons, index by index."""
    by_hand = DescentDatum(datum.cover, datum.objects, dict(datum.overlaps))
    clone = copy.copy(datum)
    assert clone == datum == by_hand and repr(clone) == repr(datum) == repr(by_hand)
    assert restricted_source(clone) is None and restricted_source(by_hand) is None
    fast = glue_object(datum, **kwargs)
    for other in (glue_object(by_hand, **kwargs), glue_object(clone, **kwargs)):
        assert glued_tables(other) == glued_tables(fast)
        assert other.glued == fast.glued
        assert len(other.comparisons) == len(fast.comparisons)
        for j in range(len(fast.comparisons)):
            assert other.comparisons[j] == fast.comparisons[j]


def test_a_restricted_fixture_datum_glues_as_by_hand():
    site = load_site(SITES / "stack_demo.site")
    datum = site["D"].value
    assert restricted_source(datum) is site["O"].value
    assert_glues_as_by_hand(datum)
    # a twisted datum is a new record, which keeps no source
    assert restricted_source(load_site(SITES / "cocycle_bad.site")["Bad"].value) is None


@given(grp=st.sampled_from(group_catalog()),
       x_kind=st.sampled_from(["point", "regular", "random"]),
       seed=st.integers(0, 2 ** 16), size=st.integers(0, 4))
def test_a_restricted_datum_glues_as_by_hand(grp, x_kind, seed, size):
    rng = Random(seed)
    x = {"point": lambda: point_x(grp), "regular": lambda: regular_action(grp),
         "random": lambda: random_gset(rng, grp, 4)}[x_kind]()
    base = FinSet(f"y{t}" for t in range(size))
    obj = random_qsobject(rng, grp, x, base)
    datum = restrict_to_datum(obj, random_cover(rng, base))
    assert restricted_source(datum) is obj
    assert_glues_as_by_hand(datum, group=grp, x_action=x)


@pytest.mark.parametrize("on", [False, True], ids=["production", "cross-checked"])
@pytest.mark.parametrize("seed", range(4))
def test_a_restricted_datum_with_an_iso_replaced_in_place_is_checked(monkeypatch, on, seed):
    # the isos are read-only, so a twist cannot be written into a restricted
    # datum, nor an iso taken out; a record of the twisted isos built by hand
    # keeps no source and is refused with the witness twist_overlap's gets
    monkeypatch.setattr(CrossCheck, "on", on)
    rng = Random(seed)
    grp = sym(3)
    obj = random_qsobject(rng, grp, point_x(grp), FinSet(("p", "q", "r")))
    datum = restrict_to_datum(obj, random_cover(rng, obj.base))
    i, j = rng.choice(sorted(ij for ij, iso in datum.overlaps.items() if len(iso.src.total)))
    twisted = twist_overlap(datum, i, j, grp.carrier.elements[-1])
    with pytest.raises(TypeError):
        datum.overlaps[(i, j)] = twisted.overlaps[(i, j)]
    with pytest.raises(TypeError):
        del datum.overlaps[(i, j)]
    assert restricted_source(datum) is obj
    assert len(glue_object(datum).glued.total) == len(obj.total)
    isos = dict(datum.overlaps)
    isos[(i, j)] = twisted.overlaps[(i, j)]
    by_hand = DescentDatum(datum.cover, datum.objects, isos)
    assert restricted_source(by_hand) is None
    witnesses = []
    for d in (twisted, by_hand):
        with pytest.raises(CocycleRequired) as exc:
            glue_object(d)
        assert isinstance(exc.value.cause, CocycleFail)
        witnesses.append(exc.value.payload())
    assert witnesses[0] == witnesses[1]
    # an iso taken out is missing, unless the cocycle forces it: then the
    # record fills it in again, and glues as the restricted datum does
    del isos[(i, j)]
    if (i, j) in forced_pairs(datum.cover):
        refilled = DescentDatum(datum.cover, datum.objects, isos)
        assert refilled == datum
        assert glue_object(refilled).glued == glue_object(datum).glued
    else:
        with pytest.raises(MissingOverlapIso):
            DescentDatum(datum.cover, datum.objects, isos)


# --------------------------------------------------- morphism gluing

def test_glue_morphisms_recovers_global(rng):
    z3 = zmod(3)
    base = FinSet(("p", "q"))
    x = random_qsobject(rng, z3, point_x(z3), base)
    y, m = relabel_qsobject(rng, x)
    cover = point_cover(base)
    locals_ = [restrict_morphism(m, f) for f in cover.legs]
    eta = glue_morphisms(cover, x, y, locals_)
    assert eta.fn == m.fn


def test_glue_morphisms_overlap_mismatch():
    z2 = zmod(2)
    base = FinSet(("p",))
    obj = trivial_object(z2, base)
    leg = FinMap(terminal(), base, {"*": "p"})
    cover = CoveringFamily(base, [leg, leg])  # both legs hit p
    id_loc = qs_identity(restrict(obj, leg))
    gauge = compose_qs(
        restrict_morphism(constant_gauge(obj, 1), leg), qs_identity(restrict(obj, leg)))
    with pytest.raises(OverlapMismatch) as exc:
        glue_morphisms(cover, obj, obj, [id_loc, gauge])
    assert (exc.value.i, exc.value.j) == (0, 1)


def test_glue_morphisms_validates_locals(rng):
    z2 = zmod(2)
    base = FinSet(("p", "q"))
    obj = trivial_object(z2, base)
    cover = point_cover(base)
    with pytest.raises(ValueError):
        glue_morphisms(cover, obj, obj, [qs_identity(restrict(obj, cover.legs[0]))])


def test_glue_morphisms_empty_cover():
    z2 = zmod(2)
    obj = empty_object(z2, point_x(z2))
    eta = glue_morphisms(CoveringFamily(FinSet(()), []), obj, obj, [])
    assert eta.fn == identity(obj.total)


@pytest.mark.needs_cross_check
def test_glue_morphisms_checks_its_restrictions(monkeypatch):
    # a glued morphism that fails to restrict to its locals is an internal
    # fault, raised also under python -O; the restrictions hold by the point
    # formula, so they are compared only under cross-check
    z2 = zmod(2)
    base = FinSet(("p", "q"))
    obj = trivial_object(z2, base)
    cover = point_cover(base)
    locals_ = [qs_identity(restrict(obj, f)) for f in cover.legs]
    gauge = constant_gauge(obj, 1)
    monkeypatch.setattr(finstack.descent, "restricted_map",
                        lambda fn, src, dst: restricted_map(gauge.fn, src, dst))
    ran, agreed = CrossCheck.ran, CrossCheck.agreed
    with pytest.raises(RuntimeError, match="cross-check of a glued morphism's restrictions "
                                           "disagrees"):
        glue_morphisms(cover, obj, obj, locals_)
    # one disagreement: no restricted morphism is re-certified under it
    assert CrossCheck.ran - ran == CrossCheck.agreed - agreed + 1
    monkeypatch.setattr(CrossCheck, "on", False)
    assert glue_morphisms(cover, obj, obj, locals_).fn == identity(obj.total)


def glue_morphisms_by_coequalizer(cover, x, y, locals_):
    """The glued map through the kernel-pair coequalizer presentation of x's
    total: the locals copaired on the coproduct of the pulled-back totals,
    mediated through the coequalizer and composed with the inverse of the
    mediated total. The oracle for glue_morphisms' point formula."""
    n = len(cover.legs)
    certs_x = [pullback(x.bundle.proj.map, f) for f in cover.legs]
    certs_y = [pullback(y.bundle.proj.map, f) for f in cover.legs]
    big = coproduct([c.apex for c in certs_x])
    bigmap = copair(big, [c.proj1 for c in certs_x], dst=x.total)
    kp = pullback(bigmap, bigmap)
    cert = coequalizer(kp.proj1, kp.proj2)
    delta = copair(big,
                   [compose(certs_y[i].proj1, locals_[i].fn) for i in range(n)],
                   dst=y.total)
    return compose(mediate_coequalizer(cert, delta),
                   invert(mediate_coequalizer(cert, bigmap)))


def corpus_gluings():
    """The gluing cases of build_corpus over the group catalog, with the
    one-point and the regular structure space."""
    rng = Random(61)
    for grp in group_catalog():
        for x in (point_x(grp), regular_action(grp)):
            yield from [case for tag, case in build_corpus(grp, x, rng, cases=3)
                        if tag == "gluing"]


def test_glued_morphism_matches_coequalizer_oracle():
    cases = 0
    for cover, x, y, locals_, expected in corpus_gluings():
        eta = glue_morphisms(cover, x, y, locals_)
        assert eta.fn.table == glue_morphisms_by_coequalizer(cover, x, y, locals_).table
        assert eta.fn == expected.fn
        cases += 1
    assert cases >= 60


@pytest.mark.parametrize("name", ["stack_demo.site", "overlap_bad.site"])
def test_glued_morphism_matches_coequalizer_oracle_on_fixtures(name):
    # a gluing that the locals refuse has no mediated map either
    site = load_site(SITES / name)
    for d in site.by_kind("gluing"):
        case = d.value
        args = (case.cover, case.src, case.dst, case.locals_)
        try:
            eta = glue_morphisms(*args)
        except OverlapMismatch:
            with pytest.raises(FinstackError):
                glue_morphisms_by_coequalizer(*args)
        else:
            assert eta.fn.table == glue_morphisms_by_coequalizer(*args).table


# ------------------------------------------------------------- uniqueness

def test_uniqueness_detects_distinct_gauges():
    z2 = zmod(2)
    base = FinSet(("p", "q"))
    obj = trivial_object(z2, base)
    cover = point_cover(base)
    same = check_uniqueness(cover, qs_identity(obj), qs_identity(obj))
    assert same is None
    diff = check_uniqueness(cover, qs_identity(obj), constant_gauge(obj, 1))
    assert isinstance(diff, Distinguish)
    assert diff.leg_index in (0, 1)
    with pytest.raises(ValueError):
        check_uniqueness(cover, qs_identity(obj),
                         qs_identity(restrict(obj, cover.legs[0])))


def test_uniqueness_partial_gauge(rng):
    # gauges differing on a single fiber are caught at that leg
    z3 = zmod(3)
    base = FinSet(("p", "q"))
    obj = trivial_object(z3, base)
    g1 = fiber_gauge(obj, {"p": 1, "q": 2})
    g2 = fiber_gauge(obj, {"p": 1, "q": 1})
    diff = check_uniqueness(point_cover(base), g1, g2)
    assert diff is not None and diff.leg_index == 1


def test_uniqueness_checks_agreeing_restrictions(monkeypatch):
    # equal restrictions along a cover force equal morphisms; a violation is
    # an internal fault, not a verdict
    z2 = zmod(2)
    base = FinSet(("p", "q"))
    obj = trivial_object(z2, base)
    ident = qs_identity(obj)
    monkeypatch.setattr(finstack.descent, "restrict_morphism",
                        lambda m, f: restrict_morphism(ident, f))
    with pytest.raises(RuntimeError, match="restrictions agree"):
        check_uniqueness(point_cover(base), ident, constant_gauge(obj, 1))


# ------------------------------------------------------------- base change

def test_pullback_datum_keeps_cocycle(rng):
    z2 = zmod(2)
    base = FinSet(("p", "q"))
    obj = random_qsobject(rng, z2, point_x(z2), base)
    datum = restrict_to_datum(obj, point_cover(base))
    two = FinSet(("a", "b"))
    t = FinMap(two, base, {"a": "q", "b": "q"})
    pulled = pullback_datum(datum, t)
    assert pulled.cover.target == two
    check_cocycle(pulled)
    result = glue_object(pulled)
    assert qs_isomorphism(result.glued, restrict(obj, t)) is not None


def test_pullback_datum_target_mismatch(rng):
    z2 = zmod(2)
    obj = trivial_object(z2, FinSet(("p",)))
    datum = restrict_to_datum(obj, point_cover(obj.base))
    with pytest.raises(ValueError):
        pullback_datum(datum, identity(FinSet(("z",))))


# ------------------------------------- every stored iso is a bijection

def isos_are_bijections(datum):
    return all(morphism_predicates(iso.fn).iso for iso in datum.overlaps.values())


@pytest.mark.parametrize("seed", range(8))
def test_every_stored_iso_is_a_bijection(seed):
    # check_cocycle checks an iso's endpoints alone, and no check its
    # bijectivity: a morphism between G-torsor bundles over one base is
    # bijective. So over the corpus of every stock group (restricted,
    # conjugated and twisted data) and over base changes of its data along
    # random maps, every stored iso is a bijection, and check_cocycle passes
    # on the lawful data and fails on the twisted ones
    rng = Random(seed)
    seen = dict.fromkeys(("lawful", "twisted", "dropped", "pulled back"), 0)
    for grp in group_catalog():
        for x in (point_x(grp), regular_action(grp)):
            for condition, case in build_corpus(grp, x, Random(seed), cases=3):
                if condition not in ("effectiveness", "rejected"):
                    continue
                datum = case[0] if condition == "effectiveness" else case
                assert isos_are_bijections(datum)
                if condition == "effectiveness":
                    check_cocycle(datum)
                    seen["lawful"] += 1
                elif is_jointly_surjective(datum.cover):
                    with pytest.raises(CocycleFail):
                        check_cocycle(datum)
                    seen["twisted"] += 1
                else:
                    seen["dropped"] += 1
                    continue
                base = datum.cover.target
                if not len(base):
                    continue
                t = random_map(rng, random_finset(rng, 3, prefix="z"), base)
                pulled = pullback_datum(datum, t)
                assert isos_are_bijections(pulled)
                if condition == "effectiveness":
                    check_cocycle(pulled)
                seen["pulled back"] += 1
    assert all(seen.values()), seen


# ------------------------------------------------------------- verdicts

def test_verify_stack_exhaustive_small():
    z2 = zmod(2)
    x = point_x(z2)
    report = verify_stack(z2, x, exhaustive_corpus(z2, x, max_base=2))
    assert report.ok
    assert report.effectiveness.attempted >= 3
    assert report.uniqueness.attempted >= 10
    assert report.rejected.attempted >= 1


def test_verify_stack_random_corpora(rng):
    for grp in (zmod(3), sym(3)):
        x = point_x(grp)
        report = verify_stack(grp, x, build_corpus(grp, x, rng, cases=4))
        assert report.ok, (grp, report)


def test_verify_stack_reports_planted_failure(rng):
    z2 = zmod(2)
    x = point_x(z2)
    obj = trivial_object(z2, FinSet(("p", "q")))
    datum = restrict_to_datum(obj, point_cover(obj.base))
    # a valid datum planted as invalid
    corpus = itertools.chain(exhaustive_corpus(z2, x, max_base=1), [("rejected", datum)])
    report = verify_stack(z2, x, corpus)
    assert not report.ok
    assert not report.rejected.ok
    assert report.effectiveness.ok


def test_verify_stack_keeps_two_failure_messages_per_condition():
    # a systematic fault fails every case: the count covers them all, while
    # the condition keeps only the two messages the report prints, so a
    # long failing run does not grow with its cases
    z2 = zmod(2)
    x = point_x(z2)
    obj = trivial_object(z2, FinSet(("p", "q")))
    datum = restrict_to_datum(obj, point_cover(obj.base))
    report = verify_stack(z2, x, itertools.repeat(("rejected", datum), 200))
    assert report.rejected.attempted - report.rejected.passed == 200
    assert report.rejected.failures == ["invalid datum was not rejected"] * 2


def swapped_parts(swap: str):
    """Z/2 over the cover [u ↦ 0, {v w} ↦ 1] of {0 1}, restricted: the cover,
    objects and isos, with the two objects swapped between the legs
    ("objects") or the isos of the diagonals (0,0) and (1,1) swapped
    ("isos")."""
    z2 = zmod(2)
    base = FinSet((0, 1))
    cover = CoveringFamily(base, [FinMap(FinSet(("u",)), base, {"u": 0}),
                                  FinMap(FinSet(("v", "w")), base, {"v": 1, "w": 1})])
    datum = restrict_to_datum(trivial_object(z2, base), cover)
    if swap == "objects":
        return cover, datum.objects[::-1], datum.overlaps
    isos = {(0, 0): datum.overlaps[(1, 1)], (1, 1): datum.overlaps[(0, 0)]}
    return cover, datum.objects, isos


def test_an_object_over_another_leg_is_a_value_error():
    # the record refuses it when built, so no check or gluing is reached.
    # Isos over another leg pass the record; check_cocycle, the one check of
    # their endpoints, refuses them, also where glue_object runs it
    with pytest.raises(ValueError, match=re.escape("object 0 lives over {v w}, leg wants {u}")):
        DescentDatum(*swapped_parts("objects"))
    datum = DescentDatum(*swapped_parts("isos"))
    for check in (check_cocycle, glue_object):
        with pytest.raises(ValueError, match=re.escape("overlap iso (0,0) has the wrong source")):
            check(datum)


def test_verify_stack_propagates_an_object_over_another_leg():
    # a case whose shapes do not fit is no verdict on the stack: not a
    # failed effectiveness case, but an error the caller sees. An object
    # over another leg is no datum at all, so isos over another leg stand in
    z2 = zmod(2)
    with pytest.raises(ValueError, match=re.escape("overlap iso (0,0) has the wrong source")):
        verify_stack(z2, point_x(z2),
                     [("effectiveness", (DescentDatum(*swapped_parts("isos")), None))])


# ---------------------------------------- cross-checking off against on

def stack_run(grp, x, seed, cases, on):
    """verify_stack on build_corpus at `seed` with the switch set to `on`:
    each condition's counts and failure messages, the glued tables of every
    effectiveness datum (or the type of the error gluing raises), and the
    (ran, agreed) tally of the re-runs."""
    was, ran, agreed = CrossCheck.on, CrossCheck.ran, CrossCheck.agreed
    CrossCheck.on = on
    try:
        corpus = list(build_corpus(grp, x, Random(seed), cases=cases))
        rep = verify_stack(grp, x, corpus)
        glued = []
        for datum, _ in [case for tag, case in corpus if tag == "effectiveness"]:
            try:
                glued.append(glued_tables(glue_object(datum, group=grp, x_action=x)))
            except FinstackError as err:
                glued.append(type(err))
    finally:
        CrossCheck.on = was
    verdicts = [(c.name, c.attempted, c.passed, c.failures)
                for c in (rep.effectiveness, rep.gluing, rep.uniqueness, rep.rejected)]
    return verdicts, glued, (CrossCheck.ran - ran, CrossCheck.agreed - agreed)


@given(grp=st.sampled_from(group_catalog()),
       x_kind=st.sampled_from(["point", "regular", "random"]),
       seed=st.integers(0, 2 ** 16), cases=st.integers(1, 3))
def test_verify_stack_is_the_same_with_cross_checking_off_and_on(grp, x_kind, seed, cases):
    # the production path leaves tables unbuilt and skips the certifiers; the
    # cross-checked path re-runs every one of them and must agree everywhere
    x = {"point": lambda: point_x(grp), "regular": lambda: regular_action(grp),
         "random": lambda: random_gset(Random(seed), grp, 4)}[x_kind]()
    off = stack_run(grp, x, seed, cases, False)
    on = stack_run(grp, x, seed, cases, True)
    assert off[2] == (0, 0)
    assert on[:2] == off[:2]
    ran, agreed = on[2]
    assert agreed == ran > 0
