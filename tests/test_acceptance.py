"""Acceptance gate: end-to-end checks with fixed sample floors and time
budgets, one printed verdict line per criterion.

Run as part of the normal suite; the verdict lines bypass capture so they
show up in plain `pytest -v` output."""

import itertools
import json
import time
from pathlib import Path
from random import Random

import pytest

from finstack import (
    Bundle,
    CoveringFamily,
    FinMap,
    FinSet,
    check_equivariant,
    coherence_assoc,
    coherence_epsilon,
    coherence_iota,
    coherence_triangles,
    compose,
    compose_qs,
    enumerate_bundles,
    epsilon_component,
    identity,
    is_canonical_cover,
    is_jointly_surjective,
    is_principal_bundle,
    klein_four,
    glue_object,
    gset_isomorphism_over,
    pullback,
    pullback_action,
    pullback_bundle,
    qs_isomorphism,
    restrict,
    restrict_morphism,
    restrict_to_datum,
    sym,
    terminal,
    trivial_action,
    trivial_bundle,
    verify_stack,
    zmod,
)
from finstack.cli import main as cli_main
from finstack.descent import overlap
from finstack.sample import (
    build_corpus,
    exhaustive_corpus,
    random_bundle,
    random_cover,
    random_qsobject,
)
from finstack.stack import constant_gauge
from finstack.topology import all_maps, sheaf_condition_by_enumeration

from support import random_finset, random_gset, random_gset_over, random_map

SITES = Path(__file__).resolve().parent.parent / "sites"


def emit(capsys, label, fn):
    try:
        detail = fn()
    except BaseException as err:  # noqa: BLE001 - verdict line, then re-raise
        with capsys.disabled():
            print(f"ACCEPT {label}: FAIL ({err})")
        raise
    with capsys.disabled():
        print(f"ACCEPT {label}: PASS ({detail})")


def point_x(group):
    return trivial_action(group, terminal())


# 1 ------------------------------------------------------------------------

def test_pullback_actions_certify(capsys):
    def run():
        rng = Random(101)
        groups = [zmod(1), zmod(2), zmod(3), zmod(4), klein_four(), zmod(6), sym(3)]
        t0 = time.monotonic()
        done = 0
        while done < 210:
            grp = groups[done % len(groups)]
            y = random_gset(rng, grp, 5)
            p, f = random_gset_over(rng, y, 5)
            z, g = random_gset_over(rng, y, 5)
            w = pullback_action(p, z, y, f, g)  # check_action inside
            cert = pullback(f.map, g.map)
            check_equivariant(cert.proj1, w, p)
            check_equivariant(cert.proj2, w, z)
            done += 1
        dt = time.monotonic() - t0
        assert dt < 10.0, f"took {dt:.1f}s"
        return f"{done}/{done} instances certified in {dt:.2f}s"
    emit(capsys, "induced actions on pullbacks", run)


# 2 ------------------------------------------------------------------------

def test_pullback_bundles_certify(capsys):
    def run():
        rng = Random(202)
        groups = [zmod(1), zmod(2), zmod(3), zmod(4), klein_four()]
        t0 = time.monotonic()
        done = 0
        while done < 210:
            grp = groups[done % len(groups)]
            base = random_finset(rng, 4, prefix="y")
            b = random_bundle(rng, grp, base)
            new_base = random_finset(rng, 4, prefix="z")
            if len(base) == 0 and len(new_base) > 0:
                continue
            t = random_map(rng, new_base, base)
            pb = pullback_bundle(b, t)
            again = is_principal_bundle(pb.proj)
            assert isinstance(again, Bundle)
            done += 1
        dt = time.monotonic() - t0
        assert dt < 10.0, f"took {dt:.1f}s"
        return f"{done}/{done} base changes stayed principal in {dt:.2f}s"
    emit(capsys, "base change of bundles", run)


# 3 ------------------------------------------------------------------------

def family_corpus(max_target=3, max_src=2, max_legs=3):
    """Every covering family up to leg multiset equality: targets up to
    max_target atoms, leg sources up to max_src, at most max_legs legs."""
    out = []
    for t in range(max_target + 1):
        target = FinSet(tuple(range(t)))
        pool = []
        for s in range(max_src + 1):
            src = FinSet(tuple(f"u{s}_{k}" for k in range(s)))
            pool.extend(all_maps(src, target))
        for n in range(max_legs + 1):
            for legs in itertools.combinations_with_replacement(pool, n):
                out.append(CoveringFamily(target, legs))
    return out


def test_cover_oracle_equivalence(capsys):
    def run():
        t0 = time.monotonic()
        fams = family_corpus()
        assert len(fams) == 704
        disagreements = 0
        for fam in fams:
            if is_canonical_cover(fam, sample_budget=2) != is_jointly_surjective(fam):
                disagreements += 1
        dt = time.monotonic() - t0
        assert disagreements == 0
        assert dt < 30.0, f"took {dt:.1f}s"
        return f"{len(fams)} families, {disagreements} disagreements in {dt:.2f}s"
    emit(capsys, "colimit covers are the jointly surjective ones", run)


# 4 ------------------------------------------------------------------------

def test_representables_are_sheaves(capsys):
    def run():
        t0 = time.monotonic()
        fams = [f for f in family_corpus() if is_jointly_surjective(f)]
        values = [FinSet(tuple(f"a{k}" for k in range(n))) for n in range(4)]
        checked = 0
        failures = 0
        for fam in fams:
            for a in values:
                if not sheaf_condition_by_enumeration(fam, a, bound=4096):
                    failures += 1
                checked += 1
        dt = time.monotonic() - t0
        assert failures == 0
        return (f"{checked} sheaf conditions over {len(fams)} canonical covers, "
                f"{failures} failures in {dt:.2f}s")
    emit(capsys, "hom-presheaves satisfy descent of maps", run)


# 5 ------------------------------------------------------------------------

def test_stack_conditions_hold(capsys):
    def run():
        t0 = time.monotonic()
        z2 = zmod(2)
        x2 = point_x(z2)
        exh = verify_stack(z2, x2, exhaustive_corpus(z2, x2, max_base=2))
        assert exh.ok, exh
        exh_n = (exh.effectiveness.attempted + exh.gluing.attempted
                 + exh.uniqueness.attempted + exh.rejected.attempted)
        rng = Random(505)
        total = 0
        for grp in (zmod(1), zmod(2), zmod(3), zmod(4), klein_four()):
            x = point_x(grp)
            rep = verify_stack(grp, x, build_corpus(grp, x, rng, cases=10, max_base=4))
            assert rep.ok, (grp, rep)
            total += (rep.effectiveness.attempted + rep.gluing.attempted
                      + rep.uniqueness.attempted + rep.rejected.attempted)
        assert total >= 200, total
        dt = time.monotonic() - t0
        assert dt < 60.0, f"took {dt:.1f}s"
        return (f"exhaustive small bases ({exh_n} cases) plus {total} random "
                f"cases, all conditions hold in {dt:.2f}s")
    emit(capsys, "gluing, uniqueness and effectiveness of descent", run)


# 6 ------------------------------------------------------------------------

def comparison_squares_agree(datum, result):
    """The leg comparisons commute with the datum's overlap isos, pointwise,
    rebuilt here from public pieces only."""
    cover = datum.cover
    n = len(cover.legs)
    for i in range(n):
        for j in range(n):
            cert = overlap(cover, i, j)
            f_i, f_j = cover.legs[i], cover.legs[j]
            eps_i = epsilon_component(result.glued, f_i, cert.proj1)
            eps_j = epsilon_component(result.glued, f_j, cert.proj2)
            lhs = compose_qs(
                datum.overlap_iso(i, j),
                compose_qs(restrict_morphism(result.comparisons[i], cert.proj1),
                           eps_i))
            rhs = compose_qs(restrict_morphism(result.comparisons[j], cert.proj2),
                             eps_j)
            if lhs.fn != rhs.fn:
                return False
    return True


def test_descent_round_trip(capsys):
    def run():
        rng = Random(606)
        groups = [zmod(2), zmod(3), zmod(4), klein_four()]
        t0 = time.monotonic()
        done = 0
        square_failures = 0
        while done < 210:
            grp = groups[done % len(groups)]
            base = random_finset(rng, 3, min_size=1, prefix="y")
            obj = random_qsobject(rng, grp, point_x(grp), base)
            cover = random_cover(rng, base, max_legs=3, max_extra=2)
            datum = restrict_to_datum(obj, cover)
            result = glue_object(datum)
            assert qs_isomorphism(result.glued, obj) is not None
            if not comparison_squares_agree(datum, result):
                square_failures += 1
            done += 1
        dt = time.monotonic() - t0
        assert square_failures == 0
        return (f"{done}/{done} round trips isomorphic, "
                f"{square_failures} comparison-square failures in {dt:.2f}s")
    emit(capsys, "gluing inverts restriction", run)


# 7 ------------------------------------------------------------------------

def raw_endomorphisms(b):
    """Endomorphisms of a bundle by raw dictionary enumeration: totality,
    equivariance and the projection triangle checked with loops only."""
    atoms = list(b.total.space)
    grp = b.group
    found = []
    for values in itertools.product(atoms, repeat=len(atoms)):
        m = dict(zip(atoms, values))
        if any(b.proj.map.table[m[p]] != b.proj.map.table[p] for p in atoms):
            continue
        if any(m[b.total(g, p)] != b.total(g, m[p])
               for g in grp.carrier for p in atoms):
            continue
        found.append(m)
    return found


def test_exact_counts(capsys):
    def run():
        t0 = time.monotonic()
        two = trivial_bundle(zmod(2), FinSet(("p", "q")))
        auts2 = raw_endomorphisms(two)
        assert len(auts2) == 4, len(auts2)
        assert all(len(set(m.values())) == len(m) for m in auts2)
        z3pt = trivial_bundle(zmod(3), terminal())
        auts3 = raw_endomorphisms(z3pt)
        assert len(auts3) == 3, len(auts3)
        classes = {}
        for grp in (zmod(1), zmod(2), zmod(3), zmod(4), klein_four()):
            for size in range(4):
                base = FinSet(tuple(f"y{k}" for k in range(size)))
                reps = []
                for b in enumerate_bundles(grp, base):
                    if all(gset_isomorphism_over(b.total, r.total, b.proj.map,
                                                 r.proj.map) is None for r in reps):
                        reps.append(b)
                classes[(len(grp.carrier), size)] = len(reps)
        assert set(classes.values()) == {1}, classes
        dt = time.monotonic() - t0
        return (f"|Aut| = 4 and 3 by raw enumeration, one iso class in all "
                f"{len(classes)} (group, base) cells in {dt:.2f}s")
    emit(capsys, "automorphism and classification counts", run)


# 8 ------------------------------------------------------------------------

def test_restriction_coherence(capsys):
    def run():
        rng = Random(808)
        t0 = time.monotonic()
        squares = 0
        components = 0
        for _ in range(20):
            grp = rng.choice([zmod(2), zmod(3), klein_four()])
            base = random_finset(rng, 3, min_size=1, prefix="y")
            obj = random_qsobject(rng, grp, point_x(grp), base)
            gauges = [constant_gauge(obj, k) for k in grp.carrier.elements]
            cell_i = coherence_iota(base, [obj], gauges)
            a = random_finset(rng, 3, min_size=1, prefix="a")
            f = random_map(rng, a, base)
            bset = random_finset(rng, 3, min_size=1, prefix="b")
            g = random_map(rng, bset, a)
            cell_e = coherence_epsilon(f, g, [obj], gauges)
            squares += cell_i.naturality_squares + cell_e.naturality_squares
            components += len(cell_i.components) + len(cell_e.components)
        assert squares >= 100, squares
        triples = 0
        while triples < 52:
            grp = rng.choice([zmod(2), zmod(3)])
            base = random_finset(rng, 2, min_size=1, prefix="y")
            obj = random_qsobject(rng, grp, point_x(grp), base)
            a = random_finset(rng, 2, min_size=1, prefix="a")
            f = random_map(rng, a, base)
            bset = random_finset(rng, 2, min_size=1, prefix="b")
            g = random_map(rng, bset, a)
            c = random_finset(rng, 2, min_size=1, prefix="c")
            h = random_map(rng, c, bset)
            assert coherence_assoc(obj, f, g, h)
            assert coherence_triangles(obj, f)
            triples += 1
        dt = time.monotonic() - t0
        return (f"{components} components, {squares} naturality squares, "
                f"{triples} associativity triples in {dt:.2f}s")
    emit(capsys, "restriction is coherent", run)


# 9 ------------------------------------------------------------------------

NEGATIVES = [
    ("bad_assoc.site", "check-group", 2, "NotAssociative"),
    ("bad_group.site", "check-group", 2, "NoInverse"),
    ("bad_action.site", "check-action", 2, "UnitFail"),
    ("bad_equivariant.site", "check-action", 2, "EquivarianceFail"),
    ("not_bundle.site", "check-bundle", 1, "NotBundle"),
    ("cocycle_bad.site", "glue-object", 1, "CocycleFail"),
    ("covers_bad.site", "check-cover", 1, "CoverNotCanonical"),
]


def test_negative_witnesses(capsys, tmp_path):
    def run():
        seen = []
        for name, command, want_code, want_kind in NEGATIVES:
            path = tmp_path / f"{name}.json"
            code = cli_main([command, str(SITES / name), "--report", str(path)])
            assert code == want_code, (name, code)
            rep = json.loads(path.read_text())
            if want_code == 2:
                kind = rep["error"]["payload"].get("cause") or rep["error"]["kind"]
            else:
                fails = [c for c in rep["checks"] if c["status"] == "fail"]
                assert fails, name
                kind = fails[0]["error"]
            assert kind == want_kind, (name, kind)
            seen.append(kind)
        return f"{len(seen)} fixtures rejected with their own witness kinds"
    emit(capsys, "counterexamples carry typed witnesses", run)
