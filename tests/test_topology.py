"""Canonical topology: effective epis, covering families, sieves, and the
sheaf condition for representables."""

import itertools
import re
from random import Random

import pytest

from finstack import (
    BoundExceeded,
    CoveringFamily,
    FinMap,
    FinSet,
    GeneratedSieve,
    check_sheaf_condition,
    compose,
    identity,
    is_canonical_cover,
    is_colim_sieve,
    is_effective_epi,
    is_jointly_surjective,
    is_universal_effective_epi,
    point_cover,
    pullback_family,
    terminal,
)
from finstack.finset import is_epi
from finstack.topology import (
    all_maps,
    cech_colimit,
    sheaf_condition_by_enumeration,
)

import support
from support import sieve_member


def small_families(target_sizes=(0, 1, 2), max_src=2, max_legs=2):
    """Every family with <= max_legs legs from sources of size <= max_src."""
    for t in target_sizes:
        target = FinSet(tuple(range(t)))
        legs = []
        for s in range(max_src + 1):
            src = FinSet(tuple(f"s{s}_{k}" for k in range(s)))
            legs.extend(all_maps(src, target))
        yield CoveringFamily(target, [])
        for m in legs:
            yield CoveringFamily(target, [m])
        if max_legs >= 2:
            for m1, m2 in itertools.combinations_with_replacement(legs, 2):
                yield CoveringFamily(target, [m1, m2])


# ------------------------------------------------------------- epis

def test_effective_epi_is_surjectivity():
    two = FinSet((0, 1))
    fold = FinMap(FinSet(("a", "b", "c")), two, {"a": 0, "b": 1, "c": 1})
    assert is_effective_epi(fold)
    assert is_effective_epi(identity(two))
    skip = FinMap(FinSet(("a",)), two, {"a": 0})
    assert not is_effective_epi(skip)
    assert is_effective_epi(FinMap(FinSet(()), FinSet(()), {}))
    assert not is_effective_epi(FinMap(FinSet(()), two, {}))


def test_effective_epi_oracle_matches_surjectivity():
    for n in range(4):
        for m in range(4):
            src, dst = FinSet(tuple(range(n))), FinSet(tuple(f"d{k}" for k in range(m)))
            for f in all_maps(src, dst):
                assert is_effective_epi(f) == is_epi(f)


def test_universal_effective_epi_agrees(rng):
    sizes = [0, 1, 2, 3]
    for _ in range(60):
        src = FinSet(tuple(range(rng.choice(sizes))))
        dst = FinSet(tuple(f"d{k}" for k in range(rng.choice(sizes))))
        if len(dst) == 0 and len(src) > 0:
            continue
        table = {a: rng.choice(dst.elements) for a in src} if len(dst) else {}
        f = FinMap(src, dst, table)
        assert is_universal_effective_epi(f) == is_effective_epi(f)


# ------------------------------------------------------------- covers

def test_family_constructor_rejects_stray_leg():
    two = FinSet((0, 1))
    with pytest.raises(ValueError, match=re.escape('leg 0 has target {0}, expected {0 1}')):
        CoveringFamily(two, [identity(FinSet((0,)))])


def test_canonical_iff_jointly_surjective_small():
    n = 0
    for fam in small_families():
        assert is_canonical_cover(fam) == is_jointly_surjective(fam)
        n += 1
    assert n >= 49


def test_point_cover_is_canonical():
    for size in range(4):
        target = FinSet(tuple(range(size)))
        cover = point_cover(target)
        assert len(cover) == size
        assert is_canonical_cover(cover)


def test_empty_family_covers_only_empty_target():
    assert is_canonical_cover(CoveringFamily(FinSet(()), []))
    assert not is_canonical_cover(CoveringFamily(FinSet((0,)), []))


def test_cover_stability_under_base_change(rng):
    for _ in range(40):
        t_size = rng.randint(1, 3)
        target = FinSet(tuple(range(t_size)))
        fam = None
        while fam is None or not is_jointly_surjective(fam):
            legs = []
            for i in range(rng.randint(1, 3)):
                s = rng.randint(1, 3)
                src = FinSet(tuple((i, k) for k in range(s)))
                legs.append(FinMap(
                    src, target, {a: rng.choice(target.elements) for a in src}))
            fam = CoveringFamily(target, legs)
        new_base = FinSet(tuple(f"b{k}" for k in range(rng.randint(0, 3))))
        t = FinMap(new_base, target,
                   {b: rng.choice(target.elements) for b in new_base})
        pulled = pullback_family(fam, t)
        assert pulled.target == new_base
        assert len(pulled) == len(fam)
        assert is_canonical_cover(pulled)


def test_pullback_family_target_mismatch():
    fam = point_cover(FinSet((0, 1)))
    with pytest.raises(ValueError, match=re.escape('{x} != {0 1}')):
        pullback_family(fam, identity(FinSet(("x",))))


# ------------------------------------------------------------- sieves

def test_sieve_membership_witness():
    target = FinSet((0, 1))
    fold = FinMap(FinSet(("a", "b", "c")), target, {"a": 0, "b": 0, "c": 1})
    sieve = GeneratedSieve(CoveringFamily(target, [fold]))
    g = FinMap(FinSet(("x", "y")), target, {"x": 1, "y": 0})
    w = sieve_member(sieve, g)
    assert w is not None and w.leg_index == 0
    assert compose(fold, w.via) == g
    # least-preimage choice: 0 has preimages a,b and the witness picks a
    assert w.via.table["y"] == "a"


def test_sieve_membership_checks_its_witness(monkeypatch):
    # a factorization that does not factor is an internal fault, raised also
    # under python -O
    target = FinSet((0, 1))
    fold = FinMap(FinSet(("a", "b", "c")), target, {"a": 0, "b": 0, "c": 1})
    sieve = GeneratedSieve(CoveringFamily(target, [fold]))
    monkeypatch.setattr(support, "fiber",
                        lambda f, y: tuple(a for a in f.src if f.table[a] != y))
    with pytest.raises(RuntimeError, match="does not factor"):
        sieve_member(sieve, FinMap(FinSet(("x",)), target, {"x": 1}))


def test_sieve_membership_negative():
    target = FinSet((0, 1))
    sieve = GeneratedSieve(point_cover(target))
    assert sieve_member(sieve, identity(target)) is None
    pick = FinMap(terminal(), target, {"*": 1})
    w = sieve_member(sieve, pick)
    assert w is not None and w.leg_index == 1
    with pytest.raises(ValueError, match=re.escape('{z} is not the sieve target {0 1}')):
        sieve_member(sieve, identity(FinSet(("z",))))


def test_colim_sieve_matches_canonical_verdict():
    n = 0
    for fam in small_families():
        assert is_colim_sieve(GeneratedSieve(fam)) == is_canonical_cover(fam)
        n += 1
    assert n >= 49


def test_cech_comparison_collapses_overlaps():
    # two overlapping legs onto a 3-point base; the comparison is iso even
    # though the coproduct of sources is bigger than the target
    target = FinSet((0, 1, 2))
    f = FinMap(FinSet(("a", "b")), target, {"a": 0, "b": 1})
    g = FinMap(FinSet(("c", "d")), target, {"c": 1, "d": 2})
    fam = CoveringFamily(target, [f, g])
    col = cech_colimit(fam)
    assert len(col.space) == 3
    assert all(compose(col.comparison, leg) == m
               for leg, m in zip(col.cocone, fam.legs))


# ------------------------------------------------------------- sheaves

def test_sheaf_condition_for_canonical_covers():
    for fam in small_families():
        if not is_jointly_surjective(fam):
            continue
        for a_size in range(3):
            a = FinSet(tuple(f"a{k}" for k in range(a_size)))
            assert check_sheaf_condition(fam, a)


def test_sheaf_condition_fails_off_cover():
    target = FinSet((0, 1))
    fam = CoveringFamily(
        target, [FinMap(terminal(), target, {"*": 0})])  # misses 1
    assert not check_sheaf_condition(fam, FinSet(("x", "y")))
    # a single-point target never distinguishes gluings
    assert check_sheaf_condition(fam, terminal())


def test_sheaf_strategies_agree():
    # the decider against the enumeration oracle, both verdicts reached
    verdicts = set()
    for size in range(4):
        a = FinSet(tuple(f"a{k}" for k in range(size)))
        for fam in small_families():
            decided = check_sheaf_condition(fam, a)
            assert decided == sheaf_condition_by_enumeration(fam, a, 10 ** 6)
            verdicts.add(decided)
    assert verdicts == {True, False}


def test_sheaf_empty_target_edge_cases():
    empty = FinSet(())
    uncovered = CoveringFamily(FinSet((0,)), [])
    # no maps {0} -> {} exist, and the empty matching family has no gluing
    assert not check_sheaf_condition(uncovered, empty)
    nonempty_leg = CoveringFamily(
        FinSet((0,)), [FinMap(FinSet(("u", "v")), FinSet((0,)), {"u": 0, "v": 0})])
    assert check_sheaf_condition(nonempty_leg, empty)


def test_sheaf_bound_is_enforced():
    target = FinSet((0, 1, 2))
    cover = point_cover(target)
    big = FinSet(tuple(range(5)))
    with pytest.raises(BoundExceeded) as exc:
        sheaf_condition_by_enumeration(cover, big, bound=100)
    assert exc.value.size == 125
    assert check_sheaf_condition(cover, big)  # the decider enumerates nothing
