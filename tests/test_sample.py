"""Generator determinism and the shapes of generated corpora."""

from collections import Counter
from random import Random

import pytest

import finstack.bundle
import finstack.sample
from finstack import (
    BoundExceeded,
    FinSet,
    NotBundle,
    TriangleFail,
    is_canonical_cover,
    identity,
    is_jointly_surjective,
    regular_action,
    terminal,
    trivial_action,
    zmod,
)
from finstack.sample import (
    build_corpus,
    equivariant_maps,
    exhaustive_corpus,
    random_bundle,
    random_cover,
    random_qsobject,
    twist_bundle,
)
from finstack.stack import fiber_gauge

from support import group_catalog, random_finset, random_gset, random_map, random_surjection


def test_same_seed_same_corpus():
    z2 = zmod(2)
    x = trivial_action(z2, terminal())
    c1 = list(build_corpus(z2, x, Random(99), cases=3))
    c2 = list(build_corpus(z2, x, Random(99), cases=3))
    assert ([case[0] for tag, case in c1 if tag == "effectiveness"]
            == [case[0] for tag, case in c2 if tag == "effectiveness"])
    assert (sum(tag == "uniqueness" for tag, _ in c1)
            == sum(tag == "uniqueness" for tag, _ in c2))
    assert sum(tag == "rejected" for tag, _ in c1) == sum(tag == "rejected" for tag, _ in c2)


def test_same_seed_same_gset():
    z4 = zmod(4)
    a = random_gset(Random(5), z4, 6)
    b = random_gset(Random(5), z4, 6)
    assert a == b


def test_random_map_total(rng):
    src = random_finset(rng, 5)
    dst = random_finset(rng, 5, min_size=1)
    m = random_map(rng, src, dst)
    assert set(m.table) == set(src.elements)


def test_random_surjection(rng):
    for _ in range(20):
        dst = random_finset(rng, 3, min_size=1)
        src = random_finset(rng, 6, min_size=len(dst))
        s = random_surjection(rng, src, dst)
        assert set(s.table.values()) == set(dst.elements)
    with pytest.raises(ValueError):
        random_surjection(rng, FinSet((0,)), FinSet(("a", "b")))


def test_random_cover_canonical(rng):
    for _ in range(20):
        target = random_finset(rng, 4, min_size=1)
        cov = random_cover(rng, target)
        assert is_canonical_cover(cov)
        holed = random_cover(rng, target, surjective=False)
        assert not is_jointly_surjective(holed)


def test_twist_preserves_projection(rng):
    b0 = random_bundle(rng, zmod(3), FinSet(("p", "q")))
    b1, h = twist_bundle(rng, b0)
    assert b1.proj.map == b0.proj.map
    assert set(h.table) == set(b0.total.space.elements)


# The generators' internal checks raise RuntimeError, also under python -O.

def test_random_cover_checks_it_covers(rng, monkeypatch):
    monkeypatch.setattr(finstack.sample, "is_jointly_surjective", lambda fam: False)
    with pytest.raises(RuntimeError, match="misses a target atom"):
        random_cover(rng, FinSet((0, 1)))


def test_twist_checks_it_keeps_fibers(rng, monkeypatch):
    b0 = random_bundle(rng, zmod(2), FinSet(("p",)))
    monkeypatch.setattr(finstack.sample, "compose", lambda g, f: identity(f.src))
    with pytest.raises(RuntimeError, match="across fibers"):
        twist_bundle(rng, b0)


@pytest.mark.needs_cross_check
def test_twist_checks_its_bundle(rng, monkeypatch):
    b0 = random_bundle(rng, zmod(2), FinSet(("p",)))
    monkeypatch.setattr(finstack.bundle, "is_principal_bundle",
                        lambda proj: NotBundle("p", "planted"))
    with pytest.raises(RuntimeError, match="not a bundle"):
        twist_bundle(rng, b0)


def test_fiber_gauge_guards_alpha(rng):
    z2 = zmod(2)
    x = regular_action(z2)
    obj = random_qsobject(rng, z2, x, terminal())
    if len(set(obj.alpha.map.table.values())) > 1:
        with pytest.raises(TriangleFail):
            fiber_gauge(obj, {"*": 1})
    triv_x = trivial_action(z2, terminal())
    obj2 = random_qsobject(rng, z2, triv_x, FinSet(("p",)))
    g = fiber_gauge(obj2, {"p": 1})
    assert g.fn != g.src.total and g.src == obj2


def test_equivariant_map_count():
    z2 = zmod(2)
    reg = regular_action(z2)
    ms = equivariant_maps(reg, reg)
    assert len(ms) == 2  # determined by the image of the unit
    with pytest.raises(BoundExceeded):
        equivariant_maps(
            trivial_action(z2, FinSet(tuple(range(8)))),
            trivial_action(z2, FinSet(tuple(range(8)))), bound=10)


def test_group_catalog_is_certified():
    for g in group_catalog():
        assert g.times(g.unit_atom, g.unit_atom) == g.unit_atom


def test_exhaustive_corpus_counts():
    z2 = zmod(2)
    x = trivial_action(z2, terminal())
    c = list(exhaustive_corpus(z2, x, max_base=1))
    # bases {} and {0}: one object each, point covers
    assert sum(tag == "effectiveness" for tag, _ in c) == 2
    assert sum(tag == "rejected" for tag, _ in c) >= 1
    assert all(len(pair) == 3 for tag, pair in c if tag == "uniqueness")


def test_build_corpus_has_all_conditions(rng):
    z3 = zmod(3)
    x = trivial_action(z3, terminal())
    counts = Counter(tag for tag, _ in build_corpus(z3, x, rng, cases=5))
    assert counts["effectiveness"] >= 6  # empty base plus one per case
    assert counts["gluing"] >= 5
    assert counts["uniqueness"] >= 5
    assert counts["rejected"] >= 1
