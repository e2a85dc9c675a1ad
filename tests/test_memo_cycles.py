"""The memo closes no reference cycle: a memo entry holds its arguments and
its result by weak references, a cover keeps its own overlaps, and a
gluing's deferred comparisons hold only what builds them. So a round trip's
structures die by reference counting once their last user drops them,
without the cyclic collector, while what a caller still holds stays
shared."""

import copy
import gc
import weakref
from random import Random

import pytest

import finstack.action
import finstack.bundle
import finstack.topology
from finstack import (
    CocycleRequired,
    CoverNotCanonical,
    FinMap,
    FinSet,
    check_cocycle,
    check_qs_object,
    glue_morphisms,
    glue_object,
    product,
    pullback,
    qs_isomorphism,
    regular_action,
    restrict,
    restrict_morphism,
    restrict_to_datum,
    sym,
    trivial_action,
    trivial_bundle,
    verify_stack,
    zmod,
)
from finstack.action import generators, product_action
from finstack.bundle import torsor_structures
from finstack.descent import overlap, overlapping_pairs, restricted_source
from finstack.finset import CrossCheck, bang, fibers, product_space, terminal
from finstack.sample import (
    break_cocycle,
    build_corpus,
    drop_leg,
    random_cover,
    random_qsobject,
    relabel_qsobject,
)
from finstack.topology import CoveringFamily, point_cover, require_canonical, uncovered


@pytest.fixture
def no_collector():
    """The cyclic collector off, after one collection: whatever dies in the
    test dies by reference counting, and a collection at its end counts
    only the cyclic garbage the test made."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def _round_trip(seed: int) -> int:
    """One round trip on a random object of the classifying stack [T/S3]
    over three points: its datum on a random cover glued back, the glued
    morphism of a relabelling, and two data refused (a twisted overlap iso,
    and a leg dropped from the point cover). Returns the number refused."""
    rng = Random(seed)
    group = sym(3)
    base = FinSet(("p", "q", "r"))
    obj = random_qsobject(rng, group, trivial_action(group, terminal()), base)
    cover = random_cover(rng, base)
    datum = restrict_to_datum(obj, cover)
    if qs_isomorphism(glue_object(datum).glued, obj) is None:
        raise AssertionError("the glued object is not the source")
    obj2, m = relabel_qsobject(rng, obj)
    locals_ = [restrict_morphism(m, f) for f in cover.legs]
    if glue_morphisms(cover, obj, obj2, locals_).fn != m.fn:
        raise AssertionError("the glued morphism is not the relabelling")
    refused = 0
    try:
        glue_object(break_cocycle(datum, group.carrier.elements[-1], rng))
    except CocycleRequired:
        refused += 1
    try:
        glue_object(drop_leg(restrict_to_datum(obj, point_cover(base))))
    except CoverNotCanonical:
        refused += 1
    return refused


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("on", [False, True], ids=["production", "cross-checked"])
def test_a_round_trip_leaves_no_cyclic_garbage(monkeypatch, no_collector, on, seed):
    monkeypatch.setattr(CrossCheck, "on", on)
    assert _round_trip(seed) == 2
    assert gc.collect() == 0


def _object(group, base):
    b = trivial_bundle(group, base)
    return check_qs_object(b, bang(b.total.space), trivial_action(group, terminal()))


def _inputs():
    group = zmod(2)
    base = FinSet(("p", "q"))
    leg = FinMap(FinSet(("u", "v")), base, {"u": "p", "v": "p"})
    return group, base, leg, _object(group, base)


# each memoized function with the arguments it takes, built from _inputs()
CALLS = {
    "fibers": lambda group, base, leg, obj: (fibers, (leg,)),
    "product_space": lambda group, base, leg, obj: (product_space, (base, leg.src)),
    "product": lambda group, base, leg, obj: (product, (base, leg.src)),
    "pullback": lambda group, base, leg, obj: (pullback, (obj.bundle.proj.map, leg)),
    "restrict": lambda group, base, leg, obj: (restrict, (obj, leg)),
    "trivial_action": lambda group, base, leg, obj: (trivial_action, (group, leg.src)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_arguments_die_when_their_caller_drops_them(no_collector, name):
    fn, args = CALLS[name](*_inputs())
    out = fn(*args)
    assert fn(*args) is out
    refs = [weakref.ref(x) for x in args]
    if not isinstance(out, dict):
        refs.append(weakref.ref(out))
    del args, out
    assert [r() for r in refs] == [None] * len(refs)


def test_product_action_arguments_die_when_their_caller_drops_them(no_collector):
    # the model action is built afresh on every call, no workload repeats it;
    # what it was given and what it built still die by reference counting
    group, base, leg, obj = _inputs()
    space = leg.src
    out = product_action(group, space)
    assert product_action(group, space) == out
    refs = [weakref.ref(space), weakref.ref(out), weakref.ref(out.space)]
    del base, leg, obj, space, out
    assert [r() for r in refs] == [None] * len(refs)


def test_a_result_nobody_holds_is_built_again(no_collector):
    group, base, leg, obj = _inputs()
    held = restrict(obj, leg)
    before = restrict.cache_info()
    assert restrict(obj, leg) is held
    hit = restrict.cache_info()
    assert (hit.hits, hit.misses) == (before.hits + 1, before.misses)
    ref = weakref.ref(held)
    del held
    assert ref() is None
    again = restrict(obj, leg)
    rebuilt = restrict.cache_info()
    assert (rebuilt.hits, rebuilt.misses) == (hit.hits, hit.misses + 1)
    assert restrict(obj, leg) is again


@pytest.mark.parametrize("seed", range(6))
def test_check_cocycle_finds_its_restrictions_and_overlaps(seed):
    rng = Random(seed)
    group = zmod(3)
    base = FinSet(("p", "q", "r"))
    obj = random_qsobject(rng, group, regular_action(group), base)
    datum = restrict_to_datum(obj, random_cover(rng, base))
    before = restrict.cache_info().misses, pullback.cache_info().misses
    check_cocycle(datum)
    assert (restrict.cache_info().misses, pullback.cache_info().misses) == before


def test_a_held_restriction_keeps_the_source_of_its_map_alone(monkeypatch, no_collector):
    # off, the restriction's base action stays an unbuilt table, whose thunk
    # must not hold the map
    monkeypatch.setattr(CrossCheck, "on", False)
    group, base, leg, obj = _inputs()
    held = restrict(obj, leg)
    ref = weakref.ref(leg)
    src = leg.src
    del leg
    assert ref() is None
    assert held.base is src


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_dropped_gluing_leaves_no_cyclic_garbage(monkeypatch, no_collector, seed, read):
    # off, the comparisons stay unbuilt unless read; either way dropping the
    # result and the datum frees them by reference counting
    monkeypatch.setattr(CrossCheck, "on", False)
    rng = Random(seed)
    group = sym(3)
    base = FinSet(("p", "q", "r"))
    obj = random_qsobject(rng, group, trivial_action(group, terminal()), base)
    datum = restrict_to_datum(obj, random_cover(rng, base))
    result = glue_object(datum)
    assert len(result.comparisons) == len(datum.cover.legs)
    if read:
        assert [psi.dst for psi in result.comparisons] == list(datum.objects)
    refs = [weakref.ref(datum.objects[0]), weakref.ref(result.glued)]
    del datum, result
    assert [r() for r in refs] == [None, None]
    assert gc.collect() == 0


@pytest.mark.parametrize("on", [False, True], ids=["production", "cross-checked"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_glued_restricted_datum_frees_its_source(monkeypatch, no_collector, seed, on):
    # the datum keeps its source object outside its fields, and nothing
    # there refers back to the datum: dropping the datum and its gluing
    # frees the source by reference counting
    monkeypatch.setattr(CrossCheck, "on", on)
    rng = Random(seed)
    group = sym(3)
    base = FinSet(("p", "q", "r"))
    obj = random_qsobject(rng, group, regular_action(group), base)
    datum = restrict_to_datum(obj, random_cover(rng, base))
    assert restricted_source(datum) is obj
    result = glue_object(datum)
    assert qs_isomorphism(result.glued, obj) is not None
    refs = [weakref.ref(obj), weakref.ref(datum), weakref.ref(result.glued)]
    del obj, datum, result
    assert [r() for r in refs] == [None, None, None]
    assert gc.collect() == 0


def test_a_cover_keeps_its_pairs_and_gaps_outside_its_fields(monkeypatch, no_collector):
    walks = []
    real = finstack.topology._uncovered
    monkeypatch.setattr(finstack.topology, "_uncovered",
                        lambda family: walks.append(family) or real(family))
    base = FinSet(("p", "q", "r"))
    legs = [FinMap(FinSet(("u", "v")), base, {"u": "p", "v": "q"}),
            FinMap(FinSet(("w",)), base, {"w": "q"})]
    cover = CoveringFamily(base, legs)
    pairs, missed = overlapping_pairs(cover), uncovered(cover)
    assert (pairs, missed) == ([(0, 0), (0, 1), (1, 0), (1, 1)], ["r"])
    assert overlapping_pairs(cover) is pairs and uncovered(cover) is missed
    for _ in range(3):
        with pytest.raises(CoverNotCanonical):
            require_canonical(cover)
    assert len(walks) == 1
    overlap(cover, 0, 1)
    # equality, hash and repr read the fields alone; a copy starts empty
    twin = CoveringFamily(base, legs)
    assert twin == cover and hash(twin) == hash(cover) and repr(twin) == repr(cover)
    clone = copy.copy(cover)
    assert clone == cover
    assert not any(hasattr(clone, name) for name in ("_uncovered", "_pairs", "_overlaps"))
    assert overlapping_pairs(clone) == pairs and overlapping_pairs(clone) is not pairs
    # what a cover keeps refers to its legs, never to the cover
    ref = weakref.ref(cover)
    del cover, walks[:]
    assert ref() is None


def test_a_group_keeps_its_generators_and_torsors_outside_its_fields(monkeypatch, no_collector):
    built = []
    for module, name in ((finstack.action, "_generators"),
                         (finstack.bundle, "_torsor_structures")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda group, _real=real: built.append(group) or _real(group))
    group = zmod(3)
    gens, torsors = generators(group), torsor_structures(group)
    assert (gens, len(torsors)) == ((1,), 2)
    assert generators(group) is gens and torsor_structures(group) is torsors
    assert len(built) == 2
    # equality, hash and repr read the fields alone; an equal group built
    # separately builds its own, and a copy starts with neither
    twin = zmod(3)
    assert twin == group and hash(twin) == hash(group) and repr(twin) == repr(group)
    assert generators(twin) == gens and generators(twin) is not gens
    assert torsor_structures(twin) == torsors and torsor_structures(twin) is not torsors
    assert len(built) == 4
    clone = copy.copy(group)
    assert clone == group and hash(clone) == hash(group)
    assert not any(hasattr(clone, name) for name in ("_generators", "_torsors"))
    # what a group keeps refers to its atoms, never to the group
    ref = weakref.ref(group)
    del group, clone, built[:]
    assert ref() is None
    assert gc.collect() == 0


def _next_case(cases, ref):
    """Draw until the first pair of the case after the one whose source
    object `ref` names, and return a weak reference to the new source. The
    pairs drawn die with this call's locals."""
    for tag, case in cases:
        if tag == "effectiveness" and case[1] is not ref():
            return weakref.ref(case[1])
    raise AssertionError("the corpus ended early")


@pytest.mark.parametrize("x_kind", ["point", "regular"])
def test_a_case_dies_when_the_next_one_starts(no_collector, x_kind):
    # build_corpus draws each case in its own call, so once the first pair
    # of case k+1 is drawn nothing keeps case k's source object alive
    group = sym(3)
    x = trivial_action(group, terminal()) if x_kind == "point" else regular_action(group)
    cases = build_corpus(group, x, Random(4), cases=5)
    next(cases)  # the empty-base round trip
    tag, case = next(cases)
    ref = weakref.ref(case[1])
    del tag, case
    for _ in range(4):
        after = _next_case(cases, ref)
        assert ref() is None
        ref = after


def _watched(cases, dead):
    """The stream, noting, when the pair after a case's first is asked for,
    whether the previous case's source object is dead. The empty-base round
    trip's source is the empty object, which the stream keeps, so it is not
    watched."""
    ref = None
    for tag, case in cases:
        first = (tag == "effectiveness" and len(case[1].base) > 0
                 and (ref is None or case[1] is not ref()))
        if first:
            before, ref = ref, weakref.ref(case[1])
        yield tag, case
        if first and before is not None:
            dead.append(before() is None)


@pytest.mark.parametrize("x_kind", ["point", "regular"])
def test_verify_stack_keeps_no_case_it_has_checked(no_collector, x_kind):
    # when verify_stack asks for the pair after case k+1's first, it holds
    # that pair alone: case k is dead
    group = sym(3)
    x = trivial_action(group, terminal()) if x_kind == "point" else regular_action(group)
    dead = []
    report = verify_stack(group, x, _watched(build_corpus(group, x, Random(4), cases=5), dead))
    assert report.ok
    assert dead == [True] * 4
    assert gc.collect() == 0
