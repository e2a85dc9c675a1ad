"""Memory policy: derived structures live on their youngest input, and the
certified records cache a hash equal to the hash of their field tuple."""

import gc
import weakref
from random import Random

import pytest

from finstack.action import (
    FinGroup,
    klein_four,
    sym,
    trivial_action,
    zmod,
)
from finstack.bundle import check_bundle_morphism
from finstack.descent import glue_object, restrict_to_datum
from finstack.finset import (
    FinMap,
    FinSet,
    identity,
    memo,
    product,
    product_space,
    pullback,
    terminal,
)
from finstack.sample import random_cover, random_qsobject
from finstack.stack import (
    classifying_stack,
    qs_identity,
    qs_isomorphism,
    restrict,
)
from finstack.topology import point_cover

from support import _object, random_finset


def test_memo_entries_die_with_their_inputs():
    group = zmod(3)
    base = FinSet(("p", "q"))
    leg = FinMap(FinSet(("u", "v")), base, {"u": "p", "v": "p"})
    obj = _object(group, base)
    prod = product(base, leg.src)
    cert = pullback(obj.bundle.proj.map, leg)
    local = restrict(obj, leg)
    act = trivial_action(group, leg.src)
    refs = [weakref.ref(x) for x in (
        base, leg, leg.src, obj, obj.total, prod.space, prod.proj1, cert.apex,
        cert.proj1, local, local.total, act, act.space)]
    del base, leg, obj, prod, cert, local, act
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    # the group outlives them and keeps no entry keyed by them: an entry
    # reads its arguments through its weak references, and one that died
    # was not the group's
    for refs, _ in (group.carrier._memo or {}).values():
        args = [r() for r in refs]
        assert all(x is not None and (not isinstance(x, (FinSet, FinMap))
                                      or x is group.carrier or x is terminal())
                   for x in args)


def test_long_lived_sets_hold_no_memo():
    groups = [zmod(2), zmod(3), klein_four(), sym(3)]
    xs = [trivial_action(g, terminal()) for g in groups]
    start = FinSet(())._born
    long_lived = [terminal()] + [g.carrier for g in groups]
    rng = Random(11)
    for k in range(50):
        group, x = groups[k % len(groups)], xs[k % len(xs)]
        base = random_finset(rng, 3, min_size=1, prefix="y")
        obj = random_qsobject(rng, group, x, base)
        cover = point_cover(base) if k % 2 else random_cover(rng, base)
        glued = glue_object(restrict_to_datum(obj, cover)).glued
        assert qs_isomorphism(glued, obj) is not None
    del base, obj, cover, glued
    gc.collect()
    for s in long_lived:
        # an entry's arguments, read through its weak references: every
        # long-lived argument is still alive, so a dead one was a round
        # trip's
        derived = [key[0].__name__ for key, (refs, _) in (s._memo or {}).items()
                   if any(x is None
                          or isinstance(x, (FinSet, FinMap)) and x._born >= start
                          or isinstance(x, FinGroup) and x not in groups
                          for x in (r() for r in refs))]
        assert derived == [], f"{s!r} holds entries of the round trips"


@pytest.mark.parametrize("fn", [product_space, pullback, product, restrict],
                         ids=["finset.product_space", "finset.pullback", "finset.product",
                              "stack.restrict"])
def test_cache_info_counts_hits_and_misses(fn):
    group = zmod(2)
    base = FinSet(("p", "q"))
    leg = FinMap(FinSet(("u",)), base, {"u": "q"})
    obj = _object(group, base)
    args = {product_space: (base, leg.src), pullback: (obj.bundle.proj.map, leg),
            product: (base, leg.src), restrict: (obj, leg)}[fn]
    before = fn.cache_info()
    first = fn(*args)
    mid = fn.cache_info()
    assert (mid.hits, mid.misses) == (before.hits, before.misses + 1)
    assert fn(*args) is first
    after = fn.cache_info()
    assert (after.hits, after.misses) == (mid.hits + 1, mid.misses)


@pytest.mark.parametrize("fn", [
    lambda: None, lambda a: None, lambda a, b, c: None, lambda *args: None,
    lambda a, *rest: None, lambda a, *, b: None, lambda a, **kw: None,
], ids=["no argument", "one argument", "three arguments", "only *args", "*args",
        "keyword-only", "**kwargs"])
def test_memo_refuses_a_function_it_cannot_key(fn):
    # the key holds the ids of two positional arguments; any other signature
    # would be keyed by part of its arguments, and a value derived from one
    # object is kept on that object
    with pytest.raises(TypeError, match="two positional arguments"):
        memo()(fn)
    with pytest.raises(TypeError, match="two positional arguments"):
        memo(lambda a, b: (b, a))(fn)
    assert memo()(lambda a, b: a).memoized_on_youngest
    assert memo(lambda a, b: (b, a))(lambda a, b: a).memoized_on_youngest


def _certified_instances() -> dict:
    group = zmod(3)
    base = FinSet(("p", "q"))
    obj = _object(group, base)
    bundle = obj.bundle
    return {
        "FinGroup": group,
        "GAction": bundle.total,
        "EquivariantMap": bundle.proj,
        "Bundle": bundle,
        "BundleMorphism": check_bundle_morphism(
            bundle, bundle, identity(bundle.total.space)),
        "QSObject": obj,
        "QSMorphism": qs_identity(obj),
        "CoveringFamily": point_cover(base),
        "QuotientStack": classifying_stack(group),
    }


@pytest.mark.parametrize("name", list(_certified_instances()))
def test_cached_hash_equals_field_tuple_hash(name):
    x = _certified_instances()[name]
    fields = tuple(getattr(x, f) for f in type(x).__match_args__)
    assert hash(x) == hash(fields)
    assert x._hash == hash(fields)      # kept after the first use
    assert hash(x) == hash(fields)
    twin = type(x)(*fields)
    assert twin is not x and twin == x and hash(twin) == hash(x)
    other = _certified_instances()[name]
    assert other == x and hash(other) == hash(x)


def test_descent_datum_stays_unhashable():
    obj = _object(zmod(2), FinSet(("p",)))
    datum = restrict_to_datum(obj, point_cover(obj.base))
    fields = tuple(getattr(datum, f) for f in type(datum).__match_args__)
    with pytest.raises(TypeError):
        hash(fields)
    with pytest.raises(TypeError):
        hash(datum)
    assert type(datum)(*fields) == datum


def test_cached_hash_keeps_inequality():
    a, b = _object(zmod(2), FinSet(("p",))), _object(zmod(2), FinSet(("q",)))
    assert a != b and a.bundle.total != b.bundle.total
    assert {a, b, a} == {a, b}
