"""The memo looks its entries up by argument identity: a lookup never hashes
an argument, so it builds no table to hash, and equal arguments built
separately miss."""

import pytest

from finstack.action import trivial_action, zmod
from finstack.bundle import trivial_bundle
from finstack.finset import FinMap, FinSet, Record, bang, fibers, pullback, terminal
from finstack.stack import check_qs_object, restrict


def _object(group, base):
    b = trivial_bundle(group, base)
    return check_qs_object(b, bang(b.total.space), trivial_action(group, terminal()))


def _calls():
    """fn and a fresh argument tuple for each memoized function."""
    group = zmod(2)
    base = FinSet(("p", "q"))
    leg = FinMap(FinSet(("u", "v")), base, {"u": "q", "v": "q"})
    obj = _object(group, base)
    return {
        "pullback": (pullback, (obj.bundle.proj.map, leg)),
        "fibers": (fibers, (leg,)),
        "restrict": (restrict, (obj, leg)),
        "trivial_action": (trivial_action, (group, leg.src)),
    }


@pytest.mark.parametrize("name", ["pullback", "fibers", "restrict", "trivial_action"])
def test_memoized_call_never_hashes_its_arguments(monkeypatch, name):
    # neither the memo lookup nor the certifiers that cross-checking re-runs
    # hash an argument: a group keeps its generators on itself
    fn, args = _calls()[name]
    hashed = []
    for cls in (FinSet, FinMap, Record):
        real = cls.__hash__
        monkeypatch.setattr(cls, "__hash__",
                            lambda self, _real=real: hashed.append(self) or _real(self))
    first = fn(*args)
    assert fn(*args) is first
    assert [x for x in hashed if any(x is a for a in args)] == []


@pytest.mark.parametrize("name", ["pullback", "fibers", "restrict", "trivial_action"])
def test_equal_but_distinct_arguments_miss(name):
    fn, args = _calls()[name]
    _, twins = _calls()[name]
    assert twins == args and all(t is not a for t, a in zip(twins, args))
    if name == "fibers":
        # kept on the map itself, not in a memo: the twin map has its own
        first = fn(*args)
        assert fn(*args) is first
        again = fn(*twins)
        assert again == first and again is not first
        return
    before = fn.cache_info()
    first = fn(*args)
    again = fn(*twins)
    after = fn.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)
    assert again == first and again is not first


def test_equal_copy_of_one_argument_misses():
    # the youngest argument is the same object, the older one an equal copy
    base = FinSet(("p", "q"))
    f = FinMap(base, base, {"p": "p", "q": "p"})
    copy = FinMap(base, base, dict(f.table))
    g = FinMap(FinSet(("u",)), base, {"u": "p"})
    first = pullback(f, g)
    before = pullback.cache_info()
    assert pullback(f, g) is first
    assert pullback(copy, g) is not first
    after = pullback.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses + 1)
