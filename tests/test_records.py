"""The certified records (`finset.record`) and the plain mutable classes keep
the semantics of the frozen dataclasses they replaced: positional
construction, equality by the field tuple within one class, a hash equal to
the hash of the field tuple, `Name(field=value, ...)` reprs, and fields that
cannot be assigned or deleted."""

import copy
import pickle

import pytest

from finstack.action import trivial_action, zmod
from finstack.bundle import (
    NotBundle,
    NotTrivial,
    check_bundle_morphism,
    is_locally_trivial,
    trivial_bundle,
)
from finstack.descent import ConditionReport, restrict_to_datum
from finstack.finset import FinSet, bang, identity, terminal
from finstack.sitefile import ClassifyTask, GluingCase
from finstack.stack import (
    check_qs_object,
    classifying_fiber_equiv,
    classifying_stack,
    coherence_iota,
    qs_identity,
)
from finstack.topology import GeneratedSieve, point_cover


def _records() -> dict:
    group = zmod(2)
    base = FinSet(("p",))
    bundle = trivial_bundle(group, base)
    obj = check_qs_object(bundle, bang(bundle.total.space), trivial_action(group, terminal()))
    cover = point_cover(base)
    return {
        "FinGroup": group,
        "GAction": bundle.total,
        "EquivariantMap": bundle.proj,
        "Trivialization": is_locally_trivial(bundle.proj, cover),
        "NotTrivial": NotTrivial(1),
        "NotBundle": NotBundle("p", "fiber is not a torsor"),
        "Bundle": bundle,
        "BundleMorphism": check_bundle_morphism(bundle, bundle, identity(bundle.total.space)),
        "QuotientStack": classifying_stack(group),
        "QSObject": obj,
        "QSMorphism": qs_identity(obj),
        "CoherenceCell": coherence_iota(base, [obj]),
        "ClassifyingReport": classifying_fiber_equiv(group, base),
        "CoveringFamily": cover,
        "GeneratedSieve": GeneratedSieve(cover),
        "DescentDatum": restrict_to_datum(obj, cover),
        "GluingCase": GluingCase(cover, obj, obj, ()),
        "ClassifyTask": ClassifyTask(group, base),
    }


NAMES = list(_records())
UNHASHABLE = {"DescentDatum"}   # its overlaps field is a read-only mapping


def _fields(x) -> tuple:
    return tuple(getattr(x, f) for f in type(x).__match_args__)


@pytest.mark.parametrize("name", NAMES)
def test_equality_only_within_one_class(name):
    x = _records()[name]
    cls = type(x)
    assert cls.__name__ == name
    twin = cls(*_fields(x))
    assert twin is not x and twin == x and not twin != x
    assert _records()[name] == x
    assert x != _fields(x)
    assert x.__eq__(_fields(x)) is NotImplemented
    sub = type("Sub" + name, (cls,), {})(*_fields(x))
    assert sub != x and x != sub
    others = [y for other, y in _records().items() if other != name]
    assert all(x != y for y in others)


@pytest.mark.parametrize("name", sorted(set(NAMES) - UNHASHABLE))
def test_hash_is_the_field_tuple_hash(name):
    x = _records()[name]
    assert hash(x) == hash(_fields(x))
    assert x._hash == hash(_fields(x))
    assert hash(type(x)(*_fields(x))) == hash(x)


@pytest.mark.parametrize("name", NAMES)
def test_no_field_holds_a_mutable_container(name):
    # frozen all the way down: a field cannot be assigned, and what it holds
    # cannot be changed in place either
    x = _records()[name]
    mutable = [f for f in type(x).__match_args__
               if isinstance(getattr(x, f), (dict, list, set))]
    assert mutable == []


def test_a_record_with_an_unhashable_field_is_unhashable():
    datum = _records()["DescentDatum"]
    with pytest.raises(TypeError):
        hash(datum)


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    x = _records()[name]
    before = _fields(x)
    for f in type(x).__match_args__:
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert _fields(x) == before


@pytest.mark.parametrize("name", NAMES)
def test_copy_after_hashing(name):
    x = _records()[name]
    if name not in UNHASHABLE:
        hash(x)
    y = copy.copy(x)
    assert y is not x and y == x and _fields(y) == _fields(x)
    if name not in UNHASHABLE:
        assert hash(y) == hash(x)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_rebuild_an_equal_record(name, clone):
    # a FinSet, a FinMap and a DescentDatum rebuild from their values, so
    # neither a set's keys-view index, nor the memo's weak references, nor
    # a datum's read-only mapping stops a copy or a pickle
    x = _records()[name]
    y = clone(x)
    assert type(y) is type(x) and y == x and repr(y) == repr(x)


@pytest.mark.parametrize("name", NAMES)
def test_match_args_name_the_fields_in_order(name):
    x = _records()[name]
    cls = type(x)
    names = cls.__match_args__
    assert isinstance(names, tuple) and names
    match x:
        case cls(first):
            assert first is getattr(x, names[0])
        case _:
            pytest.fail("the class pattern did not match")


# the strings the frozen dataclasses printed for these records
REPRS = {
    "NotTrivial": "NotTrivial(leg_index=1)",
    "NotBundle": "NotBundle(base_atom='p', reason='fiber is not a torsor')",
    "Trivialization": (
        "Trivialization(cover=CoveringFamily(target={p}, legs=(FinMap(*->p : {*} -> {p}),)), "
        "legs=(TrivLeg(leg_index=0, cert=PullbackCert(apex={((0,p),*) ((1,p),*)}, "
        "proj1=FinMap(((0,p),*)->(0,p) ((1,p),*)->(1,p) : {((0,p),*) ((1,p),*)} -> "
        "{(0,p) (1,p)}), proj2=FinMap(((0,p),*)->* ((1,p),*)->* : {((0,p),*) ((1,p),*)} "
        "-> {*}), f=FinMap((0,p)->p (1,p)->p : {(0,p) (1,p)} -> {p}), "
        "g=FinMap(*->p : {*} -> {p})), phi=FinMap(((0,p),*)->(0,*) ((1,p),*)->(1,*) : "
        "{((0,p),*) ((1,p),*)} -> {(0,*) (1,*)})),))"),
    "CoherenceCell": (
        "CoherenceCell(kind='iota', components=(QSMorphism(QSObject(|2| over {p}) => "
        "QSObject(|2| over {p})),), naturality_squares=0)"),
    "ClassifyingReport": (
        "ClassifyingReport(n_bundles=1, iso_classes=1, aut_trivial=2)"),
    "GeneratedSieve": (
        "GeneratedSieve(family=CoveringFamily(target={p}, legs=(FinMap(*->p : {*} -> {p}),)))"),
    "GluingCase": (
        "GluingCase(cover=CoveringFamily(target={p}, legs=(FinMap(*->p : {*} -> {p}),)), "
        "src=QSObject(|2| over {p}), dst=QSObject(|2| over {p}), locals_=())"),
    "ClassifyTask": "ClassifyTask(group=FinGroup({0 1}), base={p})",
    "QuotientStack": (
        "QuotientStack(group=FinGroup({0 1}), x_action=GAction(FinGroup({0 1}) on {*}))"),
    "CoveringFamily": "CoveringFamily(target={p}, legs=(FinMap(*->p : {*} -> {p}),))",
    "DescentDatum": (
        "DescentDatum(cover=CoveringFamily(target={p}, legs=(FinMap(*->p : {*} -> {p}),)), "
        "objects=(QSObject(|2| over {*}),), overlaps={(0, 0): "
        "QSMorphism(QSObject(|2| over {(*,*)}) => QSObject(|2| over {(*,*)}))})"),
}


@pytest.mark.parametrize("name", list(REPRS))
def test_repr_is_the_dataclass_string(name):
    assert repr(_records()[name]) == REPRS[name]


def test_mutable_defaults_are_fresh_per_instance():
    r, s = ConditionReport("gluing"), ConditionReport("gluing")
    assert (r.name, r.attempted, r.passed, r.failures) == ("gluing", 0, 0, [])
    r.failures.append("x")
    assert s.failures == []


@pytest.mark.parametrize("name", NAMES)
def test_a_wrong_number_of_values_raises_type_error(name):
    x = _records()[name]
    values = _fields(x)
    with pytest.raises(TypeError):
        type(x)(*values[:-1])
    with pytest.raises(TypeError):
        type(x)(*values, None)


def test_only_a_validating_record_defines_init():
    def subclasses(cls):
        return {s for sub in cls.__subclasses__() for s in {sub} | subclasses(sub)}
    import finstack.cli  # noqa: F401 - loads every module that defines a record
    from finstack.finset import Record
    own = sorted(c.__name__ for c in subclasses(Record)
                 if "__init__" in vars(c) and c.__module__.startswith("finstack."))
    assert own == ["CoveringFamily", "DescentDatum"]
