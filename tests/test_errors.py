"""Every structured error pinned by its text, repr, args, payload and kind.

The golden file pins only the errors that the site fixtures raise; this table
builds each `FinstackError` subclass directly, so a change to how errors
declare their fields cannot move what a report or a traceback shows.
"""

import copy
import pickle

import pytest

from finstack import errors
from finstack.errors import (
    AssocFail,
    BaseMismatch,
    BoundExceeded,
    CocycleFail,
    CocycleRequired,
    CodomainMismatch,
    CoverNotCanonical,
    DanglingArrow,
    EquivarianceFail,
    FinstackError,
    MissingOverlapIso,
    NoInverse,
    NotAssociative,
    NotCoequalized,
    NoUnit,
    OverlapMismatch,
    ShapeMismatch,
    SiteSyntaxError,
    SquareNotCommuting,
    SrcDstMismatch,
    SrcMismatch,
    TargetMismatch,
    TriangleFail,
    UnitFail,
    UnknownCommand,
    UnresolvedReference,
    ValidationError,
)

# (class, arguments, str, repr, payload); args is always (str,)
TABLE = [
    (SrcDstMismatch, ("cannot compose: {0 1} != {p}",),
     "cannot compose: {0 1} != {p}",
     "SrcDstMismatch('cannot compose: {0 1} != {p}')",
     {}),
    (CodomainMismatch, ("{p} != {p q}",),
     "{p} != {p q}",
     "CodomainMismatch('{p} != {p q}')",
     {}),
    (SrcMismatch, ("{*} != {0 1}",),
     "{*} != {0 1}",
     "SrcMismatch('{*} != {0 1}')",
     {}),
    (SquareNotCommuting, (("p", 0), "q", "r"),
     "square does not commute at ('p', 0): 'q' != 'r'",
     "SquareNotCommuting(\"square does not commute at ('p', 0): 'q' != 'r'\")",
     {"point": ("p", 0), "left": "q", "right": "r"}),
    (ShapeMismatch, ("coequalizer needs a parallel pair",),
     "coequalizer needs a parallel pair",
     "ShapeMismatch('coequalizer needs a parallel pair')",
     {}),
    (NotCoequalized, (2, 0, 1),
     "map does not coequalize at 2: 0 != 1",
     "NotCoequalized('map does not coequalize at 2: 0 != 1')",
     {"point": 2, "left": 0, "right": 1}),
    (DanglingArrow, ("arrow endpoints (0,3) out of range",),
     "arrow endpoints (0,3) out of range",
     "DanglingArrow('arrow endpoints (0,3) out of range')",
     {}),
    (NotAssociative, (0, 1, 2),
     "(a*b)*c != a*(b*c) at a=0 b=1 c=2",
     "NotAssociative('(a*b)*c != a*(b*c) at a=0 b=1 c=2')",
     {"a": 0, "b": 1, "c": 2}),
    (NoUnit, (),
     "no two-sided unit in table",
     "NoUnit('no two-sided unit in table')",
     {}),
    (NoInverse, (1,),
     "no inverse for 1",
     "NoInverse('no inverse for 1')",
     {"a": 1}),
    (AssocFail, (1, 2, "p"),
     "action associativity fails at g=1 h=2 x='p'",
     "AssocFail(\"action associativity fails at g=1 h=2 x='p'\")",
     {"g": 1, "h": 2, "x": "p"}),
    (UnitFail, ("p",),
     "action unit law fails at x='p'",
     "UnitFail(\"action unit law fails at x='p'\")",
     {"x": "p"}),
    (EquivarianceFail, (1, (0, "p")),
     "equivariance fails at g=1 x=(0, 'p')",
     "EquivarianceFail(\"equivariance fails at g=1 x=(0, 'p')\")",
     {"g": 1, "x": (0, "p")}),
    (TargetMismatch, ("leg 0 has target {p}, expected {p q}",),
     "leg 0 has target {p}, expected {p q}",
     "TargetMismatch('leg 0 has target {p}, expected {p q}')",
     {}),
    (CoverNotCanonical, ("over {p q}",),
     "cover not canonical: over {p q}",
     "CoverNotCanonical('cover not canonical: over {p q}')",
     {"detail": "over {p q}"}),
    (BoundExceeded, ("bundle enumeration", 4096, 100),
     "bundle enumeration: size 4096 exceeds bound 100",
     "BoundExceeded('bundle enumeration: size 4096 exceeds bound 100')",
     {"what": "bundle enumeration", "size": 4096, "bound": 100}),
    (BaseMismatch, ("{p} != {q}",),
     "{p} != {q}",
     "BaseMismatch('{p} != {q}')",
     {}),
    (TriangleFail, (3, "trivialization-base"),
     "trivialization-base triangle fails at 3",
     "TriangleFail('trivialization-base triangle fails at 3')",
     {"point": 3, "which": "trivialization-base"}),
    (OverlapMismatch, (0, 1, ("p", (0, 1))),
     "locals disagree on overlap (0,1) at ('p', (0, 1))",
     "OverlapMismatch(\"locals disagree on overlap (0,1) at ('p', (0, 1))\")",
     {"i": 0, "j": 1, "point": ("p", (0, 1))}),
    (CocycleFail, (0, 1, 2, (("p", "q"), "r")),
     "cocycle fails on triple overlap (0,1,2) at (('p', 'q'), 'r')",
     "CocycleFail(\"cocycle fails on triple overlap (0,1,2) at (('p', 'q'), 'r')\")",
     {"i": 0, "j": 1, "k": 2, "point": (("p", "q"), "r")}),
    (CocycleRequired, (CocycleFail(0, 1, 2, "p"),),
     "datum rejected, cocycle violated: cocycle fails on triple overlap (0,1,2) at 'p'",
     "CocycleRequired(\"datum rejected, cocycle violated: "
     "cocycle fails on triple overlap (0,1,2) at 'p'\")",
     {"cause": {"i": 0, "j": 1, "k": 2, "point": "p"}}),
    (CocycleRequired, (ValueError("no overlap"),),
     "datum rejected, cocycle violated: no overlap",
     "CocycleRequired('datum rejected, cocycle violated: no overlap')",
     {"cause": "no overlap"}),
    (MissingOverlapIso, (0, 1),
     "no overlap iso supplied for (0,1) and none is forced",
     "MissingOverlapIso('no overlap iso supplied for (0,1) and none is forced')",
     {"i": 0, "j": 1}),
    (SiteSyntaxError, ("stray '-'", 3, 7),
     "3:7: stray '-'",
     "SiteSyntaxError(\"3:7: stray '-'\")",
     {"message": "stray '-'", "line": 3, "col": 7}),
    (UnresolvedReference, ("G", 2, 5),
     "2:5: unresolved reference 'G'",
     "UnresolvedReference(\"2:5: unresolved reference 'G'\")",
     {"name": "G", "line": 2, "col": 5}),
    (ValidationError, ("G", NoInverse(1)),
     "declaration 'G' invalid: no inverse for 1",
     "ValidationError(\"declaration 'G' invalid: no inverse for 1\")",
     {"decl": "G", "cause": "NoInverse", "witness": {"a": 1}}),
    (ValidationError, ("act", ValueError("the action does not match the group and space")),
     "declaration 'act' invalid: the action does not match the group and space",
     "ValidationError(\"declaration 'act' invalid: "
     "the action does not match the group and space\")",
     {"decl": "act", "cause": "ValueError", "witness": {}}),
    (UnknownCommand, ("frob",),
     "unknown command 'frob'",
     "UnknownCommand(\"unknown command 'frob'\")",
     {"name": "frob"}),
]

# errors that carry a free-form message rather than witness fields
MESSAGE_ONLY = {SrcDstMismatch, CodomainMismatch, SrcMismatch, ShapeMismatch,
                DanglingArrow, TargetMismatch, BaseMismatch}
FIXED = [(cls, args) for cls, args, *_ in TABLE if cls not in MESSAGE_ONLY]


def _subclasses(cls) -> set:
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | _subclasses(sub)
    return out


def test_the_table_covers_every_error_class():
    assert {row[0] for row in TABLE} == _subclasses(FinstackError)
    exported = {v for v in vars(errors).values()
                if isinstance(v, type) and issubclass(v, FinstackError)}
    assert exported == _subclasses(FinstackError) | {FinstackError}


@pytest.mark.parametrize("cls, args, text, rep, payload", TABLE,
                         ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(TABLE)])
def test_error_text_repr_args_payload_and_kind(cls, args, text, rep, payload):
    e = cls(*args)
    assert str(e) == text
    assert repr(e) == rep
    assert e.args == (text,)
    assert e.payload() == payload
    assert repr(e.payload()) == repr(payload)   # key order included
    assert e.kind() == cls.__name__
    assert isinstance(e, FinstackError) and isinstance(e, Exception)


@pytest.mark.parametrize("cls, args, text, rep, payload", TABLE,
                         ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(TABLE)])
@pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy],
                         ids=["pickle", "copy"])
def test_error_survives_pickle_and_copy(clone, cls, args, text, rep, payload):
    # a witness error rebuilds from its field values, a free-message error
    # from its message
    e = clone(cls(*args))
    assert type(e) is cls
    assert str(e) == text
    assert repr(e) == rep
    assert e.args == (text,)
    assert e.payload() == payload


@pytest.mark.parametrize("cls, args", FIXED, ids=[cls.__name__ for cls, _ in FIXED])
def test_an_extra_argument_raises_type_error(cls, args):
    with pytest.raises(TypeError):
        cls(*args, "extra")


@pytest.mark.parametrize("cls, args", [(c, a) for c, a in FIXED if a],
                         ids=[cls.__name__ for cls, a in FIXED if a])
def test_a_missing_argument_raises_type_error(cls, args):
    with pytest.raises(TypeError):
        cls(*args[:-1])


def test_errors_declare_fields_not_constructors():
    # each error names its witness fields once; FinstackError builds and
    # reports them, and only the errors that nest a cause shape their payload
    subs = _subclasses(FinstackError)
    assert [c for c in subs if "__init__" in vars(c)] == []
    assert sorted(c.__name__ for c in subs if "payload" in vars(c)) == [
        "CocycleRequired", "ValidationError"]
    for cls in subs:
        assert cls.template is not None or not cls.fields, cls.__name__
