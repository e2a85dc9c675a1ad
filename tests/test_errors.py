"""Every structured error pinned by its text, repr, args, payload and kind.

The golden file pins only the errors that the site fixtures raise; this table
builds each `FinstackError` subclass directly, so a change to how errors
declare their fields cannot move what a report or a traceback shows.

A caller's mismatched arguments are no witness: they raise `ValueError`, and
the last table pins each such message where the library raises it.
"""

import copy
import pickle

import pytest

from finstack import (
    CoveringFamily,
    FinMap,
    FinSet,
    check_bundle_morphism,
    check_qs_object,
    coequalizer,
    coherence_iota,
    colimit_of_diagram,
    compose,
    copair,
    coproduct,
    enumerate_bundle_morphisms,
    epsilon_component,
    errors,
    identity,
    is_locally_trivial,
    mediate_coequalizer,
    point_cover,
    pullback,
    pullback_bundle,
    pullback_family,
    restrict,
    terminal,
    trivial_action,
    trivial_bundle,
    zmod,
)
from finstack.errors import (
    AssocFail,
    BoundExceeded,
    CocycleFail,
    CocycleRequired,
    CoverNotCanonical,
    EquivarianceFail,
    FinstackError,
    MissingOverlapIso,
    NoInverse,
    NotAssociative,
    NotCoequalized,
    NoUnit,
    OverlapMismatch,
    SiteSyntaxError,
    SquareNotCommuting,
    TriangleFail,
    UnitFail,
    UnknownCommand,
    UnresolvedReference,
    ValidationError,
)

# (row, class, arguments, str, repr, payload); args is always (str,). The
# row number names the row's tests and stays fixed when a row is removed, so
# no other test changes its name
TABLE = [
    (3, SquareNotCommuting, (("p", 0), "q", "r"),
     "square does not commute at ('p', 0): 'q' != 'r'",
     "SquareNotCommuting(\"square does not commute at ('p', 0): 'q' != 'r'\")",
     {"point": ("p", 0), "left": "q", "right": "r"}),
    (5, NotCoequalized, (2, 0, 1),
     "map does not coequalize at 2: 0 != 1",
     "NotCoequalized('map does not coequalize at 2: 0 != 1')",
     {"point": 2, "left": 0, "right": 1}),
    (7, NotAssociative, (0, 1, 2),
     "(a*b)*c != a*(b*c) at a=0 b=1 c=2",
     "NotAssociative('(a*b)*c != a*(b*c) at a=0 b=1 c=2')",
     {"a": 0, "b": 1, "c": 2}),
    (8, NoUnit, (),
     "no two-sided unit in table",
     "NoUnit('no two-sided unit in table')",
     {}),
    (9, NoInverse, (1,),
     "no inverse for 1",
     "NoInverse('no inverse for 1')",
     {"a": 1}),
    (10, AssocFail, (1, 2, "p"),
     "action associativity fails at g=1 h=2 x='p'",
     "AssocFail(\"action associativity fails at g=1 h=2 x='p'\")",
     {"g": 1, "h": 2, "x": "p"}),
    (11, UnitFail, ("p",),
     "action unit law fails at x='p'",
     "UnitFail(\"action unit law fails at x='p'\")",
     {"x": "p"}),
    (12, EquivarianceFail, (1, (0, "p")),
     "equivariance fails at g=1 x=(0, 'p')",
     "EquivarianceFail(\"equivariance fails at g=1 x=(0, 'p')\")",
     {"g": 1, "x": (0, "p")}),
    (14, CoverNotCanonical, ("over {p q}",),
     "cover not canonical: over {p q}",
     "CoverNotCanonical('cover not canonical: over {p q}')",
     {"detail": "over {p q}"}),
    (15, BoundExceeded, ("bundle enumeration", 4096, 100),
     "bundle enumeration: size 4096 exceeds bound 100",
     "BoundExceeded('bundle enumeration: size 4096 exceeds bound 100')",
     {"what": "bundle enumeration", "size": 4096, "bound": 100}),
    (17, TriangleFail, (3, "trivialization-base"),
     "trivialization-base triangle fails at 3",
     "TriangleFail('trivialization-base triangle fails at 3')",
     {"point": 3, "which": "trivialization-base"}),
    (18, OverlapMismatch, (0, 1, ("p", (0, 1))),
     "locals disagree on overlap (0,1) at ('p', (0, 1))",
     "OverlapMismatch(\"locals disagree on overlap (0,1) at ('p', (0, 1))\")",
     {"i": 0, "j": 1, "point": ("p", (0, 1))}),
    (19, CocycleFail, (0, 1, 2, (("p", "q"), "r")),
     "cocycle fails on triple overlap (0,1,2) at (('p', 'q'), 'r')",
     "CocycleFail(\"cocycle fails on triple overlap (0,1,2) at (('p', 'q'), 'r')\")",
     {"i": 0, "j": 1, "k": 2, "point": (("p", "q"), "r")}),
    (20, CocycleRequired, (CocycleFail(0, 1, 2, "p"),),
     "datum rejected, cocycle violated: cocycle fails on triple overlap (0,1,2) at 'p'",
     "CocycleRequired(\"datum rejected, cocycle violated: "
     "cocycle fails on triple overlap (0,1,2) at 'p'\")",
     {"cause": {"i": 0, "j": 1, "k": 2, "point": "p"}}),
    (21, CocycleRequired, (ValueError("no overlap"),),
     "datum rejected, cocycle violated: no overlap",
     "CocycleRequired('datum rejected, cocycle violated: no overlap')",
     {"cause": "no overlap"}),
    (22, MissingOverlapIso, (0, 1),
     "no overlap iso supplied for (0,1) and none is forced",
     "MissingOverlapIso('no overlap iso supplied for (0,1) and none is forced')",
     {"i": 0, "j": 1}),
    (23, SiteSyntaxError, ("stray '-'", 3, 7),
     "3:7: stray '-'",
     "SiteSyntaxError(\"3:7: stray '-'\")",
     {"message": "stray '-'", "line": 3, "col": 7}),
    (24, UnresolvedReference, ("G", 2, 5),
     "2:5: unresolved reference 'G'",
     "UnresolvedReference(\"2:5: unresolved reference 'G'\")",
     {"name": "G", "line": 2, "col": 5}),
    (25, ValidationError, ("G", NoInverse(1)),
     "declaration 'G' invalid: no inverse for 1",
     "ValidationError(\"declaration 'G' invalid: no inverse for 1\")",
     {"decl": "G", "cause": "NoInverse", "witness": {"a": 1}}),
    (26, ValidationError, ("act", ValueError("the action does not match the group and space")),
     "declaration 'act' invalid: the action does not match the group and space",
     "ValidationError(\"declaration 'act' invalid: "
     "the action does not match the group and space\")",
     {"decl": "act", "cause": "ValueError", "witness": {}}),
    (27, UnknownCommand, ("frob",),
     "unknown command 'frob'",
     "UnknownCommand(\"unknown command 'frob'\")",
     {"name": "frob"}),
]

CASES = [row[1:] for row in TABLE]
IDS = [f"{row[1].__name__}-{row[0]}" for row in TABLE]
ARGS = [(cls, args) for cls, args, *_ in CASES]


def _subclasses(cls) -> set:
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | _subclasses(sub)
    return out


def test_the_table_covers_every_error_class():
    assert {cls for cls, *_ in CASES} == _subclasses(FinstackError)
    exported = {v for v in vars(errors).values()
                if isinstance(v, type) and issubclass(v, FinstackError)}
    assert exported == _subclasses(FinstackError) | {FinstackError}


@pytest.mark.parametrize("cls, args, text, rep, payload", CASES, ids=IDS)
def test_error_text_repr_args_payload_and_kind(cls, args, text, rep, payload):
    e = cls(*args)
    assert str(e) == text
    assert repr(e) == rep
    assert e.args == (text,)
    assert e.payload() == payload
    assert repr(e.payload()) == repr(payload)   # key order included
    assert e.kind() == cls.__name__
    assert isinstance(e, FinstackError) and isinstance(e, Exception)


@pytest.mark.parametrize("cls, args, text, rep, payload", CASES, ids=IDS)
@pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy],
                         ids=["pickle", "copy"])
def test_error_survives_pickle_and_copy(clone, cls, args, text, rep, payload):
    # an error rebuilds from its field values
    e = clone(cls(*args))
    assert type(e) is cls
    assert str(e) == text
    assert repr(e) == rep
    assert e.args == (text,)
    assert e.payload() == payload


@pytest.mark.parametrize("cls, args", ARGS, ids=[cls.__name__ for cls, _ in ARGS])
def test_an_extra_argument_raises_type_error(cls, args):
    with pytest.raises(TypeError):
        cls(*args, "extra")


@pytest.mark.parametrize("cls, args", [(c, a) for c, a in ARGS if a],
                         ids=[cls.__name__ for cls, a in ARGS if a])
def test_a_missing_argument_raises_type_error(cls, args):
    with pytest.raises(TypeError):
        cls(*args[:-1])


def test_errors_declare_fields_not_constructors():
    # each error names its witness fields once and formats its message over
    # them; FinstackError builds and reports them, and only the errors that
    # nest a cause shape their payload
    subs = _subclasses(FinstackError)
    assert [c for c in subs if "__init__" in vars(c)] == []
    assert sorted(c.__name__ for c in subs if "payload" in vars(c)) == [
        "CocycleRequired", "ValidationError"]
    for cls in subs:
        assert cls.template is not None, cls.__name__


# ------------------------------------------------------ mismatched arguments

P, Q = FinSet(("p",)), FinSet(("q",))
Z2 = zmod(2)


def object_over(base):
    """The trivial object of [pt/Z2] over base."""
    x = trivial_action(Z2, terminal())
    b = trivial_bundle(Z2, base)
    return check_qs_object(b, FinMap(b.total.space, x.space, {t: "*" for t in b.total.space}), x)


# (raise site, call, message)
MISMATCHES = [
    ("finset.compose", lambda: compose(identity(P), identity(Q)),
     "cannot compose: {q} != {p}"),
    ("finset.pullback_along", lambda: pullback(identity(P), identity(Q)),
     "{p} != {q}"),
    ("finset.copair-target", lambda: copair(coproduct([P]), [identity(P)], Q),
     "part 0 lands in {p}, expected {q}"),
    ("finset.copair-source", lambda: copair(coproduct([P]), [FinMap(Q, P, {"q": "p"})]),
     "part 0 has source {q}, expected {p}"),
    ("finset.coequalizer", lambda: coequalizer(identity(P), FinMap(Q, P, {"q": "p"})),
     "coequalizer needs a parallel pair"),
    ("finset.mediate_coequalizer",
     lambda: mediate_coequalizer(coequalizer(identity(P), identity(P)), identity(Q)),
     "{q} != {p}"),
    ("finset.colimit_of_diagram-endpoints",
     lambda: colimit_of_diagram([P], [(0, 1, identity(P))]),
     "arrow endpoints (0,1) out of range"),
    ("finset.colimit_of_diagram-table",
     lambda: colimit_of_diagram([P, Q], [(0, 1, identity(P))]),
     "arrow (0,1) table does not match its endpoints"),
    ("topology.CoveringFamily", lambda: CoveringFamily(Q, [identity(P)]),
     "leg 0 has target {p}, expected {q}"),
    ("topology.pullback_family", lambda: pullback_family(point_cover(Q), identity(P)),
     "{p} != {q}"),
    ("bundle.is_locally_trivial",
     lambda: is_locally_trivial(trivial_bundle(Z2, P).proj, point_cover(Q)),
     "cover target {q} != base {p}"),
    ("bundle.pullback_bundle", lambda: pullback_bundle(trivial_bundle(Z2, P), identity(Q)),
     "{q} != {p}"),
    ("bundle.check_bundle_morphism",
     lambda: check_bundle_morphism(trivial_bundle(Z2, P), trivial_bundle(Z2, Q), identity(P)),
     "{p} != {q}"),
    ("bundle.enumerate_bundle_morphisms",
     lambda: enumerate_bundle_morphisms(trivial_bundle(Z2, P), trivial_bundle(Z2, Q)),
     "{p} != {q}"),
    ("stack.restrict", lambda: restrict(object_over(P), identity(Q)),
     "{q} != {p}"),
    ("stack.epsilon_component",
     lambda: epsilon_component(object_over(P), identity(Q), identity(Q)),
     "maps are not composable under the object's base"),
    ("stack.coherence_iota", lambda: coherence_iota(Q, [object_over(P)]),
     "object over {p}, expected {q}"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in MISMATCHES],
                         ids=[row[0] for row in MISMATCHES])
def test_mismatched_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
