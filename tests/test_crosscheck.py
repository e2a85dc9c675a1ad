"""Cross-checking: base change, restriction, restriction to a datum,
gluing, restricted morphisms, the ι/ε components, the model and regular
actions, the trivial model, the enumerated and the relabelled bundles, the
enumerated bundle morphisms and the kernel maps are built by their formulas
without re-running their certifiers; with
`CrossCheck.on` each re-runs its certifier on what it built, so a wrong
formula is an internal fault, and `desc --cross-check` also runs the
deciders' definitional oracles. A base change's action table is deferred:
with the switch off it is built only when something reads it.

A wrong formula is planted by rebinding a module's `exact_map`, through
which those constructions build their tables (a deferred table too, when
it is read), to one that rewrites each table first."""

import json
import sys
import tempfile
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from random import Random

import pytest

import finstack.action
import finstack.bundle
import finstack.cli
import finstack.descent
import finstack.finset
import finstack.sample
import finstack.stack
from finstack import (
    BoundExceeded,
    CocycleFail,
    CoveringFamily,
    FinMap,
    FinSet,
    NotTrivial,
    check_cocycle,
    check_qs_object,
    classifying_fiber_equiv,
    compose,
    compose_qs,
    enumerate_bundles,
    epsilon_component,
    glue_morphisms,
    glue_object,
    identity,
    iota_component,
    klein_four,
    point_cover,
    product,
    pullback,
    pullback_bundle,
    qs_identity,
    qs_inverse,
    qs_isomorphism,
    regular_action,
    restrict,
    restrict_morphism,
    restrict_to_datum,
    sym,
    trivial_action,
    trivial_bundle,
    zmod,
)
from finstack.cli import main
from finstack.finset import (
    CrossCheck,
    Tag,
    bang,
    cross_check,
    deferred_map,
    exact_map,
    fibers,
    product_space,
    terminal,
)
from finstack.sample import (
    break_cocycle,
    build_corpus,
    random_cover,
    random_qsobject,
    relabel_qsobject,
    twist_bundle,
)
from finstack.stack import (
    classify_by_enumeration,
    classify_enumeration_cost,
    formula_morphism,
)
from finstack.topology import sheaf_condition_by_enumeration

SITES = Path(__file__).resolve().parent.parent / "sites"

# the classifying stack's demo with the structure space G under its
# regular action instead of a point, so a restriction's alpha can fail
# equivariance
REGULAR_SITE = """\
set Y = { 0 1 }
group G {
  elements { 0 1 }
  table [
    [ 0 1 ]
    [ 1 0 ]
  ]
}
action R { group G space G regular }
stack S { group G space G action R }
bundle B { trivial group G base Y }
map A : B_total -> G = { (0,0) -> 0  (0,1) -> 0  (1,0) -> 1  (1,1) -> 1 }
qsobject O { stack S bundle B alpha A }
cover C { target Y points }
datum D = restrict O over C
"""


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def plant(monkeypatch, module, rewrite):
    """A wrong formula in `module`: every table its constructions build
    passes through rewrite(src, dst, table) before it becomes a map."""
    real = finstack.finset.exact_map
    monkeypatch.setattr(module, "exact_map",
                        lambda src, dst, table: real(src, dst, rewrite(src, dst, table)))


def inverse_action(group):
    """h·(p, z) = (h⁻¹·p, z) in place of (h·p, z): lawful for an abelian
    group, not for S3."""
    return lambda src, dst, t: {(h, pz): t[(group.inv_of(h), pz)] for h, pz in t}


def frozen_action(src, dst, t):
    """h·(p, z) = (p, z): an action, but its fibers are not free."""
    return {(h, pz): pz for h, pz in t}


def constant_table(src, dst, t):
    """Every point to the least target atom."""
    return dict.fromkeys(t, dst.elements[0])


def collapse_nonunit(group):
    """σ(g) for g other than the unit sends everything to the least atom."""
    e = group.unit_atom
    return lambda src, dst, t: {k: v if k[0] == e else dst.elements[0]
                                for k, v in t.items()}


def drop_last(src, dst, t):
    """The table without its last key."""
    return dict(list(t.items())[:-1])


def regular_object(group, base):
    """The trivial bundle over base with alpha (h, y) ↦ h into G acting on
    itself."""
    b = trivial_bundle(group, base)
    x = regular_action(group)
    return check_qs_object(
        b, FinMap(b.total.space, x.space, {hy: hy[0] for hy in b.total.space}), x)


# ------------------------------------------------- planted wrong formulas ---

def base_change(group, base):
    b = trivial_bundle(group, base)
    return lambda: pullback_bundle(b, identity(base))


def restriction(group, base):
    obj = regular_object(group, base)
    return lambda: restrict(obj, identity(base))


def restricted_datum(group, base):
    obj = regular_object(group, base)
    cover = point_cover(base)
    return lambda: restrict_to_datum(obj, cover)


def gluing(group, base):
    datum = restrict_to_datum(regular_object(group, base), point_cover(base))
    return lambda: glue_object(datum)


def into_glued(rewrite):
    """rewrite, applied only to the table into the glued total, whose atoms
    are Tag(leg, point): the glued action."""
    return lambda src, dst, t: (rewrite(src, dst, t)
                                if isinstance(dst.elements[0], Tag) else t)


def on_comparisons(rewrite):
    """rewrite, applied only to the tables out of a glued total restricted
    to a leg, whose atoms are (Tag(leg, point), a): the comparisons ψ_j."""
    return lambda src, dst, t: (rewrite(src, dst, t)
                                if isinstance(src.elements[0][0], Tag) else t)


def restricted_morphism(group, base):
    # the restriction it reads is built before the formula is planted, so
    # only the morphism's own table is rewritten; the memo holds a result
    # only while someone else does, so the construction holds it
    obj = regular_object(group, base)
    f = identity(base)
    restricted = restrict(obj, f)
    m = qs_identity(obj)
    return lambda restricted=restricted: restrict_morphism(m, f)


def iso_in_a_fiber(group, base):
    obj = regular_object(group, base)
    return lambda: qs_isomorphism(obj, obj)


def enumerated_bundles(group, base):
    return lambda: list(enumerate_bundles(group, base))


PLANTED = {
    # name: (module, rewrite for the group, the construction for (group, base),
    #        group, what the cross-check raises)
    "base change by h⁻¹": (finstack.bundle, inverse_action, base_change, sym(3),
                           "of a base change failed: action associativity fails"),
    "base change frozen": (finstack.bundle, lambda g: frozen_action, base_change, zmod(2),
                           "of a base change failed: a constructed projection is not a bundle"),
    "restriction's alpha constant": (finstack.stack, lambda g: constant_table, restriction,
                                     zmod(2), "of a restriction failed: equivariance fails"),
    "trivial action": (finstack.action, collapse_nonunit,
                       lambda g, base: lambda: trivial_action(g, base), zmod(2),
                       "of the trivial action failed: action associativity fails"),
    "trivialized model action": (
        finstack.action, collapse_nonunit,
        lambda g, base: lambda: finstack.product_action(g, base), zmod(3),
        "of the trivialized model action failed: action associativity fails"),
    "overlap iso constant": (finstack.descent, lambda g: constant_table, restricted_datum,
                             zmod(2), "of an overlap iso failed: equivariance fails"),
    "restricted morphism constant": (finstack.stack, lambda g: constant_table,
                                     restricted_morphism, zmod(2),
                                     "of a restricted morphism failed: proj triangle fails"),
    "glued action collapsed": (finstack.descent, lambda g: into_glued(collapse_nonunit(g)),
                               gluing, zmod(2),
                               "of a glued bundle failed: action associativity fails"),
    "comparison constant": (finstack.descent, lambda g: on_comparisons(constant_table),
                            gluing, zmod(2),
                            "of a comparison iso failed: a canonical iso is not a bijection"),
    "iso in a fiber constant": (finstack.bundle, lambda g: constant_table, iso_in_a_fiber,
                                zmod(2), "of an iso in a fiber failed: "
                                         "a canonical iso is not a bijection"),
    "enumerated bundle collapsed": (finstack.bundle, collapse_nonunit, enumerated_bundles,
                                    zmod(3), "of an enumerated bundle failed: "
                                             "action associativity fails"),
    "relabelled bundle collapsed": (
        finstack.sample, collapse_nonunit,
        lambda g, base: lambda: twist_bundle(Random(1), trivial_bundle(g, base)), zmod(3),
        "of a relabelled bundle failed: action associativity fails"),
    # a lawful action on G×X, but not free: only the bundle's own re-run sees it
    "trivialized model bundle frozen": (
        finstack.action, lambda g: frozen_action,
        lambda g, base: lambda: trivial_bundle(g, base), zmod(2),
        "of the trivialized model bundle failed: a constructed projection is not a bundle"),
}


@pytest.mark.needs_cross_check
@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_construction_is_an_internal_fault(monkeypatch, name):
    module, rewrite, construction, group, message = PLANTED[name]
    build = construction(group, FinSet(("p", "q")))
    plant(monkeypatch, module, rewrite(group))
    with pytest.raises(RuntimeError, match="cross-check " + message):
        build()
    # the hot path skips that certifier: the wrong value goes through
    monkeypatch.setattr(CrossCheck, "on", False)
    build()


# ------------------------------------------------------------ the cocycle ---

def never_fails(datum):
    """A planted cocycle decider that passes every datum."""
    return None


@pytest.mark.needs_cross_check
def test_planted_cocycle_decider_is_an_internal_fault(monkeypatch):
    group = zmod(2)
    b = trivial_bundle(group, FinSet(("p", "q")))
    obj = check_qs_object(b, bang(b.total.space), trivial_action(group, terminal()))
    bad = break_cocycle(restrict_to_datum(obj, point_cover(obj.base)), 1)
    with pytest.raises(CocycleFail):
        check_cocycle(bad)
    monkeypatch.setattr(finstack.descent, "cocycle_on_one_point", never_fails)
    with pytest.raises(RuntimeError, match="cross-check of the cocycle on one point per "
                                           "fiber disagrees"):
        check_cocycle(bad)
    # the hot path trusts the decider: the broken datum passes silently
    monkeypatch.setattr(CrossCheck, "on", False)
    check_cocycle(bad)


@pytest.mark.needs_cross_check
def test_glued_points_out_of_order_are_an_internal_fault(monkeypatch):
    # glue_object emits its points already in canonical order and skips the
    # sort; under cross-check the sorted set must equal them
    build = gluing(zmod(2), FinSet(("p", "q")))
    real = FinSet._ordered.__func__

    def reversed_tags(cls, elems):
        tags = isinstance(elems, list) and elems and isinstance(elems[0], Tag)
        return real(cls, elems[::-1] if tags else elems)

    monkeypatch.setattr(FinSet, "_ordered", classmethod(reversed_tags))
    with pytest.raises(RuntimeError, match="cross-check of the glued points disagrees"):
        build()
    monkeypatch.setattr(CrossCheck, "on", False)
    total = build().glued.total
    assert list(total) == sorted(total, key=finstack.finset.atom_key)[::-1]


KERNEL_MAPS = {
    "identity": lambda f, idb: identity(f.src),
    "compose": lambda f, idb: compose(idb, f),
    "product projections": lambda f, idb: product(f.src, f.dst),
    "pullback projections": lambda f, idb: pullback(f, idb),
}


@pytest.mark.needs_cross_check
@pytest.mark.parametrize("name", sorted(KERNEL_MAPS))
def test_planted_kernel_map_is_an_internal_fault(monkeypatch, name):
    a, b = FinSet(("a0", "a1", "a2")), FinSet(("b0", "b1"))
    f, idb = FinMap(a, b, {x: "b0" for x in a}), FinMap(b, b, {x: x for x in b})
    plant(monkeypatch, finstack.finset, drop_last)
    with pytest.raises(RuntimeError, match="cross-check of a constructed table failed: "
                                           "table keys must be exactly the source atoms"):
        KERNEL_MAPS[name](f, idb)
    monkeypatch.setattr(CrossCheck, "on", False)
    KERNEL_MAPS[name](f, idb)


def test_user_maps_are_checked_with_cross_check_off(monkeypatch):
    # input checks stay on the hot path; exact_map is for built tables
    monkeypatch.setattr(CrossCheck, "on", False)
    a = FinSet((0, 1))
    with pytest.raises(ValueError, match="exactly the source atoms"):
        FinMap(a, a, {0: 0})
    with pytest.raises(ValueError, match="not in target"):
        FinMap(a, a, {0: 0, 1: 2})
    assert exact_map(a, a, {0: 0}).table == {0: 0}


@pytest.mark.needs_cross_check
def test_cross_check_counts_and_raises():
    def boom():
        raise ValueError("boom")

    ran, agreed = CrossCheck.ran, CrossCheck.agreed
    cross_check("equal values", 1, lambda: 1)
    assert (CrossCheck.ran - ran, CrossCheck.agreed - agreed) == (1, 1)
    with pytest.raises(RuntimeError, match="cross-check of two values disagrees"):
        cross_check("two values", 1, lambda: 2)
    with pytest.raises(RuntimeError, match="cross-check of a failure failed: boom"):
        cross_check("a failure", 1, boom)
    assert (CrossCheck.ran - ran, CrossCheck.agreed - agreed) == (3, 1)


# ------------------------------------------------------ certifier call counts ---

CERTIFIERS = ("check_action", "is_principal_bundle", "check_qs_object",
              "constructed_bundle")


def count_calls(monkeypatch, names):
    """Wrap each named function at every finstack binding; returns the live
    call counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        orig = next(vars(m)[name] for n, m in sys.modules.items()
                    if n.startswith("finstack.") and name in vars(m))

        def wrapper(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for n, module in list(sys.modules.items()):
            if n.startswith("finstack.") and vars(module).get(name) is orig:
                monkeypatch.setattr(module, name, wrapper)
    return counts


def datum_inputs(seed):
    rng = Random(seed)
    s3 = sym(3)
    base = FinSet(("p", "q", "r"))
    obj = random_qsobject(rng, s3, regular_action(s3), base)
    cover = random_cover(rng, base, max_legs=3, max_extra=2)
    return obj, cover


def test_restrict_to_datum_runs_no_certifier_on_base_changes(monkeypatch):
    obj, cover = datum_inputs(7)
    monkeypatch.setattr(CrossCheck, "on", False)
    counts = count_calls(monkeypatch, CERTIFIERS)
    datum = restrict_to_datum(obj, cover)
    assert len(datum.objects) == len(cover.legs)
    assert counts == dict.fromkeys(CERTIFIERS, 0)
    # and cross-checking re-runs them on fresh inputs
    monkeypatch.setattr(CrossCheck, "on", True)
    restrict_to_datum(*datum_inputs(7))
    assert all(counts[name] > 0 for name in CERTIFIERS), counts


FORMULA_CERTIFIERS = ("check_qs_morphism", "check_cocycle", "make_datum")


def test_restrict_to_datum_runs_no_certifier_on_its_overlap_isos(monkeypatch):
    obj, cover = datum_inputs(7)
    monkeypatch.setattr(CrossCheck, "on", False)
    counts = count_calls(monkeypatch, FORMULA_CERTIFIERS)
    datum = restrict_to_datum(obj, cover)
    assert datum.overlaps
    assert counts == dict.fromkeys(FORMULA_CERTIFIERS, 0)
    # cross-checking re-runs each iso's certifier, the datum's shape checks
    # and its cocycle
    monkeypatch.setattr(CrossCheck, "on", True)
    restrict_to_datum(*datum_inputs(7))
    assert all(counts[name] > 0 for name in FORMULA_CERTIFIERS), counts


def test_restricted_morphisms_and_coherence_isos_run_no_certifier(monkeypatch):
    obj, cover = datum_inputs(7)
    m, f = qs_identity(obj), cover.legs[0]
    g = identity(f.src)

    def build():
        restrict_morphism(m, f)
        iota_component(obj)
        epsilon_component(obj, f, g)

    build()     # the restrictions they read, built and memoized
    monkeypatch.setattr(CrossCheck, "on", False)
    counts = count_calls(monkeypatch, ("check_qs_morphism",))
    build()
    assert counts == {"check_qs_morphism": 0}
    monkeypatch.setattr(CrossCheck, "on", True)
    build()
    assert counts["check_qs_morphism"] == 3


@pytest.mark.needs_cross_check
def test_non_bijective_coherence_iso_passes_with_cross_check_off(monkeypatch):
    # the bijection check of ι and ε runs only under cross-check
    obj, cover = datum_inputs(7)
    f = cover.legs[0]
    real = finstack.stack.formula_morphism
    monkeypatch.setattr(finstack.stack, "formula_morphism", lambda what, src, dst, fn, certify:
                        real(what, src, dst, FinMap(fn.src, fn.dst, dict.fromkeys(
                            fn.table, fn.dst.elements[0])), certify))
    with pytest.raises(RuntimeError, match="cross-check of an ι component failed: "
                                           "a canonical iso is not a bijection"):
        iota_component(obj)
    with pytest.raises(RuntimeError, match="cross-check of an ε component failed: "
                                           "a canonical iso is not a bijection"):
        epsilon_component(obj, f, identity(f.src))
    monkeypatch.setattr(CrossCheck, "on", False)
    assert len(set(iota_component(obj).fn.table.values())) == 1
    assert len(set(epsilon_component(obj, f, identity(f.src)).fn.table.values())) == 1


def test_cross_checked_restrictions_are_the_same(monkeypatch):
    # the same inputs built twice, once each way: equal objects and data
    on = restrict_to_datum(*datum_inputs(11))
    monkeypatch.setattr(CrossCheck, "on", False)
    off = restrict_to_datum(*datum_inputs(11))
    assert off == on
    assert [o.total.elements for o in off.objects] == [o.total.elements for o in on.objects]


def test_regular_action_runs_check_action_only_under_cross_check(monkeypatch):
    # left multiplication is lawful by the group's own axioms
    group = sym(3)
    counts = count_calls(monkeypatch, ("check_action",))
    monkeypatch.setattr(CrossCheck, "on", False)
    off = regular_action(group)
    assert counts == {"check_action": 0}
    monkeypatch.setattr(CrossCheck, "on", True)
    assert regular_action(group) == off
    assert counts == {"check_action": 1}


def test_enumerated_bundle_morphisms_are_certified_only_under_cross_check(monkeypatch):
    b = trivial_bundle(zmod(3), FinSet(("p", "q")))
    counts = count_calls(monkeypatch, ("check_bundle_morphism",))
    monkeypatch.setattr(CrossCheck, "on", False)
    off = finstack.bundle.enumerate_bundle_morphisms(b, b)
    assert len(off) == 9
    assert counts == {"check_bundle_morphism": 0}
    monkeypatch.setattr(CrossCheck, "on", True)
    assert finstack.bundle.enumerate_bundle_morphisms(b, b) == off
    assert counts == {"check_bundle_morphism": 9}


# Z/3 over two points: 4 bundles and 9 maps per hom set
Z3_CLASSIFY_SITE = """\
set Y = { p q }
group G {
  elements { 0 1 2 }
  table [
    [ 0 1 2 ]
    [ 1 2 0 ]
    [ 2 0 1 ]
  ]
}
classify K { group G base Y }
"""


def test_classify_certifies_no_enumerated_bundle_with_cross_check_off(
        capsys, tmp_path, monkeypatch, cross_check_by_flag):
    # each enumerated bundle and its object are lawful by their formulas;
    # only --cross-check runs the oracle that enumerates them
    site = tmp_path / "z3.site"
    site.write_text(Z3_CLASSIFY_SITE)
    names = ("check_action", "constructed_bundle", "check_qs_object")
    counts = count_calls(monkeypatch, names)
    off = run(capsys, "classify", site)
    assert off[0] == 0 and "(4 bundles, 1 classes, 9 automorphisms" in off[1]
    assert counts == dict.fromkeys(names, 0)
    assert run(capsys, "classify", site, "--cross-check") == off
    assert all(counts[name] >= 4 for name in names), counts


def test_classify_builds_no_object_of_the_classifying_stack_with_cross_check_off(
        capsys, tmp_path, monkeypatch, cross_check_by_flag):
    # the closed forms answer classify; the bundles, [T/G]'s objects (built
    # by no function but check_qs_object and formula_object, see
    # test_source) and its hom sets are its oracle's, which desc runs only
    # under --cross-check
    site = tmp_path / "z3.site"
    site.write_text(Z3_CLASSIFY_SITE)
    names = ("enumerate_bundles", "torsor_structures", "enumerate_bundle_morphisms",
             "formula_bundle", "check_qs_object", "formula_object")
    counts = count_calls(monkeypatch, names)
    off = run(capsys, "classify", site)
    assert off[0] == 0 and "(4 bundles, 1 classes, 9 automorphisms" in off[1]
    assert counts == dict.fromkeys(names, 0)
    report = tmp_path / "report.json"
    assert run(capsys, "classify", site, "--cross-check", "--report", report) == off
    # each of the 4 bundles built and certified as an object, the 3 x 3 hom
    # sets enumerated, and the trivial bundle and its automorphisms
    assert counts == {"enumerate_bundles": 1, "torsor_structures": 1,
                      "enumerate_bundle_morphisms": 9 + 1, "formula_bundle": 4 + 1,
                      "check_qs_object": 4, "formula_object": 0}
    tally = json.loads(report.read_text())["cross_checks"]
    assert tally["agreed"] == tally["ran"] > 0


CLASSIFIED_GROUPS = {"Z/1": zmod(1), "Z/2": zmod(2), "Z/3": zmod(3), "Z/4": zmod(4),
                     "Z/5": zmod(5), "V4": klein_four(), "S3": sym(3)}


@pytest.mark.needs_cross_check
@pytest.mark.parametrize("name", sorted(CLASSIFIED_GROUPS))
def test_classify_closed_forms_match_the_enumeration(name):
    # within desc's default bound the closed forms equal the oracle's
    # counts; past it the oracle refuses, and the closed forms still answer
    group, bound = CLASSIFIED_GROUPS[name], 4096
    counted = 0
    for size in range(4):
        base = FinSet(tuple(f"y{k}" for k in range(size)))
        closed = classifying_fiber_equiv(group, base)
        if classify_enumeration_cost(group, base) > bound:
            with pytest.raises(BoundExceeded) as refused:
                classify_by_enumeration(group, base, bound)
            assert refused.value.size > bound
            continue
        assert classify_by_enumeration(group, base, bound) == closed
        assert closed.iso_classes == 1
        counted += 1
    assert counted >= 2


def test_formula_morphism_builds_one_record(monkeypatch):
    # a morphism of [X/G] is its map: its endpoints fix its bundles and totals
    obj, obj2, m, cover = fiber_inputs()
    built = []
    init = finstack.finset.Record.__init__

    def counting(self, *values):
        built.append(type(self).__name__)
        init(self, *values)

    monkeypatch.setattr(CrossCheck, "on", False)
    monkeypatch.setattr(finstack.finset.Record, "__init__", counting)
    out = formula_morphism("a relabelling", obj, obj2, m.fn)
    monkeypatch.undo()
    assert built == ["QSMorphism"]
    assert out == m and out.fn is m.fn


def fiber_inputs():
    """An object, a relabelled copy with the iso onto it, and a cover."""
    obj, cover = datum_inputs(7)
    obj2, m = relabel_qsobject(Random(3), obj)
    return obj, obj2, m, cover


def desc_classify(text):
    """`desc classify` on a site given as text; it must pass."""
    with tempfile.TemporaryDirectory() as tmp:
        site = Path(tmp) / "k.site"
        site.write_text(text)
        with redirect_stdout(StringIO()):
            assert main(["classify", str(site)]) == 0


FORMULA_BUILT = {
    "qs_identity": lambda obj, obj2, m, cover: qs_identity(obj2),
    "compose_qs": lambda obj, obj2, m, cover: compose_qs(qs_identity(obj2), m),
    "qs_inverse": lambda obj, obj2, m, cover: qs_inverse(m),
    "glue_morphisms": lambda obj, obj2, m, cover: glue_morphisms(
        cover, obj, obj2, [restrict_morphism(m, f) for f in cover.legs]),
    # as desc runs it: the closed forms, and the oracle under cross-check
    "classifying_fiber_equiv": lambda *inputs: desc_classify(Z3_CLASSIFY_SITE),
    # a structure space of more than one point: no gauge, whose k is the
    # caller's, enters the corpus
    "build_corpus": lambda *inputs: list(build_corpus(
        sym(3), regular_action(sym(3)), Random(5), cases=3)),
    # a one-point structure space: the gauges and broken cocycles enter, and
    # each gauge is a morphism by its formula once its k keeps the alphas
    "build_corpus over the point": lambda *inputs: list(build_corpus(
        sym(3), trivial_action(sym(3), terminal()), Random(5), cases=3)),
}


@pytest.mark.parametrize("name", sorted(FORMULA_BUILT))
def test_formula_built_objects_and_morphisms_run_no_certifier(monkeypatch, name):
    # identities, composites, inverses, glued morphisms, the objects and
    # hom sets of [T/G] and the generated corpus are lawful by their formulas
    names = ("check_qs_morphism", "check_qs_object")
    inputs = fiber_inputs()
    counts = count_calls(monkeypatch, names)
    monkeypatch.setattr(CrossCheck, "on", False)
    FORMULA_BUILT[name](*inputs)
    assert counts == dict.fromkeys(names, 0)
    # cross-checking re-runs the certifiers, and each agrees
    monkeypatch.setattr(CrossCheck, "on", True)
    ran, agreed = CrossCheck.ran, CrossCheck.agreed
    FORMULA_BUILT[name](*inputs)
    assert sum(counts.values()) > 0
    assert CrossCheck.agreed - agreed == CrossCheck.ran - ran > 0


@pytest.mark.needs_cross_check
def test_planted_fiber_map_is_an_internal_fault(monkeypatch):
    # over a one-atom base, the map of every point to the least dst atom
    # lies over the base but is not equivariant
    b = trivial_bundle(zmod(2), FinSet(("p",)))
    monkeypatch.setattr(finstack.bundle, "fiber_map", lambda src, dst, image: FinMap(
        src.total.space, dst.total.space,
        dict.fromkeys(src.total.space, dst.total.space.elements[0])))
    with pytest.raises(RuntimeError, match="cross-check of a constructed bundle morphism "
                                           "failed"):
        finstack.bundle.enumerate_bundle_morphisms(b, b)
    monkeypatch.setattr(CrossCheck, "on", False)
    assert len(finstack.bundle.enumerate_bundle_morphisms(b, b)) == 2


# --------------------------------------------------- deferred base changes ---

def unbuilt(obj):
    """Whether obj's action table is still a thunk."""
    act = obj.bundle.total.act
    return isinstance(act, finstack.finset._DeferredMap) and act._build is not None


def test_restrict_to_datum_builds_no_table_for_its_overlap_objects(monkeypatch):
    monkeypatch.setattr(CrossCheck, "on", False)
    datum = restrict_to_datum(*datum_inputs(7))
    assert datum.overlaps
    for iso in datum.overlaps.values():
        assert unbuilt(iso.src) and unbuilt(iso.dst)


def test_restrict_to_datum_builds_no_alpha_or_base_action_for_its_overlap_objects(
        monkeypatch):
    # a restriction's alpha and its base's trivial action are deferred like
    # its action table, and looking an object up in the memo reads neither
    monkeypatch.setattr(CrossCheck, "on", False)
    datum = restrict_to_datum(*datum_inputs(7))
    assert datum.overlaps
    for iso in datum.overlaps.values():
        for obj in (iso.src, iso.dst):
            for table in (obj.alpha.map, obj.bundle.proj.dst_action.act):
                assert isinstance(table, finstack.finset._DeferredMap)
                assert table._build is not None


def test_gluing_a_restricted_datum_builds_no_table_for_its_locals(monkeypatch):
    # off, the chart reads the source's action and alpha, so each local's
    # deferred tables stay unbuilt, its comparisons read or not; a record
    # of the same datum built by hand reads the locals' own
    monkeypatch.setattr(CrossCheck, "on", False)
    datum = restrict_to_datum(*datum_inputs(7))
    result = glue_object(datum)
    assert len(list(result.comparisons)) == len(datum.objects)

    def built():
        return [(obj.bundle.total.act._build is None, obj.alpha.map._build is None)
                for obj in datum.objects]

    assert built() == [(False, False)] * len(datum.objects)
    glue_object(finstack.descent.DescentDatum(datum.cover, datum.objects,
                                              dict(datum.overlaps)))
    assert built() == [(True, True)] * len(datum.objects)


def test_deferred_alpha_and_base_action_read_like_the_eager_ones(monkeypatch):
    monkeypatch.setattr(CrossCheck, "on", False)
    obj = regular_object(zmod(2), FinSet(("p", "q")))
    f = FinMap(FinSet(("u", "v")), obj.base, {"u": "q", "v": "q"})
    local = restrict(obj, f)
    alpha, base_act = local.alpha.map, local.bundle.proj.dst_action.act
    assert alpha._build is not None and base_act._build is not None
    assert alpha == FinMap(local.total, obj.x_action.space,
                           {pz: obj.alpha.map.table[pz[0]] for pz in local.total})
    assert base_act == trivial_action(obj.bundle.group, f.src).act
    assert alpha._build is None and base_act._build is None


def test_first_read_builds_the_table_once(monkeypatch):
    monkeypatch.setattr(CrossCheck, "on", False)
    b = trivial_bundle(sym(3), FinSet(("p", "q")))
    builds = []
    real = finstack.bundle.exact_map
    monkeypatch.setattr(finstack.bundle, "exact_map",
                        lambda *args: builds.append(args) or real(*args))
    act = pullback_bundle(b, identity(b.base)).total.act
    assert builds == [] and act._build is not None
    table = act.table
    assert len(builds) == 1 and act._build is None
    assert act.table is table and len(act.src) == len(table) == 72
    hash(act)
    repr(act)
    assert len(builds) == 1


def test_base_change_carries_the_one_trivial_action(monkeypatch):
    # its base is the memoized trivial action, cross-checked like every other,
    # and off, its table is written only when read
    monkeypatch.setattr(CrossCheck, "on", False)
    b = trivial_bundle(zmod(3), FinSet(("p", "q")))
    f = FinMap(FinSet(("u", "v", "w")), b.base, {"u": "q", "v": "q", "w": "p"})
    base_act = pullback_bundle(b, f).proj.dst_action
    assert base_act is trivial_action(b.group, f.src)
    assert base_act.act._build is not None
    assert base_act.act.table == {(g, z): z for g in b.group.carrier for z in f.src}
    assert base_act.act._build is None


def test_fibers_of_a_deferred_map_build_its_table_once(monkeypatch):
    monkeypatch.setattr(CrossCheck, "on", False)
    a, y = FinSet(("a0", "a1", "a2")), FinSet(("y0", "y1"))
    builds = []

    def build():
        builds.append(1)
        return exact_map(a, y, {"a0": "y1", "a1": "y0", "a2": "y1"})

    m = deferred_map(y, build)
    fibs = fibers(m)
    assert builds == [1]
    assert fibs == {"y1": ("a0", "a2"), "y0": ("a1",)}
    assert fibers(m) is fibs and m.table == {"a0": "y1", "a1": "y0", "a2": "y1"}
    assert builds == [1]


def eager_base_change(b, f):
    """The base change's action table written at once by the same formula."""
    apex = pullback(b.proj.map, f).apex
    src = product_space(b.group.carrier, apex)
    at = b.total.act.table
    return exact_map(src, apex, {(h, (p, z)): (at[(h, p)], z) for h, (p, z) in src})


@pytest.mark.parametrize("first_read", ["==", "hash", "repr"])
def test_deferred_table_reads_like_the_eager_one(monkeypatch, first_read):
    monkeypatch.setattr(CrossCheck, "on", False)
    b = trivial_bundle(zmod(2), FinSet(("p", "q")))
    f = FinMap(FinSet(("u",)), b.base, {"u": "q"})
    eager = eager_base_change(b, f)
    total = pullback_bundle(b, f).total
    act = total.act
    assert type(act) is not FinMap and act._build is not None
    if first_read == "==":
        assert act == eager and eager == act
    elif first_read == "hash":
        assert hash(act) == hash(eager)
    else:
        assert repr(act) == repr(eager)
    assert act._build is None
    assert (act == eager, hash(act), repr(act)) == (True, hash(eager), repr(eager))
    model = finstack.GAction(total.group, total.space, eager)
    assert (total == model, model == total) == (True, True)
    assert (hash(total), repr(total)) == (hash(model), repr(model))


# ------------------------------------------------------------------- desc ---

@pytest.fixture
def cross_check_by_flag(monkeypatch):
    """Cross-checking off in the library, so only --cross-check turns it on."""
    monkeypatch.setattr(CrossCheck, "on", False)


PLANTED_IN_DESC = [
    # module, rewrite, command, site
    (finstack.bundle, frozen_action, "glue-object", "stack_demo.site"),
    (finstack.stack, constant_table, "glue-object", None),
    (finstack.action, collapse_nonunit(zmod(2)), "check-bundle", "bundles.site"),
    (finstack.finset, drop_last, "check-group", "stack_demo.site"),
    (finstack.descent, constant_table, "glue-object", "stack_demo.site"),
    (finstack.stack, constant_table, "glue-morphisms", "stack_demo.site"),
]


@pytest.mark.parametrize("module,rewrite,command,site", PLANTED_IN_DESC)
def test_desc_cross_check_exits_3_on_a_planted_construction(
        capsys, tmp_path, monkeypatch, cross_check_by_flag, module, rewrite, command, site):
    if site is None:
        path = tmp_path / "regular.site"
        path.write_text(REGULAR_SITE)
    else:
        path = SITES / site
    # the site as written passes
    code, out, err = run(capsys, command, path, "--cross-check")
    assert code == 0, err
    plant(monkeypatch, module, rewrite)
    report = tmp_path / "report.json"
    code, out, err = run(capsys, command, path, "--cross-check", "--report", report)
    assert code == 3
    rep = json.loads(report.read_text())
    assert rep["error"]["kind"] == "RuntimeError"
    assert rep["error"]["message"].startswith("cross-check of")
    assert rep["cross_checks"]["ran"] == rep["cross_checks"]["agreed"] + 1
    assert CrossCheck.on is False


@pytest.mark.needs_cross_check
def test_desc_cross_check_exits_3_on_a_planted_classify_closed_form(
        capsys, tmp_path, monkeypatch, cross_check_by_flag):
    # one automorphism too many; the oracle counts the enumerated ones
    real = finstack.stack.bundle_morphism_count
    monkeypatch.setattr(finstack.stack, "bundle_morphism_count",
                        lambda group, base: real(group, base) + 1)
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "classify", SITES / "stack_demo.site",
                         "--cross-check", "--report", report)
    assert code == 3
    rep = json.loads(report.read_text())
    assert rep["error"]["kind"] == "RuntimeError"
    assert rep["error"]["message"].startswith(
        "cross-check of classify K by enumeration disagrees")
    assert rep["cross_checks"]["ran"] == rep["cross_checks"]["agreed"] + 1
    # the production path reads the closed form alone: the wrong value goes through
    code, out, err = run(capsys, "classify", SITES / "stack_demo.site")
    assert code == 0, err
    assert "(1 bundles, 1 classes, 5 automorphisms of the trivial one)" in out


def test_desc_cross_check_exits_3_on_a_planted_cocycle_decider(
        capsys, tmp_path, monkeypatch, cross_check_by_flag):
    monkeypatch.setattr(finstack.descent, "cocycle_on_one_point", never_fails)
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "glue-object", SITES / "cocycle_bad.site",
                         "--cross-check", "--report", report)
    assert code == 3
    rep = json.loads(report.read_text())
    assert rep["error"]["kind"] == "RuntimeError"
    assert rep["error"]["message"].startswith(
        "cross-check of the cocycle on one point per fiber disagrees")
    assert rep["cross_checks"]["ran"] == rep["cross_checks"]["agreed"] + 1


ORACLE_DISAGREES = [
    ("check-bundle", "bundles.site", "is_locally_trivial", lambda proj, cover: NotTrivial(0)),
    ("check-cover", "covers_ok.site", "is_canonical_cover", lambda fam: False),
    ("check-sheaf", "covers_ok.site", "sheaf_condition_by_enumeration",
     lambda fam, values, bound: False),
]


@pytest.mark.parametrize("command,site,oracle,wrong", ORACLE_DISAGREES)
def test_desc_oracle_disagreement_exits_3(capsys, tmp_path, monkeypatch, cross_check_by_flag,
                                          command, site, oracle, wrong):
    monkeypatch.setattr(finstack.cli, oracle, wrong)
    code, out, err = run(capsys, command, SITES / site)
    assert code == 0, err
    report = tmp_path / "report.json"
    code, out, err = run(capsys, command, SITES / site, "--cross-check", "--report", report)
    assert code == 3
    assert out == ""
    rep = json.loads(report.read_text())
    assert rep["error"]["kind"] == "RuntimeError"
    assert "disagrees" in rep["error"]["message"]


@pytest.mark.parametrize("command,site", [
    ("check-bundle", "not_bundle.site"),
    ("check-cover", "covers_bad.site"),
    ("check-sheaf", "covers_bad.site"),
    ("glue-object", "cocycle_bad.site"),
    ("verify-stack", "stack_demo.site"),
])
def test_desc_cross_check_keeps_verdicts_and_counts(capsys, tmp_path, cross_check_by_flag,
                                                    command, site):
    plain, checked = tmp_path / "plain.json", tmp_path / "checked.json"
    off = run(capsys, command, SITES / site, "--report", plain)
    on = run(capsys, command, SITES / site, "--cross-check", "--report", checked)
    assert on == off
    plain, checked = json.loads(plain.read_text()), json.loads(checked.read_text())
    assert "cross_checks" not in plain
    tally = checked.pop("cross_checks")
    assert tally["agreed"] == tally["ran"] > 0
    for rep in (plain, checked):
        del rep["elapsed_s"]
    assert checked == plain


def test_desc_sheaf_oracle_over_the_bound_is_skipped(capsys, tmp_path, cross_check_by_flag):
    counts = []
    for bound in (4096, 1):
        report = tmp_path / f"report{bound}.json"
        code, out, err = run(capsys, "check-sheaf", SITES / "covers_ok.site",
                             "--cross-check", "--bound", bound, "--report", report)
        assert code == 0, err
        tally = json.loads(report.read_text())["cross_checks"]
        assert tally["agreed"] == tally["ran"]
        counts.append(tally["ran"])
    assert counts[1] < counts[0]


def test_desc_cover_oracle_over_the_bound_is_skipped(capsys, tmp_path, monkeypatch,
                                                    cross_check_by_flag):
    # the universal effective epi enumerates Σ_{k≤3} |Y|^k base changes, 40
    # over three atoms: past --bound it is not run, and not counted
    runs = []
    for bound in (40, 39):
        report = tmp_path / f"report{bound}.json"
        code, out, err = run(capsys, "check-cover", SITES / "covers_ok.site",
                             "--cross-check", "--bound", bound, "--report", report)
        assert code == 0, err
        tally = json.loads(report.read_text())["cross_checks"]
        assert tally["agreed"] == tally["ran"] > 0
        runs.append((out, tally["ran"]))
    assert runs[1][0] == runs[0][0] and runs[1][1] < runs[0][1]

    def forbidden(fam):
        raise AssertionError("the cover oracle ran past --bound")

    monkeypatch.setattr(finstack.cli, "is_canonical_cover", forbidden)
    code, out, err = run(capsys, "check-cover", SITES / "covers_ok.site",
                         "--cross-check", "--bound", 39)
    assert code == 0, err
    assert out == runs[0][0]


def test_desc_check_cover_cross_checks_the_colimit_of_each_sieve(
        capsys, tmp_path, monkeypatch, cross_check_by_flag):
    checked = []
    real = finstack.cli.cross_check

    def recording(what, built, again):
        checked.append(what)
        real(what, built, again)

    monkeypatch.setattr(finstack.cli, "cross_check", recording)
    for site, covers in (("covers_ok.site", ("ByPoints", "Overlapping")),
                         ("covers_bad.site", ("Gappy",))):
        report = tmp_path / "report.json"
        checked.clear()
        run(capsys, "check-cover", SITES / site, "--cross-check", "--report", report)
        assert [w for w in checked if "colimit" in w] == [
            f"cover {name} by the colimit of its sieve" for name in covers]
        tally = json.loads(report.read_text())["cross_checks"]
        assert tally["agreed"] == tally["ran"] >= len(checked)
    # a wrong colimit oracle is an internal fault
    monkeypatch.setattr(finstack.cli, "is_colim_sieve", lambda sieve: False)
    code, out, err = run(capsys, "check-cover", SITES / "covers_ok.site", "--cross-check")
    assert code == 3
    assert "cross-check of cover ByPoints by the colimit of its sieve disagrees" in err
    # and without the flag it never runs
    code, out, err = run(capsys, "check-cover", SITES / "covers_ok.site")
    assert code == 0, err


def test_sheaf_oracle_bound_counts_the_gluings():
    # one 1-atom leg over 5 atoms, values in those 5: 5 candidate families,
    # but 5^5 candidate gluings
    y = FinSet(tuple(range(5)))
    fam = CoveringFamily(y, [FinMap(terminal(), y, {"*": 0})])
    with pytest.raises(BoundExceeded) as exc:
        sheaf_condition_by_enumeration(fam, y, 100)
    assert exc.value.size == 3125
    assert sheaf_condition_by_enumeration(fam, y, 3125) is False


def test_desc_check_sheaf_skips_an_oracle_past_bound(capsys, tmp_path, monkeypatch,
                                                     cross_check_by_flag):
    # one 1-atom leg over 8 atoms, values in those 8: 8 candidate families,
    # but 8^8 candidate gluings, past the default bound; the oracle is skipped
    # uncounted there and runs for the one-atom values U
    path = tmp_path / "gap.site"
    path.write_text("set Y = { 0 1 2 3 4 5 6 7 }\nset U = { u }\n"
                    "map f : U -> Y = { u -> 0 }\ncover C { target Y legs [ f ] }\n")
    real = finstack.cli.sheaf_condition_by_enumeration
    values = []

    def oracle(fam, a, bound):
        values.append(len(a))
        if len(a) > 1:
            raise AssertionError("the oracle ran past --bound")
        return real(fam, a, bound)

    monkeypatch.setattr(finstack.cli, "sheaf_condition_by_enumeration", oracle)
    report = tmp_path / "report.json"
    t0 = time.monotonic()
    code, out, err = run(capsys, "check-sheaf", path, "--cross-check", "--report", report)
    assert time.monotonic() - t0 < 30
    assert code == 1, err
    assert values == [1]
    rep = json.loads(report.read_text())
    assert [(c["name"], c["status"]) for c in rep["checks"]] == [("C/Y", "fail"),
                                                               ("C/U", "ok")]
    assert rep["cross_checks"]["agreed"] == rep["cross_checks"]["ran"] > 0


def test_desc_runs_no_oracle_without_cross_check(capsys, monkeypatch, cross_check_by_flag):
    def forbidden(*args):
        raise AssertionError("an oracle ran without --cross-check")

    for oracle in ("is_locally_trivial", "is_canonical_cover",
                   "sheaf_condition_by_enumeration"):
        monkeypatch.setattr(finstack.cli, oracle, forbidden)
    for command in ("check-bundle", "check-cover", "check-sheaf"):
        code, out, err = run(capsys, command, SITES / "stack_demo.site")
        assert code == 0, err



@pytest.mark.parametrize("command", ["check-group", "check-action"])
def test_desc_check_group_and_action_certify_only_at_load(
        capsys, monkeypatch, cross_check_by_flag, command):
    # the load built each group and action certified; the command reports it
    real_load = finstack.cli.load_site
    counts = []

    def load_then_count(path):
        site = real_load(path)
        counts.append(count_calls(monkeypatch, ("check_group", "check_action")))
        return site

    monkeypatch.setattr(finstack.cli, "load_site", load_then_count)
    code, out, err = run(capsys, command, SITES / "z2_demo.site")
    assert code == 0, err
    assert out.endswith(" ok\n")
    assert counts == [{"check_group": 0, "check_action": 0}]
