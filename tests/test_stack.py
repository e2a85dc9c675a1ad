"""Quotient-stack fibers: objects, morphisms, restriction, the canonical
coherence isos, and the classifying-stack comparison."""

import functools
import gc
import math
import re
import tracemalloc
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, strategies as st

import finstack.stack
from finstack import (
    EquivarianceFail,
    FinMap,
    FinSet,
    TriangleFail,
    check_equivariant,
    check_qs_morphism,
    check_qs_object,
    classifying_fiber_equiv,
    classifying_stack,
    coherence_assoc,
    coherence_epsilon,
    coherence_iota,
    coherence_triangles,
    compose,
    compose_qs,
    enumerate_bundles,
    epsilon_component,
    gset_isomorphism_over,
    identity,
    iota_component,
    is_principal_bundle,
    klein_four,
    morphism_predicates,
    product,
    pullback_action,
    qs_identity,
    qs_inverse,
    qs_isomorphism,
    regular_action,
    restrict,
    restrict_morphism,
    sym,
    terminal,
    trivial_action,
    trivial_bundle,
    zmod,
)
from finstack.descent import glue_morphisms
from finstack.errors import OverlapMismatch
from finstack.bundle import fiber_map
from finstack.finset import CrossCheck, fibers, pullback
from finstack.sample import (
    build_corpus,
    enumerate_qs_morphisms,
    random_bundle,
    random_qsobject,
    relabel_qsobject,
)
from finstack.sitefile import load_site
from finstack.stack import classify_by_enumeration, constant_gauge, empty_object, fiber_gauge

from support import group_catalog, mediate_pullback, pair_map, random_gset, random_map

SITES = Path(__file__).resolve().parent.parent / "sites"


def point_x(group):
    return trivial_action(group, terminal())


def trivial_object(group, base, x_action=None):
    x = x_action if x_action is not None else point_x(group)
    b = trivial_bundle(group, base)
    alpha = FinMap(b.total.space, x.space,
                   {t: x.space.elements[0] for t in b.total.space})
    return check_qs_object(b, alpha, x)


# ------------------------------------------------------------- objects

def test_classifying_stack_fields():
    z2 = zmod(2)
    bg = classifying_stack(z2)
    assert bg.group == z2
    assert bg.space == terminal()
    assert bg.x_action(1, "*") == "*"


def test_object_certification():
    z2 = zmod(2)
    obj = trivial_object(z2, FinSet(("p", "q")))
    assert obj.base == FinSet(("p", "q"))
    assert len(obj.total) == 4


def test_alpha_must_be_equivariant():
    z2 = zmod(2)
    b = trivial_bundle(z2, terminal())
    x = regular_action(z2)
    alpha = FinMap(b.total.space, x.space, {(0, "*"): 0, (1, "*"): 0})
    with pytest.raises(EquivarianceFail):
        check_qs_object(b, alpha, x)


def test_equivariant_alpha_accepted():
    z2 = zmod(2)
    b = trivial_bundle(z2, terminal())
    x = regular_action(z2)
    alpha = FinMap(b.total.space, x.space, {(0, "*"): 0, (1, "*"): 1})
    obj = check_qs_object(b, alpha, x)
    assert obj.alpha.map((1, "*")) == 1


# ------------------------------------------------------------- morphisms

def test_gauge_morphisms_are_isos(rng):
    z3 = zmod(3)
    obj = trivial_object(z3, FinSet(("p", "q")))
    m = constant_gauge(obj, 1)
    assert m.src == obj and m.dst == obj
    assert morphism_predicates(m.fn).iso
    assert m.fn != identity(obj.total)
    three = compose_qs(m, compose_qs(m, m))
    assert three.fn == identity(obj.total)


def test_gauge_must_preserve_alpha():
    z2 = zmod(2)
    b = trivial_bundle(z2, terminal())
    x = regular_action(z2)
    alpha = FinMap(b.total.space, x.space, {(0, "*"): 0, (1, "*"): 1})
    obj = check_qs_object(b, alpha, x)
    with pytest.raises(TriangleFail):
        constant_gauge(obj, 1)


def gauge_by_its_certifier(obj, k_by_base):
    """The fiber map onto k·w0 that `fiber_gauge` builds, with the alpha
    triangle checked at every point by `check_qs_morphism`."""
    image = {y: obj.bundle.total(k_by_base[y], fib[0])
             for y, fib in fibers(obj.bundle.proj.map).items()}
    return check_qs_morphism(obj, obj, fiber_map(obj.bundle, obj.bundle, image))


def gauge_outcome(build, obj, k_by_base):
    try:
        return build(obj, k_by_base)
    except TriangleFail as err:
        return err.payload()


@given(grp=st.sampled_from([zmod(2), zmod(4), sym(3), klein_four()]),
       x_kind=st.sampled_from(["regular", "random"]),
       size=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
def test_fiber_gauge_fails_where_its_certifier_fails(grp, x_kind, size, seed):
    # one point per fiber decides the alpha triangle: a failing gauge names
    # the certifier's witness, and a lawful one is the certifier's morphism
    rng = Random(seed)
    x = regular_action(grp) if x_kind == "regular" else random_gset(rng, grp, 6)
    obj = random_qsobject(rng, grp, x, FinSet(range(size)))
    ks = {y: rng.choice(grp.carrier.elements) for y in obj.base}
    assert (gauge_outcome(fiber_gauge, obj, ks)
            == gauge_outcome(gauge_by_its_certifier, obj, ks))


def test_morphism_triangle_over_base():
    z2 = zmod(2)
    obj = trivial_object(z2, FinSet(("p", "q")))
    swap = FinMap(obj.total, obj.total,
                  {(g, y): (g, "q" if y == "p" else "p") for (g, y) in obj.total})
    with pytest.raises(TriangleFail):
        check_qs_morphism(obj, obj, swap)


def test_inverse_roundtrip(rng):
    z2 = zmod(2)
    obj = random_qsobject(rng, z2, point_x(z2), FinSet(("p", "q")))
    obj2, m = relabel_qsobject(rng, obj)
    back = qs_inverse(m)
    assert compose_qs(back, m).fn == identity(obj.total)
    assert compose_qs(m, back).fn == identity(obj2.total)


def test_qs_morphism_enumeration_counts():
    z3 = zmod(3)
    obj = trivial_object(z3, FinSet(("p",)))
    ms = enumerate_qs_morphisms(obj, obj)
    assert len(ms) == 3
    v4 = klein_four()
    objv = trivial_object(v4, terminal())
    assert len(enumerate_qs_morphisms(objv, objv)) == 4


def test_qs_morphisms_thin_out_under_alpha():
    # with X = G the alpha constraint cuts the homs from |G| to 1
    z2 = zmod(2)
    b = trivial_bundle(z2, terminal())
    x = regular_action(z2)
    alpha = FinMap(b.total.space, x.space, {(0, "*"): 0, (1, "*"): 1})
    obj = check_qs_object(b, alpha, x)
    ms = enumerate_qs_morphisms(obj, obj)
    assert len(ms) == 1
    assert ms[0].fn == identity(obj.total)


# ------------------------------------------------------------- restriction

def test_restrict_composes_alpha():
    z2 = zmod(2)
    x = regular_action(z2)
    b = trivial_bundle(z2, FinSet(("p", "q")))
    alpha = FinMap(b.total.space, x.space,
                   {(g, y): g for (g, y) in b.total.space})
    obj = check_qs_object(b, alpha, x)
    two = FinSet(("a", "b"))
    f = FinMap(two, obj.base, {"a": "q", "b": "q"})
    r = restrict(obj, f)
    assert r.base == two
    assert len(r.total) == 4
    # each restricted atom ((g,y), z) keeps its alpha value g
    assert all(r.alpha.map(t) == t[0][0] for t in r.total)


def test_restrict_base_mismatch():
    obj = trivial_object(zmod(2), FinSet(("p",)))
    with pytest.raises(ValueError, match=re.escape('{z} != {p}')):
        restrict(obj, identity(FinSet(("z",))))


def test_restrict_morphism_commutes_with_projection(rng):
    z3 = zmod(3)
    obj = random_qsobject(rng, z3, point_x(z3), FinSet(("p", "q", "r")))
    m = fiber_gauge(obj, {"p": 1, "q": 0, "r": 2})
    f = FinMap(FinSet(("a", "b")), obj.base, {"a": "r", "b": "p"})
    rm = restrict_morphism(m, f)
    assert rm.src == restrict(obj, f)
    assert morphism_predicates(rm.fn).iso


def mediated_restriction(m, f):
    """The restriction of m along f through the pullback's universal
    property: the map into the target's pulled-back total mediated by m
    after the first projection and the second projection. The oracle for
    restrict_morphism's point formula."""
    cert_src = pullback(m.src.bundle.proj.map, f)
    cert_dst = pullback(m.dst.bundle.proj.map, f)
    return mediate_pullback(cert_dst, compose(m.fn, cert_src.proj1), cert_src.proj2)


def test_restricted_morphism_matches_mediated_oracle():
    # the global morphisms of build_corpus's gluing cases over the group
    # catalog, along each leg of their cover and along random maps
    rng = Random(62)
    cases = 0
    for grp in group_catalog():
        for x in (point_x(grp), regular_action(grp)):
            gluings = [case for tag, case in build_corpus(grp, x, rng, cases=3)
                       if tag == "gluing"]
            for cover, _, _, _, m in gluings:
                maps = list(cover.legs)
                maps += [random_map(rng, FinSet(range(rng.randint(0, 3))), m.src.base)
                         for _ in range(2)]
                for f in maps:
                    assert (restrict_morphism(m, f).fn.table
                            == mediated_restriction(m, f).table)
                    cases += 1
    assert cases >= 200


@pytest.mark.parametrize("name", ["cocycle_bad.site", "overlap_bad.site", "stack_demo.site"])
def test_restricted_morphism_matches_mediated_oracle_on_fixtures(name):
    # the fixtures that declare a gluing or a datum: the locals of each
    # gluing and the isos of each datum along identities, and each glued
    # morphism along the legs of its cover
    site = load_site(SITES / name)
    pairs = []
    for d in site.by_kind("gluing"):
        case = d.value
        pairs += [(loc, identity(loc.src.base)) for loc in case.locals_]
        try:
            eta = glue_morphisms(case.cover, case.src, case.dst, case.locals_)
        except OverlapMismatch:
            continue
        pairs += [(eta, f) for f in case.cover.legs]
    for d in site.by_kind("datum"):
        pairs += [(iso, identity(iso.src.base)) for iso in d.value.overlaps.values()]
    assert pairs
    for m, f in pairs:
        assert restrict_morphism(m, f).fn.table == mediated_restriction(m, f).table


# ------------------------------------------------------------- coherence

def test_iota_component_shape(rng):
    z2 = zmod(2)
    obj = random_qsobject(rng, z2, point_x(z2), FinSet(("p", "q")))
    i = iota_component(obj)
    assert i.src == restrict(obj, identity(obj.base))
    assert i.dst == obj
    assert morphism_predicates(i.fn).iso


def test_epsilon_component_shape(rng):
    z2 = zmod(2)
    obj = random_qsobject(rng, z2, point_x(z2), FinSet(("p", "q")))
    f = FinMap(FinSet(("a",)), obj.base, {"a": "q"})
    g = FinMap(terminal(), FinSet(("a",)), {"*": "a"})
    e = epsilon_component(obj, f, g)
    assert e.src == restrict(obj, compose(f, g))
    assert e.dst == restrict(restrict(obj, f), g)
    assert morphism_predicates(e.fn).iso
    with pytest.raises(ValueError, match="maps are not composable under the object's base"):
        epsilon_component(obj, g, f)


def mediated_iota(obj):
    """ι through the pullback along the identity: its first projection, with
    the inverse mediated from the identity and the projection and checked
    to be inverse. The oracle for iota_component's point formula."""
    cert = pullback(obj.bundle.proj.map, identity(obj.base))
    fwd = cert.proj1
    bwd = mediate_pullback(cert, identity(obj.total), obj.bundle.proj.map)
    assert compose(bwd, fwd) == identity(fwd.src) and compose(fwd, bwd) == identity(bwd.src)
    return fwd.table


def mediated_epsilon(obj, f, g):
    """ε_{f,g} through the pullbacks' universal properties, both directions
    mediated and checked to be inverse. The oracle for epsilon_component's
    point formula."""
    fg = compose(f, g)
    mid_cert = pullback(obj.bundle.proj.map, f)
    cert_fg = pullback(obj.bundle.proj.map, fg)
    outer_cert = pullback(restrict(obj, f).bundle.proj.map, g)
    to_mid = mediate_pullback(mid_cert, cert_fg.proj1, compose(g, cert_fg.proj2))
    fwd = mediate_pullback(outer_cert, to_mid, cert_fg.proj2)
    back_p = compose(mid_cert.proj1, outer_cert.proj1)
    bwd = mediate_pullback(cert_fg, back_p, outer_cert.proj2)
    assert compose(bwd, fwd) == identity(fwd.src) and compose(fwd, bwd) == identity(bwd.src)
    return fwd.table


def random_map_into(rng, dst):
    """A random map into dst from up to 3 atoms, from none when dst is empty."""
    return random_map(rng, FinSet(range(rng.randint(0, 3) if len(dst) else 0)), dst)


def test_coherence_components_match_mediated_oracles():
    # the source objects of build_corpus over the group catalog, along
    # random composable pairs into their base, empty sources included
    rng = Random(63)
    cases = 0
    for grp in group_catalog():
        for x in (point_x(grp), regular_action(grp)):
            sources = [case[1] for tag, case in build_corpus(grp, x, rng, cases=3)
                       if tag == "effectiveness"]
            for obj in sources:
                assert iota_component(obj).fn.table == mediated_iota(obj)
                for _ in range(2):
                    f = random_map_into(rng, obj.base)
                    g = random_map_into(rng, f.src)
                    assert epsilon_component(obj, f, g).fn.table == mediated_epsilon(obj, f, g)
                    cases += 1
    assert cases >= 200


def test_iota_naturality_on_gauges(rng):
    z3 = zmod(3)
    base = FinSet(("p", "q"))
    obj = random_qsobject(rng, z3, point_x(z3), base)
    ms = [qs_identity(obj), constant_gauge(obj, 1), constant_gauge(obj, 2)]
    cell = coherence_iota(base, [obj], ms)
    assert cell.kind == "iota" and cell.naturality_squares == 3


def test_epsilon_naturality_on_gauges(rng):
    z2 = zmod(2)
    base = FinSet(("p", "q"))
    obj = random_qsobject(rng, z2, point_x(z2), base)
    f = FinMap(FinSet(("a", "b")), base, {"a": "q", "b": "p"})
    g = FinMap(FinSet(("u",)), f.src, {"u": "a"})
    cell = coherence_epsilon(f, g, [obj], [constant_gauge(obj, 1)])
    assert cell.kind == "epsilon" and cell.naturality_squares == 1


def test_associativity_and_triangles(rng):
    z2 = zmod(2)
    base = FinSet(("p", "q"))
    obj = random_qsobject(rng, z2, point_x(z2), base)
    f = FinMap(FinSet(("a", "b")), base, {"a": "q", "b": "p"})
    g = FinMap(FinSet(("u", "v")), f.src, {"u": "a", "v": "a"})
    h = FinMap(terminal(), g.src, {"*": "v"})
    assert coherence_assoc(obj, f, g, h)
    assert coherence_triangles(obj, f)


# Each coherence cell raises RuntimeError when its comparison fails, also
# under python -O. A monkeypatch breaks one composite or one comparison.

def break_nth_composite(monkeypatch, nth):
    """Follow the nth compose_qs result in stack by a nontrivial Z/2 gauge."""
    real = finstack.stack.compose_qs
    calls = []

    def patched(m2, m1):
        calls.append(None)
        out = real(m2, m1)
        if len(calls) == nth:
            out = real(constant_gauge(out.dst, 1), out)
        return out
    monkeypatch.setattr(finstack.stack, "compose_qs", patched)


def coherence_setup():
    obj = trivial_object(zmod(2), FinSet(("p", "q")))
    f = FinMap(FinSet(("a", "b")), obj.base, {"a": "q", "b": "p"})
    g = FinMap(FinSet(("u", "v")), f.src, {"u": "a", "v": "a"})
    h = FinMap(terminal(), g.src, {"*": "v"})
    return obj, f, g, h


def test_canonical_iso_must_be_a_bijection():
    one = trivial_object(zmod(2), FinSet(("p",)))
    two = trivial_object(zmod(2), FinSet(("p", "q")))
    # onto the two atoms of one, but not injective
    onto = {t: one.total.elements[k % 2] for k, t in enumerate(two.total)}
    with pytest.raises(RuntimeError, match="not a bijection"):
        finstack.stack.certify_canonical_iso(two, one, FinMap(two.total, one.total, onto))
    # injective, but missing the fiber over q
    into = {t: t for t in one.total}
    with pytest.raises(RuntimeError, match="not a bijection"):
        finstack.stack.certify_canonical_iso(one, two, FinMap(one.total, two.total, into))


@pytest.mark.needs_cross_check
def test_non_bijective_comparison_raises(monkeypatch):
    # a comparison whose table sends every point to one target atom reaches
    # the certification of iota and of epsilon
    obj, f, g, _ = coherence_setup()
    real = finstack.stack.formula_morphism
    monkeypatch.setattr(finstack.stack, "formula_morphism", lambda what, src, dst, fn, certify:
                        real(what, src, dst, FinMap(fn.src, fn.dst, dict.fromkeys(
                            fn.table, fn.dst.elements[0])), certify))
    with pytest.raises(RuntimeError, match="not a bijection"):
        iota_component(obj)
    with pytest.raises(RuntimeError, match="not a bijection"):
        epsilon_component(obj, f, g)


def test_iota_naturality_failure_raises(monkeypatch):
    obj, *_ = coherence_setup()
    break_nth_composite(monkeypatch, 1)
    with pytest.raises(RuntimeError, match="iota naturality"):
        coherence_iota(obj.base, [obj], [qs_identity(obj)])


def test_epsilon_naturality_failure_raises(monkeypatch):
    obj, f, g, _ = coherence_setup()
    break_nth_composite(monkeypatch, 1)
    with pytest.raises(RuntimeError, match="epsilon naturality"):
        coherence_epsilon(f, g, [obj], [qs_identity(obj)])


def test_associativity_failure_raises(monkeypatch):
    obj, f, g, h = coherence_setup()
    break_nth_composite(monkeypatch, 1)
    with pytest.raises(RuntimeError, match="associativity"):
        coherence_assoc(obj, f, g, h)


@pytest.mark.parametrize("nth, side", [(1, "right"), (2, "left")])
def test_unit_triangle_failure_raises(monkeypatch, nth, side):
    obj, f, _, _ = coherence_setup()
    break_nth_composite(monkeypatch, nth)
    with pytest.raises(RuntimeError, match=f"{side} unit triangle"):
        coherence_triangles(obj, f)


def test_coherence_iota_wrong_base():
    obj = trivial_object(zmod(2), FinSet(("p",)))
    with pytest.raises(ValueError, match=re.escape('object over {p}, expected {z}')):
        coherence_iota(FinSet(("z",)), [obj])


# ------------------------------------------------------------- isomorphism

def test_relabelled_objects_are_isomorphic(rng):
    z3 = zmod(3)
    obj = random_qsobject(rng, z3, point_x(z3), FinSet(("p", "q")))
    obj2, _ = relabel_qsobject(rng, obj)
    assert qs_isomorphism(obj, obj2) is not None


def test_alpha_obstructs_isomorphism():
    z1 = zmod(1)
    x = trivial_action(z1, FinSet(("x0", "x1")))
    b = trivial_bundle(z1, terminal())
    o0 = check_qs_object(b, FinMap(b.total.space, x.space, {(0, "*"): "x0"}), x)
    o1 = check_qs_object(b, FinMap(b.total.space, x.space, {(0, "*"): "x1"}), x)
    assert qs_isomorphism(o0, o0) is not None
    assert qs_isomorphism(o0, o1) is None


def test_iso_requires_same_fiber():
    z2 = zmod(2)
    a = trivial_object(z2, FinSet(("p",)))
    b = trivial_object(z2, FinSet(("z",)))
    assert qs_isomorphism(a, b) is None


def test_empty_object_is_self_isomorphic():
    z2 = zmod(2)
    obj = empty_object(z2, point_x(z2))
    assert len(obj.total) == 0
    assert qs_isomorphism(obj, obj) is not None


def qs_isomorphism_by_search(a, b):
    """The iso in the fiber by the backtracking search over orbits, with both
    triangles folded into one projection by pairing the bundle projection
    with alpha."""
    if a.base != b.base or a.x_action != b.x_action:
        return None
    prod = product(a.base, a.x_action.space)
    pa = pair_map(a.bundle.proj.map, a.alpha.map, prod)
    pb = pair_map(b.bundle.proj.map, b.alpha.map, prod)
    return gset_isomorphism_over(a.bundle.total, b.bundle.total, pa, pb)


def restrict_by_pullback_action(obj, f):
    """Restriction by the general constructions: the pullback action on
    P×_Y Z, and alpha after the first projection."""
    b = obj.bundle
    cert = pullback(b.proj.map, f)
    triv = trivial_action(b.group, f.src)
    psi = pullback_action(b.total, triv, b.proj.dst_action, b.proj,
                          check_equivariant(f, triv, b.proj.dst_action))
    bundle = is_principal_bundle(check_equivariant(cert.proj2, psi, triv))
    return check_qs_object(bundle, compose(obj.alpha.map, cert.proj1), obj.x_action)


def structure_spaces(rng, group):
    """The point, the regular action and a random G-set."""
    return [point_x(group), regular_action(group), random_gset(rng, group, 6)]


def fiber_objects(rng, group, x):
    """Objects over bases of 0 to 3 atoms: the corpus's, random ones, and
    the empty object."""
    objects = [case[1] for tag, case in build_corpus(group, x, rng, cases=3)
               if tag == "effectiveness"]
    objects += [random_qsobject(rng, group, x, FinSet(range(size)))
                for size in range(1, 4)]
    return objects + [empty_object(group, x)]


def iso_pairs(rng, objects):
    """Each object against itself, a relabelled copy, every object of the
    list (other bases, mismatched alphas) and a restriction to a shuffled
    base."""
    for a in objects:
        shuffled = list(a.base)
        rng.shuffle(shuffled)
        moved = restrict(a, FinMap(a.base, a.base, dict(zip(a.base, shuffled))))
        yield a, a
        yield a, relabel_qsobject(rng, a)[0]
        yield a, moved
        yield moved, a
        for b in objects:
            yield a, b


def test_qs_isomorphism_matches_search(rng):
    outcomes = set()
    for grp in group_catalog():
        for x in structure_spaces(rng, grp):
            for a, b in iso_pairs(rng, fiber_objects(rng, grp, x)):
                got, want = qs_isomorphism(a, b), qs_isomorphism_by_search(a, b)
                assert got == want
                outcomes.add(("iso" if want is not None else "none",
                              len(a.base) > 0, a.base == b.base))
    assert outcomes == {("iso", True, True), ("iso", False, True),
                        ("none", True, True), ("none", True, False),
                        ("none", False, False)}


def test_restrict_matches_pullback_action(rng):
    seen = set()
    for grp in group_catalog():
        for x in structure_spaces(rng, grp):
            for obj in fiber_objects(rng, grp, x):
                for size in range(4 if len(obj.base) else 1):
                    f = random_map(rng, FinSet(tuple(f"z{k}" for k in range(size))),
                                   obj.base)
                    assert restrict(obj, f) == restrict_by_pullback_action(obj, f)
                    seen.add((len(obj.base) > 0, size > 0))
    assert seen == {(False, False), (True, False), (True, True)}


def test_bundles_over_one_base_are_isomorphic_by_search(rng):
    # every principal bundle over a finite set is trivial, so the search
    # finds an iso between any two bundles of one group over one base
    for grp in group_catalog():
        for size in range(3):
            base = FinSet(tuple(f"y{k}" for k in range(size)))
            bundles = [random_bundle(rng, grp, base) for _ in range(2)]
            if math.factorial(len(grp.carrier) - 1) ** size <= 4:
                bundles += enumerate_bundles(grp, base)
            for a in bundles:
                for b in bundles:
                    assert gset_isomorphism_over(a.total, b.total, a.proj.map,
                                                 b.proj.map) is not None
    # it refuses bundles of different groups or over different bases
    a = trivial_bundle(zmod(2), FinSet(("p",)))
    for b in (trivial_bundle(zmod(3), FinSet(("p",))), trivial_bundle(zmod(2), FinSet(("q",)))):
        with pytest.raises(ValueError):
            gset_isomorphism_over(a.total, b.total, a.proj.map, b.proj.map)


# ------------------------------------------------------- classifying stack

def test_classifying_report_z2():
    rep = classifying_fiber_equiv(zmod(2), FinSet(("p", "q")))
    assert rep.n_bundles == 1
    assert rep.iso_classes == 1
    assert rep.aut_trivial == 4


def test_classifying_report_z3():
    rep = classifying_fiber_equiv(zmod(3), FinSet(("p", "q")))
    assert rep.n_bundles == 4
    assert rep.iso_classes == 1
    assert rep.aut_trivial == 9


def test_classifying_report_point():
    rep = classifying_fiber_equiv(zmod(3), terminal())
    assert rep.n_bundles == 2
    assert rep.iso_classes == 1
    assert rep.aut_trivial == 3


def classify_peak(classify, group, size):
    """The peak bytes traced while `classify` counts over `size` points."""
    base = FinSet(tuple(f"y{k}" for k in range(size)))
    tracemalloc.start()
    # a collection empties CPython's free lists, whose blocks tracemalloc
    # counts as allocated, so both sizes start from the same state
    gc.collect()
    tracemalloc.reset_peak()
    try:
        classify(group, base)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cross_check", [False, True], ids=["off", "on"])
def test_classify_memory_does_not_grow_with_the_bundle_count(monkeypatch, cross_check):
    # Z/5 has 24 torsor structures and 5 maps per fiber: 24 bundles over one
    # point and 576 over two. Off, classify reads closed forms and builds
    # none; on, its oracle, the one path that enumerates, streams them with
    # every certifier re-run and keeps three objects and one class
    # representative, while each hom-set grows only from 5 to 25 maps
    monkeypatch.setattr(CrossCheck, "on", cross_check)
    classify = (functools.partial(classify_by_enumeration, bound=65536) if cross_check
                else classifying_fiber_equiv)
    z5 = zmod(5)
    classify_peak(classify, z5, 1)    # the torsor structures, cached once
    small, large = classify_peak(classify, z5, 1), classify_peak(classify, z5, 2)
    assert large < 4 * small, (small, large)
