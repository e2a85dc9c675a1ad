"""Principal bundles: torsor fibers, trivializations, base change, and
morphism/automorphism enumeration against brute-force oracles."""

import itertools
import math
import re
from random import Random

import pytest
from hypothesis import given, strategies as st

import finstack.bundle
from finstack import (
    BoundExceeded,
    Bundle,
    CoveringFamily,
    EquivarianceFail,
    FinMap,
    FinSet,
    NotBundle,
    NotTrivial,
    TriangleFail,
    Trivialization,
    check_bundle_morphism,
    check_equivariant,
    check_trivialization,
    compose,
    enumerate_bundle_morphisms,
    enumerate_bundles,
    fiber,
    fibers,
    glue_object,
    gset_isomorphism_over,
    identity,
    invert,
    is_locally_trivial,
    is_principal_bundle,
    klein_four,
    morphism_predicates,
    point_cover,
    product,
    product_action,
    pullback,
    pullback_action,
    pullback_bundle,
    pullback_family,
    restrict,
    restrict_to_datum,
    sym,
    terminal,
    torsor_structures,
    trivial_action,
    trivial_bundle,
    zmod,
)
from finstack.bundle import TrivLeg, fiber_map
from finstack.errors import CoverNotCanonical
from finstack.finset import atom_key
from finstack.sample import (
    build_corpus,
    random_bundle,
    random_cover,
    random_qsobject,
    twist_bundle,
)
from finstack.topology import all_maps

from support import (
    group_catalog,
    mediate_pullback,
    pair_map,
    random_gset,
    random_gset_over,
    random_map,
)


def projection_to(group, space, base, values):
    total = trivial_action(group, space)
    return check_equivariant(
        FinMap(space, base, values), total, trivial_action(group, base))


def point_trivialization(b):
    """The definitional certificate over the point cover, re-verified."""
    triv = is_locally_trivial(b.proj, point_cover(b.base))
    assert isinstance(triv, Trivialization)
    check_trivialization(b.proj, triv)
    return triv


# ------------------------------------------------------------ certification

def test_trivial_bundle_shape():
    z2 = zmod(2)
    base = FinSet(("p", "q"))
    b = trivial_bundle(z2, base)
    assert b.base == base
    assert sorted(b.total.space.elements) == [(0, "p"), (0, "q"), (1, "p"), (1, "q")]
    assert b.proj.map((1, "q")) == "q"
    point_trivialization(b)


def test_wrong_fiber_size_is_rejected():
    z2 = zmod(2)
    base = FinSet(("p",))
    out = is_principal_bundle(projection_to(z2, terminal(), base, {"*": "p"}))
    assert isinstance(out, NotBundle)
    assert out.base_atom == "p"
    assert "1 atoms" in out.reason


def test_non_free_fiber_is_rejected():
    # right fiber size, but the action fixes every point
    z2 = zmod(2)
    base = FinSet(("p",))
    out = is_principal_bundle(
        projection_to(z2, FinSet(("a", "b")), base, {"a": "p", "b": "p"}))
    assert isinstance(out, NotBundle)
    assert out.reason == "fiber action is not free"


def test_non_transitive_fiber_is_rejected():
    # free z2-action on 4 points over one base point: fiber too big
    z2 = zmod(2)
    b4 = trivial_bundle(z2, FinSet(("u", "v")))
    base = FinSet(("p",))
    squash = check_equivariant(
        FinMap(b4.total.space, base, {x: "p" for x in b4.total.space}),
        b4.total, trivial_action(z2, base))
    out = is_principal_bundle(squash)
    assert isinstance(out, NotBundle)
    assert out.base_atom == "p"


def test_base_must_carry_trivial_action():
    z2 = zmod(2)
    from finstack import regular_action
    reg = regular_action(z2)
    with pytest.raises(ValueError):
        is_principal_bundle(check_equivariant(identity(reg.space), reg, reg))


def test_local_trivialization_failure_names_leg():
    z2 = zmod(2)
    base = FinSet(("p",))
    proj = projection_to(z2, FinSet(("a", "b")), base, {"a": "p", "b": "p"})
    out = is_locally_trivial(proj, point_cover(base))
    assert out == NotTrivial(0)


def test_local_trivialization_rejects_bad_cover():
    z2 = zmod(2)
    base = FinSet(("p", "q"))
    b = trivial_bundle(z2, base)
    missing = CoveringFamily(base, [FinMap(terminal(), base, {"*": "p"})])
    with pytest.raises(CoverNotCanonical):
        is_locally_trivial(b.proj, missing)
    with pytest.raises(ValueError, match=re.escape('cover target {z} != base {p q}')):
        is_locally_trivial(b.proj, point_cover(FinSet(("z",))))


def test_local_triviality_oracle_matches_torsor_fibers(rng):
    # local triviality over the point cover is the definition; the torsor
    # fibers decide
    verdicts = set()
    for grp in group_catalog(4):
        for size in range(3):
            base = FinSet(tuple(f"y{k}" for k in range(size)))
            y = trivial_action(grp, base)
            projs = [random_bundle(rng, grp, base).proj]
            projs += [random_gset_over(rng, y, 2 * len(grp.carrier))[1]
                      for _ in range(4)]
            for proj in projs:
                decided = isinstance(is_principal_bundle(proj), Bundle)
                local = is_locally_trivial(proj, point_cover(base))
                assert decided == isinstance(local, Trivialization)
                verdicts.add(decided)
    assert verdicts == {True, False}


def torsor_fibers_by_definition(proj):
    """The torsor check by definition: every fiber has |G| atoms, no atom of
    it is fixed by a non-unit, and the orbit of its first atom is all of it."""
    act = proj.src_action
    group = act.group
    e = group.unit_atom
    n = len(group.carrier)
    for x in proj.map.dst:
        fib = fiber(proj.map, x)
        if len(fib) != n:
            return NotBundle(x, f"fiber has {len(fib)} atoms, expected {n}")
        for p in fib:
            for g in group.carrier:
                if g != e and act(g, p) == p:
                    return NotBundle(x, "fiber action is not free")
        if fib and {act(g, fib[0]) for g in group.carrier} != set(fib):
            return NotBundle(x, "fiber action is not transitive")
    return None


def test_torsor_fibers_match_definition(rng):
    # free, non-free and wrong-size fibers, with the same NotBundle witness
    kinds = set()
    for grp in group_catalog(6):
        for size in range(1, 4):
            base = FinSet(tuple(f"y{k}" for k in range(size)))
            y = trivial_action(grp, base)
            projs = [random_bundle(rng, grp, base).proj]
            projs += [random_gset_over(rng, y, 2 * len(grp.carrier), stop=0.1)[1]
                      for _ in range(12)]
            for proj in projs:
                want = torsor_fibers_by_definition(proj)
                assert finstack.bundle._torsor_fibers(proj) == want
                if want is None:
                    kinds.add("torsor")
                elif want.reason == "fiber action is not free":
                    kinds.add("not free")
                else:
                    kinds.add("wrong size")
    assert kinds == {"torsor", "not free", "wrong size"}


@pytest.mark.needs_cross_check
def test_base_change_without_torsor_fibers_is_an_internal_fault(monkeypatch):
    # base change keeps the fibers; a decider saying otherwise is a fault,
    # not a verdict
    z2, base = zmod(2), FinSet(("p", "q"))
    proj = check_equivariant(product(z2.carrier, base).proj2,
                             product_action(z2, base), trivial_action(z2, base))
    b = is_principal_bundle(proj)
    assert isinstance(b, Bundle)
    monkeypatch.setattr(finstack.bundle, "_torsor_fibers",
                        lambda proj: NotBundle("p", "fiber action is not free"))
    with pytest.raises(RuntimeError, match="a constructed projection is not a bundle"):
        pullback_bundle(b, identity(base))


def test_random_bundles_certify(rng):
    for grp in (zmod(2), zmod(3), klein_four()):
        for _ in range(10):
            base = FinSet(tuple(f"y{k}" for k in range(rng.randint(0, 3))))
            b = random_bundle(rng, grp, base)
            assert isinstance(b, Bundle)
            for y in base:
                assert len(fiber(b.proj.map, y)) == len(grp.carrier)


# ------------------------------------------------------------ enumeration

def test_torsor_structure_counts():
    assert len(torsor_structures(zmod(1))) == 1
    assert len(torsor_structures(zmod(2))) == 1
    assert len(torsor_structures(zmod(3))) == 2
    assert len(torsor_structures(zmod(4))) == 6
    assert len(torsor_structures(klein_four())) == 6


def sorted_key_torsor_structures(group):
    """The dedup by atom-sorted table items, an oracle for the dedup by
    table values in `torsor_structures`."""
    atoms = list(group.carrier)
    seen = {}
    for beta in itertools.permutations(atoms):
        b = dict(zip(atoms, beta))
        binv = {v: k for k, v in b.items()}
        table = {(g, h): b[group.times(g, binv[h])]
                 for g in atoms for h in atoms}
        key = tuple(sorted(table.items(), key=lambda kv: atom_key(kv[0])))
        seen.setdefault(key, table)
    return tuple(seen.values())


@pytest.mark.parametrize(
    "group",
    [zmod(1), zmod(2), zmod(3), zmod(4), zmod(5), klein_four(), sym(3)],
    ids=["z1", "z2", "z3", "z4", "z5", "v4", "s3"])
def test_torsor_structures_match_sorted_key_oracle(group):
    assert ([list(t.items()) for t in torsor_structures(group)]
            == [list(t.items()) for t in sorted_key_torsor_structures(group)])


def deduped_torsor_structures(group):
    """Every permutation of the carrier, deduped by table values: an oracle
    for `torsor_structures`, which builds only the permutations fixing the
    least atom."""
    atoms = list(group.carrier)
    seen = {}
    for beta in itertools.permutations(atoms):
        b = dict(zip(atoms, beta))
        binv = {v: k for k, v in b.items()}
        table = {(g, h): b[group.times(g, binv[h])]
                 for g in atoms for h in atoms}
        seen.setdefault(tuple(table.values()), table)
    return tuple(seen.values())


@pytest.mark.parametrize(
    "group",
    [zmod(1), zmod(2), zmod(3), zmod(4), zmod(5), zmod(6), zmod(7),
     klein_four(), sym(3)],
    ids=["z1", "z2", "z3", "z4", "z5", "z6", "z7", "v4", "s3"])
def test_torsor_structures_match_dedup_oracle(group):
    # the same tables in the same order, and (|G|-1)! of them
    out = torsor_structures(group)
    assert ([list(t.items()) for t in out]
            == [list(t.items()) for t in deduped_torsor_structures(group)])
    assert len(out) == math.factorial(len(group.carrier) - 1)


def test_bundle_enumeration_counts():
    two = FinSet(("p", "q"))
    assert len(list(enumerate_bundles(zmod(2), two))) == 1
    assert len(list(enumerate_bundles(zmod(3), two))) == 4
    assert len(list(enumerate_bundles(zmod(4), FinSet(("p",))))) == 6
    assert len(list(enumerate_bundles(zmod(3), FinSet(())))) == 1


def test_bundle_enumeration_order():
    # one torsor structure per base atom, choices in itertools.product order
    z3, base = zmod(3), FinSet(("p", "q"))
    structures = torsor_structures(z3)
    choices = []
    for b in enumerate_bundles(z3, base):
        act = b.total.act.table
        choices.append(tuple(
            next(k for k, s in enumerate(structures)
                 if all(act[(g, (h, x))] == (s[(g, h)], x)
                        for g in z3.carrier for h in z3.carrier))
            for x in base))
    assert choices == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_bundle_enumeration_bound():
    with pytest.raises(BoundExceeded):
        enumerate_bundles(zmod(4), FinSet(("p", "q")), bound=10)


def test_bundle_enumeration_bound_precedes_torsor_search(monkeypatch):
    # (|G|-1)!^|base| is known before the |G|! permutations are searched
    def forbidden(group):
        raise AssertionError("torsor structures built past the bound")

    monkeypatch.setattr(finstack.bundle, "torsor_structures", forbidden)
    with pytest.raises(BoundExceeded) as exc:
        enumerate_bundles(zmod(8), FinSet(("p",)), bound=1)
    assert exc.value.size == 5040
    assert str(exc.value) == "bundle enumeration: size 5040 exceeds bound 1"


def test_bundles_over_the_empty_base_build_no_torsor_structure(monkeypatch):
    # ((|G|-1)!)^0 = 1 bundle, which uses none of the 5040 structures of Z/8
    def forbidden(group):
        raise AssertionError("torsor structures built for the empty base")

    monkeypatch.setattr(finstack.bundle, "torsor_structures", forbidden)
    (b,) = enumerate_bundles(zmod(8), FinSet(()), bound=1)
    assert b == trivial_bundle(zmod(8), FinSet(()))


def brute_morphisms(src, dst):
    """Raw filter over every map of total spaces; independent of the
    certified enumeration path."""
    grp = src.group
    out = []
    for m in all_maps(src.total.space, dst.total.space):
        if any(dst.proj.map(m(p)) != src.proj.map(p) for p in src.total.space):
            continue
        if any(m(src.total(g, p)) != dst.total(g, m(p))
               for g in grp.carrier for p in src.total.space):
            continue
        out.append(m)
    return out


# (group, largest base) cells with at most 6^6 brute candidates
BRUTE_CELLS = [(zmod(2), 3), (zmod(3), 2), (klein_four(), 1), (sym(3), 1)]


def test_morphism_enumeration_matches_brute_force(rng):
    for grp, largest in BRUTE_CELLS:
        for size in range(largest + 1):
            base = FinSet(tuple(f"y{k}" for k in range(size)))
            a = random_bundle(rng, grp, base)
            b = random_bundle(rng, grp, base)
            # base change along a shuffle of the base puts the fibers'
            # least atoms out of base order
            shuffled = list(base)
            rng.shuffle(shuffled)
            f = FinMap(base, base, dict(zip(base, shuffled)))
            for src, dst in ((a, b), (pullback_bundle(a, f), pullback_bundle(b, f))):
                # the same maps, in all_maps order
                assert ([m.fn.table for m in enumerate_bundle_morphisms(src, dst)]
                        == [m.table for m in brute_morphisms(src, dst)])


@pytest.mark.needs_cross_check
def test_morphism_enumeration_certifies_only_what_it_emits(monkeypatch):
    # Z/5 over a point: 5 maps built and certified, not 5^5 candidates
    calls = []
    certify = finstack.bundle.check_bundle_morphism

    def counting(src, dst, m):
        calls.append(m)
        return certify(src, dst, m)

    monkeypatch.setattr(finstack.bundle, "check_bundle_morphism", counting)
    bundles = list(enumerate_bundles(zmod(5), terminal()))
    for a in bundles[:3]:
        for b in bundles[:3]:
            calls.clear()
            assert len(enumerate_bundle_morphisms(a, b)) == 5
            assert len(calls) == 5


@pytest.mark.needs_cross_check
def test_constructed_morphism_failing_its_check_is_an_internal_fault(monkeypatch):
    def broken(m, src, dst):
        raise EquivarianceFail(0, next(iter(src.space)))

    b = trivial_bundle(zmod(2), FinSet(("p",)))
    monkeypatch.setattr(finstack.bundle, "check_equivariant", broken)
    with pytest.raises(RuntimeError, match="constructed bundle morphism"):
        enumerate_bundle_morphisms(b, b)


def test_all_bundle_morphisms_are_isos(rng):
    grp = zmod(3)
    base = FinSet(("p", "q"))
    a = random_bundle(rng, grp, base)
    b = random_bundle(rng, grp, base)
    ms = enumerate_bundle_morphisms(a, b)
    assert len(ms) == len(grp.carrier) ** len(base)
    assert all(morphism_predicates(m.fn).iso for m in ms)


def test_automorphism_counts():
    z2 = zmod(2)
    b = trivial_bundle(z2, FinSet(("p", "q")))
    assert len(enumerate_bundle_morphisms(b, b)) == 4
    z3pt = trivial_bundle(zmod(3), FinSet(("p",)))
    assert len(enumerate_bundle_morphisms(z3pt, z3pt)) == 3
    s3pt = trivial_bundle(sym(3), terminal())
    assert len(enumerate_bundle_morphisms(s3pt, s3pt)) == 6


def test_morphism_enumeration_bound():
    # the guard counts the |G|^|base| = 4^4 maps emitted
    b = trivial_bundle(klein_four(), FinSet(("p", "q", "r", "s")))
    with pytest.raises(BoundExceeded) as exc:
        enumerate_bundle_morphisms(b, b, bound=100)
    assert exc.value.size == 256
    assert str(exc.value) == "bundle-morphism enumeration: size 256 exceeds bound 100"


def test_bundle_morphism_triangle_witness():
    z2 = zmod(2)
    b = trivial_bundle(z2, FinSet(("p", "q")))
    # equivariant, but swaps the two fibers over the base
    swap = FinMap(b.total.space, b.total.space,
                  {(g, x): (g, "q" if x == "p" else "p")
                   for (g, x) in b.total.space})
    with pytest.raises(TriangleFail):
        check_bundle_morphism(b, b, swap)


# ------------------------------------------------------------ base change

def test_pullback_bundle_frozen_example():
    z2 = zmod(2)
    base = FinSet(("p", "q"))
    b = trivial_bundle(z2, base)
    two = FinSet(("a", "b"))
    f = FinMap(two, base, {"a": "p", "b": "p"})
    pb = pullback_bundle(b, f)
    assert pb.base == two
    assert len(pb.total.space) == 4
    # every total atom sits over its f-image
    assert all(f(pb.proj.map(t)) == b.proj.map(t[0]) for t in pb.total.space)
    point_trivialization(pb)


def test_pullback_bundle_along_identity_preserves_fibers(rng):
    b = random_bundle(rng, zmod(3), FinSet(("p", "q")))
    pb = pullback_bundle(b, identity(b.base))
    assert pb.base == b.base
    for y in b.base:
        assert len(fiber(pb.proj.map, y)) == len(fiber(b.proj.map, y))


def test_pullback_bundle_base_mismatch():
    b = trivial_bundle(zmod(2), FinSet(("p",)))
    with pytest.raises(ValueError, match=re.escape('{z} != {p}')):
        pullback_bundle(b, identity(FinSet(("z",))))


def test_pullback_of_twisted_bundle(rng):
    # twisting shuffles fibers but never changes the projection
    b0 = trivial_bundle(zmod(4), FinSet(("p", "q", "r")))
    b, h = twist_bundle(rng, b0)
    assert b.proj.map == b0.proj.map
    w = FinSet(("a", "b"))
    f = FinMap(w, b.base, {"a": "r", "b": "p"})
    pb = pullback_bundle(b, f)
    assert isinstance(pb, Bundle)
    assert len(pb.total.space) == 8


def test_pullback_bundle_is_what_the_decider_returns(rng):
    for grp in (zmod(2), zmod(3), klein_four(), sym(3)):
        for _ in range(6):
            base = FinSet(tuple(f"y{k}" for k in range(rng.randint(1, 3))))
            b = random_bundle(rng, grp, base)
            z = FinSet(tuple(f"z{k}" for k in range(rng.randint(0, 3))))
            pb = pullback_bundle(b, random_map(rng, z, base))
            assert is_principal_bundle(pb.proj) == pb


@given(grp=st.sampled_from([zmod(2), zmod(3), zmod(4), klein_four(), sym(3)]),
       seed=st.integers(0, 2 ** 16), n_base=st.integers(0, 4), n_src=st.integers(0, 4))
def test_base_change_joins_like_the_pullback(grp, seed, n_base, n_src):
    # base change runs the pullback's join without its memo: the projection
    # has the pullback's second projection, atom for atom in canonical order,
    # and neither a base change nor a restriction adds a pullback entry
    rng = Random(seed)
    base = FinSet(f"y{k}" for k in range(n_base))
    z = FinSet(f"z{k}" for k in range(n_src if n_base else 0))
    f = random_map(rng, z, base)
    obj = random_qsobject(rng, grp, trivial_action(grp, terminal()), base)
    b = obj.bundle
    before = pullback.cache_info()
    proj = pullback_bundle(b, f).proj.map
    local = restrict(obj, f)
    assert pullback.cache_info() == before
    cert = pullback(b.proj.map, f)
    assert proj.src.elements == cert.proj2.src.elements == local.total.elements
    assert proj.table == cert.proj2.table and proj.dst is f.src
    # the join's definition, sorted: what both must emit
    pairs = [(p, x) for p in b.total.space for x in z if b.proj.map(p) == f(x)]
    assert proj.src.elements == tuple(sorted(pairs, key=atom_key))


def pullback_bundle_by_pullback_action(b, f):
    """Base change by the general construction: the action of b pulled back
    along f by `pullback_action`, its second projection certified
    equivariant onto the trivially acted source of f, and decided a
    bundle."""
    cert = pullback(b.proj.map, f)
    triv = trivial_action(b.group, f.src)
    psi = pullback_action(b.total, triv, b.proj.dst_action, b.proj,
                          check_equivariant(f, triv, b.proj.dst_action))
    out = is_principal_bundle(check_equivariant(cert.proj2, psi, triv))
    assert isinstance(out, Bundle)
    return out


def base_change_cases(rng, grp):
    """Bundles over bases of 0 to 3 atoms, from the enumeration, twists and
    the totals of a corpus over a random G-set, each with maps into its base
    from sources of 0 to 3 atoms; the empty base takes only the empty map."""
    bundles = []
    for size in range(4):
        base = FinSet(tuple(f"y{k}" for k in range(size)))
        bundles.append(random_bundle(rng, grp, base))
        if math.factorial(len(grp.carrier) - 1) ** size <= 4:
            bundles += enumerate_bundles(grp, base)
    corpus = build_corpus(grp, random_gset(rng, grp, 6), rng, cases=2)
    bundles += [case[1].bundle for tag, case in corpus if tag == "effectiveness"]
    for b in bundles:
        for size in range(4 if len(b.base) else 1):
            z = FinSet(tuple(f"z{k}" for k in range(size)))
            yield b, random_map(rng, z, b.base)


def test_base_change_matches_pullback_action(rng):
    seen = set()
    for grp in group_catalog():
        for b, f in base_change_cases(rng, grp):
            assert pullback_bundle(b, f) == pullback_bundle_by_pullback_action(b, f)
            seen.add((len(b.base) > 0, len(f.src) > 0))
    assert seen == {(False, False), (True, False), (True, True)}


def test_fiber_map_onto_least_atoms_is_what_the_search_finds_first(rng):
    # two bundles over one base: the search over orbits takes the least atom
    # of each target fiber first and never backtracks
    for grp in group_catalog():
        for size in range(4):
            base = FinSet(tuple(f"y{k}" for k in range(size)))
            a, b = random_bundle(rng, grp, base), random_bundle(rng, grp, base)
            least = {y: fib[0] for y, fib in fibers(b.proj.map).items()}
            assert (fiber_map(a, b, least)
                    == gset_isomorphism_over(a.total, b.total, a.proj.map, b.proj.map))


# ------------------------------------------- local triviality, by definition

def transport_trivialization(b, triv, f):
    """Base change of a trivialization along f, leg by leg over the
    pulled-back cover: phi_i on V_i pulls back to (g, (v, z)) along the
    mediating map into P×_Y V_i."""
    group = b.group
    cert = pullback(b.proj.map, f)
    new_legs = []
    pulled = []
    for leg in triv.legs:
        g_i = triv.cover.legs[leg.leg_index]
        pcert = pullback(g_i, f)              # V_i×_Y Z, atoms (v, z)
        pulled.append(pcert.proj2)
        ncert = pullback(cert.proj2, pcert.proj2)   # atoms ((p,z),(v,z))
        q = pullback(b.proj.map, g_i)
        to_pv = mediate_pullback(
            q,
            compose(cert.proj1, ncert.proj1),       # ((p,z),(v,z)) -> p
            compose(pcert.proj1, ncert.proj2),      # ((p,z),(v,z)) -> v
        )
        s1 = compose(product(group.carrier, g_i.src).proj1,
                     compose(leg.phi, to_pv))
        phi_new = pair_map(s1, ncert.proj2,
                           product(group.carrier, pcert.apex))
        new_legs.append(TrivLeg(leg.leg_index, ncert, phi_new))
    return Trivialization(CoveringFamily(f.src, pulled), tuple(new_legs))


def test_bundles_are_locally_trivial_by_definition(rng):
    # every constructor's output passes the definitional oracle
    bundles = []
    for grp in (zmod(2), zmod(3), klein_four(), sym(3)):
        for size in range(3):
            base = FinSet(tuple(f"y{k}" for k in range(size)))
            b = trivial_bundle(grp, base)
            bundles += [b, twist_bundle(rng, b)[0]]
    bundles += enumerate_bundles(zmod(3), FinSet(("p", "q")))
    bundles += enumerate_bundles(klein_four(), FinSet(("p",)))
    for b in list(bundles):
        if len(b.base):
            z = FinSet(tuple(f"z{k}" for k in range(rng.randint(0, 3))))
            bundles.append(pullback_bundle(b, random_map(rng, z, b.base)))
    x = trivial_action(zmod(3), FinSet(("s", "t")))
    for _ in range(4):
        base = FinSet(tuple(f"y{k}" for k in range(rng.randint(1, 3))))
        obj = random_qsobject(rng, zmod(3), x, base)
        datum = restrict_to_datum(obj, random_cover(rng, base))
        bundles.append(glue_object(datum).glued.bundle)
    for b in bundles:
        point_trivialization(b)


def test_transported_trivialization_certifies(rng):
    for grp in (zmod(2), zmod(3), klein_four(), sym(3)):
        for _ in range(6):
            base = FinSet(tuple(f"y{k}" for k in range(rng.randint(1, 3))))
            b = random_bundle(rng, grp, base)
            triv = point_trivialization(b)
            z = FinSet(tuple(f"z{k}" for k in range(rng.randint(0, 3))))
            f = random_map(rng, z, base)
            moved = transport_trivialization(b, triv, f)
            assert moved.cover == pullback_family(triv.cover, f)
            check_trivialization(pullback_bundle(b, f).proj, moved)
