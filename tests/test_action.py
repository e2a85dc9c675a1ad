"""Group and action layer: axiom checking, orbit structure, equivariant
isomorphism search, and induced actions on pullbacks."""

from random import Random

import pytest

import finstack.action

from finstack import (
    AssocFail,
    EquivarianceFail,
    EquivariantMap,
    FinMap,
    FinSet,
    GAction,
    UnitFail,
    NoInverse,
    NotAssociative,
    NoUnit,
    SquareNotCommuting,
    check_action,
    check_equivariant,
    check_group,
    compose,
    group_from_table,
    gset_isomorphism_over,
    identity,
    klein_four,
    orbits,
    product,
    product_action,
    pullback,
    pullback_action,
    regular_action,
    sym,
    terminal,
    trivial_action,
    zmod,
)
from finstack.action import generators
from finstack.finset import atom_key
from finstack.topology import all_maps

from support import (
    action_from_function,
    group_catalog,
    mediate_pullback,
    product_map,
    random_gset,
    random_gset_over,
    subgroups,
)


def bang_from(a):
    return FinMap(a.space, terminal(), {x: "*" for x in a.space})


# ---------------------------------------------------------------- groups

def test_catalog_orders():
    orders = sorted(len(g.carrier) for g in group_catalog())
    assert orders == [1, 2, 3, 4, 4, 5, 6, 6]


def test_zmod_structure():
    z6 = zmod(6)
    assert z6.unit_atom == 0
    assert z6.times(4, 5) == 3
    assert z6.inv_of(2) == 4


def test_sym3_not_abelian():
    s3 = sym(3)
    a, b = s3.carrier.elements[1], s3.carrier.elements[2]
    assert any(
        s3.times(x, y) != s3.times(y, x)
        for x in s3.carrier for y in s3.carrier)
    assert s3.times(s3.inv_of(a), a) == s3.unit_atom
    assert s3.times(b, s3.unit_atom) == b


def test_klein_four_abelian_self_inverse():
    v4 = klein_four()
    assert all(v4.inv_of(a) == a for a in v4.carrier)
    assert all(
        v4.times(a, b) == v4.times(b, a)
        for a in v4.carrier for b in v4.carrier)


def test_group_from_table_not_associative():
    with pytest.raises(NotAssociative) as exc:
        group_from_table([0, 1], [[0, 1], [0, 0]])
    assert (exc.value.a, exc.value.b, exc.value.c) == (1, 0, 1)


def test_group_from_table_no_unit():
    with pytest.raises(NoUnit):
        group_from_table([0, 1], [[1, 1], [1, 1]])


def test_group_from_table_no_inverse():
    with pytest.raises(NoInverse) as exc:
        group_from_table([0, 1], [[0, 1], [1, 1]])
    assert exc.value.a == 1


def test_check_group_idempotent_on_catalog(groups):
    for g in groups.values():
        assert check_group(g.carrier, g.mul) == g


def test_subgroup_counts(groups):
    counts = {name: len(subgroups(g)) for name, g in groups.items()}
    assert counts == {
        "z1": 1, "z2": 2, "z3": 2, "z4": 3, "v4": 5, "z6": 4, "s3": 6}


def test_subgroups_are_closed(groups):
    for g in groups.values():
        for sub in subgroups(g):
            s = set(sub)
            assert g.unit_atom in s
            assert all(g.times(a, b) in s for a in s for b in s)
            assert all(g.inv_of(a) in s for a in s)


# ---------------------------------------------------------------- actions

def test_constant_action_fails_unit_law():
    z2 = zmod(2)
    with pytest.raises(UnitFail) as exc:
        action_from_function(z2, FinSet((0, 1)), lambda g, x: 0)
    assert exc.value.x == 1


def test_twisted_action_fails_compatibility():
    # unit law holds but acting twice by 1 disagrees with acting by 0
    z2 = zmod(2)
    flip = {0: 1, 1: 0, 2: 0}
    with pytest.raises(Exception) as exc:
        action_from_function(
            z2, FinSet((0, 1, 2)), lambda g, x: x if g == 0 else flip[x])
    assert type(exc.value).__name__ == "AssocFail"
    assert (exc.value.g, exc.value.h, exc.value.x) == (1, 1, 2)


def test_action_table_must_be_total():
    z2 = zmod(2)
    s = FinSet((0,))
    with pytest.raises(ValueError):
        check_action(z2, s, FinMap(product(z2.carrier, s).space, s, {(0, 0): 0}))


def test_equivariance_witness():
    z2 = zmod(2)
    with pytest.raises(EquivarianceFail) as exc:
        check_equivariant(
            identity(z2.carrier), regular_action(z2),
            trivial_action(z2, z2.carrier))
    assert (exc.value.g, exc.value.x) == (1, 0)


def test_orbit_partitions(groups):
    for g in groups.values():
        reg = regular_action(g)
        orbs = orbits(reg)
        assert len(orbs) == 1 and set(orbs[0]) == set(g.carrier.elements)
        triv = trivial_action(g, FinSet((0, 1, 2)))
        assert orbits(triv) == [(0,), (1,), (2,)]


def test_orbit_sizes_divide_group_order(rng):
    for grp in group_catalog():
        for _ in range(10):
            a = random_gset(rng, grp, 6)
            for orb in orbits(a):
                assert len(grp.carrier) % len(orb) == 0


def test_product_action_is_free():
    for grp in (zmod(3), klein_four(), sym(3)):
        pa = product_action(grp, FinSet(("u", "v")))
        assert all(len(orb) == len(grp.carrier) for orb in orbits(pa))
        g1 = grp.carrier.elements[1]
        assert pa(g1, (grp.unit_atom, "u")) == (g1, "u")


# ------------------------------------------------- isomorphism search

def brute_isos_over(a, b, pa, pb):
    """All equivariant bijections h: A -> B with pb∘h = pa, by filtering."""
    if len(a.space) != len(b.space):
        return []
    out = []
    for m in all_maps(a.space, b.space):
        if len(set(m.table.values())) != len(b.space):
            continue
        if any(pb(m(x)) != pa(x) for x in a.space):
            continue
        if any(m(a(g, x)) != b(g, m(x))
               for g in a.group.carrier for x in a.space):
            continue
        out.append(m)
    return out


def test_regular_not_iso_to_trivial():
    z2 = zmod(2)
    reg = regular_action(z2)
    triv = trivial_action(z2, z2.carrier)
    assert gset_isomorphism_over(reg, triv, bang_from(reg), bang_from(triv)) is None


def test_iso_search_agrees_with_brute_force(rng):
    agree = 0
    found = 0
    for grp in (zmod(2), zmod(3), klein_four()):
        for _ in range(25):
            y = random_gset(rng, grp, 3)
            a, f = random_gset_over(rng, y, 6)
            b, g = random_gset_over(rng, y, 6)
            if len(a.space) > 6 or len(b.space) > 6:
                continue
            h = gset_isomorphism_over(a, b, f.map, g.map)
            brute = brute_isos_over(a, b, f.map, g.map)
            assert (h is not None) == (len(brute) > 0)
            if h is not None:
                assert h in brute
                found += 1
            agree += 1
    assert agree >= 50 and found >= 5


def test_iso_search_respects_projection():
    # same underlying action, but incompatible projections to a 2-point base
    z2 = zmod(2)
    a = product_action(z2, FinSet(("u", "v")))
    base = FinSet(("p", "q"))
    pa = FinMap(a.space, base, {x: ("p" if x[1] == "u" else "q") for x in a.space})
    pb = FinMap(a.space, base, {x: ("q" if x[1] == "u" else "p") for x in a.space})
    assert gset_isomorphism_over(a, a, pa, pa) is not None
    assert gset_isomorphism_over(a, a, pa, pb) is not None  # swap orbits
    one_point = FinMap(a.space, base, {x: "p" for x in a.space})
    assert gset_isomorphism_over(a, a, pa, one_point) is None


@pytest.mark.parametrize("over,broken,message", [
    ({"u": "p", "v": "q"}, {"u": "v", "v": "u"}, "not over the base"),
    ({"u": "p", "v": "p"}, {"u": "u", "v": "u"}, "non-injective"),
])
def test_iso_search_certificate_is_checked(monkeypatch, over, broken, message):
    # the search's result is re-certified by checks that python -O keeps;
    # here FinMap in finstack.action bends each image along `broken`, which
    # stays equivariant but is no iso over the base
    z2 = zmod(2)
    a = product_action(z2, FinSet(("u", "v")))
    pa = FinMap(a.space, FinSet(set(over.values())), {x: over[x[1]] for x in a.space})
    assert gset_isomorphism_over(a, a, pa, pa) is not None

    def bent(src, dst, table):
        return FinMap(src, dst, {x: (y[0], broken[y[1]]) for x, y in table.items()})

    monkeypatch.setattr(finstack.action, "FinMap", bent)
    with pytest.raises(RuntimeError, match=message):
        gset_isomorphism_over(a, a, pa, pa)


# ------------------------------------------------- pullback actions

def test_pullback_action_frozen_example():
    # restricting the trivial double cover of {p,q} along the point inclusion
    z2 = zmod(2)
    base = FinSet(("p", "q"))
    tot = product_action(z2, base)
    proj = check_equivariant(
        FinMap(tot.space, base, {x: x[1] for x in tot.space}),
        tot, trivial_action(z2, base))
    pt = trivial_action(z2, terminal())
    incl = check_equivariant(
        FinMap(terminal(), base, {"*": "q"}), pt, trivial_action(z2, base))
    w = pullback_action(tot, pt, trivial_action(z2, base), proj, incl)
    assert sorted(w.space.elements) == [((0, "q"), "*"), ((1, "q"), "*")]
    assert w(1, ((0, "q"), "*")) == ((1, "q"), "*")


def test_pullback_action_projections_equivariant(rng):
    checked = 0
    for grp in group_catalog(4):
        for _ in range(12):
            y = random_gset(rng, grp, 3)
            p, f = random_gset_over(rng, y, 5)
            z, g = random_gset_over(rng, y, 5)
            w = pullback_action(p, z, y, f, g)
            cert = pullback(f.map, g.map)
            check_equivariant(cert.proj1, w, p)
            check_equivariant(cert.proj2, w, z)
            checked += 1
    assert checked >= 48


def test_pullback_action_leg_validation():
    z2 = zmod(2)
    y = trivial_action(z2, FinSet((0,)))
    p = regular_action(z2)
    f = check_equivariant(FinMap(p.space, y.space, {0: 0, 1: 0}), p, y)
    with pytest.raises(ValueError):
        pullback_action(p, p, y, f, check_equivariant(identity(p.space), p, p))


def test_pullback_action_is_unique_compatible_action():
    # the induced action is the only map G×W -> W that is an action and
    # makes both projections equivariant
    z2 = zmod(2)
    y = trivial_action(z2, FinSet(("y0", "y1")))
    p = product_action(z2, FinSet(("u",)))
    pm = check_equivariant(
        FinMap(p.space, y.space, {(0, "u"): "y0", (1, "u"): "y0"}), p, y)
    z = trivial_action(z2, FinSet(("a", "b")))
    zm = check_equivariant(
        FinMap(z.space, y.space, {"a": "y0", "b": "y1"}), z, y)
    w = pullback_action(p, z, y, pm, zm)
    cert = pullback(pm.map, zm.map)
    dom = product(z2.carrier, w.space).space
    hits = []
    for cand in all_maps(dom, w.space):
        try:
            act = check_action(z2, w.space, cand)
            check_equivariant(cert.proj1, act, p)
            check_equivariant(cert.proj2, act, z)
        except Exception:
            continue
        hits.append(cand)
    assert hits == [w.act]


def test_pullback_action_random_suite(rng):
    done = 0
    for grp in group_catalog(6):
        for _ in range(8):
            y = random_gset(rng, grp, 3)
            p, f = random_gset_over(rng, y, 5)
            z, g = random_gset_over(rng, y, 5)
            w = pullback_action(p, z, y, f, g)  # check_action inside
            assert w.group == grp
            done += 1
    assert done >= 64


# ------------------------------------- generator deciders against full scans
#
# check_action and check_equivariant decide on a generating set; the full
# pointwise scans they replaced are kept here as oracles, as is the
# pullback_action built from product_map, compose and mediate_pullback.

def full_scan_action(group, space, act):
    """check_action by definition: both diagrams, pointwise over G×G×X and
    T×X in canonical order."""
    prod = product(group.carrier, space)
    if act.src != prod.space or act.dst != space:
        raise ValueError("action must be a map G×X -> X")
    t = act.table
    for g in group.carrier:
        for h in group.carrier:
            gh = group.times(g, h)
            for x in space:
                if t[(gh, x)] != t[(g, t[(h, x)])]:
                    raise AssocFail(g, h, x)
    e = group.unit_atom
    for x in space:
        if t[(e, x)] != x:
            raise UnitFail(x)
    return GAction(group, space, act)


def full_scan_equivariant(f, a, b):
    """check_equivariant by definition, pointwise over G×X."""
    if a.group != b.group:
        raise ValueError("actions are for different groups")
    if f.src != a.space or f.dst != b.space:
        raise ValueError("map endpoints do not match the action spaces")
    for g in a.group.carrier:
        for x in a.space:
            if f.table[a(g, x)] != b(g, f.table[x]):
                raise EquivarianceFail(g, x)
    return EquivariantMap(f, a, b)


def mediated_pullback_action(p, z, y, f, g):
    """pullback_action by definition: the mediating map of
    (act_P ∘ (id×proj1), act_Z ∘ (id×proj2)) into the pullback."""
    if f.src_action != p or f.dst_action != y:
        raise ValueError("f must be an equivariant map P -> Y")
    if g.src_action != z or g.dst_action != y:
        raise ValueError("g must be an equivariant map Z -> Y")
    group = p.group
    cert = pullback(f.map, g.map)
    u = compose(p.act, product_map(identity(group.carrier), cert.proj1))
    v = compose(z.act, product_map(identity(group.carrier), cert.proj2))
    return full_scan_action(group, cert.apex, mediate_pullback(cert, u, v))


def outcome(fn, *args):
    """The accepted object, or the exception type and arguments."""
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 - compared, not swallowed
        return type(err), err.args


def closure(group, atoms):
    """The subgroup generated by atoms, independently of action.generators."""
    span, frontier = {group.unit_atom}, {group.unit_atom}
    while frontier:
        frontier = {group.times(h, s) for h in frontier for s in atoms} - span
        span |= frontier
    return span


ORACLE_GROUPS = {"z2": zmod(2), "z3": zmod(3), "z4": zmod(4), "z5": zmod(5),
                 "z6": zmod(6), "v4": klein_four(), "s3": sym(3), "s4": sym(4)}


def some_subgroups(group, rng):
    """Subgroups as sets: all of them up to order 6, else cyclic ones and a
    few generated by two random elements."""
    if len(group.carrier) <= 6:
        return [set(h) for h in subgroups(group)]
    atoms = list(group.carrier)
    subs = {frozenset(closure(group, [a])) for a in atoms}
    subs |= {frozenset(closure(group, rng.sample(atoms, 2))) for _ in range(4)}
    return sorted((set(h) for h in subs), key=lambda h: (len(h), sorted(h)))


def coset_action(group, h):
    """G acting on the left cosets G/H, each labelled by its least atom."""
    label = {}
    for g in group.carrier:
        coset = frozenset(group.times(g, k) for k in h)
        label.setdefault(coset, min(coset))
    cosets = {g: label[frozenset(group.times(g, k) for k in h)] for g in group.carrier}
    space = FinSet(set(cosets.values()))
    return action_from_function(group, space, lambda g, c: cosets[group.times(g, c)])


def relabel(a, rng):
    """a transported along a random bijection of its space onto ints."""
    labels = list(range(len(a.space)))
    rng.shuffle(labels)
    to = dict(zip(a.space, labels))
    back = {v: k for k, v in to.items()}
    return action_from_function(a.group, FinSet(labels),
                                lambda g, x: to[a(g, back[x])])


def action_table(group, space, fn):
    return FinMap(product(group.carrier, space).space, space,
                  {(g, x): fn(g, x) for g in group.carrier for x in space})


def oracle_inputs(group, rng):
    """(space, act) pairs: valid actions, their single-entry corruptions,
    tables that obey the laws on a proper subgroup only, collapsed tables
    that break only the unit law, and uniformly random tables."""
    carrier = list(group.carrier)
    valid = [relabel(coset_action(group, h), rng) for h in some_subgroups(group, rng)]
    valid.append(relabel(trivial_action(group, FinSet((0, 1))), rng))
    out = []
    for a in valid:
        out.append((a.space, a.act))
        xs = list(a.space)
        for _ in range(3):
            key = (rng.choice(carrier), rng.choice(xs))
            table = dict(a.act.table)
            table[key] = rng.choice(xs)
            out.append((a.space, FinMap(a.act.src, a.space, table)))
    tau = max(valid, key=lambda a: len(a.space))    # the regular action
    xs = list(tau.space)
    for h in some_subgroups(group, rng):
        if len(h) == len(carrier):
            continue
        # σ(g) = π(gH)∘τ(g) with π(H) = id: σ(g·s) = σ(g)∘σ(s) for s in H
        perms = {}
        for g in carrier:
            coset = frozenset(group.times(g, k) for k in h)
            if coset not in perms:
                perms[coset] = dict(zip(xs, xs if group.unit_atom in coset
                                        else rng.sample(xs, len(xs))))

        def twisted(g, x):
            return perms[frozenset(group.times(g, k) for k in h)][tau(g, x)]
        out.append((tau.space, action_table(group, tau.space, twisted)))
    for a in valid[:3]:
        # σ(g) = a(g)∘r for a retraction r onto a's space: the composition
        # law holds, σ(e) = r is no identity
        space = FinSet(list(a.space) + ["extra"])
        r = {x: x for x in a.space}
        r["extra"] = rng.choice(list(a.space))
        out.append((space, action_table(group, space, lambda g, x: a(g, r[x]))))
    for n in (1, 2, 3):
        space = FinSet(range(n))
        out.append((space, action_table(group, space, lambda g, x: rng.randrange(n))))
    return out


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_generators_generate_greedily(name):
    group = ORACLE_GROUPS[name]
    gens = generators(group)
    assert closure(group, gens) == set(group.carrier)
    for i, s in enumerate(gens):
        before = [a for a in group.carrier if atom_key(a) < atom_key(s)]
        assert set(before) <= closure(group, gens[:i])
        assert s not in closure(group, gens[:i])
    if name.startswith("z"):
        assert gens == (1,)
    if name in ("v4", "s3"):
        assert gens == (1, 2)


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_check_action_matches_full_scan(name):
    rng = Random(f"check_action {name}")
    group = ORACLE_GROUPS[name]
    verdicts = set()
    for space, act in oracle_inputs(group, rng):
        want = outcome(full_scan_action, group, space, act)
        assert outcome(check_action, group, space, act) == want
        verdicts.add(want[0] if isinstance(want, tuple) else want)
    assert {AssocFail, UnitFail} <= verdicts
    assert any(isinstance(v, GAction) for v in verdicts)


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_check_equivariant_matches_full_scan(name):
    rng = Random(f"check_equivariant {name}")
    group = ORACLE_GROUPS[name]
    actions = [coset_action(group, h) for h in some_subgroups(group, rng)]
    actions = [relabel(a, rng) for a in actions if len(a.space) <= 6]
    actions.append(trivial_action(group, FinSet((0, 1))))
    accepted = rejected = 0
    for a in actions:
        for b in actions:
            if len(b.space) ** len(a.space) <= 256:
                maps = all_maps(a.space, b.space)
            else:
                maps = [FinMap(a.space, b.space,
                               {x: rng.choice(b.space.elements) for x in a.space})
                        for _ in range(16)]
            for f in maps:
                want = outcome(full_scan_equivariant, f, a, b)
                assert outcome(check_equivariant, f, a, b) == want
                if isinstance(want, EquivariantMap):
                    accepted += 1
                else:
                    rejected += 1
    assert accepted and rejected


def test_pullback_action_matches_mediating_map(rng):
    done = 0
    for grp in group_catalog(6):
        for _ in range(6):
            y = random_gset(rng, grp, 3)
            p, f = random_gset_over(rng, y, 5)
            z, g = random_gset_over(rng, y, 5)
            assert pullback_action(p, z, y, f, g) == mediated_pullback_action(p, z, y, f, g)
            done += 1
    assert done == 48


def test_pullback_action_square_witness_matches_mediating_map(rng):
    # uncertified legs: the square fails, and both constructions name the
    # same first point of G×(P×_Y Z) with the same two sides
    raised = 0
    for grp in (zmod(2), zmod(3), klein_four(), sym(3)):
        for _ in range(6):
            y = random_gset(rng, grp, 3)
            p, f = random_gset_over(rng, y, 5)
            z, g = random_gset_over(rng, y, 5)
            bent = EquivariantMap(
                FinMap(p.space, y.space,
                       {x: rng.choice(y.space.elements) for x in p.space}), p, y)
            want = outcome(mediated_pullback_action, p, z, y, bent, g)
            assert outcome(pullback_action, p, z, y, bent, g) == want
            if isinstance(want, tuple):
                assert want[0] is SquareNotCommuting
                raised += 1
    assert raised
