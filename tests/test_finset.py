import random
import re

import pytest
from hypothesis import given, strategies as st

from finstack.errors import (
    NotCoequalized,
    SquareNotCommuting,
)
from finstack.finset import (
    CrossCheck,
    FinMap,
    FinSet,
    Tag,
    atom_key,
    bang,
    coequalizer,
    colimit_of_diagram,
    compose,
    coproduct,
    copair,
    fiber,
    format_atom,
    identity,
    invert,
    mediate_coequalizer,
    morphism_predicates,
    product,
    product_map,
    product_space,
    pullback,
    pullback_along,
    terminal,
)
from finstack.topology import all_maps, small_sets

from support import mediate_pullback, pair_map


# ------------------------------------------------------------------- atoms

def test_atom_order_ranks_ints_before_strings_before_tuples():
    atoms = [("b", 0), "a", 3, 0, ("a", 1), "z"]
    s = FinSet(atoms)
    assert s.elements == (0, 3, "a", "z", ("a", 1), ("b", 0))


def test_atom_key_is_a_total_order_on_mixed_atoms():
    atoms = [0, 1, "0", "1", (0, "0"), ("0", 0), Tag(0, 1), Tag(1, 0)]
    ordered = sorted(atoms, key=atom_key)
    for a, b in zip(ordered, ordered[1:]):
        assert atom_key(a) <= atom_key(b)
    # int 1 and string "1" stay distinct atoms
    assert len(FinSet(atoms)) == len(atoms)


def test_format_atom_renders_pairs_and_tags():
    assert format_atom((0, "a")) == "(0,a)"
    assert format_atom(Tag(2, (1, 1))) == "2·(1,1)"
    assert format_atom("*") == "*"


def test_finset_rejects_duplicates_and_sorts():
    with pytest.raises(ValueError):
        FinSet([0, 0])
    assert FinSet([2, 1, 0]).elements == (0, 1, 2)


# -------------------------------------------------------------------- maps

def test_finmap_requires_total_table_into_target():
    a, b = FinSet([0, 1]), FinSet(["x"])
    FinMap(a, b, {0: "x", 1: "x"})
    with pytest.raises(ValueError):
        FinMap(a, b, {0: "x"})
    with pytest.raises(ValueError):
        FinMap(a, b, {0: "x", 1: "y"})
    with pytest.raises(ValueError):
        FinMap(a, b, {0: "x", 1: "x", 2: "x"})


def test_compose_requires_matching_middle():
    a, b, c = FinSet([0]), FinSet([1]), FinSet([2])
    f = FinMap(a, b, {0: 1})
    g = FinMap(b, c, {1: 2})
    assert compose(g, f).table == {0: 2}
    with pytest.raises(ValueError, match=re.escape('cannot compose: {2} != {0}')):
        compose(f, g)


def test_identity_laws_and_swap_involution():
    a = FinSet([0, 1, 2])
    swap = FinMap(a, a, {0: 1, 1: 0, 2: 2})
    assert compose(swap, identity(a)) == swap
    assert compose(identity(a), swap) == swap
    assert compose(swap, swap) == identity(a)


def test_composition_associativity_bulk():
    rng = random.Random(99)
    sets = [FinSet(range(n)) for n in (1, 2, 3, 4)]
    checked = 0
    while checked < 500:
        a, b, c, d = (rng.choice(sets) for _ in range(4))
        f = FinMap(a, b, {x: rng.choice(b.elements) for x in a})
        g = FinMap(b, c, {x: rng.choice(c.elements) for x in b})
        h = FinMap(c, d, {x: rng.choice(d.elements) for x in c})
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)
        checked += 1
    assert checked >= 500


@given(st.data())
def test_composition_associativity_hypothesis(data):
    sizes = st.integers(min_value=1, max_value=4)
    a = FinSet(range(data.draw(sizes)))
    b = FinSet(range(data.draw(sizes)))
    c = FinSet(range(data.draw(sizes)))
    d = FinSet(range(data.draw(sizes)))
    pick = lambda dst: st.sampled_from(dst.elements)
    f = FinMap(a, b, {x: data.draw(pick(b)) for x in a})
    g = FinMap(b, c, {x: data.draw(pick(c)) for x in b})
    h = FinMap(c, d, {x: data.draw(pick(d)) for x in c})
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_predicates_and_invert():
    a = FinSet([0, 1])
    iso = FinMap(a, a, {0: 1, 1: 0})
    p = morphism_predicates(iso)
    assert p.mono and p.epi and p.iso
    assert invert(iso) == iso
    collapse = FinMap(a, FinSet([0]), {0: 0, 1: 0})
    assert not morphism_predicates(collapse).mono
    with pytest.raises(ValueError):
        invert(collapse)


def test_terminal_bang_and_fiber():
    t = terminal()
    assert t.elements == ("*",)
    a = FinSet([0, 1, 2])
    assert bang(a).dst == t
    f = FinMap(a, FinSet(["p", "q"]), {0: "p", 1: "q", 2: "p"})
    assert fiber(f, "p") == (0, 2)
    assert fiber(f, "q") == (1,)


# ---------------------------------------------------------------- products

def test_product_projections_and_pairing():
    a, b = FinSet([0, 1]), FinSet(["x", "y"])
    prod = product(a, b)
    assert set(prod.space) == {(0, "x"), (0, "y"), (1, "x"), (1, "y")}
    c = FinSet(["s"])
    u = FinMap(c, a, {"s": 1})
    v = FinMap(c, b, {"s": "x"})
    w = pair_map(u, v, prod)
    assert compose(prod.proj1, w) == u and compose(prod.proj2, w) == v


def test_product_is_built_on_its_space():
    # callers that read only the pairs take product_space and build no
    # projections; product shares the same set
    a, b = FinSet([0, 1]), FinSet(["x", "y"])
    assert product(a, b).space is product_space(a, b)
    c, d = FinSet([2]), FinSet(["z", "w"])
    space = product_space(c, d)
    assert space.elements == ((2, "w"), (2, "z"))
    assert product(c, d).space is space


def test_pairing_is_unique_exhaustively():
    for a in small_sets(2):
        for b in small_sets(2):
            prod = product(a, b)
            c = FinSet(["s", "t"])
            for u in all_maps(c, a):
                for v in all_maps(c, b):
                    w = pair_map(u, v, prod)
                    matches = [m for m in all_maps(c, prod.space)
                               if compose(prod.proj1, m) == u
                               and compose(prod.proj2, m) == v]
                    assert matches == [w]


def test_pair_map_requires_common_source():
    u = FinMap(FinSet([0]), FinSet([0]), {0: 0})
    v = FinMap(FinSet([1]), FinSet([0]), {1: 0})
    with pytest.raises(ValueError, match=re.escape('{0} != {1}')):
        pair_map(u, v)


def test_product_map_componentwise():
    a = FinSet([0, 1])
    f = FinMap(a, a, {0: 1, 1: 0})
    g = identity(a)
    pm = product_map(f, g)
    assert pm.table[(0, 1)] == (1, 1)
    assert pm.table[(1, 0)] == (0, 0)


# --------------------------------------------------------------- pullbacks

def test_pullback_frozen_example():
    a = FinSet([0, 1, 2])
    b = FinSet([0, 1])
    y = FinSet(["u", "v"])
    f = FinMap(a, y, {0: "u", 1: "u", 2: "v"})
    g = FinMap(b, y, {0: "v", 1: "u"})
    cert = pullback(f, g)
    assert set(cert.apex) == {(0, 1), (1, 1), (2, 0)}
    assert compose(f, cert.proj1) == compose(g, cert.proj2)


def test_pullback_matches_independent_oracle(rng):
    for _ in range(100):
        a = FinSet(range(rng.randint(0, 4)))
        b = FinSet(f"b{i}" for i in range(rng.randint(0, 4)))
        y = FinSet(range(rng.randint(1, 3)))
        f = FinMap(a, y, {x: rng.choice(y.elements) for x in a})
        g = FinMap(b, y, {x: rng.choice(y.elements) for x in b})
        oracle = {(p, q) for p in a for q in b if f.table[p] == g.table[q]}
        assert set(pullback(f, g).apex) == oracle


def test_pullback_universal_property_exhaustively():
    y = FinSet([0, 1])
    a = FinSet([0, 1])
    b = FinSet(["r", "s"])
    for f in all_maps(a, y):
        for g in all_maps(b, y):
            cert = pullback(f, g)
            c = FinSet(["c"])
            for u in all_maps(c, a):
                for v in all_maps(c, b):
                    commutes = compose(f, u) == compose(g, v)
                    if not commutes:
                        with pytest.raises(SquareNotCommuting):
                            mediate_pullback(cert, u, v)
                        continue
                    w = mediate_pullback(cert, u, v)
                    assert compose(cert.proj1, w) == u
                    assert compose(cert.proj2, w) == v
                    others = [m for m in all_maps(c, cert.apex)
                              if compose(cert.proj1, m) == u
                              and compose(cert.proj2, m) == v]
                    assert others == [w]


def test_mediate_pullback_over_terminal_is_pairing():
    a, b = FinSet([0, 1]), FinSet([0, 1])
    cert = pullback(bang(a), bang(b))
    u = FinMap(terminal(), a, {"*": 0})
    v = FinMap(terminal(), b, {"*": 1})
    assert mediate_pullback(cert, u, v).table == {"*": (0, 1)}


# ------------------------------------------------------------- coproducts

def test_coproduct_tags_and_copair():
    a, b = FinSet([0]), FinSet([0, 1])
    cop = coproduct([a, b])
    assert set(cop.space) == {Tag(0, 0), Tag(1, 0), Tag(1, 1)}
    dst = FinSet(["x", "y"])
    h = copair(cop, [FinMap(a, dst, {0: "x"}),
                     FinMap(b, dst, {0: "y", 1: "x"})])
    assert h.table[Tag(0, 0)] == "x"
    assert h.table[Tag(1, 0)] == "y"


def test_copair_needs_target_for_empty_coproduct():
    cop = coproduct([])
    with pytest.raises(ValueError):
        copair(cop, [])
    h = copair(cop, [], dst=FinSet([0]))
    assert h.table == {}


# ------------------------------------------------------------ coequalizers

def _partition_oracle(g1, g2):
    """Independent equivalence-closure: repeatedly merge blocks."""
    blocks = {a: frozenset([a]) for a in g1.dst}
    def merge(x, y):
        bx, by = blocks[x], blocks[y]
        if bx is by:
            return
        u = bx | by
        for m in u:
            blocks[m] = u
    for s in g1.src:
        merge(g1.table[s], g2.table[s])
    return {frozenset(b) for b in blocks.values()}


def test_coequalizer_partition_matches_oracle(rng):
    for _ in range(100):
        src = FinSet(range(rng.randint(0, 4)))
        dst = FinSet(range(rng.randint(1, 5)))
        g1 = FinMap(src, dst, {x: rng.choice(dst.elements) for x in src})
        g2 = FinMap(src, dst, {x: rng.choice(dst.elements) for x in src})
        cert = coequalizer(g1, g2)
        got = {}
        for a in dst:
            got.setdefault(cert.proj.table[a], set()).add(a)
        assert {frozenset(v) for v in got.values()} == _partition_oracle(g1, g2)
        # classes are named by their least atom
        for q, members in got.items():
            assert q == min(members, key=atom_key)


def test_coequalizer_chain_collapses_to_least():
    src = FinSet([0, 1])
    dst = FinSet([0, 1, 2])
    g1 = FinMap(src, dst, {0: 0, 1: 1})
    g2 = FinMap(src, dst, {0: 1, 1: 2})
    cert = coequalizer(g1, g2)
    assert set(cert.quotient) == {0}
    assert cert.proj.table == {0: 0, 1: 0, 2: 0}


def test_coequalizer_shape_mismatch():
    a, b = FinSet([0]), FinSet([0, 1])
    with pytest.raises(ValueError, match="coequalizer needs a parallel pair"):
        coequalizer(FinMap(a, b, {0: 0}), FinMap(b, b, {0: 0, 1: 1}))


def test_mediate_coequalizer_universal_exhaustively():
    src = FinSet([0, 1])
    dst = FinSet([0, 1, 2])
    out = FinSet(["x", "y"])
    for g1 in all_maps(src, dst):
        for g2 in all_maps(src, dst):
            cert = coequalizer(g1, g2)
            for d in all_maps(dst, out):
                if compose(d, g1) != compose(d, g2):
                    with pytest.raises(NotCoequalized):
                        mediate_coequalizer(cert, d)
                    continue
                m = mediate_coequalizer(cert, d)
                assert compose(m, cert.proj) == d
                others = [h for h in all_maps(cert.quotient, out)
                          if compose(h, cert.proj) == d]
                assert others == [m]


# ---------------------------------------------------------------- colimits

def test_colimit_single_object_is_canonical_iso():
    a = FinSet([3, 5])
    col = colimit_of_diagram([a], [])
    leg = col.cocone[0]
    assert morphism_predicates(leg).iso


def test_colimit_of_span_identifies_images():
    # b <-f- a -g-> c with a one-point a glues b and c at a point
    a, b, c = FinSet(["m"]), FinSet([0, 1]), FinSet(["x"])
    f = FinMap(a, b, {"m": 0})
    g = FinMap(a, c, {"m": "x"})
    col = colimit_of_diagram([a, b, c], [(0, 1, f), (0, 2, g)])
    assert len(col.space) == 2  # {0 ~ x ~ m} and {1}
    assert compose(col.cocone[1], f) == compose(col.cocone[2], g)


def test_colimit_rejects_dangling_arrows():
    a = FinSet([0])
    with pytest.raises(ValueError, match=re.escape('arrow endpoints (0,3) out of range')):
        colimit_of_diagram([a], [(0, 3, identity(a))])


# ------------------------------------------- kernels against the old algorithms
#
# product, pullback, coproduct and the coequalizer quotient build their sets
# in canonical order without sorting. The old sort-based algorithms stay here
# as reference oracles.

leaf_atoms = st.integers(-3, 3) | st.text(alphabet="ab", max_size=2)
mixed_atoms = st.recursive(
    leaf_atoms,
    lambda inner: st.tuples(inner, inner) | st.builds(Tag, st.integers(0, 2), inner),
    max_leaves=4)


def mixed_sets(min_size=0, max_size=5):
    return st.lists(mixed_atoms, min_size=min_size, max_size=max_size,
                    unique=True).map(FinSet)


def draw_map(data, src, dst):
    """A random map whose table is filled in a random order, so a kernel
    that reads a table's insertion order instead of src order shows."""
    keys = data.draw(st.permutations(src.elements))
    return FinMap(src, dst, {a: data.draw(st.sampled_from(dst.elements)) for a in keys})


def old_finmap_error(src, dst, table):
    """The message the sequential FinMap validation gave, or None."""
    if len(table) != len(src) or any(a not in src for a in table):
        return "table keys must be exactly the source atoms"
    for a, v in table.items():
        if v not in dst:
            return f"table value {format_atom(v)} at {format_atom(a)} not in target"
    return None


def atom_key_coequalizer(g1, g2):
    """Union-find that keeps the root with the least atom_key."""
    parent = {a: a for a in g1.dst}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for s in g1.src:
        ra, rb = find(g1.table[s]), find(g2.table[s])
        if ra != rb:
            if atom_key(rb) < atom_key(ra):
                ra, rb = rb, ra
            parent[rb] = ra
    proj = {a: find(a) for a in g1.dst}
    return FinSet(set(proj.values())), proj


def fresh_finmap_hash(f):
    return hash((f.src, f.dst, tuple(f.table[a] for a in f.src)))


@given(mixed_sets(), mixed_sets())
def test_product_is_canonical_by_construction(a, b):
    prod = product(a, b)
    atoms = [(x, y) for x in a for y in b]
    assert prod.space.elements == FinSet(atoms).elements
    assert hash(prod.space) == hash(FinSet(atoms).elements)


@given(st.data())
def test_pullback_equals_nested_loop_in_canonical_order(data):
    y = data.draw(mixed_sets(min_size=1, max_size=3))
    f = draw_map(data, data.draw(mixed_sets()), y)
    g = draw_map(data, data.draw(mixed_sets()), y)
    nested = [(a, b) for a in f.src for b in g.src if f.table[a] == g.table[b]]
    apex = pullback(f, g).apex
    assert list(apex.elements) == nested
    assert apex.elements == FinSet(nested).elements


@given(st.data())
def test_pullback_over_one_atom_image_equals_nested_loop(data):
    # g hits at most one atom (every point-cover leg), so the apex is read
    # from f's fibers; f hits one atom too, or any number
    y = data.draw(mixed_sets(min_size=1, max_size=3))
    point = FinSet([data.draw(st.sampled_from(y.elements))])
    g = draw_map(data, data.draw(mixed_sets()), point)
    g = FinMap(g.src, y, g.table)
    f_dst = data.draw(st.sampled_from([y, point]))
    f = draw_map(data, data.draw(mixed_sets()), f_dst)
    f = FinMap(f.src, y, f.table)
    for left, right in ((f, g), (g, f), (g, g)):
        nested = [(a, b) for a in left.src for b in right.src
                  if left.table[a] == right.table[b]]
        cert = pullback(left, right)
        assert list(cert.apex.elements) == nested
        assert cert.apex.elements == FinSet(nested).elements
        assert cert.proj1.table == {p: p[0] for p in nested}
        assert cert.proj2.table == {p: p[1] for p in nested}


@given(st.lists(mixed_sets(max_size=4), max_size=4))
def test_coproduct_is_canonical_by_construction(parts):
    space = coproduct(parts).space
    assert space.elements == FinSet(
        Tag(i, a) for i, p in enumerate(parts) for a in p).elements


@given(st.data())
def test_coequalizer_matches_atom_key_union_find(data):
    src = data.draw(mixed_sets())
    dst = data.draw(mixed_sets(min_size=1, max_size=6))
    g1, g2 = draw_map(data, src, dst), draw_map(data, src, dst)
    cert = coequalizer(g1, g2)
    quotient, proj = atom_key_coequalizer(g1, g2)
    assert cert.quotient.elements == quotient.elements
    assert cert.quotient.elements == FinSet(cert.quotient.elements).elements
    assert cert.proj.table == proj


@given(st.data())
def test_cached_hashes_equal_fresh_hashes(data):
    a = data.draw(mixed_sets())
    y = data.draw(mixed_sets(min_size=1, max_size=3))
    f, g = draw_map(data, a, y), draw_map(data, a, y)
    assert hash(a) == hash(a.elements)
    for m in (f, g, f, pullback(f, g).proj1, coequalizer(f, g).proj):
        assert hash(m) == fresh_finmap_hash(m)
    same = FinMap(FinSet(reversed(a.elements)), y, dict(reversed(f.table.items())))
    assert same == f and hash(same) == hash(f)


@given(st.data())
def test_finmap_rejects_bad_tables_with_the_old_messages(data):
    src = data.draw(mixed_sets())
    dst = data.draw(mixed_sets(min_size=1, max_size=3))
    keys = data.draw(st.lists(mixed_atoms, unique=True, max_size=6)
                     | st.just(list(src.elements)))
    values = st.sampled_from(dst.elements) | mixed_atoms
    table = {k: data.draw(values) for k in keys}
    expected = old_finmap_error(src, dst, table)
    if expected is None:
        assert FinMap(src, dst, table).table == table
    else:
        with pytest.raises(ValueError) as err:
            FinMap(src, dst, table)
        assert str(err.value) == expected


@given(st.lists(mixed_atoms, min_size=1, max_size=6))
def test_ordered_rejects_duplicates_like_finset(atoms):
    doubled = sorted(atoms + atoms[:1], key=atom_key)
    with pytest.raises(ValueError) as public:
        FinSet(doubled)
    with pytest.raises(ValueError) as ordered:
        FinSet._ordered(doubled)
    assert str(ordered.value) == str(public.value)


@given(st.data())
def test_pullback_apex_is_the_set_of_its_table_keys(data):
    # the apex is indexed by its projection table: with the switch off
    # nothing re-checks it (the autouse fixture restores the switch), so it
    # must already be the set FinSet builds, in order, membership and hash
    CrossCheck.on = False
    y = data.draw(mixed_sets(min_size=1, max_size=3))
    f = draw_map(data, data.draw(mixed_sets()), y)
    g = draw_map(data, data.draw(mixed_sets()), y)
    probes = [(a, b) for a in f.src for b in g.src] + data.draw(st.lists(mixed_atoms, min_size=1))
    for apex in (pullback_along(f, g).src, pullback(f, g).apex):
        public = FinSet(list(apex))
        assert apex.elements == public.elements and apex == public
        assert hash(apex) == hash(FinSet(apex.elements))
        atoms = frozenset(apex.elements)
        assert all((a in apex) == (a in atoms) for a in probes)
        dst = data.draw(mixed_sets(min_size=1, max_size=3))
        keys = data.draw(st.lists(st.sampled_from(probes) | mixed_atoms, unique=True,
                                  max_size=6) | st.just(list(apex.elements)))
        values = st.sampled_from(dst.elements) | mixed_atoms
        for src, target, table in (
                (apex, dst, {k: data.draw(values) for k in keys}),
                (dst, apex, {k: data.draw(st.sampled_from(probes) | mixed_atoms)
                             for k in dst})):
            expected = old_finmap_error(src, target, table)
            if expected is None:
                assert FinMap(src, target, table).table == table
            else:
                with pytest.raises(ValueError) as err:
                    FinMap(src, target, table)
                assert str(err.value) == expected
