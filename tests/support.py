"""Seeded generators and constructions that only the tests use.

The stock groups, random sets, maps and G-sets, the subgroup list, an
action from a Python function, the mediating maps into a product and a
pullback, and sieve membership with its factorization witness. Every
generator is deterministic given the Random instance passed in.

Each check here raises: pytest rewrites the asserts of test modules only,
and `python -O` strips the asserts of a helper module like this one.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import NamedTuple, Optional

from finstack.action import (
    FinGroup,
    GAction,
    check_action,
    check_equivariant,
    klein_four,
    sym,
    zmod,
)
from finstack.errors import SquareNotCommuting
from finstack.finset import (
    FinMap,
    FinSet,
    Product,
    PullbackCert,
    atom_key,
    compose,
    fiber,
    product,
    product_space,
)
from finstack.topology import GeneratedSieve


def group_catalog(max_order: int = 6):
    """The stock groups used across tests: cyclic up to 6, Klein four, S3."""
    cat = [zmod(1), zmod(2), zmod(3), zmod(4), klein_four(), zmod(5), zmod(6), sym(3)]
    return [g for g in cat if len(g.carrier) <= max_order]


def random_finset(rng: Random, max_size: int, min_size: int = 0,
                  prefix: Optional[str] = None) -> FinSet:
    n = rng.randint(min_size, max_size)
    if prefix is None:
        return FinSet(range(n))
    return FinSet(f"{prefix}{i}" for i in range(n))


def random_map(rng: Random, src: FinSet, dst: FinSet) -> FinMap:
    if len(dst) == 0 and len(src) > 0:
        raise ValueError("no maps into the empty set from a nonempty one")
    return FinMap(src, dst, {a: rng.choice(dst.elements) for a in src})


def random_surjection(rng: Random, src: FinSet, dst: FinSet) -> FinMap:
    if len(src) < len(dst):
        raise ValueError("source too small to surject")
    if len(dst) == 0 and len(src) > 0:
        raise ValueError("no maps into the empty set from a nonempty one")
    picks = rng.sample(src.elements, len(dst))
    table = dict(zip(picks, dst.elements))
    for a in src:
        if a not in table:
            table[a] = rng.choice(dst.elements)
    return FinMap(src, dst, table)


# ------------------------------------------------------------------ G-sets ---

def subgroups(g: FinGroup):
    """All subgroups as tuples of atoms; exhaustive, fine for |G| <= 8."""
    atoms = list(g.carrier)
    e = g.unit_atom
    rest = [a for a in atoms if a != e]
    found = []
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            sub = {e, *extra}
            if all(g.times(a, b) in sub for a in sub for b in sub):
                found.append(tuple(sorted(sub, key=atom_key)))
    return found


def action_from_function(group: FinGroup, space: FinSet, fn) -> GAction:
    src = product_space(group.carrier, space)
    return check_action(
        group, space, FinMap(src, space, {(g, x): fn(g, x) for (g, x) in src}))


def _coset(group: FinGroup, a, sub) -> tuple:
    return tuple(sorted((group.times(a, h) for h in sub), key=atom_key))


def _coset_orbits(group: FinGroup, subs) -> GAction:
    """The action on the coset spaces G/H, one orbit k for the k-th subgroup
    H of `subs`: atoms (k, coset), g·(k, aH) = (k, gaH)."""
    atoms = []
    table = {}
    for k, sub in enumerate(subs):
        cosets = sorted({_coset(group, a, sub) for a in group.carrier},
                        key=atom_key)
        atoms += [(k, c) for c in cosets]
        for g in group.carrier:
            for c in cosets:
                table[(g, (k, c))] = (k, _coset(group, group.times(g, c[0]), sub))
    space = FinSet(atoms)
    return check_action(group, space,
                        FinMap(product_space(group.carrier, space), space, table))


def random_gset(rng: Random, group: FinGroup, max_size: int,
                stop: float = 0.3) -> GAction:
    """A random action assembled from coset orbits of random subgroups;
    atoms are (orbit index, coset) pairs."""
    subs = subgroups(group)
    order = len(group.carrier)
    chosen = []
    total = 0
    while total < max_size:
        options = [h for h in subs if order // len(h) <= max_size - total]
        if not options or (chosen and rng.random() < stop):
            break
        h = rng.choice(options)
        chosen.append(h)
        total += order // len(h)
    return _coset_orbits(group, chosen)


def random_gset_over(rng: Random, y: GAction, max_size: int,
                     stop: float = 0.3):
    """A random action with an equivariant map to y: each orbit is a coset
    space G/H for a subgroup H fixing a chosen point y0 of y, mapping aH to
    a·y0 on that point's orbit. Returns (action, certified map)."""
    group = y.group
    subs = subgroups(group)
    order = len(group.carrier)
    chosen = []
    total = 0
    while total < max_size and len(y.space):
        y0 = rng.choice(y.space.elements)
        stab = frozenset(h for h in group.carrier if y(h, y0) == y0)
        options = [h for h in subs
                   if set(h) <= stab and order // len(h) <= max_size - total]
        if not options or (chosen and rng.random() < stop):
            break
        h = rng.choice(options)
        chosen.append((h, y0))
        total += order // len(h)
    act = _coset_orbits(group, [h for h, _ in chosen])
    table = {(k, c): y(c[0], chosen[k][1]) for k, c in act.space}
    return act, check_equivariant(FinMap(act.space, y.space, table), act, y)


# ---------------------------------------------------------- mediating maps ---

def pair_map(u: FinMap, v: FinMap, prod: Product | None = None) -> FinMap:
    """The mediating map <u, v> into product(u.dst, v.dst)."""
    if u.src != v.src:
        raise ValueError(f"{u.src!r} != {v.src!r}")
    if prod is None:
        prod = product(u.dst, v.dst)
    return FinMap(u.src, prod.space, {s: (u.table[s], v.table[s]) for s in u.src})


def mediate_pullback(cert: PullbackCert, u: FinMap, v: FinMap) -> FinMap:
    """The unique t with proj1 ∘ t = u and proj2 ∘ t = v."""
    if u.src != v.src:
        raise ValueError(f"{u.src!r} != {v.src!r}")
    if u.dst != cert.f.src or v.dst != cert.g.src:
        raise ValueError("mediating legs do not land in the pullback feet")
    for s in u.src:
        left, right = cert.f.table[u.table[s]], cert.g.table[v.table[s]]
        if left != right:
            raise SquareNotCommuting(s, left, right)
    return FinMap(u.src, cert.apex, {s: (u.table[s], v.table[s]) for s in u.src})


# ------------------------------------------------------------------ sieves ---

class SieveWitness(NamedTuple):
    """Factorization g = leg ∘ via exhibiting sieve membership."""

    leg_index: int
    via: FinMap


def sieve_member(s: GeneratedSieve, g: FinMap) -> Optional[SieveWitness]:
    """Decide membership of g in the sieve; returns the witness or None.

    g factors through leg f iff im(g) ⊆ im(f); the factorization picks the
    least preimage of each value, so the witness is canonical.
    """
    if g.dst != s.target:
        raise ValueError(f"{g.dst!r} is not the sieve target {s.target!r}")
    for i, f in enumerate(s.family.legs):
        image = set(f.table.values())
        if all(v in image for v in g.table.values()):
            via = FinMap(g.src, f.src,
                         {a: fiber(f, g.table[a])[0] for a in g.src})
            if compose(f, via) != g:
                raise RuntimeError(f"the witness through leg {i} does not factor g")
            return SieveWitness(i, via)
    return None
