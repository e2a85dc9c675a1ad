"""The canonical topology on finite sets: covering families, generated
sieves, effective epimorphisms, colim sieves, and the sheaf condition.

Sieves are kept intensionally as their generating family, which is all
the colim-sieve oracle reads; the tests decide membership by factorization
through a generator (`tests/support.py`).

A family covers exactly when it is jointly surjective, and that is how
finstack decides it (`is_jointly_surjective`, `require_canonical`). The
definitional checks (`is_canonical_cover`, `is_universal_effective_epi`,
`is_effective_epi`, `is_colim_sieve`, `cech_colimit`) are kept as oracles
that the tests compare with it; no production path runs them. The sheaf
condition is decided the same way (`check_sheaf_condition`), and
`sheaf_condition_by_enumeration` is its oracle.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import NamedTuple

from .errors import BoundExceeded, CoverNotCanonical
from .finset import (
    FinMap,
    FinSet,
    Record,
    coequalizer,
    compose,
    coproduct,
    copair,
    kept_slot,
    mediate_coequalizer,
    morphism_predicates,
    pullback,
    pullback_along,
    terminal,
)


class CoveringFamily(Record):
    """A finite family of maps into a common target.

    May be empty; over the canonical topology the empty family only covers
    the empty target.

    A cover keeps what is found from its legs once: the target atoms no leg
    hits (`uncovered`) in its `_uncovered` slot, the leg pairs with a
    nonempty overlap (`descent.overlapping_pairs`) in `_pairs`, and the
    pairwise overlaps U_i ×_Y U_j that `descent.overlap` builds, by leg
    pair, in `_overlaps`, so each is found once per cover however often a
    datum on it reads it. The slots are not fields: equality, hash and repr
    read the target and legs alone, and a copy starts with none of them.
    Each holds atoms, leg indexes or the `pullback` of two legs, which
    refers to the legs and never to the cover.
    """

    __slots__ = ("_uncovered", "_pairs", "_overlaps")

    target: FinSet
    legs: tuple

    def __init__(self, target, legs):
        legs = tuple(legs)
        for i, f in enumerate(legs):
            if f.dst != target:
                raise ValueError(f"leg {i} has target {f.dst!r}, expected {target!r}")
        super().__init__(target, legs)

    def __len__(self):
        return len(self.legs)


def point_cover(target: FinSet) -> CoveringFamily:
    """One leg T -> target per atom; the default cover for bundle checks."""
    t = terminal()
    return CoveringFamily(
        target, [FinMap(t, target, {"*": x}) for x in target])


class GeneratedSieve(Record):
    """The sieve generated by a covering family, kept intensionally."""

    family: CoveringFamily

    @property
    def target(self):
        return self.family.target


def is_effective_epi(f: FinMap) -> bool:
    """f is the coequalizer of its kernel pair.

    Computed by the definition: coequalize the kernel pair, mediate f
    through, and test that the comparison is an iso. In finite sets this is
    surjectivity; the tests compare the two.
    """
    kp = pullback(f, f)
    cert = coequalizer(kp.proj1, kp.proj2)
    comparison = mediate_coequalizer(cert, f)
    return morphism_predicates(comparison).iso


def all_maps(src: FinSet, dst: FinSet):
    """Every map src -> dst, in canonical order."""
    atoms = list(src)
    if not atoms:
        yield FinMap(src, dst, {})
        return
    for values in itertools.product(dst.elements, repeat=len(atoms)):
        yield FinMap(src, dst, dict(zip(atoms, values)))


def small_sets(max_size: int):
    """Canonical test sets {} , {0}, {0,1}, ... up to max_size atoms."""
    return [FinSet(range(n)) for n in range(max_size + 1)]


def is_universal_effective_epi(f: FinMap, sample_budget: int = 20) -> bool:
    """Effective epi, stably under base change: f pulled back along t
    (`pullback_along`) is effective epi for every map t in a deterministic
    sample, all maps from sets of size <= 3 into the target, plus
    sample_budget random maps from larger sets, drawn by `Random(0)`.
    """
    if not is_effective_epi(f):
        return False
    for z in small_sets(3):
        for t in all_maps(z, f.dst):
            if not is_effective_epi(pullback_along(f, t)):
                return False
    rng = random.Random(0)
    for _ in range(sample_budget):
        if len(f.dst) == 0:
            break
        z = FinSet(range(rng.randint(4, 6)))
        t = FinMap(z, f.dst, {a: rng.choice(f.dst.elements) for a in z})
        if not is_effective_epi(pullback_along(f, t)):
            return False
    return True


def family_map(family: CoveringFamily) -> FinMap:
    """The induced map from the coproduct of the sources to the target."""
    cop = coproduct([f.src for f in family.legs])
    return copair(cop, family.legs, dst=family.target)


def uncovered(family: CoveringFamily) -> list:
    """The target atoms no leg hits, in canonical order, found once and
    kept on the family: read the list, never mutate it."""
    return kept_slot(family, "_uncovered", _uncovered, family)


def _uncovered(family: CoveringFamily) -> list:
    hit = set()
    for f in family.legs:
        hit.update(f.table.values())
    return [y for y in family.target if y not in hit]


def is_jointly_surjective(family: CoveringFamily) -> bool:
    """Membership in the canonical topology, decided by its finite-set
    characterization: the legs' images cover the target."""
    return not uncovered(family)


def require_canonical(family: CoveringFamily) -> None:
    """Raise CoverNotCanonical, naming the atoms no leg hits, if any."""
    if missed := uncovered(family):
        raise CoverNotCanonical(list(missed))


def is_canonical_cover(family: CoveringFamily, sample_budget: int = 8) -> bool:
    """Membership in the canonical topology by the definition: the induced
    coproduct map is a universal effective epi. An oracle for
    is_jointly_surjective."""
    return is_universal_effective_epi(family_map(family), sample_budget)


def canonical_cover_cost(family: CoveringFamily) -> int:
    """The base changes `is_canonical_cover` enumerates, along every map into
    the target from a set of at most 3 atoms: Σ_{k≤3} |Y|^k."""
    n = len(family.target)
    return 1 + n + n ** 2 + n ** 3


def pullback_family(family: CoveringFamily, t: FinMap) -> CoveringFamily:
    """Base change of a covering family along t, legs in the same order."""
    if t.dst != family.target:
        raise ValueError(f"{t.dst!r} != {family.target!r}")
    return CoveringFamily(t.src, [pullback_along(f, t) for f in family.legs])


class CechColimit(NamedTuple):
    """Coequalizer of the pairwise-overlap diagram of a family."""

    space: FinSet
    cocone: tuple       # one leg per family leg, U_i -> space
    comparison: FinMap  # mediated map space -> target


def cech_colimit(family: CoveringFamily) -> CechColimit:
    """Realize the colimit of the generated sieve by its Čech diagram:
    coproduct of the legs' sources, coequalized over all pairwise overlaps."""
    legs = family.legs
    c1 = coproduct([f.src for f in legs])
    overlap_parts = []
    d0_parts = []
    d1_parts = []
    for i, fi in enumerate(legs):
        for j, fj in enumerate(legs):
            cert = pullback(fi, fj)
            overlap_parts.append(cert.apex)
            d0_parts.append(compose(c1.injections[i], cert.proj1))
            d1_parts.append(compose(c1.injections[j], cert.proj2))
    c2 = coproduct(overlap_parts)
    d0 = copair(c2, d0_parts, dst=c1.space)
    d1 = copair(c2, d1_parts, dst=c1.space)
    cert = coequalizer(d0, d1)
    comparison = mediate_coequalizer(cert, family_map(family))
    cocone = tuple(compose(cert.proj, inj) for inj in c1.injections)
    return CechColimit(cert.quotient, cocone, comparison)


def is_colim_sieve(s: GeneratedSieve) -> bool:
    """The sieve's colimit (Čech realization) maps isomorphically onto the
    target."""
    return morphism_predicates(cech_colimit(s.family).comparison).iso


def _overlap_certs(family: CoveringFamily):
    legs = family.legs
    return {(i, j): pullback(legs[i], legs[j])
            for i in range(len(legs)) for j in range(len(legs))}


def _is_matching(family, certs, maps) -> bool:
    for (i, j), cert in certs.items():
        si, sj = maps[i], maps[j]
        for (a, b) in cert.apex:
            if si.table[a] != sj.table[b]:
                return False
    return True


def check_sheaf_condition(family: CoveringFamily, a: FinSet) -> bool:
    """Every matching family of maps into `a` glues uniquely through the
    cover.

    A matching family determines the gluing on the union of the images
    (well-defined exactly by the matching condition), so the condition
    reduces to totality and uniqueness of the extension; nothing is
    enumerated. `sheaf_condition_by_enumeration` is the oracle.
    """
    if is_jointly_surjective(family):
        return True
    # an uncovered point exists; matching families exist unless a is empty
    # and some leg source is nonempty
    if len(a) == 0:
        return any(len(f.src) > 0 for f in family.legs)
    return len(a) == 1


def sheaf_enumeration_cost(family: CoveringFamily, a: FinSet) -> int:
    """The maps `sheaf_condition_by_enumeration` builds, within a factor of
    two: the |a|^Σ|U_i| candidate families or the |a|^|Y| candidate
    gluings, whichever are more."""
    n = len(a)
    return max(n ** sum(len(f.src) for f in family.legs), n ** len(family.target))


def sheaf_condition_by_enumeration(family: CoveringFamily, a: FinSet,
                                   bound: int) -> bool:
    """The sheaf condition by definition: every matching candidate family
    has exactly one gluing, counted among all maps on the target by the
    family they restrict to; `bound` guards `sheaf_enumeration_cost`. An
    oracle for check_sheaf_condition."""
    legs = family.legs
    cost = sheaf_enumeration_cost(family, a)
    if cost > bound:
        raise BoundExceeded("matching-family enumeration", cost, bound)
    certs = _overlap_certs(family)
    gluings = Counter(tuple(compose(s, f) for f in legs)
                      for s in all_maps(family.target, a))
    return all(gluings[maps] == 1
               for maps in itertools.product(*[list(all_maps(f.src, a)) for f in legs])
               if _is_matching(family, certs, maps))
