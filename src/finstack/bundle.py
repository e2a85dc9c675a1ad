"""Principal G-bundles over finite sets: the torsor-fiber decider, local
triviality certificates, base change, and bundle morphisms.

A bundle is an equivariant map onto a trivially-acted base whose fibers are
G-torsors; that is what `is_principal_bundle` decides and all a `Bundle`
stores. Local triviality by definition (a canonical cover and, per leg, an
equivariant iso from the pulled-back action to the trivialized model G×U_i
over U_i) is kept as an oracle, `is_locally_trivial` with
`check_trivialization`, that the tests compare with the decider. The trivial
model, the enumerated bundles (streamed) and base changes are bundles by
their formulas: `constructed_bundle` re-runs on them only under cross-check.
Each of them lies over `trivial_action(G, base)`, the one trivial action.
The torsor structures the enumeration draws from are found once per group
and kept on it.

`bundle_count` and `bundle_morphism_count` count the bundles and the
morphisms in closed form, with no bound: only oracles and tests enumerate
them, and `enumerate_bundles` and `enumerate_bundle_morphisms` refuse, by
BoundExceeded, a count past their own `bound`.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple, Optional, Union

from .action import (
    EquivariantMap,
    FinGroup,
    GAction,
    check_action,
    check_equivariant,
    gset_isomorphism_over,
    product_action,
    pullback_action,
    trivial_action,
)
from .errors import BoundExceeded, TriangleFail
from .finset import (
    FinMap,
    FinSet,
    Record,
    compose,
    cross_check,
    deferred_map,
    exact_map,
    fibers,
    kept_slot,
    morphism_predicates,
    product,
    product_space,
    pullback,
    pullback_along,
)
from .topology import (
    CoveringFamily,
    require_canonical,
)


class TrivLeg(NamedTuple):
    """Per-leg trivialization: the pullback square over U_i and the
    equivariant iso phi from its apex onto the model G×U_i."""

    leg_index: int
    cert: object        # PullbackCert of (proj, leg)
    phi: FinMap         # apex -> G×U_i


class Trivialization(Record):
    cover: CoveringFamily
    legs: tuple


class NotTrivial(Record):
    """Witness that no trivializing iso exists over the given leg."""

    leg_index: int


class NotBundle(Record):
    """Witness that some fiber is not a G-torsor."""

    base_atom: object
    reason: str


class Bundle(Record):
    """A certified principal bundle: its fibers are G-torsors."""

    group: FinGroup
    base: FinSet
    total: GAction
    proj: EquivariantMap

    def __repr__(self):
        return f"Bundle(|{len(self.total.space)}| -> {self.base!r})"


def _require_trivial_base(proj: EquivariantMap) -> None:
    if any(gy != y for (_, y), gy in proj.dst_action.act.table.items()):
        raise ValueError("the base must carry the trivial action")


def _induced_action(proj: EquivariantMap, f: FinMap):
    """The action of proj pulled back along f onto the apex of the pullback
    of (proj, f), by the general `pullback_action`."""
    triv = trivial_action(proj.src_action.group, f.src)
    return pullback_action(proj.src_action, triv, proj.dst_action, proj,
                           check_equivariant(f, triv, proj.dst_action))


def is_locally_trivial(proj: EquivariantMap,
                       cover: CoveringFamily) -> Union[Trivialization, NotTrivial]:
    """Search a trivializing iso over every leg of the cover.

    Raises CoverNotCanonical unless the cover is canonical. Returns the
    certificate, or NotTrivial naming the first leg with no iso.
    """
    _require_trivial_base(proj)
    if cover.target != proj.map.dst:
        raise ValueError(f"cover target {cover.target!r} != base {proj.map.dst!r}")
    require_canonical(cover)
    group = proj.src_action.group
    legs = []
    for i, f in enumerate(cover.legs):
        cert = pullback(proj.map, f)
        phi = gset_isomorphism_over(_induced_action(proj, f), product_action(group, f.src),
                                    cert.proj2, product(group.carrier, f.src).proj2)
        if phi is None:
            return NotTrivial(i)
        legs.append(TrivLeg(i, cert, phi))
    return Trivialization(cover, tuple(legs))


def check_trivialization(proj: EquivariantMap, triv: Trivialization) -> None:
    """Re-verify a stored certificate: each phi is an equivariant iso over
    its leg. Linear in the stored tables."""
    group = proj.src_action.group
    for leg in triv.legs:
        f = triv.cover.legs[leg.leg_index]
        psi, theta = _induced_action(proj, f), product_action(group, f.src)
        if not morphism_predicates(leg.phi).iso:
            raise ValueError(f"stored phi over leg {leg.leg_index} is not an iso")
        check_equivariant(leg.phi, psi, theta)
        if compose(product(group.carrier, f.src).proj2, leg.phi) != leg.cert.proj2:
            raise TriangleFail(leg.leg_index, "trivialization-base")


def _torsor_fibers(proj: EquivariantMap) -> Optional[NotBundle]:
    """The bundlehood decider: every fiber must be a free transitive G-set.

    proj is equivariant onto a trivially acted base, so each orbit stays in
    its fiber. A fiber of |G| atoms is then a torsor exactly when the orbit
    of its least atom has |G| atoms: that orbit is the whole fiber, and a
    transitive action with one trivial stabilizer has all of them trivial.
    A smaller orbit means that atom has a nontrivial stabilizer, so the
    fiber is reported as not free.
    """
    act = proj.src_action.act.table
    carrier = proj.src_action.group.carrier
    n = len(carrier)
    fibs = fibers(proj.map)
    for x in proj.map.dst:
        fib = fibs.get(x, ())
        if len(fib) != n:
            return NotBundle(x, f"fiber has {len(fib)} atoms, expected {n}")
        if len({act[(g, fib[0])] for g in carrier}) != n:
            return NotBundle(x, "fiber action is not free")
    return None


def is_principal_bundle(proj: EquivariantMap) -> Union[Bundle, NotBundle]:
    """Decide bundlehood by the torsor fibers."""
    _require_trivial_base(proj)
    witness = _torsor_fibers(proj)
    if witness is not None:
        return witness
    return Bundle(proj.src_action.group, proj.map.dst, proj.src_action, proj)


def constructed_bundle(total: GAction, proj: FinMap) -> Bundle:
    """Certify a projection built to be a bundle: equivariant from `total`
    onto the trivially acted base, and with torsor fibers. A failure is an
    internal fault, not a verdict."""
    eq = check_equivariant(proj, total, trivial_action(total.group, proj.dst))
    out = is_principal_bundle(eq)
    if isinstance(out, NotBundle):
        raise RuntimeError(f"a constructed projection is not a bundle: {out}")
    return out


def formula_bundle(what: str, act: FinMap, proj: FinMap, base: GAction) -> Bundle:
    """The bundle with action table `act` and projection `proj` onto the
    trivially acted `base`, for a caller whose formula makes it one. Under
    cross-check `check_action` and `constructed_bundle` re-run."""
    total = GAction(base.group, proj.src, act)
    return cross_check(
        what, Bundle(base.group, proj.dst, total, EquivariantMap(proj, total, base)),
        lambda: constructed_bundle(check_action(base.group, proj.src, act), proj))


def trivial_bundle(group: FinGroup, base: FinSet) -> Bundle:
    """The trivialized model G×X with the second projection: G acts on each
    fiber G×{x} by left multiplication, freely and transitively."""
    return formula_bundle("the trivialized model bundle", product_action(group, base).act,
                           product(group.carrier, base).proj2, trivial_action(group, base))


def pullback_bundle(b: Bundle, f: FinMap) -> Bundle:
    """Base change of a bundle along f: the action h·(p, z) = (h·p, z) on
    P×_Y Z over Z, with the second projection.

    It is a bundle by its formula, so no certifier runs: (h·p, z) stays in
    the pullback because b's projection is equivariant onto a trivially
    acted base; h acts as on P, so both action laws hold; the projection
    keeps z, so it is equivariant onto the trivially acted Z; and the fiber
    over z is b's fiber over f(z), a G-torsor, paired with z. Under
    cross-check, `check_action` and `constructed_bundle` re-run on it.

    The space and projection come from `pullback_along`, the pullback's
    join without its memo and without the first projection, which nothing
    here reads: `restrict`'s memo already answers a repeated base change.
    Most base changes are read only through their projection and space, so
    the |G|·|P ×_Y Z| action table is a `deferred_map`, written the first
    time something reads it (b's own table is read only then), and Z
    carries `trivial_action(G, Z)`, whose table is deferred the same way."""
    if f.dst != b.base:
        raise ValueError(f"{f.dst!r} != {b.base!r}")
    proj = pullback_along(b.proj.map, f)
    # the thunk captures the apex and b's table, never f
    group, apex, parent = b.group, proj.src, b.total.act

    def build():
        at = parent.table
        src = product_space(group.carrier, apex)
        return exact_map(src, apex, {k: (at[(h, p)], z) for k in src for h, (p, z) in (k,)})

    return formula_bundle("a base change", deferred_map(apex, build), proj,
                           trivial_action(group, f.src))


class BundleMorphism(Record):
    """A certified map fn of bundles over a common base; src and dst fix
    its totals and their actions."""

    src: Bundle
    dst: Bundle
    fn: FinMap

    def __repr__(self):
        return f"BundleMorphism({self.src!r} => {self.dst!r})"


def check_bundle_morphism(src: Bundle, dst: Bundle, m: FinMap) -> BundleMorphism:
    """Certify equivariance and the triangle over the base."""
    if src.group != dst.group:
        raise ValueError("bundles are for different groups")
    if src.base != dst.base:
        raise ValueError(f"{src.base!r} != {dst.base!r}")
    for p in src.total.space:
        if dst.proj.map.table[m.table[p]] != src.proj.map.table[p]:
            raise TriangleFail(p, "proj")
    check_equivariant(m, src.total, dst.total)
    return BundleMorphism(src, dst, m)


def fiber_map(src: Bundle, dst: Bundle, image: dict) -> FinMap:
    """The map g·p0 ↦ g·image[y] over the common base, p0 the least atom of
    src's fiber over y: the fibers are G-torsors, so it is the one
    equivariant map with those images. `enumerate_bundle_morphisms` takes
    it as a morphism, certified only under cross-check; the other callers
    certify it."""
    sa, da = src.total.act.table, dst.total.act.table
    return exact_map(src.total.space, dst.total.space, {
        sa[(g, fib[0])]: da[(g, image[y])]
        for y, fib in fibers(src.proj.map).items() for g in src.group.carrier})


def bundle_morphism_count(group: FinGroup, base: FinSet) -> int:
    """|G|^|base|, the morphisms between two bundles over the base, one per
    image of each fiber's least atom."""
    return len(group.carrier) ** len(base)


def enumerate_bundle_morphisms(src: Bundle, dst: Bundle,
                               bound: int = 65536) -> list:
    """All bundle morphisms src => dst, built from one image per fiber.

    The fibers are G-torsors, so a morphism over the base is fixed by where
    it sends p0, the least atom of each src fiber: choosing q0 in the dst
    fiber over the same base atom gives the `fiber_map` g·p0 ↦ g·q0: exactly
    |G|^|base| maps, which the bound counts. Each is a morphism by its
    formula: it lies over the base, since g·q0 lies in the dst fiber over
    the same atom, and it is equivariant, since h·(g·p0) = (hg)·p0 goes to
    (hg)·q0. So the record is built without `check_bundle_morphism`, which
    re-runs under cross-check, where a failure is an internal fault.

    The maps come in `topology.all_maps` order, lexicographic in the
    canonical positions of the images of src's atoms. Two choices first
    differ at the least p0 among the fibers where they differ, and there the
    images are their q0s. So the product over the fibers, taken in the order
    of their p0 with each q0 in canonical order, is already that order.
    """
    if src.group != dst.group:
        raise ValueError("bundles are for different groups")
    if src.base != dst.base:
        raise ValueError(f"{src.base!r} != {dst.base!r}")
    count = bundle_morphism_count(src.group, src.base)
    if count > bound:
        raise BoundExceeded("bundle-morphism enumeration", count, bound)
    bases = list(fibers(src.proj.map))
    dst_fibers = fibers(dst.proj.map)
    out = []
    for choice in itertools.product(*(dst_fibers[y] for y in bases)):
        m = fiber_map(src, dst, dict(zip(bases, choice)))
        out.append(cross_check("a constructed bundle morphism", BundleMorphism(src, dst, m),
                               check_bundle_morphism, src, dst, m))
    return out


def bundle_count(group: FinGroup, base: FinSet) -> int:
    """((|G|-1)!)^|base|, the bundles on the canonical total set, one torsor
    structure per base atom."""
    return math.factorial(len(group.carrier) - 1) ** len(base)


def torsor_structures(group: FinGroup) -> tuple:
    """The distinct free transitive actions of G on its own carrier,
    as act tables; there are (|G|-1)! of them. Found once and kept on the
    group: read the tables, never mutate them.

    A bijection b of the carrier gives the torsor g·h = b(g·b⁻¹(h)), and two
    give the same one exactly when they differ by a right translation. So
    the b that fix the least atom are one per structure, and in the
    lexicographic order of all permutations they are the first appearances.
    """
    return kept_slot(group, "_torsors", _torsor_structures, group)


def _torsor_structures(group: FinGroup) -> tuple:
    atoms = list(group.carrier)
    tables = []
    for rest in itertools.permutations(atoms[1:]):
        b = dict(zip(atoms, (atoms[0],) + rest))
        binv = {v: k for k, v in b.items()}
        tables.append({(g, h): b[group.times(g, binv[h])]
                       for g in atoms for h in atoms})
    # every table is filled in the same (g, h) order, so its values
    # identify it
    if len({tuple(t.values()) for t in tables}) != len(tables):
        raise RuntimeError("two torsor structures coincide")
    return tuple(tables)


def enumerate_bundles(group: FinGroup, base: FinSet,
                      bound: int = 65536) -> Iterator[Bundle]:
    """All principal G-bundles on the canonical total set G×base with the
    canonical projection, as an iterator that builds each when reached (the
    bound and the setup run at the call); up to iso, every bundle over the
    base, since a balanced projection relabels to the canonical one along a
    fiber-preserving bijection (as the tests exercise). Each is a bundle by
    its formula g·(h, x) = (s_x(g, h), x), s_x the torsor structure chosen
    over x: a free transitive action, so both action laws hold fiberwise and
    each fiber is a G-torsor, and the second projection keeps x, so it is
    equivariant onto the trivially acted base."""
    count = bundle_count(group, base)
    if count > bound:
        raise BoundExceeded("bundle enumeration", count, bound)
    prod = product(group.carrier, base)
    # the one bundle over the empty base uses none of the structures
    structures = torsor_structures(group) if len(base) else ()
    src = product_space(group.carrier, prod.space)

    def bundle(choice):
        s = {x: structures[k] for x, k in zip(base, choice)}
        return formula_bundle("an enumerated bundle", exact_map(
            src, prod.space, {k: (s[x][(g, h)], x) for k in src for g, (h, x) in (k,)}),
            prod.proj2, trivial_action(group, base))

    return map(bundle, itertools.product(range(len(structures)), repeat=len(base)))
