"""Finite sets and total maps, with the limits and colimits the rest of the
package is built from.

Atoms are ints, strings, or tuples of atoms. Derived constructions name their
atoms canonically: products and pullbacks use pair tuples (a, b), coproducts
use Tag(part, atom), coequalizers pick the least representative of each class.
Everything is deterministic: same inputs, byte-for-byte same outputs.

The public `FinSet(...)` sorts its atoms by `atom_key`. The derived sets
(products, pullbacks, coproducts, coequalizer quotients) are canonical by
construction: the kernels emit their atoms already in `atom_key` order and
build the set with the internal `FinSet._ordered`, which skips the sort but
still rejects duplicates by the frozenset that then serves as the set's
membership index. A pullback's apex is built another way: `pullback_along`
writes its projection table first, keyed by the pairs in canonical order,
and `FinSet._keyed` takes the apex from that table's keys, which are
distinct, so no duplicate scan runs and the keys view is the index. Each
kernel runs in time linear in its inputs and output. In the same way the public `FinMap(...)` checks that its table's
keys are exactly the source atoms and its values lie in the target, while
the maps whose tables are exact by their formula (`identity`, `compose`,
the projections of `product` and `pullback`, and elsewhere the tables of
base change, restriction and the model actions) are built by the internal
`exact_map`, which skips that check. The pullback's hash join is one
kernel, `pullback_along`, unmemoized and returning the second projection
alone: base change calls it directly, and `pullback` wraps it with the
first projection into a memoized `PullbackCert`. A table that only some
callers read, such as the action of a base change, its base's trivial
action and a restriction's alpha, is built by `deferred_map` the first
time its source or table is read.

Skipped checks are not lost. Each construction that skips a certifier
passes what it built and that certifier to `cross_check`, the one reader
of the switch `CrossCheck.on` (off by default, `desc --cross-check` turns
it on): off, it returns the value; on, it re-runs the certifier first and
raises RuntimeError when the two disagree: an internal fault, never a
verdict.

FinSet and FinMap are read-only after construction: each computes its hash
on first use, then caches it, and a FinSet is equal to itself without a
walk of its atoms. Never mutate `elements` or `table`.

Derived structures live on what they derive from, in one of two ways. A
value derived from one object is kept in a slot on that object: a map
keeps its fibers, which refer to no map, in its `_fibers` slot, as it keeps
its hash, and a record keeps such values in slots outside its fields by
`kept_slot` (a cover its overlaps and gaps, a group its generators and
torsor structures). A value built from two inputs is kept by `memo` (here
`product_space`, `product`, `pullback`; elsewhere `restrict`,
`trivial_action`), which stores each result in the `_memo` slot of the
younger FinSet or FinMap of the two, younger by the creation serial
`_born`, so a long-lived set such as `terminal()` or a group's carrier
never collects entries for short-lived data. The one rule: an entry holds
its arguments and its result by weak references, so it closes no
reference cycle, what a caller drops dies by reference counting without
the cyclic collector, and a result nobody holds is built again. The memo
looks its arguments up by identity, never by value: a lookup hashes no
table, and a hit needs the very arguments of the entry, so two equal
values built separately do not share results.
`fn.cache_info()` reports the hits and misses of every call since import.
The one global cache is `terminal()`'s, which holds a constant.

The certified records built on these (`FinGroup`, `GAction`, `Bundle`,
`QSObject`, `CoveringFamily`, `DescentDatum`, ...) are `Record` subclasses:
frozen, equal by their field tuple within one class, and hashed by the hash
of that tuple, computed on first use and then kept. A record declares its
fields once, as annotations; the one `Record.__init__` takes their values
in that order, so importing the package generates and compiles no code; a
`desc` process pays for interpreter start, this import and the site load
before its first verdict.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from typing import Iterable, NamedTuple, Union

from .errors import NotCoequalized

Atom = Union[int, str, tuple]


class Tag(NamedTuple):
    """A coproduct atom: `atom` from part number `part`."""

    part: int
    atom: Atom


def atom_key(a):
    """Sort key giving a total order on atoms: ints, then strs, then tuples."""
    if isinstance(a, int):
        return (0, a)
    if isinstance(a, str):
        return (1, a)
    # from a list, so the tuple is built at its size: one grown from a
    # generator is resized, and on release fills CPython's tuple free list
    return (2, tuple([atom_key(x) for x in a]))


def format_atom(a) -> str:
    if isinstance(a, Tag):
        return f"{a.part}·{format_atom(a.atom)}"
    if isinstance(a, tuple):
        return "(" + ",".join(format_atom(x) for x in a) + ")"
    return str(a)


_serial = itertools.count()


class FinSet:
    """An explicit finite set of atoms, kept in canonical sorted order.

    `elements` is the tuple of atoms; `_index`, a frozenset of them or the
    keys view of the table they were taken from (`_keyed`), answers `in`.
    The hash, that of `elements`, is computed on first use and kept.
    """

    __slots__ = ("elements", "_index", "_hash", "_born", "_memo", "__weakref__")

    def __init__(self, elements: Iterable[Atom] = ()):
        self._set(tuple(sorted(elements, key=atom_key)))

    @classmethod
    def _ordered(cls, elems) -> FinSet:
        """A FinSet from atoms the caller already emits in canonical order.

        Internal to this module's kernels: the order is trusted, not checked.
        """
        s = object.__new__(cls)
        s._set(tuple(elems))
        return s

    @classmethod
    def _keyed(cls, table: dict) -> FinSet:
        """The FinSet of a table's keys, which the caller inserted in
        canonical order. Keys are distinct, so there is no duplicate to
        scan for, and the keys view is the membership index.

        Internal to this module's kernels: the order is trusted, not checked.
        """
        s = object.__new__(cls)
        keys = table.keys()
        s.elements, s._index = tuple(keys), keys
        s._hash, s._born, s._memo = None, next(_serial), None
        return s

    def _set(self, elems: tuple) -> None:
        index = frozenset(elems)
        if len(index) != len(elems):
            seen = set()
            for a in elems:
                if a in seen:
                    raise ValueError(f"duplicate atom {format_atom(a)}")
                seen.add(a)
        self.elements = elems
        self._index = index
        self._hash = None
        self._born = next(_serial)
        self._memo = None

    def __contains__(self, a) -> bool:
        return a in self._index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, FinSet)
                                 and self.elements == other.elements)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.elements)
        return self._hash

    def __reduce__(self):
        # copy and pickle rebuild from the atoms: no index, hash or memo
        return FinSet._ordered, (self.elements,)

    def __repr__(self) -> str:
        return "{" + " ".join(format_atom(a) for a in self.elements) + "}"


class FinMap:
    """A total map between finite sets, given by an explicit table.

    The constructor copies and checks the table (`exact_map` takes a table
    built for it); it is read-only afterwards.
    """

    __slots__ = ("src", "dst", "table", "_hash", "_fibers", "_born", "_memo", "__weakref__")

    def __init__(self, src: FinSet, dst: FinSet, table):
        table = dict(table)
        # an index is a frozenset or a keys view: both compare as sets with
        # a keys view, and answer `in`
        if len(table) != len(src) or not table.keys() <= src._index:
            raise ValueError("table keys must be exactly the source atoms")
        if not all(map(dst._index.__contains__, table.values())):
            for a, v in table.items():
                if v not in dst:
                    raise ValueError(
                        f"table value {format_atom(v)} at {format_atom(a)} not in target")
        self._set(src, dst, table)

    def _set(self, src: FinSet, dst: FinSet, table: dict) -> None:
        self.src, self.dst, self.table = src, dst, table
        self._hash = self._fibers = None
        self._born = next(_serial)
        self._memo = None

    def __call__(self, a):
        return self.table[a]

    def __eq__(self, other) -> bool:
        return (isinstance(other, FinMap) and self.src == other.src
                and self.dst == other.dst and self.table == other.table)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.src, self.dst,
                               tuple(self.table[a] for a in self.src)))
        return self._hash

    def __reduce__(self):
        # copy and pickle rebuild a plain map from the values, built if deferred
        return FinMap, (self.src, self.dst, self.table)

    def __repr__(self) -> str:
        if len(self.src) <= 6:
            body = " ".join(
                f"{format_atom(a)}->{format_atom(self.table[a])}" for a in self.src)
            return f"FinMap({body} : {self.src!r} -> {self.dst!r})"
        return f"FinMap(|{len(self.src)}| -> |{len(self.dst)}|)"


class CrossCheck:
    """The cross-check switch and its tally since import.

    Off, a construction whose result is lawful by its formula skips the
    certifier that would confirm it. On, `cross_check` re-runs that
    certifier on the value it built; `desc` also runs its definitional
    oracles beside the deciders. `cross_check` reads `on` at the time of
    each call.
    """

    on = False
    ran = 0
    agreed = 0


def cross_check(what: str, built, again, *args):
    """Return `built`, a value lawful by its formula. Only under
    `CrossCheck.on` is the skipped certifier re-run: `again(*args)` must
    return a value equal to `built`, else this raises RuntimeError, an
    internal fault. No construction reads the switch but through here."""
    if not CrossCheck.on:
        return built
    CrossCheck.ran += 1
    try:
        checked = again(*args)
    except Exception as err:
        raise RuntimeError(f"cross-check of {what} failed: {err}") from err
    if checked != built:
        raise RuntimeError(f"cross-check of {what} disagrees: {checked!r} != {built!r}")
    CrossCheck.agreed += 1
    return built


def exact_map(src: FinSet, dst: FinSet, table: dict) -> FinMap:
    """A FinMap from a fresh table the caller builds, by its formula, with
    exactly the source atoms as keys and values in the target.

    Internal to the package's constructions: the table is taken, not
    copied, and not checked; under cross-check `FinMap` checks it.
    """
    m = object.__new__(FinMap)
    m._set(src, dst, table)
    return cross_check("a constructed table", m, FinMap, src, dst, table)


class _DeferredMap(FinMap):
    """A FinMap whose `src` and `table` slots stay unset until one of them
    is read: the lookup then falls through to `__getattr__`, which builds
    the map once, fills both slots and drops the thunk, so every later read
    is a plain slot read, and `==`, `hash` and `repr` read through it."""

    __slots__ = ("_build",)

    def __getattr__(self, name):
        if name != "src" and name != "table":
            raise AttributeError(name)
        built = self._build()
        self.src, self.table = built.src, built.table
        self._build = None
        return built.src if name == "src" else built.table


def deferred_map(dst: FinSet, build) -> FinMap:
    """A FinMap into `dst` whose source and table come from `build()`, a
    FinMap into `dst`, the first time either is read; a table nothing reads
    is never built. Internal to the package's constructions, for tables
    lawful by their formula that `build` writes through `exact_map`."""
    m = object.__new__(_DeferredMap)
    m._build = build
    m.dst, m._hash, m._fibers, m._born, m._memo = dst, None, None, next(_serial), None
    return m


# the code flags of a function that takes *args or **kwargs
_CO_VARARGS, _CO_VARKEYWORDS = 0x04, 0x08


class MemoInfo(NamedTuple):
    hits: int
    misses: int


def memo(holders=None):
    """Memoize a function of two FinSets or FinMaps on the younger.

    The candidates are the arguments themselves, or, for arguments that only
    hold FinSets and FinMaps, the two that `holders(a, b)` returns. The
    entry is stored in the younger candidate's `_memo` dict under the key
    (wrapper, id(a), id(b)), so it dies with that object. Exceptions are not
    stored. A function of another shape raises TypeError at decoration,
    since it could not be keyed by its arguments: a value derived from one
    object is kept on that object instead, as `fibers` and `kept_slot` do.

    The rule: an entry holds each argument and its result by a weak
    reference, so it keeps nothing alive and closes no reference cycle. A
    hit needs every reference to return the very argument, so equal values
    built separately miss and an id a dead argument left behind never hits,
    and it needs the result alive: a result that nobody holds is built
    again.
    """
    def decorate(fn):
        code = fn.__code__
        if (code.co_argcount != 2 or code.co_kwonlyargcount
                or code.co_flags & (_CO_VARARGS | _CO_VARKEYWORDS)):
            raise TypeError(f"memo keys two positional arguments, "
                            f"not the signature of {fn.__qualname__}")
        hits = misses = 0
        ref = weakref.ref

        @functools.wraps(fn)
        def wrapper(a, b):
            nonlocal hits, misses
            if holders is None:
                owner = b if b._born > a._born else a
            else:
                ha, hb = holders(a, b)
                owner = hb if hb._born > ha._born else ha
            key = (wrapper, id(a), id(b))
            table = owner._memo
            if table is None:
                table = owner._memo = {}
            else:
                entry = table.get(key)
                if entry is not None:
                    (ra, rb), held = entry
                    out = held()
                    if out is not None and ra() is a and rb() is b:
                        hits += 1
                        return out
            misses += 1
            out = fn(a, b)
            table[key] = ((ref(a), ref(b)), ref(out))
            return out

        wrapper.cache_info = lambda: MemoInfo(hits, misses)
        wrapper.memoized_on_youngest = True
        return wrapper

    return decorate


set_field = object.__setattr__   # how a record sets past its frozen __setattr__


def kept_slot(record, name: str, build, *args):
    """The value a record keeps in its non-field slot `name`, made by
    `build(*args)` on first use: for values built from the fields that are
    not fields themselves, so equality, hash and repr never read them, and
    a copy starts without it. Shared by every caller: only the function
    that keeps it there adds to it."""
    try:
        return getattr(record, name)
    except AttributeError:
        value = build(*args)
        set_field(record, name, value)
        return value


class Record:
    """Base of the frozen records: a subclass annotates its fields, in order,
    and is built positionally, one value per field.

    Nothing is generated at import: the one `__init__` here checks the number
    of values and sets each field with `set_field`, in the order of
    `__match_args__`. A subclass that validates its values (CoveringFamily,
    DescentDatum) ends its own `__init__` in this one.

    A record has `__match_args__`, equality by the field tuple between
    instances of the same class, a hash equal to the hash of the field
    tuple, computed on first use and then kept in the `_hash` slot, a
    `Name(field=value, ...)` repr unless it defines one, and it raises
    AttributeError on assigning or deleting an attribute. A record with an
    unhashable field is unhashable.
    """

    __slots__ = ("_hash", "__dict__", "__weakref__")

    def __init_subclass__(cls):
        names = cls.__dict__.get("__annotations__")
        if names:   # else a subclass of a record, with its fields
            cls.__match_args__ = tuple(names)

    def __init__(self, *values):
        names = self.__match_args__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__qualname__} takes {len(names)} values "
                            f"({', '.join(names)}), got {len(values)}")
        # an index rather than zip: the cheaper loop per record, and records
        # are built on every hot path
        i = 0
        for name in names:
            set_field(self, name, values[i])
            i += 1

    def __eq__(self, other):
        # the instance dict holds exactly the fields
        if other.__class__ is self.__class__:
            return self is other or self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(tuple(getattr(self, n) for n in self.__match_args__))
            set_field(self, "_hash", h)
            return h

    def __getstate__(self):
        # what copy.copy restores: the fields, into the instance dict; the
        # cached hash is left out, since restoring its slot would go
        # through the frozen __setattr__
        return self.__dict__

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def identity(a: FinSet) -> FinMap:
    return exact_map(a, a, {x: x for x in a})


def compose(g: FinMap, f: FinMap) -> FinMap:
    """g after f: keyed by f's source atoms, with values in g's target,
    since f lands in g's source."""
    if f.dst != g.src:
        raise ValueError(f"cannot compose: {f.dst!r} != {g.src!r}")
    return exact_map(f.src, g.dst, {a: g.table[f.table[a]] for a in f.src})


@functools.lru_cache(maxsize=1)
def terminal() -> FinSet:
    return FinSet(("*",))


# built at import, the oldest set: never the younger argument that a memo
# entry is stored on, it keeps no entry for an argument that dies first
terminal()


def bang(a: FinSet) -> FinMap:
    """The unique map to the terminal set."""
    return FinMap(a, terminal(), {x: "*" for x in a})


def fibers(f: FinMap) -> dict:
    """The nonempty fibers of f, keyed by image, each a tuple in canonical
    order, built once and kept in f's `_fibers` slot. Shared by every
    caller: read it, never mutate it."""
    out = f._fibers
    if out is None:
        over: dict = {}
        for a in f.src:
            over.setdefault(f.table[a], []).append(a)
        out = f._fibers = {y: tuple(atoms) for y, atoms in over.items()}
    return out


def fiber(f: FinMap, y) -> tuple:
    """Atoms of src sent to y, in canonical order."""
    return fibers(f).get(y, ())


def is_mono(f: FinMap) -> bool:
    return len(set(f.table.values())) == len(f.src)


def is_epi(f: FinMap) -> bool:
    return set(f.table.values()) == set(f.dst.elements)


class MapPredicates(NamedTuple):
    mono: bool
    epi: bool
    iso: bool


def morphism_predicates(f: FinMap) -> MapPredicates:
    m, e = is_mono(f), is_epi(f)
    return MapPredicates(m, e, m and e)


def invert(f: FinMap) -> FinMap:
    if not (is_mono(f) and is_epi(f)):
        raise ValueError("cannot invert a non-bijective map")
    return FinMap(f.dst, f.src, {v: a for a, v in f.table.items()})


# ------------------------------------------------------------------ limits ---

class Product(Record):
    """A product with its projections."""

    space: FinSet
    proj1: FinMap
    proj2: FinMap


@memo()
def product_space(a: FinSet, b: FinSet) -> FinSet:
    """The set of pairs (x, y) of product(a, b), without its projections:
    what a caller that only walks or indexes the pairs needs."""
    return FinSet._ordered([(x, y) for x in a for y in b])


@memo()
def product(a: FinSet, b: FinSet) -> Product:
    """Cartesian product with pair atoms (x, y); its space is
    product_space(a, b)."""
    space = product_space(a, b)
    return Product(
        space,
        exact_map(space, a, {p: p[0] for p in space}),
        exact_map(space, b, {p: p[1] for p in space}),
    )


class PullbackCert(Record):
    """Pullback of f and g: apex of pairs (a, b) with f(a) = g(b)."""

    apex: FinSet
    proj1: FinMap
    proj2: FinMap
    f: FinMap
    g: FinMap


def pullback_along(f: FinMap, g: FinMap) -> FinMap:
    """f pulled back along g: the second projection P ×_Y Z -> Z of the
    pullback of f and g, by a hash join, unmemoized. The fibers of g, each
    in canonical order, are looked up once per atom of f.src, so the pairs
    come out in canonical order. When g hits at most one atom y, the apex is
    f's fiber over y times g.src, read from f's kept fibers without walking
    f.src. The apex is the projection's source, the keys of its table."""
    if f.dst != g.dst:
        raise ValueError(f"{f.dst!r} != {g.dst!r}")
    over = fibers(g)
    if len(over) <= 1:
        table = {(a, b): b for y, bs in over.items()
                 for a in fibers(f).get(y, ()) for b in bs}
    else:
        table = {(a, b): b for a in f.src for b in over.get(f.table[a], ())}
    return exact_map(FinSet._keyed(table), g.src, table)


@memo()
def pullback(f: FinMap, g: FinMap) -> PullbackCert:
    """The pullback of f and g: `pullback_along` with the first projection."""
    proj2 = pullback_along(f, g)
    apex = proj2.src
    # the kernel pair of a mono is its diagonal, where both projections are
    # one map: share the object, so results memoized on it serve both
    if f is g and len(apex) == len(f.src):
        proj1 = proj2
    else:
        proj1 = exact_map(apex, f.src, {p: p[0] for p in apex})
    return PullbackCert(apex, proj1, proj2, f, g)


# ---------------------------------------------------------------- colimits ---

class Coproduct(NamedTuple):
    space: FinSet
    injections: tuple


def coproduct(parts: Iterable[FinSet]) -> Coproduct:
    """Disjoint union with atoms Tag(i, a)."""
    parts = tuple(parts)
    space = FinSet._ordered([Tag(i, a) for i, p in enumerate(parts) for a in p])
    injections = tuple(
        FinMap(p, space, {a: Tag(i, a) for a in p}) for i, p in enumerate(parts))
    return Coproduct(space, injections)


def copair(cop: Coproduct, maps, dst: FinSet | None = None) -> FinMap:
    """The map out of a coproduct assembled from one map per part."""
    maps = tuple(maps)
    if len(maps) != len(cop.injections):
        raise ValueError("need exactly one map per coproduct part")
    if dst is None:
        if not maps:
            raise ValueError("empty coproduct needs an explicit target")
        dst = maps[0].dst
    table = {}
    for i, (inj, h) in enumerate(zip(cop.injections, maps)):
        if h.dst != dst:
            raise ValueError(f"part {i} lands in {h.dst!r}, expected {dst!r}")
        if h.src != inj.src:
            raise ValueError(f"part {i} has source {h.src!r}, expected {inj.src!r}")
        for a in inj.src:
            table[Tag(i, a)] = h.table[a]
    return FinMap(cop.space, dst, table)


class _UnionFind:
    """Union-find over a canonical atom sequence with path compression;
    rank-free, sizes are tiny. Every root is the earliest atom of its class,
    so representatives are the canonical least ones."""

    def __init__(self, atoms):
        self.parent = {a: a for a in atoms}
        self.position = {a: i for i, a in enumerate(atoms)}

    def find(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if self.position[rb] < self.position[ra]:
                ra, rb = rb, ra
            self.parent[rb] = ra


class CoequalizerCert(NamedTuple):
    """Coequalizer of a parallel pair: quotient by the generated relation."""

    gamma1: FinMap
    gamma2: FinMap
    quotient: FinSet
    proj: FinMap


def coequalizer(gamma1: FinMap, gamma2: FinMap) -> CoequalizerCert:
    if gamma1.src != gamma2.src or gamma1.dst != gamma2.dst:
        raise ValueError("coequalizer needs a parallel pair")
    uf = _UnionFind(gamma1.dst)
    for a in gamma1.src:
        uf.union(gamma1.table[a], gamma2.table[a])
    proj_table = {a: uf.find(a) for a in gamma1.dst}
    quotient = FinSet._ordered([a for a, r in proj_table.items() if a == r])
    return CoequalizerCert(
        gamma1, gamma2, quotient, FinMap(gamma1.dst, quotient, proj_table))


def mediate_coequalizer(cert: CoequalizerCert, d: FinMap) -> FinMap:
    """The unique m with m ∘ proj = d, for d coequalizing the pair."""
    if d.src != cert.proj.src:
        raise ValueError(f"{d.src!r} != {cert.proj.src!r}")
    for a in cert.gamma1.src:
        left, right = d.table[cert.gamma1.table[a]], d.table[cert.gamma2.table[a]]
        if left != right:
            raise NotCoequalized(a, left, right)
    # class representatives are atoms of d's source, so evaluate d on them
    return FinMap(cert.quotient, d.dst, {q: d.table[q] for q in cert.quotient})
