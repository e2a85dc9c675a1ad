"""Site files: a small declaration language for sets, maps, groups, actions,
bundles, covers and descent problems, with a canonical printer.

Loading resolves references in declaration order and pushes every value
through the checking ops it must satisfy; a declaration that fails aborts
the load with ValidationError. Declarations whose status is the question a
command answers (bundle candidates, covers, gluing problems) are checked for
shape only, never for the property itself: a bundle declaration's value is
its projection, certified equivariant; its `src_action` is the total.

A declaration's refs are the names it read, keyed by the keyword that
introduced them (a map's sets by `src` and `dst`) in the order read; the
printer writes each declaration from its value and its refs. Sugar forms
(trivial bundles, point covers) materialize their auxiliary declarations
under generated names, so printing a loaded site and parsing it back yields
the same declarations.
"""

from __future__ import annotations

import re

from .action import (
    EquivariantMap,
    FinGroup,
    check_action,
    check_equivariant,
    group_from_table,
    regular_action,
    trivial_action,
)
from .bundle import NotBundle, is_principal_bundle, trivial_bundle
from .descent import restrict_to_datum, twist_overlap
from .errors import (
    FinstackError,
    SiteSyntaxError,
    UnresolvedReference,
    ValidationError,
)
from .finset import (
    FinMap,
    FinSet,
    Record,
    format_atom,
    product_space,
    terminal,
)
from .stack import (
    QSObject,
    QuotientStack,
    check_qs_morphism,
    check_qs_object,
    classifying_stack,
    restrict,
)
from .topology import CoveringFamily, point_cover


class GluingCase(Record):
    """A glue-morphisms problem: locals between two objects' restrictions."""

    cover: CoveringFamily
    src: QSObject
    dst: QSObject
    locals_: tuple


class ClassifyTask(Record):
    group: FinGroup
    base: FinSet


class Decl:
    def __init__(self, kind: str, name: str, value, refs: dict):
        self.kind = kind
        self.name = name
        self.value = value
        self.refs = refs


class SiteFile:
    def __init__(self, decls: list):
        self.decls = decls
        self.env = {d.name: d for d in decls}

    def by_kind(self, kind: str):
        return [d for d in self.decls if d.kind == kind]

    def __getitem__(self, name: str) -> Decl:
        return self.env[name]


# ---------------------------------------------------------------- tokenizer

# One match per token, layout run or comment; only a token fills the group:
# a run of decimal digits (INT), a word that starts with no decimal digit
# (IDENT if it starts with a letter or "_"), "->", or any other character,
# which the alphabet check accepts only as punctuation.
_TOKEN = re.compile(r"[ \t\r\n]+|#[^\n]*|(\d+|[^\W\d]\w*|->|.)")
_SYMBOLS = frozenset(("{", "}", "[", "]", "(", ")", ",", "=", ":", "*", "->"))
# tokens that cannot start an atom; "" is EOF
_NOT_ATOM = frozenset(("{", "}", "[", "]", ")", ",", "=", ":", "->", ""))


def _tokenize(text: str) -> tuple:
    """The token strings of `text` followed by "" for EOF, and the value of
    each distinct INT spelling among them. The alphabet is checked before
    anything is parsed, so the first stray character is reported before any
    parse error."""
    toks = list(filter(None, _TOKEN.findall(text)))
    ints, bad = {}, []
    for t in set(toks):
        if t.isdecimal():
            ints[t] = int(t)
        elif not (t in _SYMBOLS or t[0].isalpha() or t[0] == "_"):
            bad.append(t)
    if bad:
        at = min(map(toks.index, bad))
        c = toks[at][0]
        message = "stray '-'" if c == "-" else f"unexpected character {c!r}"
        raise SiteSyntaxError(message, *_where(text, at))
    toks.append("")
    return toks, ints


def _where(text: str, index: int) -> tuple:
    """(line, column) of token `index`, rescanning `text` up to it. EOF sits
    at the end of the text, or at the start of a final unterminated comment."""
    offset = len(text)
    for m in _TOKEN.finditer(text):
        if m.group(1):
            if index == 0:
                offset = m.start()
                break
            index -= 1
        elif m.end() == len(text) and m.group().startswith("#"):
            offset = m.start()
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# ------------------------------------------------------------------- parser

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks, self.ints = _tokenize(text)
        self.pos = 0
        self.name_at = 0  # token index of the current declaration's name
        self.refs: dict = {}  # the names the current declaration has read
        self.decls: list = []
        self.env: dict = {}

    # token plumbing

    def error(self, message: str, at: int) -> SiteSyntaxError:
        return SiteSyntaxError(message, *_where(self.text, at))

    def unexpected(self, wanted: str, at: int) -> SiteSyntaxError:
        t = self.toks[at]
        shown = self.ints.get(t, t) if t else None  # EOF shows as None
        return self.error(f"expected {wanted}, got {shown!r}", at)

    def expect(self, tok: str) -> None:
        """Consume a keyword, punctuation or "->" (named 'ARROW' in messages)."""
        if self.toks[self.pos] != tok:
            raise self.unexpected(repr("ARROW" if tok == "->" else tok), self.pos)
        self.pos += 1

    def accept(self, tok: str) -> bool:
        """Consume `tok` if it comes next."""
        if self.toks[self.pos] != tok:
            return False
        self.pos += 1
        return True

    def ident(self) -> str:
        t = self.toks[self.pos]
        if not t or t in _SYMBOLS or t in self.ints:
            raise self.unexpected("'IDENT'", self.pos)
        self.pos += 1
        return t

    def integer(self) -> int:
        v = self.ints.get(self.toks[self.pos])
        if v is None:
            raise self.unexpected("'INT'", self.pos)
        self.pos += 1
        return v

    def items(self, open_: str, close: str, item) -> list:
        """`open_ item ... close`, each item read by `item()`."""
        self.expect(open_)
        out = []
        while not self.accept(close):
            out.append(item())
        return out

    # atoms and tables

    def atom(self):
        t = self.toks[self.pos]
        self.pos += 1
        if t == "(":
            a = self.atom()
            self.expect(",")
            b = self.atom()
            self.expect(")")
            return (a, b)
        v = self.ints.get(t)
        if v is not None:
            return v
        if t in _NOT_ATOM:
            raise self.unexpected("an atom", self.pos - 1)
        return t

    def table(self):
        """{ atom -> atom ... } as a raw dict, duplicate keys rejected."""
        start = self.pos
        self.expect("{")
        out = {}
        while not self.accept("}"):
            k = self.atom()
            self.expect("->")
            v = self.atom()
            if k in out:
                raise self.error(f"duplicate entry for {format_atom(k)}", start)
            out[k] = v
        return out

    # symbol table

    def define(self, kind: str, name: str, value, refs=None) -> None:
        """Declare `name`, its refs the names read so far unless given."""
        if name in self.env:
            raise self.error(f"name {name!r} is already declared", self.name_at)
        d = Decl(kind, name, value, self.refs if refs is None else refs)
        self.env[name] = d
        self.decls.append(d)

    def ref(self, kinds, key=None) -> Decl:
        """A NAME declared as one of `kinds`, kept in refs[key] if given."""
        at = self.pos
        name = self.ident()
        d = self.env.get(name)
        if d is None or d.kind not in kinds:
            raise UnresolvedReference(name, *_where(self.text, at))
        if key:
            self.refs[key] = name
        return d

    def field(self, word: str, kinds):
        """`word NAME`: the value NAME declares, its name kept in refs[word]."""
        self.expect(word)
        return self.ref(kinds, word).value

    def set_ref(self, key: str) -> FinSet:
        """A name in set position, kept in refs[key]: T, a set, or a group's
        carrier."""
        if "T" not in self.env and self.accept("T"):
            self.refs[key] = "T"
            return terminal()
        d = self.ref(("set", "group"), key)
        return d.value.carrier if d.kind == "group" else d.value

    def set_field(self, word: str) -> FinSet:
        self.expect(word)
        return self.set_ref(word)

    # declarations

    def parse(self) -> SiteFile:
        toks = self.toks
        while toks[self.pos]:
            t = toks[self.pos]
            if t in _SYMBOLS or t in self.ints:
                raise self.unexpected("a declaration", self.pos)
            handler = getattr(self, f"decl_{t}", None)
            if handler is None:
                raise self.error(f"unknown declaration {t!r}", self.pos)
            self.pos += 1
            self.name_at = self.pos
            self.refs = {}
            handler(self.ident())
        return SiteFile(self.decls)

    def _build(self, name, builder):
        try:
            return builder()
        except (FinstackError, ValueError, KeyError) as err:
            raise ValidationError(name, err) from err

    def decl_set(self, name):
        self.expect("=")
        atoms = self.items("{", "}", self.atom)
        self.define("set", name, self._build(name, lambda: FinSet(atoms)))

    def decl_map(self, name):
        self.expect(":")
        src = self.set_ref("src")
        self.expect("->")
        dst = self.set_ref("dst")
        self.expect("=")
        tbl = self.table()
        self.define("map", name, self._build(name, lambda: FinMap(src, dst, tbl)))

    def decl_group(self, name):
        self.expect("{")
        self.expect("elements")
        elements = self.items("{", "}", self.atom)
        self.expect("table")
        rows = self.items("[", "]", lambda: self.items("[", "]", self.atom))
        self.expect("}")
        value = self._build(name, lambda: group_from_table(elements, rows))
        self.define("group", name, value)

    def decl_action(self, name):
        self.expect("{")
        group = self.field("group", ("group",))
        space = self.set_field("space")
        if self.accept("trivial"):
            value = self._build(name, lambda: trivial_action(group, space))
        elif self.accept("regular"):
            if space != group.carrier:
                raise ValidationError(
                    name, ValueError("regular needs the group itself as the space"))
            value = regular_action(group)
        else:
            self.expect("table")
            tbl = self.table()
            def build():
                return check_action(group, space, FinMap(
                    product_space(group.carrier, space), space, tbl))
            value = self._build(name, build)
        self.expect("}")
        self.define("action", name, value)

    def decl_equivariant(self, name):
        self.expect("{")
        src = self.field("src", ("action",))
        dst = self.field("dst", ("action",))
        self.expect("table")
        tbl = self.table()
        self.expect("}")
        def build():
            return check_equivariant(FinMap(src.space, dst.space, tbl), src, dst)
        self.define("equivariant", name, self._build(name, build))

    def decl_stack(self, name):
        self.expect("{")
        group = self.field("group", ("group",))
        if self.accept("classifying"):
            self.refs["classifying"] = True
            self.expect("}")
            self.define("stack", name, self._build(name, lambda: classifying_stack(group)))
            return
        space = self.set_field("space")
        act = self.field("action", ("action",))
        self.expect("}")
        if act.group != group or act.space != space:
            raise ValidationError(
                name, ValueError("the action does not match the group and space"))
        self.define("stack", name, QuotientStack(group, act))

    def decl_bundle(self, name):
        self.expect("{")
        if self.accept("trivial"):
            group = self.field("group", ("group",))
            base = self.set_field("base")
            self.expect("}")
            self._materialize_trivial(name, group, base)
            return
        act = self.field("action", ("action",))
        proj = self.field("proj", ("map",))
        self.expect("}")
        def build():
            return check_equivariant(proj, act, trivial_action(act.group, proj.dst))
        self.define("bundle", name, self._build(name, build))

    def _materialize_trivial(self, name, group, base):
        """Expand `bundle B { trivial group G base Y }` into the product-set,
        action, projection and bundle declarations it abbreviates."""
        b = self._build(name, lambda: trivial_bundle(group, base))
        total_name = f"{name}_total"
        act_name = f"{name}_act"
        proj_name = f"{name}_proj"
        self.define("set", total_name, b.total.space, {})
        self.define("action", act_name, b.total,
                    {"group": self.refs["group"], "space": total_name})
        self.define("map", proj_name, b.proj.map,
                    {"src": total_name, "dst": self.refs["base"]})
        self.define("bundle", name, b.proj,
                    {"action": act_name, "proj": proj_name})

    def decl_cover(self, name):
        self.expect("{")
        target = self.set_field("target")
        if self.accept("points"):
            self.expect("}")
            if "T" in self.env and self.env["T"].value != terminal():
                raise self.error(
                    "points sugar needs the name T to stay the one-point set",
                    self.name_at)
            fam = point_cover(target)
            legs = [f"{name}_pt{k}" for k in range(len(fam.legs))]
            for nm, leg in zip(legs, fam.legs):
                self.define("map", nm, leg, {"src": "T", "dst": self.refs["target"]})
        else:
            self.expect("legs")
            maps = self.items("[", "]", lambda: self.ref(("map",)))
            self.expect("}")
            legs = [d.name for d in maps]
            fam = self._build(name, lambda: CoveringFamily(target, [d.value for d in maps]))
        self.refs["legs"] = legs
        self.define("cover", name, fam)

    def decl_qsobject(self, name):
        self.expect("{")
        stack: QuotientStack = self.field("stack", ("stack",))
        proj: EquivariantMap = self.field("bundle", ("bundle",))
        total = proj.src_action.space
        self.expect("alpha")
        if self.accept("bang"):
            self.refs["alpha"] = "bang"
            if len(stack.space) != 1:
                raise ValidationError(
                    name, ValueError("alpha bang needs a one-point space"))
            pt = stack.space.elements[0]
            alpha = FinMap(total, stack.space, {p: pt for p in total})
        else:
            alpha = self.ref(("map",), "alpha").value
        self.expect("}")
        def build():
            if proj.src_action.group != stack.group:
                raise ValueError("bundle and stack use different groups")
            b = is_principal_bundle(proj)
            if isinstance(b, NotBundle):
                raise ValueError(
                    f"not a bundle: fiber over {format_atom(b.base_atom)} {b.reason}")
            return check_qs_object(b, alpha, stack.x_action)
        self.define("qsobject", name, self._build(name, build))

    def decl_datum(self, name):
        self.expect("=")
        obj = self.field("restrict", ("qsobject",))
        cover = self.field("over", ("cover",))
        twist = None
        if self.accept("twist"):
            self.expect("(")
            i = self.integer()
            self.expect(",")
            j = self.integer()
            self.expect(")")
            self.expect("by")
            twist = self.refs["twist"] = (i, j, self.atom())
        def build():
            datum = restrict_to_datum(obj, cover)
            if twist is None:
                return datum
            i, j, k = twist
            if not (0 <= i < len(cover.legs) and 0 <= j < len(cover.legs)):
                raise ValueError("twist indexes a missing leg")
            if k not in obj.bundle.group.carrier:
                raise ValueError(f"{format_atom(k)} is not a group element")
            return twist_overlap(datum, i, j, k)
        self.define("datum", name, self._build(name, build))

    def decl_gluing(self, name):
        self.expect("{")
        cover: CoveringFamily = self.field("cover", ("cover",))
        x = self.field("src", ("qsobject",))
        y = self.field("dst", ("qsobject",))
        self.expect("locals")
        tables = self.items("[", "]", self.table)
        self.expect("}")
        def build():
            for obj in (x, y):
                if cover.target != obj.base:
                    raise ValueError(f"cover is over {cover.target!r}, object over {obj.base!r}")
            if len(tables) != len(cover.legs):
                raise ValueError("need exactly one local table per leg")
            locals_ = []
            for leg, tbl in zip(cover.legs, tables):
                src = restrict(x, leg)
                dst = restrict(y, leg)
                locals_.append(check_qs_morphism(
                    src, dst, FinMap(src.total, dst.total, tbl)))
            return GluingCase(cover, x, y, tuple(locals_))
        self.define("gluing", name, self._build(name, build))

    def decl_classify(self, name):
        self.expect("{")
        group = self.field("group", ("group",))
        base = self.set_field("base")
        self.expect("}")
        self.define("classify", name, ClassifyTask(group, base))


def parse_site(text: str) -> SiteFile:
    return _Parser(text).parse()


def load_site(path) -> SiteFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_site(fh.read())


# ------------------------------------------------------------------ printer

def _block_table(fn: FinMap, indent: str) -> str:
    """A map's table in its source's order: up to 4 entries on one line,
    else one a line."""
    entries = [f"{format_atom(k)} -> {format_atom(fn.table[k])}" for k in fn.src.elements]
    if len(entries) <= 4:
        inner = "  ".join(entries)
        return "{ " + inner + " }" if entries else "{ }"
    body = "\n".join(f"{indent}  {e}" for e in entries)
    return "{\n" + body + "\n" + indent + "}"


# the declarations printed on one line, as `kind NAME { word ref ... }`
_ONE_LINE = frozenset(("stack", "bundle", "cover", "qsobject", "classify"))


def _field(word: str, ref) -> str:
    """A ref as the field that read it: a flag is its word alone, a list of
    names is bracketed."""
    if ref is True:
        return word
    if isinstance(ref, list):
        return f"{word} [ {' '.join(ref)} ]"
    return f"{word} {ref}"


def _render(d: Decl) -> str:
    r = d.refs
    if d.kind in _ONE_LINE:
        return f"{d.kind} {d.name} {{ {' '.join(_field(w, v) for w, v in r.items())} }}"
    fields = "".join(f"  {_field(w, v)}\n" for w, v in r.items())
    if d.kind == "set":
        atoms = " ".join(format_atom(a) for a in d.value)
        return f"set {d.name} = {{ {atoms} }}" if len(d.value) else f"set {d.name} = {{ }}"
    if d.kind == "map":
        return f"map {d.name} : {r['src']} -> {r['dst']} = " + _block_table(d.value, "")
    if d.kind == "group":
        g: FinGroup = d.value
        elems = " ".join(format_atom(a) for a in g.carrier)
        rows = []
        for a in g.carrier:
            row = " ".join(format_atom(g.times(a, b)) for b in g.carrier)
            rows.append(f"    [ {row} ]")
        return (f"group {d.name} {{\n  elements {{ {elems} }}\n  table [\n"
                + "\n".join(rows) + "\n  ]\n}")
    if d.kind in ("action", "equivariant"):
        fn = d.value.act if d.kind == "action" else d.value.map
        return f"{d.kind} {d.name} {{\n{fields}  table {_block_table(fn, '  ')}\n}}"
    if d.kind == "datum":
        line = f"datum {d.name} = restrict {r['restrict']} over {r['over']}"
        if "twist" in r:
            i, j, k = r["twist"]
            line += f" twist ({i} , {j}) by {format_atom(k)}"
        return line
    if d.kind == "gluing":
        blocks = ["    " + _block_table(loc.fn, "    ") for loc in d.value.locals_]
        return f"gluing {d.name} {{\n{fields}  locals [\n" + "\n".join(blocks) + "\n  ]\n}"
    raise ValueError(f"no renderer for kind {d.kind!r}")


def format_site(site: SiteFile) -> str:
    return "\n".join(_render(d) for d in site.decls) + "\n"
