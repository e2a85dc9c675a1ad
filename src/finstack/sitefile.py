"""Site files: a small declaration language for sets, maps, groups, actions,
bundles, covers and descent problems, with a canonical printer.

Loading resolves references in declaration order and pushes every value
through the checking ops it must satisfy; a declaration that fails aborts
the load with ValidationError. Declarations whose status is the question a
command answers (bundle candidates, covers, gluing problems) are checked for
shape only, never for the property itself: a bundle declaration's value is
its projection, certified equivariant; its `src_action` is the total.

Sugar forms (trivial bundles, point covers) materialize their auxiliary
declarations under generated names, so printing a loaded site and parsing it
back yields the same declarations.
"""

from __future__ import annotations

import re

from .action import (
    EquivariantMap,
    FinGroup,
    GAction,
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
        self.decls: list = []
        self.env: dict = {}

    # token plumbing

    def error(self, message: str, at: int) -> SiteSyntaxError:
        return SiteSyntaxError(message, *_where(self.text, at))

    def unexpected(self, wanted: str, at: int) -> SiteSyntaxError:
        t = self.toks[at]
        shown = self.ints.get(t, t) if t else None  # EOF shows as None
        return self.error(f"expected {wanted}, got {shown!r}", at)

    def expect(self, symbol: str) -> None:
        """Consume punctuation or "->" (named 'ARROW' in messages)."""
        if self.toks[self.pos] != symbol:
            raise self.unexpected(repr("ARROW" if symbol == "->" else symbol), self.pos)
        self.pos += 1

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

    def keyword(self, word: str) -> None:
        if self.toks[self.pos] != word:
            raise self.unexpected(repr(word), self.pos)
        self.pos += 1

    def at(self, word: str) -> bool:
        return self.toks[self.pos] == word

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

    def atom_list(self):
        self.expect("{")
        toks = self.toks
        out = []
        while toks[self.pos] != "}":
            out.append(self.atom())
        self.pos += 1
        return out

    def table(self):
        """{ atom -> atom ... } as a raw dict, duplicate keys rejected."""
        start = self.pos
        self.expect("{")
        toks = self.toks
        out = {}
        while toks[self.pos] != "}":
            k = self.atom()
            self.expect("->")
            v = self.atom()
            if k in out:
                raise self.error(f"duplicate entry for {format_atom(k)}", start)
            out[k] = v
        self.pos += 1
        return out

    # symbol table

    def define(self, kind: str, name: str, value, refs=None) -> Decl:
        if name in self.env:
            raise self.error(f"name {name!r} is already declared", self.name_at)
        d = Decl(kind, name, value, refs or {})
        self.env[name] = d
        self.decls.append(d)
        return d

    def ref(self, kinds):
        at = self.pos
        name = self.ident()
        d = self.env.get(name)
        if d is None or d.kind not in kinds:
            raise UnresolvedReference(name, *_where(self.text, at))
        return d, name

    def set_ref(self) -> tuple:
        """A set-position reference: T, a set name, or a group's carrier."""
        if self.at("T") and "T" not in self.env:
            self.pos += 1
            return terminal(), "T"
        d, name = self.ref(("set", "group"))
        space = d.value.carrier if d.kind == "group" else d.value
        return space, name

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
            handler()
        return SiteFile(self.decls)

    def _build(self, name, builder):
        try:
            return builder()
        except (FinstackError, ValueError, KeyError) as err:
            raise ValidationError(name, err) from err

    def decl_set(self):
        name = self.ident()
        self.expect("=")
        atoms = self.atom_list()
        self.define("set", name, self._build(name, lambda: FinSet(atoms)))

    def decl_map(self):
        name = self.ident()
        self.expect(":")
        src, src_name = self.set_ref()
        self.expect("->")
        dst, dst_name = self.set_ref()
        self.expect("=")
        tbl = self.table()
        value = self._build(name, lambda: FinMap(src, dst, tbl))
        self.define("map", name, value, {"src": src_name, "dst": dst_name})

    def decl_group(self):
        name = self.ident()
        self.expect("{")
        self.keyword("elements")
        elements = self.atom_list()
        self.keyword("table")
        self.expect("[")
        rows = []
        while self.toks[self.pos] != "]":
            self.expect("[")
            row = []
            while self.toks[self.pos] != "]":
                row.append(self.atom())
            self.expect("]")
            rows.append(row)
        self.expect("]")
        self.expect("}")
        value = self._build(name, lambda: group_from_table(elements, rows))
        self.define("group", name, value)

    def decl_action(self):
        name = self.ident()
        self.expect("{")
        self.keyword("group")
        gd, g_name = self.ref(("group",))
        group = gd.value
        self.keyword("space")
        space, s_name = self.set_ref()
        if self.at("trivial"):
            self.pos += 1
            value = self._build(name, lambda: trivial_action(group, space))
        elif self.at("regular"):
            self.pos += 1
            if space != group.carrier:
                raise ValidationError(
                    name, ValueError("regular needs the group itself as the space"))
            value = regular_action(group)
        else:
            self.keyword("table")
            tbl = self.table()
            def build():
                return check_action(group, space, FinMap(
                    product_space(group.carrier, space), space, tbl))
            value = self._build(name, build)
        self.expect("}")
        self.define("action", name, value, {"group": g_name, "space": s_name})

    def decl_equivariant(self):
        name = self.ident()
        self.expect("{")
        self.keyword("src")
        sd, s_name = self.ref(("action",))
        self.keyword("dst")
        dd, d_name = self.ref(("action",))
        self.keyword("table")
        tbl = self.table()
        self.expect("}")
        def build():
            fm = FinMap(sd.value.space, dd.value.space, tbl)
            return check_equivariant(fm, sd.value, dd.value)
        value = self._build(name, build)
        self.define("equivariant", name, value, {"src": s_name, "dst": d_name})

    def decl_stack(self):
        name = self.ident()
        self.expect("{")
        self.keyword("group")
        gd, g_name = self.ref(("group",))
        if self.at("classifying"):
            self.pos += 1
            self.expect("}")
            value = self._build(name, lambda: classifying_stack(gd.value))
            self.define("stack", name, value,
                        {"group": g_name, "classifying": True})
            return
        self.keyword("space")
        space, s_name = self.set_ref()
        self.keyword("action")
        ad, a_name = self.ref(("action",))
        self.expect("}")
        act = ad.value
        if act.group != gd.value or act.space != space:
            raise ValidationError(
                name, ValueError("the action does not match the group and space"))
        self.define("stack", name, QuotientStack(gd.value, act),
                    {"group": g_name, "classifying": False,
                     "space": s_name, "action": a_name})

    def decl_bundle(self):
        name = self.ident()
        self.expect("{")
        if self.at("trivial"):
            self.pos += 1
            self.keyword("group")
            gd, g_name = self.ref(("group",))
            self.keyword("base")
            base, b_name = self.set_ref()
            self.expect("}")
            self._materialize_trivial(name, gd.value, g_name, base, b_name)
            return
        self.keyword("action")
        ad, a_name = self.ref(("action",))
        self.keyword("proj")
        pd, p_name = self.ref(("map",))
        self.expect("}")
        def build():
            base = pd.value.dst
            return check_equivariant(pd.value, ad.value,
                                     trivial_action(ad.value.group, base))
        value = self._build(name, build)
        self.define("bundle", name, value, {"action": a_name, "proj": p_name})

    def _materialize_trivial(self, name, group, g_name, base, b_name):
        """Expand `bundle B { trivial group G base Y }` into the product-set,
        action, projection and bundle declarations it abbreviates."""
        b = self._build(name, lambda: trivial_bundle(group, base))
        total_name = f"{name}_total"
        act_name = f"{name}_act"
        proj_name = f"{name}_proj"
        self.define("set", total_name, b.total.space)
        self.define("action", act_name, b.total,
                    {"group": g_name, "space": total_name})
        self.define("map", proj_name, b.proj.map,
                    {"src": total_name, "dst": b_name})
        self.define("bundle", name, b.proj,
                    {"action": act_name, "proj": proj_name})

    def decl_cover(self):
        name = self.ident()
        self.expect("{")
        self.keyword("target")
        target, target_name = self.set_ref()
        if self.at("points"):
            self.pos += 1
            self.expect("}")
            if "T" in self.env and self.env["T"].value != terminal():
                raise self.error(
                    "points sugar needs the name T to stay the one-point set",
                    self.name_at)
            fam = point_cover(target)
            leg_names = []
            for k, leg in enumerate(fam.legs):
                nm = f"{name}_pt{k}"
                self.define("map", nm, leg, {"src": "T", "dst": target_name})
                leg_names.append(nm)
            self.define("cover", name, fam,
                        {"target": target_name, "legs": leg_names})
            return
        self.keyword("legs")
        self.expect("[")
        leg_names = []
        legs = []
        while self.toks[self.pos] != "]":
            d, nm = self.ref(("map",))
            leg_names.append(nm)
            legs.append(d.value)
        self.expect("]")
        self.expect("}")
        value = self._build(name, lambda: CoveringFamily(target, legs))
        self.define("cover", name, value,
                    {"target": target_name, "legs": leg_names})

    def decl_qsobject(self):
        name = self.ident()
        self.expect("{")
        self.keyword("stack")
        sd, s_name = self.ref(("stack",))
        self.keyword("bundle")
        bd, b_name = self.ref(("bundle",))
        self.keyword("alpha")
        stack: QuotientStack = sd.value
        proj: EquivariantMap = bd.value
        total = proj.src_action.space
        if self.at("bang"):
            self.pos += 1
            alpha_ref = "bang"
            if len(stack.space) != 1:
                raise ValidationError(
                    name, ValueError("alpha bang needs a one-point space"))
            pt = stack.space.elements[0]
            alpha = FinMap(total, stack.space, {p: pt for p in total})
        else:
            md, alpha_ref = self.ref(("map",))
            alpha = md.value
        self.expect("}")
        def build():
            if proj.src_action.group != stack.group:
                raise ValueError("bundle and stack use different groups")
            b = is_principal_bundle(proj)
            if isinstance(b, NotBundle):
                raise ValueError(
                    f"not a bundle: fiber over {format_atom(b.base_atom)} {b.reason}")
            return check_qs_object(b, alpha, stack.x_action)
        value = self._build(name, build)
        self.define("qsobject", name, value,
                    {"stack": s_name, "bundle": b_name, "alpha": alpha_ref})

    def decl_datum(self):
        name = self.ident()
        self.expect("=")
        self.keyword("restrict")
        od, o_name = self.ref(("qsobject",))
        self.keyword("over")
        cd, c_name = self.ref(("cover",))
        twist = None
        if self.at("twist"):
            self.pos += 1
            self.expect("(")
            i = self.integer()
            self.expect(",")
            j = self.integer()
            self.expect(")")
            self.keyword("by")
            k = self.atom()
            twist = (i, j, k)
        def build():
            datum = restrict_to_datum(od.value, cd.value)
            if twist is None:
                return datum
            i, j, k = twist
            if not (0 <= i < len(cd.value.legs) and 0 <= j < len(cd.value.legs)):
                raise ValueError("twist indexes a missing leg")
            if k not in od.value.bundle.group.carrier:
                raise ValueError(f"{format_atom(k)} is not a group element")
            return twist_overlap(datum, i, j, k)
        value = self._build(name, build)
        self.define("datum", name, value,
                    {"obj": o_name, "cover": c_name, "twist": twist})

    def decl_gluing(self):
        name = self.ident()
        self.expect("{")
        self.keyword("cover")
        cd, c_name = self.ref(("cover",))
        self.keyword("src")
        xd, x_name = self.ref(("qsobject",))
        self.keyword("dst")
        yd, y_name = self.ref(("qsobject",))
        self.keyword("locals")
        self.expect("[")
        tables = []
        while self.toks[self.pos] != "]":
            tables.append(self.table())
        self.expect("]")
        self.expect("}")
        cover: CoveringFamily = cd.value
        def build():
            if len(tables) != len(cover.legs):
                raise ValueError("need exactly one local table per leg")
            locals_ = []
            for leg, tbl in zip(cover.legs, tables):
                src = restrict(xd.value, leg)
                dst = restrict(yd.value, leg)
                locals_.append(check_qs_morphism(
                    src, dst, FinMap(src.total, dst.total, tbl)))
            return GluingCase(cover, xd.value, yd.value, tuple(locals_))
        value = self._build(name, build)
        self.define("gluing", name, value,
                    {"cover": c_name, "src": x_name, "dst": y_name})

    def decl_classify(self):
        name = self.ident()
        self.expect("{")
        self.keyword("group")
        gd, g_name = self.ref(("group",))
        self.keyword("base")
        base, b_name = self.set_ref()
        self.expect("}")
        self.define("classify", name, ClassifyTask(gd.value, base),
                    {"group": g_name, "base": b_name})


def parse_site(text: str) -> SiteFile:
    return _Parser(text).parse()


def load_site(path) -> SiteFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_site(fh.read())


# ------------------------------------------------------------------ printer

def _fmt_entries(table: dict, key_order) -> list:
    return [f"{format_atom(k)} -> {format_atom(table[k])}" for k in key_order]


def _block_table(entries, indent: str) -> str:
    if len(entries) <= 4:
        inner = "  ".join(entries)
        return "{ " + inner + " }" if entries else "{ }"
    body = "\n".join(f"{indent}  {e}" for e in entries)
    return "{\n" + body + "\n" + indent + "}"


def _render(d: Decl) -> str:
    r = d.refs
    if d.kind == "set":
        atoms = " ".join(format_atom(a) for a in d.value)
        return f"set {d.name} = {{ {atoms} }}" if len(d.value) else f"set {d.name} = {{ }}"
    if d.kind == "map":
        entries = _fmt_entries(d.value.table, d.value.src.elements)
        return (f"map {d.name} : {r['src']} -> {r['dst']} = "
                + _block_table(entries, ""))
    if d.kind == "group":
        g: FinGroup = d.value
        elems = " ".join(format_atom(a) for a in g.carrier)
        rows = []
        for a in g.carrier:
            row = " ".join(format_atom(g.times(a, b)) for b in g.carrier)
            rows.append(f"    [ {row} ]")
        return (f"group {d.name} {{\n  elements {{ {elems} }}\n  table [\n"
                + "\n".join(rows) + "\n  ]\n}")
    if d.kind == "action":
        a: GAction = d.value
        entries = _fmt_entries(a.act.table, a.act.src.elements)
        return (f"action {d.name} {{\n  group {r['group']}\n  space {r['space']}\n"
                f"  table " + _block_table(entries, "  ") + "\n}")
    if d.kind == "equivariant":
        m: EquivariantMap = d.value
        entries = _fmt_entries(m.map.table, m.map.src.elements)
        return (f"equivariant {d.name} {{\n  src {r['src']}\n  dst {r['dst']}\n"
                f"  table " + _block_table(entries, "  ") + "\n}")
    if d.kind == "stack":
        if r.get("classifying"):
            return f"stack {d.name} {{ group {r['group']} classifying }}"
        return (f"stack {d.name} {{ group {r['group']} space {r['space']} "
                f"action {r['action']} }}")
    if d.kind == "bundle":
        return f"bundle {d.name} {{ action {r['action']} proj {r['proj']} }}"
    if d.kind == "cover":
        legs = " ".join(r["legs"])
        return f"cover {d.name} {{ target {r['target']} legs [ {legs} ] }}"
    if d.kind == "qsobject":
        return (f"qsobject {d.name} {{ stack {r['stack']} bundle {r['bundle']} "
                f"alpha {r['alpha']} }}")
    if d.kind == "datum":
        base = f"datum {d.name} = restrict {r['obj']} over {r['cover']}"
        if r.get("twist") is not None:
            i, j, k = r["twist"]
            return base + f" twist ({i} , {j}) by {format_atom(k)}"
        return base
    if d.kind == "gluing":
        case: GluingCase = d.value
        blocks = []
        for loc in case.locals_:
            entries = _fmt_entries(loc.fn.table, loc.fn.src.elements)
            blocks.append("    " + _block_table(entries, "    "))
        return (f"gluing {d.name} {{\n  cover {r['cover']}\n  src {r['src']}\n"
                f"  dst {r['dst']}\n  locals [\n" + "\n".join(blocks) + "\n  ]\n}")
    if d.kind == "classify":
        return f"classify {d.name} {{ group {r['group']} base {r['base']} }}"
    raise ValueError(f"no renderer for kind {d.kind!r}")


def format_site(site: SiteFile) -> str:
    return "\n".join(_render(d) for d in site.decls) + "\n"
