"""Site files: a small declaration language for sets, maps, groups, actions,
bundles, covers and descent problems, with a canonical printer.

Loading resolves references in declaration order and pushes every value
through the checking ops it must satisfy; a declaration that fails aborts
the load with ValidationError. Declarations whose status is the question a
command answers (bundle candidates, covers, gluing problems) are checked for
shape only, never for the property itself.

Sugar forms (trivial bundles, point covers) materialize their auxiliary
declarations under generated names, so printing a loaded site and parsing it
back yields the same declarations.
"""

from __future__ import annotations


from .action import (
    EquivariantMap,
    FinGroup,
    GAction,
    check_action,
    check_equivariant,
    group_from_table,
    product_action,
    regular_action,
    trivial_action,
)
from .bundle import NotBundle, is_principal_bundle
from .descent import DescentDatum, restrict_to_datum
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
    product,
    set_field,
    terminal,
)
from .stack import (
    QSObject,
    QuotientStack,
    check_qs_morphism,
    check_qs_object,
    classifying_stack,
    compose_qs,
    constant_gauge,
    restrict,
)
from .topology import CoveringFamily, point_cover


class BundleCandidate(Record):
    """A declared would-be bundle: an action with an equivariant map down to
    a trivially acted base. Whether it is principal is check-bundle's call."""

    total: GAction
    proj: EquivariantMap

    def __init__(self, total, proj):
        set_field(self, "total", total)
        set_field(self, "proj", proj)

    @property
    def group(self) -> FinGroup:
        return self.total.group

    @property
    def base(self) -> FinSet:
        return self.proj.map.dst


class GluingCase(Record):
    """A glue-morphisms problem: locals between two objects' restrictions."""

    cover: CoveringFamily
    src: QSObject
    dst: QSObject
    locals_: tuple

    def __init__(self, cover, src, dst, locals_):
        set_field(self, "cover", cover)
        set_field(self, "src", src)
        set_field(self, "dst", dst)
        set_field(self, "locals_", locals_)


class ClassifyTask(Record):
    group: FinGroup
    base: FinSet

    def __init__(self, group, base):
        set_field(self, "group", group)
        set_field(self, "base", base)


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

_PUNCT = ("{", "}", "[", "]", "(", ")", ",", "=", ":", "*")


class _Token:
    __slots__ = ("type", "value", "line", "col")

    def __init__(self, type_, value, line, col):
        self.type = type_
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str):
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "-":
            if i + 1 < n and text[i + 1] == ">":
                toks.append(_Token("ARROW", "->", line, col))
                i += 2
                col += 2
                continue
            raise SiteSyntaxError("stray '-'", line, col)
        if c in _PUNCT:
            toks.append(_Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("INT", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise SiteSyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(_Token("EOF", None, line, col))
    return toks


# ------------------------------------------------------------------- parser

class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.decls: list = []
        self.env: dict = {}

    # token plumbing

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, type_: str) -> _Token:
        t = self.advance()
        if t.type != type_:
            raise SiteSyntaxError(f"expected {type_!r}, got {t.value!r}", t.line, t.col)
        return t

    def ident(self) -> str:
        return self.expect("IDENT").value

    def keyword(self, word: str) -> None:
        t = self.advance()
        if t.type != "IDENT" or t.value != word:
            raise SiteSyntaxError(f"expected {word!r}, got {t.value!r}", t.line, t.col)

    def at(self, word: str) -> bool:
        t = self.peek()
        return t.type == "IDENT" and t.value == word

    # atoms and tables

    def atom(self):
        t = self.advance()
        if t.type == "INT":
            return t.value
        if t.type == "IDENT":
            return t.value
        if t.type == "*":
            return "*"
        if t.type == "(":
            a = self.atom()
            self.expect(",")
            b = self.atom()
            self.expect(")")
            return (a, b)
        raise SiteSyntaxError(f"expected an atom, got {t.value!r}", t.line, t.col)

    def atom_list(self):
        self.expect("{")
        out = []
        while self.peek().type != "}":
            out.append(self.atom())
        self.expect("}")
        return out

    def table(self):
        """{ atom -> atom ... } as a raw dict, duplicate keys rejected."""
        t0 = self.expect("{")
        out = {}
        while self.peek().type != "}":
            k = self.atom()
            self.expect("ARROW")
            v = self.atom()
            if k in out:
                raise SiteSyntaxError(f"duplicate entry for {format_atom(k)}",
                                      t0.line, t0.col)
            out[k] = v
        self.expect("}")
        return out

    # symbol table

    def define(self, kind: str, name: str, value, refs=None, where=None) -> Decl:
        if name in self.env:
            line, col = where if where else (0, 0)
            raise SiteSyntaxError(f"name {name!r} is already declared", line, col)
        d = Decl(kind, name, value, refs or {})
        self.env[name] = d
        self.decls.append(d)
        return d

    def lookup(self, name: str, kinds, where) -> Decl:
        d = self.env.get(name)
        if d is None or d.kind not in kinds:
            raise UnresolvedReference(name, where[0], where[1])
        return d

    def set_ref(self) -> tuple:
        """A set-position reference: T, a set name, or a group's carrier."""
        t = self.expect("IDENT")
        if t.value == "T" and "T" not in self.env:
            return terminal(), "T"
        d = self.lookup(t.value, ("set", "group"), (t.line, t.col))
        space = d.value.carrier if d.kind == "group" else d.value
        return space, t.value

    def ref(self, kinds):
        t = self.expect("IDENT")
        return self.lookup(t.value, kinds, (t.line, t.col)), t.value

    # declarations

    def parse(self) -> SiteFile:
        while self.peek().type != "EOF":
            t = self.peek()
            if t.type != "IDENT":
                raise SiteSyntaxError(f"expected a declaration, got {t.value!r}",
                                      t.line, t.col)
            handler = getattr(self, f"decl_{t.value}", None)
            if handler is None:
                raise SiteSyntaxError(f"unknown declaration {t.value!r}", t.line, t.col)
            self.advance()
            handler()
        return SiteFile(self.decls)

    def _build(self, name, where, builder):
        try:
            return builder()
        except (FinstackError, ValueError, KeyError) as err:
            raise ValidationError(name, err) from err

    def decl_set(self):
        t = self.expect("IDENT")
        self.expect("=")
        atoms = self.atom_list()
        value = self._build(t.value, t, lambda: FinSet(atoms))
        if len(value) != len(atoms):
            raise SiteSyntaxError(f"set {t.value!r} repeats an atom", t.line, t.col)
        self.define("set", t.value, value, where=(t.line, t.col))

    def decl_map(self):
        t = self.expect("IDENT")
        self.expect(":")
        src, src_name = self.set_ref()
        self.expect("ARROW")
        dst, dst_name = self.set_ref()
        self.expect("=")
        tbl = self.table()
        value = self._build(t.value, t, lambda: FinMap(src, dst, tbl))
        self.define("map", t.value, value,
                    {"src": src_name, "dst": dst_name}, (t.line, t.col))

    def decl_group(self):
        t = self.expect("IDENT")
        self.expect("{")
        self.keyword("elements")
        elements = self.atom_list()
        self.keyword("table")
        self.expect("[")
        rows = []
        while self.peek().type != "]":
            self.expect("[")
            row = []
            while self.peek().type != "]":
                row.append(self.atom())
            self.expect("]")
            rows.append(row)
        self.expect("]")
        self.expect("}")
        value = self._build(t.value, t, lambda: group_from_table(elements, rows))
        self.define("group", t.value, value, where=(t.line, t.col))

    def decl_action(self):
        t = self.expect("IDENT")
        self.expect("{")
        self.keyword("group")
        gd, g_name = self.ref(("group",))
        group = gd.value
        self.keyword("space")
        space, s_name = self.set_ref()
        if self.at("trivial"):
            self.advance()
            value = self._build(t.value, t, lambda: trivial_action(group, space))
        elif self.at("regular"):
            self.advance()
            if space != group.carrier:
                raise ValidationError(
                    t.value, ValueError("regular needs the group itself as the space"))
            value = regular_action(group)
        else:
            self.keyword("table")
            tbl = self.table()
            def build():
                prod = product(group.carrier, space)
                return check_action(group, space, FinMap(prod.space, space, tbl))
            value = self._build(t.value, t, build)
        self.expect("}")
        self.define("action", t.value, value,
                    {"group": g_name, "space": s_name}, (t.line, t.col))

    def decl_equivariant(self):
        t = self.expect("IDENT")
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
        value = self._build(t.value, t, build)
        self.define("equivariant", t.value, value,
                    {"src": s_name, "dst": d_name}, (t.line, t.col))

    def decl_stack(self):
        t = self.expect("IDENT")
        self.expect("{")
        self.keyword("group")
        gd, g_name = self.ref(("group",))
        if self.at("classifying"):
            self.advance()
            self.expect("}")
            value = self._build(t.value, t, lambda: classifying_stack(gd.value))
            self.define("stack", t.value, value,
                        {"group": g_name, "classifying": True}, (t.line, t.col))
            return
        self.keyword("space")
        space, s_name = self.set_ref()
        self.keyword("action")
        ad, a_name = self.ref(("action",))
        self.expect("}")
        act = ad.value
        if act.group != gd.value or act.space != space:
            raise ValidationError(
                t.value, ValueError("the action does not match the group and space"))
        self.define("stack", t.value, QuotientStack(gd.value, act),
                    {"group": g_name, "classifying": False,
                     "space": s_name, "action": a_name}, (t.line, t.col))

    def decl_bundle(self):
        t = self.expect("IDENT")
        self.expect("{")
        if self.at("trivial"):
            self.advance()
            self.keyword("group")
            gd, g_name = self.ref(("group",))
            self.keyword("base")
            base, b_name = self.set_ref()
            self.expect("}")
            self._materialize_trivial(t, gd.value, g_name, base, b_name)
            return
        self.keyword("action")
        ad, a_name = self.ref(("action",))
        self.keyword("proj")
        pd, p_name = self.ref(("map",))
        self.expect("}")
        def build():
            base = pd.value.dst
            eq = check_equivariant(pd.value, ad.value,
                                   trivial_action(ad.value.group, base))
            return BundleCandidate(ad.value, eq)
        value = self._build(t.value, t, build)
        self.define("bundle", t.value, value,
                    {"action": a_name, "proj": p_name}, (t.line, t.col))

    def _materialize_trivial(self, t, group, g_name, base, b_name):
        """Expand `bundle B { trivial group G base Y }` into the product-set,
        action, projection and bundle declarations it abbreviates."""
        where = (t.line, t.col)
        prod = product(group.carrier, base)
        total_name = f"{t.value}_total"
        act_name = f"{t.value}_act"
        proj_name = f"{t.value}_proj"
        self.define("set", total_name, prod.space, where=where)
        act = self._build(t.value, t, lambda: product_action(group, base))
        self.define("action", act_name, act,
                    {"group": g_name, "space": total_name}, where)
        self.define("map", proj_name, prod.proj2,
                    {"src": total_name, "dst": b_name}, where)
        eq = self._build(t.value, t,
                         lambda: check_equivariant(
                             prod.proj2, act, trivial_action(group, base)))
        self.define("bundle", t.value, BundleCandidate(act, eq),
                    {"action": act_name, "proj": proj_name}, where)

    def decl_cover(self):
        t = self.expect("IDENT")
        self.expect("{")
        self.keyword("target")
        target, target_name = self.set_ref()
        if self.at("points"):
            self.advance()
            self.expect("}")
            if "T" in self.env and self.env["T"].value != terminal():
                raise SiteSyntaxError(
                    "points sugar needs the name T to stay the one-point set",
                    t.line, t.col)
            fam = point_cover(target)
            leg_names = []
            for k, leg in enumerate(fam.legs):
                nm = f"{t.value}_pt{k}"
                self.define("map", nm, leg, {"src": "T", "dst": target_name},
                            (t.line, t.col))
                leg_names.append(nm)
            self.define("cover", t.value, fam,
                        {"target": target_name, "legs": leg_names}, (t.line, t.col))
            return
        self.keyword("legs")
        self.expect("[")
        leg_names = []
        legs = []
        while self.peek().type != "]":
            d, nm = self.ref(("map",))
            leg_names.append(nm)
            legs.append(d.value)
        self.expect("]")
        self.expect("}")
        value = self._build(t.value, t, lambda: CoveringFamily(target, legs))
        self.define("cover", t.value, value,
                    {"target": target_name, "legs": leg_names}, (t.line, t.col))

    def decl_qsobject(self):
        t = self.expect("IDENT")
        self.expect("{")
        self.keyword("stack")
        sd, s_name = self.ref(("stack",))
        self.keyword("bundle")
        bd, b_name = self.ref(("bundle",))
        self.keyword("alpha")
        stack: QuotientStack = sd.value
        cand: BundleCandidate = bd.value
        if self.at("bang"):
            self.advance()
            alpha_ref = "bang"
            if len(stack.space) != 1:
                raise ValidationError(
                    t.value, ValueError("alpha bang needs a one-point space"))
            pt = stack.space.elements[0]
            alpha = FinMap(cand.total.space, stack.space,
                           {p: pt for p in cand.total.space})
        else:
            md, alpha_ref = self.ref(("map",))
            alpha = md.value
        self.expect("}")
        def build():
            if cand.group != stack.group:
                raise ValueError("bundle and stack use different groups")
            b = is_principal_bundle(cand.proj)
            if isinstance(b, NotBundle):
                raise ValueError(
                    f"not a bundle: fiber over {format_atom(b.base_atom)} {b.reason}")
            return check_qs_object(b, alpha, stack.x_action)
        value = self._build(t.value, t, build)
        self.define("qsobject", t.value, value,
                    {"stack": s_name, "bundle": b_name, "alpha": alpha_ref},
                    (t.line, t.col))

    def decl_datum(self):
        t = self.expect("IDENT")
        self.expect("=")
        self.keyword("restrict")
        od, o_name = self.ref(("qsobject",))
        self.keyword("over")
        cd, c_name = self.ref(("cover",))
        twist = None
        if self.at("twist"):
            self.advance()
            self.expect("(")
            i = self.expect("INT").value
            self.expect(",")
            j = self.expect("INT").value
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
            phi = datum.overlap_iso(i, j)
            twisted = dict(datum.overlaps)
            twisted[(i, j)] = compose_qs(constant_gauge(phi.dst, k), phi)
            return DescentDatum(datum.cover, datum.objects, twisted)
        value = self._build(t.value, t, build)
        self.define("datum", t.value, value,
                    {"obj": o_name, "cover": c_name, "twist": twist}, (t.line, t.col))

    def decl_gluing(self):
        t = self.expect("IDENT")
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
        while self.peek().type != "]":
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
        value = self._build(t.value, t, build)
        self.define("gluing", t.value, value,
                    {"cover": c_name, "src": x_name, "dst": y_name}, (t.line, t.col))

    def decl_classify(self):
        t = self.expect("IDENT")
        self.expect("{")
        self.keyword("group")
        gd, g_name = self.ref(("group",))
        self.keyword("base")
        base, b_name = self.set_ref()
        self.expect("}")
        self.define("classify", t.value, ClassifyTask(gd.value, base),
                    {"group": g_name, "base": b_name}, (t.line, t.col))


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
