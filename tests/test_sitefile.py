"""The site-file language: tokenizing, declarations, sugar, validation at
load, and the canonical printer's round trip."""

import ast
import random
import re
from pathlib import Path

import pytest

from finstack import (
    CocycleFail,
    EquivarianceFail,
    EquivariantMap,
    FinSet,
    NoInverse,
    SiteSyntaxError,
    UnitFail,
    UnresolvedReference,
    ValidationError,
    check_cocycle,
    glue_morphisms,
    identity,
    terminal,
    zmod,
)
import finstack.sitefile
from finstack.cli import main
from finstack.sitefile import (
    ClassifyTask,
    GluingCase,
    _tokenize,
    _where,
    format_site,
    load_site,
    parse_site,
)

SITES = Path(__file__).resolve().parent.parent / "sites"

GOOD = [
    "z2_demo.site", "bundles.site", "not_bundle.site", "covers_ok.site",
    "covers_bad.site", "stack_demo.site", "cocycle_bad.site",
    "overlap_bad.site",
]


def shape(site):
    return [(d.kind, d.name, d.value) for d in site.decls]


# ------------------------------------------------------------- parsing

def test_demo_values():
    site = load_site(SITES / "z2_demo.site")
    assert site["Y"].value == FinSet((0, 1, 2))
    g = site["G"].value
    assert g == zmod(2)
    ay = site["AY"].value
    assert all(ay(1, y) == y for y in ay.space)
    fold = site["fold"].value
    assert fold.map.table == {0: 0, 1: 0}


def test_atom_forms():
    site = parse_site("set W = { (0 , (a , *)) 1 x }\n")
    assert site["W"].value == FinSet(((0, ("a", "*")), 1, "x"))


def test_terminal_is_a_default_name():
    site = parse_site("set A = { x }\nmap h : A -> T = { x -> * }\n")
    assert site["h"].value.dst == terminal()


def test_comments_and_layout_are_ignored():
    a = parse_site("set A={x y}\n")
    b = parse_site("# heading\nset A = {\n  x  # first\n  y\n}\n")
    assert a["A"].value == b["A"].value


# ------------------------------------------------------------- errors

def test_syntax_error_reports_position():
    with pytest.raises(SiteSyntaxError) as exc:
        parse_site("set A = { x }\nset B = @\n")
    assert exc.value.line == 2
    assert exc.value.col == 9


def test_stray_dash_is_rejected():
    with pytest.raises(SiteSyntaxError):
        parse_site("set A - B\n")


def test_duplicate_names_are_rejected():
    with pytest.raises(SiteSyntaxError) as exc:
        parse_site("set A = { x }\nset A = { y }\n")
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "name 'A' is already declared", 2, 5)


def test_duplicate_atoms_fail_validation():
    with pytest.raises(ValidationError) as exc:
        parse_site("set A = { x x }\n")
    assert exc.value.decl == "A"
    assert str(exc.value.cause) == "duplicate atom x"


@pytest.mark.parametrize("text,col", [("set A = { \u00b2 }\n", 11),
                                      ("set A = { 1\u00b2 }\n", 12)])
def test_non_decimal_digit_is_a_syntax_error(text, col):
    with pytest.raises(SiteSyntaxError) as exc:
        parse_site(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "unexpected character '\u00b2'", 1, col)


def test_decimal_digits_of_any_script_read_as_int():
    assert parse_site("set A = { \u0661 }\n")["A"].value == FinSet((1,))


def test_identifiers_spelled_like_token_kinds_stay_identifiers():
    site = parse_site("set INT = { IDENT EOF ARROW INT }\n")
    assert site["INT"].value == FinSet(("ARROW", "EOF", "IDENT", "INT"))
    demo = (SITES / "stack_demo.site").read_text(encoding="utf-8")
    with pytest.raises(SiteSyntaxError) as exc:
        parse_site(demo + "datum X = restrict O over C twist (INT , 0) by 1\n")
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "expected 'INT', got 'INT'", demo.count("\n") + 1, 36)
    with pytest.raises(SiteSyntaxError) as exc:
        parse_site("set A = { x y }\nmap f : A -> A = { x ARROW y }\n")
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "expected 'ARROW', got 'ARROW'", 2, 22)


def test_eof_after_a_trailing_comment_sits_at_the_comment():
    with pytest.raises(SiteSyntaxError) as exc:
        parse_site("set A = { x  # open")
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "expected an atom, got None", 1, 14)


def test_unresolved_reference_names_culprit():
    with pytest.raises(UnresolvedReference) as exc:
        parse_site("action B { group Missing space T trivial }\n")
    assert exc.value.name == "Missing"


def test_bad_group_fails_at_load():
    with pytest.raises(ValidationError) as exc:
        load_site(SITES / "bad_group.site")
    assert isinstance(exc.value.cause, NoInverse)


def test_bad_action_fails_at_load():
    with pytest.raises(ValidationError) as exc:
        load_site(SITES / "bad_action.site")
    assert isinstance(exc.value.cause, UnitFail)


def test_bad_equivariant_fails_at_load():
    with pytest.raises(ValidationError) as exc:
        load_site(SITES / "bad_equivariant.site")
    assert isinstance(exc.value.cause, EquivarianceFail)


def test_points_sugar_guards_the_name_T():
    text = (
        "set T = { 0 1 }\n"
        "cover C { target T points }\n"
    )
    with pytest.raises(SiteSyntaxError):
        parse_site(text)


def test_gluing_locals_validated_at_load():
    text = (
        "set Y = { 0 }\n"
        "group G {\n  elements { 0 1 }\n  table [\n    [ 0 1 ]\n    [ 1 0 ]\n  ]\n}\n"
        "stack BG { group G classifying }\n"
        "bundle B { trivial group G base Y }\n"
        "qsobject O { stack BG bundle B alpha bang }\n"
        "cover C { target Y points }\n"
        "gluing L { cover C src O dst O locals [ { ((0,0),*) -> ((0,0),*) } ] }\n"
    )
    with pytest.raises(ValidationError):
        parse_site(text)  # the local map is missing half its fiber


# ------------------------------------------------------------- sugar

def test_trivial_bundle_sugar_materializes():
    site = load_site(SITES / "bundles.site")
    names = set(site.env)
    bundle_decls = site.by_kind("bundle")
    assert bundle_decls
    b = bundle_decls[0]
    assert isinstance(b.value, EquivariantMap)
    assert {f"{b.name}_total", f"{b.name}_act", f"{b.name}_proj"} <= names


def test_points_sugar_materializes_legs():
    site = load_site(SITES / "stack_demo.site")
    cover = site["C"].value
    assert len(cover.legs) == 2
    assert all(leg.src == terminal() for leg in cover.legs)
    assert {"C_pt0", "C_pt1"} <= set(site.env)


def test_datum_restrict_sugar_round_trips_cocycle():
    site = load_site(SITES / "stack_demo.site")
    check_cocycle(site["D"].value)  # no raise


def test_datum_twist_breaks_cocycle():
    site = load_site(SITES / "cocycle_bad.site")
    with pytest.raises(CocycleFail) as exc:
        check_cocycle(site["Bad"].value)
    assert (exc.value.i, exc.value.j, exc.value.k) == (0, 0, 0)


def test_gluing_case_glues():
    site = load_site(SITES / "stack_demo.site")
    case = site["L"].value
    assert isinstance(case, GluingCase)
    eta = glue_morphisms(case.cover, case.src, case.dst, list(case.locals_))
    assert eta.fn == identity(case.src.total)


def test_classify_task_values():
    site = load_site(SITES / "stack_demo.site")
    task = site["K"].value
    assert isinstance(task, ClassifyTask)
    assert task.group == zmod(2)
    assert task.base == FinSet((0, 1))


# ------------------------------------------------------------- printing

@pytest.mark.parametrize("name", GOOD)
def test_round_trip_all_fixtures(name):
    site = load_site(SITES / name)
    printed = format_site(site)
    again = parse_site(printed)
    assert shape(again) == shape(site)
    assert format_site(again) == printed  # idempotent


COMMANDS = ["check-group", "check-action", "check-bundle", "check-cover",
            "check-sheaf", "glue-morphisms", "glue-object", "verify-stack",
            "classify"]


@pytest.mark.parametrize("name", GOOD)
def test_printed_site_gives_the_same_verdicts(name, tmp_path, capsys):
    printed = tmp_path / name
    printed.write_text(format_site(load_site(SITES / name)), encoding="utf-8")
    for command in COMMANDS:
        runs = []
        for path in (SITES / name, printed):
            code = main([command, str(path)])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1], command


# ------------------------------------------------------------- grammar

def test_grammar_names_exactly_the_parsers_keywords():
    # the quoted terminals of docs/site-grammar.ebnf outside its comments
    # against the strings the parser consumes and its decl_ names; only the
    # lexical extras differ: "*" and "_" are read as atom and IDENT
    # characters, and T is a name the parser knows
    ebnf = (SITES.parent / "docs" / "site-grammar.ebnf").read_text(encoding="utf-8")
    terminals = set(re.findall(r'"([^"]*)"', re.sub(r"\(\*.*?\*\)", "", ebnf, flags=re.S)))
    source = Path(finstack.sitefile.__file__).read_text(encoding="utf-8")
    parser = next(node for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ClassDef) and node.name == "_Parser")
    read = {fn.name[len("decl_"):] for fn in parser.body
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("decl_")}
    for call in ast.walk(parser):
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("expect", "accept", "field", "set_field", "items")):
            read |= {arg.value for arg in call.args
                     if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
    assert terminals ^ read == {"*", "_", "T"}


# ------------------------------------------------------------- reader

# The character scanner the regex reader replaced, kept as its reference:
# one token object per token, with the line and column kept by hand.

class _Token:
    __slots__ = ("type", "value", "line", "col")

    def __init__(self, type_, value, line, col):
        self.type = type_
        self.value = value
        self.line = line
        self.col = col


_PUNCT = ("{", "}", "[", "]", "(", ")", ",", "=", ":", "*")


def reference_tokenize(text: str):
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


def read_reference(text):
    try:
        toks = reference_tokenize(text)
    except SiteSyntaxError as err:
        return ("error", err.message, err.line, err.col)
    return ("ok", [(type(t.value), t.value, t.line, t.col) for t in toks])


def read(text):
    """The regex reader's tokens as (value type, value, line, column), the
    value shown as the parser reads it: INT as an int, EOF as None."""
    try:
        toks, ints = _tokenize(text)
    except SiteSyntaxError as err:
        return ("error", err.message, err.line, err.col)
    values = [ints.get(t, t) if t else None for t in toks]
    return ("ok", [(type(v), v, *_where(text, i)) for i, v in enumerate(values)])


# characters the mutations draw from: layout, comment, the arrow's halves,
# punctuation, a non-decimal digit, a non-ASCII decimal digit, a non-ASCII
# letter, and two blanks that are not layout
MUTATION_CHARS = [" ", "\t", "\r", "\n", "#", "-", ">", *_PUNCT,
                  "\u00b2", "\u0661", "\u00e9", "\f", "\xa0"]


def mutations(text, rng, count):
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        c = rng.choice(MUTATION_CHARS)
        op = rng.randrange(3)
        if op == 0:
            yield text[:i] + c + text[i:]
        elif op == 1:
            yield text[:i] + text[i + 1:]
        else:
            yield text[:i] + c + text[i + 1:]


def assert_reads_like_reference(text):
    try:
        want = read_reference(text)
    except ValueError:
        # the scanner took a non-decimal digit such as '\u00b2' for an INT
        # and int() failed; the regex reader reports the character instead
        got = read(text)
        assert got[0] == "error" and got[1].startswith("unexpected character")
        c = got[1][-2]
        assert c.isdigit() and not c.isdecimal()
        return
    assert read(text) == want


FIXTURES = sorted(p.name for p in SITES.glob("*.site"))


@pytest.mark.parametrize("name", FIXTURES)
def test_reader_matches_reference_on_fixtures(name):
    text = (SITES / name).read_text(encoding="utf-8")
    assert read(text)[0] == "ok"
    assert_reads_like_reference(text)


@pytest.mark.parametrize("name", FIXTURES)
def test_reader_matches_reference_on_mutations(name):
    text = (SITES / name).read_text(encoding="utf-8")
    rng = random.Random(f"mutate {name}")
    for mutated in mutations(text, rng, 60):
        assert_reads_like_reference(mutated)


@pytest.mark.parametrize("name", FIXTURES)
def test_reader_matches_reference_on_truncations(name):
    text = (SITES / name).read_text(encoding="utf-8")
    ends = range(len(text))
    for end in random.Random(f"truncate {name}").sample(ends, min(len(ends), 100)):
        assert_reads_like_reference(text[:end])
