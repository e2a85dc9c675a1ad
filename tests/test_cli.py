"""The desc command line, driven in-process through main()."""

import json
from pathlib import Path

import pytest

import finstack.bundle
import finstack.descent
from finstack import NotBundle, cli
from finstack.cli import main
from finstack.sample import build_corpus

SITES = Path(__file__).resolve().parent.parent / "sites"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


MATRIX = [
    ("check-group", "z2_demo.site", 0),
    ("check-group", "bad_group.site", 2),
    ("check-action", "z2_demo.site", 0),
    ("check-action", "bad_action.site", 2),
    ("check-action", "bad_equivariant.site", 2),
    ("check-bundle", "bundles.site", 0),
    ("check-bundle", "not_bundle.site", 1),
    ("check-cover", "covers_ok.site", 0),
    ("check-cover", "covers_bad.site", 1),
    ("check-sheaf", "covers_ok.site", 0),
    ("check-sheaf", "covers_bad.site", 1),
    ("glue-morphisms", "stack_demo.site", 0),
    ("glue-morphisms", "overlap_bad.site", 1),
    ("glue-object", "stack_demo.site", 0),
    ("glue-object", "cocycle_bad.site", 1),
    ("verify-stack", "stack_demo.site", 0),
    ("classify", "stack_demo.site", 0),
]


@pytest.mark.parametrize("command,site,expected", MATRIX)
def test_exit_codes(capsys, command, site, expected):
    code, out, err = run(capsys, command, SITES / site)
    assert code == expected
    if expected == 0:
        assert "FAIL" not in out
        assert out.strip().endswith("ok")
    elif expected == 1:
        assert "FAIL" in out
    else:
        assert "desc: error:" in err


def test_unknown_command(capsys):
    code, out, err = run(capsys, "frobnicate", SITES / "z2_demo.site")
    assert code == 2
    assert "frobnicate" in err


def test_missing_site_file(capsys):
    code, out, err = run(capsys, "check-group", SITES / "nope.site")
    assert code == 2


def test_undecodable_site_file_is_bad_input(capsys, tmp_path):
    site = tmp_path / "latin1.site"
    site.write_bytes(b"set Y = { \xff }\n")
    code, out, err = run(capsys, "check-group", site)
    assert code == 2
    assert "desc: error:" in err


def test_non_decimal_digit_is_bad_input(capsys, tmp_path):
    site = tmp_path / "superscript.site"
    site.write_text("set Y = { \u00b2 }\n", encoding="utf-8")
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "check-cover", site, "--report", path)
    assert code == 2
    assert "unexpected character" in err
    rep = json.loads(path.read_text())
    assert rep["error"]["kind"] == "SiteSyntaxError"
    assert (rep["error"]["payload"]["line"], rep["error"]["payload"]["col"]) == (1, 11)


def test_nothing_to_check(capsys):
    code, out, err = run(capsys, "classify", SITES / "z2_demo.site")
    assert code == 0
    assert "nothing to check" in out


def test_report_schema(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "check-cover", SITES / "covers_ok.site",
                       "--report", path)
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["schema"] == "desc-report/1"
    assert rep["command"] == "check-cover"
    assert rep["status"] == "ok"
    assert rep["summary"]["failed"] == 0
    assert rep["summary"]["total"] == len(rep["checks"])
    assert all(c["status"] == "ok" for c in rep["checks"])
    assert rep["elapsed_s"] >= 0


def test_report_carries_cocycle_witness(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, *_ = run(capsys, "glue-object", SITES / "cocycle_bad.site",
                   "--report", path)
    assert code == 1
    rep = json.loads(path.read_text())
    assert rep["status"] == "fail"
    bad = [c for c in rep["checks"] if c["status"] == "fail"]
    assert bad and bad[0]["error"] == "CocycleFail"
    assert bad[0]["witness"]["i"] == 0
    assert isinstance(bad[0]["witness"]["point"], str)


def test_report_written_on_input_error(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, *_ = run(capsys, "check-group", SITES / "bad_group.site",
                   "--report", path)
    assert code == 2
    rep = json.loads(path.read_text())
    assert rep["status"] == "error"
    assert rep["error"]["kind"] == "ValidationError"
    assert rep["error"]["payload"]["cause"] == "NoInverse"
    assert rep["error"]["payload"]["witness"]["a"] == 1


# an object of [pt/Z2] over two points, and a cover of another set
OFF_BASE = """\
set Y = { 0 1 }
set Z = { 0 }
group G { elements { 0 1 } table [ [ 0 1 ] [ 1 0 ] ] }
stack BG { group G classifying }
bundle B { trivial group G base Y }
qsobject O { stack BG bundle B alpha bang }
cover CZ { target Z points }
"""


@pytest.mark.parametrize("decls, decl, message", [
    ("datum D = restrict O over CZ", "D", "cover is over {0}, object over {0 1}"),
    ("gluing L { cover CZ src O dst O locals [ { ((0,0),*) -> ((0,0),*)"
     "  ((1,0),*) -> ((1,0),*) } ] }", "L", "cover is over {0}, object over {0 1}"),
    ("set U = { u }\nmap f : U -> Z = { u -> 0 }\ncover C { target Y legs [ f ] }",
     "C", "leg 0 has target {0}, expected {0 1}"),
], ids=["datum", "gluing", "cover-leg"])
def test_mismatched_shapes_on_load_are_value_errors(capsys, tmp_path, decls, decl, message):
    # a cover over the wrong base, or a leg into another set, is bad input
    # with no witness: one cause for each, whichever declaration meets it
    site = tmp_path / "off_base.site"
    site.write_text(OFF_BASE + decls + "\n")
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "glue-object", site, "--report", path)
    assert (code, out) == (2, "")
    assert err == f"desc: error: declaration {decl!r} invalid: {message}\n"
    error = json.loads(path.read_text())["error"]
    assert error["kind"] == "ValidationError"
    assert error["payload"] == {"decl": decl, "cause": "ValueError", "witness": {}}


Z4_CLASSIFY = """\
set Y = { 0 }
group G {
  elements { 0 1 2 3 }
  table [
    [ 0 1 2 3 ]
    [ 1 2 3 0 ]
    [ 2 3 0 1 ]
    [ 3 0 1 2 ]
  ]
}
classify K { group G base Y }
"""


def test_bound_is_enforced(capsys, tmp_path):
    # --bound guards classify's oracle, never its verdict: Z/4 over one
    # point has 6 bundles and 4 automorphisms, so --bound 6 runs the oracle
    # under --cross-check, --bound 5 skips it uncounted, and both print the
    # closed forms
    site = tmp_path / "z4.site"
    site.write_text(Z4_CLASSIFY)
    code, out, err = run(capsys, "classify", site, "--bound", 5)
    assert (code, err) == (0, "")
    assert "(6 bundles, 1 classes, 4 automorphisms of the trivial one)" in out
    ran = []
    for bound in (6, 5):
        report = tmp_path / f"report{bound}.json"
        assert run(capsys, "classify", site, "--bound", bound, "--cross-check",
                   "--report", report) == (code, out, err)
        tally = json.loads(report.read_text())["cross_checks"]
        assert tally["agreed"] == tally["ran"]
        ran.append(tally["ran"])
    assert ran[1] < ran[0]


def test_seed_reproduces_verify_stack(capsys):
    c1, out1, _ = run(capsys, "verify-stack", SITES / "stack_demo.site",
                      "--seed", 7, "--budget", 4)
    c2, out2, _ = run(capsys, "verify-stack", SITES / "stack_demo.site",
                      "--seed", 7, "--budget", 4)
    assert c1 == c2 == 0
    assert out1 == out2


def test_check_lines_name_each_declaration(capsys):
    code, out, _ = run(capsys, "check-group", SITES / "z2_demo.site")
    assert code == 0
    assert any(line.startswith("check-group G ") for line in out.splitlines())
    assert "order 2" in out


def classify_site(order, base):
    """A site declaring Z/order and classifying over the given base atoms."""
    rows = "\n".join(
        "    [ " + " ".join(str((i + j) % order) for j in range(order)) + " ]"
        for i in range(order))
    return (f"set Y = {{ {' '.join(map(str, base))} }}\n"
            f"group G {{\n  elements {{ {' '.join(map(str, range(order)))} }}\n"
            f"  table [\n{rows}\n  ]\n}}\n"
            "classify K { group G base Y }\n")


CLASSIFY_REFUSALS = [
    # order, base size, --bound, the detail: runs that --bound once refused,
    # the bundles (46,656) past the bound, or, for Z/2 over 7 points, one
    # bundle within it but 2^7 = 128 automorphisms past it
    (4, 6, 5, "46656 bundles, 1 classes, 4096 automorphisms of the trivial one"),
    (2, 7, 100, "1 bundles, 1 classes, 128 automorphisms of the trivial one"),
]


@pytest.mark.parametrize("order,size,bound,detail", CLASSIFY_REFUSALS,
                         ids=["bundles", "automorphisms"])
@pytest.mark.parametrize("flags", [(), ("--cross-check",)], ids=["plain", "cross-checked"])
def test_classify_refusals_are_pinned(capsys, tmp_path, monkeypatch, order, size, bound,
                                      detail, flags):
    # the closed forms answer past --bound, which only skips the oracle
    def forbidden(*args):
        raise AssertionError("classify's oracle ran past --bound")

    monkeypatch.setattr(cli, "classify_by_enumeration", forbidden)
    site = tmp_path / "k.site"
    site.write_text(classify_site(order, range(size)))
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "classify", site, "--bound", bound, "--report", report,
                         *flags)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["classify K ".ljust(44, ".") + f" ok ({detail})", "1/1 ok"]
    rep = json.loads(report.read_text())
    assert (rep["status"], [c["detail"] for c in rep["checks"]]) == ("ok", [detail])
    if flags:
        assert rep["cross_checks"]["agreed"] == rep["cross_checks"]["ran"]


def test_classify_z3_over_three_points_fits_the_bound(capsys, tmp_path):
    # 27 morphisms per pair are built; 9^9 candidates would not fit
    site = tmp_path / "z3.site"
    site.write_text(classify_site(3, range(3)))
    code, out, err = run(capsys, "classify", site, "--bound", 65536)
    assert code == 0, err
    assert "(8 bundles, 1 classes, 27 automorphisms of the trivial one)" in out


# exit code and (declaration, status) per check; oracles_forbidden makes
# every definitional cover check, the general pullback action and the G-set
# isomorphism search raise, so these verdicts come from the deciders alone
DECIDED_WITHOUT_ORACLES = [
    ("check-cover", "covers_ok.site", 0, [("ByPoints", "ok"), ("Overlapping", "ok")]),
    ("check-cover", "covers_bad.site", 1, [("Gappy", "fail")]),
    ("check-cover", "stack_demo.site", 0, [("C", "ok")]),
    ("check-bundle", "covers_ok.site", 0, []),
    ("check-bundle", "covers_bad.site", 0, []),
    ("check-bundle", "stack_demo.site", 0, [("B", "ok")]),
    ("glue-object", "covers_ok.site", 0, []),
    ("glue-object", "covers_bad.site", 0, []),
    ("glue-object", "stack_demo.site", 0, [("D", "ok")]),
    ("verify-stack", "stack_demo.site", 0, [("BG", "ok")]),
    ("classify", "stack_demo.site", 0, [("K", "ok")]),
]


@pytest.mark.parametrize("command,site,expected,verdicts", DECIDED_WITHOUT_ORACLES)
def test_commands_run_no_oracle(capsys, tmp_path, oracles_forbidden,
                                command, site, expected, verdicts):
    path = tmp_path / "report.json"
    code, out, err = run(capsys, command, SITES / site, "--report", path)
    assert code == expected, err
    rep = json.loads(path.read_text())
    assert [(c["name"], c["status"]) for c in rep["checks"]] == verdicts


@pytest.mark.needs_cross_check
def test_glued_non_bundle_exits_3(capsys, tmp_path, monkeypatch):
    # gluing a datum of bundles yields a bundle; a decider saying otherwise
    # is an internal fault, also under python -O
    monkeypatch.setattr(finstack.bundle, "is_principal_bundle",
                        lambda proj: NotBundle("p", "fiber action is not free"))
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "glue-object", SITES / "stack_demo.site",
                         "--report", path)
    assert code == 3
    assert out == ""
    rep = json.loads(path.read_text())
    assert rep["status"] == "error"
    assert rep["error"]["kind"] == "RuntimeError"
    assert "not a bundle" in rep["error"]["message"]
    assert rep["checks"] == []


EMPTY_COVER_SITE = """\
set E = { }
group G {
  elements { 0 1 }
  table [
    [ 0 1 ]
    [ 1 0 ]
  ]
}
stack BG { group G classifying }
bundle B { trivial group G base E }
qsobject O { stack BG bundle B alpha bang }
cover C { target E legs [ ] }
datum D = restrict O over C
"""


def test_glue_object_over_the_empty_cover(capsys, tmp_path):
    # the datum has no local object, so the group and structure space come
    # from the object it restricts; the glued object is the empty one
    site = tmp_path / "empty.site"
    site.write_text(EMPTY_COVER_SITE)
    code, out, err = run(capsys, "glue-object", site)
    assert code == 0, err
    assert "total of 0 atoms over 0 with 0 leg comparisons" in out


EMPTY_SPACE_STACK_SITE = """\
set E = { }
group G { elements { 0 1 } table [ [ 0 1 ] [ 1 0 ] ] }
action A { group G space E trivial }
stack S { group G space E action A }
"""


@pytest.mark.parametrize("cross", [[], ["--cross-check"]], ids=["plain", "cross-checked"])
def test_verify_stack_over_the_empty_space(capsys, tmp_path, cross):
    # [∅/G] has the empty object over the empty base and no object over any
    # other base, so only the empty round trip is checked: a verdict, not a fault
    site = tmp_path / "empty_space.site"
    site.write_text(EMPTY_SPACE_STACK_SITE)
    code, out, err = run(capsys, "verify-stack", site, *cross)
    assert (code, err) == (0, "")
    assert "ok (effectiveness 1/1, gluing 0/0, uniqueness 0/0, rejected 0/0)" in out


def test_internal_error_exits_3_with_report(capsys, tmp_path, monkeypatch):
    def broken(site, args):
        raise AssertionError("invariant broken")

    monkeypatch.setitem(cli._COMMANDS, "check-group", broken)
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "check-group", SITES / "z2_demo.site",
                         "--report", path)
    assert code == 3
    assert "invariant broken" in err
    rep = json.loads(path.read_text())
    assert rep["status"] == "error"
    assert rep["error"]["kind"] == "AssertionError"


@pytest.mark.needs_cross_check
def test_internal_fault_in_verify_stack_exits_3(capsys, tmp_path, monkeypatch):
    # a fault inside a re-run certifier (here of every bundle built by its
    # formula, the glued ones included) is no failed stack condition
    def broken(*args, **kwargs):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(finstack.bundle, "check_action", broken)
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify-stack", SITES / "stack_demo.site",
                         "--report", path)
    assert code == 3
    assert out == ""
    assert "invariant broken" in err
    rep = json.loads(path.read_text())
    assert rep["status"] == "error"
    assert rep["error"]["kind"] == "RuntimeError"


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_is_bad_input(capsys, tmp_path, budget):
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify-stack", SITES / "stack_demo.site",
                         "--budget", budget, "--report", path)
    assert code == 2
    assert out == ""
    assert "--budget must be at least 1" in err
    rep = json.loads(path.read_text())
    assert rep["status"] == "error"
    assert rep["budget"] == budget
    assert rep["checks"] == []


@pytest.mark.parametrize("bound", [0, -1])
def test_bound_below_one_is_bad_input(capsys, tmp_path, bound):
    # no enumeration has fewer than one item, so such a bound guards
    # nothing, and the cover oracle it would skip is not skipped silently
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "check-cover", SITES / "covers_ok.site",
                         "--bound", bound, "--cross-check", "--report", path)
    assert code == 2
    assert out == ""
    assert "--bound must be at least 1" in err
    rep = json.loads(path.read_text())
    assert rep["status"] == "error"
    assert rep["bound"] == bound
    assert rep["checks"] == []


def test_budget_one_exercises_verify_stack(capsys):
    code, out, _ = run(capsys, "verify-stack", SITES / "stack_demo.site",
                       "--budget", 1)
    assert code == 0
    assert "ok (effectiveness" in out
    assert "0/0" not in out


@pytest.mark.parametrize("site,before", [
    ("z2_demo.site", 0),        # the checks pass
    ("covers_bad.site", 1),     # a check fails
    ("bad_group.site", 2),      # bad input
])
def test_unwritable_report_is_an_error_without_traceback(capsys, tmp_path, site, before):
    # exit 1 says a check failed, so a report that cannot be written is an
    # error of the run, exit 2, whatever the checks said
    command = "check-cover" if site == "covers_bad.site" else "check-group"
    path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, command, SITES / site, "--report", path)
    assert code == 2
    assert "desc: error: cannot write the report:" in err
    assert "Traceback" not in err
    assert run(capsys, command, SITES / site)[0] == before


def test_unwritable_report_keeps_an_internal_fault_at_3(capsys, tmp_path, monkeypatch):
    def broken(site, args):
        raise AssertionError("invariant broken")

    monkeypatch.setitem(cli._COMMANDS, "check-group", broken)
    code, out, err = run(capsys, "check-group", SITES / "z2_demo.site",
                         "--report", tmp_path / "missing" / "report.json")
    assert code == 3
    assert "invariant broken" in err
    assert "desc: error: cannot write the report:" in err


def test_elapsed_time_ignores_wall_clock_steps(capsys, tmp_path, monkeypatch):
    # the wall clock steps back 10 s once the run has started; the elapsed
    # time of the report reads a clock that never steps
    calls = []

    def stepping():
        calls.append(None)
        return real() - (10 if len(calls) > 1 else 0)

    real = cli.time.time
    monkeypatch.setattr(cli.time, "time", stepping)
    path = tmp_path / "report.json"
    code, *_ = run(capsys, "verify-stack", SITES / "stack_demo.site", "--report", path)
    assert code == 0
    assert 0 <= json.loads(path.read_text())["elapsed_s"] < 60


def planted_corpus(group, x_action, rng, cases):
    """build_corpus's pairs, then three failures planted in each of two
    conditions: a valid datum filed as rejected, and a round-trip datum
    paired with the empty object, which nothing glued over a nonempty
    base is isomorphic to."""
    corpus = list(build_corpus(group, x_action, rng, cases=cases))
    data = [case for condition, case in corpus if condition == "effectiveness"]
    yield from corpus
    for datum, _ in data[1:4]:
        yield "rejected", datum
        yield "effectiveness", (datum, data[0][1])


def test_failing_stack_conditions_through_desc(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "build_corpus", planted_corpus)
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify-stack", SITES / "stack_demo.site",
                         "--budget", 2, "--report", path)
    assert (code, err) == (1, "")
    detail = "effectiveness 5/8, gluing 4/4, uniqueness 3/3, rejected 4/7"
    assert out.splitlines() == ["verify-stack BG ".ljust(44, ".") + f" FAIL ({detail})",
                                "0/1 ok"]
    rep = json.loads(path.read_text())
    (check,) = rep["checks"]
    assert (rep["status"], check["detail"], check["error"]) == (
        "fail", detail, "StackConditionFail")
    assert check["witness"] == {"failures": (
        ["effectiveness: not isomorphic to the source object"] * 2
        + ["rejection of invalid data: invalid datum was not rejected"] * 2)}


REPORT_KEYS = ["schema", "command", "site", "seed", "budget", "bound", "status",
               "checks", "summary", "elapsed_s"]


@pytest.mark.parametrize("command,site,flags,code,extra", [
    ("check-group", "z2_demo.site", [], 0, []),
    ("check-cover", "covers_bad.site", [], 1, []),
    ("check-group", "bad_group.site", [], 2, ["error"]),
    ("check-group", "z2_demo.site", ["broken"], 3, ["error"]),
    ("check-cover", "covers_ok.site", ["--cross-check"], 0, ["cross_checks"]),
    ("check-group", "bad_group.site", ["--cross-check"], 2, ["error", "cross_checks"]),
], ids=["ok", "fail", "bad-input", "fault", "cross-checked", "cross-checked-bad-input"])
def test_report_keys_keep_their_order(capsys, tmp_path, monkeypatch, command, site, flags,
                                      code, extra):
    # the parsed golden reports compare with sorted keys, so the order a
    # reader of the file sees is pinned here, on every exit path
    if "broken" in flags:
        def broken(site, args):
            raise AssertionError("invariant broken")

        monkeypatch.setitem(cli._COMMANDS, command, broken)
        flags = []
    path = tmp_path / "report.json"
    assert run(capsys, command, SITES / site, "--report", path, *flags)[0] == code
    rep = json.loads(path.read_text())
    assert list(rep) == REPORT_KEYS + extra
    assert all(list(c) == ["name", "status", "detail", "error", "witness"]
               for c in rep["checks"])
    assert rep["checks"] or code >= 2
