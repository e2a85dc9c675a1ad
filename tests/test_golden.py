"""Golden outputs of `desc`: every command over every fixture site.

tests/golden/desc_sites.json pins, per run, the exit code, stdout, stderr
and the --report JSON (without elapsed_s). A change that alters a verdict,
a witness or a line of output fails here. Regenerate the file only for an
intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "desc_sites.json"
COMMANDS = ["check-group", "check-action", "check-bundle", "check-cover",
            "check-sheaf", "glue-morphisms", "glue-object", "verify-stack",
            "classify"]
SITES = sorted(p.name for p in (ROOT / "sites").glob("*.site"))


def run_desc(command, site, report_path, *flags):
    """Run desc in-process from the repo root, site given as sites/<name>."""
    from finstack.cli import main
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, f"sites/{site}", "--report", str(report_path), *flags])
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    del report["elapsed_s"]
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "report": report}


def key(command, site):
    return f"{command} {site}"


def test_golden_covers_every_site():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(key(c, s) for c in COMMANDS for s in SITES)


def check_golden(command, report_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    monkeypatch.chdir(ROOT)
    for site in SITES:
        got = run_desc(command, site, report_path)
        assert got == golden[key(command, site)], key(command, site)


@pytest.mark.parametrize("command", COMMANDS)
def test_desc_output_matches_golden(command, tmp_path, monkeypatch):
    check_golden(command, tmp_path / "report.json", monkeypatch)


@pytest.mark.parametrize("command", COMMANDS)
def test_desc_output_matches_golden_on_the_production_path(command, tmp_path, monkeypatch):
    # cross-checking off, as desc runs without --cross-check: the tables no
    # certifier reads are never built, and the output is the same
    from finstack.finset import CrossCheck
    monkeypatch.setattr(CrossCheck, "on", False)
    check_golden(command, tmp_path / "report.json", monkeypatch)


@pytest.mark.parametrize("flags", [(), ("--cross-check",)], ids=["plain", "cross-checked"])
@pytest.mark.parametrize("command", COMMANDS)
def test_bound_changes_no_verdict(command, flags, tmp_path, monkeypatch):
    # --bound only skips a definitional oracle under --cross-check, so a
    # bound of 1, which skips every one, prints what the default prints
    from finstack.finset import CrossCheck
    monkeypatch.setattr(CrossCheck, "on", False)
    monkeypatch.chdir(ROOT)
    for site in SITES:
        default, one = (run_desc(command, site, tmp_path / "report.json", *flags, *bound)
                        for bound in ((), ("--bound", "1")))
        assert (one["exit"], one["stdout"]) == (default["exit"], default["stdout"]), \
            key(command, site)


if __name__ == "__main__":
    import os
    import tempfile
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        runs = {key(c, s): run_desc(c, s, report) for c in COMMANDS for s in SITES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(runs)} runs to {GOLDEN.relative_to(ROOT)}")
