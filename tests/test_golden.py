"""Golden outputs of `desc`: every command over every fixture site.

tests/golden/desc_sites.json pins, per run, the exit code, stdout, stderr
and the --report JSON (without elapsed_s) at seed 0. tests/golden/
desc_matrix.json pins the same for the other runs: seed 7, and seeds 0 and 7
under --cross-check, over the fixtures, and all four over the generated
128-atom S3 and Z/6 sites of bench/gen.py. Of the cross-checks a report
counts, it pins only that each one agreed. A change that alters a verdict,
a witness or a line of output fails here. Regenerate the files only for an
intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from random import Random

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "desc_sites.json"
MATRIX = ROOT / "tests" / "golden" / "desc_matrix.json"
COMMANDS = ["check-group", "check-action", "check-bundle", "check-cover",
            "check-sheaf", "glue-morphisms", "glue-object", "verify-stack",
            "classify"]
SITES = sorted(p.name for p in (ROOT / "sites").glob("*.site"))
# the generated sites, by file name: bench/gen.py's group and base size
GENERATED = {"S3-128.site": ("S3", 128), "Z6-128.site": ("Z6", 128)}
RUNS = {"seed 0": (), "seed 7": ("--seed", "7"),
        "seed 0 cross-checked": ("--cross-check",),
        "seed 7 cross-checked": ("--seed", "7", "--cross-check")}


def run_desc(command, site, report_path, *flags):
    """Run desc in-process, site given as sites/<name> under the current
    directory."""
    from finstack.cli import main
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, f"sites/{site}", "--report", str(report_path), *flags])
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    del report["elapsed_s"]
    if "cross_checks" in report:
        tally = report["cross_checks"]
        report["cross_checks"] = {"all agreed": tally["agreed"] == tally["ran"]}
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "report": report}


def write_generated(root: Path) -> Path:
    """Write the generated sites into root/sites, as bench/gen.py builds them
    with Random(401); returns root."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from gen import scaled_site
    finally:
        sys.path.remove(str(ROOT / "bench"))
    (root / "sites").mkdir(exist_ok=True)
    for name, (group, n) in GENERATED.items():
        (root / "sites" / name).write_text(scaled_site(Random(401), group, n)[0],
                                           encoding="utf-8")
    return root


def matrix_sites(run):
    """The sites the matrix file pins for a run: the fixtures' seed-0 runs
    are desc_sites.json's."""
    return ([] if run == "seed 0" else SITES) + list(GENERATED)


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


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    return write_generated(tmp_path_factory.mktemp("generated"))


def test_matrix_covers_every_run():
    golden = json.loads(MATRIX.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(f"{run}: {key(c, s)}" for run in RUNS
                                    for c in COMMANDS for s in matrix_sites(run))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("run", RUNS)
def test_desc_output_matches_the_matrix(run, command, generated, tmp_path, monkeypatch):
    # cross-checking off unless the run asks for it, as desc runs
    from finstack.finset import CrossCheck
    monkeypatch.setattr(CrossCheck, "on", False)
    golden = json.loads(MATRIX.read_text(encoding="utf-8"))
    for site in matrix_sites(run):
        monkeypatch.chdir(generated if site in GENERATED else ROOT)
        got = run_desc(command, site, tmp_path / "report.json", *RUNS[run])
        assert got == golden[f"{run}: {key(command, site)}"], (run, key(command, site))


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
        generated = write_generated(Path(tmp))
        matrix = {}
        for run, flags in RUNS.items():
            for c in COMMANDS:
                for s in matrix_sites(run):
                    os.chdir(generated if s in GENERATED else ROOT)
                    matrix[f"{run}: {key(c, s)}"] = run_desc(c, s, report, *flags)
        os.chdir(ROOT)
    for path, pinned in ((GOLDEN, runs), (MATRIX, matrix)):
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {len(pinned)} runs to {path.relative_to(ROOT)}")
