"""Time-to-verdict benchmark for finstack.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from the
checkout's src/ directory, and the run exits 2 without a result when it is
missing. Generated inputs, reports and span files go to .bench_out/.

Workloads (see BENCHMARK.json and bench/NOTES.md):

    sites_scaled    the desc CLI on generated site files, a fresh process
                    per invocation, over S3 and Z/6 on 12 atoms
    descent_corpus  seeded library cases in warm worker processes of
                    SEGMENT_CASES cases each

Each is a closed loop with one client. sites_scaled runs whole passes over
its fixed inputs, descent_corpus whole worker processes, as many as bring
the run closest to --seconds and at least two. Every verdict is checked
against the answer the generator planted, and a wrong verdict, exit code or
crash counts as a failed unit.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics. Their times are scaled to a reference machine speed by
the pace kernel timed next to every timed unit (bench/pace.py); the
measured values are printed on the `#` line before it. With --trace 1 the
run does a fixed amount of work twice, untraced and then traced
(bench/tracing.py), and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from random import Random
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import pace  # noqa: E402
from tracing import CACHED, ENUM  # noqa: E402

WORKLOADS = ("sites_scaled", "descent_corpus")
BOUND = 65536           # pinned --bound for every desc invocation
BUDGET = 8              # pinned --budget (desc's default)
PROBES = 9              # set-up measurements per run
PACE_S = 0.05           # pace sampled before and after each set-up probe
UNIT_TIMEOUT = 150      # seconds before one invocation counts as failed
TRACE_CASES = 100       # descent_corpus cases in each half of a traced run
SEGMENT_CASES = 105     # descent_corpus cases per worker process: five windows
SITE_CELLS = [("S3", 12), ("Z6", 12)]
SITE_COMMANDS = ("check-bundle", "check-cover", "glue-object", "classify")

PROBE_CLI = "import time; from finstack.cli import main; print(repr(time.monotonic()))"

END_TO_END = {"setup_s": "s", "verdicts_per_s": "1/s", "verdict_p50_s": "s",
              "verdict_tail_s": "s", "peak_rss_mb": "MB"}
CALLS = (
    "topology.is_canonical_cover", "topology.is_effective_epi",
    "bundle.is_principal_bundle", "finset.pullback", "finset.coequalizer",
    "finset.compose", "finset.FinSet", "finset.FinMap", "finset.atom_key",
    "bundle.pullback_bundle", "action.check_action", "action.check_equivariant",
    "stack.restrict", "action.gset_isomorphism_over",
)
SELF = (
    "topology.is_canonical_cover", "topology.is_colim_sieve", "sitefile.load_site",
    "bundle.is_locally_trivial", "bundle.is_principal_bundle",
    "finset.pullback", "finset.coequalizer", "finset.coproduct", "finset.compose",
    "bundle.pullback_bundle", "bundle.check_trivialization",
    "action.pullback_action", "action.check_action", "action.check_equivariant",
    "stack.restrict", "stack.restrict_morphism", "stack.qs_isomorphism",
    "descent.restrict_to_datum", "descent.check_cocycle",
    "descent.glue_object", "descent.glue_morphisms",
    "bundle.enumerate_bundles", "bundle.torsor_structures", ENUM,
    "action.gset_isomorphism_over", "stack.classifying_fiber_equiv", "cli.main",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "finstack").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"     # same set orders, so traced counts repeat
    return env


def tail(xs):
    """(value, percentile): the highest whole percentile with at least ten
    samples above it, by nearest rank, but never below the 75th: under 40
    samples the 75th, which keeps fewer than ten above it."""
    xs = sorted(xs)
    n = len(xs)
    p = max(75, (100 * (n - 10)) // n)
    return xs[math.ceil(p * n / 100) - 1], p


def check_report(path: Path, code: int, expected) -> str | None:
    """None when the exit code and every report row match the known
    answer, else what differs."""
    want_code, rows = expected
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        return f"no readable report: {err}"
    checks = report.get("checks", [])
    if [c.get("name") for c in checks] != [r["name"] for r in rows]:
        return f"checks {[c.get('name') for c in checks]}, expected {[r['name'] for r in rows]}"
    for c, r in zip(checks, rows):
        if c.get("status") != r["status"] or c.get("error") != r["error"]:
            return (f"{r['name']}: {c.get('status')}/{c.get('error')}, "
                    f"expected {r['status']}/{r['error']}")
        witness = c.get("witness") or {}
        for key, value in r["witness"].items():
            if witness.get(key) != value:
                return f"{r['name']}: witness {key}={witness.get(key)!r}, expected {value!r}"
        if r["detail"] is not None and c.get("detail") != r["detail"]:
            return f"{r['name']}: detail {c.get('detail')!r}, expected {r['detail']!r}"
    return None


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = ROOT / ".bench_out" / f"{workload}-{seed}-{os.getpid()}"
        self.spans_dir = ROOT / ".bench_out" / f"spans-{workload}"
        self.env = child_env()
        self.times, self.failures = [], []
        self.refs = []          # pace chunk time next to each unit of self.times
        self.verdicts = 0
        self.n_units = 0

    # ---------------------------------------------------------- processes

    def python(self, args, **kw):
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env, **kw)

    def warm_up(self) -> None:
        """Import once untimed (writes bytecode caches) and make sure the
        program comes from this checkout."""
        out = self.python(["-c", "import finstack.cli; print(finstack.cli.__file__)"],
                          capture_output=True, text=True, timeout=60)
        where = Path(out.stdout.strip() or "?").resolve()
        if out.returncode != 0 or where.parent.parent != ROOT / "src":
            raise BenchError(f"finstack does not import from {ROOT / 'src'}: "
                             f"{out.stderr.strip()[-300:] or where}")

    def setup_s(self):
        """(measured, scaled): median time from launching a process to the
        first operation it could time: interpreter start and `import
        finstack` (plus the group catalog for descent_corpus)."""
        if self.workload == "descent_corpus":
            args = [str(BENCH / "worker.py"), "probe"]
        else:
            args = ["-c", PROBE_CLI]
        samples, after = [], pace.sample(PACE_S)
        for _ in range(PROBES):
            before = after
            t0 = time.monotonic()
            out = self.python(args, capture_output=True, text=True, timeout=60, check=True)
            took = float(out.stdout.split()[-1]) - t0
            after = pace.sample(PACE_S)
            samples.append((took, (before + after) / 2))
        return (median(t for t, _ in samples),
                median(t * pace.NOMINAL_S / ref for t, ref in samples))

    # ---------------------------------------------------------- CLI units

    def desc(self, command, site, expected, traced=False):
        """One desc invocation; returns its wall time and, when traced, the
        trace summary. Records the unit's time, pace (untraced only),
        verdicts and any mismatch."""
        self.n_units += 1
        report = self.work / f"report-{self.n_units}.json"
        args = [command, str(site), "--seed", str(self.seed), "--budget", str(BUDGET),
                "--bound", str(BOUND), "--report", str(report)]
        summary_path = self.work / f"trace-{self.n_units}.json"
        pace_path = self.work / f"pace-{self.n_units}.json"
        if traced:
            spans = self.spans_dir / f"{self.n_units}-{command}-{site.stem}.spans"
            argv = [str(BENCH / "worker.py"), "desc", str(summary_path), str(spans), "--", *args]
        else:
            argv = [str(BENCH / "worker.py"), "paced", str(pace_path), "--", *args]
        t0 = time.monotonic()
        try:
            proc = self.python(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                               text=True, timeout=UNIT_TIMEOUT)
            wall = time.monotonic() - t0
            wrong = check_report(report, proc.returncode, expected)
            if wrong and proc.stderr.strip():
                wrong += " | " + proc.stderr.strip().splitlines()[-1]
        except subprocess.TimeoutExpired:
            wall = time.monotonic() - t0
            wrong = f"timed out after {UNIT_TIMEOUT} s"
        ref = None
        if not traced:
            try:
                ref = json.loads(pace_path.read_text())
            except (OSError, ValueError):
                pass
            ref = ref or pace.sample(PACE_S)    # the unit ended before a sample
        self.times.append(wall)
        self.refs.append(ref)
        self.verdicts += len(expected[1])
        if wrong:
            self.failures.append(f"{command} {site.name}: {wrong}")
        summary = None
        if traced and not wrong:
            summary = json.loads(summary_path.read_text())
            summary["wall"] = wall
        return wall, summary

    def cli_inputs(self):
        """[(command, site path, expected answer)] for one pass."""
        units = []
        for k, (group, n) in enumerate(SITE_CELLS):
            text, answers = gen.scaled_site(Random(self.seed * 100 + k), group, n)
            site = self.work / f"scaled-{group}-{n}.site"
            site.write_text(text)
            units += [(cmd, site, answers[cmd]) for cmd in SITE_COMMANDS]
        return units

    def whole_rounds(self, one_round):
        """Call one_round() as many times as bring the loop closest to
        --seconds but at least twice; returns the loop's wall time."""
        t0 = time.monotonic()
        for done in itertools.count(1):
            one_round(done)
            elapsed = time.monotonic() - t0
            if done >= 2 and elapsed + elapsed / done / 2 > self.seconds:
                return elapsed

    def cli_loop(self):
        """Whole passes over the inputs; returns the loop's wall time."""
        units = self.cli_inputs()

        def one_pass(_):
            for command, site, expected in units:
                self.desc(command, site, expected)
        return self.whole_rounds(one_pass)

    def cli_traced(self):
        """One untraced and one traced pass; returns (untraced wall,
        traced wall, summed trace summary, process_s)."""
        units = self.cli_inputs()
        plain = sum(self.desc(c, s, e)[0] for c, s, e in units)
        summaries = [self.desc(c, s, e, traced=True)[1] for c, s, e in units]
        summaries = [s for s in summaries if s is not None]
        traced = sum(s["wall"] for s in summaries)
        process_s = sum(s["wall"] - s["main_s"] - s["tracer_s"] for s in summaries)
        return plain, traced, merge(summaries), process_s

    # ------------------------------------------------------ library units

    def corpus(self, seed, cases, traced):
        """One descent_corpus worker process running `cases` cases from
        Random(seed); see worker.py."""
        out = self.work / f"corpus-{int(traced)}.json"
        args = [str(BENCH / "worker.py"), "corpus", str(out), str(seed), str(cases),
                "1" if traced else "0"]
        if traced:
            args.append(str(self.spans_dir / "corpus.spans"))
        proc = self.python(args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True, timeout=UNIT_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError(f"corpus worker failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(out.read_text())
        self.times += result["times"]
        self.refs += pace.smooth(result["refs"])
        self.failures += result["failures"]
        self.verdicts += result["verdicts"]
        return result

    # ------------------------------------------------------------ metrics

    def end_to_end(self):
        setup, setup_scaled = self.setup_s()
        if self.workload == "descent_corpus":
            # a fresh worker per segment: each grows its caches and heap
            # over the same number of cases, so garbage-collection pauses
            # do not lengthen with the number of cases a run gets through
            rss_kb = []
            wall = self.whole_rounds(lambda k: rss_kb.append(
                self.corpus(self.seed * 1000 + k, SEGMENT_CASES, False)["rss_kb"]))
            rss = max(rss_kb) / 1024
        else:
            wall = self.cli_loop()
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        scaled = [t * pace.NOMINAL_S / ref for t, ref in zip(self.times, self.refs)]
        value, pct = self.tail(scaled)
        self.notes = {"tail_percentile": pct, "wall_s": round(wall, 3),
                      "pace_s": round(median(self.refs), 6),
                      "measured": {"setup_s": round(setup, 6),
                                   "verdicts_per_s": round(self.verdicts / sum(self.times), 4),
                                   "verdict_p50_s": round(median(self.times), 6),
                                   "verdict_tail_s": round(self.tail(self.times)[0], 6)}}
        return {"setup_s": setup_scaled, "verdicts_per_s": self.verdicts / sum(scaled),
                "verdict_p50_s": median(scaled), "verdict_tail_s": value,
                "peak_rss_mb": rss}

    def tail(self, xs):
        """(value, percentile) of the run's tail. descent_corpus takes the
        median over its workers of each worker's tail (the 90th percentile
        of its 105 cases): over the whole run, the percentile would rise
        with the number of workers a run gets through, so faster code would
        read a higher percentile."""
        if self.workload != "descent_corpus":
            return tail(xs)
        tails = [tail(xs[i:i + SEGMENT_CASES]) for i in range(0, len(xs), SEGMENT_CASES)]
        return median(v for v, _ in tails), tails[0][1]

    def per_layer(self):
        if self.workload == "descent_corpus":
            plain = self.corpus(self.seed, TRACE_CASES, False)["wall"]
            result = self.corpus(self.seed, TRACE_CASES, True)
            traced, summary, process_s = result["wall"], result["trace"], 0.0
        else:
            plain, traced, summary, process_s = self.cli_traced()
        self.notes = {"untraced_s": round(plain, 3), "traced_s": round(traced, 3)}
        return layer_metrics(summary, process_s, traced / plain)

    def execute(self):
        if self.trace:
            shutil.rmtree(self.spans_dir, ignore_errors=True)
            self.spans_dir.mkdir(parents=True)
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            self.warm_up()
            values = self.per_layer() if self.trace else self.end_to_end()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return values


def merge(summaries):
    """Sum trace summaries of several processes."""
    out = {"calls": {}, "self_s": {}, "caches": {}, "enum": {"candidates": 0, "found": 0}}
    for s in summaries:
        for key in ("calls", "self_s"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        for name, c in s["caches"].items():
            acc = out["caches"].setdefault(name, {"hits": 0, "misses": 0})
            acc["hits"] += c["hits"]
            acc["misses"] += c["misses"]
        for name in ("candidates", "found"):
            out["enum"][name] += s["enum"][name]
    return out


def layer_metrics(summary, process_s, overhead):
    """Per-layer metrics as {name: (value, unit)}; layers the workload does
    not reach read 0."""
    calls, self_s = summary["calls"], summary["self_s"]
    m = {}
    for key in CALLS:
        m[f"{key}.calls"] = (calls.get(key, 0), "count")
    for key in SELF:
        m[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
    for key in CACHED:
        c = summary["caches"].get(key, {"hits": 0, "misses": 0})
        total = c["hits"] + c["misses"]
        m[f"{key}.hit_ratio"] = (c["hits"] / total if total else 0.0, "ratio")
    cand, found = summary["enum"]["candidates"], summary["enum"]["found"]
    m[f"{ENUM}.candidates"] = (cand, "count")
    m[f"{ENUM}.found"] = (found, "count")
    m[f"{ENUM}.yield_ratio"] = (found / cand if cand else 0.0, "ratio")
    m["cli.process_s"] = (process_s, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "finstack" / "__init__.py").is_file():
        print(f"bench: no finstack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one CPU for the run and its children: the workloads run one process at
    # a time, and this keeps them from moving between unequally loaded CPUs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        values = run.execute()
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    attempted, failed = len(run.times), len(run.failures)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "units": attempted, "verdicts": run.verdicts,
            "failed_ratio": failed / attempted if attempted else 1.0,
            **run.notes, "finstack_src_sha256": source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}
    for line in run.failures[:20]:
        print(f"# wrong: {line}")
    print("# " + json.dumps(info))
    with open(ROOT / ".bench_out" / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**info, "metrics": metrics}) + "\n")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
