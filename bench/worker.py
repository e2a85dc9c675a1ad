"""Child-process entry points for the benchmark; run.py starts them.

    worker.py probe                       set up as descent_corpus does, print the time
    worker.py corpus OUT SEED CASES TRACE [SPANS]
    worker.py desc OUT SPANS -- <desc arguments>
    worker.py paced OUT -- <desc arguments>

`corpus` runs CASES library cases in this one process and writes their
times, verdicts and the process's peak resident memory to OUT as JSON;
untraced, it also times a pace chunk (pace.py) right after each case.
`desc` runs one traced `desc` invocation and writes the trace summary to
OUT; its exit code is desc's. `paced` runs one untraced `desc`
invocation under a pace.Sampler and writes the mean chunk time to OUT; its
exit code is desc's.

finstack is imported from the PYTHONPATH run.py sets, and the import is
checked to come from the checkout's src directory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from random import Random

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_finstack():
    import finstack
    if Path(finstack.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"finstack imported from {finstack.__file__}, not {SRC}")
    return finstack


def probe() -> None:
    fs = _import_finstack()
    import corpus
    corpus.catalog(fs)
    print(repr(time.monotonic()))


def run_corpus(out, seed, cases, trace, spans=None) -> None:
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    fs = _import_finstack()
    import corpus
    import pace
    tables, groups = corpus.catalog(fs)
    rng = Random(seed)
    times, refs, failures = [], [], []
    t_start = time.monotonic()
    for i in range(cases):
        case = corpus.make_case(rng, i, tables)
        if tracer is not None:
            tracer.current_request = i
        t0 = time.perf_counter()
        try:
            corpus.run_case(fs, groups, tables, case)
        except Exception as err:  # noqa: BLE001 - a crash is a wrong verdict
            failures.append(f"case {i} ({case['group']} over {len(case['base'])}): "
                            f"{type(err).__name__}: {err}")
        times.append(time.perf_counter() - t0)
        if tracer is None:
            refs.append(pace.chunk())
    result = {"times": times, "refs": refs, "failures": failures,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "wall": time.monotonic() - t_start - sum(refs),
              "verdicts": corpus.STEPS * cases}
    if tracer is not None:
        result["trace"] = tracer.summary()
        if spans:
            tracer.write_spans(spans)
    Path(out).write_text(json.dumps(result))


def run_desc(out, spans, argv) -> int:
    from tracing import Tracer
    t0 = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    _import_finstack()
    cli = sys.modules["finstack.cli"]
    setup = time.perf_counter() - t0
    code = cli.main(argv)
    t1 = time.perf_counter()
    summary = tracer.summary()
    tracer.write_spans(spans)
    summary["tracer_s"] = setup + time.perf_counter() - t1
    Path(out).write_text(json.dumps(summary))
    return code


def run_paced(out, argv) -> int:
    import pace
    sampler = pace.Sampler()
    sampler.start()
    try:
        from finstack.cli import main as desc
        code = desc(argv)
    finally:
        Path(out).write_text(json.dumps(sampler.stop()))
    return code


def main(argv) -> int:
    mode = argv[0]
    if mode == "probe":
        probe()
        return 0
    if mode == "corpus":
        out, seed, cases, trace = argv[1:5]
        run_corpus(out, int(seed), int(cases), trace == "1", argv[5] if len(argv) > 5 else None)
        return 0
    if mode == "desc":
        out, spans, sep = argv[1:4]
        if sep != "--":
            raise SystemExit("usage: worker.py desc OUT SPANS -- <desc arguments>")
        return run_desc(out, spans, argv[4:])
    if mode == "paced":
        out, sep = argv[1:3]
        if sep != "--":
            raise SystemExit("usage: worker.py paced OUT -- <desc arguments>")
        return run_paced(out, argv[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
