"""The `desc` command line: run verification commands over site files.

Every command sweeps the declarations it applies to, prints one line per
check and exits 0 when all pass, 1 when some verified check failed (the
failure carries a witness), and 2 when the input itself is bad: syntax
errors, unresolved references, declarations failing their load-time checks,
or an option out of range. Exit 3 means an internal error: an unexpected
exception inside finstack, which is no verdict on the input. Its traceback
goes to stderr and the report carries the exception type as `error.kind`.
A --report path that cannot be written is an error too: exit 2, or 3 when
the run already faulted. Each command yields its checks, and one writer
turns the run's checks or its error into both the report and the output.

check-group and check-action report what the site load built: a group or
action failing its laws is rejected there (exit 2), so each one listed was
certified by check_group or check_action at load, or is the trivial or
regular action, lawful by its formula; neither certifier runs again.

--seed and --budget drive only verify-stack's generated corpus, whose cases
are checked one at a time as they are drawn, so memory does not grow with
the budget; the same seed reproduces the same run. A budget below 1 is bad
input (exit 2), and so is a bound below 1: no enumeration has fewer than
one item, so such a bound guards nothing. Cover and bundle checks are
deterministic. No command enumerates on its production path, so --bound
never refuses a verdict: it guards only the oracles of check-cover,
check-sheaf and classify under --cross-check.

--cross-check turns on the library's cross-check switch for the run: every
construction built by a formula re-runs the certifier it skips, and
check-bundle, check-cover, check-sheaf and classify also run the
definitional oracles of their deciders (local triviality over the point
cover with its certificate re-checked; the universal effective epi on
Σ_{k≤3} |Y|^k base changes and the Čech colimit of the generated sieve
mapping isomorphically onto the target; the |a|^Σ|U_i| candidate families
against the |a|^|Y| maps on the target; every bundle over the base, each
certified as an object of [T/G], with the hom sets among the first three
and the automorphisms of the trivial one). An oracle whose enumeration
would pass --bound, by `canonical_cover_cost`, `sheaf_enumeration_cost` or
`classify_enumeration_cost`, is skipped, uncounted. A disagreement is an
internal fault, exit 3, and so is a failed re-run. The report then counts
the re-runs in `cross_checks`. Verdicts and output are the same either way.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from random import Random

from .bundle import (
    Bundle,
    Trivialization,
    check_trivialization,
    is_locally_trivial,
    is_principal_bundle,
)
from .descent import glue_morphisms, glue_object, verify_stack
from .errors import (
    CocycleRequired,
    CoverNotCanonical,
    FinstackError,
    OverlapMismatch,
    UnknownCommand,
)
from .finset import CrossCheck, cross_check, format_atom
from .sample import build_corpus
from .sitefile import load_site
from .stack import (
    classify_by_enumeration,
    classify_enumeration_cost,
    classifying_fiber_equiv,
)
from .topology import (
    GeneratedSieve,
    canonical_cover_cost,
    check_sheaf_condition,
    is_canonical_cover,
    is_colim_sieve,
    is_jointly_surjective,
    point_cover,
    sheaf_condition_by_enumeration,
    sheaf_enumeration_cost,
    uncovered,
)


def _json_safe(v):
    if isinstance(v, tuple):
        return format_atom(v)
    if isinstance(v, dict):
        return {str(k): _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, set, frozenset)):
        return [_json_safe(x) for x in v]
    if v is None or isinstance(v, (str, int, float, bool)):
        return v
    return repr(v)


def _check(name, status, detail="", error=None, witness=None):
    return {"name": name, "status": status, "detail": detail,
            "error": error, "witness": _json_safe(witness)}


def _failed(name, err):
    """The failed check a witness error stands for; a datum rejected for
    its cocycle is witnessed by the cocycle's failure."""
    if isinstance(err, CocycleRequired):
        err = err.cause
    return _check(name, "fail", str(err), error=err.kind(), witness=err.payload())


def _cmd_check_group(site, args):
    for d in site.by_kind("group"):
        yield _check(d.name, "ok", f"order {len(d.value.carrier)}")


def _cmd_check_action(site, args):
    for d in site.by_kind("action"):
        yield _check(d.name, "ok", f"group of order {len(d.value.group.carrier)} "
                                   f"on {len(d.value.space)} atoms")


def _locally_trivial(proj) -> bool:
    """The definitional bundle oracle: a trivialization over the point
    cover, its certificate re-checked."""
    triv = is_locally_trivial(proj, point_cover(proj.map.dst))
    if isinstance(triv, Trivialization):
        check_trivialization(proj, triv)
        return True
    return False


def _cmd_check_bundle(site, args):
    for d in site.by_kind("bundle"):
        r = is_principal_bundle(d.value)
        cross_check(f"bundle {d.name} by local triviality", isinstance(r, Bundle),
                    _locally_trivial, d.value)
        if isinstance(r, Bundle):
            yield _check(d.name, "ok", f"{len(r.base)} fibers of size {len(r.group.carrier)}")
        else:
            yield _check(d.name, "fail", f"fiber over {format_atom(r.base_atom)} {r.reason}",
                         error="NotBundle",
                         witness={"base_atom": r.base_atom, "reason": r.reason})


def _cmd_check_cover(site, args):
    for d in site.by_kind("cover"):
        fam = d.value
        missed = uncovered(fam)
        if canonical_cover_cost(fam) <= args.bound:
            cross_check(f"cover {d.name} by universal effective epi", not missed,
                        lambda: is_canonical_cover(fam))
        cross_check(f"cover {d.name} by the colimit of its sieve", not missed,
                    lambda: is_colim_sieve(GeneratedSieve(fam)))
        if not missed:
            yield _check(d.name, "ok", f"{len(fam.legs)} legs onto {len(fam.target)} atoms")
        else:
            yield _check(d.name, "fail",
                         "not jointly surjective, misses "
                         + " ".join(format_atom(a) for a in missed),
                         error="CoverNotCanonical", witness={"uncovered": missed})


def _cmd_check_sheaf(site, args):
    sets = site.by_kind("set")
    for cd in site.by_kind("cover"):
        for sd in sets:
            name = f"{cd.name}/{sd.name}"
            ok = check_sheaf_condition(cd.value, sd.value)
            if sheaf_enumeration_cost(cd.value, sd.value) <= args.bound:
                cross_check(f"sheaf {name} by enumeration", ok,
                            sheaf_condition_by_enumeration, cd.value, sd.value, args.bound)
            if ok:
                yield _check(name, "ok", f"values in {len(sd.value)} atoms")
            else:
                yield _check(name, "fail", "matching families do not glue uniquely",
                             error="SheafConditionFail",
                             witness={"cover": cd.name, "values": sd.name,
                                      "cover_is_canonical": is_jointly_surjective(cd.value)})


def _cmd_glue_morphisms(site, args):
    for d in site.by_kind("gluing"):
        case = d.value
        try:
            eta = glue_morphisms(case.cover, case.src, case.dst, case.locals_)
        except (OverlapMismatch, CoverNotCanonical) as err:
            yield _failed(d.name, err)
        else:
            yield _check(d.name, "ok", f"glued on {len(eta.fn.src)} atoms")


def _cmd_glue_object(site, args):
    for d in site.by_kind("datum"):
        # a datum over the empty cover has no local to name its group and
        # structure space, so they come from the object it restricts
        obj = site[d.refs["restrict"]].value
        try:
            r = glue_object(d.value, group=obj.bundle.group, x_action=obj.x_action)
        except (CocycleRequired, CoverNotCanonical) as err:
            yield _failed(d.name, err)
        else:
            yield _check(d.name, "ok",
                         f"total of {len(r.glued.total)} atoms over "
                         f"{len(r.glued.base)} with {len(r.comparisons)} leg comparisons")


def _cmd_verify_stack(site, args):
    for d in site.by_kind("stack"):
        stack = d.value
        rep = verify_stack(stack.group, stack.x_action,
                           build_corpus(stack.group, stack.x_action,
                                        Random(args.seed), cases=args.budget))
        detail = ", ".join(f"{key} {cond.passed}/{cond.attempted}"
                           for key, cond in rep.conditions.items())
        if rep.ok:
            yield _check(d.name, "ok", detail)
        else:
            yield _check(d.name, "fail", detail, error="StackConditionFail",
                         witness={"failures": [f"{cond.name}: {msg}"
                                               for cond in rep.conditions.values()
                                               for msg in cond.failures]})


def _cmd_classify(site, args):
    for d in site.by_kind("classify"):
        task = d.value
        rep = classifying_fiber_equiv(task.group, task.base)
        if classify_enumeration_cost(task.group, task.base) <= args.bound:
            cross_check(f"classify {d.name} by enumeration", rep,
                        classify_by_enumeration, task.group, task.base, args.bound)
        yield _check(d.name, "ok", f"{rep.n_bundles} bundles, {rep.iso_classes} classes, "
                                   f"{rep.aut_trivial} automorphisms of the trivial one")


_COMMANDS = {
    "check-group": _cmd_check_group,
    "check-action": _cmd_check_action,
    "check-bundle": _cmd_check_bundle,
    "check-cover": _cmd_check_cover,
    "check-sheaf": _cmd_check_sheaf,
    "glue-morphisms": _cmd_glue_morphisms,
    "glue-object": _cmd_glue_object,
    "verify-stack": _cmd_verify_stack,
    "classify": _cmd_classify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="desc",
        description="verify groups, actions, bundles, covers and descent "
                    "problems declared in a site file")
    parser.add_argument("command", help="one of: " + ", ".join(sorted(_COMMANDS)))
    parser.add_argument("site", help="path to the site file")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for verify-stack's generated corpus")
    parser.add_argument("--budget", type=int, default=8,
                        help="size of verify-stack's generated corpus, "
                             "at least 1")
    parser.add_argument("--bound", type=int, default=4096,
                        help="size guard of the definitional oracles under "
                             "--cross-check: one whose enumeration would "
                             "pass it is skipped; no verdict is refused")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write a JSON report here")
    parser.add_argument("--cross-check", action="store_true",
                        help="re-run the certifiers that constructions skip "
                             "and the deciders' definitional oracles; a "
                             "disagreement exits 3")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    ran, agreed = CrossCheck.ran, CrossCheck.agreed
    was_on = CrossCheck.on
    CrossCheck.on = was_on or args.cross_check
    try:
        code, checks, error = _run(args)
    finally:
        CrossCheck.on = was_on

    if error is not None:
        print(f"desc: error: {error}", file=sys.stderr)
    passed = sum(1 for c in checks if c["status"] == "ok")
    report = {
        "schema": "desc-report/1",
        "command": args.command,
        "site": args.site,
        "seed": args.seed,
        "budget": args.budget,
        "bound": args.bound,
        "status": "error" if error is not None else "ok" if code == 0 else "fail",
        "checks": checks,
        "summary": {"total": len(checks), "passed": passed, "failed": len(checks) - passed},
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
    if error is not None:
        finstack_error = isinstance(error, FinstackError)
        report["error"] = {
            "kind": error.kind() if finstack_error else type(error).__name__,
            "message": str(error),
            "payload": _json_safe(error.payload() if finstack_error else {})}
    if args.cross_check:
        report["cross_checks"] = {"ran": CrossCheck.ran - ran,
                                  "agreed": CrossCheck.agreed - agreed}
    if args.report is not None:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        except OSError as err:
            print(f"desc: error: cannot write the report: {err}", file=sys.stderr)
            code = max(code, 2)
    if error is None:
        for c in checks:
            status = "ok" if c["status"] == "ok" else "FAIL"
            detail = f" ({c['detail']})" if c["detail"] else ""
            print(f"{args.command} {c['name']} ".ljust(44, ".") + f" {status}{detail}")
        if not checks:
            print(f"{args.command}: nothing to check")
        print(f"{passed}/{len(checks)} ok")
    return code


def _run(args):
    """The exit code, the checks and the error, or None, of the run."""
    if args.command not in _COMMANDS:
        return 2, [], UnknownCommand(args.command)
    for flag, value in (("budget", args.budget), ("bound", args.bound)):
        if value < 1:
            return 2, [], ValueError(f"--{flag} must be at least 1, got {value}")
    try:
        try:
            site = load_site(args.site)
        except (OSError, UnicodeDecodeError, FinstackError) as err:
            return 2, [], err
        checks = list(_COMMANDS[args.command](site, args))
    except Exception as err:
        # a fault inside finstack is no verdict on the input: keep it apart
        # from exit 1 (check failed) and exit 2 (bad input). traceback is
        # imported here because it costs about 3 ms of start-up otherwise.
        import traceback
        traceback.print_exc()
        return 3, [], err
    return (0 if all(c["status"] == "ok" for c in checks) else 1), checks, None


if __name__ == "__main__":
    sys.exit(main())
