"""Tests of the benchmark itself: determinism of its inputs, its closed-form
answers against brute force, the site grammar, and its metric names.

    python3 -m pytest bench
"""

from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

import corpus
import gen
import pace
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


# ------------------------------------------------------------ determinism

@pytest.mark.parametrize("group,n", run.SITE_CELLS)
def test_scaled_sites_repeat_per_seed(group, n):
    a = gen.scaled_site(Random(7), group, n)
    b = gen.scaled_site(Random(7), group, n)
    assert a[0].encode() == b[0].encode() and a[1] == b[1]
    assert gen.scaled_site(Random(8), group, n)[0] != a[0]


def test_corpus_cases_repeat_per_seed():
    tables = {name: gen.Table(name) for name in corpus.CASE_GROUPS}

    def cases(seed):
        rng = Random(seed)
        return [repr(sorted(corpus.make_case(rng, i, tables).items())) for i in range(40)]

    assert cases(5) == cases(5)
    assert cases(5) != cases(6)


# ------------------------------------------------- closed forms by brute force

def brute_bundles(table, n):
    """Actions of G on G x {0..n-1} over the second projection whose fibers
    are free and transitive, by enumerating every map G x P -> P."""
    g, e = table.elems, table.unit
    total = [(h, y) for y in range(n) for h in g]
    keys = [(a, p) for a in g for p in total]
    found = []
    for values in itertools.product(total, repeat=len(keys)):
        act = dict(zip(keys, values))
        if any(act[(a, p)][1] != p[1] for a, p in keys):
            continue
        if any(act[(e, p)] != p for p in total):
            continue
        if any(act[(table.mul[(a, b)], p)] != act[(a, act[(b, p)])]
               for a in g for b in g for p in total):
            continue
        if any(act[(a, p)] == p for a in g if a != e for p in total):
            continue
        if any({act[(a, p)] for a in g} != {q for q in total if q[1] == p[1]} for p in total):
            continue
        found.append(act)
    return total, found


def brute_isomorphic(table, total, a1, a2):
    fibers = [[p for p in total if p[1] == y] for y in sorted({p[1] for p in total})]
    for perms in itertools.product(*[itertools.permutations(f) for f in fibers]):
        h = {p: q for f, perm in zip(fibers, perms) for p, q in zip(f, perm)}
        if all(h[a1[(a, p)]] == a2[(a, h[p])] for a in table.elems for p in total):
            return True
    return False


def brute_trivial_automorphisms(table, n):
    total = [(h, y) for y in range(n) for h in table.elems]
    count = 0
    for values in itertools.product(total, repeat=len(total)):
        m = dict(zip(total, values))
        if any(m[p][1] != p[1] for p in total):
            continue
        if all(m[(table.mul[(a, p[0])], p[1])] == (table.mul[(a, m[p][0])], m[p][1])
               for a in table.elems for p in total):
            count += 1
    return count


@pytest.mark.parametrize("group,n", [("Z2", 1), ("Z2", 2), ("Z3", 1)])
def test_closed_forms_match_brute_force(group, n):
    table = gen.Table(group)
    total, bundles = brute_bundles(table, n)
    classes = []
    for act in bundles:
        if not any(brute_isomorphic(table, total, act, rep) for rep in classes):
            classes.append(act)
    got = (len(bundles), len(classes), brute_trivial_automorphisms(table, n))
    assert got == gen.classify_answer(table.order, n)


# ------------------------------------------------------------ site grammar

def _ebnf_rules(text):
    """Rules of docs/site-grammar.ebnf as nested tuples: ("alt", ...),
    ("seq", ...), ("opt", x), ("rep", x), ("lit", s) and ("ref", name)."""
    text = re.sub(r"\(\*.*?\*\)", " ", text, flags=re.S)
    toks = re.findall(r'"[^"]*"|[A-Za-z_]+|[=;|()\[\]{}]', text)
    pos = 0

    def alt():
        nonlocal pos
        parts = [seq()]
        while toks[pos] == "|":
            pos += 1
            parts.append(seq())
        return parts[0] if len(parts) == 1 else ("alt", *parts)

    def seq():
        nonlocal pos
        items = []
        while toks[pos] not in ("|", ")", "]", "}", ";"):
            t = toks[pos]
            pos += 1
            if t.startswith('"'):
                items.append(("lit", t[1:-1]))
            elif t in "([{":
                inner = alt()
                pos += 1
                items.append(inner if t == "(" else ("opt" if t == "[" else "rep", inner))
            else:
                items.append(("ref", t))
        return ("seq", *items)

    rules = {}
    while pos < len(toks):
        name = toks[pos]
        assert toks[pos + 1] == "="
        pos += 2
        rules[name] = alt()
        assert toks[pos] == ";"
        pos += 1
    return rules


def _site_tokens(text):
    text = re.sub(r"#[^\n]*", " ", text)
    return re.findall(r"->|[{}\[\](),=:*]|\d+|[A-Za-z_]\w*|\S", text)


def _matches(rules, tokens):
    """PEG-style match of `site` against the whole token list; the lexical
    rules NAME, IDENT and INT match one identifier or integer token."""

    def m(node, pos):
        kind = node[0]
        if kind == "lit":
            return pos + 1 if pos < len(tokens) and tokens[pos] == node[1] else None
        if kind == "ref":
            name = node[1]
            if name in ("NAME", "IDENT"):
                ok = pos < len(tokens) and re.fullmatch(r"[A-Za-z_]\w*", tokens[pos])
                return pos + 1 if ok else None
            if name == "INT":
                ok = pos < len(tokens) and tokens[pos].isdigit()
                return pos + 1 if ok else None
            return m(rules[name], pos)
        if kind == "seq":
            for item in node[1:]:
                pos = m(item, pos)
                if pos is None:
                    return None
            return pos
        if kind == "alt":
            for item in node[1:]:
                end = m(item, pos)
                if end is not None:
                    return end
            return None
        if kind == "opt":
            end = m(node[1], pos)
            return pos if end is None else end
        while True:                         # rep
            end = m(node[1], pos)
            if end is None or end == pos:
                return pos
            pos = end

    return m(rules["site"], 0) == len(tokens)


@pytest.fixture(scope="module")
def grammar():
    return _ebnf_rules((ROOT / "docs" / "site-grammar.ebnf").read_text())


def test_grammar_matcher_rejects_other_forms(grammar):
    assert _matches(grammar, _site_tokens("set Y = { 0 1 }\ncover C { target Y points }\n"))
    assert not _matches(grammar, _site_tokens("cover C { target Y everything }\n"))
    assert not _matches(grammar, _site_tokens("set Y = { 0 1 \n"))


@pytest.mark.parametrize("group,n", run.SITE_CELLS)
def test_scaled_sites_follow_grammar(grammar, group, n):
    assert _matches(grammar, _site_tokens(gen.scaled_site(Random(1), group, n)[0]))



# ---------------------------------------------------------- known answers

def test_small_site_verdicts_match_known_answers(tmp_path):
    text, answers = gen.scaled_site(Random(2), "Z6", 8)
    site = tmp_path / "z6.site"
    site.write_text(text)
    env = run.child_env()
    for command, expected in answers.items():
        report = tmp_path / f"{command}.json"
        paced = tmp_path / f"{command}.pace"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "paced", str(paced), "--",
             command, str(site), "--seed", "2", "--budget", str(run.BUDGET),
             "--bound", str(run.BOUND), "--report", str(report)],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.check_report(report, proc.returncode, expected) is None, proc.stderr
        chunk = json.loads(paced.read_text())
        assert chunk is None or chunk > 0


def test_one_corpus_window_is_right():
    sys.path.insert(0, str(ROOT / "src"))
    import finstack as fs
    tables, groups = corpus.catalog(fs)
    rng = Random(4)
    for i in range(len(corpus.WINDOW)):
        corpus.run_case(fs, groups, tables, corpus.make_case(rng, i, tables))


def test_check_report_flags_a_wrong_witness(tmp_path):
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"checks": [
        {"name": "Gap", "status": "fail", "error": "CoverNotCanonical",
         "witness": {"uncovered": [3]}, "detail": ""}]}))
    right = (1, [gen.expect("Gap", "CoverNotCanonical", uncovered=[3])])
    wrong = (1, [gen.expect("Gap", "CoverNotCanonical", uncovered=[4])])
    assert run.check_report(report, 1, right) is None
    assert run.check_report(report, 1, wrong) is not None
    assert run.check_report(report, 0, right) is not None


# ------------------------------------------------------------ metric names

def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    zero = {"calls": {}, "self_s": {}, "caches": {}, "enum": {"candidates": 0, "found": 0}}
    layer = run.layer_metrics(zero, 0.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, u in run.END_TO_END.items())
    assert all(units[k] == u for k, (_, u) in layer.items())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 301)]
    value, pct = run.tail(xs)
    assert pct == 96 and sum(x > value for x in xs) >= 10
    assert run.tail([float(i) for i in range(1, 21)]) == (15.0, 75)
    assert run.tail([2.0, 1.0]) == (2.0, 75)


def test_corpus_tail_is_per_worker():
    run_ = run.Run("descent_corpus", 1, 1, False)
    for workers in (3, 5):
        xs = [float(i) for i in range(workers * run.SEGMENT_CASES)]
        value, pct = run_.tail(xs)
        assert pct == 90
        middle = workers // 2 * run.SEGMENT_CASES
        assert value == xs[middle + 94]          # the middle worker's 90th


# ------------------------------------------------------------------ pace

def test_pace_kernel_is_deterministic():
    assert pace.kernel() == pace.kernel()
    assert pace.sample(0.01) > 0


def test_smooth_averages_neighbouring_chunks():
    assert pace.smooth([]) == []
    assert pace.smooth([1.0, 2.0, 3.0]) == [2.0, 2.0, 2.0]
    chunks = [float(i) for i in range(4 * pace.SMOOTH)]
    middle = 2 * pace.SMOOTH
    assert pace.smooth(chunks)[middle] == chunks[middle]     # symmetric window


def test_sampler_times_the_kernel_while_the_process_works():
    sampler = pace.Sampler()
    sampler.start()
    t0 = time.monotonic()
    while time.monotonic() - t0 < 4 * pace.SAMPLE_EVERY:
        sum(i * i for i in range(1000))
    chunk = sampler.stop()
    assert len(sampler.times) >= 2 and chunk > 0
    n = len(sampler.times)
    time.sleep(2 * pace.SAMPLE_EVERY)
    assert len(sampler.times) == n             # stopped: no more ticks

