"""The README's `desc` transcripts, run.

Each `$ desc ...` line in a fenced block of README.md is run in-process from
the repo root, and the lines it prints must be the lines shown under it, up
to the first blank line. A run of exactly three dots in a shown line stands
for any text.
"""

import re
import shlex
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from finstack.cli import main

ROOT = Path(__file__).resolve().parent.parent
WILDCARD = re.compile(r"(?<!\.)\.\.\.(?!\.)")


def transcripts():
    """(command line, shown lines) for each `$ desc` line of README.md."""
    runs, fenced, shown = [], False, None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced, shown = not fenced, None
        elif fenced and line.startswith("$ desc "):
            shown = []
            runs.append((line[len("$ "):], shown))
        elif shown is not None and line:
            shown.append(line)
        else:
            shown = None
    return runs


TRANSCRIPTS = transcripts()


def matches(shown: str, printed: str) -> bool:
    pattern = ".*".join(re.escape(part) for part in WILDCARD.split(shown))
    return re.fullmatch(pattern, printed) is not None


def test_the_readme_shows_transcripts():
    assert [command for command, _ in TRANSCRIPTS] == [
        "desc check-cover sites/covers_ok.site",
        "desc glue-object sites/cocycle_bad.site"]


@pytest.mark.parametrize("command, shown", TRANSCRIPTS,
                         ids=[command for command, _ in TRANSCRIPTS])
def test_readme_transcript_prints_what_it_shows(command, shown, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = StringIO()
    with redirect_stdout(out):
        main(shlex.split(command)[1:])
    printed = out.getvalue().splitlines()
    assert len(printed) == len(shown), printed
    for want, got in zip(shown, printed):
        assert matches(want, got), (want, got)


def test_three_dots_alone_are_a_wildcard():
    assert matches("FAIL (cocycle fails at ...)", "FAIL (cocycle fails at (0,0,0))")
    assert matches("Bad ........ FAIL", "Bad ........ FAIL")
    assert not matches("Bad ........ FAIL", "Bad .... FAIL")
    assert not matches("FAIL (cocycle fails at (i,j,k)=(0,0,0) ...)",
                       "FAIL (cocycle fails on triple overlap (0,0,0) at (('*', '*'), '*'))")
