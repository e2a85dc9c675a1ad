"""Golden outcomes of parsing: every fixture site and seeded token mutations
of each.

tests/golden/site_parse.json pins, per text, the error class and message of
a failed parse (the message carries line:col), or the sha256 of
`format_site`'s output on success. A mutation deletes a token, inserts a
keyword or punctuation token, substitutes one for a token, or truncates the
text, so a change to the parser that moves any error, its position or the
printed form fails here. Regenerate the file only for an intended change:

    PYTHONPATH=src python tests/test_site_parse.py
"""

import hashlib
import json
import random
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "site_parse.json"
SITES = sorted(p.name for p in (ROOT / "sites").glob("*.site"))
MUTATIONS = 60

# one match per token, layout run or comment; only a token fills the group
TOKEN = re.compile(r"\s+|#[^\n]*|(\d+|[^\W\d]\w*|->|.)")
VOCAB = [
    "set", "map", "group", "action", "equivariant", "stack", "bundle",
    "cover", "qsobject", "datum", "gluing", "classify", "elements", "table",
    "space", "trivial", "regular", "src", "dst", "classifying", "base",
    "proj", "target", "points", "legs", "alpha", "bang", "restrict", "over",
    "twist", "by", "locals", "T",
    "{", "}", "[", "]", "(", ")", ",", "=", ":", "*", "->",
]


def mutate(text, rng):
    op = rng.randrange(4)
    if op == 3:
        return text[:rng.randrange(len(text) + 1)]
    spans = [m.span(1) for m in TOKEN.finditer(text) if m.group(1)]
    a, b = rng.choice(spans)
    if op == 0:
        return text[:a] + text[b:]
    tok = rng.choice(VOCAB)
    if op == 1:
        return text[:a] + tok + " " + text[a:]
    return text[:a] + tok + text[b:]


def texts(site):
    """(key, text) of the fixture and of its seeded mutations."""
    text = (ROOT / "sites" / site).read_text(encoding="utf-8")
    rng = random.Random(f"parse {site}")
    yield site, text
    for k in range(MUTATIONS):
        yield f"{site} #{k}", mutate(text, rng)


def outcome(text):
    from finstack.errors import FinstackError
    from finstack.sitefile import format_site, parse_site
    try:
        printed = format_site(parse_site(text))
    except FinstackError as err:
        return {"error": type(err).__name__, "message": str(err)}
    return {"sha256": hashlib.sha256(printed.encode("utf-8")).hexdigest()}


def test_golden_covers_every_site():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(k for s in SITES for k, _ in texts(s))


@pytest.mark.parametrize("site", SITES)
def test_parse_outcomes_match_golden(site):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for key, text in texts(site):
        assert outcome(text) == golden[key], key


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    runs = {k: outcome(t) for s in SITES for k, t in texts(s)}
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(runs)} outcomes to {GOLDEN.relative_to(ROOT)}")
