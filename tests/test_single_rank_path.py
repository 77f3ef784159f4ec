"""The simulation layer ranks over GF(p) only: no floating-point linear
algebra or singular-value tolerance comes back into the package.  The float
path lives in tests/oracles.py as a reference."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "timdof").rglob("*.py"))
FLOAT_RANK = re.compile(r"np\.linalg|numpy\.linalg|RANK_REL_TOL")


def test_sources_were_found():
    assert any(p.name == "linear_sim.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_float_rank(path):
    hits = [n for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if FLOAT_RANK.search(line)]
    assert hits == [], f"{path.relative_to(ROOT)} mentions a float rank at lines {hits}"
