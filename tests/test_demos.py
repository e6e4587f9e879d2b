"""Each demo runs to exit 0 and prints exactly its recorded output in
tests/demo_output/, so a change to the API the demos call, or to the
numbers they print, shows up here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_recorded_output():
    recorded = sorted((ROOT / "tests" / "demo_output").glob("*.txt"))
    assert [p.stem for p in recorded] == [p.stem for p in DEMOS] != []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_recorded_output(demo):
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.returncode == 0, out.stderr
    expected = ROOT / "tests" / "demo_output" / f"{demo.stem}.txt"
    assert out.stdout == expected.read_text()
