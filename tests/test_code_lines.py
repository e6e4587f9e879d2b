"""tools/code_lines.py: the count of non-blank lines outside comments and
docstrings that ROADMAP.md and CHANGES.md quote."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# code lines, top to bottom: an import with a trailing comment (1), a def
# over two lines (2), a bracketed continuation (2), a string over three
# lines with a blank one inside (2), a backslash continuation (2), a
# string statement that is not the first of its body (1), a class (1) and
# its body (1): 12.  The docstrings, the comment line and the blank lines
# count nowhere.
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line

# a comment line


def f(x,
      y):
    """Function docstring."""
    total = (x +
             y)
    s = """text

    more"""
    return total \\
        + len(s)
    "not a docstring"


class C:
    """Class docstring,

    with a blank line."""
    a = 1
'''


def _code_lines():
    path = ROOT / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_rule_on_a_fixture():
    count = _code_lines().code_lines
    assert count(FIXTURE) == 12
    assert count("") == 0
    assert count('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_code_lines_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"),
                          str(tmp_path / "pkg"), str(tmp_path / "b.py")],
                         capture_output=True, text=True, timeout=60, check=True)
    lines = [line.split() for line in out.stdout.splitlines()]
    assert lines == [["12", str(tmp_path / "pkg" / "a.py")],
                     ["1", str(tmp_path / "b.py")], ["13", "total"]]
