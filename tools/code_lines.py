"""Count the code lines of Python files: non-blank lines outside comments
and docstrings, the count that ROADMAP.md and CHANGES.md quote.

Usage, from the root of a checkout:

    python3 tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory, read recursively; the default is
src/freehardy.  The output gives one line per file and the total last.

A line counts when a token other than a comment or a line break touches
it and it is not blank: a string or a bracketed expression that spans
several lines counts each of its non-blank lines.  Docstrings (the first
statement of a module, class or function, when it is a string, found
with ast) count nowhere.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of one file's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    text = source.splitlines()
    return sum(1 for k in lines if text[k - 1].strip())


def python_files(paths: list[Path]) -> list[Path]:
    """The .py files named by paths, directories read recursively."""
    out = []
    for path in paths:
        out += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path,
                    default=[ROOT / "src" / "freehardy"])
    args = ap.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6,d}  {path}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
