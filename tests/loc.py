"""Count the lines and code lines of ``src/blindsim`` and ``tests``.

Run from anywhere as ``python tests/loc.py``.  A code line is a
non-blank line that is neither a comment-only line nor part of a
docstring (a string literal that is the first statement of a module,
class or function).  Prints one row per file and a total per directory;
it reports only and checks no bound.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = (ROOT / "src" / "blindsim", ROOT / "tests")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(lines, code lines) of the Python file at ``path``."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text, str(path)))
    lines = text.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docs
    )
    return len(lines), code


def main() -> int:
    for directory in DIRECTORIES:
        total_lines = total_code = 0
        for path in sorted(directory.glob("*.py")):
            lines, code = count(path)
            total_lines += lines
            total_code += code
            print(f"{lines:6} {code:6}  {path.relative_to(ROOT)}")
        print(f"{total_lines:6} {total_code:6}  {directory.relative_to(ROOT)}/ total\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
