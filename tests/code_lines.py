"""Print the code lines of each ``src/entbounds`` module.

A code line holds a token of the program: blank lines, comment lines and
the lines of docstrings (the string that opens a module, class or
function body) are not counted.  This is the size measure that ROADMAP.md
and CHANGES.md quote.

Run from the repository root: ``python tests/code_lines.py``.
"""

import ast
import io
import pathlib
import sys
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token other than a
    comment, outside its docstrings."""
    skip = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(line for line in range(token.start[0], token.end[0] + 1)
                         if line not in skip)
    return len(lines)


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "entbounds"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
