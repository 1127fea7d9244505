"""Count the code lines of the package, without blank lines, comments and
docstrings.

    python3 scripts/code_lines.py [-v]

A line counts if it holds a token other than a comment, a line break or an
indent, and it is not part of a docstring: the string that opens a module,
class or function body.  The script reads ``src/fracture_afem/*.py`` of its
own checkout and prints the total; ``-v`` prints the count of each file
first.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracture_afem"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the parsed module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines in the Python source ``text``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print the count of each file")
    verbose = parser.parse_args(argv).verbose
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        if verbose:
            print(f"{n:6,}  {path.name}")
    print(f"{total:,}")


if __name__ == "__main__":
    main()
