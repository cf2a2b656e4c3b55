"""Code lines per module of the mmbgk package.

Usage: python3 tools/code_lines.py [SRC_DIR]

SRC_DIR defaults to the src/mmbgk of the checkout this script lives in.
Prints one "<count>  <file>" line per module, sorted by file name, and a
"<count>  total" line. A code line is a line that is not blank, not a
comment alone and not inside the docstring of a module, class or function;
the lines of any other string, multi-line ones included, count.
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """Line numbers of the docstrings of the module, classes and functions."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    src = argv[1] if len(argv) > 1 else os.path.join(here, "..", "src", "mmbgk")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{count}  {name}")
    print(f"{total}  total")


if __name__ == "__main__":
    main(sys.argv)
