"""Code lines per module of the library and the tests.

Run from anywhere, on the checkout that holds this file:

    python3 tools/loc.py [DIR ...]

With no argument it counts ``src/cuspfol`` and ``tests``.  For each
directory it prints one line per ``*.py`` module, ``<lines> <path>``, and a
total line ``<lines> <dir> total``; a reader that closes the pipe early ends
it quietly, with exit code 1.  An argument that is not a directory, ``--help``
among them, prints one usage line to stderr and exits with code 2, before
anything is counted.  A module it cannot read or tokenize (not UTF-8, or
not Python) ends the count with one stderr line that names it, and exit
code 2.  A code line is a physical line that
holds a token of the program: comments, blank lines and docstrings (the
string that opens a module, class or function body) are not counted.

Stdlib only: ``tokenize`` finds the lines that hold tokens and ``ast`` the
docstrings.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_DIRS = ("src/cuspfol", "tests")
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """The physical lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of physical lines of ``source`` that hold program tokens."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    dirs = sys.argv[1:] or DEFAULT_DIRS
    for d in dirs:
        if not os.path.isdir(os.path.join(ROOT, d)):
            print(f"usage: python3 tools/loc.py [DIR ...]: not a directory: {d}", file=sys.stderr)
            sys.exit(2)
    for d in dirs:
        total = 0
        for name in sorted(os.listdir(os.path.join(ROOT, d))):
            if name.endswith(".py"):
                try:
                    with open(os.path.join(ROOT, d, name), encoding="utf-8") as f:
                        n = code_lines(f.read())
                except (OSError, UnicodeDecodeError, SyntaxError, tokenize.TokenError) as e:
                    print(f"loc.py: cannot count {d}/{name}: {type(e).__name__}: {e}", file=sys.stderr)
                    sys.exit(2)
                total += n
                print(f"{n:6d} {d}/{name}")
        print(f"{total:6d} {d} total")


def run(entry):
    """Call ``entry()``; a reader that closes the pipe early (``loc.py |
    head``) ends it quietly, with exit code 1."""
    try:
        entry()
        sys.stdout.flush()
    except BrokenPipeError:
        # as the Python docs advise: point stdout at devnull so the flush at
        # exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    run(main)
