"""Which statements of the library the program's questions run.

Run from anywhere, on the checkout that holds this file:

    python3 tools/reach.py

It records with ``sys.settrace`` every line of ``src/cuspfol`` that runs
while the program answers two question sets in process:

- streams: the first 150 questions and the anchors of every benchmark
  workload at seed 43, each asked as ``cuspfol.cli.main(argv + ["--json"])``
  the way ``perfbench/run.py`` asks it (through ``tools/census.py``, which
  reads ``perfbench/workloads.py`` without changing it);
- all: the streams and the full question set of ``tests/test_reachable.py``
  (``ask_every_question``: the anchors, the fuzz questions, ``FIXED`` and the
  acceptance criteria).

A statement is one of a function body, nested ones included; a docstring is
not one, by the rule ``tools/loc.py`` counts code lines with.  A statement
ran when a line it holds outside its nested statements ran, or one of its
nested statements did.  The tool prints one line per module,

    <module> statements=<n> streams=<k> all=<m>

then a total line, then one line ``unreached <module.Qualified.name>
statements=<n> all=<m>`` for each function no stream question reaches, then
one line ``idle <module.Qualified.name>:<line>`` for each statement that no
question of either set runs inside a function that some question reaches.
A reader that closes the pipe early ends it quietly, as ``tools/loc.py``.
It takes no argument: any one, ``--help`` among them, prints one usage line
to stderr and exits with code 2, before anything is traced.

Stdlib only (the full set needs the ``pytest`` the tests import); it takes
about 30 s on a 2-core host.
"""

from __future__ import annotations

import ast
import os
import sys

import census  # puts src and perfbench on sys.path
import loc

PACKAGE = os.path.join(census.ROOT, "src", "cuspfol")
SEED = 43
QUESTIONS = 150


def function_statements(tree, module):
    """(qualified function name, statement, index of the parent statement)
    of every statement of a function body, nested ones included, outer ones
    first; the parent is None for a statement directly in a function body."""
    skip = loc.docstring_lines(tree)
    out = []

    def body(stmts, name, parent):
        for s in stmts:
            if s.lineno in skip:
                continue
            out.append((name, s, parent))
            visit(s, name, len(out) - 1)

    def visit(node, name, parent):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body(node.body, f"{name}.{node.name}", None)
            return
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for child in getattr(node, field, ()):
                if isinstance(child, ast.stmt):
                    body([child], name, parent)
                else:  # an except handler or a match case holds statements
                    body(child.body, name, parent)

    def top(node, name):
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body(child.body, f"{name}.{child.name}", None)
            elif isinstance(child, ast.ClassDef):
                top(child, f"{name}.{child.name}")

    top(tree, module)
    return out


def statement_lines(stmts):
    """{line: index into ``stmts``} of the innermost statement that holds
    each line; a ``def`` holds its decorator lines too."""
    owner = {}
    for k, (_, s, _) in enumerate(stmts):
        first = min([d.lineno for d in getattr(s, "decorator_list", ())] + [s.lineno])
        for line in range(first, s.end_lineno + 1):
            owner[line] = k  # inner statements come later and take over
    return owner


def traced_lines(run):
    """(file, line) of every line of the package that runs during ``run()``."""
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(None)
    return seen


def ran_statements(stmts, owner, path, seen):
    """The indices of the statements of ``stmts`` that ran."""
    ran = {owner[line] for file, line in seen if file == path and line in owner}
    for k in list(ran):
        parent = stmts[k][2]
        while parent is not None and parent not in ran:
            ran.add(parent)
            parent = stmts[parent][2]
    return ran


def ask_streams():
    for name in census.workloads.WORKLOADS:
        for argv in census.questions(name, SEED, QUESTIONS):
            census.answer(argv)


def ask_every_question():
    """``test_reachable.ask_every_question``, imported after the streams ran
    and outside the trace, so what the test modules compute at import counts
    for neither set."""
    sys.path.insert(0, os.path.join(census.ROOT, "tests"))
    import test_reachable

    return test_reachable.ask_every_question


def main():
    if sys.argv[1:]:
        print("usage: python3 tools/reach.py (takes no arguments)", file=sys.stderr)
        sys.exit(2)
    streams = traced_lines(ask_streams)
    everything = streams | traced_lines(ask_every_question())
    totals = [0, 0, 0]
    unreached, idle = [], []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        module = name[:-3]
        with open(path, encoding="utf-8") as f:
            stmts = function_statements(ast.parse(f.read()), module)
        owner = statement_lines(stmts)
        by_streams = ran_statements(stmts, owner, path, streams)
        by_all = ran_statements(stmts, owner, path, everything)
        counts = (len(stmts), len(by_streams), len(by_all))
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{module} statements={counts[0]} streams={counts[1]} all={counts[2]}")
        functions = {}
        for k, (function, _, _) in enumerate(stmts):
            functions.setdefault(function, []).append(k)
        for function, ks in functions.items():
            reached = len(by_all.intersection(ks))
            if not by_streams.intersection(ks):
                unreached.append(f"unreached {function} statements={len(ks)} all={reached}")
            if reached:
                idle += [f"idle {function}:{stmts[k][1].lineno}" for k in ks if k not in by_all]
    print(f"total statements={totals[0]} streams={totals[1]} all={totals[2]}")
    for line in unreached + idle:
        print(line)


if __name__ == "__main__":
    loc.run(main)
