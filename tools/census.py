"""A byte census of the CLI over the benchmark's question streams.

Run from anywhere, on the checkout that holds this file:

    python3 tools/census.py [--seeds 1 43 2035] [--questions 600] [--plain]
                            [--workloads sweep series dense-nf cohomology high-order]

For each workload and seed it asks the first ``--questions`` questions of
the seeded stream (``perfbench/workloads.py``) and then the workload's
anchors, in process, each as ``cuspfol.cli.main(argv + ["--json"])``, and
prints one line

    <workload> seed=<seed> questions=<count> sha256=<hex>

with one sha256 over every question's argv, exit code and stdout.  Two
checkouts answer alike exactly when their lines match, so a change that
must keep the output byte for byte runs this at both and compares.  A
question that raises is hashed by its exception's type and message.
``--plain`` asks the same questions without ``--json`` and hashes the
plain-text reports; its lines read ``<workload> plain seed=...``.  A
negative ``--questions`` is a usage error (exit code 2), and a reader that
closes the pipe early ends the census quietly, as ``tools/loc.py``.

``tools/census.lock`` holds the lines of seed 43 at 60 questions, with and
without ``--plain``, and the ``high-order`` line; ``tests/test_census.py``
computes them again in process and compares.

The last line, ``high-order questions=<count> sha256=<hex>``, hashes the
same way the questions the streams never ask at high orders:
``first-integral`` (at the default degree and at degree 8),
``symmetries`` and ``equiv`` (each ordered pair) on the README, ROADMAP
and SINH forms at orders 64 and 160; ``normal-form`` on those three forms
at order 64 and on the moved defect-(b) template
(``workloads.DEFECT_B_MOVED``) at orders 24 and 32, above the streams'
orders 12-16, where its pullbacks carry larger numerators.
``--workloads`` selects it by that name.

Stdlib only; it imports the checkout's ``src/cuspfol`` and reads
``perfbench/workloads.py`` without changing it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from cuspfol import cli  # noqa: E402


def answer(argv, plain=False):
    """(exit code or the exception, stdout) of one question, asked with
    ``--json`` unless ``plain``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv) + ([] if plain else ["--json"]))
        except (Exception, SystemExit) as e:
            code = f"raise {type(e).__name__}: {e}"
    return code, buf.getvalue()


HIGH_ORDER_FORMS = (
    "mero:(y^2+x^3)/(x*y)",
    "mero:(y^2+x^3+x^2*y)/(x*y+x^3)",
    "(-y^3 + 2*x^3*y + x^4*y) dx + (x*y^2 - x^4) dy",
)


def high_order_argvs():
    for order in ("64", "160"):
        for f in HIGH_ORDER_FORMS:
            yield ["first-integral", f, "--order", order]
            yield ["first-integral", f, "--order", order, "--degree", "8"]
            yield ["symmetries", f, "--order", order]
            for g in HIGH_ORDER_FORMS:
                yield ["equiv", f, g, "--order", order]
    for f in HIGH_ORDER_FORMS:
        yield ["normal-form", f, "--order", "64"]
    for order in ("24", "32"):
        yield ["normal-form", workloads.DEFECT_B_MOVED, "--order", order]


def digest(argvs, plain=False):
    """(number of questions, sha256 hex) of a list of argvs."""
    h = hashlib.sha256()
    for argv in argvs:
        code, out = answer(argv, plain)
        h.update(repr((argv, code, out)).encode())
    return len(argvs), h.hexdigest()


def questions(name, seed, count):
    """The argvs of the first ``count`` questions of a workload's stream and
    of its anchors."""
    stream = itertools.islice(workloads.stream(name, seed), count)
    return [q.argv for q in [*stream, *workloads.anchors(name)]]


def line(name, seed, argvs, plain=False):
    """The census line of one workload and seed, asked as ``argvs``."""
    count, hexdigest = digest(argvs, plain)
    tag = " plain" if plain else ""
    return f"{name}{tag} seed={seed} questions={count} sha256={hexdigest}"


def high_order_line(plain=False):
    count, hexdigest = digest(list(high_order_argvs()), plain)
    tag = " plain" if plain else ""
    return f"high-order{tag} questions={count} sha256={hexdigest}"


def count(text):
    """A nonnegative number of questions, for argparse."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, not {n}")
    return n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 43, 2035])
    parser.add_argument("--questions", type=count, default=600)
    parser.add_argument("--plain", action="store_true", help="hash the reports without --json")
    names = [*workloads.WORKLOADS, "high-order"]
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = parser.parse_args(argv)
    for name in args.workloads:
        if name == "high-order":
            print(high_order_line(args.plain), flush=True)
            continue
        for seed in args.seeds:
            print(line(name, seed, questions(name, seed, args.questions), args.plain), flush=True)


if __name__ == "__main__":
    import loc  # beside this file, so on sys.path when run as a script

    loc.run(main)
