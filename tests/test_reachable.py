"""Every definition of the library is reached by a question the program
answers.

``test_definitions`` counts a unit test as a reference, so a function that
only its own tests call passes there while no CLI question and no
acceptance criterion reaches it.  Two scans here are stricter.

The static scan: a module-level ``def`` or ``class`` in ``src/cuspfol``
must be named by another library module, elsewhere in its own module
(outside its own body), by ``tests/test_acceptance.py``, or as an entry
point ``perfbench/spans.py`` traces.

The dynamic scan covers every function and method.  With
``sys.setprofile`` it records each library code object that runs while the
program answers a fixed question set:

- the anchors of every benchmark workload (``perfbench/workloads.py``);
- the seeded fuzz questions of ``test_cli.fuzz_argvs``;
- ``FIXED``, argvs for the paths those miss, each with its exit code and
  verdict;
- the ``test_criterion_*`` functions of ``tests/test_acceptance.py``, the
  strict-xfail one expected to fail its assertion.

A ``def`` whose code did not run fails the scan unless ``ALLOWED`` names
it, by its bare name (a protocol dunder) or as ``module.Qualified.name``,
with the reason it stays.  The question set takes about 4 s.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import sys

import pytest

from cuspfol import cli
from test_cli import CUSP, SINH, fuzz_argvs, load_workloads
from test_definitions import PACKAGE, ROOT, dead_definitions, traced_names

import test_acceptance


def module_definitions(tree):
    """(name, first line, last line) of every module-level def and class."""
    return [
        (node.name, node.lineno, node.end_lineno)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def test_the_scan_skips_methods_and_unit_tests():
    sources = {
        "lib.py": (
            "class Kept:\n"
            "    def only_tested(self): pass\n"
            "def helper(): return Kept()\n"
            "def entry(): return helper()\n"
            "def only_tested(): pass\n"
        ),
        "tests/test_acceptance.py": "from lib import entry\n",
    }
    assert dead_definitions(sources, defs=module_definitions) == [("lib.py", "only_tested")]


def test_every_definition_is_reached_without_unit_tests():
    library = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    sources = {**library, "tests/test_acceptance.py": acceptance}
    dead = [
        (f, n)
        for f, n in dead_definitions(sources, traced_names(), defs=module_definitions)
        if f in library
    ]
    assert not dead, "reached only by unit tests: " + ", ".join(f"{f}: {n}" for f, n in dead)


# ---------------------------------------------------------------------------
# the dynamic scan

ALLOWED = {
    "__hash__": "protocol dunder: values are hashable",
    "__repr__": "protocol dunder: values print in a debugger and in test failures",
    "__str__": "protocol dunder",
    "__bool__": "protocol dunder: verdicts and scalars test as booleans",
    "__iter__": "protocol dunder",
    "__eq__": "protocol dunder: the tests compare values",
    "coeff.Coeff.__setattr__": "the immutability guard runs only on a write it refuses",
    "coeff.Coeff.__rsub__": "reflected operator of the exported Coeff",
    "jets._Jet.__rsub__": "reflected operator of the exported Jet1 and Jet2",
    "jets.Jet1.__neg__": "unary operator of the exported Jet1",
    "jets.Jet2.__neg__": "unary operator of the exported Jet2",
    "linalg._certificate": (
        "the infeasibility certificate of solve(..., certificate=True), kept for "
        "certifying first-integral misses (ROADMAP item 6)"
    ),
}

# SINH pulled back by (t^3*x, t^4*y), t = p*q for the primes p = 131101 and
# q = 131113, the first two = 1 (mod 4) above 2^17: equiv reads the C*
# witness off a square root of 1/t^2, and past the trial divisors (below
# 10^5) only Pollard rho and the primality test split t^2 into Gaussian
# primes.
_T = 131101 * 131113
MOVED_SINH = (
    f"(-{_T**15}*y^3 + {2 * _T**16}*x^3*y + {_T**19}*x^4*y) dx"
    f" + ({_T**15}*x*y^2 - {_T**16}*x^4) dy"
)
_C = "123456789012345678"

# (argv, exit code, verdict); a refusal by argparse prints no verdict.
FIXED = [
    # a spelling the canonical reader leaves to argparse, and a refusal
    (["reduce", CUSP, "--order=8"], 0, "CuspTypeAbsolutelyDicritical"),
    (["reduce"], 2, None),
    # a product of two one-term factors past the coefficient bit budget
    (["reduce", f"({_C})^1000*({_C})^1000*x dx + y dy", "--order", "8"], 3, "InputError"),
    # the Gaussian factoring
    (["equiv", SINH, MOVED_SINH, "--order", "8"], 0, "Equivalent"),
    # tangency cones a*x^2 and a*(y+x)^2: reduce_cusp's linear change
    (["reduce", "mero:(x^2+y^3)/(x*y)", "--order", "8"], 0, "CuspTypeAbsolutelyDicritical"),
    (["reduce", "mero:((y+x)^2+x^3)/(x*(y+x))", "--order", "8"], 0, "CuspTypeAbsolutelyDicritical"),
    # a printed map with coefficients other than 1 and -1
    (["glue", SINH, "--order", "8"], 0, "CocycleBuilt"),
]


def ask(argv):
    """(exit code, verdict) of one question, asked with ``--json``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main([*argv, "--json"])
        except SystemExit as e:
            return e.code, None
    return code, json.loads(out.getvalue())["verdict"]


def ask_every_question():
    workloads = load_workloads()
    for name in workloads.WORKLOADS:
        for question in workloads.anchors(name):
            ask(question.argv)
    for argv in fuzz_argvs():
        ask(argv)
    for argv, code, verdict in FIXED:
        assert ask(argv) == (code, verdict), argv
    for name, criterion in vars(test_acceptance).items():
        if not name.startswith("test_criterion_"):
            continue
        if any(mark.name == "xfail" for mark in getattr(criterion, "pytestmark", ())):
            with pytest.raises(AssertionError):
                criterion()
        else:
            criterion()


def called_code(run):
    """(real file path, first line) of every code object that starts running
    during ``run()``; the previous profiler is restored afterwards."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(f), line) for f, line in seen}


def function_definitions(tree, module):
    """(qualified name, first line) of every def in a module, nested ones
    included.  The first line is that of the first decorator, as the code
    object records it."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out.append((prefix + child.name, first))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, f"{module}.")
    return out


def unreached(sources, ran):
    """(unreached, stale): the qualified names of the defs in ``sources``
    ({real path: text}) whose code is not in ``ran`` and that ``ALLOWED``
    does not name, and the qualified ``ALLOWED`` entries that name no def
    or one that ran."""
    dead, idle = [], set()
    for path, text in sources.items():
        module = os.path.splitext(os.path.basename(path))[0]
        for name, first in function_definitions(ast.parse(text), module):
            if (path, first) in ran:
                continue
            idle.add(name)
            if name not in ALLOWED and name.rsplit(".", 1)[1] not in ALLOWED:
                dead.append(name)
    stale = [name for name in ALLOWED if "." in name and name not in idle]
    return sorted(dead), stale


def test_the_dynamic_scan_flags_a_method_that_never_runs(tmp_path):
    path = tmp_path / "lib.py"
    path.write_text(
        "class Kept:\n"
        "    def called(self): return 1\n"
        "    def uncalled(self): return 2\n"
        "    def __repr__(self): return 'Kept()'\n"
        "    @staticmethod\n"
        "    def made(): return Kept()\n"
        "def entry(): return Kept.made().called()\n"
    )
    spec = importlib.util.spec_from_file_location("lib", path)
    lib = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lib)
    previous = sys.getprofile()
    ran = called_code(lib.entry)
    assert sys.getprofile() is previous
    dead, _ = unreached({os.path.realpath(path): path.read_text()}, ran)
    assert dead == ["lib.Kept.uncalled"]


def test_every_function_runs_on_a_question():
    # an earlier test may have built the cached parser, and a cache hit
    # runs neither _parser nor build_parser
    cli._parser.cache_clear()
    ran = called_code(ask_every_question)
    library = {os.path.realpath(p): p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    dead, stale = unreached(library, ran)
    assert not dead, "no question or criterion runs: " + ", ".join(dead)
    assert not stale, "allowed but run or gone: " + ", ".join(stale)
