"""End-to-end checks of the command-line front end.

Runs ``cuspfol.cli.main`` in process and asserts on verdict lines, report
shape and exit codes; two tests go through a real subprocess.
"""

import io
import contextlib
import functools
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import chain, islice
from pathlib import Path

import pytest

import cuspfol
from cuspfol.cli import _as_oneform, _print_report, main
from cuspfol.forms import linear_change, pullback_map, reduce_cusp
from cuspfol.jets import Jet2
from cuspfol.normalform import normalize

from oracles import format_form

RNG = random.Random(0xC11)

CUSP = "mero:(y^2+x^3)/(x*y)"
# normal-form tail (0,1,0,0) at degree 5: its transversal germ is sinh
SINH = "(-y^3 + 2*x^3*y + x^4*y) dx + (x*y^2 - x^4) dy"


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def verdict_of(out):
    for line in out.splitlines():
        if line.startswith("verdict: "):
            return line.split(": ", 1)[1]
    raise AssertionError(f"no verdict line in {out!r}")


def test_reduce_cusp_succeeds():
    code, out = run_cli("reduce", CUSP)
    assert code == 0
    assert verdict_of(out) == "CuspTypeAbsolutelyDicritical"
    assert 'singular_points_on_D2: [["0", 2]]' in out
    assert "exceptional_power_1: 4" in out
    assert "exceptional_power_2: 2" in out


def test_reduce_negative_verdicts():
    code, out = run_cli("reduce", "x dx + y dy")
    assert code == 1
    assert verdict_of(out) == "WrongReductionTree"
    code, out = run_cli("reduce", "(y^3) dx")
    assert code == 1
    assert verdict_of(out) == "NotDicritical"


def test_reduce_inconclusive_below_certifying_order():
    code, out = run_cli("reduce", CUSP, "--order", "4")
    assert code == 2
    assert verdict_of(out) == "Inconclusive"


@pytest.mark.parametrize(
    "form",
    [CUSP, "mero:(y^2+x^3+x^2*y)/(x*y+x^3)", "mero:(x^2+y^3)/(x*y)"],
)
def test_reduce_order_3_cusp_is_inconclusive_not_negative(form):
    # At order 3 the checks after the first blow-up would read the unknown
    # degree-4 and degree-5 terms as zeros; a cusp must not be refuted.
    code, out = run_cli("reduce", form, "--order", "3")
    assert (code, verdict_of(out)) == (2, "Inconclusive")
    code, _ = run_cli("reduce", form, "--order", "5")
    assert code == 0


@pytest.mark.parametrize(
    "form, verdict",
    [
        ("x dx + y dy", "WrongReductionTree"),
        ("(y^3) dx", "NotDicritical"),
        ("mero:(x^2+y^2+x^3)/(x*y)", "WrongReductionTree"),
    ],
)
def test_reduce_order_3_still_refutes_from_the_degree_3_part(form, verdict):
    code, out = run_cli("reduce", form, "--order", "3")
    assert (code, verdict_of(out)) == (1, verdict)


def test_input_errors_exit_three():
    code, out = run_cli("reduce", "mero:(y^2+x^3)/(x*y")
    assert code == 3
    assert verdict_of(out) == "InputError"
    assert "column" in out
    code, out = run_cli("sigma", "0.5*x dx")
    assert code == 3


def test_deep_nesting_is_an_input_error():
    # 1,200 pairs once overflowed the interpreter's stack inside the parser
    code, out = run_cli("reduce", "(" * 1200 + "x" + ")" * 1200 + " dx")
    assert code == 3
    assert verdict_of(out) == "InputError"
    assert "error: line 1, column 201: parentheses nest deeper than 200" in out


def test_a_numeral_past_the_digit_limit_is_refused_at_its_position():
    """int() converts at most sys.get_int_max_str_digits() digits; a longer
    numeral is an input error at its first digit, naming that limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out = run_cli("reduce", "1" * 5000 + " dx", "--order", "4")
        assert code == 3
        assert verdict_of(out) == "InputError"
        assert "error: line 1, column 1: the numeral has 5000 digits; at most 4300 are allowed" in out
        code, out = run_cli("reduce", "x dx +\n  " + "7" * 4301 + "*x dy", "--order", "4")
        assert code == 3
        assert "error: line 2, column 3: the numeral has 4301 digits; at most 4300 are allowed" in out
        code, out = run_cli("reduce", "7" * 4300 + "*x dx", "--order", "4")
        assert verdict_of(out) != "InputError"
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_coefficient_past_the_digit_limit_is_printed_in_full():
    """A report may hold a coefficient longer than str(int) converts: the
    cone coefficient of the SINH form times N^3, N a 4,000-digit numeral,
    has 12,000 digits.  It is printed exactly, and the interpreter's limit
    is left as it was."""
    n = "7" + "3" * 3998 + "1"
    cube = "*".join([n] * 3)
    text = f"{cube}*(-y^3 + 2*x^3*y + x^4*y) dx + {cube}*(x*y^2 - x^4) dy"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out = run_cli("reduce", text, "--order", "8", "--json")
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        want = str(int(n) ** 3)
    finally:
        sys.set_int_max_str_digits(limit)
    report = json.loads(out)
    assert (code, report["verdict"]) == (0, "CuspTypeAbsolutelyDicritical")
    assert report["data"]["p2_coefficient"] == want


def fuzz_text(rng):
    """A seeded input that nests deeply, raises to large exponents and
    carries large coefficients."""

    def atom(depth):
        r = rng.random()
        if r < 0.4 or depth > 2:
            return rng.choice(["x", "y", "i", "x*y", "(1+x)", "(x-i*y)"])
        if r < 0.55:
            digits = rng.choice([1, 1, 40, 400, 4000, 20000])
            return str(rng.randint(1, 9)) + "7" * (digits - 1)
        if r < 0.7:
            return f"{rng.randint(1, 9)}/{'3' * rng.choice([1, 30, 600])}"
        return "(" + expr(depth + 1) + ")"

    def factor(depth):
        s = atom(depth)
        if rng.random() < 0.25:
            big = rng.random() < 0.2
            s += "^" + str(rng.choice([17, 4096, 65537, 10**12, 10**40] if big else [0, 1, 2, 3]))
        if rng.random() < 0.15:
            k = rng.choice([201, 700] if rng.random() < 0.2 else [1, 3, 60, 190])
            s = "(" * k + s + ")" * k
        return s

    def expr(depth):
        terms = []
        for _ in range(rng.randint(1, 2)):
            terms.append("*".join(factor(depth) for _ in range(rng.randint(1, 3))))
        return rng.choice([" + ", " - "]).join(terms)

    if rng.random() < 0.3:
        return f"mero:({expr(0)})/({expr(0)})"
    return f"({expr(0)}) dx + ({expr(0)}) dy"


def fuzz_argvs():
    """The 120 seeded fuzz questions, each an argv of ``main``."""
    rng = random.Random(0xF022)
    for _ in range(120):
        order = str(rng.choice([4, 8, 12]))
        yield [rng.choice(["reduce", "sigma"]), fuzz_text(rng), "--order", order]


def big_product_argvs():
    """Products of 4,000-digit numerals, each factor within the coefficient
    bit budget: the shape of a fuzz draw that took 2.2 s in ``reduce``
    (``mero:(y)/(((4777...7)^3*4*3/333...3 + ...)*(...))^2``), and products
    of more such factors, which took up to 28 s before the budget was
    checked at each product."""
    n, p, q = "4" + "7" * 3999, "5" + "7" * 3999, "3" * 600
    f, g = f"({n}*x+{p}*y+1)", f"({p}*x+{n}*y+1)"
    texts = [
        f"mero:(y)/((({n})^3*4*3/{q} + x*({p})^2)*(({p})^3*y + {n}*x))^2",
        f"mero:(y)/((({n})^3*4*3/{q} + x)*({p}*y + {n}*x))^2",
        "mero:(y^2+x^3+" + "*".join([f] * 8) + ")/(x*y+" + "*".join([g] * 8) + ")",
        f"mero:(({n})^3*y^2+x^3)/(({p})^3*x*y+x^3)",
        f"(({n}^3*3/7 + {p}^3*x/11 + y*{n}/13)^12) dx + x dy",
        "*".join([n] * 40) + "*x dx + y dy",
    ]
    for text in texts:
        for command in ("reduce", "sigma"):
            yield [command, text, "--order", "12"]


# Bounded work, not speed: a draw that multiplies coefficients of tens of
# thousands of bits can take about 2 s on a shared 2-core host.
FUZZ_SECONDS = 10


def test_fuzzed_inputs_exit_classified_within_a_time_bound():
    """Seeded inputs that nest deeply (past the 200 limit too), raise to
    large exponents and carry large coefficients, numerals past the
    interpreter's digit limit and products of large numerals included: each
    answers with an exit code from 0 to 3 within a fixed time, and an input
    error says so.  An order or a degree past its ceiling is refused the
    same way; sigma, equiv and symmetries on SINH answer at the order
    ceiling, and first-integral at both ceilings on the README, ROADMAP
    and SINH forms."""
    codes = []
    top, degree = str(cuspfol.cli.MAX_ORDER), str(cuspfol.cli.MAX_DEGREE)
    big = list(big_product_argvs())
    big += [[command, CUSP, "--order", "10000000"] for command in ("sigma", "normal-form")]
    big += [
        ["first-integral", text, "--order", top, "--degree", str(cuspfol.cli.MAX_DEGREE + 1)]
        for text in (CUSP, SINH)
    ]
    ceiling = [
        [*command, SINH, "--order", top]
        for command in (["sigma"], ["equiv", SINH], ["symmetries"])
    ]
    ceiling += [
        ["first-integral", text, "--order", top, "--degree", degree]
        for text in (CUSP, ROADMAP, SINH)
    ]
    for argv in chain(fuzz_argvs(), big, ceiling):
        start = time.perf_counter()
        code, out = run_cli(*argv)
        assert time.perf_counter() - start < FUZZ_SECONDS, argv
        assert code in (0, 1, 2, 3), argv
        if code == 3:
            assert verdict_of(out) == "InputError"
        codes.append(code)
    assert 3 in codes and (1 in codes or 2 in codes)
    assert codes[-len(big) - len(ceiling):] == [3] * len(big) + [0] * 5 + [1]


def test_equiv_help_names_the_orbits_it_decides():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(out.getvalue().split())
    assert "lam*z/(1 + mu*z)" in text
    assert "C* action" not in text


def test_negative_order_is_refused_before_parsing():
    for argv in (("reduce", "x dx"), ("sigma", "not a form"), ("equiv", CUSP, CUSP)):
        code, out = run_cli(*argv, "--order", "-3")
        assert code == 3
        assert verdict_of(out) == "InputError"
        assert "error: --order must be nonnegative (got -3)" in out
        assert "raise --order" not in out


def test_power_beyond_the_order_exits_three_at_once():
    start = time.perf_counter()
    code, out = run_cli("reduce", "(1+x+y)^400 dx + x dy", "--order", "16")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert verdict_of(out) == "InputError"
    assert "--order" in out


def test_sigma_identity_to_requested_order():
    code, out = run_cli("sigma", CUSP, "--order", "12")
    assert code == 0
    assert verdict_of(out) == "Identity"
    assert 'sigma: [[1, "1"]]' in out
    assert "sigma_order: 12" in out


def test_sigma_nonidentity_frozen_series():
    code, out = run_cli("sigma", SINH, "--order", "10")
    assert code == 0
    assert verdict_of(out) == "NonIdentity"
    assert (
        'sigma: [[1, "1"], [3, "1/6"], [5, "1/120"], [7, "1/5040"], '
        '[9, "1/362880"]]'
    ) in out


def test_normal_form_of_the_cusp():
    code, out = run_cli("normal-form", CUSP, "--order", "10")
    assert code == 0
    assert verdict_of(out) == "Normalized"
    assert "alpha: -1" in out
    assert "a: 0" in out
    assert "trivial_tail: True" in out


def test_schwarzian_verdicts():
    code, out = run_cli("schwarzian", CUSP, "--order", "10")
    assert code == 0
    assert verdict_of(out) == "Homographic"
    assert "schwarzian: []" in out
    code, out = run_cli("schwarzian", SINH, "--order", "10")
    assert code == 0
    assert verdict_of(out) == "NonHomographic"


def test_equiv_same_input_is_equivalent():
    code, out = run_cli("equiv", CUSP, CUSP, "--order", "12")
    assert code == 0
    assert verdict_of(out) == "Equivalent"


def test_equiv_distinguishes_moduli():
    code, out = run_cli("equiv", SINH, CUSP, "--order", "10")
    assert code == 1
    assert verdict_of(out) == "NotEquivalent"


def test_symmetries_reports():
    code, out = run_cli("symmetries", CUSP, "--order", "10")
    assert code == 0
    assert verdict_of(out) == "InfiniteGroup"
    code, out = run_cli("symmetries", SINH, "--order", "12")
    assert code == 0
    assert verdict_of(out) == "FiniteCandidates"
    assert "lambda_order: 2" in out
    assert '{"lam": "-1", "mu": "0"}' in out


def test_symmetries_names_the_order_it_needs():
    # the Schwarzian of an order-N jet has order N - 3, and the search needs 4
    code, out = run_cli("symmetries", SINH, "--order", "6")
    assert code == 3
    assert verdict_of(out) == "InputError"
    assert "error: symmetry search needs jet order >= 7" in out
    assert "rerun with a larger --order" in out
    code, out = run_cli("symmetries", SINH, "--order", "7")
    assert code == 0
    assert verdict_of(out) == "FiniteCandidates"


def test_failed_reduction_recheck_exits_internal(monkeypatch):
    divide = cuspfol.forms.exceptional_divide

    def off_by_one(w, divisor_var):
        out, k = divide(w, divisor_var)
        return out, k + 1

    monkeypatch.setattr(cuspfol.forms, "exceptional_divide", off_by_one)
    code, out = run_cli("reduce", CUSP)
    assert code == 4
    assert verdict_of(out) == "InternalError"
    assert "error: AssertionError: the first blow-up" in out


def test_failed_certificate_recheck_exits_internal(monkeypatch):
    # a certificate that fails its re-check is a fault of the library, not
    # an Obstructed verdict with an unchecked certificate
    monkeypatch.setattr(cuspfol.gluing, "check_certificate", lambda *a: False)
    code, out = run_cli("cohomology", CUSP)
    assert code == 4
    assert verdict_of(out) == "InternalError"
    assert "error: AssertionError: coboundary split certificate failed its re-check" in out
    code, out = run_cli("cohomology", CUSP, "--json")
    assert code == 4
    assert json.loads(out)["verdict"] == "InternalError"


def test_first_integral_search():
    code, out = run_cli("first-integral", CUSP, "--order", "10", "--degree", "3")
    assert code == 0
    assert verdict_of(out) == "RelationFound"
    assert '"num": "z"' in out
    code, out = run_cli("first-integral", SINH, "--order", "10", "--degree", "3")
    assert code == 1
    assert verdict_of(out) == "NoRelationWithinBound"
    assert "probes: [[1, false], [2, false], [3, false]]" in out
    code, out = run_cli("first-integral", CUSP, "--order", "6", "--degree", "3")
    assert code == 3  # 2d+2 > jet order


def test_cohomology_obstruction():
    code, out = run_cli("cohomology", CUSP, "--order", "8")
    assert code == 1
    assert verdict_of(out) == "ObstructedDimensionOne"
    assert "corank: 1" in out
    assert "generator_independent: True" in out
    assert '"infeasibility_rows": [[[0, 1], "1"]]' in out
    assert '"checked": true' in out


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", CUSP],
        ["schwarzian", CUSP],
        ["symmetries", CUSP],
        ["first-integral", CUSP, "--degree", "3"],
        ["equiv", CUSP, CUSP],
        ["cohomology", CUSP],
        ["glue", CUSP],
    ],
    ids=lambda argv: argv[0],
)
def test_sigma_is_solved_at_the_requested_order(monkeypatch, argv):
    # sigma mod z^9 reads only corner data of degree < 8, so the corner germ
    # (jet order 25 after the two blow-ups) is solved at --order, not beyond
    import cuspfol.cli

    orders = []
    transversal_structure = cuspfol.cli.transversal_structure

    def recording(c, order=None):
        orders.append(order)
        return transversal_structure(c, order)

    monkeypatch.setattr(cuspfol.cli, "transversal_structure", recording)
    code, out = run_cli(*argv, "--order", "8")
    assert code in (0, 1), out
    assert orders == [8] * (2 if argv[0] == "equiv" else 1)


def test_cohomology_eliminates_once(monkeypatch):
    # rank, corank, feasibility and the certificate all come from the T
    # columns on the rows no A2 column pivots, and no full-order column is
    # built for them.  A T column of valuation d vanishes below degree d, so
    # that block is block triangular; its diagonal blocks G_d are binomial
    # matrices scaled by powers of A0(0,0) and sigma'(0), of full row rank,
    # so their ranks sum to rows - 1, the cap the zero y1 row sets, with no
    # elimination.  glue builds its cocycle without eliminating.
    import cuspfol.gluing
    import cuspfol.linalg

    rrefs = []
    builds = []
    rref = cuspfol.linalg.rref
    columns = cuspfol.gluing._t_columns

    def counting_rref(rows, limit):
        rrefs.append((len(rows), limit, len(rows[0])))
        return rref(rows, limit)

    def counting_columns(maps, n):
        builds.append(n)
        return columns(maps, n)

    monkeypatch.setattr(cuspfol.linalg, "rref", counting_rref)
    monkeypatch.setattr(cuspfol.gluing, "_t_columns", counting_columns)
    for order in (6, 16):
        code, out = run_cli("cohomology", CUSP, "--order", str(order))
        assert code == 1
        assert verdict_of(out) == "ObstructedDimensionOne"
        assert builds == [] and rrefs == []
    code, out = run_cli("glue", CUSP, "--order", "16")
    assert code == 0
    assert verdict_of(out) == "CocycleBuilt"
    assert rrefs == [] and builds == []


def test_y1_row_multiplies_no_vanishing_power(monkeypatch):
    # the y1 row is read off the order-1 maps: x3 = x1*(1 + alpha*y1) +
    # sigma(y1) is one product and x3^2, which stands for every T column
    # there, is the other; no T column is built and the A2 columns past
    # degree 1 are not built, so the split makes the same two Jet2 products
    # at every order
    import cuspfol.gluing
    import cuspfol.jets

    products, per_split = [], []
    mul = cuspfol.jets.jet2_mul
    split = cuspfol.gluing._solve_coboundary

    def counting_mul(*args):
        products.append(None)
        return mul(*args)

    def counting_split(*args):
        before = len(products)
        result = split(*args)
        per_split.append(len(products) - before)
        return result

    monkeypatch.setattr(cuspfol.jets, "jet2_mul", counting_mul)
    monkeypatch.setattr(cuspfol.gluing, "_solve_coboundary", counting_split)
    for order in (6, 16):
        code, out = run_cli("cohomology", CUSP, "--order", str(order))
        assert code == 1
        assert verdict_of(out) == "ObstructedDimensionOne"
    assert per_split == [2, 2]


ROADMAP = "mero:(y^2+x^3+x^2*y)/(x*y+x^3)"

# The --json reports of cohomology and glue at order 20, taken from the
# triple-by-triple elimination that the fraction-free kernel replaced.  Each
# is kept on one line; the CLI prints it as json.dumps(report,
# sort_keys=True, indent=2) and a newline.
ORDER_20_REPORTS = [
    (
        "cohomology",
        CUSP,
        1,
        '{"certificates": [{"checked": true, "infeasibility_rows": [[[0, 1], '
        '"1"]]}], "command": "cohomology", "data": {"alpha": "-1", '
        '"corank": 1, "feasible": false, "generator_independent": true, '
        '"rank": 230, "rows": 231, '
        '"target": "y1 (distinguished vertical direction)"}, "order": 20, '
        '"verdict": "ObstructedDimensionOne"}',
    ),
    (
        "glue",
        CUSP,
        0,
        '{"certificates": [], "command": "glue", "data": {"alpha": "-1", '
        '"map_first": "y1 + x1 - x1*y1", "map_second": "y1", "sigma": [[1, '
        '"1"]], "unit": [[0, 0, "1"], [0, 1, "-1"]]}, "order": 20, '
        '"verdict": "CocycleBuilt"}',
    ),
    (
        "cohomology",
        ROADMAP,
        1,
        '{"certificates": [{"checked": true, "infeasibility_rows": [[[0, 1], '
        '"1"]]}], "command": "cohomology", "data": {"alpha": "-1", '
        '"corank": 1, "feasible": false, "generator_independent": true, '
        '"rank": 230, "rows": 231, '
        '"target": "y1 (distinguished vertical direction)"}, "order": 20, '
        '"verdict": "ObstructedDimensionOne"}',
    ),
    (
        "glue",
        ROADMAP,
        0,
        '{"certificates": [], "command": "glue", "data": {"alpha": "-1", '
        '"map_first": "y1 + x1 + y1^2 - x1*y1 + y1^3 + y1^4 + y1^5 + y1^6 + y1^7 + y1^8 + y1^9 + y1^10 + y1^11 + y1^12 + y1^13 + y1^14 + y1^15 + y1^16 + y1^17 + y1^18 + y1^19 + y1^20", '
        '"map_second": "y1 + y1^2 + y1^3 + y1^4 + y1^5 + y1^6 + y1^7 + y1^8 + y1^9 + y1^10 + y1^11 + y1^12 + y1^13 + y1^14 + y1^15 + y1^16 + y1^17 + y1^18 + y1^19 + y1^20", '
        '"sigma": [[1, "1"], [2, "1"], [3, "1"], [4, "1"], [5, "1"], [6, "1"], '
        '[7, "1"], [8, "1"], [9, "1"], [10, "1"], [11, "1"], [12, "1"], [13, '
        '"1"], [14, "1"], [15, "1"], [16, "1"], [17, "1"], [18, "1"], [19, '
        '"1"], [20, "1"]], "unit": [[0, 0, "1"], [0, 1, "-1"]]}, "order": 20, '
        '"verdict": "CocycleBuilt"}',
    ),
]


@pytest.mark.parametrize(
    "command, text, code, report",
    ORDER_20_REPORTS,
    ids=[
        f"{command}-{'cusp' if text == CUSP else 'roadmap'}"
        for command, text, _, _ in ORDER_20_REPORTS
    ],
)
def test_order_20_reports_are_pinned(command, text, code, report):
    want = json.dumps(json.loads(report), sort_keys=True, indent=2) + "\n"
    assert run_cli(command, text, "--order", "20", "--json") == (code, want)


# The --json reports of cohomology and glue at orders 24 and 32, taken from
# the exact elimination that the rank modulo a prime replaced.
ORDER_24_32_REPORTS = [
    (
        "cohomology",
        CUSP,
        24,
        1,
        '{"certificates": [{"checked": true, "infeasibility_rows": [[[0, 1], '
        '"1"]]}], "command": "cohomology", "data": {"alpha": "-1", "corank": 1,'
        ' "feasible": false, "generator_independent": true, "rank": 324, '
        '"rows": 325, "target": "y1 (distinguished vertical direction)"}, '
        '"order": 24, "verdict": "ObstructedDimensionOne"}'
    ),
    (
        "cohomology",
        CUSP,
        32,
        1,
        '{"certificates": [{"checked": true, "infeasibility_rows": [[[0, 1], '
        '"1"]]}], "command": "cohomology", "data": {"alpha": "-1", "corank": 1,'
        ' "feasible": false, "generator_independent": true, "rank": 560, '
        '"rows": 561, "target": "y1 (distinguished vertical direction)"}, '
        '"order": 32, "verdict": "ObstructedDimensionOne"}'
    ),
    (
        "cohomology",
        ROADMAP,
        24,
        1,
        '{"certificates": [{"checked": true, "infeasibility_rows": [[[0, 1], '
        '"1"]]}], "command": "cohomology", "data": {"alpha": "-1", "corank": 1,'
        ' "feasible": false, "generator_independent": true, "rank": 324, '
        '"rows": 325, "target": "y1 (distinguished vertical direction)"}, '
        '"order": 24, "verdict": "ObstructedDimensionOne"}'
    ),
    (
        "cohomology",
        ROADMAP,
        32,
        1,
        '{"certificates": [{"checked": true, "infeasibility_rows": [[[0, 1], '
        '"1"]]}], "command": "cohomology", "data": {"alpha": "-1", "corank": 1,'
        ' "feasible": false, "generator_independent": true, "rank": 560, '
        '"rows": 561, "target": "y1 (distinguished vertical direction)"}, '
        '"order": 32, "verdict": "ObstructedDimensionOne"}'
    ),
    (
        "glue",
        CUSP,
        24,
        0,
        '{"certificates": [], "command": "glue", "data": {"alpha": "-1", '
        '"map_first": "y1 + x1 - x1*y1", "map_second": "y1", "sigma": [[1, '
        '"1"]], "unit": [[0, 0, "1"], [0, 1, "-1"]]}, "order": 24, "verdict": '
        '"CocycleBuilt"}'
    ),
    (
        "glue",
        CUSP,
        32,
        0,
        '{"certificates": [], "command": "glue", "data": {"alpha": "-1", '
        '"map_first": "y1 + x1 - x1*y1", "map_second": "y1", "sigma": [[1, '
        '"1"]], "unit": [[0, 0, "1"], [0, 1, "-1"]]}, "order": 32, "verdict": '
        '"CocycleBuilt"}'
    ),
    (
        "glue",
        ROADMAP,
        24,
        0,
        '{"certificates": [], "command": "glue", "data": {"alpha": "-1", '
        '"map_first": "y1 + x1 + y1^2 - x1*y1 + y1^3 + y1^4 + y1^5 + y1^6 + '
        'y1^7 + y1^8 + y1^9 + y1^10 + y1^11 + y1^12 + y1^13 + y1^14 + y1^15 + '
        'y1^16 + y1^17 + y1^18 + y1^19 + y1^20 + y1^21 + y1^22 + y1^23 + '
        'y1^24", "map_second": "y1 + y1^2 + y1^3 + y1^4 + y1^5 + y1^6 + y1^7 + '
        'y1^8 + y1^9 + y1^10 + y1^11 + y1^12 + y1^13 + y1^14 + y1^15 + y1^16 + '
        'y1^17 + y1^18 + y1^19 + y1^20 + y1^21 + y1^22 + y1^23 + y1^24", '
        '"sigma": [[1, "1"], [2, "1"], [3, "1"], [4, "1"], [5, "1"], [6, "1"], '
        '[7, "1"], [8, "1"], [9, "1"], [10, "1"], [11, "1"], [12, "1"], [13, '
        '"1"], [14, "1"], [15, "1"], [16, "1"], [17, "1"], [18, "1"], [19, '
        '"1"], [20, "1"], [21, "1"], [22, "1"], [23, "1"], [24, "1"]], "unit": '
        '[[0, 0, "1"], [0, 1, "-1"]]}, "order": 24, "verdict": "CocycleBuilt"}'
    ),
    (
        "glue",
        ROADMAP,
        32,
        0,
        '{"certificates": [], "command": "glue", "data": {"alpha": "-1", '
        '"map_first": "y1 + x1 + y1^2 - x1*y1 + y1^3 + y1^4 + y1^5 + y1^6 + '
        'y1^7 + y1^8 + y1^9 + y1^10 + y1^11 + y1^12 + y1^13 + y1^14 + y1^15 + '
        'y1^16 + y1^17 + y1^18 + y1^19 + y1^20 + y1^21 + y1^22 + y1^23 + y1^24 '
        '+ y1^25 + y1^26 + y1^27 + y1^28 + y1^29 + y1^30 + y1^31 + y1^32", '
        '"map_second": "y1 + y1^2 + y1^3 + y1^4 + y1^5 + y1^6 + y1^7 + y1^8 + '
        'y1^9 + y1^10 + y1^11 + y1^12 + y1^13 + y1^14 + y1^15 + y1^16 + y1^17 +'
        ' y1^18 + y1^19 + y1^20 + y1^21 + y1^22 + y1^23 + y1^24 + y1^25 + y1^26'
        ' + y1^27 + y1^28 + y1^29 + y1^30 + y1^31 + y1^32", "sigma": [[1, "1"],'
        ' [2, "1"], [3, "1"], [4, "1"], [5, "1"], [6, "1"], [7, "1"], [8, "1"],'
        ' [9, "1"], [10, "1"], [11, "1"], [12, "1"], [13, "1"], [14, "1"], [15,'
        ' "1"], [16, "1"], [17, "1"], [18, "1"], [19, "1"], [20, "1"], [21, '
        '"1"], [22, "1"], [23, "1"], [24, "1"], [25, "1"], [26, "1"], [27, '
        '"1"], [28, "1"], [29, "1"], [30, "1"], [31, "1"], [32, "1"]], "unit": '
        '[[0, 0, "1"], [0, 1, "-1"]]}, "order": 32, "verdict": "CocycleBuilt"}'
    ),
]


@pytest.mark.parametrize(
    "command, text, order, code, report",
    ORDER_24_32_REPORTS,
    ids=[
        f"{command}-{'cusp' if text == CUSP else 'roadmap'}-{order}"
        for command, text, order, _, _ in ORDER_24_32_REPORTS
    ],
)
def test_order_24_and_32_reports_are_pinned(command, text, order, code, report):
    want = json.dumps(json.loads(report), sort_keys=True, indent=2) + "\n"
    assert run_cli(command, text, "--order", str(order), "--json") == (code, want)


# The --json reports of cohomology at orders 40 and 48, taken from the solve
# on the full T block (every T column built, its rank modulo a prime) that
# the graded bound replaced, and at order 64, taken from the graded bound's
# ranks modulo a prime that the binomial lemma replaced.  Then the reports of
# sigma, schwarzian, symmetries and first-integral --degree 3 at orders 32
# and 48, taken from the first integral and the series reversion on
# normalized triples that the integer kernel replaced.
FORM_IDS = {CUSP: "cusp", ROADMAP: "roadmap", SINH: "sinh"}
ORDER_32_TO_64_REPORTS = [
    (
        "cohomology",
        ROADMAP,
        40,
        1,
        '{"certificates": [{"checked": true, "infeasibility_rows": [[[0, 1], '
        '"1"]]}], "command": "cohomology", "data": {"alpha": "-1", "corank": 1,'
        ' "feasible": false, "generator_independent": true, "rank": 860, '
        '"rows": 861, "target": "y1 (distinguished vertical direction)"}, '
        '"order": 40, "verdict": "ObstructedDimensionOne"}'
    ),
    (
        "cohomology",
        ROADMAP,
        48,
        1,
        '{"certificates": [{"checked": true, "infeasibility_rows": [[[0, 1], '
        '"1"]]}], "command": "cohomology", "data": {"alpha": "-1", "corank": 1,'
        ' "feasible": false, "generator_independent": true, "rank": 1224, '
        '"rows": 1225, "target": "y1 (distinguished vertical direction)"}, '
        '"order": 48, "verdict": "ObstructedDimensionOne"}'
    ),
    (
        "cohomology",
        ROADMAP,
        64,
        1,
        '{"certificates": [{"checked": true, "infeasibility_rows": [[[0, 1], '
        '"1"]]}], "command": "cohomology", "data": {"alpha": "-1", "corank": 1,'
        ' "feasible": false, "generator_independent": true, "rank": 2144, '
        '"rows": 2145, "target": "y1 (distinguished vertical direction)"}, '
        '"order": 64, "verdict": "ObstructedDimensionOne"}'
    ),
    (
        "sigma",
        CUSP,
        32,
        0,
        '{"certificates": [], "command": "sigma", "data": '
        '{"canonical_alpha": "0", "is_identity": true, "sigma": [[1, "1"]], '
        '"sigma_order": 32}, "order": 32, "verdict": "Identity"}',
    ),
    (
        "sigma",
        CUSP,
        48,
        0,
        '{"certificates": [], "command": "sigma", "data": '
        '{"canonical_alpha": "0", "is_identity": true, "sigma": [[1, "1"]], '
        '"sigma_order": 48}, "order": 48, "verdict": "Identity"}',
    ),
    (
        "sigma",
        ROADMAP,
        32,
        0,
        '{"certificates": [], "command": "sigma", "data": '
        '{"canonical_alpha": "3", "is_identity": false, "sigma": [[1, "1"], '
        '[2, "1"], [3, "1"], [4, "1"], [5, "1"], [6, "1"], [7, "1"], [8, '
        '"1"], [9, "1"], [10, "1"], [11, "1"], [12, "1"], [13, "1"], [14, '
        '"1"], [15, "1"], [16, "1"], [17, "1"], [18, "1"], [19, "1"], [20, '
        '"1"], [21, "1"], [22, "1"], [23, "1"], [24, "1"], [25, "1"], [26, '
        '"1"], [27, "1"], [28, "1"], [29, "1"], [30, "1"], [31, "1"], [32, '
        '"1"]], "sigma_order": 32}, "order": 32, "verdict": "NonIdentity"}',
    ),
    (
        "sigma",
        ROADMAP,
        48,
        0,
        '{"certificates": [], "command": "sigma", "data": '
        '{"canonical_alpha": "3", "is_identity": false, "sigma": [[1, "1"], '
        '[2, "1"], [3, "1"], [4, "1"], [5, "1"], [6, "1"], [7, "1"], [8, '
        '"1"], [9, "1"], [10, "1"], [11, "1"], [12, "1"], [13, "1"], [14, '
        '"1"], [15, "1"], [16, "1"], [17, "1"], [18, "1"], [19, "1"], [20, '
        '"1"], [21, "1"], [22, "1"], [23, "1"], [24, "1"], [25, "1"], [26, '
        '"1"], [27, "1"], [28, "1"], [29, "1"], [30, "1"], [31, "1"], [32, '
        '"1"], [33, "1"], [34, "1"], [35, "1"], [36, "1"], [37, "1"], [38, '
        '"1"], [39, "1"], [40, "1"], [41, "1"], [42, "1"], [43, "1"], [44, '
        '"1"], [45, "1"], [46, "1"], [47, "1"], [48, "1"]], "sigma_order": '
        '48}, "order": 48, "verdict": "NonIdentity"}',
    ),
    (
        "sigma",
        SINH,
        32,
        0,
        '{"certificates": [], "command": "sigma", "data": '
        '{"canonical_alpha": "0", "is_identity": false, "sigma": [[1, "1"], '
        '[3, "1/6"], [5, "1/120"], [7, "1/5040"], [9, "1/362880"], [11, '
        '"1/39916800"], [13, "1/6227020800"], [15, "1/1307674368000"], [17, '
        '"1/355687428096000"], [19, "1/121645100408832000"], [21, '
        '"1/51090942171709440000"], [23, "1/25852016738884976640000"], [25, '
        '"1/15511210043330985984000000"], [27, "1/108888694504183521607680000'
        '00"], [29, "1/8841761993739701954543616000000"], [31, '
        '"1/8222838654177922817725562880000000"]], "sigma_order": 32}, '
        '"order": 32, "verdict": "NonIdentity"}',
    ),
    (
        "sigma",
        SINH,
        48,
        0,
        '{"certificates": [], "command": "sigma", "data": '
        '{"canonical_alpha": "0", "is_identity": false, "sigma": [[1, "1"], '
        '[3, "1/6"], [5, "1/120"], [7, "1/5040"], [9, "1/362880"], [11, '
        '"1/39916800"], [13, "1/6227020800"], [15, "1/1307674368000"], [17, '
        '"1/355687428096000"], [19, "1/121645100408832000"], [21, '
        '"1/51090942171709440000"], [23, "1/25852016738884976640000"], [25, '
        '"1/15511210043330985984000000"], [27, "1/108888694504183521607680000'
        '00"], [29, "1/8841761993739701954543616000000"], [31, '
        '"1/8222838654177922817725562880000000"], [33, '
        '"1/8683317618811886495518194401280000000"], [35, '
        '"1/10333147966386144929666651337523200000000"], [37, '
        '"1/13763753091226345046315979581580902400000000"], [39, '
        '"1/20397882081197443358640281739902897356800000000"], [41, '
        '"1/33452526613163807108170062053440751665152000000000"], [43, '
        '"1/60415263063373835637355132068513997507264512000000000"], [45, '
        '"1/119622220865480194561963161495657715064383733760000000000"], '
        '[47, "1/258623241511168180642964355153611979969197632389120000000000'
        '"]], "sigma_order": 48}, "order": 48, "verdict": "NonIdentity"}',
    ),
    (
        "schwarzian",
        CUSP,
        32,
        0,
        '{"certificates": [], "command": "schwarzian", "data": '
        '{"schwarzian": [], "schwarzian_order": 29, "sigma": [[1, "1"]]}, '
        '"order": 32, "verdict": "Homographic"}',
    ),
    (
        "schwarzian",
        CUSP,
        48,
        0,
        '{"certificates": [], "command": "schwarzian", "data": '
        '{"schwarzian": [], "schwarzian_order": 45, "sigma": [[1, "1"]]}, '
        '"order": 48, "verdict": "Homographic"}',
    ),
    (
        "schwarzian",
        ROADMAP,
        32,
        0,
        '{"certificates": [], "command": "schwarzian", "data": '
        '{"schwarzian": [], "schwarzian_order": 29, "sigma": [[1, "1"], [2, '
        '"1"], [3, "1"], [4, "1"], [5, "1"], [6, "1"], [7, "1"], [8, "1"], '
        '[9, "1"], [10, "1"], [11, "1"], [12, "1"], [13, "1"], [14, "1"], '
        '[15, "1"], [16, "1"], [17, "1"], [18, "1"], [19, "1"], [20, "1"], '
        '[21, "1"], [22, "1"], [23, "1"], [24, "1"], [25, "1"], [26, "1"], '
        '[27, "1"], [28, "1"], [29, "1"], [30, "1"], [31, "1"], [32, "1"]]}, '
        '"order": 32, "verdict": "Homographic"}',
    ),
    (
        "schwarzian",
        ROADMAP,
        48,
        0,
        '{"certificates": [], "command": "schwarzian", "data": '
        '{"schwarzian": [], "schwarzian_order": 45, "sigma": [[1, "1"], [2, '
        '"1"], [3, "1"], [4, "1"], [5, "1"], [6, "1"], [7, "1"], [8, "1"], '
        '[9, "1"], [10, "1"], [11, "1"], [12, "1"], [13, "1"], [14, "1"], '
        '[15, "1"], [16, "1"], [17, "1"], [18, "1"], [19, "1"], [20, "1"], '
        '[21, "1"], [22, "1"], [23, "1"], [24, "1"], [25, "1"], [26, "1"], '
        '[27, "1"], [28, "1"], [29, "1"], [30, "1"], [31, "1"], [32, "1"], '
        '[33, "1"], [34, "1"], [35, "1"], [36, "1"], [37, "1"], [38, "1"], '
        '[39, "1"], [40, "1"], [41, "1"], [42, "1"], [43, "1"], [44, "1"], '
        '[45, "1"], [46, "1"], [47, "1"], [48, "1"]]}, "order": 48, '
        '"verdict": "Homographic"}',
    ),
    (
        "schwarzian",
        SINH,
        32,
        0,
        '{"certificates": [], "command": "schwarzian", "data": '
        '{"schwarzian": [[0, "1"], [2, "-3/2"], [4, "1"], [6, "-17/30"], [8, '
        '"31/105"], [10, "-691/4725"], [12, "10922/155925"], [14, '
        '"-929569/28378350"], [16, "3202291/212837625"], [18, '
        '"-221930581/32564156625"], [20, "9444233042/3093594879375"], [22, '
        '"-56963745931/42036495125625"], [24, "29435334228302/493088087823581'
        '25"], [26, "-4187321758505342/16025362854266390625"], [28, '
        '"344502690252804724/3028793579456347828125"]], "schwarzian_order": '
        '29, "sigma": [[1, "1"], [3, "1/6"], [5, "1/120"], [7, "1/5040"], '
        '[9, "1/362880"], [11, "1/39916800"], [13, "1/6227020800"], [15, '
        '"1/1307674368000"], [17, "1/355687428096000"], [19, '
        '"1/121645100408832000"], [21, "1/51090942171709440000"], [23, '
        '"1/25852016738884976640000"], [25, "1/15511210043330985984000000"], '
        '[27, "1/10888869450418352160768000000"], [29, '
        '"1/8841761993739701954543616000000"], [31, '
        '"1/8222838654177922817725562880000000"]]}, "order": 32, "verdict": '
        '"NonHomographic"}',
    ),
    (
        "schwarzian",
        SINH,
        48,
        0,
        '{"certificates": [], "command": "schwarzian", "data": '
        '{"schwarzian": [[0, "1"], [2, "-3/2"], [4, "1"], [6, "-17/30"], [8, '
        '"31/105"], [10, "-691/4725"], [12, "10922/155925"], [14, '
        '"-929569/28378350"], [16, "3202291/212837625"], [18, '
        '"-221930581/32564156625"], [20, "9444233042/3093594879375"], [22, '
        '"-56963745931/42036495125625"], [24, "29435334228302/493088087823581'
        '25"], [26, "-4187321758505342/16025362854266390625"], [28, '
        '"344502690252804724/3028793579456347828125"], [30, '
        '"-129848163681107301953/2635050414127022610468750"], [32, '
        '"868320396104950823611/40843281418968850462265625"], [34, '
        '"-209390615747646519456961/22913080876041525109331015625"], [36, '
        '"28259319101491102261334882/7217620475953080409439269921875"], [38, '
        '"-16103843159579478297227731/9628059192779915612591663671875"], '
        '[40, "705105746914492614138024917342/9894275029460280279279823172402'
        '34375"], [42, "-258049041719852456757674477826902/851897080036530132'
        '045992775143841796875"], [44, "51768752002756374733644471311053204/4'
        '02947318857278752457754582643037169921875"]], "schwarzian_order": '
        '45, "sigma": [[1, "1"], [3, "1/6"], [5, "1/120"], [7, "1/5040"], '
        '[9, "1/362880"], [11, "1/39916800"], [13, "1/6227020800"], [15, '
        '"1/1307674368000"], [17, "1/355687428096000"], [19, '
        '"1/121645100408832000"], [21, "1/51090942171709440000"], [23, '
        '"1/25852016738884976640000"], [25, "1/15511210043330985984000000"], '
        '[27, "1/10888869450418352160768000000"], [29, '
        '"1/8841761993739701954543616000000"], [31, '
        '"1/8222838654177922817725562880000000"], [33, '
        '"1/8683317618811886495518194401280000000"], [35, '
        '"1/10333147966386144929666651337523200000000"], [37, '
        '"1/13763753091226345046315979581580902400000000"], [39, '
        '"1/20397882081197443358640281739902897356800000000"], [41, '
        '"1/33452526613163807108170062053440751665152000000000"], [43, '
        '"1/60415263063373835637355132068513997507264512000000000"], [45, '
        '"1/119622220865480194561963161495657715064383733760000000000"], '
        '[47, "1/258623241511168180642964355153611979969197632389120000000000'
        '"]]}, "order": 48, "verdict": "NonHomographic"}',
    ),
    (
        "symmetries",
        CUSP,
        32,
        0,
        '{"certificates": [], "command": "symmetries", "data": '
        '{"candidates": [], "infinite": true, "lambda_order": null, "notes": '
        '["f = 0: every homography is a symmetry"]}, "order": 32, "verdict": '
        '"InfiniteGroup"}',
    ),
    (
        "symmetries",
        CUSP,
        48,
        0,
        '{"certificates": [], "command": "symmetries", "data": '
        '{"candidates": [], "infinite": true, "lambda_order": null, "notes": '
        '["f = 0: every homography is a symmetry"]}, "order": 48, "verdict": '
        '"InfiniteGroup"}',
    ),
    (
        "symmetries",
        ROADMAP,
        32,
        0,
        '{"certificates": [], "command": "symmetries", "data": '
        '{"candidates": [], "infinite": true, "lambda_order": null, "notes": '
        '["f = 0: every homography is a symmetry"]}, "order": 32, "verdict": '
        '"InfiniteGroup"}',
    ),
    (
        "symmetries",
        ROADMAP,
        48,
        0,
        '{"certificates": [], "command": "symmetries", "data": '
        '{"candidates": [], "infinite": true, "lambda_order": null, "notes": '
        '["f = 0: every homography is a symmetry"]}, "order": 48, "verdict": '
        '"InfiniteGroup"}',
    ),
    (
        "symmetries",
        SINH,
        32,
        0,
        '{"certificates": [], "command": "symmetries", "data": '
        '{"candidates": [{"lam": "1", "mu": "0"}, {"lam": "-1", "mu": "0"}], '
        '"infinite": false, "lambda_order": 2, "notes": []}, "order": 32, '
        '"verdict": "FiniteCandidates"}',
    ),
    (
        "symmetries",
        SINH,
        48,
        0,
        '{"certificates": [], "command": "symmetries", "data": '
        '{"candidates": [{"lam": "1", "mu": "0"}, {"lam": "-1", "mu": "0"}], '
        '"infinite": false, "lambda_order": 2, "notes": []}, "order": 48, '
        '"verdict": "FiniteCandidates"}',
    ),
    (
        "first-integral",
        CUSP,
        32,
        0,
        '{"certificates": [], "command": "first-integral", "data": '
        '{"degree_bound": 3, "note": "bounded search over monomial probes '
        'z^k, k <= 3; absence of a relation within the bound is evidence, '
        'not a proof", "probes": [[1, true], [2, true], [3, true]], "r1": '
        '{"den": "1", "num": "z"}, "r2": {"den": "1", "num": "z"}}, "order": '
        '32, "verdict": "RelationFound"}',
    ),
    (
        "first-integral",
        CUSP,
        48,
        0,
        '{"certificates": [], "command": "first-integral", "data": '
        '{"degree_bound": 3, "note": "bounded search over monomial probes '
        'z^k, k <= 3; absence of a relation within the bound is evidence, '
        'not a proof", "probes": [[1, true], [2, true], [3, true]], "r1": '
        '{"den": "1", "num": "z"}, "r2": {"den": "1", "num": "z"}}, "order": '
        '48, "verdict": "RelationFound"}',
    ),
    (
        "first-integral",
        ROADMAP,
        32,
        0,
        '{"certificates": [], "command": "first-integral", "data": '
        '{"degree_bound": 3, "note": "bounded search over monomial probes '
        'z^k, k <= 3; absence of a relation within the bound is evidence, '
        'not a proof", "probes": [[1, true], [2, true], [3, true]], "r1": '
        '{"den": "1", "num": "z"}, "r2": {"den": "1 - z", "num": "z"}}, '
        '"order": 32, "verdict": "RelationFound"}',
    ),
    (
        "first-integral",
        ROADMAP,
        48,
        0,
        '{"certificates": [], "command": "first-integral", "data": '
        '{"degree_bound": 3, "note": "bounded search over monomial probes '
        'z^k, k <= 3; absence of a relation within the bound is evidence, '
        'not a proof", "probes": [[1, true], [2, true], [3, true]], "r1": '
        '{"den": "1", "num": "z"}, "r2": {"den": "1 - z", "num": "z"}}, '
        '"order": 48, "verdict": "RelationFound"}',
    ),
    (
        "first-integral",
        SINH,
        32,
        1,
        '{"certificates": [], "command": "first-integral", "data": '
        '{"degree_bound": 3, "note": "bounded search over monomial probes '
        'z^k, k <= 3; absence of a relation within the bound is evidence, '
        'not a proof", "probes": [[1, false], [2, false], [3, false]], "r1": '
        'null, "r2": null}, "order": 32, "verdict": "NoRelationWithinBound"}',
    ),
    (
        "first-integral",
        SINH,
        48,
        1,
        '{"certificates": [], "command": "first-integral", "data": '
        '{"degree_bound": 3, "note": "bounded search over monomial probes '
        'z^k, k <= 3; absence of a relation within the bound is evidence, '
        'not a proof", "probes": [[1, false], [2, false], [3, false]], "r1": '
        'null, "r2": null}, "order": 48, "verdict": "NoRelationWithinBound"}',
    ),
]


@pytest.mark.parametrize(
    "command, text, order, code, report",
    ORDER_32_TO_64_REPORTS,
    ids=[
        str(order) if command == "cohomology" else f"{command}-{FORM_IDS[text]}-{order}"
        for command, text, order, _, _ in ORDER_32_TO_64_REPORTS
    ],
)
def test_order_40_and_48_reports_are_pinned(command, text, order, code, report):
    want = json.dumps(json.loads(report), sort_keys=True, indent=2) + "\n"
    extra = ["--degree", "3"] if command == "first-integral" else []
    argv = [command, text, "--order", str(order), *extra, "--json"]
    assert run_cli(*argv) == (code, want)


# first-integral at order 24 and the largest degree that order allows, 11:
# each of the eleven probes solves 13 Hankel rows in 11 unknowns, the
# widest systems a question at that order eliminates.  The reports were taken from the
# fraction-free elimination that plain Gauss-Jordan replaced.
PROBES_TRUE = ", ".join(f"[{k}, true]" for k in range(1, 12))
PROBES_FALSE = ", ".join(f"[{k}, false]" for k in range(1, 12))
DEGREE_11_HEAD = (
    '{"certificates": [], "command": "first-integral", "data": '
    '{"degree_bound": 11, "note": "bounded search over monomial probes '
    'z^k, k <= 11; absence of a relation within the bound is evidence, '
    'not a proof", "probes": ['
)
ORDER_24_DEGREE_11_REPORTS = [
    (
        CUSP,
        0,
        DEGREE_11_HEAD + PROBES_TRUE + '], "r1": {"den": "1", "num": "z"}, '
        '"r2": {"den": "1", "num": "z"}}, "order": 24, "verdict": "RelationFound"}',
    ),
    (
        ROADMAP,
        0,
        DEGREE_11_HEAD + PROBES_TRUE + '], "r1": {"den": "1", "num": "z"}, '
        '"r2": {"den": "1 - z", "num": "z"}}, "order": 24, '
        '"verdict": "RelationFound"}',
    ),
    (
        SINH,
        1,
        DEGREE_11_HEAD + PROBES_FALSE + '], "r1": null, "r2": null}, '
        '"order": 24, "verdict": "NoRelationWithinBound"}',
    ),
]


@pytest.mark.parametrize(
    "text, code, report",
    ORDER_24_DEGREE_11_REPORTS,
    ids=[FORM_IDS[text] for text, _, _ in ORDER_24_DEGREE_11_REPORTS],
)
def test_first_integral_at_the_largest_degree_is_pinned(text, code, report):
    want = json.dumps(json.loads(report), sort_keys=True, indent=2) + "\n"
    argv = ["first-integral", text, "--order", "24", "--degree", "11", "--json"]
    assert run_cli(*argv) == (code, want)



# A dense normal-form template, alpha = 2, a = 1-i, tail at degrees 5..7,
# as A dx + B dy written in the placeholders X and Y.
TEMPLATE_A = "-Y^3 - 4*X^3*Y + X^4*Y + 3*X^6 + i*X^5*Y + 1/2*X^7"
TEMPLATE_B = "X*Y^2 + 2*X^4 + (1-i)*X^3*Y - 2*X^5 - X^5*Y + 2*X^7 + i*X^6*Y"


def moved_template(fx, fy, fx_x, fx_y, fy_x, fy_y):
    """The template pulled back along (x, y) -> (fx, fy), as input text;
    the last four arguments are the partial derivatives of fx and fy."""

    def at(poly):
        return poly.replace("X", f"({fx})").replace("Y", f"({fy})")

    a, b = at(TEMPLATE_A), at(TEMPLATE_B)
    return f"(({a})*({fx_x}) + ({b})*({fy_x})) dx + (({a})*({fx_y}) + ({b})*({fy_y})) dy"


# Tangent to the identity; the x^4 y dy coefficient it leaves after the
# cubic step is nonzero, so the cubic gauge is spent.
MOVED = moved_template(
    "x + 2*x*y - y^2", "y + x^2 + i*x*y", "1 + 2*y", "2*x - 2*y", "2*x + i*y", "1 + i*x"
)
# The same change after swapping x and y: normalize needs a linear change.
MOVED_SWAPPED = moved_template(
    "y + x^2 + i*x*y", "x + 2*x*y - y^2", "2*x + i*y", "1 + i*x", "1 + 2*y", "2*x - 2*y"
)


def _normal_form_report(order, linear_change):
    zero = ["0", "0", "0", "0"]
    tail = [[5, ["0", "1", "-2", "0"]], [6, ["3", "i", "0", "-1"]], [7, ["1/2", "0", "2", "i"]]]
    tail += [[m, zero] for m in range(8, order + 1)]
    return json.dumps(
        {
            "certificates": [],
            "command": "normal-form",
            "data": {
                "a": "1-i",
                "alpha": "2",
                "applied_linear_change": linear_change,
                "scale": "1",
                "tail": tail,
                "trivial_tail": False,
            },
            "order": order,
            "verdict": "Normalized",
        },
        sort_keys=True,
        indent=2,
    ) + "\n"


# The normal-form --json reports of the moved template, taken from the
# elimination that the closed-form step replaced.
NORMAL_FORM_REPORTS = [
    (text, order, _normal_form_report(order, change))
    for text, change in ((MOVED, None), (MOVED_SWAPPED, [[0, 1], [1, 0]]))
    for order in (16, 24)
]


@pytest.mark.parametrize(
    "text, order, report",
    NORMAL_FORM_REPORTS,
    ids=[
        f"{'moved' if text == MOVED else 'swapped'}-{order}"
        for text, order, _ in NORMAL_FORM_REPORTS
    ],
)
def test_normal_form_reports_are_pinned(text, order, report):
    assert run_cli("normal-form", text, "--order", str(order), "--json") == (0, report)


def _reduce_report(order, verdict, reason, **data):
    """The reduce --json report: the fields a run sets are given, the others
    keep the values of a run that stopped before them."""
    accepted = verdict == "CuspTypeAbsolutelyDicritical"
    fields = {
        "applied_linear_change": None,
        "corner_regular": accepted,
        "exceptional_power_1": None,
        "exceptional_power_2": None,
        "is_valuation_3": True,
        "p2_coefficient": None,
        "reason": reason,
        "singular_points_on_D2": [],
        "tangency_at_infinity": None,
        "transverse_to_D1": accepted,
        "transverse_to_D2": accepted,
    }
    fields.update(data)
    report = {"certificates": [], "command": "reduce", "data": fields, "order": order,
              "verdict": verdict}
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


SWAP = "mero:(x^2+y^3+x*y^2)/(x*y+y^3)"
SHEAR = "mero:(3*(y-(1+i)/2*x)^2+x^3)/(x*(y-(1+i)/2*x))"
CUSP_REASON = (
    "two blow-ups reduce the foliation, regular and transverse to both divisor components"
)
# What the first blow-up records on a cone a*y^2 at order >= 5.
FIRST_BLOWUP = {"exceptional_power_1": 4, "singular_points_on_D2": [["0", 2]],
                "tangency_at_infinity": False}
CORNER = dict(FIRST_BLOWUP, exceptional_power_2=2)

# One reduce --json report per verdict branch of reduce_cusp.
REDUCE_REPORTS = {
    "cusp": (CUSP, 8, 0, _reduce_report(8, "CuspTypeAbsolutelyDicritical", CUSP_REASON,
                                        p2_coefficient="1", **CORNER)),
    "cusp-swap": (SWAP, 8, 0, _reduce_report(
        8, "CuspTypeAbsolutelyDicritical", CUSP_REASON, p2_coefficient="1",
        applied_linear_change=[[0, 1], [1, 0]], **CORNER)),
    "cusp-shear": (SHEAR, 8, 0, _reduce_report(
        8, "CuspTypeAbsolutelyDicritical", CUSP_REASON, p2_coefficient="3",
        applied_linear_change=[[1, 0], ["1/2+1/2*i", 1]], **CORNER)),
    "cone-not-radial": ("(y^3) dx", 8, 1, _reduce_report(
        8, "NotDicritical", "degree-3 part is not radial: the first blow-up is not dicritical")),
    "linear-part-not-radial": ("-y^3 dx + (x*y^2 + x^4) dy", 8, 1, _reduce_report(
        8, "NotDicritical",
        "second blow-up is not dicritical: linear part at the tangency point is not radial",
        p2_coefficient="1", **FIRST_BLOWUP)),
    "valuation": ("x dx + y dy", 8, 1, _reduce_report(
        8, "WrongReductionTree",
        "valuation 1 != 3: the reduction tree of a cusp starts at multiplicity 3",
        is_valuation_3=False)),
    "two-directions": ("mero:(x^2+y^2+x^3)/(x*y)", 8, 1, _reduce_report(
        8, "WrongReductionTree",
        "tangency cone has two distinct directions (cofactor is not a perfect square)")),
    "regular-tangency-point": ("-y^3 dx + x*y^2 dy + x^4 dx", 8, 1, _reduce_report(
        8, "WrongReductionTree",
        "tangency point on D2 is a regular point of the transformed foliation",
        p2_coefficient="1", **FIRST_BLOWUP)),
    "multiplicity-2": ("-y^3 dx + x*y^2 dy", 8, 1, _reduce_report(
        8, "WrongReductionTree", "tangency point has multiplicity >= 2 after the first blow-up",
        p2_coefficient="1", **FIRST_BLOWUP)),
    "below-order-5": (CUSP, 4, 2, _reduce_report(
        4, "Inconclusive", "degree-3 checks pass but order 4 < 5 cannot certify the blow-ups",
        p2_coefficient="1")),
    "vanishes": ("0 dx", 8, 2, _reduce_report(
        8, "Inconclusive", "form vanishes to the working order", is_valuation_3=False)),
}


@pytest.mark.parametrize("case", REDUCE_REPORTS)
def test_reduce_reports_are_pinned(case):
    text, order, code, report = REDUCE_REPORTS[case]
    assert run_cli("reduce", text, "--order", str(order), "--json") == (code, report)


def _linear_normal_form_report(change, scale, alpha, a, tail):
    data = {"a": a, "alpha": alpha, "applied_linear_change": change, "scale": scale,
            "tail": tail, "trivial_tail": False}
    report = {"certificates": [], "command": "normal-form", "data": data, "order": 8,
              "verdict": "Normalized"}
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


ZERO_TAIL = [[7, ["0", "0", "0", "0"]], [8, ["0", "0", "0", "0"]]]
# normal-form --json on inputs that need the swap and the shear.
LINEAR_NORMAL_FORM_REPORTS = {
    "swap": (SWAP, _linear_normal_form_report(
        [[0, 1], [1, 0]], "1", "-1", "-2",
        [[5, ["0", "3", "1", "0"]], [6, ["-2", "0", "0", "0"]], *ZERO_TAIL])),
    "shear": ("mero:(3*(y-(1+i)/2*x)^2+x^3+x^2*y)/(x*(y-(1+i)/2*x)+x^3)",
              _linear_normal_form_report(
                  [[1, 0], ["1/2+1/2*i", 1]], "1/3", "-1/2-1/6*i", "-10/3",
                  [[5, ["0", "31/3", "19/9", "0"]], [6, ["-280/27", "0", "0", "0"]],
                   *ZERO_TAIL])),
}


@pytest.mark.parametrize("case", LINEAR_NORMAL_FORM_REPORTS)
def test_normal_form_reports_after_a_linear_change_are_pinned(case):
    text, report = LINEAR_NORMAL_FORM_REPORTS[case]
    assert run_cli("normal-form", text, "--order", "8", "--json") == (0, report)


@pytest.mark.parametrize("case", LINEAR_NORMAL_FORM_REPORTS)
def test_normal_form_pulls_back_along_the_linear_change_once(monkeypatch, case):
    # reduce_cusp moves the form and keeps it; normalize reads it from there
    import cuspfol.forms

    calls = []

    def counting_pullback_map(*args, **kwargs):
        calls.append(None)
        return pullback_map(*args, **kwargs)

    monkeypatch.setattr(cuspfol.forms, "pullback_map", counting_pullback_map)
    text, report = LINEAR_NORMAL_FORM_REPORTS[case]
    assert run_cli("normal-form", text, "--order", "8", "--json") == (0, report)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["normal-form", MOVED, "--order", "16"],
        ["cohomology", ROADMAP, "--order", "16"],
        ["equiv", ROADMAP, ROADMAP, "--order", "16"],
    ],
    ids=["normal-form", "cohomology", "equiv"],
)
def test_normal_form_eliminates_nothing(monkeypatch, argv):
    # Each normalization step is solved in closed form, so the normal form
    # never reaches the exact solver; cohomology and equiv read alpha off
    # sigma and normalize nothing (test_only_normal_form_normalizes).
    # cohomology's one certified solve is pinned by
    # test_cohomology_eliminates_once and runs no rref either.
    import cuspfol.linalg
    import cuspfol.normalform

    # normalform binds no exact solver at all
    assert not hasattr(cuspfol.normalform, "solve")
    calls = []
    rref = cuspfol.linalg.rref

    def counting_rref(*args, **kwargs):
        calls.append("rref")
        return rref(*args, **kwargs)

    monkeypatch.setattr(cuspfol.linalg, "rref", counting_rref)
    code, _ = run_cli(*argv)
    assert code in (0, 1)
    assert calls == []


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["normal-form", ROADMAP], 1),
        (["cohomology", ROADMAP], 0),
        (["glue", ROADMAP], 0),
        (["equiv", ROADMAP, SINH], 0),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_only_normal_form_normalizes(monkeypatch, argv, calls):
    # alpha = -1/sigma_1 (cuspfol.cli._alpha_of_sigma), so the moduli
    # questions need no normal form
    import cuspfol.cli

    made = []

    def counting_normalize(*args, **kwargs):
        made.append(None)
        return normalize(*args, **kwargs)

    monkeypatch.setattr(cuspfol.cli, "normalize", counting_normalize)
    code, out = run_cli(*argv, "--order", "12")
    assert code in (0, 1), out
    assert len(made) == calls


# The defect (b) template: alpha = 2, a = -1 and the one tail modulus b_5 = 1.
# Composing sigma with an inner homography chosen from alpha made equiv call
# it and its pullback NotEquivalent.
DEFECT_B = "(-y^3 - 4*x^3*y + x^4*y) dx + (x*y^2 + 2*x^4 - x^3*y) dy"


def defect_b_pullback(n=12):
    """DEFECT_B pulled back along (x + 2*y^2, y - x^2 - 2*x^3), as text."""
    x, y = Jet2.var_x(n), Jet2.var_y(n)
    fx = x + Jet2.monomial(0, 2, 2, n)
    fy = y - Jet2.monomial(2, 0, 1, n) - Jet2.monomial(3, 0, 2, n)
    return format_form(pullback_map(_as_oneform(DEFECT_B, n), fx, fy, order=n))


def _equiv_report(order, verdict, certificates, data):
    return json.dumps(
        {
            "certificates": certificates,
            "command": "equiv",
            "data": data,
            "order": order,
            "verdict": verdict,
        },
        sort_keys=True,
        indent=2,
    ) + "\n"


SINH_SIGMA = [[1, "1"], [3, "1/6"], [5, "1/120"], [7, "1/5040"], [9, "1/362880"]]
DEFECT_B_SIGMA = [
    [1, "-1/2"], [2, "-1/8"], [3, "-1/48"], [4, "-1/384"], [5, "-1/3840"],
    [6, "-1/46080"], [7, "-1/645120"], [8, "-1/10321920"], [9, "-1/185794560"],
    [10, "-1/3715891200"], [11, "-1/81749606400"], [12, "-1/1961990553600"],
]
DEFECT_B_PULLBACK_SIGMA = [
    [1, "-1/2"], [2, "-3/8"], [3, "-13/48"], [4, "-25/128"], [5, "-541/3840"],
    [6, "-1561/15360"], [7, "-47293/645120"], [8, "-36389/688128"],
    [9, "-7087261/185794560"], [10, "-34082521/1238630400"],
    [11, "-1622632573/81749606400"], [12, "-267538739/18685624320"],
]

# equiv --json reports.  Under the diagonal change (x, y) -> (x, 2y) of
# SINH, sigma' = 2 sigma(2u), and S(sigma) moves by eps = 1/2.
EQUIV_REPORTS = {
    "cusp-cusp": (
        [CUSP, CUSP, "--order", "12"],
        0,
        _equiv_report(12, "Equivalent", ["any eps != 0"], {
            "alpha_first": "-1", "alpha_second": "-1", "eps": "1", "reason": "both zero",
            "sigma_first": [[1, "1"]], "sigma_second": [[1, "1"]],
        }),
    ),
    "sinh-cusp": (
        [SINH, CUSP, "--order", "10"],
        1,
        _equiv_report(10, "NotEquivalent", [], {
            "alpha_first": "-1", "alpha_second": "-1", "eps": None,
            "reason": "support mismatch: the action never creates or kills coefficients",
            "sigma_first": SINH_SIGMA, "sigma_second": [[1, "1"]],
        }),
    ),
    "defect-b": (
        [DEFECT_B, defect_b_pullback(), "--order", "12"],
        0,
        _equiv_report(12, "Equivalent", ["eps^2 = 1"], {
            "alpha_first": "2", "alpha_second": "2", "eps": "1", "reason": "witness in Q(i)",
            "sigma_first": DEFECT_B_SIGMA, "sigma_second": DEFECT_B_PULLBACK_SIGMA,
        }),
    ),
    "sinh-diagonal": (
        [SINH, format_form(linear_change(_as_oneform(SINH, 10), ((1, 0), (0, 2)))), "--order", "10"],
        0,
        _equiv_report(10, "Equivalent", ["eps^2 = 1/4"], {
            "alpha_first": "-1", "alpha_second": "-1/4", "eps": "1/2",
            "reason": "witness in Q(i)", "sigma_first": SINH_SIGMA,
            "sigma_second": [[1, "4"], [3, "8/3"], [5, "8/15"], [7, "16/315"], [9, "8/2835"]],
        }),
    ),
}


@pytest.mark.parametrize("case", EQUIV_REPORTS)
def test_equiv_reports_are_pinned(case):
    argv, code, report = EQUIV_REPORTS[case]
    assert run_cli("equiv", *argv, "--json") == (code, report)


def test_mero_input_is_parsed_once(monkeypatch):
    import cuspfol.cli

    texts = []
    parse_form = cuspfol.cli.parse_form

    def counting_parse(text, order):
        texts.append(text)
        return parse_form(text, order)

    monkeypatch.setattr(cuspfol.cli, "parse_form", counting_parse)
    for command, forms in (
        ("reduce", [CUSP]),
        ("normal-form", [CUSP]),
        ("equiv", [CUSP, "mero:(y^2+x^3+x^2*y)/(x*y+x^3)"]),
        ("reduce", [SINH]),
    ):
        texts.clear()
        code, out = run_cli(command, *forms, "--order", "8")
        assert code == 0, out
        assert texts == forms


MIXED = "mero:(y^2+x^3+x^2*y)/(x*y+x^3)"


def test_each_form_is_reduced_once(monkeypatch):
    # normalize takes the report the command already made instead of
    # reducing the form a second time
    import cuspfol.normalform

    calls = []

    def counting_reduce(w):
        calls.append(w)
        return reduce_cusp(w)

    monkeypatch.setattr(cuspfol.cli, "reduce_cusp", counting_reduce)
    monkeypatch.setattr(cuspfol.normalform, "reduce_cusp", counting_reduce)
    for command, forms, expected in (
        ("normal-form", [MIXED], 1),
        ("cohomology", [MIXED], 1),
        ("glue", [MIXED], 1),
        ("equiv", [CUSP, MIXED], 2),
    ):
        calls.clear()
        code, out = run_cli(command, *forms, "--order", "8")
        assert code in (0, 1), out
        assert len(calls) == expected, command


@pytest.mark.parametrize("text", [CUSP, MIXED])
def test_normalize_takes_the_callers_reduction(text):
    w = _as_oneform(text, 12)
    assert normalize(w, reduction=reduce_cusp(w)) == normalize(w)


def test_normalize_checks_the_verdict_of_a_given_reduction():
    w = _as_oneform(CUSP, 8)
    regular = _as_oneform("x dy", 8)
    rep = reduce_cusp(regular)
    with pytest.raises(ValueError, match=re.escape(rep.verdict.value)):
        normalize(w, reduction=rep)


def test_glue_builds_the_model_cocycle():
    code, out = run_cli("glue", CUSP, "--order", "6")
    assert code == 0
    assert verdict_of(out) == "CocycleBuilt"
    assert "map_first: y1 + x1 - x1*y1" in out
    assert "map_second: y1" in out
    assert 'unit: [[0, 0, "1"], [0, 1, "-1"]]' in out


def test_json_shape_and_determinism():
    code1, out1 = run_cli("sigma", CUSP, "--order", "8", "--json")
    code2, out2 = run_cli("sigma", CUSP, "--order", "8", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert sorted(rep) == ["certificates", "command", "data", "order", "verdict"]
    assert rep["command"] == "sigma"
    assert rep["order"] == 8
    assert rep["verdict"] == "Identity"
    assert rep["data"]["sigma"] == [[1, "1"]]


def test_cohomology_anchors_check_their_certificate():
    # the README and ROADMAP quotients at orders 12-16
    workloads = load_workloads()
    anchors = [q.argv for q in workloads.anchors("cohomology") if q.argv[0] == "cohomology"]
    assert anchors
    for argv in anchors:
        code, out = run_cli(*argv, "--json")
        assert code == 1
        (cert,) = json.loads(out)["certificates"]
        assert cert["checked"] is True


def written(value):
    """What the report writer prints for ``value``."""
    buf = io.StringIO()
    _print_report(value, True, buf)
    return buf.getvalue()


def test_json_writer_prints_the_bytes_of_json_dumps_on_every_stream(monkeypatch):
    # every --json report of the first 100 questions of each benchmark
    # stream at seed 43, with the anchors, as tools/census.py reads them
    import cuspfol.cli

    reports = []
    print_report = cuspfol.cli._print_report

    def recording(report, as_json, stream):
        reports.append(report)
        print_report(report, as_json, stream)

    monkeypatch.setattr(cuspfol.cli, "_print_report", recording)
    workloads = load_workloads()
    for name in workloads.WORKLOADS:
        anchors = [q.argv for q in workloads.anchors(name)]
        for argv in [*stream_argvs(name), *anchors]:
            del reports[:]
            _, out = run_cli(*argv, "--json")
            (report,) = reports
            assert out == json.dumps(report, sort_keys=True, indent=2) + "\n", argv


AWKWARD = ['"', "\\", "\x00\x1f\x7f\n\t", "é", "\U0001d11e", 'a"b\\c\u2028é\U0001d11e']


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}], "d": [{"e": []}]},
        [[[]], [{}], {"": {}}],
        *AWKWARD,
        {text: text for text in AWKWARD},
        [{text: [text]} for text in AWKWARD],
        [True, False, None, 0, -1, 2**200, -(2**200)],
        {"z": 1, "a": [True, None], "m": {"y": False, "b": "x"}, "": 0},
    ],
)
def test_json_writer_prints_the_bytes_of_json_dumps(value):
    assert written(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, {1, 2}, {"data": [0.0]}, ["x", {"s": {3}}], {1: "a"}])
def test_json_writer_refuses_what_a_report_cannot_hold(value):
    with pytest.raises(TypeError):
        written(value)


def test_parser_survives_a_bad_argv(capsys):
    """The parser is built once per process; a rejected argv leaves it as it
    was, so the same question prints the same bytes before and after."""
    argv = ("normal-form", CUSP, "--order", "8", "--json")
    code1, out1 = run_cli(*argv)
    for bad in (
        ["normal-form"],
        ["no-such-command", CUSP],
        ["sigma", CUSP, "--order", "x"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(*bad)
        assert exc.value.code == 2
    assert "usage: cuspfol" in capsys.readouterr().err
    code2, out2 = run_cli(*argv)
    assert code1 == code2 == 0
    assert out1 == out2


def cli_bytes(argv):
    """(exit code, stdout, stderr) of one ``main`` call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


# sha256 of json.dumps([exit code, stdout, stderr]) at 80 columns, for the
# argv whose bytes argparse alone writes: help, usage and refusals.  The
# layout is argparse's own and differs between Python versions.
ARGPARSE_BYTES = {
    ("--help",): "9e9035a61684a963f484644093c9d590b7e7539ec13dd742048fb3f85bec88f3",
    ("reduce", "--help"): "3fcf28d1d565c7895310405df76e5fd3b4c4576d6bf6b189fa07e25fe4835f71",
    ("first-integral", "--help"):
        "43b48953bb50534ad0bf698ecdcb01c68bf4721346fe28f409e694d746ac7bb1",
    (): "7e273001de4d8012794763db7293001ff701a74235cc714d25c5567617871c6b",
    ("no-such-command", CUSP): "723bca0150495a4680f69ac7c8137c62bc60ab345131e02a0f81a888574dec62",
    ("normal-form",): "83a5bd6b5c3c388dfc2cf69b16576b536003dd3c25e1bc52f530cc60445e2e74",
    ("equiv", CUSP): "684ed27d7c01726c64cd53b7a0864a232d61e5f3e8278e53d91d10f7b381510c",
    ("sigma", CUSP, "--order", "x"):
        "2e294c6bf4bc12ca4766a70c3f7134a08cf6103f881729e902cf5e10dbeefffb",
    ("sigma", CUSP, "--order", "²"):
        "80f1ee775934457130b9e48ead8875e67729c5a7d9a7c4ac90236b8d7b948266",
    ("sigma", CUSP, "extra"): "94926834f34147b5853857d28bec2bfe550a6b5f480f54d837392f9794dc21d2",
    ("sigma", CUSP, "--bogus"): "ed696633b7535435038f07aec64f5a593d5605c3da9695fca3d69c71e3dc6a70",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="bytes pinned on Python 3.11")
def test_help_usage_and_refusals_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, digest in ARGPARSE_BYTES.items():
        printed = json.dumps(cli_bytes(argv)).encode()
        assert hashlib.sha256(printed).hexdigest() == digest, argv


@pytest.mark.parametrize(
    "spelling",
    [
        ["sigma", CUSP, "--order=8", "--json"],
        ["sigma", CUSP, "--ord", "8", "--json"],
        ["sigma", CUSP, "--order", "8", "--js"],
        ["sigma", "--order", "8", "--json", CUSP],
        ["sigma", "--order", "8", "--json", "--", CUSP],
        ["sigma", CUSP, "--order", " 8", "--json"],
        ["first-integral", "--deg=3", SINH, "--order", "8", "--json"],
    ],
    ids=["equals", "prefix", "json-prefix", "options-first", "dashes", "space", "degree"],
)
def test_other_spellings_print_the_canonical_bytes(spelling):
    canonical = [spelling[0], CUSP if CUSP in spelling else SINH, "--order", "8", "--json"]
    if spelling[0] == "first-integral":
        canonical += ["--degree", "3"]
    assert cli_bytes(spelling) == cli_bytes(canonical)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    """The benchmark's question streams, ``perfbench/workloads.py``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@functools.cache
def stream_argvs(name, seed=43, count=100):
    """The argvs of the first ``count`` questions of a benchmark stream, as
    ``tools/census.py`` reads them; a tuple, since every caller shares it."""
    return tuple(q.argv for q in islice(load_workloads().stream(name, seed), count))


def workload_cycle_argvs(seed=1):
    """Every argv of the first cycle of each benchmark workload, ``--json``
    appended as the benchmark sends it."""
    workloads = load_workloads()
    for name, slots in workloads.WORKLOADS.items():
        for question in islice(workloads.stream(name, seed), len(slots)):
            yield [*question.argv, "--json"]


# Tokens near the canonical shape: every command, forms, option names and
# values that argparse reads differently or refuses.
FUZZ_COMMANDS = ["reduce", "normal-form", "sigma", "schwarzian", "equiv", "symmetries",
                 "first-integral", "cohomology", "glue", "no-such-command"]
FUZZ_WORDS = [CUSP, SINH, "x dx", "extra", "8", "", "-", "-3", "-x dx", "--"]
FUZZ_OPTIONS = ["--order", "--degree", "--json", "--ord", "--js", "--deg", "--bogus",
                "--order=8", "--help", "-h"]
FUZZ_VALUES = ["8", "12", "0", "08", "-3", "+8", "1_0", " 8", "x", "²", "٣", "", "-",
               "9" * 5000]


def fuzz_argv(rng):
    command = rng.choice(FUZZ_COMMANDS)
    argv = [command] if rng.random() < 0.97 else []
    forms = 2 if command == "equiv" else 1
    words = rng.choices([CUSP, SINH], k=forms if rng.random() < 0.8 else 3 - forms)
    if rng.random() < 0.3:
        words.append(rng.choice(FUZZ_WORDS))
    options = []
    for _ in range(rng.choice([0, 1, 2, 2, 3])):
        own = ["--order", "--json"] + ["--degree"] * (command == "first-integral")
        name = rng.choice(own if rng.random() < 0.75 else FUZZ_OPTIONS)
        options.append([name])
        if name in ("--order", "--degree", "--ord", "--deg"):
            value = rng.choice(["4", "8", "16"]) if rng.random() < 0.6 else rng.choice(FUZZ_VALUES)
            options[-1].append(value)
    pieces = [[w] for w in words] + options
    rng.shuffle(pieces)
    return argv + [token for piece in pieces for token in piece]


def test_canonical_reader_agrees_with_argparse():
    """Where the canonical reader answers, argparse reads the same namespace;
    where argparse exits (help or refusal), the reader leaves the argv to it."""
    from cuspfol import cli

    rng = random.Random(0xA5C11)
    argvs = list(workload_cycle_argvs()) + [fuzz_argv(rng) for _ in range(20_000)]
    read = fallback = 0
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            mine = cli._read_argv(argv)
            try:
                theirs = cli._parser().parse_args(argv)
            except SystemExit:
                assert mine is None, argv
                continue
            if mine is None:
                fallback += 1
            else:
                assert mine == theirs, argv
                read += 1
    assert read > 2000 and fallback > 2000, (read, fallback)


def test_workload_argv_never_builds_the_parser():
    from cuspfol import cli

    cli._parser.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in workload_cycle_argvs():
            cli.main(argv)
    assert cli._parser.cache_info().currsize == 0


def raw_mero(rng):
    """An unfiltered draw from mero:(y^2 + x^3 + ...)/(x*y + ...)."""

    def extra(lo, hi):
        terms = ""
        for d in range(lo, hi + 1):
            for i in range(d + 1):
                if rng.random() < 0.25:
                    c = rng.choice((-2, -1, 1, 2, 3))
                    mono = "*".join(
                        f"{v}^{e}" for v, e in (("x", i), ("y", d - i)) if e
                    )
                    terms += f"{c:+d}*{mono}"
        return terms

    return f"mero:(y^2+x^3{extra(3, 4)})/(x*y{extra(3, 3)})"


def test_json_on_random_inputs_parses():
    coefs = lambda: RNG.randint(-3, 3)
    for _ in range(5):
        pieces = []
        for mono in ("x^3", "y^3", "x^2*y", "x*y^2", "x*y"):
            c = coefs()
            if c:
                pieces.append(f"{c}*{mono}")
        text = f"({' + '.join(pieces) or '0'}) dx + (x*y) dy"
        code, out = run_cli("reduce", text, "--json")
        rep = json.loads(out)
        assert code in (0, 1, 2)
        assert isinstance(rep["verdict"], str) and rep["verdict"]
    # Raw mero draws through every command that computes sigma; many of them
    # are defect (a) inputs, on which normal-form still fails with
    # InternalError (its data misses the degree-5 modulus), so normal-form
    # is not asked here.
    rng = random.Random(0x3E0)
    for _ in range(8):
        text = raw_mero(rng)
        for argv in (
            ["sigma", text],
            ["schwarzian", text],
            ["symmetries", text],
            ["first-integral", text, "--degree", "3"],
            ["cohomology", text],
            ["glue", text],
            ["equiv", text, text],
        ):
            code, out = run_cli(*argv, "--order", "8", "--json")
            assert code in (0, 1, 2, 3), argv
            rep = json.loads(out)
            assert isinstance(rep["verdict"], str) and rep["verdict"]
            if code in (0, 1):
                for cert in rep["certificates"]:
                    if isinstance(cert, dict):
                        assert cert["checked"] is True, argv


def test_internal_failure_has_its_own_exit_code(capsys):
    # a defect (a) input: normalize fails an internal assertion, which must
    # come out as InternalError with exit 4, not as a traceback or InputError
    argv = ["normal-form", "mero:(y^2+x^3+y^3)/(x*y)", "--order", "8"]
    error = (
        "AssertionError: elimination system is infeasible at degree 3 (rank 7); "
        "the input cannot be brought to the template"
    )
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert verdict_of(out) == "InternalError"
    assert f"\nerror: {error}\n" in out
    assert err == "" and "Traceback" not in out
    assert main(argv + ["--json"]) == 4
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert rep["verdict"] == "InternalError"
    assert rep["data"]["error"] == error
    assert rep["certificates"] == [] and err == ""


def run_child(args, cwd, stdout=subprocess.PIPE):
    # The child runs in an empty directory and finds the copy of the package
    # this process imported, whether it is installed or on a relative
    # PYTHONPATH such as ``src``.
    pkg_root = str(Path(cuspfol.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True,
        cwd=cwd, env=env,
    )


def test_subprocess_entry_point(tmp_path):
    proc = run_child(["-m", "cuspfol.cli", "reduce", CUSP], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "verdict: CuspTypeAbsolutelyDicritical" in proc.stdout
    # main(None) reads sys.argv[1:], a canonical spelling and one only
    # argparse reads alike
    printed = set()
    for spelling in (["sigma", CUSP, "--order", "8"], ["sigma", "--order=8", "--", CUSP]):
        proc = run_child(["-m", "cuspfol.cli", *spelling], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "verdict: Identity" in proc.stdout
        printed.add(proc.stdout)
    assert len(printed) == 1


def test_a_character_stdout_cannot_encode_is_escaped(tmp_path, monkeypatch):
    # the report is written in one piece: an ASCII stdout gets the whole
    # InputError report, the character as its backslash escape
    monkeypatch.setenv("PYTHONIOENCODING", "ascii")
    proc = run_child(["-m", "cuspfol.cli", "reduce", "\u00e9 dx"], tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[2:] == [
        "verdict: InputError",
        "error: line 1, column 1: unknown variable '\\xe9' (only x, y and i)",
    ]


def test_a_closed_pipe_ends_the_report_with_the_verdicts_code(tmp_path):
    # as under ``cuspfol sigma ... --order 160 | head -1`` once head is
    # done: the read end is closed before the child prints
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_child(
            ["-m", "cuspfol.cli", "sigma", SINH, "--order", "160"], tmp_path, stdout=write
        )
    finally:
        os.close(write)
    assert proc.stderr == ""
    assert proc.returncode == 0


# Every module of the package that one CLI call needs is loaded at start.
CLI_MODULES = {
    "cuspfol", "cuspfol._backend", "cuspfol.cli", "cuspfol.coeff",
    "cuspfol.firstintegral", "cuspfol.forms", "cuspfol.gaussint",
    "cuspfol.gluing", "cuspfol.jets", "cuspfol.linalg", "cuspfol.moduli",
    "cuspfol.normalform", "cuspfol.parsing", "cuspfol.transversal",
}


def test_cli_start_imports_no_dataclass_machinery(tmp_path):
    # Start-up is most of the wall time of one CLI call.  Building a
    # dataclass generates and compiles its methods, and ``dataclasses``
    # pulls in ``inspect``; the package's classes are plain, so neither
    # loads, while nothing the CLI uses is deferred past start-up.
    proc = run_child(["-c", "import sys, cuspfol.cli; print(*sys.modules)"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "inspect"}
    assert CLI_MODULES <= loaded, sorted(CLI_MODULES - loaded)


# --json reports of the sigma consumers at orders 24 and 64: first-integral
# at degrees 3 and 8, symmetries and equiv, on the README, ROADMAP and SINH
# forms, and on MOVED, whose Schwarzian is brought to its normal form by a
# homography with mu != 0.  sha256 of (exit code, stdout), taken from the
# Coeff and poly probes and the composed homographic image that the kernel
# routines replaced.
SIGMA_CONSUMER_PINS = [
    (("first-integral", CUSP, "--order", "24", "--degree", "3"), 0, "27a1e66a748f68dac418d76a027fcadc641d8f7f9197d1329d2d658e91245294"),
    (("first-integral", CUSP, "--order", "24", "--degree", "8"), 0, "f8016e3fabdcef70af89d95b47872c8d16b20a2326b68960f20b8883fd245937"),
    (("first-integral", CUSP, "--order", "64", "--degree", "3"), 0, "c9113ffa3df73abda3ebba4191162c0ae9528ff1e4a88a2f4ae89f7df72ef0fc"),
    (("first-integral", CUSP, "--order", "64", "--degree", "8"), 0, "4b6c7e5ce28a7a1c022aa3392dab0e52cd6222b369923d825929d00c99afcf37"),
    (("symmetries", CUSP, "--order", "64"), 0, "59fa89803a24002d86109d5639fb9ca3bedf293d37e79cd0856bfccd07754e4f"),
    (("equiv", CUSP, CUSP, "--order", "64"), 0, "2860f067072b1d1dcd151a770ce079655c8bf3090714b6c10406473253db9c53"),
    (("first-integral", ROADMAP, "--order", "24", "--degree", "3"), 0, "76868a6a7b00c903abe67f7de0be38b8d9e403b1e17f49e0b1e55a9dafe3f638"),
    (("first-integral", ROADMAP, "--order", "24", "--degree", "8"), 0, "181e2a9608359b07b8b03368336fb8d364dd7618ec38dcc7907d66b3c6e67050"),
    (("first-integral", ROADMAP, "--order", "64", "--degree", "3"), 0, "e89489629b8d04115c72b98f0d48d275025884505c2241cb79576634e733965a"),
    (("first-integral", ROADMAP, "--order", "64", "--degree", "8"), 0, "7aabe1636b397437b5a48c1f4221988ef7ce3e652db9128674d1a33947b92152"),
    (("symmetries", ROADMAP, "--order", "64"), 0, "59fa89803a24002d86109d5639fb9ca3bedf293d37e79cd0856bfccd07754e4f"),
    (("equiv", ROADMAP, ROADMAP, "--order", "64"), 0, "6a860b71a76af92d48d19a6549139b76f66202256ca306253de1147c4ac9ee63"),
    (("first-integral", SINH, "--order", "24", "--degree", "3"), 1, "d79827c195e749d3574b0928328941acbec459ac453dd946fd6272cf8bf0da9d"),
    (("first-integral", SINH, "--order", "24", "--degree", "8"), 1, "e38f3f5229b6dd5930cc42ffc30c0710e4bab84397988e4ebc9030a72283ee38"),
    (("first-integral", SINH, "--order", "64", "--degree", "3"), 1, "d195ed1b6ed876cf2b4f9e217e2f78793fe8a82b4ec8b84bca420b8408c16369"),
    (("first-integral", SINH, "--order", "64", "--degree", "8"), 1, "4839a038f792b142716e25b634b8af1638029aeea63851118a751b3747f85ce3"),
    (("symmetries", SINH, "--order", "64"), 0, "da1c21f1d158b1cb179c042402ed3971e3da2c11a8283a500090c7cba73f89e5"),
    (("equiv", SINH, SINH, "--order", "64"), 0, "a3a38f0cf7f9403a69187f5cdf6e62aca91335686a324fa297b031e9c7f86a13"),
    (("symmetries", MOVED, "--order", "64"), 0, "95c8c039c1e2e779448e15d5e54aab0278c860d0fdc9c76f7f86e4175d160879"),
    (("equiv", MOVED, MOVED, "--order", "64"), 0, "f95d549edadcf5e5c4593430b7bdd7a7f482c48c8347443917eb1f47987a0582"),
    (("equiv", SINH, MOVED, "--order", "64"), 1, "f22549f01505808d904e9cdfea0f064099624c8a2d974c06b3ff9bd92d031624"),
]


@pytest.mark.parametrize(
    "argv, code, digest",
    SIGMA_CONSUMER_PINS,
    ids=[
        "-".join(FORM_IDS.get(a, "moved" if a == MOVED else a.lstrip("-")) for a in argv)
        for argv, _, _ in SIGMA_CONSUMER_PINS
    ],
)
def test_sigma_consumer_reports_are_pinned(argv, code, digest):
    got_code, out = run_cli(*argv, "--json")
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
