"""Command-line front end: parse a form, run a computation, print a report.

Every command reads one or two form expressions (see :mod:`cuspfol.parsing`
for the syntax), runs the corresponding exact computation and prints a
structured report: a fixed top-level shape

    {command, order, verdict, data, certificates}

as plain ``key: value`` lines, or as canonical JSON under ``--json`` (sorted
keys, two-space indent, so equal inputs give byte-identical output).  One
recursive writer prints both: the JSON report byte for byte as
``json.dumps(report, sort_keys=True, indent=2)`` writes it, and each nested
value of a plain line in the one-line layout of ``json.dumps(value,
sort_keys=True)``.  A report holds only dicts, lists, strings, ints,
booleans and None, and the writer escapes strings with
``_json.encode_basestring_ascii``, the C escaper ``json.dumps`` itself uses,
so a question loads no ``json`` package.

The grammar (commands, positionals, options and defaults) is written once,
in ``_GRAMMAR`` and ``_OPTIONS``.  ``main`` first reads the canonical argv
with ``_read_argv``: the command, then its positionals and its options,
each option at most once and spelled in full, ``--order N`` and
``--degree N`` with N of ASCII digits.  Every other argv, help and
refusals included, goes to the argparse parser built from the same table,
once per process, so argparse alone writes help, usage and error text and
reads every other spelling it accepts (``--order=8``, ``--ord 8``, ``--``).
A canonical argv loads no ``argparse``.
An ``--order`` above ``MAX_ORDER``, or a ``--degree`` above ``MAX_DEGREE``,
is refused as invalid input.

Exit status: 0 for a positive verdict, 1 for a negative one, 2 when the
computation cannot decide at the working order, 3 for invalid input, 4 for
an internal failure (a failed assertion or an arithmetic error in the
library), reported as the verdict ``InternalError`` with no traceback.
The report is written in one piece, characters the stream cannot encode
as backslash escapes; a reader that closes the pipe early ends the call
quietly with the verdict's own exit code.
"""

from __future__ import annotations

import functools
import os
import sys
from _json import encode_basestring_ascii as _quote  # the escaper json.dumps uses
from types import SimpleNamespace

from .coeff import Coeff, format_triple
from .jets import Jet1, format_poly
from .forms import OneForm, ReductionVerdict, form_of_meromorphic, reduce_cusp
from .normalform import normalize
from .transversal import CornerGerm, transversal_structure
from .moduli import (
    canonical_alpha,
    homographic_equivalent,
    homographic_symmetries,
    schwarzian,
)
from .gluing import build_cocycle, cohomology_dimension
from .firstintegral import no_first_integral_witness
from .parsing import MeromorphicPair, parse_form

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

# The largest --order accepted; larger orders are refused as input errors.
# Work grows steeply with the order: on the SINH form every subcommand
# answers within about 0.2 s at order 160 (one process each, Python 3.11
# on a shared 2-core host), and equiv takes about 0.17 s at 192 (in
# process, the bound lifted).
MAX_ORDER = 160

# The largest --degree accepted by first-integral.  Its d Hankel probes
# eliminate (order - d) x d systems, so work grows steeply with d: at
# order 160 the SINH form answers in about 1.1 s at degree 24 and 3.8 s at
# 32, and the README and ROADMAP forms within 0.6 s (in process, same host).
MAX_DEGREE = 24


# ---------------------------------------------------------------------------
# serialization helpers (everything below must be deterministic)

def _ser_coeff(c):
    return None if c is None else format_triple(c.triple)

def _ser_jet1(j):
    return [[k, format_triple(t)] for k, t in enumerate(j.triples) if t[0] or t[1]]

def _ser_jet2(j):
    terms = sorted(j.triple_items(), key=lambda kt: (sum(kt[0]), kt[0]))
    return [[i, jj, format_triple(t)] for (i, jj), t in terms]


def _ser_matrix(mat):
    if mat is None:
        return None
    return [[_ser_coeff(v) if isinstance(v, Coeff) else v for v in row] for row in mat]


def _ser_rational(r):
    z = "z"
    num = format_poly({(k, 0): c.triple for k, c in enumerate(r.num) if c}, (z, z))
    den = format_poly({(k, 0): c.triple for k, c in enumerate(r.den) if c}, (z, z))
    return {"num": num, "den": den}


def _ser_certificate(cert):
    if cert is None:
        return None
    return [[[int(i), int(j)], format_triple(w.triple)] for (i, j), w in cert]


# ---------------------------------------------------------------------------
# shared pipeline steps

class _CommandError(Exception):
    """An input-level failure with a ready exit code."""

    def __init__(self, message, code=EXIT_INPUT, verdict="InputError"):
        super().__init__(message)
        self.code = code
        self.verdict = verdict


def _as_oneform(text, order) -> OneForm:
    parsed = parse_form(text, order)
    if isinstance(parsed, MeromorphicPair):
        # the parser has checked every degree <= order, so one more order is
        # exact; differentiating num and den brings the form back to order
        return form_of_meromorphic(
            parsed.num.with_order(order + 1), parsed.den.with_order(order + 1)
        )
    return parsed


def _reduction_data(rep):
    return {
        "reason": rep.reason,
        "is_valuation_3": rep.is_valuation_3,
        "p2_coefficient": _ser_coeff(rep.p2_coefficient),
        "applied_linear_change": _ser_matrix(rep.applied_linear_change),
        "exceptional_power_1": rep.exceptional_power_1,
        "exceptional_power_2": rep.exceptional_power_2,
        "singular_points_on_D2": [
            [_ser_coeff(t), int(m)] for t, m in rep.singular_points_on_D2
        ],
        "tangency_at_infinity": rep.tangency_at_infinity,
        "corner_regular": rep.corner_regular,
        "transverse_to_D1": rep.transverse_to_D1,
        "transverse_to_D2": rep.transverse_to_D2,
    }


def _reduction_code(rep):
    if rep.verdict is ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL:
        return EXIT_OK
    if rep.verdict is ReductionVerdict.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_NEGATIVE


def _require_cusp(rep):
    code = _reduction_code(rep)
    if code == EXIT_OK:
        return
    raise _CommandError(
        f"reduction verdict {rep.verdict.value}: {rep.reason}",
        code=code,
        verdict=rep.verdict.value,
    )


def _sigma_of_form(w, order):
    rep = reduce_cusp(w)
    _require_cusp(rep)
    # sigma mod z^(order+1) reads only corner data of degree < order, so the
    # corner germ's 4*order - 7 blow-up jet is solved no further than printed
    corner = CornerGerm.from_reduction(rep)
    return transversal_structure(corner, min(order, corner.order))


def _alpha_of_sigma(sigma):
    """The normal form's alpha, read off sigma: alpha = -1/sigma_1.

    With weights w(x) = 2 and w(y) = 3, a cusp-type form whose cubic part
    is c*y^2 (x dy - y dx) starts in weighted degree 11, with
    c*y^2 (x dy - y dx) + q*x^3 (x dy - 2y dx), and alpha = q/c.  Every
    tangent-to-identity change raises the weight, so that part is
    invariant.  The weighted scaling (t^2 x, t^3 y) leaves sigma_1 as it is:
    the diagonal law gives sigma'(u) = (1/t) sigma(t u).  Divided by t^11,
    the scaled form tends to its weighted-degree-11 part as t -> 0, so
    sigma_1 depends only on that part.  That part is a diagonal image of
    the model (y^2 + x^3)/(x*y), which has alpha = -1 and sigma = id; the
    laws of (a x, b y), alpha' = alpha a^3/b^2 and sigma'_1 = b^2/a^3, keep
    the product.
    """
    return -1 / sigma.coeff(1)


# ---------------------------------------------------------------------------
# command handlers: each returns (verdict, data, certificates, exit_code)

def _cmd_reduce(args):
    w = _as_oneform(args.form, args.order)
    rep = reduce_cusp(w)
    return rep.verdict.value, _reduction_data(rep), [], _reduction_code(rep)


def _cmd_normal_form(args):
    w = _as_oneform(args.form, args.order)
    rep = reduce_cusp(w)
    _require_cusp(rep)
    nf = normalize(w, reduction=rep)
    data = {
        "alpha": _ser_coeff(nf.alpha),
        "a": _ser_coeff(nf.a),
        "tail": [
            [int(m), [_ser_coeff(c) for c in t]] for m, t in sorted(nf.tail.items())
        ],
        "trivial_tail": nf.is_trivial_tail(),
        "scale": _ser_coeff(nf.scale),
        "applied_linear_change": _ser_matrix(nf.applied_linear_change),
    }
    return "Normalized", data, [], EXIT_OK


def _cmd_sigma(args):
    w = _as_oneform(args.form, args.order)
    jet = _sigma_of_form(w, args.order)
    ident = jet == Jet1.variable(jet.order)
    data = {
        "sigma": _ser_jet1(jet),
        "sigma_order": jet.order,
        "is_identity": ident,
        "canonical_alpha": _ser_coeff(canonical_alpha(jet)),
    }
    return ("Identity" if ident else "NonIdentity"), data, [], EXIT_OK


def _cmd_schwarzian(args):
    w = _as_oneform(args.form, args.order)
    jet = _sigma_of_form(w, args.order)
    f = schwarzian(jet)
    data = {
        "schwarzian": _ser_jet1(f),
        "schwarzian_order": f.order,
        "sigma": _ser_jet1(jet),
    }
    verdict = "Homographic" if f.is_zero() else "NonHomographic"
    return verdict, data, [], EXIT_OK


def _cmd_equiv(args):
    # a change of coordinates moves sigma by a Moebius map after it, which
    # S ignores, and by a homography before it (see cuspfol.moduli)
    w0 = _as_oneform(args.form, args.order)
    w1 = _as_oneform(args.other, args.order)
    s0 = _sigma_of_form(w0, args.order)
    s1 = _sigma_of_form(w1, args.order)
    v = homographic_equivalent(schwarzian(s0), schwarzian(s1))
    data = {
        "alpha_first": _ser_coeff(_alpha_of_sigma(s0)),
        "alpha_second": _ser_coeff(_alpha_of_sigma(s1)),
        "sigma_first": _ser_jet1(s0),
        "sigma_second": _ser_jet1(s1),
        "eps": _ser_coeff(v.eps),
        "reason": v.reason,
    }
    certs = list(v.constraints)
    if v.equivalent:
        return "Equivalent", data, certs, EXIT_OK
    return "NotEquivalent", data, certs, EXIT_NEGATIVE


def _cmd_symmetries(args):
    w = _as_oneform(args.form, args.order)
    jet = _sigma_of_form(w, args.order)
    if jet.order < 7:
        raise _CommandError(
            "symmetry search needs jet order >= 7 (the Schwarzian loses three "
            "orders); rerun with a larger --order"
        )
    f = schwarzian(jet)
    rep = homographic_symmetries(f)
    data = {
        "infinite": rep.infinite,
        "lambda_order": rep.lambda_order,
        "candidates": [
            {"lam": _ser_coeff(h.lam), "mu": _ser_coeff(h.mu)} for h in rep.candidates
        ],
        "notes": list(rep.notes),
    }
    verdict = "InfiniteGroup" if rep.infinite else "FiniteCandidates"
    return verdict, data, [], EXIT_OK


def _cmd_first_integral(args):
    w = _as_oneform(args.form, args.order)
    jet = _sigma_of_form(w, args.order)
    d = args.degree
    if jet.order < 2 * d + 2:
        raise _CommandError(
            f"degree bound {d} needs jet order >= {2 * d + 2}; rerun with a "
            f"larger --order"
        )
    rep = no_first_integral_witness(jet, d, jet.order)
    data = {
        "degree_bound": rep.degree_bound,
        "probes": [[int(k), bool(hit)] for k, hit in rep.probes],
        "note": rep.note,
        "r1": _ser_rational(rep.r1) if rep.r1 is not None else None,
        "r2": _ser_rational(rep.r2) if rep.r2 is not None else None,
    }
    if rep.relation_found:
        return "RelationFound", data, [], EXIT_OK
    return "NoRelationWithinBound", data, [], EXIT_NEGATIVE


def _cmd_cohomology(args):
    w = _as_oneform(args.form, args.order)
    jet = _sigma_of_form(w, args.order)
    alpha = _alpha_of_sigma(jet)
    n = jet.order
    dim = cohomology_dimension(jet, alpha, n)
    cb = dim.split
    data = {
        "alpha": _ser_coeff(alpha),
        "target": "y1 (distinguished vertical direction)",
        "feasible": cb.feasible,
        "rows": dim.rows,
        "rank": dim.rank,
        "corank": dim.corank,
        "generator_independent": dim.generator_independent,
    }
    certs = []
    if cb.certificate is not None:
        certs.append(
            {
                "infeasibility_rows": _ser_certificate(cb.certificate),
                "checked": bool(cb.certificate_checked),
            }
        )
    if cb.feasible:
        return "Coboundary", data, certs, EXIT_OK
    verdict = (
        "ObstructedDimensionOne"
        if dim.corank == 1 and dim.generator_independent
        else "Obstructed"
    )
    return verdict, data, certs, EXIT_NEGATIVE


def _cmd_glue(args):
    w = _as_oneform(args.form, args.order)
    jet = _sigma_of_form(w, args.order)
    alpha = _alpha_of_sigma(jet)
    c = build_cocycle(jet, alpha)
    fx, fy = c.as_map()
    names = ("x1", "y1")
    data = {
        "sigma": _ser_jet1(jet),
        "alpha": _ser_coeff(alpha),
        "unit": _ser_jet2(c.A),
        "map_first": format_poly(dict(fx.triple_items()), names),
        "map_second": format_poly(dict(fy.triple_items()), names),
    }
    return "CocycleBuilt", data, [], EXIT_OK


# ---------------------------------------------------------------------------
# the grammar, written once: build_parser and _read_argv both read it

# option -> (default, help); an int default takes a value N, False is a flag
_OPTIONS = {
    "order": (16, "jet truncation order for the computation"),
    "json": (False, "print the report as canonical JSON"),
    "degree": (4, "degree bound for the rational relation search"),
}
_POSITIONALS = {
    "form": "form expression, or mero: quotient",
    "other": "second form expression",
}
_ONE_FORM = ("form",)
_COMMON = ("order", "json")

# command -> (handler, help, positionals, options)
_GRAMMAR = {
    "reduce": (_cmd_reduce, "run the two-blow-up reduction test", _ONE_FORM, _COMMON),
    "normal-form": (
        _cmd_normal_form, "compute the formal normal form data", _ONE_FORM, _COMMON
    ),
    "sigma": (
        _cmd_sigma,
        "compute the transversal-structure germ at the corner",
        _ONE_FORM,
        _COMMON,
    ),
    "schwarzian": (
        _cmd_schwarzian,
        "Schwarzian derivative of the transversal structure",
        _ONE_FORM,
        _COMMON,
    ),
    "equiv": (
        _cmd_equiv,
        "decide equivalence of two forms: whether the Schwarzians of their "
        "sigma lie on one orbit of z -> lam*z/(1 + mu*z)",
        ("form", "other"),
        _COMMON,
    ),
    "symmetries": (
        _cmd_symmetries,
        "homographic symmetries of the Schwarzian invariant",
        _ONE_FORM,
        _COMMON,
    ),
    "first-integral": (
        _cmd_first_integral,
        "bounded search for a rational first-integral relation",
        _ONE_FORM,
        (*_COMMON, "degree"),
    ),
    "cohomology": (
        _cmd_cohomology,
        "dimension of the deformation space of the gluing",
        _ONE_FORM,
        _COMMON,
    ),
    "glue": (
        _cmd_glue,
        "build the model gluing cocycle from the (sigma, alpha) data",
        _ONE_FORM,
        _COMMON,
    ),
}


# ---------------------------------------------------------------------------
# report printing

def _write_json(value, nl, out):
    """Append the text of ``value`` to the list ``out`` exactly as
    ``json.dumps(value, sort_keys=True, indent=2)`` writes it, nested where
    ``nl`` (a newline and the current indent) starts a line; with ``nl``
    None, on one line as ``json.dumps(value, sort_keys=True)`` writes it.

    A report holds dicts with str keys, lists, str, int, bool and None;
    anything else raises ``TypeError``.  Strings go through the escape
    function ``json.dumps`` itself uses.
    """
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        if nl is None:
            inner, head, sep, tail = None, "{", ", ", "}"
        else:
            inner = nl + "  "
            head, sep, tail = "{" + inner, "," + inner, nl + "}"
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"a report key must be a str, not {type(key).__name__}")
            out.append(head + _quote(key) + ": ")
            _write_json(value[key], inner, out)
            head = sep
        out.append(tail)
    elif kind is list:
        if not value:
            out.append("[]")
            return
        if nl is None:
            inner, head, sep, tail = None, "[", ", ", "]"
        else:
            inner = nl + "  "
            head, sep, tail = "[" + inner, "," + inner, nl + "]"
        for item in value:
            out.append(head)
            _write_json(item, inner, out)
            head = sep
        out.append(tail)
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int:
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"a report cannot hold a {kind.__name__}")


def _print_report(report, as_json, stream):
    """Write the report to ``stream`` in one ``write``; a character the
    stream cannot encode is written as its backslash escape."""
    out = []
    if as_json:
        _write_json(report, "\n", out)
        out.append("\n")
    else:
        lines = [(key, report[key]) for key in ("command", "order", "verdict")]
        lines += sorted(report["data"].items())
        lines += [("certificate", cert) for cert in report["certificates"]]
        for key, value in lines:
            if isinstance(value, (dict, list)):
                out.append(f"{key}: ")
                _write_json(value, None, out)
                out.append("\n")
            else:
                out.append(f"{key}: {value}\n")
    text = "".join(out)
    try:
        stream.write(text)
    except UnicodeEncodeError:  # raised before a byte of the text is written
        encoding = stream.encoding
        stream.write(text.encode(encoding, "backslashreplace").decode(encoding))


def build_parser():
    import argparse  # only an argv the canonical reader leaves needs it

    parser = argparse.ArgumentParser(
        prog="cuspfol",
        description="Exact reduction, moduli and gluing computations for "
        "cusp-type plane 1-forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, positionals, options) in _GRAMMAR.items():
        sp = sub.add_parser(command, help=help_text)
        for name in positionals:
            sp.add_argument(name, help=_POSITIONALS[name])
        for name in options:
            default, text = _OPTIONS[name]
            if default is False:
                sp.add_argument(f"--{name}", action="store_true", help=text)
            else:
                sp.add_argument(
                    f"--{name}", type=int, default=default, help=f"{text} (default {default})"
                )
    return parser


@functools.cache
def _parser():
    """The parser, built once per process: ``parse_args`` leaves it unchanged."""
    return build_parser()


def _read_argv(argv):
    """The namespace of a canonical argv, or None to leave it to argparse.

    Canonical: the command first, then its positionals, none starting with
    ``-``, and each of its options at most once and spelled in full, an int
    option followed by ASCII digits.  argparse reads such an argv to a
    namespace with the same attributes.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, _, positionals, options = _GRAMMAR[argv[0]]
    values, words = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        name = token[2:]
        if not token.startswith("--") or name not in options or name in values:
            return None
        if _OPTIONS[name][0] is False:
            values[name] = True
            continue
        digits = next(tokens, "")
        if not (digits.isascii() and digits.isdigit()):
            return None
        try:
            values[name] = int(digits)
        except ValueError:  # past the interpreter's digit limit
            return None
    if len(words) != len(positionals):
        return None
    args = SimpleNamespace(command=argv[0], **dict(zip(positionals, words)))
    for name in options:
        setattr(args, name, values.get(name, _OPTIONS[name][0]))
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = _parser().parse_args(argv)
    handler = _GRAMMAR[args.command][0]
    try:
        if args.order < 0:
            raise _CommandError(f"--order must be nonnegative (got {args.order})")
        if args.order > MAX_ORDER:
            raise _CommandError(f"--order must be at most {MAX_ORDER} (got {args.order})")
        if getattr(args, "degree", 0) > MAX_DEGREE:
            raise _CommandError(f"--degree must be at most {MAX_DEGREE} (got {args.degree})")
        verdict, data, certs, code = handler(args)
    except _CommandError as e:
        verdict, data, certs, code = e.verdict, {"error": str(e)}, [], e.code
    except ValueError as e:  # ParseError and JetError among them
        verdict, data, certs, code = "InputError", {"error": str(e)}, [], EXIT_INPUT
    except (AssertionError, ArithmeticError) as e:  # a fault of the library
        error = f"{type(e).__name__}: {e}" if str(e) else type(e).__name__
        verdict, data, certs, code = "InternalError", {"error": error}, [], EXIT_INTERNAL
    report = {
        "command": args.command,
        "order": args.order,
        "verdict": verdict,
        "data": data,
        "certificates": certs,
    }
    try:
        _print_report(report, args.json, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``cuspfol ... | head -1``): point stdout
        # at devnull so the flush at exit cannot raise again, and keep the code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
