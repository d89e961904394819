"""The cuspfol benchmark: seeded CLI questions with known answers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 22 --trace 0

One client on one thread asks questions in a closed loop: each question is a
call of ``cuspfol.cli.main(argv + ["--json"])`` with stdout captured, and the
next one starts when it returns.  Every answer is checked against what the
generator knows; a question fails when ``main`` raises, exits outside
{0, 1, 2, 3}, prints a certificate with ``checked: false``, or contradicts
the known answer.  The output of each anchor question (a fixed input) must
also match its sha256 in ``pins.json`` byte for byte; a mismatch stops the
run as incorrect.

``--trace 0`` prints the end-to-end metrics of a timed run of whole cycles of
the workload, as many as take about ``--seconds`` (see ``CYCLE_SECONDS``).
Its times are scaled to a nominal host speed, measured around and during
every question (see ``speed.py``), because the host's own speed drifts.
``--trace 1`` runs a fixed number of questions (deterministic in the seed)
twice, untraced and then with spans around the public functions of each
layer, and prints the per-layer metrics.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Spans,
per-question records and the environment go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

EXIT_CODES = {0, 1, 2, 3}
FAILURE_KINDS = ("exception", "wrong_verdict", "bad_exit", "unchecked_certificate")
SETUP_STARTS = 9

# Wall seconds one cycle of each workload takes in a timed run (questions,
# input generation, checks and reference samples) at the commit that defined
# the benchmark, on its host (pure kernel, Python 3.11, shared 2-core x86-64
# box).  A timed run asks round(--seconds / CYCLE_SECONDS) whole cycles, at
# least one, so that every run asks the same mix and count of questions and
# the tail percentile is the same in every run; a faster program finishes the
# run sooner.
CYCLE_SECONDS = {"sweep": 3.2, "series": 21.0, "dense-nf": 3.2, "cohomology": 7.3}
# Whole cycles asked by --trace 1 (once untraced, once traced).
TRACE_CYCLES = {"sweep": 4, "series": 1, "dense-nf": 4, "cohomology": 1}

# Per-layer metrics printed by --trace 1; they match BENCHMARK.json.
LAYER_STATS = {
    "kernel.rref": ("calls", "busy_s", "self_s"),
    "linalg.solve": ("busy_s",),
    "linalg.matrix_rank": ("busy_s",),
    "gluing.coboundary_solve": ("busy_s",),
    "gluing.cohomology_dimension": ("busy_s",),
    "gluing.build_cocycle": ("busy_s",),
    "jets.Jet1.comp_inverse": ("calls", "busy_s", "self_s"),
    "jets.Jet1.compose": ("calls", "busy_s"),
    "kernel.jet1_mul": ("calls", "busy_s"),
    "transversal.regular_first_integral": ("busy_s", "self_s"),
    "transversal.sigma_of_integral": ("busy_s",),
    "normalform.normalize": ("calls", "busy_s", "self_s"),
    "jets.Jet2.substitute": ("calls", "busy_s", "self_s"),
    "forms.pullback_map": ("calls", "busy_s"),
    "kernel.jet2_mul": ("calls", "busy_s"),
    "cli.main": ("self_s",),
    "parsing.parse_form": ("calls", "busy_s"),
    "forms.reduce_cusp": ("calls", "busy_s"),
    "gaussint.gi_factor": ("calls", "busy_s"),
    "moduli.schwarzian": ("busy_s",),
    "moduli.homographic_symmetries": ("busy_s",),
    "moduli.normal_pair_equivalent": ("busy_s",),
    "firstintegral.no_first_integral_witness": ("busy_s",),
}
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


# ---------------------------------------------------------------------------
# asking and checking


def ask(cli, question, sampler=None):
    """Run one question; return (exit code or None, stdout, exception or None,
    seconds, reference samples taken during it by ``sampler``).  The seconds
    leave out the time the sampler took."""
    buf = io.StringIO()
    start = time.perf_counter()
    if sampler:
        sampler.start()
    with contextlib.redirect_stdout(buf):
        try:
            code, exc = cli.main(list(question.argv) + ["--json"]), None
        except (Exception, SystemExit) as e:  # a failure to count, not to stop on
            code, exc = None, e
    inside, spent = sampler.stop() if sampler else ((), 0.0)
    return code, buf.getvalue(), exc, time.perf_counter() - start - spent, inside


def _same_value(printed, expected: gen.GQ):
    return printed is not None and gen.parse_coeff(printed) == expected


def _normal_form_matches(data, want):
    if not (_same_value(data.get("alpha"), want["alpha"]) and _same_value(data.get("a"), want["a"])):
        return False
    tail = {m: tuple(gen.parse_coeff(c) for c in t) for m, t in data.get("tail", [])}
    return tail == want["tail"]


def judge(question, code, out, exc):
    """The failure kind of one answer, or None when it passed every check."""
    if exc is not None:
        return "exception"
    try:
        report = json.loads(out)
    except ValueError:
        return "exception"  # no report printed
    if code not in EXIT_CODES:
        return "bad_exit"
    certs = report.get("certificates", [])
    if any(isinstance(c, dict) and c.get("checked") is False for c in certs):
        return "unchecked_certificate"
    want = question.expect
    if "exit" in want and code not in want["exit"]:
        return "wrong_verdict"
    if "verdict" in want and report.get("verdict") not in want["verdict"]:
        return "wrong_verdict"
    data = report.get("data", {})
    if "normal_form" in want and not _normal_form_matches(data, want["normal_form"]):
        return "wrong_verdict"
    if "corank" in want and data.get("corank") != want["corank"]:
        return "wrong_verdict"
    if want.get("certified") and not any(isinstance(c, dict) and c.get("checked") for c in certs):
        return "wrong_verdict"
    return None


def coeff_bits(out):
    return max((int(n).bit_length() for n in re.findall(r"\d+", out)), default=0)


class PinMismatch(Exception):
    """An anchor's output differs from the bytes pinned at the seed commit."""


def load_pins(workload):
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f).get(workload, {})


def answer(cli, question, pins, sampler=None):
    """Ask, check the pin if there is one, and judge: (seconds, failure kind,
    stdout, reference samples taken during the question)."""
    code, out, exc, dt, inside = ask(cli, question, sampler)
    pinned = pins.get(question.key)
    if pinned is not None and hashlib.sha256(out.encode()).hexdigest() != pinned:
        raise PinMismatch(question.key)
    return dt, judge(question, code, out, exc), out, inside


# ---------------------------------------------------------------------------
# measurements


def setup_seconds(env):
    """Median wall time of a fresh interpreter importing cuspfol.cli, scaled
    to the nominal host (see :mod:`speed`).

    This process and the interpreters it starts are held to one CPU
    meanwhile, so that the reference work is timed on the CPU the imports
    ran on.
    """
    pin = hasattr(os, "sched_setaffinity")
    if pin:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    try:
        times, refs = [], [speed.reference()]
        for _ in range(SETUP_STARTS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import cuspfol.cli"], env=env, cwd=ROOT,
                           check=True)
            times.append(time.perf_counter() - start)
            refs.append(speed.reference())
    finally:
        if pin:
            os.sched_setaffinity(0, cpus)
    return statistics.median(speed.scale(times, refs))


def tail_latency(latencies):
    """The highest percentile with at least ten questions beyond it.

    With n sorted latencies, the value at rank n - 11 (0-based) has exactly
    ten above it; its percentile is (n - 10) / n.  Fewer than eleven
    questions give the maximum, at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_run(cli, questions, count, pins):
    """Ask ``count`` questions with the host's speed sampled between and
    during them (see :mod:`speed`); return (measured latencies, reference
    samples between questions, reference samples during each, failure counts)."""
    measured, refs, inside, failures = [], [speed.reference()], [], Counter()
    with speed.Sampler() as sampler:
        for _ in range(count):
            dt, kind, _, during = answer(cli, next(questions), pins, sampler)
            measured.append(dt)
            inside.append(during)
            refs.append(speed.reference())
            if kind:
                failures[kind] += 1
    return measured, refs, inside, failures


def traced_run(cli, questions, pins):
    """Run ``questions`` untraced, then traced; return the per-layer report."""
    untraced = sum(answer(cli, q, pins)[0] for q in questions)
    tracer = spans.Tracer()
    traced, failures, bits, records = 0.0, Counter(), 0, []
    tracer.install()
    try:
        for i, q in enumerate(questions):
            tracer.question = i
            dt, kind, out, _ = answer(cli, q, pins)
            traced += dt
            if kind:
                failures[kind] += 1
            bits = max(bits, coeff_bits(out))
            records.append({"id": i, "argv": list(q.argv), "seconds": dt, "failure": kind})
    finally:
        tracer.uninstall()
    return tracer, failures, bits, records, untraced, traced


def layer_metrics(tracer, failures, bits, untraced, traced):
    summary = spans.summarize(tracer.spans)
    metrics = {}
    for prefix, stats in LAYER_STATS.items():
        row = summary.get(prefix, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for stat in stats:
            metrics[f"{prefix}.{stat}"] = {"value": row[stat], "unit": UNITS[stat]}
    for metric in spans.SIZE_METRICS:
        metrics[metric] = {"value": tracer.sizes[metric], "unit": "count"}
    metrics["size.coeff_bits_max"] = {"value": bits, "unit": "bits"}
    for kind in FAILURE_KINDS:
        metrics[f"failed.{kind}"] = {"value": failures[kind], "unit": "count"}
    metrics["trace.overhead"] = {"value": 1 - untraced / traced, "unit": "ratio"}
    return metrics, summary


def environment(seed):
    import cuspfol

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "kernel_backend": cuspfol.kernel_backend,
        "seed": seed,
        "machine": platform.machine(),
    }


def write_out(name, payload, compress=False):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    opener = gzip.open if compress else open
    with opener(path, "wt") as f:
        json.dump(payload, f)


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cuspfol", "cli.py")):
        print(f"error: no cuspfol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))

    setup_s = setup_seconds(env)
    from cuspfol import cli

    record = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed)}
    print("env: " + json.dumps(record["env"], sort_keys=True))

    pins = load_pins(args.workload)
    try:
        return measure(args, cli, pins, setup_s, record)
    except PinMismatch as e:
        print(f"pin mismatch, output changed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1


def measure(args, cli, pins, setup_s, record):
    questions = workloads.stream(args.workload, args.seed)
    cycle = len(workloads.WORKLOADS[args.workload])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        batch = [next(questions) for _ in range(TRACE_CYCLES[args.workload] * cycle)]
        tracer, failures, bits, records, untraced, traced = traced_run(cli, batch, pins)
        metrics, summary = layer_metrics(tracer, failures, bits, untraced, traced)
        write_out(f"spans-{tag}.json.gz", tracer.spans, compress=True)
        record.update(metrics=metrics, questions=records, untraced_s=untraced, traced_s=traced)
        ranked = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in ranked[:6]:
            print(f"self time: {name:42} {row['self_s']:9.3f} s  ({row['calls']} calls)")
        attempted = len(batch)
    else:
        cycles = max(1, round(args.seconds / CYCLE_SECONDS[args.workload]))
        measured, refs, inside, failures = timed_run(cli, questions, cycles * cycle, pins)
        latencies = speed.scale(measured, refs, inside)
        attempted = len(latencies)
        tail, pct = tail_latency(latencies)
        metrics = {
            "questions_per_s": {"value": attempted / sum(latencies), "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "latency_tail_s": {"value": tail, "unit": "s"},
            "correct_share": {"value": 1 - sum(failures.values()) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        record.update(metrics=metrics, latencies=latencies, measured=measured, refs=refs,
                      inside=inside, tail_percentile=pct, failures=dict(failures))
        print(f"latency_tail_s is p{pct:.1f} of {attempted} questions")
        print(f"times scaled to a {speed.NOMINAL_S * 1000:g} ms reference; measured here "
              f"{statistics.median(refs) * 1000:.3f} ms, so {attempted / sum(measured):.4f} "
              f"questions per measured second")
        print(f"failed_share: {sum(failures.values()) / attempted:.4f} ratio "
              f"({dict(failures) or 'none'})")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    write_out(f"result-{tag}.json", record)
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": sum(failures.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
