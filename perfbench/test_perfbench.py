"""Tests of the benchmark itself (not of cuspfol).

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py
"""

import itertools
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from gen import GQ  # noqa: E402


def _questions(name, seed, n):
    return list(itertools.islice(workloads.stream(name, seed), n))


def test_same_seed_gives_same_inputs():
    for name, slots in workloads.WORKLOADS.items():
        n = 2 * len(slots)
        first, again = _questions(name, 11, n), _questions(name, 11, n)
        assert [q.argv for q in first] == [q.argv for q in again]
        assert [q.expect for q in first] == [q.expect for q in again]
        other = _questions(name, 12, n)
        assert [q.argv for q in first] != [q.argv for q in other]
        # the mix of subcommands and orders does not depend on the seed
        assert [(q.argv[0], q.argv[-1]) for q in first] == [(q.argv[0], q.argv[-1]) for q in other]


def test_known_answers_are_derived_without_cuspfol():
    code = (
        "import sys, itertools\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "import workloads\n"
        "for name in workloads.WORKLOADS:\n"
        "    list(itertools.islice(workloads.stream(name, 3), 50))\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'cuspfol']\n"
        "assert not loaded, loaded\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=HERE)


def test_pullback_by_identity_and_by_a_shear():
    t = gen.Template(GQ(2), GQ(-1), {5: (gen.ZERO, GQ(1), gen.ZERO, gen.ZERO)})
    assert gen.pullback(t.form(), {}, {}) == t.form()
    # phi = (x + y^2, y): d(x + y^2) = dx + 2y dy
    a, b = gen.pullback(({(0, 0): gen.ONE}, {}), {(0, 2): gen.ONE}, {})
    assert a == {(0, 0): gen.ONE} and b == {(0, 1): GQ(2)}


def test_template_data_is_canonical_and_read_back():
    t = gen.Template(GQ(3, -1), gen.ZERO, {5: (gen.ZERO, GQ(1, 2), GQ(-1), gen.ZERO)})
    want = t.expected_normal_form(6)
    assert want["tail"][6] == (gen.ZERO,) * 4
    for text, value in [("-3/2", GQ(F(-3, 2))), ("i", GQ(0, 1)), ("-i", GQ(0, -1)),
                        ("2/3*i", GQ(0, F(2, 3))), ("1-i", GQ(1, -1)),
                        ("-1/2+5/3*i", GQ(F(-1, 2), F(5, 3)))]:
        assert gen.parse_coeff(text) == value, text
    with pytest.raises(ValueError):
        gen.Template(GQ(1), gen.ZERO, {5: (GQ(1), gen.ZERO, gen.ZERO, gen.ZERO)})


def test_self_time_subtracts_union_of_children():
    # (id, name, start, end, parent, question)
    recorded = [
        (3, "d", 2.0, 3.0, 1, 0),
        (1, "b", 1.0, 4.0, 0, 0),
        (2, "c", 5.0, 7.0, 0, 0),
        (0, "a", 0.0, 10.0, None, 0),
        (5, "e", 11.0, 13.0, 4, 1),
        (6, "e", 12.0, 15.0, 4, 1),  # overlaps its sibling: counted once
        (4, "a", 10.0, 20.0, None, 1),
    ]
    selfs = spans.self_times(recorded)
    assert selfs == {0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 6.0, 5: 2.0, 6: 3.0}
    summary = spans.summarize(recorded)
    assert summary["a"] == {"calls": 2, "busy_s": 20.0, "self_s": 11.0}
    assert summary["e"] == {"calls": 2, "busy_s": 4.0, "self_s": 5.0}


def test_tracer_patches_every_binding_and_restores_it():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from cuspfol import _backend, cli, jets, linalg

    originals = (linalg.rref, jets.jet1_mul, cli.normalize, jets.Jet1.comp_inverse)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert linalg.rref is _backend.rref is not originals[0]
        assert cli.normalize is not originals[2]
        one = jets.Jet1([0, 1, 1], order=4)
        one.comp_inverse()
    finally:
        tracer.uninstall()
    assert (linalg.rref, jets.jet1_mul, cli.normalize, jets.Jet1.comp_inverse) == originals
    names = {s[1] for s in tracer.spans}
    assert {"jets.Jet1.comp_inverse", "jets.Jet1.compose", "kernel.jet1_mul"} <= names
    by_id = {s[0]: s for s in tracer.spans}
    for span in tracer.spans:
        if span[1] == "kernel.jet1_mul":
            assert by_id[span[4]][1] == "jets.Jet1.compose"


def test_scale_uses_the_reference_around_and_during_each_question():
    n = speed.NOMINAL_S
    # the second question ran while the reference took 1, 2 and 3 times nominal
    assert speed.scale([1.0, 2.0], [n, n, 3 * n], [(), (2 * n,)]) == pytest.approx([1.0, 1.0])
    assert speed.scale([0.5], [2 * n, 2 * n]) == pytest.approx([0.25])


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampler_samples_only_while_started_and_reports_its_time():
    with speed.Sampler() as sampler:
        sampler.start()
        _busy(4 * speed.PERIOD_S)
        inside, spent = sampler.stop()
        _busy(3 * speed.PERIOD_S)
    assert len(inside) >= 2
    assert sampler.samples == inside
    assert sum(inside) <= spent < 4 * speed.PERIOD_S
