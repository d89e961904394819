"""The byte lock of the CLI: ``tools/census.lock``.

The lock holds the census lines (``tools/census.py``) of seed 43 at 60
questions per benchmark workload, with ``--json`` and without it, and the
``high-order`` line.  The JSON report writer and ``format_poly`` feed both
outputs, so a change to either that moves one byte of a report moves a
line.  This test asks the same questions in process and compares.
"""

import functools
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import load_workloads, stream_argvs

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@functools.cache
def load_census():
    """``tools/census.py`` as a module, with ``sys.path`` left as it was."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("census", TOOLS / "census.py")
        census = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(census)
    finally:
        sys.path[:] = path
    return census


def locked_lines():
    text = (TOOLS / "census.lock").read_text()
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def test_the_lock_covers_every_workload_with_and_without_json():
    names = list(load_workloads().WORKLOADS)
    heads = [line.split(" seed=")[0].split(" questions=")[0] for line in locked_lines()]
    assert heads == [*names, "high-order", *(f"{name} plain" for name in names)]


@pytest.mark.parametrize("line", locked_lines(), ids=lambda line: line.split(" sha256=")[0])
def test_census_matches_the_lock(line):
    census = load_census()
    head = line.split(" seed=")[0].split(" questions=")[0]
    if head == "high-order":
        assert census.high_order_line() == line
        return
    name, _, plain = head.partition(" ")
    anchors = [q.argv for q in census.workloads.anchors(name)]
    argvs = [*stream_argvs(name)[:60], *anchors]
    assert census.line(name, 43, argvs, plain=bool(plain)) == line


def test_a_negative_question_count_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "census.py"), "--questions", "-1"],
        capture_output=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""  # nothing is asked before the check
    assert b"Traceback" not in proc.stderr
    lines = proc.stderr.decode().splitlines()
    assert lines[0].startswith("usage: ")
    assert lines[-1].endswith("argument --questions: must be nonnegative, not -1")


def test_a_closed_pipe_ends_the_census_without_a_traceback():
    # as in tests/test_loc.py: the read end is closed before the tool
    # prints, as under ``census.py | head -1`` once head is done
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "census.py"),
             "--seeds", "43", "--questions", "1", "--workloads", "sweep"],
            stdout=write, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write)
    assert b"Traceback" not in proc.stderr
    assert proc.stderr == b""
    assert proc.returncode == 1
