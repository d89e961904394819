"""``tools/loc.py``, the code-line counter, on a pipe whose reader is gone,
on arguments it does not take and on modules it cannot read;
``tools/reach.py`` on any argument."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
REACH = LOC.with_name("reach.py")


def test_a_closed_pipe_ends_the_count_without_a_traceback():
    # the read end is closed before the tool prints, so its first write to
    # stdout fails with EPIPE, as under ``loc.py | head`` once head is done
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, str(LOC)], stdout=write, stderr=subprocess.PIPE, timeout=60
        )
    finally:
        os.close(write)
    assert b"Traceback" not in proc.stderr
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_an_argument_that_is_not_a_directory_is_a_usage_error(tmp_path):
    for arg in ("--help", str(tmp_path / "missing"), "tests/test_loc.py"):
        proc = subprocess.run(
            [sys.executable, str(LOC), "tests", arg],
            capture_output=True, cwd=LOC.parents[1], timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""  # nothing is counted before the check
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("usage: ") and lines[0].endswith(arg)


def test_any_argument_to_the_reach_tool_is_a_usage_error():
    # the trace takes 30-50 s; a usage error comes before it
    for arg in ("--help", "-h", "src/cuspfol"):
        proc = subprocess.run(
            [sys.executable, str(REACH), arg], capture_output=True, timeout=30
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        lines = proc.stderr.decode().splitlines()
        assert lines == ["usage: python3 tools/reach.py (takes no arguments)"]


@pytest.mark.parametrize(
    "source",
    [b'x = "\xff\xfe"\n', b"def f(:\n", b"x = = 1\n"],
    ids=["not-utf8", "unclosed-bracket", "syntax-error"],
)
def test_a_module_that_cannot_be_counted_is_named_without_a_traceback(tmp_path, source):
    (tmp_path / "ok.py").write_text("x = 1\n")
    (tmp_path / "p.py").write_bytes(source)
    proc = subprocess.run(
        [sys.executable, str(LOC), str(tmp_path)], capture_output=True, timeout=60
    )
    assert proc.returncode == 2
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"loc.py: cannot count {tmp_path / 'p.py'}: ")
