"""``tools/loc.py``, the code-line counter, on a pipe whose reader is gone."""

import os
import subprocess
import sys
from pathlib import Path

LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"


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
