"""Write pins.json: the sha256 of each anchor question's --json output.

Run from the root of a checkout, at the commit whose output is the reference:

    python3 perfbench/pin.py

Only anchors that pass their known-answer checks are pinned; an anchor that
fails (a known defect) is checked by its known answer alone, so that a fix
may change its output.
"""

import hashlib
import json
import os
import sys

import run
import workloads

sys.path.insert(0, run.SRC)
from cuspfol import cli  # noqa: E402


def main():
    pins = {}
    for name in sorted(workloads.WORKLOADS):
        pins[name] = {}
        for q in workloads.anchors(name):
            code, out, exc, _ = run.ask(cli, q)
            kind = run.judge(q, code, out, exc)
            if kind:
                print(f"not pinned ({kind}): {name}: {q.key[:70]}")
                continue
            pins[name][q.key] = hashlib.sha256(out.encode()).hexdigest()
    with open(os.path.join(run.HERE, "pins.json"), "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
