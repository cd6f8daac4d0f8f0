"""Print SHA-256 digests over the value and path of a fixed set of benchmark requests.

A refactor that must keep integral values bit for bit can run this script
before and after the change and compare the lines it prints::

    python3 tools/request_hash.py

It walks rounds 1-5 of seed 7 of the sweep, large_n_direct, large_n_normal
and nonlinear_phase workloads of ``bench/workloads.py``, sends each request
through ``run_request`` (the public API, or the CLI for nonlinear_phase) and
updates two hashes with ``np.complex128(value).tobytes() + path.encode()``:
the workload's own and the total over all four. It prints one line
``<workload> <count> <hex digest>`` per workload, so a change shows which
workload's values moved, and last the total request count and hex digest.
It takes no arguments and writes nothing.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave no __pycache__ under bench/ or src/

import oscint.cli  # noqa: E402  (binds oscint; run_request calls oscint.cli.main)
from workloads import WORKLOADS, run_request  # noqa: E402

NAMES = ("sweep", "large_n_direct", "large_n_normal", "nonlinear_phase")
SEED, ROUNDS = 7, range(1, 6)


def main() -> None:
    total = hashlib.sha256()
    count = 0
    for name in NAMES:
        digest = hashlib.sha256()
        start = count
        for r in ROUNDS:
            for req in WORKLOADS[name].round(SEED, r):
                value, path = run_request(oscint, req)
                record = np.complex128(value).tobytes() + path.encode()
                digest.update(record)
                total.update(record)
                count += 1
        print(name, count - start, digest.hexdigest())
    print(count, total.hexdigest())


if __name__ == "__main__":
    main()
