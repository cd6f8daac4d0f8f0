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

A change that moves some values on purpose can say which, and by how much::

    python3 tools/request_hash.py --save /tmp/before.json   # before the change
    python3 tools/request_hash.py --compare /tmp/before.json  # after it

``--save FILE`` writes the (workload, value, path) record of every request
to FILE as JSON, the value as its real and imaginary parts, which JSON
keeps exactly. ``--compare FILE`` reads such a file and, after the digest
lines, prints one line per workload: how many of its values or paths differ
from the file's, bit for bit, and the largest relative move |new - old| / |old|
among them (inf where old is 0). Without options it prints the digest lines
only and writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def records() -> list[tuple[str, complex, str]]:
    """(workload, value, path) of every request, in the order they are hashed."""
    recs = []
    for name in NAMES:
        for r in ROUNDS:
            for req in WORKLOADS[name].round(SEED, r):
                value, path = run_request(oscint, req)
                recs.append((name, complex(value), path))
    return recs


def print_digests(recs: list[tuple[str, complex, str]]) -> None:
    total = hashlib.sha256()
    for name in NAMES:
        digest = hashlib.sha256()
        mine = [(value, path) for workload, value, path in recs if workload == name]
        for value, path in mine:
            record = np.complex128(value).tobytes() + path.encode()
            digest.update(record)
            total.update(record)
        print(name, len(mine), digest.hexdigest())
    print(len(recs), total.hexdigest())


def relative_move(new: complex, old: complex) -> float:
    if new == old:
        return 0.0
    return abs(new - old) / abs(old) if old else float("inf")


def print_comparison(recs: list[tuple[str, complex, str]], saved_file: str) -> None:
    rows = json.loads(Path(saved_file).read_text())
    saved = [(w, complex(re, im), p) for w, re, im, p in rows]
    for name in NAMES:
        new = [(v, p) for w, v, p in recs if w == name]
        old = [(v, p) for w, v, p in saved if w == name]
        if len(new) != len(old):
            sys.exit(f"{name}: {len(new)} requests now, {len(old)} in {saved_file}")
        moved = [
            relative_move(v, u)
            for (v, p), (u, q) in zip(new, old)
            if np.complex128(v).tobytes() != np.complex128(u).tobytes() or p != q
        ]
        print(f"{name} moved {len(moved)} of {len(new)}, largest relative move "
              f"{max(moved, default=0.0):.3g}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="FILE", help="write every record to FILE")
    parser.add_argument("--compare", metavar="FILE",
                        help="count the values that moved since FILE was saved")
    args = parser.parse_args(argv)
    recs = records()
    print_digests(recs)
    if args.save:
        rows = [(w, v.real, v.imag, p) for w, v, p in recs]
        Path(args.save).write_text(json.dumps(rows) + "\n")
    if args.compare:
        print_comparison(recs, args.compare)


if __name__ == "__main__":
    main()
