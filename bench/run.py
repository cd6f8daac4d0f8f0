"""oscint benchmark: seeded workloads through the public API, checked against references.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload's requests go out from one caller in a closed loop (the next
request is sent when the previous one returns), in a fresh child process
(``bench/worker.py``) with BLAS and OpenMP pinned to one thread. Every
result is then checked against an independent reference
(``bench/workloads.py``). An integral fails when it raises, is not finite,
or misses the workload's relative-error tolerance.

``--trace 0`` reports the end-to-end metrics:

Timings are scaled to a reference host speed: a fixed kernel that does not
touch oscint is timed before and after every round and every set-up
interpreter, and each timing is multiplied by the reference kernel time
over the measured one (``bench/clock.py``). The host the benchmark was built
on switches between speeds 1.6x apart in phases longer than a round, which
unscaled timings turn into run-to-run spread. Each run prints the host's
measured speed factor, so unscaled times can be recovered.

- ``integrals_per_s``: correct integrals per second of wall time, the
  median over the run's rounds (a round is one stratified batch of inputs).
- ``latency_p50_ms``, ``latency_p90_ms``: per-integral latency over the run,
  failed integrals included. A run holds at least 100 integrals, so at
  least 10 lie above p90.
- ``ok_share``: correct integrals divided by attempted ones.
- ``err_digits_min``: the worst -log10 relative error of the run, capped
  at 13 digits.
- ``setup_s``: wall time of a fresh interpreter that imports oscint and
  completes the workload's first integral; median of 5, after one
  unmeasured interpreter that warms the file cache.
- ``peak_rss_mb``: peak resident set size of the worker process.

``--trace 1`` runs every round twice, untraced and traced in alternating
order (``bench/spans.py``), and reports per-layer self times and counts per
traced integral, the share of traced wall time those spans cover, and the
tracing overhead. It also names the span with the largest self time and
whether it is the one predicted for the workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when any integral fails and 2 when the oscint sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import calibrate, scale
from spans import ROOT as HARNESS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 5
MIN_REQUESTS = 100  # so that at least 10 latencies lie above p90
# Relative errors below 1e-13 count as full accuracy: the references (sums
# of exponentials, quadrature to 1e-14 absolute) cannot resolve smaller ones.
DIGITS_CAP = 13.0

END_TO_END = (
    ("integrals_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_share", "share"),
    ("err_digits_min", "digits"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_SELF_MS = (
    "banded.banded_lu_partial_pivot", "banded.lu_solve", "banded.normal_system",
    "banded.upper_triangular_backsolve", "banded.matvec",
    "chebyshev.forward_coefficients", "chebyshev.gauss_lobatto_nodes",
    "chebyshev.endpoint_values",
    "levin.assemble_G", "levin.assemble_rhs", "levin.solve_coefficients",
    "levin.integrate_standard", "levin.integrate_on_interval", "levin.amplitude",
    "phase.substitute", "phase.numeric_inverse",
    "expr.eval", "expr.parse_amplitude", "cli.main",
)
_CALLS = ("banded.lu_solve", "banded.matvec", "phase.numeric_inverse", "expr.eval")
PER_LAYER = (
    tuple((f"{s}.self_ms", "ms") for s in _SELF_MS)
    + tuple((f"{s}.calls", "count") for s in _CALLS)
    + (
        ("levin.amplitude.points", "count"),
        ("levin.direct_share", "share"),
        ("oracle.calls", "count"),
        ("trace.overhead_share", "share"),
        ("trace.covered_share", "share"),
    )
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "worker.py"), *map(str, args)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: worker {' '.join(map(str, args))} "
                         f"exited with code {proc.returncode}")
    return proc


def measure_setup(name: str, seed: int) -> float:
    times = []
    calibrate()  # the first call warms caches
    cal = calibrate()
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        _worker(["setup", name, seed], timeout=60)
        elapsed = time.perf_counter() - t0
        after = calibrate()
        if i:  # the first interpreter only warms the file cache
            times.append(elapsed * scale(cal, after))
        cal = after
    return statistics.median(times)


def check(workload, requests, rec) -> tuple[list[bool], float]:
    """Per-request correctness and the worst accuracy in digits."""
    ok = []
    worst = DIGITS_CAP
    for req, re_, im_, error in zip(requests, rec["re"], rec["im"], rec["error"]):
        value = complex(re_, im_)
        if error is not None or not (math.isfinite(re_) and math.isfinite(im_)):
            ok.append(False)
            continue
        ref = req.reference()
        rel = abs(value - ref) / abs(ref)
        ok.append(rel <= workload.tol)
        worst = min(worst, -math.log10(max(rel, 10.0**-DIGITS_CAP)))
    return ok, worst


def read_worker(stdout: str) -> tuple[dict, dict]:
    """Merge the worker's per-round lines into one record per pass.

    ``rounds`` holds (requests, wall, speed scale) per round and ``lat`` the
    latencies at reference speed (``bench/clock.py``).
    """
    *rounds, end = (json.loads(line) for line in stdout.splitlines())
    passes = {}
    for rnd in rounds:
        rec = passes.setdefault(rnd["pass"], {"rounds": [], "lat": [], "re": [], "im": [],
                                             "path": [], "error": []})
        factor = scale(*rnd["cal"])
        rec["rounds"].append((len(rnd["lat"]), rnd["wall"], factor))
        rec["lat"].extend(t * factor for t in rnd["lat"])
        for key in ("re", "im", "path", "error"):
            rec[key].extend(rnd[key])
    return passes, end


def _requests(workload, seed: int, rounds) -> list:
    reqs = []
    for r, (count, _, _) in enumerate(rounds, start=1):
        batch = workload.round(seed, r)
        if len(batch) != count:
            raise SystemExit("bench: worker and parent disagree on the inputs")
        reqs.extend(batch)
    return reqs


def _round_rates(rec, ok) -> list[float]:
    """Correct integrals per second of each round, at reference speed."""
    rates, start = [], 0
    for count, wall, factor in rec["rounds"]:
        rates.append(sum(ok[start:start + count]) / (wall * factor))
        start += count
    return rates


def run_workload(workload, seed: int, seconds: float, trace: bool):
    """Run one workload; return (attempted, failed, metrics, report lines)."""
    setup = None if trace else measure_setup(workload.name, seed)
    proc = _worker(["run", workload.name, seed, seconds, int(trace), MIN_REQUESTS],
                   timeout=seconds + 100)
    passes, end = read_worker(proc.stdout)
    plain = passes["untraced"]
    requests = _requests(workload, seed, plain["rounds"])
    checked = {name: check(workload, requests, rec) for name, rec in passes.items()}
    ok, digits = checked["untraced"]
    if trace:
        metrics, lines = layer_metrics(workload, passes, end, checked["traced"][0])
    else:
        deciles = statistics.quantiles([t * 1e3 for t in plain["lat"]], n=10,
                                       method="inclusive")
        metrics = {
            "integrals_per_s": statistics.median(_round_rates(plain, ok)),
            "latency_p50_ms": deciles[4],
            "latency_p90_ms": deciles[8],
            "ok_share": sum(ok) / len(ok),
            "err_digits_min": digits,
            "setup_s": setup,
            "peak_rss_mb": end["rss_kb"] / 1024.0,
        }
        speed = statistics.median(f for _, _, f in plain["rounds"])
        lines = [f"{workload.name}: {len(ok)} integrals in {len(plain['rounds'])} rounds; "
                 f"host ran at {speed:.3f} x reference speed; timings below are scaled "
                 f"to reference speed"]
    attempted = failed = 0
    for name, (good, _) in checked.items():
        attempted += len(good)
        failed += good.count(False)
        for i, g in enumerate(good):
            if not g:
                why = passes[name]["error"][i] or "wrong value"
                lines.append(f"FAILED {workload.name} {name} #{i}: {requests[i]} {why}")
    return attempted, failed, metrics, lines


def layer_metrics(workload, passes, out, ok_traced):
    traced, plain = passes["traced"], passes["untraced"]
    n = len(ok_traced)
    spans = out["spans"]

    factor = statistics.median(f for _, _, f in traced["rounds"])

    def self_ms(name):  # at reference speed, like the end-to-end timings
        return spans.get(name, [0.0, 0])[0] * factor / n * 1e3

    def calls(name):
        return spans.get(name, [0.0, 0])[1] / n

    metrics = {f"{s}.self_ms": self_ms(s) for s in _SELF_MS}
    metrics.update({f"{s}.calls": calls(s) for s in _CALLS})
    wall_plain = sum(w * f for _, w, f in plain["rounds"])
    wall_traced = sum(w * f for _, w, f in traced["rounds"])
    covered = sum(v[0] for k, v in spans.items() if k != HARNESS)
    metrics.update({
        "levin.amplitude.points": out["points"] / n,
        "levin.direct_share": sum(p.startswith("direct") for p in traced["path"]) / n,
        "oracle.calls": sum(v[1] for k, v in spans.items() if k.startswith("oracle.")) / n,
        "trace.overhead_share": wall_traced / wall_plain - 1.0,
        "trace.covered_share": covered / out["traced_s"],
    })
    ranked = sorted(((v[0], k) for k, v in spans.items()), reverse=True)
    lines = [f"{workload.name}: traced {n} integrals; self time per integral:"]
    for s, k in ranked:
        lines.append(f"  {k:40s} {s * factor / n * 1e3:10.4f} ms  "
                     f"{100 * s / out['traced_s']:5.1f}%  calls {spans[k][1] / n:g}")
    top = ranked[0][1]
    verdict = "matches" if top in workload.predicted_top else "MISMATCH, predicted"
    lines.append(f"  dominant span {top} {verdict} {' or '.join(workload.predicted_top)}")
    if metrics["oracle.calls"]:
        lines.append("  oracle called on the timed path")
    for name in out["absent"]:
        lines.append(f"  absent at this commit: {name} (reported as 0)")
    return metrics, lines


def environment() -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name')} {blas.get('version')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oscint" / "__init__.py").is_file():
        print(f"bench: oscint sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # references use oscint.oracle

    if args.workload == "all":
        selected = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        selected = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")

    units = dict(PER_LAYER if args.trace else END_TO_END)
    attempted = failed = 0
    metrics = {}
    print(f"env: {environment()}")
    for workload in selected:
        a, f, m, lines = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        attempted += a
        failed += f
        for line in lines:
            print(line)
        for name, value in m.items():
            print(f"{workload.name}  {name} = {value:.6g} {units[name]}")
            key = name if len(selected) == 1 else f"{workload.name}.{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if not correct:
        print(f"bench: {failed} of {attempted} integrals failed", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
