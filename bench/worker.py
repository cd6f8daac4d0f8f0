"""Child process of the benchmark: one workload, one caller, closed loop.

    python3 bench/worker.py setup <workload> <seed>
    python3 bench/worker.py run <workload> <seed> <seconds> <trace 0|1> <min_requests>

``setup`` imports oscint and completes the workload's first request; the
parent times the whole process. ``run`` warms up on that request, then sends
the requests of rounds 1, 2, ... one after another from this thread until
``seconds`` have passed and at least ``min_requests`` are done. After each
round it prints one JSON line with the round's wall time, per-request
latency, value, path and error, and the calibration times taken just before
and after the round (``bench/clock.py``). Printing per round keeps the
memory held for results from growing with throughput. A last line carries
the process's peak RSS. With trace 1 each round runs twice, untraced and
traced in alternating order, on fresh copies of the same inputs, and the
last line also carries the spans.

Needs ``src`` on PYTHONPATH; ``bench/run.py`` sets it.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time

import oscint
from clock import calibrate
from spans import Tracer
from workloads import WORKLOADS, run_request


def run_round(reqs, cal_before: float, tracer: Tracer | None = None) -> dict:
    """Run one round of requests in a closed loop; return its record.

    ``cal_before`` is the calibration time taken just before the round; the
    record carries it with the one taken just after. With a ``tracer``, its
    spans are installed for the round only.
    """
    clock = time.perf_counter
    amplitudes = [None] * len(reqs)
    if tracer is not None:
        wrapped = {}  # one wrapper per amplitude object, so shared inputs stay shared
        for i, req in enumerate(reqs):
            if req.amplitude is not None:
                key = id(req.amplitude)
                if key not in wrapped:
                    wrapped[key] = tracer.amplitude(req.amplitude)
                amplitudes[i] = wrapped[key]
        tracer.install()
    lat, values, paths, errors = [], [], [], []
    try:
        t_round = clock()
        for req, amplitude in zip(reqs, amplitudes):
            error = None
            t0 = clock()
            try:
                if tracer is None:
                    value, path = run_request(oscint, req, amplitude)
                else:
                    value, path = tracer.request(run_request, oscint, req, amplitude)
            except Exception as exc:  # a failed integral is counted; the loop goes on
                error = f"{type(exc).__name__}: {exc}"
                value, path = complex("nan"), ""
            lat.append(clock() - t0)
            values.append(value)
            paths.append(path)
            errors.append(error)
        wall = clock() - t_round
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall": wall, "lat": lat, "re": [v.real for v in values],
            "im": [v.imag for v in values], "path": paths, "error": errors,
            "cal": [cal_before, calibrate()]}


def main(argv) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    first = workload.first(seed)
    if first.argv is not None:
        importlib.import_module("oscint.cli")
    run_request(oscint, first)  # set-up's first integral; warm-up for a run
    if mode == "setup":
        return 0
    seconds, traced_run, min_requests = float(argv[3]), argv[4] == "1", int(argv[5])
    tracer = Tracer() if traced_run else None
    done = 0
    calibrate()  # the first call warms caches
    cal = calibrate()
    deadline = time.perf_counter() + seconds
    r = 1
    while True:
        # With tracing, the two passes swap order every round, so that caches
        # the first pass warms (scipy's FFT plans, for one) favour neither.
        order = [None]
        if tracer is not None:
            order = [None, tracer] if r % 2 else [tracer, None]
        for t in order:
            rec = run_round(workload.round(seed, r), cal, t)
            cal = rec["cal"][1]
            print(json.dumps({"pass": "untraced" if t is None else "traced", **rec}))
        done += len(rec["lat"])
        if time.perf_counter() >= deadline and done >= min_requests:
            break
        r += 1
    end = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        end["spans"] = {k: [tracer.self_s[k], tracer.calls[k]] for k in tracer.calls}
        end["points"] = tracer.points
        end["traced_s"] = tracer.traced_s
        end["absent"] = tracer.absent
    print(json.dumps(end))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
