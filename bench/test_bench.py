"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oscint  # noqa: E402
import oscint.cli  # noqa: E402,F401
from oscint.oracle import oscillatory_reference_quadrature  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import BAND, WORKLOADS  # noqa: E402


def _fingerprint(requests):
    return [(r.omega, r.n, r.argv, r.reference()) for r in requests]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    w = WORKLOADS[name]
    first = _fingerprint(w.round(7, 1))
    assert _fingerprint(w.round(7, 1)) == first
    assert _fingerprint(w.round(8, 1)) != first
    assert _fingerprint(w.round(7, 2)) != first


def test_closed_form_agrees_with_reference_quadrature():
    requests = [r for r in WORKLOADS["sweep"].round(3, 1) if r.omega < 300][:12]
    assert len(requests) >= 6
    for req in requests:
        quad = oscillatory_reference_quadrature(req.amplitude, req.omega, -1.0, 1.0, tol=1e-14)
        assert abs(req.reference() - quad) <= 1e-12 * abs(quad)


def test_frequencies_avoid_the_inaccurate_band():
    for req in WORKLOADS["sweep"].round(5, 1):
        assert not BAND[0] <= req.omega / req.n < BAND[1]


@pytest.mark.xfail(strict=True, reason="normal-equations path loses digits for "
                   "0.15 n <= |omega| < n; the workloads skip that band until it is fixed")
def test_normal_path_band_defect():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(3000):
        n = int(rng.integers(16, 257))
        omega = n * rng.uniform(*BAND)
        alpha = complex(0.5 + rng.random(), rng.uniform(-1.5, 1.5))
        value = oscint.integrate_on_interval(lambda x: np.exp(alpha * x), omega, -1.0, 1.0, n).value
        z = alpha + 1j * omega
        exact = 2.0 * np.sinh(z) / z
        worst = max(worst, abs(value - exact) / abs(exact))
    assert worst <= 1e-11


EXPECTED_DIRECT_SHARE = {"large_n_direct": 1.0, "large_n_normal": 0.0}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_round_runs_correct_untraced_and_traced(name):
    w = WORKLOADS[name]
    plain = worker.run_round(w.round(11, 1), 1.0)
    tracer = Tracer()
    traced = worker.run_round(w.round(11, 1), 1.0, tracer)
    requests = w.round(11, 1)
    for rec in (plain, traced):
        ok, digits = run.check(w, requests, rec)
        assert all(ok), rec["error"]
        assert digits > -np.log10(w.tol)
    assert plain["path"] == traced["path"]
    share = sum(p.startswith("direct") for p in traced["path"]) / len(requests)
    if name in EXPECTED_DIRECT_SHARE:
        assert share == EXPECTED_DIRECT_SHARE[name]
    else:
        assert 0.0 < share < 1.0
    assert tracer.absent == []
    assert not any(k.startswith("oracle.") for k in tracer.calls)
    assert tracer.calls["bench.harness"] == len(requests)
    assert tracer.points >= sum(r.n + 1 for r in requests)
    covered = sum(v for k, v in tracer.self_s.items() if k != "bench.harness")
    assert 0.9 < covered / tracer.traced_s <= 1.0


def test_tracer_restores_every_wrapped_name():
    before = (oscint.integrate_on_interval, oscint.levin.lu_solve,
              oscint.cli.substitute, oscint.expr.AmplitudeExpr.__call__)
    tracer = Tracer()
    tracer.install()
    assert oscint.levin.lu_solve is not before[1]
    tracer.uninstall()
    after = (oscint.integrate_on_interval, oscint.levin.lu_solve,
             oscint.cli.substitute, oscint.expr.AmplitudeExpr.__call__)
    assert after == before


def test_self_time_excludes_children():
    import time

    tracer = Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        wrapped_child()

    wrapped_child = tracer.span("child", child)
    tracer.request(tracer.span("parent", parent))
    assert tracer.self_s["child"] >= 0.02
    assert 0.01 <= tracer.self_s["parent"] < 0.02
    assert tracer.traced_s >= 0.03


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
