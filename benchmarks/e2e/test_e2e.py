"""Self-test of the end-to-end benchmark harness.

Run from the repository root: ``python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import repro  # noqa: E402
from gate import check, reference  # noqa: E402
from run import END_TO_END, PER_LAYER, percentile  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_p90_needs_100_samples():
    with pytest.raises(ValueError, match="need 10"):
        percentile([float(i) for i in range(99)], 0.9)
    # nearest rank: the 90th of 100 sorted samples, 10 beyond it
    assert percentile([float(i) for i in range(100)][::-1], 0.9) == 89.0


def test_self_times_sum_to_root_span():
    original = repro.svd
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        repro.svd(np.random.default_rng(0).standard_normal((12, 8)), block_size=2)
    finally:
        tracer.uninstall()
    assert repro.svd is original
    spans = tracer.summary({0})
    assert spans["blockjacobi.kernel"][1] > 0 and spans["eig"][1] > 0
    root = sum(e[4] for e in tracer.events if e[1] is None)
    total_self = sum(self_s for self_s, _ in spans.values())
    assert abs(total_self - root) <= 0.01 * root


def test_perturbed_sigma_is_flagged():
    a = np.random.default_rng(1).standard_normal((12, 8))
    ref = reference(a)
    out = repro.svd(a)
    assert check(a, ref, out) == []
    out.sigma[0] *= 1 + 1e-9
    assert [reason for _, reason, _ in check(a, ref, out)] == ["sigma_error"]


def test_missing_site_is_reported_not_raised():
    tracer = Tracer(sites=[
        ("a", "repro.no_such_module", "f", None),
        ("b", "repro.core.api", "no_such_function", None),
        ("c", "repro.machine.simulator", "NoSuchClass.run", None),
        ("d", "repro.core.api", "svd", None),
    ])
    assert tracer.missing_sites == [
        "repro.no_such_module:f",
        "repro.core.api:no_such_function",
        "repro.machine.simulator:NoSuchClass.run",
    ]


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=60)


def test_unusable_out_fails_before_timing(tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    t0 = time.perf_counter()
    proc = _run(["--workload", "solo-tall", "--out", str(not_a_dir)], ROOT)
    assert proc.returncode == 2 and proc.stdout == ""
    assert time.perf_counter() - t0 < 10


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "sim-cm5", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(table)
