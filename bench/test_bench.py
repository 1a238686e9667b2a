"""The benchmark's own tests; every workload runs at its smallest size (one item).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tr
import workloads as wl

SEED = wl.ACCEPT_SEED


@pytest.fixture(scope="module")
def runs():
    """stdout and result record of one smallest-size run per workload and mode."""
    out = {}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                                 "--trace", str(trace), "--items", "1"])
            assert code == 0
            path = run.OUT_DIR / f"result-{workload}-seed{SEED}-trace{trace}.json"
            out[workload, trace] = (buf.getvalue(), json.loads(path.read_text()))
    return out


def _benchmark_spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_printed_with_unit(runs, workload, trace):
    stdout, _record = runs[workload, trace]
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    table = "\n".join(lines[:-1])
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in table.splitlines()), m["name"]
    if not trace:
        assert "failed_ratio" in table and "item_tail_s" in table
    else:
        assert "trace overhead" in table
    assert '"git_commit"' in lines[0] and '"nproc"' in lines[0]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_leaves_csv_digests_identical(runs, workload):
    _stdout, record = runs[workload, 1]
    assert record["digests"] == record["untraced_digests"]
    _stdout, plain = runs[workload, 0]
    assert plain["failures"] == [] and record["failures"] == []
    reference = run.load_reference()["workloads"][workload]
    first = wl.build_items(workload, SEED, limit=1)[0]
    assert record["digests"][0] == reference[first.key]["csv"]


def test_wrappers_removed_after_traced_runs(runs):
    assert tr.installed_wrappers() == []
    from affineframes import automorphisms, calderon, counting, frame_functional, metric_lattice

    assert frame_functional.calderon_sum is calderon.calderon_sum
    assert counting.overlap_measure is metric_lattice.overlap_measure
    assert calderon.lipschitz_constants is automorphisms.lipschitz_constants
    assert not hasattr(automorphisms.Automorphism.__post_init__, "__wrapped_by_bench__")


def test_tracer_counts_one_orbit_item(runs):
    _stdout, record = runs[wl.ORBIT_SCAN, 1]
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert metrics["automorphisms.constructed"] > 0
    assert metrics["calderon.points"] > 0 and metrics["quadrature.nodes"] > 0
    assert metrics["metric_lattice.overlap_calls"] == 0


def test_tracer_removes_wrappers_when_a_call_raises():
    from affineframes import metric_lattice
    from affineframes.errors import RejectedInputError

    t = tr.Tracer()
    t.install()
    try:
        with pytest.raises(RejectedInputError):
            metric_lattice.overlap_measure(metric_lattice.integer_lattice(1),
                                           metric_lattice.euclidean_l2(1), r=-1.0)
    finally:
        t.remove()
    assert tr.installed_wrappers() == []
    assert t.end[0] >= t.start[0] and not t._stack


def test_benchmark_json_names_match_the_code():
    spec = _benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(tr.LAYER_METRICS)
    assert spec["paths"] == ["bench"]


def test_tail_latency_needs_ten_items_beyond():
    assert run.tail_latency([1.0] * 20) is None
    value, percentile, n = run.tail_latency([float(i) for i in range(40)])
    assert (value, n) == (29.0, 40) and percentile == 75.0


def test_same_seed_same_items_and_new_seed_new_monte_carlo_streams():
    a = wl.sandwich_scenarios(SEED, count=5)
    assert a == wl.sandwich_scenarios(SEED, count=5)
    b = wl.sandwich_scenarios(SEED + 1, count=5)
    assert [s["seed"] for s in a] != [s["seed"] for s in b]
    assert [s["lattice"] for s in a] == [s["lattice"] for s in b]


def test_exits_nonzero_without_the_toolkit_source(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", wl.SCENARIO_MIX,
                           "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (Path(tmp_path) / ".bench_out").exists()
