"""Benchmark of the affineframes toolkit, end to end and per module.

    python3 bench/run.py --workload orbit_scan --seed 20240823 --seconds 25 --trace 0

Each workload is a closed loop with one client: the items of one pass (see
workloads.py) go to ``runner.run_scenario(scenario, out_dir)`` back to back,
and whole passes repeat until ``--seconds`` have elapsed.  Every item is
checked: its exit code and per-analysis verdicts against the expected ones,
and the SHA-256 of every CSV it writes against reference.json (recorded at
the default seed; generated instances at other seeds are checked against
their own first pass instead).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs one
untraced pass, then traced passes with every public toolkit function wrapped
(tracer.py), and prints per-layer metrics per item plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results go to
``.bench_out/`` at the root of the checkout.

``--workload all`` runs every workload in this one process.
``--record-reference`` rewrites reference.json from one pass of every
workload at the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

sys.path.insert(0, str(BENCH_DIR))
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 7
END_TO_END = {  # name: unit; item_tail_s and failed_ratio are printed, not gated
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "cpu_s_per_item": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no toolkit source)."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def _use_source_tree() -> None:
    if not (SRC / "affineframes" / "__init__.py").is_file():
        raise BenchError(f"toolkit source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int, limit: int | None = None) -> list[wl.Item]:
    """Import the toolkit and parse or generate the workload's scenarios."""
    _use_source_tree()
    import affineframes

    if not Path(affineframes.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"affineframes imported from {affineframes.__file__}, not {SRC}")
    return wl.build_items(workload, seed, limit)


def probe_setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time in fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return times


def machine_record(seed: int) -> dict:
    record = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "blas_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
    try:
        import numpy as np
    except ImportError:
        return record
    record["numpy"] = np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        record["blas"] = None
    task_dir = Path("/proc/self/task")
    record["process_threads"] = len(list(task_dir.iterdir())) if task_dir.is_dir() else None
    return record


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10, check=False)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown (not a git checkout)"
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "affineframes").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# The closed loop and its checks
# ---------------------------------------------------------------------------

@dataclass
class ItemResult:
    key: str
    latency_s: float
    csv_bytes: int
    digests: dict
    problems: list = field(default_factory=list)
    passed: list | None = None  # per-analysis verdicts; None when the item raised


def csv_digests(out_dir: Path) -> tuple[dict, int]:
    digests, size = {}, 0
    for path in sorted(out_dir.glob("*.csv")):
        data = path.read_bytes()
        digests[path.name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


def run_item(item: wl.Item, work_dir: Path, runner) -> ItemResult:
    """One run_scenario call, timed; the output directory is removed after."""
    work_dir.mkdir(parents=True)
    start = time.perf_counter()
    try:
        code, report = runner.run_scenario(item.scenario, work_dir)
    except Exception:  # an item that raises is a failed item, the loop goes on
        latency = time.perf_counter() - start
        shutil.rmtree(work_dir, ignore_errors=True)
        return ItemResult(item.key, latency, 0, {},
                          [f"raised: {traceback.format_exc(limit=3).strip()}"])
    latency = time.perf_counter() - start
    digests, size = csv_digests(work_dir)
    shutil.rmtree(work_dir)
    result = ItemResult(item.key, latency, size, digests)
    result.passed = [bool(a["passed"]) for a in report["analyses"]]
    if code != item.expected_exit:
        result.problems.append(f"exit code {code}, expected {item.expected_exit}")
    return result


class Checker:
    """Compares each item's verdicts and CSV digests with the expected ones."""

    def __init__(self, workload: str, seed: int, reference: dict | None):
        self.seed = seed
        self.reference = (reference or {}).get("workloads", {}).get(workload, {})
        self.first_seen: dict[str, dict] = {}

    def check(self, item: wl.Item, result: ItemResult) -> None:
        if result.passed is None:
            return  # raised; already a problem
        against_reference = not item.generated or self.seed == wl.ACCEPT_SEED
        if against_reference:
            ref = self.reference.get(item.key)
            if ref is None:
                result.problems.append("no reference entry")
            else:
                if result.passed != ref["passed"]:
                    result.problems.append(f"verdicts {result.passed} != {ref['passed']}")
                if result.digests != ref["csv"]:
                    result.problems.append("csv digests differ from reference")
        elif not all(result.passed):
            result.problems.append(f"verdicts {result.passed}, expected all passed")
        seen = self.first_seen.setdefault(item.key, result.digests)
        if seen != result.digests:
            result.problems.append("csv digests differ from this run's earlier pass")


def run_passes(items: list[wl.Item], seconds: float, work_root: Path, checker: Checker,
               tracer: tr.Tracer | None = None, max_passes: int | None = None) -> dict:
    """Whole passes over `items` until `seconds` have elapsed (at least one)."""
    from affineframes import runner

    results: list[ItemResult] = []
    passes = 0
    cpu0 = time.process_time()
    start = time.perf_counter()
    while True:
        for item in items:
            if tracer is not None:
                tracer.item_id = len(results)
            result = run_item(item, work_root / f"{len(results):06d}", runner)
            checker.check(item, result)
            results.append(result)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or (max_passes is not None and passes >= max_passes):
            break
    return {"results": results, "passes": passes, "elapsed_s": elapsed,
            "cpu_s": time.process_time() - cpu0}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_latency(latencies: list[float]) -> tuple[float, float, int] | None:
    """Latency at the highest percentile with at least ten items beyond it.

    None when that percentile would not lie above the median (20 items or
    fewer): such a value is no tail.
    """
    n = len(latencies)
    if n <= 20:
        return None
    ordered = sorted(latencies)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def median_item_latency(results: list[ItemResult]) -> float:
    """Median over the items of a pass of each item's median over passes.

    Every pass holds the same items, so this is the plain median latency
    with each item's run-to-run jitter taken out first; it keeps the
    median from flipping between two items of very different cost.
    """
    by_key: dict[str, list[float]] = {}
    for r in results:
        by_key.setdefault(r.key, []).append(r.latency_s)
    return statistics.median(statistics.median(v) for v in by_key.values())


def end_to_end_metrics(loop: dict, setup_times: list[float]) -> tuple[dict, dict]:
    results = loop["results"]
    n = len(results)
    latencies = [r.latency_s for r in results]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": n / loop["elapsed_s"],
        "item_p50_s": median_item_latency(results),
        "cpu_s_per_item": loop["cpu_s"] / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = sum(1 for r in results if r.problems)
    extra = {"failed_ratio": failed / n, "items": n, "passes": loop["passes"],
             "elapsed_s": loop["elapsed_s"], "setup_samples_s": setup_times}
    tail = tail_latency(latencies)
    if tail is not None:
        extra["item_tail_s"] = {"value": tail[0], "percentile": tail[1], "items": tail[2]}
    return metrics, extra


def layer_metrics(tracer: tr.Tracer, results: list[ItemResult]) -> dict:
    n = len(results)
    totals = tracer.layer_totals()
    totals.update({k: float(v) for k, v in tracer.counts.items()})
    totals["runner.csv_bytes"] = float(sum(r.csv_bytes for r in results))
    out = {}
    for name, (unit, _better, _target) in tr.LAYER_METRICS.items():
        if unit == "ratio" or name.endswith("_per_call"):
            continue
        out[name] = totals.get(name, 0.0) / n
    out["calderon.points_per_call"] = _ratio(totals.get("calderon.points", 0.0),
                                             totals.get("calderon.entry_calls", 0.0))
    out["profiles.points_per_call"] = _ratio(totals.get("profiles.points", 0.0),
                                             totals.get("profiles.evaluate_calls", 0.0))
    out["counting.inside_ratio"] = _ratio(totals.get("counting.counted", 0.0),
                                          totals.get("counting.candidates", 0.0))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def load_reference() -> dict | None:
    if not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 limit: int | None = None) -> dict:
    """Set up and run one workload; returns the full result record."""
    t0 = time.perf_counter()
    items = setup(workload, seed, limit)
    own_setup = time.perf_counter() - t0
    checker = Checker(workload, seed, load_reference())
    work_root = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_record(seed), "own_setup_s": own_setup}
    try:
        if not trace:
            setup_times = probe_setup_seconds(workload, seed)
            loop = run_passes(items, seconds, work_root / "run", checker)
            metrics, extra = end_to_end_metrics(loop, setup_times)
            units = END_TO_END
            all_results = loop["results"]
        else:
            plain = run_passes(items, 0.0, work_root / "plain", checker, max_passes=1)
            tracer = tr.Tracer()
            tracer.install()
            try:
                loop = run_passes(items, seconds, work_root / "traced", checker, tracer)
            finally:
                tracer.remove()
            metrics = layer_metrics(tracer, loop["results"])
            per_pass = loop["elapsed_s"] / loop["passes"]
            metrics["trace.overhead_ratio"] = per_pass / plain["elapsed_s"] - 1.0
            units = {k: v[0] for k, v in tr.LAYER_METRICS.items()}
            extra = {"items": len(loop["results"]), "passes": loop["passes"],
                     "untraced_pass_s": plain["elapsed_s"], "traced_pass_s": per_pass}
            all_results = plain["results"] + loop["results"]
            record["spans_file"] = _write_spans(tracer, workload, seed)
            record["digests"] = [r.digests for r in loop["results"]]
            record["untraced_digests"] = [r.digests for r in plain["results"]]
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    failed = [r for r in all_results if r.problems]
    record.update({
        "correct": not failed, "attempted": len(all_results), "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "extra": extra,
        "failures": [{"key": r.key, "problems": r.problems} for r in failed],
        "latencies": [[r.key, r.latency_s] for r in loop["results"]],
    })
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return record


def _write_spans(tracer: tr.Tracer, workload: str, seed: int) -> str:
    import numpy as np

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
    np.savez_compressed(path, **tracer.span_arrays())
    return path.name


def print_record(record: dict) -> None:
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  items {record['extra']['items']}  "
          f"passes {record['extra']['passes']}")
    for name, m in record["metrics"].items():
        note = ""
        if record["trace"]:
            note = f"  [{tr.LAYER_METRICS[name][2]}]"
        print(f"  {name:36s} {m['value']:16.6g} {m['unit']}{note}")
    extra = record["extra"]
    if not record["trace"]:
        print(f"  {'failed_ratio':36s} {extra['failed_ratio']:16.6g} ratio")
        tail = extra.get("item_tail_s")
        if tail is None:
            print(f"  {'item_tail_s':36s} {'omitted':>16s} s  "
                  f"(20 items or fewer)")
        else:
            print(f"  {'item_tail_s':36s} {tail['value']:16.6g} s  "
                  f"(p{tail['percentile']:.1f} of {tail['items']} items)")
    else:
        print(f"  trace overhead: traced pass {extra['traced_pass_s']:.3f} s vs untraced "
              f"pass {extra['untraced_pass_s']:.3f} s "
              f"({100 * record['metrics']['trace.overhead_ratio']['value']:+.1f}%)")
    for failure in record["failures"]:
        print(f"  FAILED {failure['key']}: {'; '.join(failure['problems'])}")


def result_line(record: dict) -> str:
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": record["metrics"]})


def record_reference() -> None:
    reference = {"seed": wl.ACCEPT_SEED, "workloads": {}}
    _use_source_tree()
    from affineframes import runner

    work_root = OUT_DIR / f"record-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        for workload in wl.WORKLOADS:
            entries = {}
            for n, item in enumerate(setup(workload, wl.ACCEPT_SEED)):
                result = run_item(item, work_root / f"{workload}-{n:04d}", runner)
                if result.problems:
                    raise BenchError(f"{workload}/{item.key}: {result.problems}")
                entries[item.key] = {"exit": item.expected_exit, "passed": result.passed,
                                     "csv": result.digests}
            reference["workloads"][workload] = dict(sorted(entries.items()))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH.name}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*wl.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=wl.ACCEPT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=None,
                        help="keep only the first N items of a pass (smoke tests)")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json at the default seed and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            t0 = time.perf_counter()
            setup(args.workload, args.seed)
            print(json.dumps({"setup_s": time.perf_counter() - t0}))
            return 0
        if args.record_reference:
            record_reference()
            return 0
        names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
        _use_source_tree()
        for workload in names:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                  limit=args.items)
            print_record(record)
            print(result_line(record), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
