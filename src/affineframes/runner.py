"""Scenario execution: dispatch analyses, write CSV tables and report.json.

Runs are deterministic for a fixed scenario text and build: all randomness
is seeded from the scenario and analyses execute in declaration order.
"""

from __future__ import annotations

import csv
import importlib.resources
import json
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import automorphisms as am
from . import calderon as cd
from . import config as cfg
from . import counting as ct
from . import frame_functional as ff
from . import metric_lattice as ml
from .errors import RejectedInputError

SIGMA_SLACK = 3.0              # Monte Carlo standard errors a counting bound may miss by
RELATIVE_GAP = 1e-3            # largest relative gap between a constant and its oracle
FUNCTIONAL_TOLERANCE = 1e-6    # slack of frame-functional values against the frame bounds
BOUND_TOLERANCE = 1e-9         # slack of the frame report's per-frequency bound verdicts
REMAINDER_TOLERANCE = 5e-6     # slack of the frame report's averaged remainder inequality
SCAN_DISTORTION_CAP = 4096.0   # members above it stay out of the frame report's counting scan
EXCLUSION_RADIUS = 1e-3        # Euclidean frame-report grids keep this far from the identity
WEIL_THRESHOLD = 1e-8          # largest unfolding residual that passes


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])


def _param_columns(param) -> list:
    if param is None:
        return []
    if isinstance(param, tuple):
        return list(param)
    return [param]


def _param_header(param) -> list[str]:
    """CSV headers of the `_param_columns` of one parameter."""
    return [f"param_{i}" for i in range(len(_param_columns(param)))]


# ---------------------------------------------------------------------------
# Analysis dispatchers
# ---------------------------------------------------------------------------

def _run_calderon_scan(analysis, ctx):
    if ctx["profile"].dim != 1:
        raise RejectedInputError("calderon_scan scans a one-dimensional frequency line")
    grid = cfg.scan_grid(analysis["segments"], analysis["points_per_segment"])
    values, tails, certified, truncation = cd.calderon_sum(ctx["profile"], ctx["family"], grid)
    result = {"n_points": int(grid.size), "min": float(values.min()),
              "max": float(values.max())}
    passed = True
    if analysis["lower"] is not None or analysis["upper"] is not None:
        lo = -np.inf if analysis["lower"] is None else float(analysis["lower"])
        hi = np.inf if analysis["upper"] is None else float(analysis["upper"])
        tol = float(analysis["tolerance"])
        ok = (values >= lo - tol) & (values <= hi + tol)
        result["n_failures"] = int(np.sum(~ok))
        passed = bool(np.all(ok))
    rows = [[x, v, t, int(c), truncation] for x, v, t, c in
            zip(grid.tolist(), values.tolist(), tails.tolist(), certified.tolist())]
    return result, passed, (["xi", "value", "tail_estimate", "certified_exact",
                             "truncation"], rows)


def _run_property_x(analysis, ctx):
    family = ctx["family"]
    r, M = float(analysis["r"]), float(analysis["M"])
    report = ct.property_x_scan(family, ctx["lattice"], r, M, float(analysis["distortion_cap"]))
    result = {"verdict": report.verdict, "constant": report.constant,
              "witness": report.witness, "witness_count": report.witness_count,
              "attempted_bound": report.attempted_bound,
              "r": r, "M": M, "note": report.note}
    passed = report.verdict == "holds"
    if passed and analysis["constant_cap"] is not None:
        passed = report.constant <= float(analysis["constant_cap"])
        result["constant_cap"] = float(analysis["constant_cap"])
    t, rows = family.members, report.rows.tolist()
    header = _param_header(family.params[rows[0]]) + ["upper_constant", "jacobian",
                                                      "count", "ratio"]
    table = [[*_param_columns(family.params[i]), u, j, n, q] for i, u, j, n, q in
             zip(rows, t.upper[rows].tolist(), t.jacobians[rows].tolist(),
                 report.counts.tolist(), report.ratios.tolist())]
    return result, passed, (header, table)


def _run_counting(analysis, ctx):
    family, lattice, metric = ctx["family"], ctx["lattice"], ctx["metric"]
    seed = int(ctx["scenario"]["seed"])
    params = analysis["params"]
    if params is None:
        autos = [(None, am.Automorphism(np.eye(metric.dim)))]  # on a Gabor group, the shift by 0
    else:
        keys = [tuple(p) if isinstance(p, list) else p for p in params]
        autos = [(key, family.member(key)) for key in keys]
    csv_rows, passed = [], True
    for key, auto in autos:
        for r in map(float, analysis["radii"]):
            bounds = ct.counting_bounds(lattice, auto, r, metric,
                                        n_samples=int(analysis["mc_samples"]), seed=seed)
            count_2r = ct.enumerate_points(lattice, auto, 2.0 * r, metric).count
            upper_ok = (bounds.count
                        <= bounds.upper_bound + SIGMA_SLACK * bounds.upper_bound_stderr)
            lower_ok = (count_2r
                        >= bounds.lower_bound_at_2r - SIGMA_SLACK * bounds.lower_bound_stderr)
            ok = bool(upper_ok and lower_ok)
            passed = passed and ok
            csv_rows.append([*_param_columns(key), r, bounds.count, bounds.upper_bound,
                             bounds.upper_bound_stderr, count_2r, bounds.lower_bound_at_2r,
                             bounds.lower_bound_stderr, int(ok)])
    header = _param_header(autos[0][0]) + [
        "r", "count", "upper_bound", "upper_stderr", "count_2r",
        "lower_bound_at_2r", "lower_stderr", "sandwich_ok"]
    return {"n_cases": len(csv_rows), "all_sandwich_ok": passed}, passed, (header, csv_rows)


def _run_lipschitz(analysis, ctx):
    family, use_oracle = ctx["family"], bool(analysis["oracle"])
    # every constant is a closed form; the column keeps the CSV layout
    t = family.members
    rows = [[*_param_columns(p), lo, hi, "closed_form"]
            for p, lo, hi in zip(family.params, t.lower.tolist(), t.upper.tolist())]
    header = _param_header(family.params[0]) + ["lower", "upper", "method"]
    passed = True
    if use_oracle:
        o_lo, o_hi = am.lipschitz_oracle(t.matrices, t.inverses, family.metric,
                                         n_directions=int(analysis["oracle_directions"]))
        ok = ((t.lower <= o_lo * (1 + 1e-12)) & (t.upper >= o_hi * (1 - 1e-12))  # sandwich
              & (o_lo - t.lower <= RELATIVE_GAP * t.lower)  # and tight
              & (t.upper - o_hi <= RELATIVE_GAP * t.upper))
        for row, *extra in zip(rows, o_lo.tolist(), o_hi.tolist(), ok.astype(int).tolist()):
            row.extend(extra)
        passed = bool(ok.all())
        header += ["oracle_lower", "oracle_upper", "consistent"]
    return {"n_params": len(rows), "oracle_checked": use_oracle}, passed, (header, rows)


def _run_classify(analysis, ctx):
    verdict = am.classify_expansiveness(ctx["family"], probe_m=analysis["probe_m"])
    result = {"verdict": verdict.verdict, "probe_m": verdict.probe_m,
              "witness": verdict.witness, "witness_constants": verdict.witness_constants,
              "note": verdict.note}
    if verdict.envelope is not None:
        result["envelope_points"] = list(zip(verdict.envelope.xs, verdict.envelope.ys))
    expect = analysis["expect"]
    passed = True if expect is None else verdict.verdict == expect
    if expect is not None:
        result["expect"] = expect
    return result, passed, None


def _run_u_c(analysis, ctx):
    envelope = cfg.build_envelope(analysis["envelope"])
    t_grid = np.geomspace(float(analysis["t_lo"]), float(analysis["t_hi"]),
                          int(analysis["t_points"]))
    profile = am.band_mass_profile(ctx["family"], envelope, float(analysis["c"]),
                                   t_grid, float(analysis["M"]),
                                   cap=float(analysis["cap"]))
    result = {"bounded": profile.bounded, "max_value": profile.max_value,
              "cap": profile.cap, "note": profile.note}
    passed = profile.bounded == bool(analysis["expect_bounded"])
    return result, passed, (["t", "band_mass"],
                            [[t, v] for t, v in zip(profile.t_grid, profile.values)])


def _run_frame_report(analysis, ctx):
    profile, family, lattice = ctx["profile"], ctx["family"], ctx["lattice"]
    gabor = family.metric.kind == ml.GABOR_PRODUCT
    grid = cfg.scan_grid(analysis["segments"], analysis["points_per_segment"])
    lower, upper, M = float(analysis["lower"]), float(analysis["upper"]), float(analysis["M"])
    epsilons = [float(e) for e in analysis["epsilons"]]
    if not gabor and np.any(np.abs(grid) < EXCLUSION_RADIUS):
        raise RejectedInputError(
            f"grid touches the exclusion radius {EXCLUSION_RADIUS} around the identity")
    values = cd.calderon_values(profile, family, grid[:, None])
    passes = (values >= lower - BOUND_TOLERANCE) & (values <= upper + BOUND_TOLERANCE)
    n_failures = int(np.sum(~passes))
    # enumeration stays desk-scale below the distortion cap; the scan
    # certifies that probed sub-truncation
    scan = ct.property_x_scan(family, lattice, float(analysis["scan_radius"]), M,
                              SCAN_DISTORTION_CAP)
    # the averaged remainder inequality at the grid's ends and middle, its
    # constant from the counting scan
    remainder = []
    if scan.verdict == "holds":
        probes, eps = grid[sorted({0, grid.shape[0] // 2, grid.shape[0] - 1})], epsilons[0]
        averages, tails = ff.ball_integrals(profile, family, probes, eps, M)
        for xi0, avg, tail in zip(probes.tolist(), averages.tolist(), tails.tolist()):
            rem = scan.constant * tail / (2.0 * eps)
            remainder.append({"xi0": xi0, "epsilon": eps, "ball_average": avg,
                              "remainder": rem, "constant": scan.constant,
                              "satisfied": lower <= avg + rem + REMAINDER_TOLERANCE})
    passed = (n_failures == 0 and scan.verdict == "holds"
              and all(r["satisfied"] for r in remainder))

    centers = analysis["test_centers"]
    if centers is None:
        pos = grid[grid > 0]
        base = float(pos[len(pos) // 2]) if pos.size else float(grid[0])
        centers = [[base, 1]] if gabor else [[base]]
    checks = [(center, eps) for center in centers for eps in epsilons]
    functional = ff.frame_functional(
        profile, family, lattice, [ff.make_test_function(c, e, family.metric) for c, e in checks])
    functional_rows = []
    for (center, eps), value in zip(checks, functional.tolist()):
        ok = lower - FUNCTIONAL_TOLERANCE <= value <= upper + FUNCTIONAL_TOLERANCE
        functional_rows.append({"center": center, "epsilon": eps,
                                "value": value, "ok": bool(ok)})
        passed = passed and ok

    probe_result = None
    if analysis["probe_band"] is not None:
        ensemble = ff.random_probe_ensemble(*map(float, analysis["probe_band"]),
                                            count=int(analysis["probe_count"]),
                                            seed=int(ctx["scenario"]["seed"]))
        # inner frame-bound estimates: the spread can only shrink the true interval
        probe = ff.frame_functional(profile, family, lattice, ensemble)
        a_hat, b_hat = float(np.min(probe)), float(np.max(probe))
        probe_ok = (a_hat >= lower - FUNCTIONAL_TOLERANCE
                    and b_hat <= upper + FUNCTIONAL_TOLERANCE)
        probe_result = {"lower_empirical": a_hat, "upper_empirical": b_hat, "ok": probe_ok,
                        "note": "inner estimates from a finite ensemble"}
        passed = passed and probe_ok

    result = {"n_failures": n_failures, "min": float(np.min(values)),
              "max": float(np.max(values)), "counting_verdict": scan.verdict,
              "counting_constant": scan.constant, "remainder": remainder,
              "functional_checks": functional_rows, "probe": probe_result,
              "note": "grid verdicts stand in for almost-everywhere claims"}
    rows = [[float(x), float(v), int(p)] for x, v, p in zip(grid, values, passes)]
    return result, passed, (["xi", "value", "pass"], rows)


def _run_weil_check(analysis, ctx):
    residual = ml.weil_residual(ctx["profile"], ctx["lattice"], level=int(analysis["level"]))
    return ({"residual": residual, "threshold": WEIL_THRESHOLD},
            residual <= WEIL_THRESHOLD, None)


def _run_local_integrability(analysis, ctx):
    box = analysis["box"]
    lo = [float(b[0]) for b in box]
    hi = [float(b[1]) for b in box]
    report = cd.local_integrability_check(ctx["profile"], ctx["family"], lo, hi,
                                          M=float(analysis["M"]),
                                          level=int(analysis["level"]))
    result = {"verdict": report.verdict, "value": report.value,
              "partial_sums": report.partial_sums,
              "truncation_sizes": report.truncation_sizes}
    return result, report.verdict == analysis["expect"], None


_DISPATCH = {
    "calderon_scan": _run_calderon_scan,
    "property_x": _run_property_x,
    "counting": _run_counting,
    "lipschitz": _run_lipschitz,
    "classify": _run_classify,
    "u_c": _run_u_c,
    "frame_report": _run_frame_report,
    "weil_check": _run_weil_check,
    "local_integrability": _run_local_integrability,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_scenario(scenario: dict, out_dir) -> tuple[int, dict]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = {
        "scenario": scenario,
        "metric": cfg.build_metric(scenario),
        "lattice": cfg.build_lattice(scenario),
        "family": cfg.build_family(scenario),
        "profile": cfg.build_profile(scenario),
    }
    analyses_out = []
    timings, cpu = {}, {}
    all_passed = True
    for index, analysis in enumerate(scenario["analyses"]):
        tag = f"{index:02d}"
        start, cpu_start = time.perf_counter(), time.process_time()
        result, passed, table = _DISPATCH[analysis["kind"]](analysis, ctx)
        if table is not None:
            result["csv"] = f"{tag}_{analysis['kind']}.csv"
            _write_csv(out_dir / result["csv"], *table)
        name = f"{tag}_{analysis['kind']}"
        timings[name] = time.perf_counter() - start
        cpu[name] = time.process_time() - cpu_start
        entry = {"kind": analysis["kind"], "passed": bool(passed)}
        entry.update(_jsonable(result))
        analyses_out.append(entry)
        all_passed = all_passed and passed

    report = {
        "schema_version": cfg.SCHEMA_VERSION,
        "scenario": _jsonable(scenario),
        "versions": {"affineframes": __version__, "numpy": np.__version__},
        "analyses": analyses_out,
        "all_passed": bool(all_passed),
        "timings_s": _jsonable(timings),
        "cpu_s": _jsonable(cpu),
    }
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return (0 if all_passed else 2), report


def bundled_scenario_names() -> list[str]:
    root = importlib.resources.files("affineframes") / "scenarios"
    return sorted(p.name.removesuffix(".json") for p in root.iterdir()
                  if p.name.endswith(".json"))


def load_bundled_scenario(name: str) -> dict:
    root = importlib.resources.files("affineframes") / "scenarios"
    path = root / f"{name}.json"
    if not path.is_file():
        raise RejectedInputError(f"no bundled scenario named {name!r}")
    return cfg.parse_scenario_text(path.read_text())


def resolve_scenario_argument(arg: str) -> dict:
    path = Path(arg)
    if path.is_file():
        return cfg.load_scenario(path)
    return load_bundled_scenario(arg)
