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
    evals = cd.calderon_sum(ctx["profile"], ctx["family"], grid)
    values = np.array([ev.value for ev in evals])
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
    rows = [[float(x), ev.value, ev.tail_estimate, int(ev.certified_exact),
             _truncation_label(ev.truncation)] for x, ev in zip(grid, evals)]
    return result, passed, (["xi", "value", "tail_estimate", "certified_exact",
                             "truncation"], rows)


def _truncation_label(truncation: dict) -> str:
    kind = truncation.get("kind", "")
    if kind == "integer_range":
        return f"integer_range[{truncation['j_min']},{truncation['j_max']}]"
    if kind == "continuous":
        lo, hi = truncation["domain"]
        return f"domain[{lo:g},{hi:g}]"
    if "terms" in truncation:
        return f"{kind}[{truncation['terms']}]"
    return kind


def _run_property_x(analysis, ctx):
    family = ctx["family"]
    cap = float(analysis["distortion_cap"])
    scan_family = family.restrict(lambda _p, _lo, hi: hi <= cap)
    report = ct.property_x_scan(scan_family, ctx["lattice"], family.metric,
                                float(analysis["r"]), float(analysis["M"]))
    result = {"verdict": report.verdict, "constant": report.constant,
              "witness": report.witness, "witness_count": report.witness_count,
              "attempted_bound": report.attempted_bound,
              "r": report.r, "M": report.M, "note": report.note}
    passed = report.verdict == "holds"
    if passed and analysis["constant_cap"] is not None:
        passed = report.constant <= float(analysis["constant_cap"])
        result["constant_cap"] = float(analysis["constant_cap"])
    header = _param_header(report.rows[0].param) + ["upper_constant", "jacobian",
                                                    "count", "ratio"]
    rows = [[*_param_columns(row.param), row.upper_constant, row.jacobian, row.count,
             row.ratio] for row in report.rows]
    return result, passed, (header, rows)


def _run_counting(analysis, ctx):
    family, lattice, metric = ctx["family"], ctx["lattice"], ctx["metric"]
    seed = int(ctx["scenario"]["seed"])
    params = analysis["params"]
    if params is None:
        autos = [(None, _identity_auto(metric))]
    else:
        keys = [tuple(p) if isinstance(p, list) else p for p in params]
        autos = [(key, family.member(key).auto) for key in keys]
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


def _identity_auto(metric: ml.MetricSpace) -> am.Automorphism:
    if metric.kind == ml.GABOR_PRODUCT:
        return am.gabor_shift(0.0)
    return am.matrix_automorphism(np.eye(metric.dim))


def _run_lipschitz(analysis, ctx):
    family, use_oracle = ctx["family"], bool(analysis["oracle"])
    # every constant is a closed form; the column keeps the CSV layout
    rows = [[*_param_columns(m.param), m.lower, m.upper, "closed_form"] for m in family.members]
    header = _param_header(family.members[0].param) + ["lower", "upper", "method"]
    passed = True
    if use_oracle:
        oracle = am.lipschitz_oracle([m.auto for m in family.members], family.metric,
                                     n_directions=int(analysis["oracle_directions"]))
        for row, m, (o_lo, o_hi) in zip(rows, family.members, oracle):
            sandwich = m.lower <= o_lo * (1 + 1e-12) and m.upper >= o_hi * (1 - 1e-12)
            tight = (o_lo - m.lower <= RELATIVE_GAP * m.lower
                     and m.upper - o_hi <= RELATIVE_GAP * m.upper)
            ok = bool(sandwich and tight)
            row.extend([o_lo, o_hi, int(ok)])
            passed = passed and ok
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
    scenario = ctx["scenario"]
    profile, family, lattice = ctx["profile"], ctx["family"], ctx["lattice"]
    gabor = family.metric.kind == ml.GABOR_PRODUCT
    grid = cfg.scan_grid(analysis["segments"], analysis["points_per_segment"])
    lower, upper = float(analysis["lower"]), float(analysis["upper"])
    epsilons = [float(e) for e in analysis["epsilons"]]
    report = ff.calderon_inequality_report(
        profile, family, lattice, grid, lower, upper, M=float(analysis["M"]),
        epsilon=epsilons[0], scan_radius=float(analysis["scan_radius"]))
    passed = report.n_failures == 0
    if report.counting_verdict is not None:
        passed = passed and report.counting_verdict == "holds"
    passed = passed and all(r.satisfied for r in report.remainder)

    centers = analysis["test_centers"]
    if centers is None:
        pos = grid[grid > 0]
        base = float(pos[len(pos) // 2]) if pos.size else float(grid[0])
        centers = [[base, 1]] if gabor else [[base]]
    functional_rows = []
    for center in centers:
        for eps in epsilons:
            tf = ff.make_test_function(center, eps, family.metric)
            value = ff.frame_functional(profile, family, lattice, tf)
            ok = lower - FUNCTIONAL_TOLERANCE <= value <= upper + FUNCTIONAL_TOLERANCE
            functional_rows.append({"center": center, "epsilon": eps,
                                    "value": value, "ok": bool(ok)})
            passed = passed and ok

    probe_result = None
    if analysis["probe_band"] is not None:
        band_lo, band_hi = (float(b) for b in analysis["probe_band"])
        ensemble = ff.random_probe_ensemble(band_lo, band_hi,
                                            count=int(analysis["probe_count"]),
                                            seed=int(scenario["seed"]))
        a_hat, b_hat = ff.frame_bound_probe(profile, family, lattice, ensemble)
        probe_ok = (a_hat >= lower - FUNCTIONAL_TOLERANCE
                    and b_hat <= upper + FUNCTIONAL_TOLERANCE)
        probe_result = {"lower_empirical": a_hat, "upper_empirical": b_hat,
                        "ok": bool(probe_ok),
                        "note": "inner estimates from a finite ensemble"}
        passed = passed and probe_ok

    result = {"n_failures": report.n_failures, "min": report.min_value,
              "max": report.max_value, "counting_verdict": report.counting_verdict,
              "counting_constant": report.counting_constant,
              "remainder": [vars(r) for r in report.remainder],
              "functional_checks": functional_rows, "probe": probe_result,
              "note": report.note}
    rows = [[float(x), float(v), int(p)] for x, v, p in
            zip(report.xi_grid, report.values, report.passes)]
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
    timings = {}
    all_passed = True
    for index, analysis in enumerate(scenario["analyses"]):
        tag = f"{index:02d}"
        start = time.perf_counter()
        result, passed, table = _DISPATCH[analysis["kind"]](analysis, ctx)
        if table is not None:
            result["csv"] = f"{tag}_{analysis['kind']}.csv"
            _write_csv(out_dir / result["csv"], *table)
        timings[f"{tag}_{analysis['kind']}"] = time.perf_counter() - start
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
