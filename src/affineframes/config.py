"""Scenario configuration: a flat JSON schema with versioning and defaults.

A scenario declares the group, metric, lattice, automorphism family and
frequency profile, plus a list of analysis requests.  Profiles are box/value
lists or external sampled-grid CSV files; weights and envelopes are named
kinds, never inline expressions.  parse -> serialize -> parse is the
identity on the resolved dictionary.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import automorphisms as am
from . import metric_lattice as ml
from .profiles import PiecewiseConstantProfile, SampledGridProfile

SCHEMA_VERSION = 1
DEFAULT_SEED = 20240823

ANALYSIS_KINDS = ("calderon_scan", "property_x", "counting", "lipschitz",
                  "classify", "u_c", "frame_report", "weil_check",
                  "local_integrability")


class ScenarioParseError(ValueError):
    """Scenario text failed to parse or validate."""


def parse_scenario_text(text: str, base_dir: Path | None = None) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"scenario parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return resolve_defaults(raw, base_dir=base_dir)


def load_scenario(path) -> dict:
    path = Path(path)
    return parse_scenario_text(path.read_text(), base_dir=path.parent)


def serialize_scenario(scenario: dict) -> str:
    return json.dumps(scenario, indent=2, sort_keys=True) + "\n"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioParseError(message)


def resolve_defaults(raw: dict, base_dir: Path | None = None) -> dict:
    """Validate a parsed scenario and fill every optional knob."""
    _require(isinstance(raw, dict), "scenario must be a JSON object")
    version = raw.get("schema_version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION, f"unsupported schema_version {version}")
    for key in ("group", "family", "profile"):
        _require(key in raw, f"scenario is missing required section {key!r}")

    out = dict(raw)
    out["schema_version"] = SCHEMA_VERSION
    out.setdefault("name", "unnamed")
    out.setdefault("description", "")
    out.setdefault("seed", DEFAULT_SEED)

    group = dict(out["group"])
    _require(group.get("kind") in ("euclidean", "gabor"), "group.kind must be euclidean or gabor")
    if group["kind"] == "euclidean":
        group.setdefault("dim", 1)
        _require(int(group["dim"]) >= 1, "group.dim must be positive")
    else:
        group["dim"] = 1  # base line dimension
    out["group"] = group

    metric = dict(out.get("metric", {}))
    if group["kind"] == "gabor":
        metric.setdefault("kind", "gabor_product")
        _require(metric["kind"] == "gabor_product", "gabor scenarios use the product metric")
    else:
        metric.setdefault("kind", "euclidean_l2")
        _require(metric["kind"] in ("euclidean_l2", "euclidean_linf"),
                 "metric.kind must be euclidean_l2 or euclidean_linf")
    out["metric"] = metric

    lattice = dict(out.get("lattice", {}))
    lattice.setdefault("basis", np.eye(int(group["dim"])).tolist())
    out["lattice"] = lattice

    out["family"] = _resolve_family(dict(out["family"]))
    out["profile"] = _resolve_profile(dict(out["profile"]), base_dir)

    analyses = out.get("analyses")
    if analyses is None:
        analyses = [{"kind": "calderon_scan"}]
    _require(isinstance(analyses, list) and analyses, "analyses must be a nonempty list")
    out["analyses"] = [_resolve_analysis(dict(a), out) for a in analyses]
    return out


# numeric fields per family kind: (integer scalars, real scalars, real arrays)
_FAMILY_NUMBERS = {
    "matrix_power": (("j_min", "j_max"), (), ("base",)),
    "shearlet_grid": ((), (), ("a_values", "s_values")),
    "gabor_shifts": ((), ("p_min", "p_max", "p_step"), ("p_values",)),
    "matrix_atoms": ((), (), ("matrices",)),
    "continuous_dilation": (("cells",), ("lo", "hi"), ()),
}
_WEIGHT_NUMBERS = {"constant": (), "power": ("exponent",), "geometric": ("base",)}


def _require_numbers(section: dict, where: str, integers=(), reals=(), arrays=()) -> None:
    for key in (k for k in (*integers, *reals) if k in section):
        v = section[key]
        ok = isinstance(v, (int, float)) and not isinstance(v, bool)
        _require(ok and (key not in integers or float(v).is_integer()),
                 f"{where}.{key} must be {'an integer' if key in integers else 'a number'}")
    for key in (k for k in arrays if k in section):
        try:
            np.asarray(section[key], dtype=float)
        except (TypeError, ValueError):
            raise ScenarioParseError(f"{where}.{key} must be an array of numbers") from None


def _resolve_family(fam: dict) -> dict:
    kind = fam.get("kind")
    _require(kind in _FAMILY_NUMBERS, f"unknown family kind {kind!r}")
    fam.setdefault("weight", {"kind": "constant", "value": 1.0})
    w = fam["weight"]
    _require(isinstance(w, dict) and w.get("kind") in _WEIGHT_NUMBERS,
             f"unknown weight {w!r}")
    for key in _WEIGHT_NUMBERS[w["kind"]]:
        _require(key in w, f"{w['kind']} weight needs {key!r}")
    _require_numbers(w, "family.weight", reals=("value", *_WEIGHT_NUMBERS[w["kind"]]))
    _require_numbers(fam, "family", *_FAMILY_NUMBERS[kind])
    if kind == "matrix_power":
        for key in ("base", "j_min", "j_max"):
            _require(key in fam, f"matrix_power family needs {key!r}")
    elif kind == "shearlet_grid":
        for key in ("a_values", "s_values"):
            _require(key in fam, f"shearlet_grid family needs {key!r}")
    elif kind == "gabor_shifts":
        _require("p_values" in fam or ("p_min" in fam and "p_max" in fam),
                 "gabor_shifts family needs p_values or p_min/p_max")
        fam.setdefault("p_step", 1.0)
    elif kind == "matrix_atoms":
        _require("matrices" in fam, "matrix_atoms family needs matrices (row-major)")
    elif kind == "continuous_dilation":
        for key in ("lo", "hi"):
            _require(key in fam, f"continuous_dilation family needs {key!r}")
        fam.setdefault("cells", 64)
    return fam


def _resolve_profile(prof: dict, base_dir: Path | None) -> dict:
    kind = prof.get("kind")
    _require(kind in ("piecewise_constant", "sampled_grid", "sampled_grid_csv"),
             f"unknown profile kind {kind!r}")
    if kind == "piecewise_constant":
        _require(isinstance(prof.get("pieces"), list) and prof["pieces"],
                 "piecewise_constant profile needs a nonempty pieces list")
    elif kind == "sampled_grid":
        for key in ("lo", "hi", "samples"):
            _require(key in prof, f"sampled_grid profile needs {key!r}")
    else:
        _require("path" in prof, "sampled_grid_csv profile needs a path")
        path = Path(prof["path"])
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        _require(path.exists(), f"sampled-grid file not found: {path}")
        coords, values = [], []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].startswith("#"):
                    continue
                coords.append(float(row[0]))
                values.append(float(row[1]))
        _require(len(coords) >= 2, "sampled-grid file needs at least two rows")
        prof = {"kind": "sampled_grid", "lo": coords[0], "hi": coords[-1],
                "samples": values}
    return prof


_ANALYSIS_DEFAULTS = {
    "calderon_scan": {"segments": [[-2.0, -0.05], [0.05, 2.0]], "points_per_segment": 100,
                      "lower": None, "upper": None, "tolerance": 1e-9},
    "property_x": {"r": 0.4, "M": 1.0, "explosion": 10.0, "distortion_cap": 4096.0,
                   "constant_cap": None},
    "counting": {"radii": [0.25], "params": None, "mc_samples": 100000,
                 "sigma_slack": 3.0},
    "lipschitz": {"oracle": False, "oracle_directions": 20000, "relative_gap": 1e-3},
    "classify": {"probe_m": None, "explosion": 10.0, "expect": None},
    "u_c": {"c": 2.0, "t_lo": 1.0, "t_hi": 32.0, "t_points": 9, "M": 1.0,
            "envelope": {"kind": "identity"}, "cap": 1e6, "expect_bounded": True},
    "frame_report": {"lower": 1.0, "upper": 1.0, "M": 4.0, "epsilons": [0.01],
                     "test_centers": None, "functional_tolerance": 1e-6,
                     "segments": [[-2.0, -0.05], [0.05, 2.0]], "points_per_segment": 100,
                     "tolerance": 1e-9, "scan_radius": 0.4, "probe_band": None,
                     "probe_count": 50, "exclusion_radius": 1e-3,
                     "distortion_cap": 4096.0},
    "weil_check": {"level": 5, "threshold": 1e-8, "method": "exact"},
    "local_integrability": {"box": [[0.25, 2.0]], "M": 2.0, "level": 3,
                            "expect": "finite"},
}


def _resolve_analysis(analysis: dict, scenario: dict) -> dict:
    kind = analysis.get("kind")
    _require(kind in ANALYSIS_KINDS, f"unknown analysis kind {kind!r}")
    unknown = sorted(set(analysis) - set(_ANALYSIS_DEFAULTS[kind]) - {"kind"})
    _require(not unknown, f"unknown {kind} knob(s) {unknown}")
    merged = dict(_ANALYSIS_DEFAULTS[kind])
    merged.update(analysis)
    merged["kind"] = kind
    return merged


# ---------------------------------------------------------------------------
# Overrides
# ---------------------------------------------------------------------------

def apply_overrides(scenario: dict, overrides: list[str]) -> dict:
    """Apply key=value overrides with dotted paths (list indices allowed)."""
    out = json.loads(json.dumps(scenario))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ScenarioParseError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = out
        parts = key.split(".")
        for i, part in enumerate(parts):
            last = i == len(parts) - 1
            if isinstance(node, list):
                try:
                    idx = int(part)
                except ValueError as exc:
                    raise ScenarioParseError(f"list index expected in override {key!r}") from exc
                if not -len(node) <= idx < len(node):
                    raise ScenarioParseError(
                        f"index {idx} out of range in override {key!r} (length {len(node)})")
                if last:
                    node[idx] = parsed
                else:
                    node = node[idx]
            elif not isinstance(node, dict):
                raise ScenarioParseError(f"override {key!r} descends into a scalar")
            else:
                if last:
                    node[part] = parsed
                else:
                    if part not in node:
                        node[part] = {}
                    node = node[part]
    return resolve_defaults(out)


# ---------------------------------------------------------------------------
# Builders: scenario sections to toolkit objects
# ---------------------------------------------------------------------------

def build_metric(scenario: dict) -> ml.MetricSpace:
    kind = scenario["metric"]["kind"]
    if kind == "gabor_product":
        return ml.gabor_product()
    dim = int(scenario["group"]["dim"])
    return ml.MetricSpace(kind, dim)


def build_lattice(scenario: dict) -> ml.Lattice:
    return ml.Lattice(np.asarray(scenario["lattice"]["basis"], dtype=float))


def build_weight(spec: dict):
    kind = spec["kind"]
    if kind == "constant":
        value = float(spec.get("value", 1.0))
        return lambda *_p: value
    if kind == "power":
        expo = float(spec["exponent"])
        return lambda a, *_rest: float(a) ** expo
    base = float(spec["base"])  # geometric
    return lambda j, *_rest: base ** float(j)


def build_family(scenario: dict) -> am.AutomorphismFamily:
    fam = scenario["family"]
    metric = build_metric(scenario)
    weight = build_weight(fam["weight"])
    kind = fam["kind"]
    name = scenario.get("name", "")
    if kind == "matrix_power":
        return am.matrix_power_family(np.asarray(fam["base"], dtype=float),
                                      int(fam["j_min"]), int(fam["j_max"]),
                                      metric, weight, name)
    if kind == "shearlet_grid":
        return am.shearlet_grid_family([float(a) for a in fam["a_values"]],
                                       [float(s) for s in fam["s_values"]],
                                       metric, weight, name)
    if kind == "gabor_shifts":
        if "p_values" in fam:
            ps = [float(p) for p in fam["p_values"]]
        else:
            ps = np.arange(float(fam["p_min"]), float(fam["p_max"]) + 1e-12,
                           float(fam["p_step"])).tolist()
        return am.gabor_shift_family(ps, weight, name)
    if kind == "matrix_atoms":
        mats = [np.asarray(m, dtype=float) for m in fam["matrices"]]
        grid = am.ParameterList(tuple(range(len(mats))))
        return am.AutomorphismFamily(grid, lambda i: am.matrix_automorphism(mats[int(i)]),
                                     weight, metric, name)
    return am.continuous_dilation_family(float(fam["lo"]), float(fam["hi"]),
                                         int(fam["cells"]), metric, weight, name)


def build_profile(scenario: dict):
    prof = scenario["profile"]
    if prof["kind"] == "piecewise_constant":
        lo, hi, values = [], [], []
        for piece in prof["pieces"]:
            box = piece["box"]
            lo.append([float(b[0]) for b in box])
            hi.append([float(b[1]) for b in box])
            values.append(float(piece["value"]))
        return PiecewiseConstantProfile(np.array(lo), np.array(hi), np.array(values))
    return SampledGridProfile(float(prof["lo"]), float(prof["hi"]),
                              np.asarray(prof["samples"], dtype=float))


def build_envelope(spec: dict):
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return lambda x: x
    if kind == "power":
        expo = float(spec["exponent"])
        return lambda x: float(x) ** expo
    if kind == "constant":
        value = float(spec["value"])
        return lambda _x: value
    raise ScenarioParseError(f"unknown envelope kind {kind!r}")


def scan_grid(segments, points_per_segment: int) -> np.ndarray:
    parts = [np.linspace(float(a), float(b), int(points_per_segment))
             for a, b in segments]
    return np.concatenate(parts)
