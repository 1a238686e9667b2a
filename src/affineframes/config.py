"""Scenario configuration: one schema table validates and fills every section.

A scenario declares the group, metric, lattice, automorphism family and
frequency profile, plus a list of analysis requests.  Profiles are box/value
lists or external sampled-grid CSV files; weights and envelopes are named
kinds, never inline expressions.  parse -> serialize -> parse is the
identity on the resolved dictionary.
"""

from __future__ import annotations

import copy
import csv
import json
import operator
from pathlib import Path

import numpy as np

from . import automorphisms as am
from . import metric_lattice as ml
from .errors import RejectedInputError
from .profiles import PiecewiseConstantProfile, SampledGridProfile

SCHEMA_VERSION = 1
DEFAULT_SEED = 20240823
MAX_FAMILY_SIZE = 100_000  # members of a j or p range; the largest bundled family has 121


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


# ---------------------------------------------------------------------------
# Schema table
# ---------------------------------------------------------------------------
# Each section maps key -> (type, default, *bounds).  A type is "int", "real",
# "str", "bool"; a nonempty array of numbers shaped as a 1-d "vector", an
# "array" of any shape, "pairs" (k x 2), one "pair" or a square "matrix"; a
# tuple of allowed values; a dict for a nested section; Kinds for a nested
# section whose "kind" picks its keys; or [spec] for a nonempty list of items.
# A trailing "?" admits null; for any other key null stands for the default.
# A bound such as "> 0" or "<= 64" holds for every number of the value.

REQUIRED, OPTIONAL = object(), object()  # no default / absent unless given


class Kinds(dict):
    """Tables of a nested section, keyed by the value of its "kind"."""


_WEIGHT = (Kinds(constant={"value": ("real", OPTIONAL)}, power={"exponent": ("real", REQUIRED)},
                 geometric={"base": ("real", REQUIRED)}), {"kind": "constant", "value": 1.0})
_SEGMENTS = ("pairs", [[-2.0, -0.05], [0.05, 2.0]])

SCHEMA = {
    "schema_version": ((SCHEMA_VERSION,), SCHEMA_VERSION),
    "name": ("str", "unnamed"),
    "description": ("str", ""),
    "seed": ("int", DEFAULT_SEED, ">= 0"),
    "group": (Kinds(euclidean={"dim": ("int", 1, "> 0")}, gabor={"dim": ((1,), 1)}), REQUIRED),
    "metric": ({"kind": (("euclidean_l2", "euclidean_linf", "gabor_product"), OPTIONAL)}, {}),
    "lattice": ({"basis": ("matrix", OPTIONAL)}, {}),
    "family": (Kinds(
        matrix_power={"base": ("matrix", REQUIRED), "j_min": ("int", REQUIRED, ">= -1e6"),
                      "j_max": ("int", REQUIRED, "<= 1e6"), "weight": _WEIGHT},
        shearlet_grid={"a_values": ("vector", REQUIRED), "s_values": ("vector", REQUIRED),
                       "weight": _WEIGHT},
        gabor_shifts={"p_values": ("vector", OPTIONAL), "p_min": ("real", OPTIONAL),
                      "p_max": ("real", OPTIONAL), "p_step": ("real", 1.0, "> 0"),
                      "weight": _WEIGHT},
        matrix_atoms={"matrices": ("array", REQUIRED), "weight": _WEIGHT},
        continuous_dilation={"lo": ("real", REQUIRED), "hi": ("real", REQUIRED),
                             "cells": ("int", 64, "> 0", "<= 1e5"), "weight": _WEIGHT}), REQUIRED),
    "profile": (Kinds(
        piecewise_constant={"pieces": ([{"box": ("pairs", REQUIRED),
                                         "value": ("real", REQUIRED)}], REQUIRED)},
        sampled_grid={"lo": ("real", REQUIRED), "hi": ("real", REQUIRED),
                      "samples": ("vector", REQUIRED)},
        sampled_grid_csv={"path": ("str", REQUIRED)}), REQUIRED),
    "analyses": ([Kinds(
        # size knobs are capped at 100x or more of every bundled and benchmark value
        calderon_scan={"segments": _SEGMENTS,
                       "points_per_segment": ("int", 100, "> 0", "<= 1e6"),
                       "lower": ("real?", None), "upper": ("real?", None),
                       "tolerance": ("real", 1e-9)},
        property_x={"r": ("real", 0.4), "M": ("real", 1.0),
                    "distortion_cap": ("real", 4096.0), "constant_cap": ("real?", None)},
        counting={"radii": ("vector", [0.25]), "params": ("array?", None),
                  "mc_samples": ("int", 100000, "> 0", "<= 1e8")},
        lipschitz={"oracle": ("bool", False), "oracle_directions": ("int", 20000, "> 0", "<= 2e6")},
        classify={"probe_m": ("real?", None), "expect": (
            (None, "uniformly_expanding", "expanding", "non_expanding"), None)},
        u_c={"c": ("real", 2.0), "t_lo": ("real", 1.0, "> 0"), "t_hi": ("real", 32.0, "> 0"),
             "t_points": ("int", 9, "> 0", "<= 1e4"), "M": ("real", 1.0), "cap": ("real", 1e6),
             "expect_bounded": ("bool", True), "envelope": (Kinds(
                 identity={}, power={"exponent": ("real", REQUIRED)},
                 constant={"value": ("real", REQUIRED)}), {"kind": "identity"})},
        frame_report={"lower": ("real", 1.0), "upper": ("real", 1.0), "M": ("real", 4.0),
                      "epsilons": ("vector", [0.01], "> 0"), "test_centers": ("array?", None),
                      "segments": _SEGMENTS,
                      "points_per_segment": ("int", 100, "> 0", "<= 1e6"),
                      "scan_radius": ("real", 0.4), "probe_band": ("pair?", None),
                      "probe_count": ("int", 50, "> 0", "<= 1e4")},
        # level sets 2 ** level quadrature cells; the grid byte cap fires long before 64
        weil_check={"level": ("int", 5, ">= 0", "<= 64")},
        local_integrability={"box": ("pairs", [[0.25, 2.0]]), "M": ("real", 2.0),
                             "level": ("int", 3, ">= 0", "<= 64"),
                             "expect": (("finite", "divergent"), "finite")})],
        [{"kind": "calderon_scan"}]),
}

_NAMES = {"int": "an integer", "real": "a finite number", "str": "a string",
          "bool": "true or false", "vector": "a nonempty list of finite numbers",
          "array": "a nonempty finite array", "matrix": "a finite square matrix",
          "pairs": "a nonempty list of finite [lo, hi] pairs", "pair": "a finite [lo, hi] pair"}
_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}
_SHAPES = {"vector": lambda s: len(s) == 1, "array": lambda s: len(s) >= 1,
           "pairs": lambda s: len(s) == 2 and s[1] == 2, "pair": lambda s: s == (2,),
           "matrix": lambda s: len(s) == 2 and s[0] == s[1]}


def _resolve(section, spec: dict, where: str) -> dict:
    """Check one section against its table and fill its defaults."""
    if not isinstance(section, dict) or not section.keys() <= spec.keys():
        _require(isinstance(section, dict), f"{where} must be a JSON object")
        raise ScenarioParseError(f"unknown key(s) {sorted(set(section) - set(spec))} in {where}")
    out = {}
    for key, (typ, default, *bound) in spec.items():
        value = section.get(key)
        if value is None and not (isinstance(typ, str) and typ.endswith("?")):
            _require(default is not REQUIRED, f"{where} needs {key!r}")
            if default is OPTIONAL:
                continue
            value = copy.deepcopy(default) if isinstance(default, list) else default
        out[key] = None if value is None else _check(value, typ, f"{where}.{key}", bound)
    return out


def _check(value, typ, where: str, bound=()):
    """Check one value against its declared type and bound; return it resolved."""
    if isinstance(typ, list):
        if not isinstance(value, list) or not value:
            raise ScenarioParseError(f"{where} must be a nonempty list")
        return [_check(v, typ[0], f"{where}.{i}") for i, v in enumerate(value)]
    if isinstance(typ, Kinds):
        kind = value.get("kind") if isinstance(value, dict) else None
        if not isinstance(kind, str) or kind not in typ:
            raise ScenarioParseError(f"{where} must be an object of kind {' or '.join(typ)}")
        return _resolve(value, {"kind": (tuple(typ), REQUIRED), **typ[kind]}, where)
    if isinstance(typ, dict):
        return _resolve(value, typ, where)
    if isinstance(typ, tuple):
        if value not in typ or isinstance(value, bool):
            raise ScenarioParseError(f"{where} must be one of {json.dumps(list(typ))}")
        return value
    base = typ.rstrip("?")
    if base == "int" or base == "real":
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) < float("inf")  # false for NaN too; exact for any int
              and (base == "real" or isinstance(value, int) or value.is_integer()))
    elif base in _SHAPES:
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged nesting
            arr = np.asarray(None)
        ok = (arr.dtype.kind in "iuf" and arr.size > 0 and _SHAPES[base](arr.shape)
              and np.isfinite(arr).all())
    else:
        ok = isinstance(value, str if base == "str" else bool)
    if ok and bound:
        nums = arr if base in _SHAPES else value
        ok = all(np.all(_OPS[op](nums, float(n))) for op, n in map(str.split, bound))
    if not ok:
        raise ScenarioParseError(f"{where} must be {_NAMES[base]} {' and '.join(bound)}".rstrip()
                                 + " or null" * (base != typ))
    return value


def resolve_defaults(raw: dict, base_dir: Path | None = None) -> dict:
    """Validate a parsed scenario against SCHEMA and fill every default.

    Checked by hand, as they span keys: the basis and the profile boxes against
    group.dim, the test centers (on the gabor line k = 1), the metric and the
    family kind against the group, the p-range of gabor_shifts, a frame_report
    or property_x against a continuous family, and the rows of a sampled-grid CSV."""
    out = _resolve(raw, SCHEMA, "scenario")
    gabor = out["group"]["kind"] == "gabor"
    metric = out["metric"].setdefault("kind", "gabor_product" if gabor else "euclidean_l2")
    _require((metric == "gabor_product") == gabor, "gabor groups and gabor_product go together")
    _require((out["family"]["kind"] == "gabor_shifts") == gabor,
             "gabor groups and gabor_shifts families go together")
    dim = int(out["group"]["dim"])
    basis = out["lattice"]["basis"] = out["lattice"].get("basis") or np.eye(dim).tolist()
    boxes = [piece["box"] for piece in out["profile"].get("pieces", [])]
    _require(all(len(rows) == dim for rows in [basis, *boxes]),
             f"lattice.basis and every profile box need group.dim = {dim} rows")
    centers = [a["test_centers"] for a in out["analyses"] if a.get("test_centers")]
    _require(all(np.ndim(c) == 2 and np.shape(c)[1] == 1 + gabor for c in centers),
             f"test_centers need {'[x, 1]' if gabor else '[x]'} rows on this group")
    _require(not gabor or all(np.all(np.asarray(c)[:, 1] == 1) for c in centers),
             "gabor test_centers sit on the modulation line k = 1: rows [x, 1]")
    fam = out["family"]
    _require(fam["kind"] != "gabor_shifts" or "p_values" in fam or {"p_min", "p_max"} <= set(fam),
             "gabor_shifts family needs p_values or p_min/p_max")
    for kind in ("frame_report", "property_x"):
        _require(fam["kind"] != "continuous_dilation"
                 or all(a["kind"] != kind for a in out["analyses"]),
                 f"{kind} needs an atomic family, not a continuous_dilation one")
    if fam["kind"] == "matrix_power":
        _require(fam["j_max"] - fam["j_min"] < MAX_FAMILY_SIZE,
                 f"family j_min..j_max spans more than {MAX_FAMILY_SIZE} powers")
    if fam["kind"] == "gabor_shifts" and "p_values" not in fam:
        _require(0 <= (fam["p_max"] - fam["p_min"]) / fam["p_step"] < MAX_FAMILY_SIZE,
                 f"family p_min..p_max needs p_min <= p_max and at most {MAX_FAMILY_SIZE} "
                 "steps of p_step")
    if out["profile"]["kind"] == "sampled_grid_csv":
        path = Path(out["profile"]["path"])
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        _require(path.is_file(), f"sampled-grid file not found: {path}")
        coords, values = [], []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].startswith("#"):
                    continue
                try:
                    coords.append(float(row[0]))
                    values.append(float(row[1]))
                except (IndexError, ValueError):
                    raise ScenarioParseError(
                        f"{path}: row {row!r} is not 'coordinate,value'") from None
        _require(len(coords) >= 2, "sampled-grid file needs at least two rows")
        out["profile"] = {"kind": "sampled_grid", "lo": coords[0], "hi": coords[-1],
                          "samples": values}
    return out


# ---------------------------------------------------------------------------
# Overrides
# ---------------------------------------------------------------------------

def apply_overrides(scenario: dict, overrides: list[str]) -> dict:
    """Apply key=value overrides with dotted paths (list indices allowed)."""
    out = json.loads(json.dumps(scenario))  # deep copy
    for item in overrides:
        _require("=" in item, f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node, parts = out, key.split(".")
        for i, part in enumerate(parts):
            if isinstance(node, list):
                try:
                    part = int(part)
                except ValueError:
                    raise ScenarioParseError(f"list index expected in override {key!r}") from None
                _require(-len(node) <= part < len(node),
                         f"index {part} out of range in override {key!r} (length {len(node)})")
            else:
                _require(isinstance(node, dict), f"override {key!r} descends into a scalar")
            if i == len(parts) - 1:
                node[part] = parsed
            else:
                node = node.setdefault(part, {}) if isinstance(node, dict) else node[part]
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


def _power(x, expo) -> float:
    try:
        value = float(x) ** float(expo)
    except OverflowError:
        raise RejectedInputError(f"{x} ** {expo} overflows a float") from None
    except ZeroDivisionError:
        raise RejectedInputError(f"{x} ** {expo} divides by zero") from None
    if isinstance(value, complex):
        raise RejectedInputError(f"{x} ** {expo} is not real: the base is negative")
    return value


def build_weight(spec: dict):
    kind = spec["kind"]
    if kind == "constant":
        value = float(spec.get("value", 1.0))
        return lambda *_p: value
    if kind == "power":
        expo = float(spec["exponent"])
        return lambda a, *_rest: _power(a, expo)
    base = float(spec["base"])  # geometric
    return lambda j, *_rest: _power(base, j)


def build_family(scenario: dict) -> am.AutomorphismFamily:
    fam = scenario["family"]
    metric = build_metric(scenario)
    weight = build_weight(fam["weight"])
    kind = fam["kind"]
    if kind == "matrix_power":
        return am.matrix_power_family(np.asarray(fam["base"], dtype=float),
                                      int(fam["j_min"]), int(fam["j_max"]),
                                      metric, weight)
    if kind == "shearlet_grid":
        return am.shearlet_grid_family([float(a) for a in fam["a_values"]],
                                       [float(s) for s in fam["s_values"]],
                                       metric, weight)
    if kind == "gabor_shifts":
        if "p_values" in fam:
            ps = [float(p) for p in fam["p_values"]]
        else:
            ps = np.arange(float(fam["p_min"]), float(fam["p_max"]) + 1e-12,
                           float(fam["p_step"])).tolist()
        return am.gabor_shift_family(ps, weight)
    if kind == "matrix_atoms":
        mats = [np.asarray(m, dtype=float) for m in fam["matrices"]]
        return am.AutomorphismFamily(tuple(range(len(mats))),
                                     lambda i: (mats[int(i)], None),
                                     weight, metric)
    return am.continuous_dilation_family(float(fam["lo"]), float(fam["hi"]),
                                         int(fam["cells"]), metric, weight)


def build_profile(scenario: dict):
    prof = scenario["profile"]
    if prof["kind"] == "piecewise_constant":
        boxes = np.array([piece["box"] for piece in prof["pieces"]], dtype=float)
        values = np.array([piece["value"] for piece in prof["pieces"]], dtype=float)
        return PiecewiseConstantProfile(boxes[..., 0].copy(), boxes[..., 1].copy(), values)
    return SampledGridProfile(float(prof["lo"]), float(prof["hi"]),
                              np.asarray(prof["samples"], dtype=float))


def build_envelope(spec: dict):
    if spec["kind"] == "power":
        expo = float(spec["exponent"])
        return lambda x: _power(x, expo)
    if spec["kind"] == "constant":
        value = float(spec["value"])
        return lambda _x: value
    return lambda x: x  # identity


def scan_grid(segments, points_per_segment: int) -> np.ndarray:
    parts = [np.linspace(float(a), float(b), int(points_per_segment))
             for a, b in segments]
    return np.concatenate(parts)
