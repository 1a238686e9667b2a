import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineframes import cli
from affineframes import config as cfg
from affineframes import runner
from affineframes.config import ScenarioParseError

MINIMAL = {
    "group": {"kind": "euclidean", "dim": 1},
    "family": {"kind": "matrix_power", "base": [[2.0]], "j_min": -20, "j_max": 20},
    "profile": {"kind": "piecewise_constant",
                "pieces": [{"box": [[0.5, 1.0]], "value": 1.0}]},
}


def test_roundtrip_parse_serialize_parse_identity():
    for name in runner.bundled_scenario_names():
        scenario = runner.load_bundled_scenario(name)
        text = cfg.serialize_scenario(scenario)
        again = cfg.parse_scenario_text(text)
        assert again == scenario


def test_minimal_scenario_is_runnable(tmp_path):
    scenario = cfg.resolve_defaults(json.loads(json.dumps(MINIMAL)))
    code, report = runner.run_scenario(scenario, tmp_path)
    assert code == 0
    assert report["analyses"][0]["kind"] == "calderon_scan"
    assert (tmp_path / "report.json").exists()


def test_malformed_scenario_reports_position():
    with pytest.raises(ScenarioParseError) as err:
        cfg.parse_scenario_text('{"group": }')
    assert "line" in str(err.value) and "column" in str(err.value)


def test_missing_section_rejected():
    with pytest.raises(ScenarioParseError):
        cfg.resolve_defaults({"group": {"kind": "euclidean", "dim": 1}})


def test_unknown_analysis_kind_rejected():
    bad = json.loads(json.dumps(MINIMAL))
    bad["analyses"] = [{"kind": "nonsense"}]
    with pytest.raises(ScenarioParseError):
        cfg.resolve_defaults(bad)


def test_bundled_catalog_contains_required_scenarios():
    names = runner.bundled_scenario_names()
    for required in ("shannon_onb", "shearlet_property_x", "gabor_onb",
                     "example_bad", "semicontinuous_wavelet",
                     "anisotropic_wavelet", "weil_counting"):
        assert required in names


def test_overrides_reach_documented_knobs():
    scenario = runner.load_bundled_scenario("gabor_onb")
    out = cfg.apply_overrides(scenario, ["seed=7",
                                         "analyses.0.points_per_segment=17",
                                         "family.p_max=9.0"])
    assert out["seed"] == 7
    assert out["analyses"][0]["points_per_segment"] == 17
    assert out["family"]["p_max"] == 9.0
    # overrides are echoed in the run report via the scenario echo
    assert out != scenario


def test_override_bad_syntax_rejected():
    scenario = runner.load_bundled_scenario("gabor_onb")
    with pytest.raises(ScenarioParseError):
        cfg.apply_overrides(scenario, ["no_equals_sign"])


def test_weight_builders():
    const = cfg.build_weight({"kind": "constant", "value": 2.5})
    power = cfg.build_weight({"kind": "power", "exponent": -1.0})
    geom = cfg.build_weight({"kind": "geometric", "base": 2.0})
    assert const(3.0) == 2.5
    assert power(4.0) == pytest.approx(0.25)
    assert geom(3) == pytest.approx(8.0)


def test_sampled_grid_csv_profile(tmp_path):
    csv_path = tmp_path / "bump.csv"
    csv_path.write_text("-1.0,0.0\n-0.5,1.0\n0.0,0.0\n")
    scenario = json.loads(json.dumps(MINIMAL))
    scenario["profile"] = {"kind": "sampled_grid_csv", "path": "bump.csv"}
    resolved = cfg.resolve_defaults(scenario, base_dir=tmp_path)
    assert resolved["profile"]["kind"] == "sampled_grid"
    assert resolved["profile"]["samples"] == [0.0, 1.0, 0.0]
    profile = cfg.build_profile(resolved)
    assert profile.evaluate(np.array([[-0.5]]))[0] == pytest.approx(1.0)
    # an unknown key, then rows that are not coordinate,value pairs
    (tmp_path / "rows.csv").write_text("-1.0,0.0\n0.0\n1.0,x\n")
    for bad in ({"kind": "sampled_grid_csv", "path": "bump.csv", "step": 1},
                {"kind": "sampled_grid_csv", "path": "rows.csv"}):
        scenario["profile"] = bad
        with pytest.raises(ScenarioParseError):
            cfg.resolve_defaults(scenario, base_dir=tmp_path)


def test_null_knob_stands_for_its_default():
    bare = cfg.resolve_defaults(json.loads(json.dumps(MINIMAL)))
    nulls = json.loads(json.dumps(MINIMAL))
    nulls.update(analyses=None, seed=None, metric=None)
    nulls["family"]["weight"] = None
    assert cfg.resolve_defaults(nulls) == bare
    assert [a["kind"] for a in bare["analyses"]] == ["calderon_scan"]


def test_gabor_shifts_family_and_gabor_group_go_together():
    on_line = json.loads(json.dumps(MINIMAL))
    on_line["family"] = {"kind": "gabor_shifts", "p_values": [0, 1]}
    off_line = json.loads(json.dumps(MINIMAL))
    off_line["group"] = {"kind": "gabor", "dim": 1}
    for scenario in (on_line, off_line):
        with pytest.raises(ScenarioParseError, match="gabor_shifts"):
            cfg.resolve_defaults(scenario)


# ---------------------------------------------------------------------------
# Properties drawn from the schema table
# ---------------------------------------------------------------------------

FAMILIES = cfg.SCHEMA["family"][0]
PROFILES = cfg.Kinds({k: v for k, v in cfg.SCHEMA["profile"][0].items()
                      if k != "sampled_grid_csv"})  # the CSV read is tested above
ANALYSES = cfg.SCHEMA["analyses"][0][0]
_NUMERIC = ("int", "real", "vector", "array", "pairs", "pair", "matrix")


def _draw_value(typ, *bounds):
    """Strategy for a valid value of one declared type and its bounds."""
    if isinstance(typ, list):
        return st.lists(_draw_value(typ[0]), min_size=1, max_size=3)
    if isinstance(typ, cfg.Kinds):
        return st.sampled_from(sorted(typ)).flatmap(
            lambda kind: _draw_section(typ[kind]).map(lambda s: {**s, "kind": kind}))
    if isinstance(typ, dict):
        return _draw_section(typ)
    if isinstance(typ, tuple):
        return st.sampled_from(typ)
    base = typ.rstrip("?")
    lower = next((b for b in bounds if b[0] == ">"), None)
    upper = next((int(float(b.split()[1])) for b in bounds if b.startswith("<=")), 10 ** 6)
    real = st.floats(min_value=0.0 if lower else None, exclude_min=lower == "> 0",
                     allow_nan=False, allow_infinity=False)

    def row(n):
        return st.lists(real, min_size=n, max_size=n)

    values = {
        "int": st.integers({"> 0": 1, ">= 0": 0}.get(lower, -10 ** 6), upper),
        "real": real, "str": st.text(max_size=8), "bool": st.booleans(),
        "vector": st.lists(real, min_size=1, max_size=4),
        "array": st.lists(real, min_size=1, max_size=4), "pair": row(2),
        "pairs": st.lists(row(2), min_size=1, max_size=3),
        "matrix": st.integers(1, 3).flatmap(lambda n: st.lists(row(n), min_size=n, max_size=n)),
    }[base]
    return st.one_of(st.none(), values) if base != typ else values


def _draw_section(spec):
    """Strategy for one section: required keys drawn, every other key drawn or left out."""
    drawn = {k: _draw_value(typ, *bounds) for k, (typ, _default, *bounds) in spec.items()}
    return st.fixed_dictionaries(
        {k: v for k, v in drawn.items() if spec[k][1] is cfg.REQUIRED},
        optional={k: v for k, v in drawn.items() if spec[k][1] is not cfg.REQUIRED})


def _one_row_boxes(profile):
    for piece in profile.get("pieces", []):
        piece["box"] = piece["box"][:1]  # one [lo, hi] row per axis of the 1-d group
    return profile


def _on_its_group(scenario):
    """Draw the group from the family: gabor_shifts on the gabor group with [x, 1]
    test centers, every other family on the line with [x] centers."""
    gabor = scenario["family"]["kind"] == "gabor_shifts"
    scenario["group"] = {"kind": "gabor" if gabor else "euclidean", "dim": 1}
    for analysis in scenario["analyses"]:
        if analysis.get("test_centers") is not None:
            analysis["test_centers"] = [[x, 1] if gabor else [x]
                                        for x in analysis["test_centers"]]
    return scenario


def _bounded_family(family):
    """The family checks that span keys: a gabor p-range (upward) or p_values, and the
    family size."""
    if family["kind"] == "matrix_power":
        return family["j_max"] - family["j_min"] < cfg.MAX_FAMILY_SIZE
    if family["kind"] == "gabor_shifts" and "p_values" not in family:
        return ({"p_min", "p_max"} <= set(family) and 0 <= (family["p_max"] - family["p_min"])
                / family.get("p_step", 1.0) < cfg.MAX_FAMILY_SIZE)
    return True


def _report_on_atomic_family(scenario):
    """A frame_report or a property_x scan needs an atomic family."""
    return (scenario["family"]["kind"] != "continuous_dilation"
            or all(a["kind"] not in ("frame_report", "property_x")
                   for a in scenario["analyses"]))


_scenarios = st.fixed_dictionaries({
    "family": _draw_value(FAMILIES).filter(_bounded_family),
    "profile": _draw_value(PROFILES).map(_one_row_boxes),
    "analyses": _draw_value([ANALYSES]),
}).filter(_report_on_atomic_family).map(_on_its_group)


def _kinded_sections(scenario):
    """(section, its kinds table) for the family, the profile and every analysis."""
    return [(scenario["family"], FAMILIES), (scenario["profile"], PROFILES),
            *[(a, ANALYSES) for a in scenario["analyses"]]]


@settings(max_examples=150, deadline=None)
@given(raw=_scenarios)
def test_table_drawn_scenario_roundtrips_and_carries_every_knob(raw):
    resolved = cfg.resolve_defaults(json.loads(json.dumps(raw)))
    assert cfg.parse_scenario_text(cfg.serialize_scenario(resolved)) == resolved
    for (given_section, _), (section, kinds) in zip(_kinded_sections(raw),
                                                    _kinded_sections(resolved)):
        table = kinds[section["kind"]]
        assert {k for k, entry in table.items() if entry[1] is not cfg.OPTIONAL} <= set(section)
        assert set(section) <= {"kind", *table}
        assert {k: section[k] for k in given_section} == given_section


@settings(max_examples=150, deadline=None)
@given(raw=_scenarios, data=st.data())
def test_table_knob_of_wrong_type_rejected(raw, data):
    sections = _kinded_sections(raw)
    section, kinds = sections[data.draw(st.integers(0, len(sections) - 1))]
    table = kinds[section["kind"]]
    key = data.draw(st.sampled_from(sorted(table)))
    typ = table[key][0]
    # a string where a number or an array belongs, a number for anything else
    section[key] = "a" if isinstance(typ, str) and typ.rstrip("?") in _NUMERIC else 3
    with pytest.raises(ScenarioParseError):
        cfg.resolve_defaults(raw)


def test_scan_grid_concatenates_segments():
    grid = cfg.scan_grid([[-2.0, -1.0], [1.0, 2.0]], 5)
    assert grid.size == 10
    assert grid[0] == -2.0 and grid[-1] == 2.0


# ---------------------------------------------------------------------------
# Runner determinism and exit codes
# ---------------------------------------------------------------------------

def _strip_timings(report: dict) -> dict:
    out = json.loads(json.dumps(report))
    out.pop("timings_s", None)
    return out


def test_runner_deterministic_byte_identical(tmp_path):
    scenario = runner.load_bundled_scenario("gabor_onb")
    code_a, rep_a = runner.run_scenario(scenario, tmp_path / "a")
    code_b, rep_b = runner.run_scenario(scenario, tmp_path / "b")
    assert code_a == code_b == 0
    assert _strip_timings(rep_a) == _strip_timings(rep_b)
    csvs_a = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    csvs_b = sorted(p.name for p in (tmp_path / "b").glob("*.csv"))
    assert csvs_a == csvs_b and csvs_a
    for name in csvs_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_run_exit_zero(tmp_path):
    code = cli.main(["run", "gabor_onb", "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["all_passed"] is True
    scan = report["analyses"][0]
    assert scan["kind"] == "calderon_scan"
    assert abs(scan["min"] - 1.0) < 1e-12 and abs(scan["max"] - 1.0) < 1e-12


def test_cli_run_shannon_scenario_scan_pinned_at_one(tmp_path):
    code = cli.main(["run", "shannon_onb", "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    scan = report["analyses"][0]
    assert scan["kind"] == "calderon_scan"
    assert abs(scan["min"] - 1.0) < 1e-6 and abs(scan["max"] - 1.0) < 1e-6
    frame = report["analyses"][1]
    assert frame["counting_verdict"] == "holds"
    assert frame["probe"]["ok"] is True


def test_matrix_atoms_family_from_row_major_config(tmp_path):
    scenario = json.loads(json.dumps(MINIMAL))
    scenario["group"] = {"kind": "euclidean", "dim": 2}
    scenario["family"] = {"kind": "matrix_atoms",
                          "matrices": [[[2.0, 0.0], [0.0, 3.0]],
                                       [[1.0, 0.5], [0.0, 1.0]]]}
    scenario["profile"] = {"kind": "piecewise_constant",
                           "pieces": [{"box": [[0.5, 1.0], [0.5, 1.0]], "value": 1.0}]}
    scenario["analyses"] = [{"kind": "lipschitz"}]
    resolved = cfg.resolve_defaults(scenario)
    family = cfg.build_family(resolved)
    assert len(family.params) == 2
    assert family.member(0).matrix[1, 1] == 3.0
    code, _report = runner.run_scenario(resolved, tmp_path)
    assert code == 0


def test_cli_run_exit_two_on_violated_scan(tmp_path):
    code = cli.main(["run", "example_bad", "--out", str(tmp_path / "out")])
    assert code == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    verdicts = {a["kind"]: a for a in report["analyses"]}
    assert verdicts["property_x"]["verdict"] == "violated"
    assert verdicts["property_x"]["passed"] is False
    assert verdicts["classify"]["verdict"] == "non_expanding"
    assert verdicts["classify"]["passed"] is True


def test_cli_run_exit_one_on_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"group": {"kind": "euclidean"}')
    assert cli.main(["run", str(bad), "--out", str(tmp_path / "out")]) == 1


def test_cli_unknown_bundled_name_exit_one(tmp_path):
    assert cli.main(["run", "no_such_scenario", "--out", str(tmp_path / "o")]) == 1


BAD_OVERRIDES = [
    ("shannon_onb", 'family.j_min="a"'),        # a string where an integer belongs
    ("shannon_onb", "analyses.5.r=1"),          # list index past the last analysis
    ("shannon_onb", "family.base=[[0.0]]"),     # singular base, inverted for negative powers
    ("shannon_onb", "analyses.0.tolerence=1"),  # misspelled knob
    ("weil_counting", "analyses.1.mc_samples=0"),  # no Monte Carlo samples to divide by
    ("weil_counting", "analyses.1.mc_samples=-5"),
    ("weil_counting", 'lattice.basis="a"'),     # strings where numbers belong
    ("weil_counting", 'group.dim="x"'),
    ("weil_counting", 'seed="x"'),
    ("weil_counting", 'profile.lo="a"'),
    ("weil_counting", 'analyses.1.radii=["a"]'),
    ("weil_counting", "analyses.1.radii=0.3"),  # a scalar where a list belongs
    ("weil_counting", "group.dim=2"),           # 2-d group against the 1x1 basis
    ("weil_counting", "lattice.basis=[1.0]"),   # basis is not a matrix
    ("weil_counting", "analyses.0.level=-1"),   # 2 ** -1 cells
    ("weil_counting", "seed=-1"),
    ("weil_counting", "group=3"),               # a section that is not an object
    ("weil_counting", "analyses.0=3"),
    ("weil_counting", "lattice.bassis=1"),      # misspelled keys in every section
    ("weil_counting", "family.j_mn=1"),
    ("weil_counting", "family.weight.exponent=1"),
    ("weil_counting", "group.dimm=1"),
    ("weil_counting", "profile.piecs=1"),
    ("weil_counting", "metric.knd=1"),
    ("weil_counting", "sede=1"),
    ("gabor_onb", 'profile.pieces.0.box="a"'),
    ("gabor_onb", "profile.pieces.0.valu=1"),
    ("gabor_onb", "profile.pieces.0=3"),
    ("gabor_onb", 'analyses.0.lower="a"'),     # every knob type-checked, not only numeric ones
    ("gabor_onb", "analyses.0.points_per_segment=0"),
    ("gabor_onb", "analyses.0.segments=[1,2]"),  # segments are [lo, hi] pairs
    ("gabor_onb", "family.p_step=0"),
    ("gabor_onb", "group.dim=3"),               # gabor base line is one-dimensional
    ("shearlet_property_x", 'analyses.1.probe_m="a"'),
    ("shearlet_property_x", 'analyses.3.oracle="no"'),  # a truthy string, not a bool
    ("shearlet_property_x", "analyses.3.oracle_directions=0"),
    ("semicontinuous_wavelet", "analyses.1.envelope=3"),
    ("semicontinuous_wavelet", 'analyses.1.envelope={"kind":"power"}'),
    ("semicontinuous_wavelet", 'analyses.1.expect_bounded="no"'),
    ("shannon_onb", "analyses.1.probe_band=[1]"),
    ("shannon_onb", "analyses.1.epsilons=[]"),
    ("weil_counting", 'analyses.1.params="a"'),
    ("weil_counting", "analyses.1.params=[[1,2]]"),  # counting params must name members
    ("weil_counting", "analyses.1.params=[1.5]"),
    ("weil_counting", "analyses.1.radii=[]"),   # zero cases would pass vacuously
    ("weil_counting", "analyses.0.level=40"),   # quadrature grids past the byte cap
    ("weil_counting", "analyses.0.level=25"),
    ("weil_counting", "analyses.0.level=65"),   # bounded before 2 ** level is formed
    ("weil_counting", "analyses.1.radii=[[0.3]]"),  # radii are a flat list
    ("shearlet_property_x", "profile.pieces.0.box=[[0,1]]"),  # a 1-d box in the plane
    ("gabor_onb", "analyses.2.epsilons=[0]"),
    ("anisotropic_wavelet", "analyses.0.expect=3"),  # verdict names are an enum
    ("anisotropic_wavelet", 'analyses.2.expect="maybe"'),
    ("gabor_onb", "analyses.2.test_centers=[0]"),       # centers are rows
    ("gabor_onb", "analyses.2.test_centers=[[0.5]]"),   # gabor centers are [x, m]
    ("shannon_onb", "analyses.1.test_centers=[[0.5,1]]"),  # euclidean centers are [x]
    ("semicontinuous_wavelet", "family.weight.exponent=1e300"),  # float powers overflow
    ("anisotropic_wavelet", "analyses.1.c=1e300"),
    ("anisotropic_wavelet", "analyses.1.t_hi=1e300"),
    ("anisotropic_wavelet", "analyses.1.envelope.exponent=1e300"),
    ("weil_counting", "analyses.1.mc_samples=1e300"),  # size knobs are capped
    ("weil_counting", "analyses.1.mc_samples=100000001"),
    ("gabor_onb", "analyses.0.points_per_segment=1e300"),
    ("shannon_onb", "analyses.1.points_per_segment=1e300"),
    ("anisotropic_wavelet", "analyses.1.t_points=1e300"),
    ("shearlet_property_x", "analyses.3.oracle_directions=1e300"),
    ("semicontinuous_wavelet", "family.cells=1e300"),
    ("shannon_onb", "analyses.1.probe_count=1e300"),
    ("shannon_onb", "family.j_max=1e300"),      # so are family sizes and powers
    ("shannon_onb", "family.j_min=-1e300"),
    ("weil_counting", "family.j_max=1e6"),
    ("gabor_onb", "family.p_max=1e300"),
    ("gabor_onb", "family.p_min=-1e300"),
    ("gabor_onb", "family.p_step=1e-300"),
    ("gabor_onb", "analyses.2.test_centers=[[1.3,2]]"),  # the functional lives on k = 1
    ("shannon_onb", "family.j_max=2000"),       # 2 ** 1024 overflows a float
    ("shannon_onb", "family.j_min=-2000"),      # 2 ** -2000 underflows to zero
    # gabor_shifts families and gabor groups go together
    ("gabor_onb", 'family={"kind":"matrix_power","base":[[2.0]],"j_min":0,"j_max":3}'),
    ("anisotropic_wavelet", 'family={"kind":"gabor_shifts","p_values":[0,1]}'),
    ("shannon_onb", 'family={"kind":"gabor_shifts","p_values":[0,1]}'),
]


@pytest.mark.parametrize("name,override", BAD_OVERRIDES, ids=[o for _, o in BAD_OVERRIDES])
def test_cli_bad_override_exits_one_with_error_line(tmp_path, capsys, name, override):
    code = cli.main(["run", name, "--out", str(tmp_path / "o"), "--set", override])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("override,word", [("family.j_max=2000", "overflow"),
                                           ("family.j_min=-2000", "underflow")])
def test_cli_matrix_power_out_of_float_range_is_named(tmp_path, capsys, override, word):
    code = cli.main(["run", "shannon_onb", "--out", str(tmp_path / "o"), "--set", override])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and word in err and "singular" not in err


def test_cli_ill_conditioned_matrix_power_has_valid_constants(tmp_path, capsys):
    # cond(base ** 30) ~ 1e17: the lower L2 constant must not come out as noise
    code = cli.main(["run", "anisotropic_wavelet", "--out", str(tmp_path / "o"),
                     "--set", "family.base=[[3,50],[0,1]]", "--set", "family.j_min=0",
                     "--set", "family.j_max=30"])
    assert code in (0, 2)
    assert "invalid distortion constants" not in capsys.readouterr().err


def test_cli_scaled_identity_powers_classify(tmp_path, capsys):
    # powers of 1.5 * I once got an L2 lower constant one ulp above the upper one
    scenario = runner.load_bundled_scenario("anisotropic_wavelet")
    scenario["family"].update(base=[[1.5, 0.0], [0.0, 1.5]], j_min=-10, j_max=10)
    scenario["analyses"] = [{"kind": "classify", "expect": "uniformly_expanding"}]
    path = tmp_path / "scaled_identity.json"
    path.write_text(json.dumps(scenario))
    code = cli.main(["run", str(path), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "[PASS] classify" in captured.out


def test_cli_strongly_sheared_shearlets_have_valid_l2_constants(tmp_path, capsys):
    # at a = 1, s = 1e4 the closed form of the lower constant lost 14% to cancellation
    code = cli.main(["run", "shearlet_property_x", "--out", str(tmp_path / "o"),
                     "--set", "metric.kind=euclidean_l2",
                     "--set", "family.s_values=[-10000,0,10000]",
                     "--set", "family.a_values=[1,2]",
                     "--set", "analyses.1.expect=null", "--set", "analyses.2.params=null"])
    assert code == 0
    assert "[PASS] lipschitz" in capsys.readouterr().out


def test_cli_wide_continuous_dilation_domain_runs(tmp_path, capsys):
    # the cell midpoints sqrt(e0 * e1) over- and underflowed long before the
    # edges did, and the member [[inf]] or [[0]] failed as a singular matrix;
    # cells span a factor of about 2.4e9 here, and the per-cell level-set walk
    # missed every band [t, 2t] inside one grid step, writing 0.0 for 12 of 13 rows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["run", "semicontinuous_wavelet", "--out", str(tmp_path / "o"),
                         "--set", "family.lo=1e-300", "--set", "family.hi=1e300"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "[PASS] calderon_scan" in captured.out
    with open(tmp_path / "o" / "01_u_c.csv") as fh:
        masses = [float(row["band_mass"]) for row in csv.DictReader(fh)]
    # the weight is 1/a, so each band [t, 2t] has mass log 2
    assert len(masses) == 13
    assert all(abs(m - math.log(2.0)) <= 1e-9 for m in masses), masses


@pytest.mark.parametrize("name,overrides,word", [
    # lattice boxes past int64 wrapped to one candidate: example_bad read PASS
    ("example_bad", ["analyses.0.r=1e300"], "int64"),
    ("weil_counting", ["analyses.1.radii=[1e300]"], "int64"),
    # a ** 1.5 overflows for a above about 3.2e205
    ("shearlet_property_x", ["family.a_values=[1e206]"], "jacobian"),
    # geomspace collapses neighbouring cell edges to one float
    ("semicontinuous_wavelet", ["family.lo=1", "family.hi=1.0000000000000002",
                                "family.cells=100000"], "strictly increasing"),
    # the remainder ball [0.01 +- 1e300] reached the orbit and overflowed there
    ("shannon_onb", ["analyses.1.epsilons=[1e300]"], "overflows"),
    # the probe takes the first radius; the functional overflowed on the second
    ("shannon_onb", ["analyses.1.epsilons=[0.01,1e300]"], "test function overflows"),
    # at s = 1e8 a shearlet's Gram matrix is singular in floating point, and the
    # oracle's power iteration ended in numpy's LinAlgError
    ("shearlet_property_x", ["family.s_values.0=1e8"], "Gram matrix is singular"),
    # 0 ** -1 raised ZeroDivisionError out of a weight, and a negative base to a
    # fractional power made a complex weight that the sign check raised TypeError on
    ("shannon_onb", ['family.weight={"kind":"power","exponent":-1}', "family.j_min=0"],
     "0 ** -1.0 divides by zero"),
    ("shannon_onb", ['family.weight={"kind":"geometric","base":0}'],
     "0.0 ** -60 divides by zero"),
    ("shannon_onb", ['family.weight={"kind":"power","exponent":0.5}'],
     "-60 ** 0.5 is not real: the base is negative"),
    ("gabor_onb", ['family.weight={"kind":"power","exponent":0.5}'],
     "-25.0 ** 0.5 is not real: the base is negative"),
    # the determinant of a power base or of an atom overflowed with a warning,
    # and the atom went on with jacobian inf
    ("anisotropic_wavelet", ["family.base=[[1e200,0],[0,1e200]]"], "** -12 underflows"),
    ("anisotropic_wavelet", ['family={"kind":"matrix_atoms","matrices":[[[1e200,0],[0,1e200]]]}',
                             'analyses=[{"kind":"lipschitz"}]'],
     "automorphism jacobian inf overflows a float"),
    # the Gram matrix M^T M of finite matrices overflowed with a warning, every
    # constant came out nan, and classify refused them as invalid
    ("anisotropic_wavelet", ["family.base=[[2,1e300],[0,3]]"], "M^T M overflows a float"),
    # an L-infinity row sum overflowed with a warning, and the upper constant inf
    # still passed the lipschitz analysis
    ("anisotropic_wavelet", ["metric.kind=euclidean_linf",
                             'family={"kind":"matrix_atoms","matrices":[[[1e308,1e308],[0,1]]]}',
                             'analyses=[{"kind":"lipschitz"}]'], "row sum of |M|"),
    # a probe's squared norm overflowed with a warning, and a band wider than a
    # float ended in numpy's OverflowError
    ("shannon_onb", ["analyses.1.probe_band=[0,1.7e308]"], "squared norm on [0.0, 1.7e+308]"),
    ("shannon_onb", ["analyses.1.probe_band=[-1e308,1e308]"], "wider than a float"),
    # weight times jacobian overflowed to inf: times a zero quadrature dot the
    # anisotropic tail read NaN and passed as finite; shannon_onb only warned
    ("anisotropic_wavelet", ["family.weight.value=1e300"], "weight times its jacobian overflows"),
    ("shannon_onb", ["family.weight.value=1e300"], "weight times its jacobian overflows"),
    # the oracle's Gram matrix M^T M overflowed: at 1e300 with a warning and a
    # pass, at 1e200 with a false lipschitz failure
    ("shearlet_property_x", ["family.s_values=[1,3,1e300]"], "Gram matrix M^T M overflows"),
    ("shearlet_property_x", ["family.s_values=[1,3,-1e300]"], "Gram matrix M^T M overflows"),
    ("shearlet_property_x", ["family.s_values=[1,3,1e200]"], "Gram matrix M^T M overflows"),
    # the central-first shift order squared the shifts' distances, and the L2
    # test squared preimages past the float range, each with a warning
    ("weil_counting", ["lattice.basis=[[1e155]]"], "squares that overflow a float"),
    ("weil_counting", ["lattice.basis=[[1e300]]"], "squares that overflow a float"),
    # the frame functional's preimage of a shifted node overflowed with a
    # warning, and both analyses passed
    ("shannon_onb", ["lattice.basis=[[1e300]]"], "preimage of a shifted node overflows"),
    ("shannon_onb", ["lattice.basis=[[-1e300]]"], "preimage of a shifted node overflows"),
    # a squared profile value overflowed to inf: the verdicts were computed
    # through inf, and anisotropic_wavelet read a finite integral as divergent
    *[(name, [f"profile.pieces.0.value={v}"], "square of a profile value overflows")
      for name in ("shannon_onb", "gabor_onb", "anisotropic_wavelet", "semicontinuous_wavelet")
      for v in ("1e300", "-1e300")],
    # c - epsilon rounds to c + epsilon: the interval profile refused the empty
    # box, and its step row must too
    ("shannon_onb", ["analyses.1.test_centers=[[1e20]]"], "empty or inverted box"),
    ("shannon_onb", ["analyses.1.test_centers=[[1.7e308]]"], "empty or inverted box"),
    # the functional's rounding margin summed past the float range with a
    # warning before the preimage was refused
    ("shannon_onb", ["lattice.basis=[[1.7e308]]"], "rounding margin of the functional's nodes"),
    # a profile box end of -1e300 squared past the float range in the L2 norm
    # of the support circumradius, and in the frame report the members' preimages
    # of psi-hat's breakpoints overflowed; both warned, and no verdict moved
    ("shannon_onb", ["profile.pieces.0.box=[[-1e300,-0.5]]"], "farthest profile support corner"),
    ("shannon_onb", ["profile.pieces.0.box=[[-1e300,-0.5]]",
                     'analyses=[{"kind":"frame_report","lower":1.0,"upper":1.0}]'],
     "preimage of a psi-hat breakpoint overflows"),
])
def test_cli_out_of_float_range_inputs_end_in_one_error_line(tmp_path, capsys, name,
                                                             overrides, word):
    argv = ["run", name, "--out", str(tmp_path / "o")]
    for override in overrides:
        argv += ["--set", override]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and word in err and err.count("\n") == 1


def test_cli_frame_report_on_a_continuous_family_is_a_scenario_error(tmp_path, capsys):
    # run computed the grid report first and then failed on the functional
    scenario = runner.load_bundled_scenario("semicontinuous_wavelet")
    scenario["analyses"].append({"kind": "frame_report", "lower": 0.69, "upper": 0.7})
    path = tmp_path / "continuous_report.json"
    path.write_text(json.dumps(scenario))
    for argv in (["describe", str(path)], ["run", str(path), "--out", str(tmp_path / "o")]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and "atomic family" in captured.err


def test_cli_property_x_on_a_continuous_family_is_a_scenario_error(tmp_path, capsys):
    # run built the member table and then failed naming an internal method
    code = cli.main(["run", "semicontinuous_wavelet", "--out", str(tmp_path / "o"),
                     "--set", 'analyses.1={"kind":"property_x"}'])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: property_x needs an atomic family, "
                            "not a continuous_dilation one\n")


@pytest.mark.parametrize("name,override", [
    # JSON admits Infinity and NaN; they reached the lattice box as inf/NaN bounds
    ("example_bad", "analyses.0.r=Infinity"),
    ("example_bad", "analyses.0.r=NaN"),
    ("example_bad", "analyses.0.r=-Infinity"),
    ("weil_counting", "analyses.1.radii=[0.5,Infinity]"),
    ("anisotropic_wavelet", "family.base=[[NaN,0],[0,3]]"),
])
def test_cli_non_finite_numbers_are_scenario_errors(tmp_path, capsys, name, override):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", name, "--out", str(tmp_path / "o"), "--set", override])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and override.split("=")[0] in err and "finite" in err


@pytest.mark.parametrize("override", ["family.p_min=1e300", "family.p_max=-1e300"])
def test_cli_gabor_p_range_running_downward_is_a_scenario_error(tmp_path, capsys, override):
    # a negative span passed the family-size check and reached np.arange
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", "gabor_onb", "--out", str(tmp_path / "o"), "--set", override])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "p_min <= p_max" in err


def test_cli_output_directory_named_like_a_bundled_scenario(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "shannon_onb").mkdir()
    assert cli.main(["describe", "shannon_onb"]) == 0
    assert cli.main(["run", "shannon_onb", "--out", "shannon_onb"]) == 0


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_cli_unusable_output_path_exits_one(tmp_path, capsys, out):
    (tmp_path / "taken").write_text("a file, not a directory\n")
    assert cli.main(["run", "gabor_onb", "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_list_and_describe(capsys):
    assert cli.main(["list"]) == 0
    listed = capsys.readouterr().out
    for required in ("shannon_onb", "shearlet_property_x", "gabor_onb"):
        assert required in listed
    assert cli.main(["describe", "shannon_onb"]) == 0
    described = capsys.readouterr().out
    parsed = json.loads(described)
    assert parsed["name"] == "shannon_onb"


def test_cli_override_echoed_in_report(tmp_path):
    code = cli.main(["run", "gabor_onb", "--out", str(tmp_path / "out"),
                     "--set", "analyses.0.points_per_segment=23"])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["scenario"]["analyses"][0]["points_per_segment"] == 23
    assert report["analyses"][0]["n_points"] == 23


def test_report_csv_files_referenced_exist(tmp_path):
    scenario = runner.load_bundled_scenario("weil_counting")
    code, report = runner.run_scenario(scenario, tmp_path)
    assert code == 0
    for entry in report["analyses"]:
        if "csv" in entry:
            assert (tmp_path / entry["csv"]).exists()
