import json

import numpy as np
import pytest

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
    assert len(family.parameters()) == 2
    assert family.automorphism(0).matrix[1, 1] == 3.0
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
]


@pytest.mark.parametrize("name,override", BAD_OVERRIDES, ids=[o for _, o in BAD_OVERRIDES])
def test_cli_bad_override_exits_one_with_error_line(tmp_path, capsys, name, override):
    code = cli.main(["run", name, "--out", str(tmp_path / "o"), "--set", override])
    assert code == 1
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
