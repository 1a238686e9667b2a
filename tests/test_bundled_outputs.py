"""Every bundled scenario reproduces the exit code, verdicts and CSV digests
that the benchmark's reference file pins, so output drift fails here first."""

import hashlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from affineframes import automorphisms, calderon, counting, frame_functional, metric_lattice
from affineframes import runner

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


def _pinned_scenarios() -> dict:
    workloads = json.loads(REFERENCE.read_text())["workloads"]
    return {**workloads["orbit_scan"], **workloads["scenario_mix"]}


PINNED = _pinned_scenarios()


def test_every_bundled_scenario_is_pinned():
    assert sorted(PINNED) == runner.bundled_scenario_names()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_scenario_matches_reference_digests(tmp_path, name):
    code, report = runner.run_scenario(runner.load_bundled_scenario(name), tmp_path)
    expected = PINNED[name]
    assert code == expected["exit"]
    assert [a["passed"] for a in report["analyses"]] == expected["passed"]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.glob("*.csv"))}
    assert digests == expected["csv"]


def test_bundled_digests_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OPENBLAS_NUM_THREADS acts only before numpy loads, so the scenarios run in
    # a fresh interpreter on one BLAS thread against the same pins
    script = textwrap.dedent("""
        import hashlib, json, sys
        from pathlib import Path
        from affineframes import runner
        pins = {}
        for name in runner.bundled_scenario_names():
            out = Path(sys.argv[1]) / name
            code, report = runner.run_scenario(runner.load_bundled_scenario(name), out)
            pins[name] = {"exit": code, "passed": [a["passed"] for a in report["analyses"]],
                          "csv": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                  for p in sorted(out.glob("*.csv"))}}
        print(json.dumps(pins))
    """)
    env = {"PYTHONPATH": ":".join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script,
                           str(tmp_path)], capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == PINNED


def test_benchmark_couplings_to_the_package_hold(tmp_path, monkeypatch):
    """The benchmark's own suite reads these names across modules and counts
    `Automorphism` constructions on an orbit_scan item (bundled shannon_onb);
    a package change that would break it fails here first."""
    assert frame_functional.calderon_sum is calderon.calderon_sum
    assert counting.overlap_measure is metric_lattice.overlap_measure
    assert calderon.lipschitz_constants is automorphisms.lipschitz_constants
    built = []
    post_init = automorphisms.Automorphism.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(automorphisms.Automorphism, "__post_init__", counted)
    runner.run_scenario(runner.load_bundled_scenario("shannon_onb"), tmp_path)
    assert built
