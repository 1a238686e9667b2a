"""Every bundled scenario reproduces the exit code, verdicts and CSV digests
that the benchmark's reference file pins, so output drift fails here first;
on one BLAS thread, the package's default, and on two."""

import hashlib
import json
import os
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


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_bundled_digests_do_not_depend_on_the_blas_thread_count(tmp_path, threads):
    # OPENBLAS_NUM_THREADS acts only before numpy loads, so the scenarios run in
    # a fresh interpreter on each BLAS thread count against the same pins
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
    env = {"PYTHONPATH": ":".join(sys.path), "OPENBLAS_NUM_THREADS": threads}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script,
                           str(tmp_path)], capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == PINNED


def _thread_state_after_import(**preset) -> list:
    """The BLAS thread variables and the thread count of a fresh interpreter
    after `import affineframes, numpy`, started with no thread variable but
    `preset`; the count is None where /proc/self/task does not exist."""
    script = textwrap.dedent(f"""
        import json, os
        import affineframes, numpy
        tasks = "/proc/self/task"
        print(json.dumps([{{k: os.environ.get(k) for k in {_THREAD_VARS!r}}},
                          len(os.listdir(tasks)) if os.path.isdir(tasks) else None]))
    """)
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(PYTHONPATH=":".join(sys.path), **preset)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_package_import_pins_openblas_to_one_thread():
    variables, threads = _thread_state_after_import()
    assert variables == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                         "OMP_NUM_THREADS": None}
    if sys.platform.startswith("linux"):
        assert threads == 1


@pytest.mark.parametrize("name", _THREAD_VARS)
def test_package_import_keeps_a_thread_count_the_caller_set(name):
    variables, _ = _thread_state_after_import(**{name: "2"})
    assert variables == {k: "2" if k == name else None for k in _THREAD_VARS}


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
