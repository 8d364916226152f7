"""Smoke and contract tests of the benchmark itself.

Run explicitly (outside tier-1's ``testpaths``)::

    python -m pytest perfbench/tests
"""

import copy
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import cli, load_manifest, require_repro  # noqa: E402
from perfbench import child as child_module  # noqa: E402
from perfbench.workloads import WORKLOADS, fig12_sweep  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
MANIFEST = load_manifest()


def run_cli(*argv, timeout=170):
    return subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-m", "perfbench", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def child_in_process(capsys, monkeypatch, *argv):
    """The child's exit code and result line, set-up sampling stubbed."""
    monkeypatch.setattr(child_module, "sample_setup", lambda args: [0.5])
    code = cli.main(["child", "--seconds", "1", "--small", *argv])
    return code, last_json(capsys.readouterr().out)


def test_manifest_names_are_well_formed_and_match_the_workloads():
    names = [w["name"] for w in MANIFEST["workloads"]]
    assert names == list(WORKLOADS)
    for entry in (MANIFEST["workloads"] + MANIFEST["end_to_end"]
                  + MANIFEST["per_layer"]):
        assert NAME.fullmatch(entry["name"]), entry["name"]
    assert "setup_s" in {m["name"] for m in MANIFEST["end_to_end"]}
    assert MANIFEST["paths"] == ["perfbench"]


def test_small_run_finishes_quickly_and_reports_every_end_to_end_metric(tmp_path):
    out = tmp_path / "run.json"
    start = time.monotonic()
    done = run_cli("run", "--reps", "1", "--small", "--out", str(out))
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 20.0, f"small run took {elapsed:.1f}s"
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == list(WORKLOADS)
    for key in ("git_sha", "git_dirty", "python", "numpy", "nproc",
                "cpu_model", "loadavg"):
        assert key in result["context"]
    for workload, doc in result["workloads"].items():
        assert doc["correct"] and doc["failed"] == 0
        for metric in MANIFEST["end_to_end"]:
            assert metric["name"] in doc["metrics"], (workload, metric["name"])
            assert metric["name"] in done.stdout
        assert doc["metrics"]["fail_ratio"]["value"] == 0.0


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_child_result_line_carries_exactly_the_declared_metrics(trace, key):
    done = run_cli("child", "--workload", "lsm_dataplane", "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--small")
    assert done.returncode == 0, done.stdout + done.stderr
    line = last_json(done.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in MANIFEST[key]}
    assert set(line["metrics"]) == set(declared)
    for name, metric in line["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))


def test_planted_wrong_get_raises_fail_ratio_and_exit_code(capsys, monkeypatch):
    require_repro()
    from repro import api

    real_get = api.LSMStore.get

    def wrong_get(self, key):
        value = real_get(self, key)
        return b"planted" if key.endswith(b"7") and value is not None else value

    monkeypatch.setattr(api.LSMStore, "get", wrong_get)
    code, line = child_in_process(
        capsys, monkeypatch, "--workload", "lsm_dataplane", "--units", "1")
    assert code != 0
    assert line["correct"] is False and line["failed"] >= 1


def test_planted_digest_mismatch_raises_fail_ratio_and_exit_code(
        capsys, monkeypatch):
    real_verify = fig12_sweep.verify
    calls = []

    def drifting_verify(inputs, outcome):
        verdict = real_verify(inputs, outcome)
        calls.append(1)
        if len(calls) >= 3:  # after the warm-up and the first unit
            verdict.digest = "0" * 64
        return verdict

    monkeypatch.setattr(fig12_sweep, "verify", drifting_verify)
    code, line = child_in_process(
        capsys, monkeypatch, "--workload", "fig12_sweep", "--units", "2")
    assert code != 0
    assert line["correct"] is False and line["failed"] == 1


def _synthetic_set(wall: float) -> dict:
    doc = {
        "correct": True, "attempted": 10, "failed": 0, "sim_digest": "d",
        "exact": {"model.x": 1.0},
        "unit_wall_s": [wall * f for f in (0.99, 1.0, 1.0, 1.01)],
        "setup_samples_s": [0.5, 0.5, 0.5],
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": 0.5, "unit": "s"},
            "peak_rss_mb": {"value": 100.0, "unit": "MiB"},
        },
    }
    return {"seed": 1, "workloads": {name: copy.deepcopy(doc) for name in WORKLOADS}}


def _compare(tmp_path, capsys, first: dict, second: dict):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(first))
    b.write_text(json.dumps(second))
    code = cli.main(["compare", str(a), str(b)])
    return code, capsys.readouterr().out


def test_compare_flags_a_regression_beyond_the_bound_and_passes_one_within(
        tmp_path, capsys):
    bound = next(m["bound"] for m in MANIFEST["end_to_end"] if m["name"] == "wall_s")
    base = _synthetic_set(2.0)
    code, out = _compare(tmp_path, capsys, base, _synthetic_set(2.0 * (1 + 1.5 * bound)))
    assert code == 1 and "regressed" in out
    code, out = _compare(tmp_path, capsys, base, _synthetic_set(2.0 * (1 + 0.5 * bound)))
    assert code == 0 and "regressed" not in out
    rows = [line for line in out.splitlines() if line.startswith("wall_s")]
    assert len(rows) == len(WORKLOADS)  # one row per (metric, workload)


def test_compare_reports_noisy_sets_as_unresolved_and_digest_drift_as_regressed(
        tmp_path, capsys):
    base, noisy = _synthetic_set(2.0), _synthetic_set(2.1)
    for doc in noisy["workloads"].values():
        doc["unit_wall_s"] = [1.0, 2.0, 2.2, 4.0]
    code, out = _compare(tmp_path, capsys, base, noisy)
    assert code == 0 and "unresolved" in out
    drifted = _synthetic_set(2.0)
    drifted["workloads"]["fig12_sweep"]["sim_digest"] = "other"
    code, out = _compare(tmp_path, capsys, base, drifted)
    assert code == 1 and "sim_digest" in out
    failing = _synthetic_set(2.0)
    failing["workloads"]["lsm_dataplane"]["failed"] = 1
    code, out = _compare(tmp_path, capsys, base, failing)
    assert code == 1


def test_stop_children_leaves_no_process_behind():
    """A spawn pool's resource tracker (deaf to SIGTERM) and a stray
    sleeper are both gone once ``stop_children`` returns."""
    script = (
        "import multiprocessing, os, subprocess, sys\n"
        "from perfbench import _children, stop_children\n"
        "with multiprocessing.get_context('spawn').Pool(1) as pool:\n"
        "    pool.map(abs, [-1])\n"
        "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "assert len(_children(os.getpid())) == 2, _children(os.getpid())\n"
        "stop_children()\n"
        "assert _children(os.getpid()) == []\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
