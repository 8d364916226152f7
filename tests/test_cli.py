"""Tests for the command-line interface."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import ClusterSpec
from repro.experiments.cli import EXPERIMENTS, build_parser, main
from repro.faults import FaultSpec
from repro.scenarios import scenario

DATA = Path(__file__).parent / "data"
#: Both recorded by tests/make_cli_parser_golden.py at the commit before
#: the CLI became a command table (deliberate edits since: the
#: ``paper`` subcommand was added, the four ``--shards`` options were
#: removed, ``compare`` was deleted — its baseline-vs-solution tails
#: are the ``run fig16`` row, recorded at the commit before — and so was
#: ``profile``).
PARSER_GOLDEN = DATA / "cli_parser_golden.json"
STDOUT_GOLDEN = DATA / "cli_stdout_golden.json"

#: Cheap commands whose exit code and stdout are pinned byte for byte.
STDOUT_COMMANDS = [
    "list",
    "scenarios list",
    "scenarios show windowed_join",
    "cluster show",
    "run fig8 --duration 48 --warmup 16",
    "run fig8 --faults crash --duration 48 --warmup 16",
    "run fig16 --duration 48 --warmup 16",
    "soak --kind baseline_traffic --seeds 1 --duration 100 --warmup 20",
]


def parser_structure(parser) -> dict:
    """Every subcommand's help and actions as plain data — what argparse
    was told, not how it formats ``--help``."""
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {
        name: {
            "help": helps.get(name),
            "actions": [
                {
                    "flags": list(a.option_strings) or a.dest,
                    "default": a.default,
                    "nargs": a.nargs,
                    "choices": None if a.choices is None else list(a.choices),
                    "type": getattr(a.type, "__name__", None),
                    "required": a.required,
                    "metavar": a.metavar,
                    "help": a.help,
                }
                for a in command._actions
                if not isinstance(a, argparse._HelpAction)
            ],
        }
        for name, command in sub.choices.items()
    }


def test_every_figure_has_a_cli_name():
    expected = {
        "fig1", "fig3", "table1", "fig6", "fig7", "fig8", "fig12", "fig13",
        "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
        "headline",
    }
    assert set(EXPERIMENTS) == expected


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_fig8_renders_report(capsys):
    code = main(["run", "fig8", "--duration", "120", "--warmup", "40"])
    assert code == 0
    out = capsys.readouterr().out
    assert "== fig8 ==" in out
    assert "p99.9" in out
    assert "spike_period_s" in out


def test_run_table1_renders_table(capsys):
    code = main(["run", "table1", "--duration", "200", "--warmup", "40"])
    assert code == 0
    out = capsys.readouterr().out
    assert "flush s0/s1" in out
    assert "64/64" in out


def test_run_json_output(capsys):
    code = main(["run", "fig8", "--duration", "100", "--warmup", "40",
                 "--json"])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert "spikes" in payload and "tails" in payload


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_run_succeeds_for_every_experiment(name, capsys):
    """Regression: sweep experiments crashed with TypeError when the CLI
    passed settings positionally into their sweep-list parameter."""
    code = main(["run", name, "--duration", "48", "--warmup", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert f"== {name} ==" in out


def test_run_sweep_with_jobs_flag(capsys):
    code = main(["run", "fig12", "--duration", "30", "--warmup", "10",
                 "--jobs", "2", "--no-cache"])
    assert code == 0
    out = capsys.readouterr().out
    assert "delay_s" in out


def test_cache_info_and_clear(capsys, tmp_path, monkeypatch):
    from repro.experiments.parallel import CACHE_DIR_ENV

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cli-cache"))
    assert main(["run", "fig16", "--duration", "48", "--warmup", "16"]) == 0
    capsys.readouterr()

    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert "entries: 2" in out

    assert main(["cache", "clear"]) == 0
    out = capsys.readouterr().out
    assert "removed 2" in out


def test_unknown_experiment_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_trace_command_writes_trace_and_report(capsys, tmp_path):
    out_path = tmp_path / "fig8.trace.jsonl"
    code = main(["trace", "fig8", "--duration", "70", "--warmup", "30",
                 "--out", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "millibottleneck report" in out
    assert "attributed" in out
    assert out_path.exists()
    from repro.trace import read_jsonl

    events = read_jsonl(out_path)
    assert any(e.ph == "X" and e.cat == "flush" for e in events)
    assert any(e.cat == "latency" for e in events)


def test_trace_command_prints_the_report_of_the_trace_it_writes(
    capsys, tmp_path
):
    """One reading per spike: the printed report is the detector's
    answer on the written file, span counts included."""
    from repro.analysis.millibottleneck import analyze_trace
    from repro.trace import read_jsonl

    out_path = tmp_path / "fig8.jsonl"
    assert main(["trace", "fig8", "--duration", "104", "--warmup", "32",
                 "--out", str(out_path)]) == 0
    report = analyze_trace(read_jsonl(out_path))
    assert report.render() in capsys.readouterr().out
    assert report.spike_count == 3


def test_sync_audits_a_recorded_trace_file_and_names_it(capsys, tmp_path):
    """``repro trace`` output feeds ``repro sync --trace-file``; the
    report names the file, not the flags' default scenario and seed."""
    path = str(tmp_path / "fig8.jsonl")
    assert main(["trace", "fig8", "--duration", "48", "--warmup", "16",
                 "--out", path]) == 0
    capsys.readouterr()
    assert main(["sync", "--trace-file", path, "--dynamic-only"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"shadow-sync audit: trace={path}\n")
    assert "baseline_traffic" not in out and "seed=" not in out
    assert "detected" in out  # the rebuilt latency track was read
    assert main(["sync", "--trace-file", path, "--dynamic-only",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["scenario"], data["duration_s"], data["seed"]) == (
        path, None, None
    )
    assert data["spikes"]["count"] > 0


def test_trace_to_an_unwritable_path_is_an_error_line(capsys, tmp_path):
    out_path = tmp_path / "missing" / "dir" / "x.jsonl"
    code = main(["trace", "fig8", "--duration", "48", "--warmup", "16",
                 "--out", str(out_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write trace:")
    assert str(out_path) in err


def test_trace_command_chrome_format(capsys, tmp_path):
    out_path = tmp_path / "fig8.trace.json"
    code = main(["trace", "fig8", "--duration", "70", "--warmup", "30",
                 "--chrome", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert "traceEvents" in doc and doc["traceEvents"]


def test_run_with_trace_flag(capsys):
    code = main(["run", "fig8", "--duration", "70", "--warmup", "30",
                 "--trace"])
    assert code == 0
    assert "== fig8 ==" in capsys.readouterr().out


# ----------------------------------------------------------------------
# the scenario subcommands
# ----------------------------------------------------------------------


def test_scenarios_list_renders_the_catalog(capsys):
    from repro.scenarios import scenario_names

    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out
    assert "soak pool" in out


def test_scenarios_list_json(capsys):
    from repro.scenarios import scenario_names

    assert main(["scenarios", "list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == scenario_names()
    assert payload["windowed_join"]["app"] == "join"


def test_scenarios_show_prints_spec_and_cache_key(capsys):
    assert main(["scenarios", "show", "windowed_join"]) == 0
    out = capsys.readouterr().out
    assert "windowed_join" in out and "cache key" in out
    assert '"app": "join"' in out


def test_scenarios_show_json_roundtrips(capsys):
    from repro.scenarios import ScenarioSpec, scenario

    assert main(["scenarios", "show", "multi_tenant", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert ScenarioSpec.from_dict(payload["spec"]) == scenario("multi_tenant")
    assert len(payload["cache_key"]) == 64


def test_scenarios_show_requires_a_name(capsys):
    assert main(["scenarios", "show"]) == 2
    assert "needs a scenario name" in capsys.readouterr().err


def test_scenarios_show_unknown_name(capsys):
    assert main(["scenarios", "show", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_run_scenario_command(capsys):
    code = main(["run", "--scenario", "baseline_traffic",
                 "--duration", "30", "--warmup", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "== scenario baseline_traffic ==" in out
    assert "p99.9" in out


def test_run_scenario_json_records_the_name(capsys):
    code = main(["run", "--scenario", "baseline_traffic",
                 "--duration", "30", "--warmup", "10", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "scenario"
    assert payload["scenario"] == "baseline_traffic"


def test_run_scenario_with_faults(capsys):
    code = main(["run", "--scenario", "baseline_traffic",
                 "--duration", "40", "--warmup", "10",
                 "--faults", "crash"])
    assert code == 0


def test_run_rejects_experiment_plus_scenario(capsys):
    assert main(["run", "fig8", "--scenario", "baseline_traffic"]) == 2
    assert "not both" in capsys.readouterr().err


def test_run_requires_experiment_or_scenario(capsys):
    assert main(["run"]) == 2
    assert "--scenario" in capsys.readouterr().err


def test_run_unknown_scenario(capsys):
    assert main(["run", "--scenario", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_scenarios_show_unknown_name_suggests_close_match(capsys):
    assert main(["scenarios", "show", "elastic_scal"]) == 2
    err = capsys.readouterr().err
    assert "did you mean" in err
    assert "elastic_scale" in err


def test_run_unknown_scenario_suggests_close_match(capsys):
    assert main(["run", "--scenario", "baseline_trafic"]) == 2
    err = capsys.readouterr().err
    assert "did you mean" in err
    assert "baseline_traffic" in err


def test_cluster_show_renders_spec(capsys):
    assert main(["cluster", "show"]) == 0
    out = capsys.readouterr().out
    assert "== cluster spec of elastic_scale ==" in out
    assert "phi threshold" in out
    assert "join" in out and "leave" in out


def test_cluster_show_json_roundtrips(capsys):
    assert main(["cluster", "show", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    spec = scenario("elastic_scale")
    assert ClusterSpec.from_dict(payload) == spec.cluster
    # the membership table, from the scenario's fault plan
    membership = [FaultSpec(**entry) for entry in payload["membership"]]
    assert membership == list(spec.faults)[:2]
    assert [f.kind for f in membership] == ["node_join", "node_leave"]


def test_closed_stdout_pipe_ends_without_a_traceback():
    """``repro ... | head`` closing the pipe early is exit 1 and a quiet
    stderr: the read end is closed before the child starts, so every
    write to stdout fails."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "scenarios", "list", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.decode() == ""


def test_cluster_rejects_scenarios_without_a_cluster_layer(capsys):
    assert main(["cluster", "show", "baseline_traffic"]) == 2
    assert "no cluster layer" in capsys.readouterr().err


def test_cluster_rejects_unknown_scenario(capsys):
    assert main(["cluster", "show", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cluster_run_audits_and_passes(capsys):
    code = main(["cluster", "run", "--duration", "90", "--warmup", "20",
                 "--no-cache"])
    assert code == 0
    out = capsys.readouterr().out
    assert "== cluster run: elastic_scale ==" in out
    assert "cluster audit: PASS" in out
    assert "rebalance:scale-out:+4" in out


def test_cluster_run_json(capsys):
    code = main(["cluster", "run", "--duration", "90", "--warmup", "20",
                 "--no-cache", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "elastic_scale"
    assert payload["invariant_violations"] == []
    assert payload["cluster"]["unowned_partitions"] == []


# ----------------------------------------------------------------------
# the front door: command table, goldens, one error boundary
# ----------------------------------------------------------------------


def test_parser_structure_matches_golden():
    """Every flag, default, choice and help string the if-chain parser
    declared, the command table declares."""
    golden = json.loads(PARSER_GOLDEN.read_text())
    structure = json.loads(json.dumps(parser_structure(build_parser())))
    assert sorted(structure) == sorted(golden)
    for name in golden:
        assert structure[name] == golden[name], name


@pytest.mark.parametrize("command", STDOUT_COMMANDS)
def test_stdout_matches_golden(command, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    golden = json.loads(STDOUT_GOLDEN.read_text())[command]
    assert main(command.split()) == golden["exit"]
    assert capsys.readouterr().out == golden["stdout"]


@pytest.mark.parametrize("argv, env", [
    # the run completes, then the cache directory is a file in the way
    (["run", "--scenario", "baseline_traffic", "--duration", "4",
      "--warmup", "1"], {"REPRO_CACHE_DIR": "{tmp}/a-file"}),
    (["run"], {}),
    (["run", "fig8", "--faults", "nosuchpreset", "--duration", "4",
      "--warmup", "1"], {}),
    (["sync", "--static-only", "--dynamic-only"], {}),
    (["sync", "--static-only", "--trace-file", "{tmp}/a-file"], {}),
    # too short a run for Figure 7's burst window
    (["run", "fig7", "--duration", "12", "--warmup", "4"], {}),
])
def test_bad_input_is_an_error_line_not_a_traceback(
    argv, env, capsys, monkeypatch, tmp_path
):
    """One ``except ReproError`` boundary: every entry path reports a
    configuration mistake as ``error: ...`` with exit 2."""
    (tmp_path / "a-file").write_text("")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    env = {name: value.format(tmp=tmp_path) for name, value in env.items()}
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert all(value in err for value in env.values())  # names the culprit


@pytest.mark.parametrize("argv", [
    ["run", "fig8", "--duration", "10", "--warmup", "20"],
    ["run", "fig8", "--faults", "crash", "--duration", "10", "--warmup", "10"],
    ["run", "--scenario", "baseline_traffic", "--duration", "10",
     "--warmup", "-1"],
    ["trace", "fig8", "--duration", "-4", "--warmup", "0"],
    ["cluster", "run", "--duration", "0", "--warmup", "0"],
])
def test_bad_run_window_names_both_flags(argv, capsys, monkeypatch):
    """A warmup at or past the duration, or a negative value, is an
    error line naming both flags, raised before anything simulates."""
    from repro.stream.engine import StreamJob

    def no_run(job, duration):
        raise AssertionError("simulated a run with a bad window")

    monkeypatch.setattr(StreamJob, "run", no_run)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--warmup" in err and "--duration" in err


def test_command_table_is_the_parser():
    import repro.experiments.cli as cli

    structure = parser_structure(build_parser())
    assert list(structure) == list(cli.COMMANDS)
    for name, row in cli.COMMANDS.items():
        assert row.name == name
        assert row.help.strip()
        assert structure[name]["help"] == row.help
    # no usage text names a command the table lacks
    root = Path(__file__).parent.parent
    usage = cli.__doc__ + "".join(
        (root / name).read_text()
        for name in ("README.md", ".github/workflows/ci.yml")
    )
    named = set(re.findall(r"python -m repro ([a-z]+)", usage))
    assert named and named <= set(cli.COMMANDS)
