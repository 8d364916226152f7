"""Runtime sanitizer tests: race detection and ordering checks."""

import random

import pytest

from repro.experiments.parallel import RunSpec, spec_cache_key
from repro.experiments.runner import ExperimentSettings
from repro.sanitize import (
    OrderingReport,
    ProbeTarget,
    RaceReport,
    check_cache_key_stability,
    check_summary_order_independence,
    detect_races,
    reorder,
    sanitize_experiment,
)
from repro.serialize import from_dict, to_dict
from repro.sim.events import TIE_BREAKS, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.process import spawn
from repro.trace import Tracer

# ----------------------------------------------------------------------
# kernel tie-breaking
# ----------------------------------------------------------------------


def test_tie_break_modes_only_reorder_equal_keys():
    order = {}
    for mode in TIE_BREAKS:
        queue = EventQueue(tie_break=mode)
        fired = []
        queue.push(1.0, lambda m=None: fired.append("a"))
        queue.push(1.0, lambda m=None: fired.append("b"))
        queue.push(0.5, lambda m=None: fired.append("early"))
        queue.push(1.0, lambda m=None: fired.append("urgent"), priority=-10)
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback(*event.args)
        order[mode] = fired
    # Time and priority always dominate; only equal-key order flips.
    assert order["fifo"] == ["early", "urgent", "a", "b"]
    assert order["lifo"] == ["early", "urgent", "b", "a"]


def test_unknown_tie_break_rejected():
    with pytest.raises(Exception):
        EventQueue(tie_break="random")


def test_spawn_priority_orders_same_time_wakeups():
    for mode in TIE_BREAKS:
        sim = Simulator(tie_break=mode)
        fired = []

        def ticker(tag):
            yield 1.0
            fired.append(tag)

        spawn(sim, ticker("normal"))
        spawn(sim, ticker("urgent"), priority=-10)
        sim.run()
        assert fired == ["urgent", "normal"], mode
        fired.clear()


# ----------------------------------------------------------------------
# race detection
# ----------------------------------------------------------------------


def _planted_race_factory(tie_break):
    """Two same-timestamp events whose order changes the result."""
    sim = Simulator(seed=1, tracer=Tracer(categories={"kernel"}),
                    tie_break=tie_break)
    state = {"value": 0}

    def add():
        state["value"] += 10

    def double():
        state["value"] *= 2

    sim.schedule(1.0, add)
    sim.schedule(1.0, double)
    return ProbeTarget(sim=sim, digest=lambda: dict(state),
                       run=lambda duration: sim.run(until=duration))


def _tie_robust_factory(tie_break):
    """Two same-timestamp events that commute."""
    sim = Simulator(seed=1, tracer=Tracer(categories={"kernel"}),
                    tie_break=tie_break)
    state = {"value": 0}
    sim.schedule(1.0, lambda: state.__setitem__("value", state["value"] + 1))
    sim.schedule(1.0, lambda: state.__setitem__("value", state["value"] + 2))
    return ProbeTarget(sim=sim, digest=lambda: dict(state),
                       run=lambda duration: sim.run(until=duration))


def test_planted_race_is_detected_and_localized():
    report = detect_races(_planted_race_factory, duration_s=2.0,
                          window_s=1.0, label="planted")
    assert not report.ok
    assert report.divergent_windows >= 1
    divergence = report.divergences[0]
    # The report names both conflicting events at the divergent dispatch.
    assert "add" in divergence.baseline_event["name"]
    assert "double" in divergence.perturbed_event["name"]
    assert divergence.baseline_event["time"] == pytest.approx(1.0)
    assert divergence.state_delta["value"] == {"baseline": 20, "perturbed": 10}
    rendered = report.render()
    assert "DIVERGENCE" in rendered and "add" in rendered


def test_tie_robust_model_passes():
    report = detect_races(_tie_robust_factory, duration_s=2.0, window_s=1.0)
    assert report.ok
    assert report.divergences == []
    assert "no divergence" in report.render()


def test_race_report_roundtrips_through_serialize():
    report = detect_races(_planted_race_factory, duration_s=2.0, window_s=1.0)
    revived = from_dict("RaceReport", to_dict(report))
    assert isinstance(revived, RaceReport)
    assert revived.to_dict() == report.to_dict()
    assert not revived.ok


# ----------------------------------------------------------------------
# ordering checks
# ----------------------------------------------------------------------


def test_reorder_preserves_content():
    data = {"b": [1, {"y": 2, "x": 3}], "a": {"k": (4, 5)}}
    shuffled = reorder(data, random.Random(0))
    assert shuffled == data  # == ignores dict order
    assert shuffled is not data


def test_cache_key_stability_for_real_spec():
    spec = RunSpec(scenario="baseline_wordcount",
                   settings=ExperimentSettings(duration_s=16.0, seed=3))
    check = check_cache_key_stability(spec, perturbations=6)
    assert check.ok
    assert check.perturbations == 6
    assert spec_cache_key(spec) == spec_cache_key(
        RunSpec(scenario="baseline_wordcount",
                settings=ExperimentSettings(duration_s=16.0, seed=3)))


def test_order_dependent_serialization_is_caught():
    class OrderLeaky:
        """to_dict leaks dict insertion order into a list — a bug."""

        def __init__(self, payload):
            self.payload = dict(payload)

        def to_dict(self):
            return {"payload": self.payload,
                    "key_order": list(self.payload)}

        @classmethod
        def from_dict(cls, data):
            return cls(data["payload"])

    check = check_summary_order_independence(
        OrderLeaky({"a": 1, "b": 2, "c": 3}), perturbations=8
    )
    assert not check.ok
    assert "insertion order" in check.detail


# ----------------------------------------------------------------------
# the headline run is race-free
# ----------------------------------------------------------------------


def test_wordcount_headline_run_is_sanitize_clean():
    report = sanitize_experiment(kind="wordcount", duration_s=16.0,
                                 window_s=2.0, seed=1)
    assert report.ok, report.render()
    assert report.race.ok and report.race.windows == 8
    # Both probes executed the same work, just in a perturbed order.
    assert report.race.events_fired[0] == report.race.events_fired[1]
    assert report.ordering.ok
    names = {check.name for check in report.ordering.checks}
    assert names == {"cache-key-stability", "summary-order-independence"}
    revived = from_dict("SanitizeReport", to_dict(report))
    assert revived.ok and revived.race.windows == 8


def test_cli_sanitize_command(capsys):
    import json

    from repro.experiments.cli import main

    assert main(["sanitize", "--duration", "8", "--window", "2"]) == 0
    out = capsys.readouterr().out
    assert "sanitize: PASS" in out
    assert main(["sanitize", "--duration", "8", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["race"]["divergent_windows"] == 0


# ----------------------------------------------------------------------
# the mitigation zoo is race-free (slow lane: run with `-m slow`)
# ----------------------------------------------------------------------


from repro.core.mitigation import MitigationPlan  # noqa: E402
from repro.lsm import policy_names  # noqa: E402
from repro.scenarios import scenario  # noqa: E402


@pytest.mark.slow
@pytest.mark.parametrize("policy", policy_names())
def test_policy_matrix_is_sanitize_clean(policy):
    """Schedule perturbation finds no divergence under any zoo policy."""
    report = sanitize_experiment(
        kind=scenario("baseline_wordcount",
                      mitigation=MitigationPlan(compaction_policy=policy)),
        duration_s=16.0, window_s=2.0, seed=1,
    )
    assert report.ok, report.render()
    assert report.race.events_fired[0] == report.race.events_fired[1]
