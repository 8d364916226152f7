"""Determinism goldens for the kernel hot-path optimizations.

Every stateful instance's accounting tick runs from one batched process
(``StreamJob._account_all_loop``).  It replaced one process per
instance, and ``tests/data/accounting_golden.json`` pins the end state
both paths produced: it was written by
``tests/make_accounting_golden.py`` at the commit before the
per-instance path was deleted, only after both paths gave the same
``digest_hash(state_digest(job))`` on every pinned job.

The many-flow regime (a node CPU shared by ≥ 8 fluid flows) is pinned
by ``tests/data/many_flow_golden.json``, recorded while a separate
numpy reallocation path still served it.

Regenerate either file (``PYTHONPATH=src python tests/make_*_golden.py``)
only after a deliberate change to what the model computes.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.experiments.runner import ExperimentSettings
from repro.experiments.summary import summarize_run
from repro.sanitize.racedetect import digest_hash, state_digest
from repro.scenarios import build_scenario_job, run_scenario, scenario
from repro.serialize import canonical_json
from repro.sim import FluidFlow, ProcessorSharingResource, ResourceTask
from repro.sim.kernel import Simulator

DURATION = 40.0
DATA = Path(__file__).parent / "data"
ACCOUNTING_GOLDEN = DATA / "accounting_golden.json"
MANY_FLOW_GOLDEN = DATA / "many_flow_golden.json"
ELASTIC_SCALE = ExperimentSettings(duration_s=200.0, warmup_s=40.0, seed=1)
MULTI_TENANT = ExperimentSettings(duration_s=40.0, warmup_s=8.0, seed=7)


def _digest(job):
    return digest_hash(state_digest(job))


def multi_tenant_digest() -> dict:
    """End-state digest of a seeded ``multi_tenant`` run plus one sha256
    per summary field (a mismatch names the field that moved)."""
    result = run_scenario("multi_tenant", MULTI_TENANT)
    state = _digest(result.job)
    summary = summarize_run(result, MULTI_TENANT, scenario="multi_tenant")
    body = summary.to_dict()
    del body["label"]
    return {
        "state_digest": state,
        "summary_sha256": {
            key: hashlib.sha256(canonical_json(value).encode()).hexdigest()
            for key, value in sorted(body.items())
        },
    }


def synthetic_many_flow_digest() -> dict:
    """64 flows on a 16-core pool, with task bursts that push total
    demand past capacity (scale < 1), so flows escalate, back up and
    drain again.  Hashes every recorded segment field as ``float.hex``."""
    sim = Simulator(seed=7)
    cpu = ProcessorSharingResource(sim, "cpu", 16.0)
    flows = [
        FluidFlow(sim, f"f{i}", 1e-4 * (1 + i % 2), 1.0 + i % 2)
        for i in range(64)
    ]
    for i, flow in enumerate(flows):
        cpu.add_flow(flow)
        flow.set_arrival_rate(1000.0 + 100.0 * (i % 5))
    step = [0]

    def tick():
        i = step[0]
        step[0] += 1
        flows[(7 * i) % 64].set_arrival_rate(900.0 + 150.0 * (i % 6))
        if i % 7 == 0:
            flows[(3 * i) % 64].set_blocked_fraction(0.5 * (i % 2))
        if i % 10 == 0:
            for k in range(3):
                cpu.submit(ResourceTask(f"t{i}.{k}", "compaction", 0.4, 2.0))
        if i < 100:
            sim.schedule(sim.now + 0.05, tick)

    sim.schedule(0.0, tick)
    sim.run(until=6.0)
    digest = hashlib.sha256()
    count = 0
    for flow in flows:
        for seg in flow.segments:
            fields = (seg.time, seg.arrival_rate, seg.serve_rate,
                      seg.queue, seg.blocked, seg.alloc)
            digest.update((",".join(float(v).hex() for v in fields) + "\n").encode())
            count += 1
    return {"segments": count, "segments_sha256": digest.hexdigest()}


def accounting_golden() -> dict:
    """End-state digests of the two jobs that pin accounting: a seeded
    traffic job, and ``elastic_scale``, whose node joins (60 s) and
    leaves (150 s) make the batched loop rebuild its per-instance
    entries mid-run."""
    traffic = build_scenario_job("baseline_traffic", seed=5)
    traffic.run(DURATION)
    elastic = run_scenario("elastic_scale", ELASTIC_SCALE)
    return {
        "elastic_scale_seed1_200s": _digest(elastic.job),
        "traffic_seed5_40s": _digest(traffic),
    }


def many_flow_golden() -> dict:
    return {
        "multi_tenant": multi_tenant_digest(),
        "synthetic_64_flows": synthetic_many_flow_digest(),
    }


def test_accounting_runs_match_the_golden():
    golden = json.loads(ACCOUNTING_GOLDEN.read_text())
    assert accounting_golden() == golden


def test_many_flow_runs_match_the_golden():
    golden = json.loads(MANY_FLOW_GOLDEN.read_text())
    assert many_flow_golden() == golden


def test_multi_tenant_shares_a_node_cpu_among_many_flows():
    """The golden's scenario must keep covering the many-flow regime."""
    job = build_scenario_job("multi_tenant", seed=MULTI_TENANT.seed)
    flows_per_node = Counter(node for stage in job.stages for node in stage.flows)
    assert max(flows_per_node.values()) >= 8


def test_max_events_stops_after_exactly_n_dispatches():
    sim = Simulator(seed=1)
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    with pytest.raises(SimulationError):
        sim.run(max_events=3)
    assert fired == [0, 1, 2]
    assert sim.events_fired == 3


def test_max_events_equal_to_queue_is_not_an_error():
    sim = Simulator(seed=1)
    fired = []
    for i in range(4):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# the mitigation zoo is deterministic (slow lane: run with `-m slow`)
# ----------------------------------------------------------------------


from repro.core.mitigation import MitigationPlan  # noqa: E402
from repro.lsm import policy_names  # noqa: E402


@pytest.mark.slow
@pytest.mark.parametrize("policy", policy_names())
def test_policy_runs_are_digest_identical(policy):
    """Two identical seeded runs under each zoo policy end in
    bit-identical engine state."""
    digests = []
    for _ in range(2):
        spec = scenario("baseline_traffic",
                        mitigation=MitigationPlan(compaction_policy=policy))
        job = build_scenario_job(spec, seed=5)
        job.run(DURATION)
        digests.append(_digest(job))
    assert digests[0] == digests[1]
