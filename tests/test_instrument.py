"""Tests for the instrumentation pipeline: run logs, probes, telemetry flow.

Covers keeping run logs on a network (validation, accumulation, live
arrays), the probes-off fast path (log slots stay ``None``, results
bit-identical with probes on or off), the built-in probes' payloads, and
telemetry threading through specs, the sweep-runner cache, and the report
analysis layer.  ``tests/test_probe_reducers.py`` checks every reduction
against a per-event reference.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.harness import ExperimentSpec, run_experiment
from repro.experiments.parallel import SweepRunner, spec_fingerprint
from repro.instrument import (
    available_probes,
    canonical_probe_name,
    jain_fairness_index,
    make_probe,
    probe_context,
)
from repro.instrument.report import analyze_document, export_payload, render_report
from repro.network.network import Network
from repro.routing import make_routing
from repro.topology.config import DragonflyConfig
from repro.traffic import TrafficGenerator, UniformRandomTraffic


def _strict_loads(text: str):
    """json.loads that rejects NaN/Infinity tokens (strict JSON)."""
    def reject(token):
        raise ValueError(f"non-strict JSON token {token!r}")

    return json.loads(text, parse_constant=reject)


def _tiny_network(routing_name: str = "Q-adp", seed: int = 3) -> Network:
    return Network(DragonflyConfig.tiny(), make_routing(routing_name), seed=seed)


def _drive(net: Network, until: float = 12_000.0, load: float = 0.6) -> None:
    generator = TrafficGenerator(net, UniformRandomTraffic(), offered_load=load)
    generator.start()
    net.run(until=until)


def _record(net: Network, *names: str):
    """Keep the logs of the named probes; returns the end-of-run reduction."""
    probes = {name: make_probe(name) for name in names}
    logs = net.record_logs(log for probe in probes.values() for log in probe.logs)
    return lambda: {name: probe.summary(logs, probe_context(net))
                    for name, probe in probes.items()}


# ------------------------------------------------------------------ run logs
def test_record_logs_rejects_unknown_names():
    net = _tiny_network("MIN")
    with pytest.raises(ValueError, match="unknown run log"):
        net.record_logs(["forward", "no-such-log"])
    # Validated before anything is allocated.
    assert net.routers[0]._forward_log is None


def test_record_logs_is_cumulative_and_live():
    net = _tiny_network("Q-adp")
    first = net.record_logs(["forward"])
    second = net.record_logs(["source", "q_update"])
    assert second.forward is first.forward
    assert all(router._forward_log is first.forward for router in net.routers)
    assert second.source is net.collector.dl_src and second.join is None
    _drive(net, until=6_000.0)
    assert len(first.forward.port) == sum(
        r.forwarded_packets + r.ejected_packets for r in net.routers)
    assert len(second.source) == net.collector.delivered > 0
    assert len(second.q_update.router) == net.routing.feedback_applied


def test_two_delivery_listeners_both_fire():
    """Two probes over the delivery log both see every delivery, and the
    collector still counts them."""
    net = _tiny_network("MIN")
    reduce = _record(net, "fault-delivery", "reconvergence")
    _drive(net, until=6_000.0)
    telemetry = reduce()
    assert net.collector.delivered > 0
    assert telemetry["fault-delivery"]["delivered"] == net.collector.delivered
    assert sum(telemetry["reconvergence"]["series"]["count"]) == net.collector.delivered


# ------------------------------------------------------- probes-off fast path
def test_probes_off_slots_are_none():
    net = _tiny_network("Q-adp")
    for router in net.routers:
        assert router._forward_log is None
        assert router._join_log is None
    assert net.routing._q_log is None
    assert net.collector.dl_src is None and net.collector.gen_create is None
    # The collector records through plain slots set at build time.
    assert net._record_generated == net.collector.record_generated
    assert all(nic._record_delivery == net.collector.record_delivery for nic in net.nics)


def test_probes_do_not_change_results():
    """Keeping every probe's logs must not move a single event or statistic."""
    def run(with_probes: bool):
        net = _tiny_network("Q-adp", seed=11)
        if with_probes:
            _record(net, *available_probes())
        _drive(net, until=10_000.0)
        return net.sim.events_processed, net.finalize()

    events_off, stats_off = run(False)
    events_on, stats_on = run(True)
    assert events_on == events_off
    assert stats_on == stats_off


# ------------------------------------------------------------- built-in probes
def test_link_utilization_probe_payload():
    net = _tiny_network("MIN")
    reduce = _record(net, "link-util")
    _drive(net)
    payload = reduce()["link-util"]
    assert payload["links_total"] == net.topo.num_routers * net.topo.k
    assert 0 < payload["links_observed"] <= payload["links_total"]
    top = payload["links"][0]
    assert 0.0 < top["busy_fraction"] <= 1.0
    assert top["kind"] in ("host", "local", "global")
    # Busy time == forwarded packets x serialization time for every link.
    assert top["busy_ns"] == pytest.approx(
        top["packets"] * net.params.serialization_ns)
    json.dumps(payload)  # JSON-ready


def test_source_latency_probe_fairness():
    net = Network(DragonflyConfig.tiny(), make_routing("MIN"), seed=3, warmup_ns=3_000.0)
    reduce = _record(net, "source-latency")
    _drive(net)
    payload = reduce()["source-latency"]
    assert payload["groups_observed"] == net.topo.g
    assert 0.0 < payload["jain_fairness_mean"] <= 1.0
    group = payload["groups"][0]
    assert group["count"] > 0 and group["p99"] >= group["p95"] >= group["mean"] * 0.0
    assert payload["measured_packets"] <= net.collector.delivered


def test_q_convergence_probe_counts_updates():
    net = _tiny_network("Q-adp")
    reduce = _record(net, "q-convergence")
    _drive(net)
    payload = reduce()["q-convergence"]
    assert payload["updates"] == net.routing.feedback_applied
    assert payload["routers_learning"] <= net.topo.num_routers
    assert sum(r["updates"] for r in payload["routers"]) == payload["updates"]
    assert payload["series"]["mean"], "binned |dQ| series must not be empty"


def test_queue_occupancy_probe_records_contention():
    net = _tiny_network("MIN", seed=5)
    reduce = _record(net, "queue-occupancy")
    _drive(net, until=15_000.0, load=0.9)
    payload = reduce()["queue-occupancy"]
    assert payload["samples"] > 0
    assert payload["max_depth"] >= 1
    assert payload["routers"][0]["max_depth"] == payload["max_depth"]


def test_probe_registry_canonical_names():
    assert canonical_probe_name("fairness") == "source-latency"
    assert canonical_probe_name("LINKS") == "link-util"
    assert canonical_probe_name("q_conv") == "q-convergence"
    with pytest.raises(ValueError, match="unknown telemetry probe"):
        make_probe("no-such-probe")
    assert list(available_probes()) == [
        "link-util", "queue-occupancy", "source-latency", "q-convergence",
        "fault-delivery", "reconvergence"]


def test_jain_fairness_index():
    assert jain_fairness_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert jain_fairness_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
    assert jain_fairness_index([0.0, 0.0]) == 1.0
    assert jain_fairness_index([]) != jain_fairness_index([])  # NaN


# --------------------------------------------------------- spec + cache flow
def _telemetry_spec(**overrides) -> ExperimentSpec:
    kwargs = dict(
        config=DragonflyConfig.tiny(),
        routing="Q-adp",
        pattern="UR",
        offered_load=0.5,
        sim_time_ns=8_000.0,
        warmup_ns=3_000.0,
        seed=4,
        telemetry=("fairness", "link-util", "q-conv"),
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def test_spec_telemetry_canonicalised_and_serialized():
    spec = _telemetry_spec()
    assert spec.telemetry == ("source-latency", "link-util", "q-convergence")
    data = spec.to_dict()
    assert data["schema"] == 5
    assert data["telemetry"] == ["source-latency", "link-util", "q-convergence"]
    assert ExperimentSpec.from_dict(data) == spec
    with pytest.raises(ValueError, match="unknown telemetry probe"):
        _telemetry_spec(telemetry=("bogus",))


def test_spec_v2_documents_are_rejected():
    data = _telemetry_spec(telemetry=()).to_dict()
    assert "telemetry" not in data
    assert ExperimentSpec.from_dict(data).telemetry == ()
    data["schema"] = 2
    with pytest.raises(ValueError, match=r"ExperimentSpec: unsupported schema version 2 "
                                         r"\(this build reads version 5\)"):
        ExperimentSpec.from_dict(data)


def test_telemetry_changes_fingerprint():
    assert spec_fingerprint(_telemetry_spec()) != \
        spec_fingerprint(_telemetry_spec(telemetry=()))
    # ... but not the simulation: same stats with and without probes.
    with_probes = run_experiment(_telemetry_spec())
    without = run_experiment(_telemetry_spec(telemetry=()))
    assert with_probes.stats == without.stats
    assert set(with_probes.telemetry) == {
        "source-latency", "link-util", "q-convergence"}
    assert without.telemetry == {}


def test_runner_cache_round_trips_telemetry(tmp_path):
    spec = _telemetry_spec()
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    first = runner.run_one(spec)
    assert runner.simulated == 1 and first.telemetry
    again = runner.run_one(spec)
    assert runner.cache_hits == 1 and runner.simulated == 1
    assert again.telemetry == first.telemetry


# ------------------------------------------------------------- report layer
def _result_document() -> dict:
    result = run_experiment(_telemetry_spec(telemetry=(
        "source-latency", "link-util", "queue-occupancy", "q-convergence")))
    return {
        "study": "unit",
        "description": "unit-test study",
        "rows": [result.summary_row()],
        "telemetry": [{
            "scenario": "s", "replicate": 0,
            "routing": result.spec.routing, "pattern": result.spec.pattern,
            "offered_load": result.spec.offered_load,
            "telemetry": result.telemetry,
        }],
    }


def test_report_render_and_export():
    doc = _result_document()
    analysis = analyze_document(doc)
    assert len(analysis["runs"]) == 1
    run = analysis["runs"][0]
    assert {"link_utilization", "fairness", "queues", "convergence"} <= set(run)
    text = render_report(doc)
    for section in ("Per-link utilization", "Source-group fairness",
                    "Queue occupancy", "Q-convergence", "Jain fairness"):
        assert section in text
    _strict_loads(json.dumps(export_payload(doc)))


def test_report_rejects_documents_without_telemetry(tmp_path):
    from repro.instrument.report import load_result_document

    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"study": "x", "rows": []}))
    with pytest.raises(ValueError, match="carries no telemetry"):
        load_result_document(path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_result_document(bad)


def test_report_max_rows_one_does_not_crash():
    doc = _result_document()
    analysis = analyze_document(doc, max_rows=1)
    run = analysis["runs"][0]
    assert len(run["convergence"]["trace"]) == 1
    assert len(run["link_utilization"]["top_links"]) == 1
    assert "Q-convergence" in render_report(doc, max_rows=1)


def test_study_documents_written_at_schema_5_and_v2_is_rejected():
    from repro.scenarios.study import Scenario, Study

    study = Study(
        name="schema-check", config=DragonflyConfig.tiny(),
        telemetry=("link-util",),
        scenarios=[Scenario(name="s", loads=(0.3,))],
    )
    data = study.to_dict()
    assert data["schema"] == 5 and data["telemetry"] == ["link-util"]
    assert Study.from_dict(data).to_dict() == data
    # telemetry is optional; a schema-2 document is not readable.
    bare = {k: v for k, v in data.items() if k != "telemetry"}
    clone = Study.from_dict(bare)
    assert clone.telemetry == () and clone.specs()[0].telemetry == ()
    with pytest.raises(ValueError, match=r"Study: unsupported schema version 2 "
                                         r"\(this build reads version 5\)"):
        Study.from_dict({**bare, "schema": 2})
