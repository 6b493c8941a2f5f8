"""Tests for the instrumentation pipeline: probe bus, probes, telemetry flow.

Covers the probe-bus contract (ordering, attach/detach, emitter resolution),
the probes-off fast path (slots stay ``None``, results bit-identical with
probes on or off), the built-in probes' payloads, and telemetry threading
through specs, the sweep-runner cache, and the report analysis layer.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.harness import ExperimentSpec, run_experiment
from repro.experiments.parallel import SweepRunner, spec_fingerprint
from repro.instrument import (
    HOOKS,
    LinkUtilizationProbe,
    ProbeBus,
    QConvergenceProbe,
    QueueOccupancyProbe,
    SourceLatencyProbe,
    available_probes,
    canonical_probe_name,
    jain_fairness_index,
    make_probe,
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


class _RecordingProbe:
    """Minimal probe capturing one hook's events."""

    def __init__(self, hook: str, log: list, tag: str) -> None:
        self.hook = hook
        self.log = log
        self.tag = tag

    def subscriptions(self):
        return {self.hook: self._on_event}

    def _on_event(self, *args) -> None:
        self.log.append((self.tag, args))

    def summary(self, end_ns: float):
        return {"events": len(self.log)}


# ------------------------------------------------------------------ probe bus
def test_bus_rejects_unknown_hook_and_non_callable():
    bus = ProbeBus()
    with pytest.raises(ValueError, match="unknown probe hook"):
        bus.subscribe("no-such-hook", lambda: None)
    with pytest.raises(TypeError, match="must be callable"):
        bus.subscribe("link_busy", 42)
    with pytest.raises(ValueError, match="not subscribed"):
        bus.unsubscribe("link_busy", lambda: None)


def test_bus_emitter_resolution_none_single_multi():
    bus = ProbeBus()
    assert bus.emitter("link_busy") is None
    assert bus.is_idle

    def listener(*args):
        pass

    bus.subscribe("link_busy", listener)
    # Exactly one listener: the emitter IS the listener (no wrapper frame).
    assert bus.emitter("link_busy") is listener
    bus.subscribe("link_busy", lambda *a: None)
    fan_out = bus.emitter("link_busy")
    assert fan_out is not listener and callable(fan_out)
    assert bus.listener_count("link_busy") == 2


def test_bus_attach_detach_ordering():
    """Listeners fire in attach order; detaching one keeps the others' order."""
    bus = ProbeBus()
    log: list = []
    first = _RecordingProbe("packet_delivered", log, "first")
    second = _RecordingProbe("packet_delivered", log, "second")
    third = _RecordingProbe("packet_delivered", log, "third")
    for probe in (first, second, third):
        bus.attach(probe)
    bus.emitter("packet_delivered")("pkt", 1.0)
    assert [tag for tag, _ in log] == ["first", "second", "third"]

    log.clear()
    bus.detach(second)
    bus.emitter("packet_delivered")("pkt", 2.0)
    assert [tag for tag, _ in log] == ["first", "third"]

    log.clear()
    bus.attach(second)  # re-attach lands at the back, not its old slot
    bus.emitter("packet_delivered")("pkt", 3.0)
    assert [tag for tag, _ in log] == ["first", "third", "second"]


def test_bus_emitter_is_snapshot():
    """A resolved emitter must not see later subscriptions (slots re-sync)."""
    bus = ProbeBus()
    log: list = []
    bus.attach(_RecordingProbe("q_update", log, "a"))
    bus.attach(_RecordingProbe("q_update", log, "b"))
    stale = bus.emitter("q_update")
    bus.attach(_RecordingProbe("q_update", log, "c"))
    stale(1, 2, 3, 0.0, 1.0, 5.0)
    assert [tag for tag, _ in log] == ["a", "b"]


def test_all_hooks_documented():
    assert set(HOOKS) == {
        "packet_generated", "packet_injected", "packet_delivered",
        "link_busy", "credit_stall", "queue_depth", "q_update",
    }


# ----------------------------------------------------- delivery listener fix
def test_two_delivery_listeners_both_fire():
    """Bus listeners stack: none replaces another or the stats collector."""
    net = _tiny_network("MIN")
    first_log: list = []
    second_log: list = []
    net.attach_probe(_RecordingProbe("packet_delivered", first_log, "one"))
    net.attach_probe(_RecordingProbe("packet_delivered", second_log, "two"))
    _drive(net, until=6_000.0)
    assert net.collector.delivered > 0  # the default collector still counts
    assert len(first_log) == net.collector.delivered
    assert len(second_log) == net.collector.delivered


def test_detach_probe_stops_events():
    net = _tiny_network("MIN")
    log: list = []
    probe = net.attach_probe(_RecordingProbe("packet_delivered", log, "p"))
    net.detach_probe(probe)
    _drive(net, until=6_000.0)
    assert log == []
    assert net.collector.delivered > 0


# ------------------------------------------------------- probes-off fast path
def test_probes_off_slots_are_none():
    net = _tiny_network("Q-adp")
    for router in net.routers:
        assert router._ev_link_busy is None
        assert router._ev_credit_stall is None
        assert router._ev_queue_depth is None
    for nic in net.nics:
        assert nic._ev_injected is None
    assert net.routing._ev_q_update is None
    # The collector keeps generation/delivery monomorphic: the slots are its
    # bound methods, not fan-out wrappers.
    assert net._ev_generated == net.collector.record_generated
    assert net.nics[0]._ev_delivery == net.collector.record_delivery


def test_probes_do_not_change_results():
    """Attaching every probe must not move a single event or statistic."""
    def run(with_probes: bool):
        net = _tiny_network("Q-adp", seed=11)
        if with_probes:
            for name in available_probes():
                net.attach_probe(make_probe(name, bin_ns=500.0, warmup_ns=2_000.0))
        _drive(net, until=10_000.0)
        return net.sim.events_processed, net.finalize()

    events_off, stats_off = run(False)
    events_on, stats_on = run(True)
    assert events_on == events_off
    assert stats_on == stats_off


# ------------------------------------------------------------- built-in probes
def test_link_utilization_probe_payload():
    net = _tiny_network("MIN")
    probe = net.attach_probe(LinkUtilizationProbe(bin_ns=1_000.0))
    _drive(net)
    payload = probe.summary(net.sim.now)
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
    net = _tiny_network("MIN")
    probe = net.attach_probe(SourceLatencyProbe(warmup_ns=3_000.0))
    _drive(net)
    payload = probe.summary(net.sim.now)
    assert payload["groups_observed"] == net.topo.g
    assert 0.0 < payload["jain_fairness_mean"] <= 1.0
    group = payload["groups"][0]
    assert group["count"] > 0 and group["p99"] >= group["p95"] >= group["mean"] * 0.0
    assert payload["measured_packets"] <= net.collector.delivered


def test_q_convergence_probe_counts_updates():
    net = _tiny_network("Q-adp")
    probe = net.attach_probe(QConvergenceProbe(bin_ns=1_000.0))
    _drive(net)
    payload = probe.summary(net.sim.now)
    assert payload["updates"] == net.routing.feedback_applied
    assert payload["routers_learning"] <= net.topo.num_routers
    assert sum(r["updates"] for r in payload["routers"]) == payload["updates"]
    assert payload["series"]["mean"], "binned |dQ| series must not be empty"


def test_queue_occupancy_probe_records_contention():
    net = _tiny_network("MIN", seed=5)
    probe = net.attach_probe(QueueOccupancyProbe(bin_ns=1_000.0))
    _drive(net, until=15_000.0, load=0.9)
    payload = probe.summary(net.sim.now)
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


def test_bus_attach_is_all_or_nothing():
    """A probe with one bad subscription must not end up half-attached."""
    bus = ProbeBus()

    class _Broken:
        def subscriptions(self):
            return {"packet_delivered": lambda p, t: None, "link_busy": 42}

    with pytest.raises(TypeError, match="must be callable"):
        bus.attach(_Broken())
    assert bus.listener_count("packet_delivered") == 0
    assert bus.is_idle


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
