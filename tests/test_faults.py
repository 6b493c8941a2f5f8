"""Tests for the fault-injection subsystem.

Covers the :class:`FaultSchedule` contract (validation, sorted timelines,
serialization, seeded expansion), the :class:`FaultController` guarantees
(credit-safe teardown, packet conservation, degraded-mode routing per
algorithm, bit-identical replay), the golden fault fingerprints
(``tests/data/golden_faults.json``) and the spec schema-5 migration.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.harness import ExperimentSpec, build_network, run_experiment
from repro.experiments.parallel import spec_fingerprint
from repro.faults import FaultEvent, FaultSchedule
from repro.topology.config import DragonflyConfig
from repro.topology.mesh import MeshConfig
from repro.topology.registry import topology_for

GOLDEN_FAULTS_PATH = os.path.join(os.path.dirname(__file__), "data",
                                  "golden_faults.json")

with open(GOLDEN_FAULTS_PATH) as _fh:
    GOLDEN_FAULTS = json.load(_fh)

with open(os.path.join(os.path.dirname(__file__), "data", "golden_ugal_faults.json")) as _fh:
    GOLDEN_UGAL_FAULTS = json.load(_fh)


def _first_link(config) -> tuple:
    """Canonical first connected network link of a topology: (router, port)."""
    topo = topology_for(config)
    for router in topo.all_routers():
        for port in topo.network_ports_of(router):
            if topo.neighbor_of(router, port) is not None:
                return router, port
    raise AssertionError("topology has no connected network link")


def _config_for(family: str):
    if family == "dragonfly":
        return DragonflyConfig.small_72()
    if family == "mesh":
        return MeshConfig(4, 4, 2)
    if family == "torus":
        return MeshConfig(4, 4, 2, wrap=True)
    raise AssertionError(f"unknown family {family!r}")


def _fault_spec(family: str, routing: str, *, seed: int = 11,
                schedule: FaultSchedule = None) -> ExperimentSpec:
    config = _config_for(family)
    if schedule is None:
        router, port = _first_link(config)
        schedule = FaultSchedule.single_link_failure(
            2_500.0, router, port, recover_ns=4_000.0)
    return ExperimentSpec(
        config=config,
        routing=routing,
        pattern="UR",
        offered_load=0.3,
        sim_time_ns=6_000.0,
        warmup_ns=2_000.0,
        seed=seed,
        faults=schedule,
    )


def fault_fingerprint(family: str, routing: str) -> dict:
    """One pinned fault run: stats plus the fault timeline diagnostics."""
    spec = _fault_spec(family, routing)
    network, generator = build_network(spec)
    generator.start()
    network.run(until=spec.sim_time_ns)
    stats = network.finalize()
    diag = network.fault_controller.diagnostics()
    return {
        "events_processed": network.sim.events_processed,
        "generated_packets": stats.generated_packets,
        "delivered_packets": stats.delivered_packets,
        "measured_packets": stats.measured_packets,
        "mean_latency_ns": stats.mean_latency_ns,
        "mean_hops": stats.mean_hops,
        "throughput": stats.throughput,
        "latency_p99_ns": stats.latency.p99,
        "fault_events_applied": diag["fault_events_applied"],
        "fault_packets_dropped": diag["fault_packets_dropped"],
    }


# ------------------------------------------------------- golden fingerprints
@pytest.mark.parametrize("key", sorted(GOLDEN_FAULTS))
def test_golden_fault_fingerprint_is_reproduced(key):
    """Identical seed + identical FaultSchedule ⇒ bit-identical fault run."""
    family, routing = key.split("/", 1)
    assert fault_fingerprint(family, routing) == GOLDEN_FAULTS[key]


def _ugal_fault_spec(kind: str) -> ExperimentSpec:
    """UGALn under ADV+1 with group 0's gateway to group 1 failing.

    ``kind="link"`` takes down that global link, on every minimal path out of
    group 0; ``kind="router"`` takes down the whole gateway router.
    """
    config = DragonflyConfig.small_72()
    topo = topology_for(config)
    router = topo.gateway_router(0, 1)
    if kind == "link":
        schedule = FaultSchedule.single_link_failure(
            2_500.0, router, topo.global_port_to_group(router, 1), recover_ns=4_000.0)
    else:
        schedule = FaultSchedule.router_outage(2_500.0, router, recover_ns=4_000.0)
    return ExperimentSpec(
        config=config, routing="UGALn", pattern="ADV+1", offered_load=0.3,
        sim_time_ns=6_000.0, warmup_ns=2_000.0, seed=11, faults=schedule,
    )


@pytest.mark.parametrize("kind", ["link", "router"])
def test_ugaln_under_faults_is_pinned(kind):
    """UGAL decides on ``Router.used_credits``, which reads 0 on a dead port.

    Only the router outage routes onto dead ports (packets bound for the
    dead router fall back to their healthy minimal port), so only that pin
    sees a ``used_credits`` which ignores the infinite-credit flag; the link
    failure is detoured around and pins everything else.
    """
    result = run_experiment(_ugal_fault_spec(kind))
    observed = {"stats": result.stats.to_dict(), "diagnostics": result.routing_diagnostics}
    assert observed == GOLDEN_UGAL_FAULTS[kind]


def test_fault_run_repeats_bit_identical():
    first = fault_fingerprint("dragonfly", "Q-routing")
    second = fault_fingerprint("dragonfly", "Q-routing")
    assert first == second


# ------------------------------------------------------------- FaultSchedule
def test_fault_event_validation():
    with pytest.raises(ValueError, match="fault kind"):
        FaultEvent(0.0, "meltdown", 0, 0)
    with pytest.raises(ValueError, match="cannot be negative"):
        FaultEvent(-1.0, "link_down", 0, 0)
    with pytest.raises(ValueError, match="router must be >= 0"):
        FaultEvent(0.0, "link_down", -2, 0)
    with pytest.raises(ValueError, match="needs a port"):
        FaultEvent(0.0, "link_down", 0, -1)
    with pytest.raises(ValueError, match="takes no port"):
        FaultEvent(0.0, "router_down", 0, 3)


def test_schedule_sorts_events_and_requires_one():
    with pytest.raises(ValueError, match="at least one event"):
        FaultSchedule([])
    sched = FaultSchedule([
        FaultEvent(5_000.0, "link_up", 0, 1),
        FaultEvent(1_000.0, "link_down", 0, 1),
    ])
    assert [e.kind for e in sched.events] == ["link_down", "link_up"]
    assert sched.failure_times() == [1_000.0]
    assert sched.first_failure_ns() == 1_000.0
    assert sched.max_time_ns() == 5_000.0


def test_schedule_epochs_split_on_failures():
    sched = FaultSchedule([
        FaultEvent(1_000.0, "link_down", 0, 1),
        FaultEvent(2_000.0, "link_up", 0, 1),      # recovery: no new epoch
        FaultEvent(3_000.0, "router_down", 2),
    ])
    assert sched.epochs(5_000.0) == [
        (0.0, 1_000.0), (1_000.0, 3_000.0), (3_000.0, 5_000.0)]
    # failures past the horizon do not open empty epochs
    assert sched.epochs(2_500.0) == [(0.0, 1_000.0), (1_000.0, 2_500.0)]


def test_single_link_failure_rejects_bad_recovery():
    with pytest.raises(ValueError, match="must follow the failure"):
        FaultSchedule.single_link_failure(2_000.0, 0, 1, recover_ns=2_000.0)
    with pytest.raises(ValueError, match="must follow the failure"):
        FaultSchedule.router_outage(2_000.0, 0, recover_ns=1_000.0)


def test_schedule_round_trips_and_compares():
    sched = FaultSchedule.single_link_failure(2_500.0, 3, 4, recover_ns=4_000.0)
    data = sched.to_dict()
    assert data["schema"] == 1
    clone = FaultSchedule.from_dict(json.loads(json.dumps(data)))
    assert clone == sched
    with pytest.raises(ValueError, match="unknown field"):
        FaultSchedule.from_dict({"schema": 1, "events": [], "extra": 1})
    with pytest.raises(ValueError, match="row"):
        FaultSchedule.from_dict({"schema": 1, "events": [[1.0, "link_down", 0]]})


def test_random_link_failures_are_seed_deterministic():
    topo = topology_for(DragonflyConfig.small_72())
    build = lambda seed: FaultSchedule.random_link_failures(
        topo, count=3, start_ns=1_000.0, end_ns=5_000.0, seed=seed,
        downtime_ns=500.0)
    assert build(7) == build(7)
    assert build(7) != build(8)
    sched = build(7)
    assert len(sched) == 6  # three failures, three recoveries
    # every drawn link really exists on the topology
    for event in sched.events:
        assert topo.neighbor_of(event.router, event.port) is not None


# ------------------------------------------------------------ FaultController
def test_controller_rejects_unconnected_port():
    spec = _fault_spec(
        "dragonfly", "MIN",
        schedule=FaultSchedule.single_link_failure(1_000.0, 0, 9_999))
    with pytest.raises(ValueError):
        build_network(spec)


@pytest.mark.parametrize("routing", ["MIN", "VAL", "Q-routing", "Q-adp"])
def test_degraded_routing_keeps_delivering(routing):
    """Every algorithm keeps delivering during the outage window: the dead
    link is routed around, not a black hole (a few in-flight drops aside)."""
    spec = _fault_spec("dragonfly", routing)
    result = run_experiment(spec)
    diag = result.routing_diagnostics
    assert diag["fault_events_applied"] == 2
    stats = result.stats
    # >80% delivered in a short window (VAL's two-phase paths leave more
    # packets in flight at the horizon than the minimal algorithms do).
    assert stats.delivered_packets > 0.8 * stats.generated_packets
    assert diag["fault_packets_dropped"] <= 16  # only in-flight flits die


def test_packet_conservation_under_faults():
    """No packet vanishes: delivered + dropped + still-queued == generated."""
    spec = _fault_spec("mesh", "Q-routing")
    network, generator = build_network(spec)
    generator.start()
    network.run(until=spec.sim_time_ns)
    stats = network.finalize()
    dropped = network.fault_controller.diagnostics()["fault_packets_dropped"]
    in_network = network.buffered_packets() + network.source_queued_packets()
    in_flight = (stats.generated_packets - stats.delivered_packets
                 - dropped - in_network)
    assert in_flight >= 0  # packets on the wire at the horizon
    assert stats.delivered_packets + dropped + in_network + in_flight \
        == stats.generated_packets


def test_future_fault_is_inert():
    """A schedule entirely past the horizon must not perturb the run."""
    config = DragonflyConfig.small_72()
    router, port = _first_link(config)
    base = _fault_spec("dragonfly", "Q-routing").with_overrides(faults=None)
    sleeper = base.with_overrides(faults=FaultSchedule.single_link_failure(
        1e9, router, port))
    plain = run_experiment(base)
    armed = run_experiment(sleeper)
    assert armed.stats.to_dict() == plain.stats.to_dict()
    assert armed.routing_diagnostics["fault_events_applied"] == 0


# ---------------------------------------------------- spec schema-5 migration
def _spec_doc(**overrides) -> dict:
    return _fault_spec("dragonfly", "MIN", **overrides).to_dict()


def test_fault_spec_round_trips_at_schema_5():
    data = _spec_doc()
    assert data["schema"] == 5
    clone = ExperimentSpec.from_dict(json.loads(json.dumps(data)))
    assert clone == _fault_spec("dragonfly", "MIN")
    assert clone.faults == _fault_spec("dragonfly", "MIN").faults


@pytest.mark.parametrize("legacy_schema", [1, 2, 3, 4])
def test_legacy_spec_documents_are_rejected(legacy_schema):
    """A build reads exactly the schema it writes."""
    data = _spec_doc()
    del data["faults"]
    assert ExperimentSpec.from_dict(data).faults is None
    data["schema"] = legacy_schema
    with pytest.raises(
        ValueError,
        match=rf"ExperimentSpec: unsupported schema version {legacy_schema} "
              r"\(this build reads version 5\)",
    ):
        ExperimentSpec.from_dict(data)


def test_fingerprint_folds_fault_schedule():
    """Two specs differing only in faults must not share a cache entry."""
    armed = _fault_spec("dragonfly", "MIN")
    plain = armed.with_overrides(faults=None)
    other = armed.with_overrides(faults=FaultSchedule.single_link_failure(
        armed.faults.events[0].time_ns + 100.0,
        armed.faults.events[0].router, armed.faults.events[0].port))
    prints = {spec_fingerprint(s) for s in (armed, plain, other)}
    assert len(prints) == 3


def test_spec_rejects_non_schedule_faults():
    with pytest.raises(ValueError, match="faults must be a FaultSchedule"):
        ExperimentSpec(
            config=DragonflyConfig.tiny(), routing="MIN", pattern="UR",
            offered_load=0.2, sim_time_ns=1_000.0, warmup_ns=0.0,
            faults={"schema": 1})


# --------------------------------------------------------------- fault probes
def test_fault_probe_payloads_are_consistent():
    spec = _fault_spec("mesh", "Q-routing").with_overrides(
        telemetry=("fault-delivery", "reconvergence"))
    result = run_experiment(spec)
    delivery = result.telemetry["fault-delivery"]
    assert [e["epoch"] for e in delivery["epochs"]] == [0, 1]
    assert sum(e["generated"] for e in delivery["epochs"]) \
        == delivery["generated"]
    assert sum(e["delivered"] for e in delivery["epochs"]) \
        == delivery["delivered"]
    assert delivery["fault_times_ns"] == [2_500.0]
    reconv = result.telemetry["reconvergence"]
    assert reconv["fault_times_ns"] == [2_500.0]
    assert len(reconv["failures"]) == 1
    failure = reconv["failures"][0]
    assert failure["fault_ns"] == 2_500.0
    assert set(failure) == {"fault_ns", "reconverged", "reconvergence_ns",
                            "peak_latency_ns"}
    json.dumps(result.telemetry)  # report documents must be JSON-ready
