"""The ledger's own checks, at the 6-node ``tiny`` scale (seconds, not minutes).

They pin the benchmark's contract rather than any timing: ``BENCHMARK.json``
matches the definitions, every declared metric is emitted, span trees are
well formed, ``compare`` tells a regression from noise, and a wrong pin is
counted as a failed operation.
"""

from __future__ import annotations

import copy
import fnmatch
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ledger import metrics, runner
from ledger.compare import compare
from ledger.spans import Tracer, self_times
from ledger.workloads import WORKLOADS

ROOT = runner.ROOT
NAMES = [w.name for w in WORKLOADS]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def document() -> dict:
    """Two untraced rounds and one traced repeat of all five workloads."""
    return runner.run_ledger(NAMES, scale="tiny", repeats=2, traced=True)


# ------------------------------------------------------------ definitions
def test_benchmark_json_is_rendered_from_the_definitions():
    with open(ROOT / "BENCHMARK.json") as fh:
        assert json.load(fh) == metrics.benchmark_json()


def test_benchmark_json_meets_the_contract():
    spec = metrics.benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert len(spec["workloads"]) == 5
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    for row in spec["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in spec["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0.0 < row["bound"] <= 0.25
    for row in spec["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT_RE.fullmatch(row["unit"])
        assert row["better"] in ("lower", "higher")
    setup = next(row for row in spec["end_to_end"] if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(row["bound"] for row in spec["end_to_end"])


def test_every_layer_metric_names_what_it_should_move():
    end_to_end = {m.name for m in metrics.END_TO_END}
    for metric in metrics.PER_LAYER:
        if metric.layer in metrics.UNGATED_LAYERS and not metric.moves:
            continue
        assert metric.moves, f"{metric.name} names no end-to-end metric"
        for moved, workloads in metric.moves:
            assert moved in end_to_end
            assert fnmatch.filter(NAMES, workloads), (metric.name, workloads)


def test_pins_tie_the_engines_together():
    pins = runner.load_pins()["full"]
    assert sorted(pins) == sorted(NAMES)
    assert pins["batched-qadp-adv1-1056x1"] == pins["scalar-qadp-adv1-1056"]
    bench_core = ROOT / "BENCH_core.json"
    if bench_core.exists():
        with open(bench_core) as fh:
            smoke = json.load(fh)["workloads"]["smoke_qadp_ur"]["fingerprint"]
        assert pins["batched-qadp-ur-72x16"][0] == smoke


# ------------------------------------------------------------------ the run
def test_every_declared_metric_is_emitted(document):
    assert list(document["workloads"]) == NAMES
    for w in WORKLOADS:
        entry = document["workloads"][w.name]
        assert entry["ops_failed"] == 0, entry["failures"]
        assert entry["ops"] == 3 * w.ops
        assert list(entry["end_to_end"]) == [m.name for m in metrics.END_TO_END]
        for cell in entry["end_to_end"].values():
            assert cell["n"] == 2 and cell["q1"] <= cell["value"] <= cell["q3"]
            assert cell["value"] > 0
        assert list(entry["layers"]) == [m.name for m in metrics.PER_LAYER]
        for name, value in entry["layers"].items():
            assert (value is None) == (name in entry["reasons"]), name
        for traced in (False, True):
            line = json.loads(runner.contract_line(entry, traced))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            declared = metrics.PER_LAYER if traced else metrics.END_TO_END
            assert list(line["metrics"]) == [m.name for m in declared]
            assert all(isinstance(cell["value"], (int, float))
                       for cell in line["metrics"].values())


def test_layers_measure_what_their_workload_exercises(document):
    by_name = document["workloads"]
    scalar = by_name["scalar-min-ur-72"]["layers"]
    assert scalar["routing.decisions"] == 0 and scalar["batch.drain_s"] is None
    assert scalar["engine.drain_s"] > 0 and scalar["engine.profiled_share"] > 0
    batched = by_name["batched-qadp-ur-72x16"]["layers"]
    assert batched["batch.replicates"] == 16 and batched["engine.drain_s"] is None
    assert batched["batch.events_executed"] + batched["batch.events_elided"] \
        == batched["engine.events"]
    assert by_name["batched-qadp-adv1-1056x1"]["fingerprints"] \
        == by_name["scalar-qadp-adv1-1056"]["fingerprints"]
    sweep = by_name["sweep-fig5-fast-w2"]["layers"]
    assert (sweep["parallel.simulated"], sweep["parallel.cache_hits"]) == (16, 16)
    assert sweep["parallel.cache_bytes"] \
        == by_name["sweep-fig5-fast-w2"]["end_to_end"]["result_bytes"]["value"]


def test_span_trees_are_well_formed(document):
    for name, entry in document["workloads"].items():
        spans = entry["spans"]
        assert spans[0]["name"] == "workload" and spans[0]["parent"] is None
        for index, span in enumerate(spans):
            assert {"name", "start", "end", "parent", "workload", "repeat"} <= set(span)
            assert span["workload"] == name and span["start"] <= span["end"]
            if index:
                parent = spans[span["parent"]]
                assert span["parent"] < index
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        own = self_times(spans)
        assert all(seconds >= 0.0 for seconds in own.values()), own
        root = spans[0]["end"] - spans[0]["start"]
        assert sum(own.values()) == pytest.approx(root)
        # At full scale the root's own time is <0.1 % of wall_s (README); a
        # 15 ms tiny run is dominated by one collector pass between spans.
        assert own["workload"] <= 0.5 * root, "layers leave wall_s unaccounted"


def test_self_time_is_duration_minus_children():
    tr = Tracer()
    with tr.span("a"):
        with tr.span("b"):
            pass
        with tr.span("b"):
            pass
    own = self_times(tr.spans)
    assert own["a"] == pytest.approx(tr.seconds("a") - tr.seconds("b"))
    assert [span["parent"] for span in tr.spans] == [None, 0, 0]


# ------------------------------------------------------------------ compare
def _with_wall(document: dict, samples: list) -> dict:
    changed = copy.deepcopy(document)
    changed["workloads"]["scalar-min-ur-72"]["end_to_end"]["wall_s"] = \
        runner.summarise(samples, "s")
    return changed


def _verdicts(rows: list, metric: str = "wall_s") -> list:
    return [row["verdict"] for row in rows
            if row["workload"] == "scalar-min-ur-72" and row["metric"] == metric]


def test_compare_tells_a_regression_from_noise(document):
    base = _with_wall(document, [2.00, 2.01, 1.99, 2.02, 2.00])
    rows, code = compare(base, base)
    assert code == 0 and _verdicts(rows) == ["same"]
    assert {row["verdict"] for row in rows} <= {"same", "unresolved"}  # tiny is noisy

    bound = next(m.bound for m in metrics.END_TO_END if m.name == "wall_s")
    slow = _with_wall(document, [v * (1.0 + 2.0 * bound)
                                 for v in (2.00, 2.01, 1.99, 2.02, 2.00)])
    rows, code = compare(base, slow)
    assert code == 1 and _verdicts(rows) == ["worse"]
    rows, code = compare(slow, base)  # the same change the other way is a gain
    assert code == 0 and _verdicts(rows) == ["better"]

    noisy = _with_wall(document, [1.4, 2.8, 2.1, 1.5, 2.7])
    rows, code = compare(base, noisy)
    assert code == 0 and _verdicts(rows) == ["unresolved"]

    drifted = copy.deepcopy(base)
    drifted["workloads"]["scalar-min-ur-72"]["fingerprints"][0]["delivered_packets"] += 1
    rows, code = compare(base, drifted)
    assert code == 1 and _verdicts(rows, "-") == ["mismatch"]


def test_a_wrong_pin_counts_as_a_failed_operation():
    pins = runner.load_pins()
    pins["tiny"]["scalar-min-ur-72"][0]["delivered_packets"] += 1
    document = runner.run_ledger(["scalar-min-ur-72"], scale="tiny", repeats=1,
                                 pins=pins)
    entry = document["workloads"]["scalar-min-ur-72"]
    assert entry["ops_failed"] == 1
    assert "expected.json" in entry["failures"][0][2]


def test_record_and_pin_round_trip(document, tmp_path):
    runner.record(document, tmp_path / "history.jsonl")
    runner.record(document, tmp_path / "history.jsonl")
    lines = (tmp_path / "history.jsonl").read_text().splitlines()
    assert len(lines) == 2
    line = json.loads(lines[-1])
    assert {"nproc", "python", "numpy", "numba", "platform", "commit"} <= set(line["machine"])
    cell = line["workloads"]["sweep-fig5-fast-w2"]
    assert len(cell["end_to_end"]["wall_s"]) == 4 and "parallel.speedup" in cell["layers"]

    runner.pin(document, tmp_path / "expected.json")
    assert runner.load_pins(tmp_path / "expected.json")["tiny"] \
        == runner.load_pins()["tiny"]
    with pytest.raises(ValueError):
        runner.pin({**document, "seed": 8}, tmp_path / "expected.json")


# ----------------------------------------------------------------- the CLI
def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "ledger", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_cli_prints_the_contract_line_last(tmp_path):
    done = _cli(ROOT, "--workload", "scalar-min-ur-72", "--seed", "11", "--seconds",
                "0.1", "--trace", "0", "--tiny", "--out", str(tmp_path / "r.json"))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == runner.MIN_REPEATS
    assert list(line["metrics"]) == [m.name for m in metrics.END_TO_END]
    with open(tmp_path / "r.json") as fh:
        assert json.load(fh)["seed"] == 11


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "ledger", tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _cli(tmp_path, "--workload", "scalar-min-ur-72", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
