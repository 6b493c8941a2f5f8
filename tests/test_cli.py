"""Tests for the repro-sim command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_rejects_unknown_figure():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["figure", "not-a-figure"])


def test_run_command_prints_summary(capsys):
    code = main([
        "run", "--routing", "MIN", "--pattern", "UR", "--load", "0.3",
        "--config", "tiny", "--time-us", "8", "--seed", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean_latency_us" in out and "MIN" in out


def test_run_command_json_output(capsys):
    code = main([
        "run", "--routing", "Q-adp", "--pattern", "ADV+1", "--load", "0.25",
        "--config", "tiny", "--time-us", "8", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["routing"] == "Q-adp"
    assert payload["throughput"] >= 0.0


def test_compare_command(capsys):
    code = main([
        "compare", "--routing", "MIN", "VALn", "--pattern", "UR", "--load", "0.3",
        "--config", "tiny", "--time-us", "8",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "MIN" in out and "VALn" in out and "throughput" in out


def test_figure_command_table1(capsys):
    code = main(["figure", "table1"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["N"] == 1056


def test_compare_command_with_workers_and_cache(tmp_path, capsys):
    argv = [
        "compare", "--routing", "MIN", "VALn", "--pattern", "UR", "--load", "0.3",
        "--config", "tiny", "--time-us", "8",
        "--workers", "2", "--cache-dir", str(tmp_path), "--progress",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "MIN" in first and "VALn" in first
    # warm-cache re-run must print the same table without simulating
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == first
    assert "cache" in captured.err


def test_workers_flag_composes_with_cache_env(tmp_path, monkeypatch, capsys):
    """--workers must not silently drop a cache enabled via REPRO_CACHE."""
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    argv = [
        "compare", "--routing", "MIN", "--pattern", "UR", "--load", "0.3",
        "--config", "tiny", "--time-us", "5", "--workers", "2",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert list(tmp_path.glob("*.pkl")), "run was not cached"


def test_custom_config_string(capsys):
    code = main([
        "run", "--routing", "MIN", "--pattern", "UR", "--load", "0.2",
        "--config", "1,2,1", "--time-us", "5",
    ])
    assert code == 0
    assert "mean_latency_us" in capsys.readouterr().out


def test_bad_config_string_errors():
    with pytest.raises(SystemExit):
        main(["run", "--config", "bogus", "--time-us", "5"])


def test_run_on_other_topologies(capsys):
    for topology, config in (("fattree", "tiny"), ("mesh", "4,4,1"),
                             ("torus", "tiny")):
        code = main([
            "run", "--topology", topology, "--config", config,
            "--routing", "MIN", "--pattern", "UR", "--load", "0.2",
            "--time-us", "5",
        ])
        assert code == 0
        assert "mean_latency_us" in capsys.readouterr().out


def test_unknown_topology_errors():
    with pytest.raises(SystemExit):
        main(["run", "--topology", "hypercube", "--time-us", "5"])


@pytest.mark.parametrize("argv, message", [
    (["run", "--config", "tiny", "--load", "0"], "offered_load must be in"),
    (["compare", "--config", "tiny", "--load", "1.5"], "offered_load must be in"),
    (["train", "--config", "tiny", "--time-us", "0"], "sim_time_ns must be positive"),
    (["run", "--config", "tiny", "--warmup-us", "5", "--time-us", "2"],
     "cannot exceed sim_time_ns"),
    (["run", "--config", "tiny", "--routing", "NOPE"], "unknown routing algorithm"),
    (["run", "--config", "tiny", "--pattern", "NOPE"], "unknown traffic pattern"),
    (["figure", "fig5", "--scale", "nope"], "unknown experiment scale"),
    (["study", "run", "fig5", "--scale", "nope"], "unknown experiment scale"),
    (["compare", "--config", "tiny", "--time-us", "2", "--workers", "-3"],
     "workers must be 0 .* got -3"),
], ids=["load-0", "load-1.5", "time-0", "warmup-past-end", "routing", "pattern",
        "figure-scale", "study-scale", "negative-workers"])
def test_bad_input_exits_with_one_line(argv, message):
    with pytest.raises(SystemExit, match=message) as exited:
        main(argv)
    assert isinstance(exited.value.code, str) and "\n" not in exited.value.code


def test_negative_repro_workers_exits_with_one_line(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "-1")
    with pytest.raises(SystemExit, match="REPRO_WORKERS must be 0"):
        main(["compare", "--config", "tiny", "--time-us", "2"])


def test_run_replicates_refuses_save_state():
    with pytest.raises(SystemExit, match="save_state is not supported for "
                                         "replicate batches"):
        main(["run", "--config", "tiny", "--time-us", "2",
              "--replicates", "2", "--save-state", "x"])


def test_list_topologies(capsys):
    assert main(["list", "topologies"]) == 0
    out = capsys.readouterr().out
    for name in ("dragonfly", "fattree", "mesh", "torus"):
        assert name in out
    assert "dfly" in out  # aliases shown


# --------------------------------------------------------------- study verbs
def test_list_algorithms_and_patterns(capsys):
    assert main(["list", "algorithms"]) == 0
    out = capsys.readouterr().out
    assert "Q-adp" in out and "Q-routing" in out and "MIN" in out
    assert main(["list", "patterns"]) == 0
    out = capsys.readouterr().out
    assert "ADV+1" in out and "3D Stencil" in out
    assert main(["list", "scales"]) == 0
    assert "bench" in capsys.readouterr().out
    assert main(["list", "studies"]) == 0
    assert "fig5" in capsys.readouterr().out


def test_study_list_names_every_figure(capsys):
    assert main(["study", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig5", "fig6", "fig7", "fig8", "fig9",
                 "ablation-maxq", "ablation-hyperparams"):
        assert name in out


def test_study_show_emits_loadable_document(capsys):
    from repro.scenarios import Study

    assert main(["study", "show", "fig5", "--scale", "bench"]) == 0
    data = json.loads(capsys.readouterr().out)
    study = Study.from_dict(data)
    assert study.name == "fig5"
    assert study.specs()


def test_study_run_scenario_file(tmp_path, capsys):
    from repro.scenarios import Scenario, Study
    from repro.topology.config import DragonflyConfig

    study = Study(
        name="cli-demo", config=DragonflyConfig.tiny(),
        sim_time_ns=4_000.0, warmup_ns=2_000.0,
        scenarios=[Scenario(name="mini", routing=("MIN",), pattern=("UR",),
                            loads=(0.2,))],
    )
    path = study.save(tmp_path / "demo.json")
    assert main(["study", "run", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["study"] == "cli-demo"
    assert payload["runs"] == 1 and payload["simulated"] == 1
    assert payload["rows"][0]["routing"] == "MIN"
    # --table renders the same rows as text
    assert main(["study", "run", str(path), "--table"]) == 0
    assert "mean_latency_us" in capsys.readouterr().out


def test_study_run_shares_cache_between_file_and_figure_paths(tmp_path, capsys, monkeypatch):
    """CLI-level acceptance: study run + figure share fingerprints/cache."""
    from repro.scenarios.catalog import fig7_study
    from repro.experiments.presets import BENCH_SCALE
    from repro.topology.config import DragonflyConfig

    tiny_scale = BENCH_SCALE.with_overrides(
        config=DragonflyConfig.tiny(), scaleup_config=DragonflyConfig.tiny(),
        convergence_ns=4_000.0, ur_reference_load=0.3, adv_reference_load=0.2,
    )
    path = fig7_study(tiny_scale, cases=(("UR", 0.2),)).save(tmp_path / "fig7.json")
    cache = tmp_path / "cache"
    assert main(["study", "run", str(path), "--cache-dir", str(cache)]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["simulated"] == 1
    assert main(["study", "run", str(path), "--cache-dir", str(cache)]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["simulated"] == 0 and second["cache_hits"] == 1
    assert second["rows"] == first["rows"]


def test_study_run_unknown_name_errors():
    with pytest.raises(SystemExit, match="unknown study"):
        main(["study", "run", "not-a-study"])


# ---------------------------------------------------- train/checkpoint verbs
def _train_demo(tmp_path, capsys, tag="demo"):
    code = main([
        "train", "--routing", "Q-adp", "--pattern", "UR", "--load", "0.3",
        "--config", "tiny", "--time-us", "5",
        "--store", str(tmp_path), "--tag", tag,
    ])
    assert code == 0
    return json.loads(capsys.readouterr().out)


def test_train_command_honours_explicit_warmup(tmp_path, capsys):
    """--warmup-us must not be silently discarded by the train verb."""
    code = main([
        "train", "--routing", "Q-adp", "--pattern", "UR", "--load", "0.3",
        "--config", "tiny", "--time-us", "6", "--warmup-us", "3",
        "--store", str(tmp_path), "--tag", "w",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["manifest"]["spec"]["warmup_ns"] == 3_000.0


def test_train_command_stores_checkpoint(tmp_path, capsys):
    payload = _train_demo(tmp_path, capsys)
    assert payload["checkpoint_id"] == "demo"
    assert payload["reused"] is False
    assert payload["manifest"]["routing"] == "Q-adp"
    assert (tmp_path / "demo" / "manifest.json").is_file()
    assert (tmp_path / "demo" / "state.npz").is_file()
    assert "summary" in payload
    # the exact same training spec is reused, not re-simulated
    again = _train_demo(tmp_path, capsys)
    assert again["reused"] is True and "summary" not in again


def test_checkpoint_list_and_show(tmp_path, capsys):
    _train_demo(tmp_path, capsys)
    assert main(["checkpoint", "list", "--store", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "demo" in out and "Q-adp" in out
    assert main(["checkpoint", "show", "demo", "--store", str(tmp_path)]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["checkpoint_id"] == "demo"
    assert main(["checkpoint", "list", "--store", str(tmp_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["checkpoint_id"] == "demo"


def test_checkpoint_prune(tmp_path, capsys):
    _train_demo(tmp_path, capsys, tag="keepme")
    _train_demo(tmp_path, capsys, tag="dropme")
    assert main(["checkpoint", "prune", "--store", str(tmp_path),
                 "--keep", "keepme"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["removed"] == ["dropme"]
    assert payload["kept"] == ["keepme"]


def test_run_with_warm_start_and_save_state(tmp_path, capsys):
    _train_demo(tmp_path, capsys)
    code = main([
        "run", "--routing", "Q-adp", "--pattern", "UR", "--load", "0.3",
        "--config", "tiny", "--time-us", "5", "--json",
        "--warm-start", "demo", "--save-state", "after",
        "--store", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["routing"] == "Q-adp"
    assert payload["checkpoint"].endswith("after")
    assert (tmp_path / "after" / "state.npz").is_file()


def test_run_warm_start_mismatch_is_a_clean_error(tmp_path, capsys):
    _train_demo(tmp_path, capsys)
    with pytest.raises(SystemExit, match="do not transfer across topologies"):
        main([
            "run", "--routing", "Q-adp", "--pattern", "UR", "--load", "0.3",
            "--config", "small", "--time-us", "5",
            "--warm-start", "demo", "--store", str(tmp_path),
        ])
    with pytest.raises(SystemExit, match="no checkpoint"):
        main([
            "run", "--routing", "Q-adp", "--pattern", "UR", "--load", "0.3",
            "--config", "tiny", "--time-us", "5",
            "--warm-start", "missing", "--store", str(tmp_path),
        ])


def test_study_run_staged_transfer(tmp_path, capsys):
    """A staged scenario file trains first, then warm-starts its eval grid."""
    from repro.scenarios import Scenario, Study, TrainStage
    from repro.topology.config import DragonflyConfig

    study = Study(
        name="staged-cli", config=DragonflyConfig.tiny(),
        sim_time_ns=3_000.0, warmup_ns=1_000.0,
        train=TrainStage(pattern="UR", load=0.3, train_ns=3_000.0),
        scenarios=[Scenario(name="eval", routing=("Q-adp",), pattern=("ADV+1",),
                            loads=(0.2,))],
    )
    path = study.save(tmp_path / "staged.json")
    store = tmp_path / "store"
    assert main(["study", "run", str(path), "--store", str(store)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["study"] == "staged-cli"
    assert "Q-adp" in payload["checkpoints"]
    assert payload["runs"] == 1


def _telemetry_study_file(tmp_path):
    from repro.scenarios import Scenario, Study
    from repro.topology.config import DragonflyConfig

    study = Study(
        name="telemetry-cli", config=DragonflyConfig.tiny(),
        sim_time_ns=6_000.0, warmup_ns=2_000.0,
        telemetry=("source-latency", "link-util", "queue-occupancy",
                   "q-convergence"),
        scenarios=[Scenario(name="probe", routing=("MIN", "Q-adp"),
                            pattern=("ADV+1",), loads=(0.3,))],
    )
    return study.save(tmp_path / "telemetry.json")


def test_run_with_telemetry_flag(capsys):
    code = main([
        "run", "--routing", "Q-adp", "--pattern", "UR", "--load", "0.4",
        "--config", "tiny", "--time-us", "6", "--json",
        "--telemetry", "fairness", "link-util",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["telemetry"]) == {"source-latency", "link-util"}
    assert payload["telemetry"]["source-latency"]["groups_observed"] >= 1
    with pytest.raises(SystemExit, match="unknown telemetry probe"):
        main([
            "run", "--routing", "MIN", "--pattern", "UR", "--load", "0.4",
            "--config", "tiny", "--time-us", "5", "--telemetry", "bogus",
        ])


def test_list_probes(capsys):
    assert main(["list", "probes"]) == 0
    out = capsys.readouterr().out
    for name in ("link-util", "queue-occupancy", "source-latency",
                 "q-convergence"):
        assert name in out


def test_study_run_out_and_report_roundtrip(tmp_path, capsys):
    """study run --out → report → --export is the acceptance-criteria flow."""
    path = _telemetry_study_file(tmp_path)
    out_file = tmp_path / "result.json"
    assert main(["study", "run", str(path), "--out", str(out_file)]) == 0
    assert "repro-sim report" in capsys.readouterr().out

    def reject(token):
        raise ValueError(f"non-strict JSON token {token!r}")

    saved = json.loads(out_file.read_text(), parse_constant=reject)
    assert saved["runs"] == 2 and len(saved["telemetry"]) == 2

    assert main(["report", str(out_file)]) == 0
    text = capsys.readouterr().out
    assert "Per-link utilization" in text
    assert "Source-group fairness" in text
    assert "Jain fairness" in text
    assert "Q-convergence" in text
    assert "MIN/ADV+1@0.3" in text and "Q-adp/ADV+1@0.3" in text

    export_file = tmp_path / "analysis.json"
    assert main(["report", str(out_file), "--export", str(export_file)]) == 0
    analysis = json.loads(export_file.read_text(), parse_constant=reject)
    assert len(analysis["runs"]) == 2
    assert analysis["runs"][0]["fairness"]["groups"]


def test_report_rejects_non_telemetry_document(tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"rows": []}))
    with pytest.raises(SystemExit, match="carries no telemetry"):
        main(["report", str(path)])
