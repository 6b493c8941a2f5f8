"""Command-line interface: run single experiments or regenerate paper figures.

Installed as the ``repro-sim`` console script (see ``pyproject.toml``); also
usable as ``python -m repro.cli``.

Examples
--------
Run one experiment and print its summary::

    repro-sim run --routing Q-adp --pattern ADV+1 --load 0.3 --time-us 100

Compare several algorithms under one pattern::

    repro-sim compare --routing MIN VALn UGALn Q-adp --pattern UR --load 0.5

Regenerate a paper artefact (table or figure) at a chosen scale::

    repro-sim figure table1
    repro-sim figure fig7 --scale bench

Fan the independent runs of a figure (or comparison) out over worker
processes, memoizing completed runs on disk so a re-run only simulates what
changed::

    repro-sim figure fig5 --workers 4 --cache
    repro-sim compare --routing MIN UGALn Q-adp --pattern ADV+1 --workers 3

Work with declarative studies (named scenario grids, or JSON/YAML scenario
files)::

    repro-sim study list
    repro-sim study show fig5 --scale bench > fig5.json
    repro-sim study run fig5.json --workers 4 --cache
    repro-sim study run ablation-maxq --scale bench
    repro-sim list algorithms
    repro-sim list patterns

Train a routing policy once, inspect the stored checkpoint, and warm-start
later runs from it (the paper's warm-up-once/measure-many workflow)::

    repro-sim train --routing Q-adp --pattern UR --load 0.5 --time-us 100 --tag warm-ur
    repro-sim checkpoint list
    repro-sim checkpoint show warm-ur
    repro-sim run --routing Q-adp --pattern ADV+1 --load 0.3 --warm-start warm-ur
    repro-sim run --routing Q-adp --pattern UR --load 0.5 --save-state my-ckpt
    repro-sim study run transfer --scale bench

Run on a different topology family (fat-tree, mesh, torus) and compare the
learned-routing catalog across all of them::

    repro-sim list topologies
    repro-sim run --topology fattree --config tiny --routing Q-routing --pattern UR
    repro-sim run --topology torus --config 6,6,2 --routing VAL --pattern Hotspot
    repro-sim study run cross-topology --scale bench

Attach telemetry probes (per-link utilization, per-source-group fairness,
queue occupancy, Q-convergence), save the study result, and render the
analysis report::

    repro-sim run --routing Q-adp --pattern ADV+1 --telemetry link-util fairness --json
    repro-sim study run fairness --scale bench --out fairness.json
    repro-sim report fairness.json
    repro-sim report fairness.json --export analysis.json
    repro-sim list probes

Inject link/router failures (a JSON-serialized fault schedule) into a single
run, or compare how every algorithm routes around a mid-run link failure with
the ``resilience`` study (per-failure-epoch delivery rate + latency
re-convergence time, per topology family)::

    repro-sim run --routing Q-routing --pattern UR --faults faults.json \
        --telemetry fault-delivery reconvergence --json
    repro-sim study run resilience --scale bench --out resilience.json
    repro-sim report resilience.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from repro.analysis import runner as analysis_runner
from repro.experiments import (
    ExperimentSpec,
    SweepRunner,
    print_progress,
    run_experiment,
    run_replicates,
    train_experiment,
)
from repro.experiments.parallel import DEFAULT_CACHE_DIR, ResultCache, default_runner
from repro.experiments.presets import ExperimentScale, describe_scales, scale_by_name
from repro.faults.schedule import FaultSchedule
from repro.instrument import PROBE_REGISTRY, available_probes
from repro.instrument.report import export_payload, load_result_document, render_report
from repro.routing import ROUTING_REGISTRY, available_algorithms
from repro.scenarios import available_studies, figure, figure_names, load_study
from repro.stats.report import comparison_table, format_table, json_safe
from repro.store import DEFAULT_STORE_DIR, resolve_store
from repro.topology.registry import TOPOLOGIES, family_by_name
from repro.traffic import PATTERN_REGISTRY

if TYPE_CHECKING:
    from repro.scenarios.registry import Registry

def _runner_from_args(args: argparse.Namespace) -> SweepRunner:
    """Build the sweep runner selected by --workers/--cache/--cache-dir.

    Each flag overrides only its own aspect; anything not given falls back
    to the ``REPRO_WORKERS`` / ``REPRO_CACHE`` environment variables
    (serial and uncached by default), so e.g. ``REPRO_CACHE=1`` stays in
    effect when only ``--workers`` is passed.
    """
    try:
        runner = default_runner()
        if args.workers is not None:
            env_cache = runner.cache
            runner = SweepRunner(workers=args.workers, cache_dir=None)
            runner.cache = env_cache
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.cache_dir is not None:
        runner.cache = ResultCache(args.cache_dir)
    elif args.cache:
        runner.cache = ResultCache(DEFAULT_CACHE_DIR)
    runner.progress = print_progress if args.progress else None
    return runner


def _config_from_args(args: argparse.Namespace) -> Any:
    """Resolve --topology/--config into a topology config object."""
    try:
        entry = family_by_name(getattr(args, "topology", "dragonfly"))
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    try:
        return entry.parse(args.config)
    except ValueError as exc:
        raise SystemExit(
            f"bad --config {args.config!r} for topology {entry.name!r}: {exc} "
            f"(presets: {sorted(entry.presets)})"
        ) from exc


def _build_spec(args: argparse.Namespace, routing: str) -> ExperimentSpec:
    sim_time_ns = args.time_us * 1_000.0
    warmup_ns = args.warmup_us * 1_000.0 if args.warmup_us is not None else sim_time_ns / 2
    try:
        return ExperimentSpec(
            config=_config_from_args(args),
            routing=routing,
            pattern=args.pattern,
            offered_load=args.load,
            sim_time_ns=sim_time_ns,
            warmup_ns=warmup_ns,
            seed=args.seed,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _scale_from_args(args: argparse.Namespace) -> Optional[ExperimentScale]:
    """Resolve ``--scale`` to a preset, or ``None`` when not given."""
    try:
        return scale_by_name(args.scale) if args.scale else None
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _faults_from_args(args: argparse.Namespace) -> Optional[FaultSchedule]:
    """Load ``--faults FILE`` (a serialized FaultSchedule) when given."""
    if not getattr(args, "faults", None):
        return None
    try:
        with open(args.faults, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read --faults {args.faults!r}: {exc}") from None
    try:
        return FaultSchedule.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise SystemExit(
            f"bad fault schedule in {args.faults!r}: {exc}"
        ) from None


def _resolve_warm_start(args: argparse.Namespace) -> str:
    """Turn ``--warm-start`` (store id or checkpoint path) into a path."""
    try:
        return str(resolve_store(args.store).load(args.warm_start).path)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from None


def _run_replicate_batch(args: argparse.Namespace, spec: "ExperimentSpec") -> int:
    """``run --replicates N``: one summary row per seed."""
    if args.replicates < 1:
        raise SystemExit("--replicates must be at least 1")
    if args.save_state is not None:
        raise SystemExit(
            "save_state is not supported for replicate batches: every "
            "replicate would overwrite the same checkpoint; checkpoint a "
            "dedicated train_experiment run instead"
        )
    try:
        results = run_replicates(spec, args.replicates)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    rows = [dict(seed=result.spec.seed, **result.summary_row())
            for result in results]
    if args.json:
        print(json.dumps(json_safe({"rows": rows}), indent=2))
    else:
        print(format_table(rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _build_spec(args, args.routing[0])
    if args.warm_start:
        spec = spec.with_overrides(warm_start=_resolve_warm_start(args))
    if args.telemetry:
        try:
            spec = spec.with_overrides(telemetry=tuple(args.telemetry))
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    faults = _faults_from_args(args)
    if faults is not None:
        spec = spec.with_overrides(faults=faults)
    if args.replicates is not None:
        return _run_replicate_batch(args, spec)
    try:
        result = run_experiment(spec, save_state=args.save_state, store=args.store)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    row = result.summary_row()
    if args.json:
        payload = dict(row)
        if "checkpoint" in result.routing_diagnostics:
            payload["checkpoint"] = result.routing_diagnostics["checkpoint"]
        if result.telemetry:
            payload["telemetry"] = result.telemetry
        print(json.dumps(json_safe(payload), indent=2))
    else:
        print(format_table([row]))
        if "checkpoint" in result.routing_diagnostics:
            print(f"saved checkpoint: {result.routing_diagnostics['checkpoint']}")
        if result.telemetry:
            for name, summary in result.telemetry.items():
                headline = {k: v for k, v in summary.items()
                            if isinstance(v, (int, float, str)) and k != "probe"}
                print(f"telemetry [{name}]: "
                      f"{json.dumps(json_safe(headline), sort_keys=True)}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    routing = args.routing[0]
    spec = _build_spec(args, routing).with_overrides(label=f"train:{routing}")
    if args.warmup_us is None:
        # For training the whole run is learning; the measurement window only
        # affects the reported summary, so default it to the full run rather
        # than _build_spec's half-time split.  An explicit --warmup-us wins.
        spec = spec.with_overrides(warmup_ns=0.0)
    try:
        trained = train_experiment(spec, save_state=args.tag, store=args.store,
                                   reuse=not args.retrain)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    payload = {
        "checkpoint_id": trained.checkpoint.checkpoint_id,
        "path": str(trained.checkpoint.path),
        "reused": trained.reused,
        "manifest": trained.checkpoint.manifest.to_dict(),
    }
    if trained.result is not None:
        payload["summary"] = trained.result.summary_row()
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_checkpoint_list(args: argparse.Namespace) -> int:
    store = resolve_store(args.store)
    manifests = store.list()
    if args.json:
        print(json.dumps([m.to_dict() for m in manifests], indent=2))
        return 0
    if not manifests:
        print(f"no checkpoints in {store.root}")
        return 0
    for m in manifests:
        topo = dict(m.topology)
        family = topo.pop("family", "?")
        dims = ",".join(f"{key}={value}" for key, value in topo.items())
        print(f"{m.checkpoint_id:28s} {m.routing:10s} "
              f"{family}[{dims}]  "
              f"trained {m.trained_sim_ns / 1_000.0:g} us  "
              f"{m.created_at or ''}")
    return 0


def _cmd_checkpoint_show(args: argparse.Namespace) -> int:
    try:
        checkpoint = resolve_store(args.store).load(args.ref)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    print(json.dumps(checkpoint.manifest.to_dict(), indent=2))
    return 0


def _cmd_checkpoint_prune(args: argparse.Namespace) -> int:
    store = resolve_store(args.store)
    removed = store.prune(keep=args.keep)
    print(json.dumps({"store": str(store.root), "removed": removed,
                      "kept": [m.checkpoint_id for m in store.list()]}, indent=2))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    runner = _runner_from_args(args)
    specs = [_build_spec(args, routing) for routing in args.routing]
    results = runner.run(specs)
    rows = {
        routing: result.summary_row()
        for routing, result in zip(args.routing, results, strict=True)
    }
    print(comparison_table(
        rows, ["mean_latency_us", "p99_latency_us", "throughput", "mean_hops"]
    ))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    data = figure(args.name, _scale_from_args(args), runner=_runner_from_args(args))
    print(json.dumps(json_safe(data), indent=2, default=str))
    return 0


def _study_from_args(args: argparse.Namespace) -> Any:
    scale = _scale_from_args(args)
    try:
        return load_study(args.target, scale)
    except (ValueError, RuntimeError, OSError) as exc:
        raise SystemExit(str(exc)) from None


def _cmd_study_run(args: argparse.Namespace) -> int:
    study = _study_from_args(args)
    runner = _runner_from_args(args)
    try:
        result = study.run(runner, store=args.store)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    rows = result.rows()
    payload = {
        "study": study.name,
        "description": study.description,
        "runs": len(rows),
        "simulated": runner.simulated,
        "cache_hits": runner.cache_hits,
        "rows": rows,
    }
    telemetry_rows = result.telemetry_rows()
    if telemetry_rows:
        payload["telemetry"] = telemetry_rows
    if result.checkpoints:
        payload["checkpoints"] = result.checkpoints
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(json_safe(payload), fh, indent=2, default=str)
            fh.write("\n")
        print(f"wrote {args.out}")
        if telemetry_rows:
            print(f"render it with: repro-sim report {args.out}")
        if args.table:
            print(format_table(rows))
        return 0
    if args.table:
        print(format_table(rows))
    else:
        print(json.dumps(json_safe(payload), indent=2, default=str))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        doc = load_result_document(args.result)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.export:
        payload = export_payload(doc, max_rows=args.max_rows)
        text = json.dumps(payload, indent=2)
        if args.export == "-":
            print(text)
        else:
            with open(args.export, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.export}")
        return 0
    print(render_report(doc, max_rows=args.max_rows), end="")
    return 0


def _cmd_study_show(args: argparse.Namespace) -> int:
    study = _study_from_args(args)
    print(json.dumps(study.to_dict(), indent=2))
    return 0


def _cmd_study_list(args: argparse.Namespace) -> int:
    for name, summary in available_studies().items():
        print(f"{name:22s} {summary}")
    return 0


def _registry_extras(registry: "Registry", row: Mapping[str, Any]) -> str:
    """Alias and keyword-argument suffix of one `list` output line."""
    parts = []
    if row.get("aliases"):
        parts.append(f"aliases: {', '.join(row['aliases'])}")
    kwargs = registry.signature(row["name"])
    if kwargs:
        parts.append(f"kwargs: {', '.join(kwargs)}")
    return f" ({'; '.join(parts)})" if parts else ""


def _cmd_list(args: argparse.Namespace) -> int:
    what = args.what
    if what == "algorithms":
        rows = {row["name"]: row for row in ROUTING_REGISTRY.describe()}
        for name in available_algorithms():
            row = rows[name]
            print(f"{name:12s} {row.get('summary', '')}"
                  f"{_registry_extras(ROUTING_REGISTRY, row)}")
    elif what == "patterns":
        for row in PATTERN_REGISTRY.describe():
            print(f"{row['name']:18s} {row.get('summary', '')}"
                  f"{_registry_extras(PATTERN_REGISTRY, row)}")
    elif what == "scales":
        for row in describe_scales():
            extras = f" (aliases: {', '.join(row['aliases'])})" if row.get("aliases") else ""
            print(f"{row['name']:16s} {row.get('family', ''):10s} "
                  f"{row.get('summary', '')}{extras}")
    elif what == "topologies":
        for row in TOPOLOGIES.describe():
            entry = family_by_name(row["name"])
            detail = f"--config: {', '.join(sorted(entry.presets))} or '{row.get('dims', '')}'"
            extras = f"; aliases: {', '.join(row['aliases'])}" if row.get("aliases") else ""
            print(f"{row['name']:12s} {row.get('summary', '')} ({detail}{extras})")
    elif what == "probes":
        rows = {row["name"]: row for row in PROBE_REGISTRY.describe()}
        for name, summary in available_probes().items():
            print(f"{name:18s} {summary}{_registry_extras(PROBE_REGISTRY, rows[name])}")
    else:
        return _cmd_study_list(args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Q-adaptive Dragonfly routing reproduction — simulation driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, multi_routing: bool) -> None:
        nargs = "+" if multi_routing else 1
        p.add_argument("--routing", nargs=nargs, default=["Q-adp"] if not multi_routing else
                       ["MIN", "Q-adp"],
                       help="routing algorithm name(s): MIN, VALg, VALn, UGALg, UGALn, PAR, "
                            "Q-adp, Q-routing")
        p.add_argument("--pattern", default="UR",
                       help="traffic pattern: UR, ADV+<i>, '3D Stencil', 'Many to Many', "
                            "'Random Neighbors', Permutation, Hotspot")
        p.add_argument("--load", type=float, default=0.5, help="offered load in (0, 1]")
        p.add_argument("--topology", default="dragonfly",
                       help="topology family (see 'list topologies'): "
                            "dragonfly | fattree | mesh | torus")
        p.add_argument("--config", default="small",
                       help="preset name or comma-separated dimensions of the chosen "
                            "--topology (dragonfly: tiny | small | medium | paper-1056 "
                            "| paper-2550 | 'p,a,h'; fattree: tiny | small | 'k'; "
                            "mesh/torus: tiny | small | 'rows,cols,p')")
        p.add_argument("--time-us", type=float, default=50.0, help="simulated time (µs)")
        p.add_argument("--warmup-us", type=float, default=None,
                       help="warm-up time (µs); default: half the simulated time")
        p.add_argument("--seed", type=int, default=1)

    def add_parallel(p: argparse.ArgumentParser) -> None:
        group = p.add_argument_group("parallel execution")
        group.add_argument("--workers", type=int, default=None, metavar="N",
                           help="worker processes for independent runs (0 = one per CPU; "
                                "default: serial, or $REPRO_WORKERS)")
        group.add_argument("--cache", action="store_true",
                           help=f"memoize completed runs under {DEFAULT_CACHE_DIR}/ so a "
                                "re-run only simulates what changed")
        group.add_argument("--cache-dir", default=None, metavar="DIR",
                           help="like --cache but with an explicit cache directory")
        group.add_argument("--progress", action="store_true",
                           help="print one line per completed run on stderr")

    def add_store(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", default=None, metavar="DIR",
                       help="checkpoint store directory "
                            f"(default: {DEFAULT_STORE_DIR}/)")

    run_p = sub.add_parser("run", help="run one experiment and print its summary")
    add_common(run_p, multi_routing=False)
    run_p.add_argument("--json", action="store_true", help="print the summary as JSON")
    run_p.add_argument("--warm-start", default=None, metavar="REF",
                       help="restore learned routing state before the run: a "
                            "checkpoint id in the store or a checkpoint "
                            "directory path")
    run_p.add_argument("--save-state", default=None, metavar="TAG",
                       help="persist the learned routing state after the run "
                            "as checkpoint TAG in the store")
    run_p.add_argument("--telemetry", nargs="+", default=None, metavar="PROBE",
                       help="attach telemetry probes (see 'list probes'): "
                            "link-util, queue-occupancy, source-latency, "
                            "q-convergence, fault-delivery, reconvergence")
    run_p.add_argument("--faults", default=None, metavar="FILE",
                       help="inject a fault schedule: a JSON file holding a "
                            "serialized FaultSchedule ({'schema': 1, 'events': "
                            "[[time_ns, kind, router, port], ...]})")
    run_p.add_argument("--replicates", type=int, default=None, metavar="N",
                       help="run N replicates under seeds derived from --seed "
                            "(index 0 keeps the base seed) and print one "
                            "summary row per replicate")
    add_store(run_p)
    run_p.set_defaults(func=_cmd_run)

    train_p = sub.add_parser(
        "train", help="train a learned routing policy and store its checkpoint")
    add_common(train_p, multi_routing=False)
    train_p.add_argument("--tag", default=None, metavar="ID",
                         help="checkpoint id (default: content-derived)")
    train_p.add_argument("--retrain", action="store_true",
                         help="ignore an existing checkpoint of this exact "
                              "training spec and re-train")
    add_store(train_p)
    train_p.set_defaults(func=_cmd_train)

    ckpt_p = sub.add_parser(
        "checkpoint", help="list, inspect or prune stored policy checkpoints")
    ckpt_sub = ckpt_p.add_subparsers(dest="checkpoint_command", required=True)

    clist_p = ckpt_sub.add_parser("list", help="list checkpoints in the store")
    clist_p.add_argument("--json", action="store_true",
                         help="print full manifests as JSON")
    add_store(clist_p)
    clist_p.set_defaults(func=_cmd_checkpoint_list)

    cshow_p = ckpt_sub.add_parser("show", help="print one checkpoint's manifest")
    cshow_p.add_argument("ref", help="checkpoint id or checkpoint directory path")
    add_store(cshow_p)
    cshow_p.set_defaults(func=_cmd_checkpoint_show)

    cprune_p = ckpt_sub.add_parser(
        "prune", help="delete checkpoints (all but the ones named via --keep)")
    cprune_p.add_argument("--keep", nargs="*", default=[], metavar="ID",
                          help="checkpoint ids to keep")
    add_store(cprune_p)
    cprune_p.set_defaults(func=_cmd_checkpoint_prune)

    cmp_p = sub.add_parser("compare", help="run several algorithms under one pattern")
    add_common(cmp_p, multi_routing=True)
    add_parallel(cmp_p)
    cmp_p.set_defaults(func=_cmd_compare)

    fig_p = sub.add_parser("figure", help="regenerate a paper table/figure as JSON")
    fig_p.add_argument("name", choices=sorted(figure_names()))
    fig_p.add_argument("--scale", default=None,
                       help="scale preset (see 'list scales'): bench | reduced | "
                            "paper-1056 | paper-2550 | ... (default: env-selected)")
    add_parallel(fig_p)
    fig_p.set_defaults(func=_cmd_figure)

    study_p = sub.add_parser(
        "study", help="run, inspect or list declarative scenario studies")
    study_sub = study_p.add_subparsers(dest="study_command", required=True)

    def add_scale(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", default=None,
                       help="scale preset for named studies (see 'list scales'); "
                            "ignored for scenario files, which carry their own sizes")

    srun_p = study_sub.add_parser(
        "run", help="run a named study or a JSON/YAML scenario file")
    srun_p.add_argument("target",
                        help="registered study name (see 'study list') or a path "
                             "to a scenario file")
    add_scale(srun_p)
    srun_p.add_argument("--table", action="store_true",
                        help="print a summary table instead of JSON rows")
    srun_p.add_argument("--out", default=None, metavar="FILE",
                        help="save the full study result (summary rows + "
                             "telemetry payloads) as a JSON document for "
                             "'repro-sim report'")
    add_parallel(srun_p)
    add_store(srun_p)
    srun_p.set_defaults(func=_cmd_study_run)

    sshow_p = study_sub.add_parser(
        "show", help="print a study as a JSON scenario document "
                     "(pipe to a file, edit, then 'study run' it)")
    sshow_p.add_argument("target", help="registered study name or scenario file path")
    add_scale(sshow_p)
    sshow_p.set_defaults(func=_cmd_study_show)

    slist_p = study_sub.add_parser("list", help="list registered studies")
    slist_p.set_defaults(func=_cmd_study_list)

    report_p = sub.add_parser(
        "report", help="render the telemetry report of a saved study result")
    report_p.add_argument("result",
                          help="study-result JSON written by "
                               "'study run ... --out FILE'")
    report_p.add_argument("--export", default=None, metavar="FILE",
                          help="write the analysis as strict JSON instead of "
                               "text ('-' for stdout)")
    report_p.add_argument("--max-rows", type=int, default=8, metavar="N",
                          help="links/routers/time bins shown per run "
                               "(default 8)")
    report_p.set_defaults(func=_cmd_report)

    list_p = sub.add_parser(
        "list", help="list registered algorithms, patterns, scales, studies, "
                     "telemetry probes or topologies")
    list_p.add_argument("what",
                        choices=("algorithms", "patterns", "scales", "studies",
                                 "probes", "topologies"))
    list_p.set_defaults(func=_cmd_list)

    check_p = sub.add_parser(
        "check", help="run the repo's domain-specific static analysis "
                      "(determinism and hot-path rules)")
    analysis_runner.add_arguments(check_p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
