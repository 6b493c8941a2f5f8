"""The ledger's driver: rounds of fresh child processes, then medians.

This process never imports ``repro`` (or numpy): it stays small so that a
child's peak RSS is the child's own, and it hands every (workload, repeat)
to a new interpreter through :mod:`ledger.child`.

Noise discipline: repeats run as interleaved rounds over all selected
workloads, the order reversed every other round; a fixed pure-Python loop is
timed before each round (``machine.calib_s``), and rounds whose calibration
is more than 10 % off the median are run again (at most twice) and flagged
if they stay off.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Callable, Dict, List, Optional, Sequence

from ledger.metrics import END_TO_END, PER_LAYER
from ledger.workloads import BY_NAME, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
HISTORY = HERE / "history.jsonl"

#: the seed ``expected.json`` pins (the default ``--seed``).
PIN_SEED = 7
#: fewest repeats a time-boxed run accepts: a median needs three.
MIN_REPEATS = 3
MAX_RERUNS = 2
CALIB_TOLERANCE = 0.10
CALIB_LOOPS = 1_000_000
#: a stuck child must not take the invocation past the driver's 180 s limit.
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    """A child process crashed: the benchmark is broken, not the program slow."""


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIB_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def _child(request: Dict) -> Dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ledger.child"], input=json.dumps(request),
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child exceeded {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise ChildFailed(f"child exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def no_pins() -> Dict:
    """The shape of ``expected.json`` with nothing pinned."""
    return {"seed": PIN_SEED, "full": {}, "tiny": {}}


def load_pins(path: Path = EXPECTED) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def summarise(values: Sequence[float], unit: str) -> Dict:
    """Median with quartiles and the sample count (and the samples themselves)."""
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"value": median(values), "q1": q1, "q3": q3, "n": len(values),
            "unit": unit, "samples": list(values)}


def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def run_ledger(names: Sequence[str], *, seed: int = PIN_SEED, scale: str = "full",
               repeats: int = 5, seconds: Optional[float] = None,
               traced: bool = False, pins: Optional[Dict] = None,
               log: Callable[[str], None] = lambda line: None) -> Dict:
    """Run the named workloads and return the complete result document.

    ``seconds`` time-boxes the untraced rounds (at least ``MIN_REPEATS``);
    without it exactly ``repeats`` rounds run.  ``traced`` adds one traced
    repeat per workload after them.
    """
    workloads: List[Workload] = [BY_NAME[name] for name in names]
    pins = load_pins() if pins is None else pins
    pinned = pins[scale] if seed == pins["seed"] else {}
    base = {"seed": seed, "scratch": str(OUT)}
    references = {}
    for w in workloads:
        if w.kind != "scalar":
            log(f"reference pass: {w.name}")
            references[w.name] = _child(
                {**base, "role": "reference", "workload": w.at(scale)})

    def repeat(w: Workload, with_trace: bool) -> Dict:
        return _child({**base, "role": "measure", "workload": w.at(scale),
                       "traced": with_trace, "reference": references.get(w.name),
                       "pins": pinned.get(w.name)})

    def run_round(index: int) -> Dict:
        order = workloads if index % 2 == 0 else workloads[::-1]
        calib = calibrate()
        log(f"round {index}: calib {calib:.4f} s")
        return {"calib_s": calib, "reruns": 0,
                "reports": {w.name: repeat(w, False) for w in order}}

    rounds: List[Dict] = []
    started = time.perf_counter()
    wanted = repeats if seconds is None else MIN_REPEATS
    while len(rounds) < wanted or (
            seconds is not None and time.perf_counter() - started < seconds):
        rounds.append(run_round(len(rounds)))

    def off_by(round_: Dict) -> float:
        return abs(round_["calib_s"] / median(r["calib_s"] for r in rounds) - 1.0)

    for _ in range(MAX_RERUNS):
        worst = max(range(len(rounds)), key=lambda i: off_by(rounds[i]))
        if off_by(rounds[worst]) <= CALIB_TOLERANCE:
            break
        log(f"round {worst}: calibration {off_by(rounds[worst]):.0%} off, running again")
        rounds[worst] = {**run_round(worst), "reruns": rounds[worst]["reruns"] + 1}
    for round_ in rounds:
        round_["flagged"] = off_by(round_) > CALIB_TOLERANCE

    traces = {}
    if traced:
        for w in workloads:
            log(f"traced repeat: {w.name}")
            traces[w.name] = repeat(w, True)

    document: Dict = {
        "schema": 1,
        "seed": seed,
        "scale": scale,
        "machine": {**rounds[0]["reports"][names[0]]["machine"], "commit": _git_commit()},
        "rounds": [{"calib_s": r["calib_s"], "reruns": r["reruns"],
                    "flagged": r["flagged"]} for r in rounds],
        "workloads": {},
    }
    calib_s = median(r["calib_s"] for r in rounds)
    for w in workloads:
        reports = [r["reports"][w.name] for r in rounds]
        entry: Dict = {
            "end_to_end": {
                m.name: summarise([rep["metrics"][m.name] for rep in reports], m.unit)
                for m in END_TO_END
            },
        }
        if w.name in traces:
            trace = traces[w.name]
            reports.append(trace)
            layers, reasons = trace["layers"], trace["reasons"]
            layers["trace.overhead_ratio"] = (
                trace["metrics"]["wall_s"] / entry["end_to_end"]["wall_s"]["value"])
            layers["machine.calib_s"] = calib_s
            for name in ("trace.overhead_ratio", "machine.calib_s"):
                reasons.pop(name, None)
            entry["layers"] = layers
            entry["reasons"] = reasons
            entry["spans"] = [
                {**span, "workload": w.name, "repeat": len(rounds)}
                for span in trace["spans"]
            ]
        failures = []
        for k, report in enumerate(reports):
            failures.extend([k, index, message] for index, message in report["failures"])
            if report["fingerprints"] != reports[0]["fingerprints"]:
                failures.append([k, -1, "simulated statistics differ from repeat 0"])
        entry["fingerprints"] = reports[0]["fingerprints"]
        entry["ops"] = w.ops * len(reports)
        entry["ops_failed"] = len({(k, index) for k, index, _ in failures})
        entry["failures"] = failures
        document["workloads"][w.name] = entry
    return document


# --------------------------------------------------------------------- output
def format_report(document: Dict) -> List[str]:
    """Every metric by name with its unit, one line each."""
    lines = [f"seed {document['seed']}  scale {document['scale']}  "
             f"machine {json.dumps(document['machine'])}"]
    flagged = [i for i, r in enumerate(document["rounds"]) if r["flagged"]]
    if flagged:
        lines.append(f"NOISY: rounds {flagged} ran with calibration >"
                     f"{CALIB_TOLERANCE:.0%} off the median")
    units = {m.name: m.unit for m in PER_LAYER}
    for name, entry in document["workloads"].items():
        lines.append(f"{name}: ops {entry['ops']}  ops_failed {entry['ops_failed']}")
        for metric, cell in entry["end_to_end"].items():
            lines.append(
                f"  {metric:<14} {cell['value']:>14.6g} {cell['unit']:<4} "
                f"[q1 {cell['q1']:.6g}, q3 {cell['q3']:.6g}, n {cell['n']}]")
        for metric, value in entry.get("layers", {}).items():
            if value is not None:
                lines.append(f"  {metric:<28} {value:>14.6g} {units[metric]}")
        absent: Dict[str, List[str]] = {}
        for metric, reason in entry.get("reasons", {}).items():
            absent.setdefault(reason, []).append(metric)
        for reason, metrics in absent.items():
            lines.append(f"  null ({reason}): {' '.join(metrics)}")
        for k, index, message in entry["failures"]:
            lines.append(f"  FAILED repeat {k} result {index}: {message}")
    return lines


def contract_line(entry: Dict, traced: bool) -> str:
    """The driver's last line: one workload's metrics as measured.

    A layer metric that does not apply to the workload reads 0 here; the
    result document keeps it as ``null`` with the reason.
    """
    if traced:
        units = {m.name: m.unit for m in PER_LAYER}
        metrics = {name: {"value": 0.0 if value is None else value, "unit": units[name]}
                   for name, value in entry["layers"].items()}
    else:
        metrics = {name: {"value": cell["value"], "unit": cell["unit"]}
                   for name, cell in entry["end_to_end"].items()}
    return json.dumps({"correct": entry["ops_failed"] == 0, "attempted": entry["ops"],
                       "failed": entry["ops_failed"], "metrics": metrics})


def write_document(document: Dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")


def write_traces(document: Dict) -> None:
    """``ledger/out/trace-<workload>.json``: the spans of the traced repeat."""
    for name, entry in document["workloads"].items():
        if "spans" in entry:
            write_document({"workload": name, "seed": document["seed"],
                            "spans": entry["spans"]}, OUT / f"trace-{name}.json")


def record(document: Dict, path: Path = HISTORY) -> None:
    """Append one line to the trajectory kept PR over PR."""
    line = {
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": document["seed"],
        "scale": document["scale"],
        "machine": document["machine"],
        "noisy_rounds": sum(r["flagged"] for r in document["rounds"]),
        "workloads": {
            name: {
                "ops": entry["ops"],
                "ops_failed": entry["ops_failed"],
                "end_to_end": {m: [c["value"], c["q1"], c["q3"], c["n"]]
                               for m, c in entry["end_to_end"].items()},
                **({"layers": entry["layers"]} if "layers" in entry else {}),
            }
            for name, entry in document["workloads"].items()
        },
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(line) + "\n")


def pin(document: Dict, path: Path = EXPECTED) -> None:
    """Freeze this run's simulated statistics as the expected ones."""
    if document["seed"] != PIN_SEED:
        raise ValueError(f"pins are taken at seed {PIN_SEED}, not {document['seed']}")
    pins = load_pins(path) if path.exists() else no_pins()
    for name, entry in document["workloads"].items():
        pins[document["scale"]][name] = entry["fingerprints"]
    write_document(pins, path)
