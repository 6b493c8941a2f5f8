"""``python -m ledger compare A.json B.json``: did B get worse than A?

One verdict per (workload, end-to-end metric), by the bounds in
:mod:`ledger.metrics`:

* ``worse`` / ``better`` — the medians differ by more than the bound (relative,
  with an absolute floor) and the run-to-run spread is narrower than it;
* ``same`` — they do not;
* ``unresolved`` — the quartile spread of either side is wider than the bound,
  so the medians cannot settle it; it still reads ``better`` (``worse``) when
  every sample of B beats (loses to) every sample of A.

Simulated statistics are exact counts: with equal seed and scale they must be
equal, and ``result_bytes`` may not grow at all.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ledger.metrics import END_TO_END, EndToEnd


def _verdict(metric: EndToEnd, a: Dict, b: Dict, exact: bool) -> Tuple[str, float, float]:
    """``(verdict, relative change towards worse, relative spread)``."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"])
    if metric.exact and exact:
        verdict = "worse" if worse_by > 0 else "better" if worse_by < 0 else "same"
        return verdict, worse_by / a["value"], 0.0
    threshold = max(metric.bound * a["value"], metric.floor)
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
    ordered_a = [sign * v for v in a["samples"]]
    ordered_b = [sign * v for v in b["samples"]]
    if spread > threshold:
        if min(ordered_b) > max(ordered_a) and worse_by > threshold:
            verdict = "worse"
        elif max(ordered_b) < min(ordered_a):
            verdict = "better"
        else:
            verdict = "unresolved"
    elif worse_by > threshold:
        verdict = "worse"
    elif -worse_by > threshold:
        verdict = "better"
    else:
        verdict = "same"
    return verdict, worse_by / a["value"], spread / a["value"]


def compare(a: Dict, b: Dict) -> Tuple[List[Dict], int]:
    """One row per verdict, and the exit code (1 on ``worse`` or a mismatch)."""
    rows: List[Dict] = []
    comparable = (a["seed"], a["scale"]) == (b["seed"], b["scale"])

    def problem(workload: str, note: str) -> None:
        rows.append({"workload": workload, "metric": "-", "verdict": "mismatch",
                     "note": note})

    if not comparable:
        rows.append({"workload": "-", "metric": "-", "verdict": "note",
                     "note": "seed or scale differ: simulated statistics not compared"})
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            problem(name, "missing from B")
            continue
        if entry_a["ops_failed"] or entry_b["ops_failed"]:
            problem(name, f"ops_failed A {entry_a['ops_failed']} B {entry_b['ops_failed']}")
        if comparable and entry_a["fingerprints"] != entry_b["fingerprints"]:
            problem(name, "simulated statistics differ (exact counts)")
        for metric in END_TO_END:
            cell_a = entry_a["end_to_end"][metric.name]
            cell_b = entry_b["end_to_end"][metric.name]
            verdict, change, spread = _verdict(metric, cell_a, cell_b, comparable)
            rows.append({
                "workload": name, "metric": metric.name, "verdict": verdict,
                "note": f"A {cell_a['value']:.6g} B {cell_b['value']:.6g} {metric.unit}, "
                        f"{change:+.1%} towards worse, bound {metric.bound:.0%}, "
                        f"spread {spread:.1%}",
            })
    bad = any(row["verdict"] in ("worse", "mismatch") for row in rows)
    return rows, 1 if bad else 0


def format_rows(rows: List[Dict]) -> List[str]:
    lines = [f"{row['workload']:<26} {row['metric']:<13} {row['verdict']:<10} {row['note']}"
             for row in rows]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    if unresolved:
        lines.append(f"{len(unresolved)} unresolved: the run-to-run spread is wider "
                     "than the bound, so the medians cannot settle those cells")
    return lines
