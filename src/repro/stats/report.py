"""Plain-text report formatting for experiment results.

The experiment harness returns dictionaries / dataclasses; these helpers turn
them into aligned text tables so that examples, benchmarks and the CLI can
print the same rows the paper's figures plot.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def json_safe(value: object) -> object:
    """Recursively replace non-finite floats with ``None`` for strict JSON.

    ``json.dump`` writes ``float("nan")`` as the bare token ``NaN`` (and the
    infinities as ``Infinity``), which is not JSON — strict parsers reject
    it.  Every export path (CLI ``--export``/``--json``/``--out``) routes its
    payload through this helper, so empty-sample summaries serialize as
    ``null``.
    """
    if isinstance(value, float):  # bool is not a float; ints pass through below
        return value if math.isfinite(value) else None
    if isinstance(value, Mapping):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render a list of dictionaries as an aligned text table."""
    if not rows:
        return "(no data)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, bool) or value is None:
            return str(value)
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(cells[i]) for cells in rendered)) for i, col in enumerate(columns)
    ]
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = [
        "  ".join(cells[i].ljust(widths[i]) for i in range(len(columns))) for cells in rendered
    ]
    return "\n".join([header, separator, *body])


def format_series(label: str, xs: Iterable[float], ys: Iterable[float],
                  x_name: str = "x", y_name: str = "y") -> str:
    """Render one plotted series as ``label: (x, y) (x, y) ...`` pairs."""
    pairs = ", ".join(f"({x:g}, {y:.4g})" for x, y in zip(xs, ys, strict=True))
    return f"{label} [{x_name} -> {y_name}]: {pairs}"


def comparison_table(results_by_algorithm: Dict[str, Mapping[str, object]],
                     columns: Sequence[str]) -> str:
    """Render a {algorithm: metrics} mapping as a table with an ``algorithm`` column."""
    rows: List[Dict[str, object]] = []
    for name, metrics in results_by_algorithm.items():
        row: Dict[str, object] = {"algorithm": name}
        row.update({col: metrics.get(col) for col in columns})
        rows.append(row)
    return format_table(rows, columns=["algorithm", *columns])
