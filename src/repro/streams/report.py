"""Plain-text reporting helpers shared by the benchmark harness and examples."""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .runner import ReplayResult

__all__ = ["format_table", "format_replay_results"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple fixed-width text table (no external dependencies)."""
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_replay_results(results: Iterable[ReplayResult]) -> str:
    """Tabulate replay results across engines (one row per engine)."""
    headers = (
        "engine",
        "updates",
        "answering ms/update",
        "matched updates",
        "timed out",
    )
    rows = []
    for result in results:
        rows.append(
            (
                result.engine,
                f"{result.updates_processed}/{result.num_updates}",
                f"{result.answering_time_ms_per_update:.3f}",
                result.matched_updates,
                "yes" if result.timed_out else "no",
            )
        )
    return format_table(headers, rows)
