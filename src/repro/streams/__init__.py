"""Stream replay harness, metrics, and reporting."""

from .metrics import Timer, TimingStats, deep_sizeof
from .report import format_replay_results, format_table
from .runner import ReplayResult, replay

__all__ = [
    "Timer",
    "TimingStats",
    "deep_sizeof",
    "replay",
    "ReplayResult",
    "format_table",
    "format_replay_results",
]
