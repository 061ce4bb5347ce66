"""Quartiles and spread, computed one way for run.py and report.py alike."""

from __future__ import annotations

import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")
