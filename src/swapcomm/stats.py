"""Minimal statistics helpers for the sampling checks.

Only the chi-square test against a uniform four-way distribution is
needed, so the survival function is the closed form for 3 degrees of
freedom rather than a scipy dependency:

    sf(x) = erfc(sqrt(x/2)) + sqrt(2x/pi) * exp(-x/2)
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence


def chi2_sf_3df(x: float) -> float:
    """Survival function of the chi-square distribution with 3 dof."""
    if x <= 0:
        return 1.0
    s = x / 2.0
    return math.erfc(math.sqrt(s)) + math.sqrt(2.0 * x / math.pi) * math.exp(-s)


def chi_square_uniform(counts: Sequence[int]) -> tuple[float, float]:
    """Chi-square statistic and p-value of 4 observed counts against the
    equal-weight law (expected 1/4 each)."""
    if len(counts) != 4:
        raise ValueError(f"expected 4 counts, got {len(counts)}")
    total = sum(counts)
    if total == 0:
        raise ValueError("no observations")
    expected = total / 4.0
    stat = sum((c - expected) ** 2 / expected for c in counts)
    return stat, chi2_sf_3df(stat)


def label_counts(labels: Iterable, order: Sequence) -> list[int]:
    """Counts of outcomes arranged in a fixed order, by equality (identity
    first), so that no outcome is hashed."""
    labels = list(labels)
    return [labels.count(item) for item in order]
