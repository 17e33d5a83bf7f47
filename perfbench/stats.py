"""Percentile and ratio arithmetic shared by run.py and its tests."""

import math


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it (the highest sample for p = 100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile rank must be in (0, 100]")
    rank = math.ceil(p / 100.0 * len(xs))
    return xs[max(1, rank) - 1]


def median(values):
    """The middle sample, or the mean of the two middle ones."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - math.ceil(p / 100.0 * n)


def ratio(part, whole):
    """part / whole, defined as 0 when there is nothing to divide."""
    return part / whole if whole else 0.0
