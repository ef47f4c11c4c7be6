"""Small statistics helpers used by result summaries and benchmark reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class RunningStats:
    """Welford single-pass accumulator for mean/variance/min/max.

    Suitable for streaming metric collection inside the simulator where
    storing every sample would be wasteful.
    """

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        x = float(x)
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan  # NaN-safe

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two accumulators (parallel Welford merge)."""
        out = RunningStats()
        n = self.count + other.count
        if n == 0:
            return out
        delta = other._mean - self._mean
        out.count = n
        out._mean = self._mean + delta * other.count / n
        out._m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / n
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunningStats(count={self.count}, mean={self.mean:.6g}, "
            f"std={self.std:.6g}, min={self.min:.6g}, max={self.max:.6g})"
        )


def percentile(samples, q: float) -> float:
    """Percentile with linear interpolation; ``q`` in [0, 100].

    Returns NaN for an empty sample set instead of raising, which keeps
    report code branch-free.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        return math.nan
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample set."""

    count: int
    mean: float
    std: float
    min: float
    p50: float
    p95: float
    p99: float
    max: float


def summarize(samples) -> Summary:
    """Compute a :class:`Summary` of ``samples`` (any iterable of floats)."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        nan = math.nan
        return Summary(0, nan, nan, nan, nan, nan, nan, nan)
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        min=float(arr.min()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        p99=float(np.percentile(arr, 99)),
        max=float(arr.max()),
    )
