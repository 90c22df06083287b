"""Simulation metrics: blocking statistics and multi-seed aggregation.

The paper's headline metric is the *average network blocking*: the fraction
of calls (after warm-up) that completed on no path at all.  Section 4.2.2
additionally studies blocking skewness across O-D pairs.  Results carry
per-pair offered/blocked counts plus routing-mix counters (how many calls
completed on their primary vs an alternate), and :class:`SweepStatistic`
aggregates replications into mean and confidence half-width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["SimulationResult", "SweepStatistic", "BinnedSeries", "aggregate"]


@dataclass
class SimulationResult:
    """Counts from one simulation run, restricted to the measured window.

    ``offered[p]`` and ``blocked[p]`` count calls of O-D pair index ``p``
    (indexing matches the trace's ``od_pairs``).  ``primary_carried`` and
    ``alternate_carried`` split the accepted calls by the tier that carried
    them.

    Under dynamic faults a third outcome exists: a call *admitted* and later
    *dropped* because a link on its path failed mid-holding-time.  Dropped
    calls stay in the carried counters (they were admitted) but are charged
    against :attr:`availability`; ``dropped[p]`` counts them per O-D pair,
    restricted — like ``offered``/``blocked`` — to calls that arrived inside
    the measured window.

    ``backend`` records the engine that produced the counts: ``"compiled"``
    for the admission kernel, ``"reference"`` for the general loop.  It is
    provenance, not semantics — both engines are bit-identical.
    """

    od_pairs: tuple[tuple[int, int], ...]
    offered: np.ndarray
    blocked: np.ndarray
    primary_carried: int
    alternate_carried: int
    warmup: float
    duration: float
    seed: int
    class_names: tuple[str, ...] = ()
    class_offered: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    class_blocked: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    dropped: np.ndarray | None = None
    backend: str | None = field(default=None, compare=False)

    @property
    def total_offered(self) -> int:
        return int(self.offered.sum())

    @property
    def total_blocked(self) -> int:
        return int(self.blocked.sum())

    @property
    def network_blocking(self) -> float:
        """Fraction of measured calls blocked on every permitted path."""
        offered = self.total_offered
        if offered == 0:
            return 0.0
        return self.total_blocked / offered

    @property
    def total_dropped(self) -> int:
        """Calls admitted but severed by a mid-run link failure."""
        if self.dropped is None:
            return 0
        return int(self.dropped.sum())

    @property
    def network_drop_rate(self) -> float:
        """Fraction of measured calls dropped after admission."""
        offered = self.total_offered
        if offered == 0:
            return 0.0
        return self.total_dropped / offered

    @property
    def availability(self) -> float:
        """Fraction of measured calls served to completion.

        One minus the blocked *and* dropped fractions: blocking alone
        understates user-visible loss under churn, since a dropped call
        counted as carried still failed its user.
        """
        offered = self.total_offered
        if offered == 0:
            return 1.0
        return 1.0 - (self.total_blocked + self.total_dropped) / offered

    @property
    def alternate_fraction(self) -> float:
        """Fraction of carried calls that used an alternate path."""
        carried = self.primary_carried + self.alternate_carried
        if carried == 0:
            return 0.0
        return self.alternate_carried / carried

    def pair_blocking(self) -> dict[tuple[int, int], float]:
        """Per-O-D blocking probabilities (pairs with no offered calls omitted)."""
        result: dict[tuple[int, int], float] = {}
        for index, od in enumerate(self.od_pairs):
            if self.offered[index] > 0:
                result[od] = float(self.blocked[index] / self.offered[index])
        return result

    def class_blocking(self) -> dict[str, float]:
        """Per-class blocking (multi-class runs; unoffered classes omitted)."""
        result: dict[str, float] = {}
        for index, name in enumerate(self.class_names):
            if self.class_offered[index] > 0:
                result[name] = float(
                    self.class_blocked[index] / self.class_offered[index]
                )
        return result


@dataclass(frozen=True)
class BinnedSeries:
    """Per-time-bin call outcomes over absolute simulation time.

    Bin ``i`` covers ``[i * bin_width, (i + 1) * bin_width)`` and counts the
    *measured* calls arriving in it (``offered``/``blocked``) plus the
    measured calls severed in it (``dropped``, attributed to the bin of the
    drop instant, not the arrival).  The dynamic-failure experiments use
    this to locate the blocking transient around a failure and measure the
    time to recover after repair.
    """

    bin_width: float
    offered: np.ndarray
    blocked: np.ndarray
    dropped: np.ndarray

    @property
    def num_bins(self) -> int:
        return int(self.offered.size)

    def bin_start(self, index: int) -> float:
        return index * self.bin_width

    def loss_fraction(self) -> np.ndarray:
        """Per-bin (blocked + dropped) / offered, zero where nothing offered."""
        offered = self.offered.astype(float)
        loss = (self.blocked + self.dropped).astype(float)
        return np.divide(loss, offered, out=np.zeros_like(loss), where=offered > 0)

    def time_to_recover(
        self, repair_time: float, baseline: float, tolerance: float = 0.02
    ) -> float:
        """Time from ``repair_time`` until loss first returns near ``baseline``.

        Scans the bins at or after the repair for the first whose loss
        fraction is within ``tolerance`` of the pre-failure ``baseline``;
        returns the end of that bin minus ``repair_time``.  Returns the
        remaining horizon when the run never recovers.
        """
        first = int(np.floor(repair_time / self.bin_width))
        loss = self.loss_fraction()
        for index in range(first, self.num_bins):
            if self.offered[index] == 0:
                continue
            if loss[index] <= baseline + tolerance:
                end = (index + 1) * self.bin_width
                return max(0.0, end - repair_time)
        return self.num_bins * self.bin_width - repair_time


@dataclass(frozen=True)
class SweepStatistic:
    """Mean and spread of a scalar metric over independent replications."""

    mean: float
    std: float
    half_width: float
    num_runs: int
    values: tuple[float, ...] = field(repr=False, default=())

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width


# Two-sided 95% Student-t quantiles for small sample sizes; beyond the table
# the normal value is close enough.
_T_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 20: 2.086, 25: 2.060, 30: 2.042,
}


def _t_quantile(dof: int) -> float:
    if dof <= 0:
        return 0.0
    if dof in _T_95:
        return _T_95[dof]
    for key in sorted(_T_95):
        if key >= dof:
            return _T_95[key]
    return 1.96


def aggregate(values: Sequence[float]) -> SweepStatistic:
    """Combine replication values into mean / std / 95% half-width."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot aggregate zero replications")
    mean = float(data.mean())
    if data.size == 1:
        return SweepStatistic(mean, 0.0, 0.0, 1, tuple(data.tolist()))
    std = float(data.std(ddof=1))
    half = _t_quantile(data.size - 1) * std / float(np.sqrt(data.size))
    return SweepStatistic(mean, std, half, int(data.size), tuple(data.tolist()))
