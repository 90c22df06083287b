"""Arrival traces: pre-generated call arrival processes.

The paper runs "each algorithm ... with identical call arrivals and call
holding times" — the classic common-random-numbers discipline.  We realize
it by materializing the whole arrival process once per (traffic matrix,
duration, seed) and replaying the same trace under every routing policy.

A trace holds, per call: arrival time, O-D pair index, exponential holding
time (unit mean, as the paper scales time), and a uniform variate reserved
for any per-call routing randomization (the bifurcated min-link-loss
primaries need one).  Generation is fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ..traffic.matrix import TrafficMatrix
from .rng import substream

__all__ = ["ArrivalTrace", "generate_trace", "generate_multiclass_trace"]


@dataclass(frozen=True)
class ArrivalTrace:
    """A realized call-arrival process.

    ``od_pairs`` lists the O-D pairs with positive demand; ``od_index[c]``
    points into it for call ``c``.  ``times`` is sorted non-decreasing.

    Multi-class traces additionally carry per-call ``bandwidths`` (capacity
    units booked on every link of the chosen path), a ``class_index`` into
    ``class_names``, and the class roster itself; single-class traces leave
    these ``None`` and the simulator books one unit per call.
    """

    od_pairs: tuple[tuple[int, int], ...]
    times: np.ndarray
    od_index: np.ndarray
    holding_times: np.ndarray
    uniforms: np.ndarray
    duration: float
    seed: int
    bandwidths: np.ndarray | None = None
    class_index: np.ndarray | None = None
    class_names: tuple[str, ...] = ()

    @property
    def num_calls(self) -> int:
        return int(self.times.size)

    @cached_property
    def departure_order(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, times)``: calls sorted by departure time, and those times.

        The sort is stable, so calls departing at the same instant keep
        call order.  Computed once per trace: under common random numbers
        every policy replays the same trace and reuses it.
        """
        departures = self.times + self.holding_times
        order = np.argsort(departures, kind="stable")
        return order, departures[order]

    @property
    def is_multiclass(self) -> bool:
        return self.bandwidths is not None

    def calls_for_pair(self, od: tuple[int, int]) -> int:
        """Number of arrivals for one O-D pair (diagnostics)."""
        try:
            idx = self.od_pairs.index(od)
        except ValueError:
            return 0
        return int(np.count_nonzero(self.od_index == idx))

    def calls_for_class(self, name: str) -> int:
        """Number of arrivals of one class (multi-class traces only)."""
        if self.class_index is None:
            return 0
        try:
            idx = self.class_names.index(name)
        except ValueError:
            return 0
        return int(np.count_nonzero(self.class_index == idx))


def _sample_holding_times(rng, count: int, distribution: str) -> np.ndarray:
    """Unit-mean holding times from the requested distribution.

    ``exponential`` is the paper's model; ``deterministic`` (constant 1) and
    ``hyperexponential`` (balanced two-phase, coefficient of variation 2)
    exist for insensitivity studies — the single-path loss network's
    blocking is provably insensitive to the holding distribution, while the
    state-dependent alternate-routing dynamics need not be.
    """
    if distribution == "exponential":
        return rng.exponential(1.0, size=count)
    if distribution == "deterministic":
        return np.ones(count)
    if distribution == "hyperexponential":
        # Balanced H2 with unit mean and squared CV of 4: phases with rates
        # r1, r2 picked with probabilities p, 1-p such that p/r1 = (1-p)/r2.
        scv = 4.0
        p = 0.5 * (1.0 + np.sqrt((scv - 1.0) / (scv + 1.0)))
        rate1 = 2.0 * p
        rate2 = 2.0 * (1.0 - p)
        phase_one = rng.random(count) < p
        samples = np.where(
            phase_one,
            rng.exponential(1.0 / rate1, size=count),
            rng.exponential(1.0 / rate2, size=count),
        )
        return samples
    raise ValueError(
        f"unknown holding distribution {distribution!r}; expected 'exponential', "
        "'deterministic' or 'hyperexponential'"
    )


def generate_trace(
    traffic: TrafficMatrix,
    duration: float,
    seed: int,
    holding: str = "exponential",
) -> ArrivalTrace:
    """Generate the superposed Poisson arrival process for a demand matrix.

    The superposition of independent per-pair Poisson processes with rates
    ``T(i, j)`` is a Poisson process of total rate ``sum T`` whose marks are
    i.i.d. categorical with probabilities ``T(i, j) / sum T`` — which is how
    we sample it: one Poisson count, sorted uniform arrival instants, and a
    categorical mark per call.  ``holding`` picks the unit-mean holding-time
    distribution (the paper's model is ``"exponential"``; see
    :func:`_sample_holding_times` for the insensitivity-study options).
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    pairs: list[tuple[int, int]] = []
    rates: list[float] = []
    for od, demand in traffic.positive_pairs():
        pairs.append(od)
        rates.append(demand)
    total_rate = float(sum(rates))
    rng = substream(seed, "arrivals")
    if total_rate == 0.0:
        empty = np.empty(0)
        return ArrivalTrace(
            od_pairs=tuple(pairs),
            times=empty,
            od_index=np.empty(0, dtype=np.int64),
            holding_times=empty.copy(),
            uniforms=empty.copy(),
            duration=float(duration),
            seed=seed,
        )
    count = int(rng.poisson(total_rate * duration))
    times = np.sort(rng.uniform(0.0, duration, size=count))
    probabilities = np.asarray(rates) / total_rate
    od_index = rng.choice(len(pairs), size=count, p=probabilities)
    holding_times = _sample_holding_times(rng, count, holding)
    uniforms = rng.uniform(0.0, 1.0, size=count)
    return ArrivalTrace(
        od_pairs=tuple(pairs),
        times=times,
        od_index=od_index.astype(np.int64),
        holding_times=holding_times,
        uniforms=uniforms,
        duration=float(duration),
        seed=seed,
    )


def generate_multiclass_trace(
    class_traffic: Sequence[tuple[str, TrafficMatrix, int]],
    duration: float,
    seed: int,
) -> ArrivalTrace:
    """Generate a merged arrival process for several call classes.

    ``class_traffic`` lists ``(name, demand_matrix, bandwidth)`` triples;
    each class is an independent Poisson process over its own matrix, and
    every call books ``bandwidth`` capacity units on each link of its path.
    Holding times are exp(1) for every class, as in the paper's model.  The
    merged trace is sorted by arrival time, so the simulator replays it
    unchanged.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not class_traffic:
        raise ValueError("need at least one traffic class")
    names = [name for name, __, ___ in class_traffic]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate class names in {names}")
    for name, __, bandwidth in class_traffic:
        if bandwidth < 1:
            raise ValueError(f"class {name!r} has non-positive bandwidth {bandwidth}")

    # One pooled O-D pair list across classes, so od_index stays unambiguous.
    pair_index: dict[tuple[int, int], int] = {}
    segments = []
    for class_id, (name, matrix, bandwidth) in enumerate(class_traffic):
        rng = substream(seed, "arrivals", name)
        pairs, rates = [], []
        for od, demand in matrix.positive_pairs():
            pairs.append(od)
            rates.append(demand)
        total_rate = float(sum(rates))
        if total_rate == 0.0:
            continue
        count = int(rng.poisson(total_rate * duration))
        times = rng.uniform(0.0, duration, size=count)
        choice = rng.choice(len(pairs), size=count, p=np.asarray(rates) / total_rate)
        for od in pairs:
            pair_index.setdefault(od, len(pair_index))
        od_idx = np.array([pair_index[pairs[c]] for c in choice], dtype=np.int64)
        segments.append(
            (
                times,
                od_idx,
                rng.exponential(1.0, size=count),
                rng.uniform(0.0, 1.0, size=count),
                np.full(count, class_id, dtype=np.int64),
                np.full(count, bandwidth, dtype=np.int64),
            )
        )

    if segments:
        times = np.concatenate([s[0] for s in segments])
        order = np.argsort(times, kind="stable")
        merged = [np.concatenate([s[i] for s in segments])[order] for i in range(6)]
    else:
        merged = [np.empty(0) for __ in range(4)] + [
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        ]
        merged[1] = merged[1].astype(np.int64)
    od_pairs = tuple(sorted(pair_index, key=lambda od: pair_index[od]))
    return ArrivalTrace(
        od_pairs=od_pairs,
        times=merged[0],
        od_index=merged[1].astype(np.int64),
        holding_times=merged[2],
        uniforms=merged[3],
        duration=float(duration),
        seed=seed,
        bandwidths=merged[5].astype(np.int64),
        class_index=merged[4].astype(np.int64),
        class_names=tuple(names),
    )
