"""Mutable live network state for the admission-control service.

The offline simulators rebuild occupancy from scratch per run; the serving
plane instead holds one long-lived :class:`NetworkState`: per-link
occupancies in a NumPy array with O(1) per-link admit/release, the
per-link alternate-admission thresholds of the compiled policy, and —
optionally — the same online protection-level adaptation loop as
:class:`repro.routing.adaptive.AdaptiveProtectionSimulator`: links count
the primary set-ups that fly past them, periodically fold the measured
rate into an EWMA demand estimate, and recompute their Equation-15
protection levels via :func:`repro.core.protection.min_protection_level`.

With adaptation off (the default) the thresholds are exactly the policy's
static ones, which is what makes a trace replay through the engine
bit-comparable to :class:`repro.sim.simulator.LossNetworkSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.protection import min_protection_levels
from ..routing.base import RoutingPolicy, bound_table, policy_bounds
from ..topology.graph import Network

__all__ = [
    "AdaptationConfig",
    "NetworkState",
    "PolicySwap",
    "ThresholdRefresh",
    "partition_links",
]


def partition_links(num_links: int, num_shards: int) -> tuple[tuple[int, ...], ...]:
    """Balanced contiguous partition of link ids across ``num_shards``.

    Contiguous blocks keep both directions of a duplex trunk (adjacent in
    every topology builder's link order) on one shard, which is what makes
    short paths single-shard and the cluster's one-hop fast path common.
    Shards may own zero links when ``num_shards > num_links``.
    """
    if num_links < 0:
        raise ValueError("num_links must be non-negative")
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    bounds = [num_links * s // num_shards for s in range(num_shards + 1)]
    return tuple(
        tuple(range(bounds[s], bounds[s + 1])) for s in range(num_shards)
    )

#: Disciplines the serving plane speaks: the paper's threshold family.
_SUPPORTED_DISCIPLINES = ("threshold", "length-threshold")


@dataclass(frozen=True)
class AdaptationConfig:
    """Online protection refresh: the adaptive simulator's knobs, served.

    Every ``update_interval`` units of request time, each link folds its
    observed primary set-up rate into an EWMA estimate with weight
    ``ewma_weight`` and recomputes its protection level for ``max_hops``.
    ``initial_loads`` seeds the estimates (``None`` = cold start: links
    begin unprotected and harden as they learn).
    """

    update_interval: float = 5.0
    ewma_weight: float = 0.3
    max_hops: int = 6
    initial_loads: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.update_interval <= 0:
            raise ValueError("update_interval must be positive")
        if not 0 < self.ewma_weight <= 1:
            raise ValueError("ewma_weight must lie in (0, 1]")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")


@dataclass(frozen=True)
class ThresholdRefresh:
    """One adaptation step: when it fired and what the links adopted."""

    time: float
    estimated_loads: np.ndarray
    protection_levels: np.ndarray


@dataclass(frozen=True)
class PolicySwap:
    """One hot swap: the epoch it installed and how far thresholds moved."""

    time: float
    epoch: int
    max_delta: float


class NetworkState:
    """Occupancies + admission bounds for one network under one policy.

    ``occupancy`` is the authoritative per-link circuit count
    (``np.int64``); :meth:`admit` and :meth:`release` book and free one
    path in O(path length).  ``bounds`` is the read-only admission-bound
    table (see :func:`repro.routing.base.bound_table`): row ``h`` bounds
    alternates of ``h`` hops, and under the ``threshold`` discipline every
    row is the same ``C - r`` vector.  :meth:`hot_swap` and adaptation
    replace the whole table, never edit it in place.

    The request engine's batch loop works on list snapshots of these
    arrays and writes occupancy back per batch (:meth:`arrays` /
    :meth:`absorb`), so the NumPy views are always consistent *between*
    batches — which is when telemetry and adaptation read them.
    """

    def __init__(
        self,
        network: Network,
        policy: RoutingPolicy,
        adaptation: AdaptationConfig | None = None,
    ):
        if policy.discipline not in _SUPPORTED_DISCIPLINES:
            raise ValueError(
                f"serve supports disciplines {_SUPPORTED_DISCIPLINES}, got "
                f"{policy.discipline!r} (policy {policy.name!r})"
            )
        if policy.network.num_links != network.num_links:
            raise ValueError("policy was compiled for a different network")
        self.network = network
        self.policy = policy
        self.capacities = network.capacities().astype(np.int64)
        self.occupancy = np.zeros(network.num_links, dtype=np.int64)
        hops = [
            len(alt)
            for options in policy.choices.values()
            for choice in options
            for alt in choice.alternates
        ]
        self.bounds = policy_bounds(policy, max(hops, default=1))
        #: Row of :attr:`alt_thresholds`: the shortest alternate's, i.e. the
        #: laxest bound in force.
        self._view_row = min(hops, default=1)
        self._rows: list[list[int]] = []
        self._rows_of: np.ndarray | None = None
        self.adaptation = adaptation
        self.refreshes: list[ThresholdRefresh] = []
        #: Monotone policy version: 0 at construction, bumped by every
        #: :meth:`hot_swap`.  Decisions are attributable to the epoch in
        #: force when they were made; the cluster stamps it into every
        #: shard so in-flight reservations commit against one version.
        self.policy_epoch = 0
        self.swaps: list[PolicySwap] = []
        #: Recomputes fired by :meth:`maybe_refresh` (the initial level
        #: application in the constructor is not counted — it is seeding,
        #: not adaptation).  Telemetry exports this as a counter.
        self.recompute_count = 0
        #: max |Δ threshold| of the most recent level application — how far
        #: the links moved their admission bounds in one step.  0.0 means
        #: the last recompute confirmed the thresholds already in force;
        #: operators watch this settle back to 0 after a regime shift.
        self.last_refresh_delta = 0.0
        if adaptation is not None:
            if policy.discipline != "threshold":
                raise ValueError(
                    "online threshold adaptation requires the 'threshold' "
                    "discipline"
                )
            if adaptation.initial_loads is None:
                self._estimates = np.zeros(network.num_links, dtype=float)
            else:
                self._estimates = np.asarray(adaptation.initial_loads, dtype=float)
                if self._estimates.shape != (network.num_links,):
                    raise ValueError("initial_loads must be per-link")
            self.setup_counts = np.zeros(network.num_links, dtype=np.int64)
            self.next_refresh: float | None = adaptation.update_interval
            self._apply_levels(0.0)
        else:
            self.next_refresh = None

    @property
    def alt_thresholds(self) -> np.ndarray:
        """Read-only per-link bound of the shortest alternates (telemetry)."""
        return self.bounds[self._view_row]

    # ------------------------------------------------------------- admission

    def admit(self, path: tuple[int, ...], width: int = 1) -> None:
        """Book ``width`` circuits on every link of ``path``."""
        for link in path:
            self.occupancy[link] += width

    def release(self, path: tuple[int, ...], width: int = 1) -> None:
        """Free ``width`` circuits on every link of ``path``."""
        for link in path:
            self.occupancy[link] -= width

    def utilization(self) -> float:
        """Network-wide occupied fraction of all circuits."""
        total = int(self.capacities.sum())
        return float(self.occupancy.sum()) / total if total else 0.0

    # ------------------------------------------------------------- sharding

    def shard_spec(self, shard_id: int, links: Sequence[int]) -> dict:
        """Self-contained state slice for one cluster shard worker.

        Everything a worker process needs to admit against its links —
        capacities and the bound table's rows — as plain picklable data
        keyed by *global* link id, so the worker never imports the policy
        or the network.
        """
        links = tuple(int(link) for link in links)
        return {
            "shard_id": int(shard_id),
            "epoch": int(self.policy_epoch),
            "links": links,
            "capacities": {l: int(self.capacities[l]) for l in links},
            "bounds": [{l: int(row[l]) for l in links} for row in self.bounds],
        }

    # -------------------------------------------------------------- hot swap

    def hot_swap(self, thresholds, *, now: float = 0.0) -> float:
        """Atomically install new alternate-admission bounds.

        ``thresholds`` is a per-link vector (every hop count takes it) or a
        ``{hops: per-link}`` mapping (only the named hop counts change), as
        :func:`repro.routing.base.bound_table` applies it.  The swap bumps
        :attr:`policy_epoch`, records a :class:`PolicySwap`, and returns
        the max absolute move over the table — in-flight occupancy is
        untouched, so decisions made after the swap see the new bounds
        against the same live circuits.
        """
        incoming = bound_table(thresholds, self.capacities, self.bounds)
        max_delta = float(np.abs(incoming - self.bounds).max(initial=0))
        self.bounds = incoming
        self.policy_epoch += 1
        self.last_refresh_delta = max_delta
        self.swaps.append(
            PolicySwap(time=now, epoch=self.policy_epoch, max_delta=max_delta)
        )
        return max_delta

    # ---------------------------------------------------- batch-loop bridge

    def arrays(self) -> tuple[list[int], list[list[int]]]:
        """List snapshots of (occupancy, bound rows).

        The rows are rebuilt only when the table was replaced; callers
        must treat them as read-only.
        """
        if self._rows_of is not self.bounds:
            self._rows = [row.tolist() for row in self.bounds]
            self._rows_of = self.bounds
        return self.occupancy.tolist(), self._rows

    def absorb(self, occupancy: list[int], setups: list[int] | None = None) -> None:
        """Write one batch's occupancy (and set-up counts) back."""
        self.occupancy[:] = occupancy
        if setups is not None and self.adaptation is not None:
            self.setup_counts += np.asarray(setups, dtype=np.int64)

    # ------------------------------------------------------------ adaptation

    def _apply_levels(self, now: float) -> None:
        capacities = self.capacities
        levels = min_protection_levels(
            self._estimates, capacities, self.adaptation.max_hops
        )
        incoming = bound_table(capacities - levels, capacities, self.bounds)
        self.last_refresh_delta = float(
            np.abs(incoming - self.bounds).max(initial=0)
        )
        self.bounds = incoming
        self.refreshes.append(
            ThresholdRefresh(
                time=now,
                estimated_loads=self._estimates.copy(),
                protection_levels=levels,
            )
        )

    def maybe_refresh(self, now: float) -> bool:
        """Run every adaptation window boundary at or before ``now``.

        Returns True if any refresh fired (the engine then re-snapshots its
        threshold lists).  No-op when adaptation is off.
        """
        if self.next_refresh is None or now < self.next_refresh:
            return False
        config = self.adaptation
        while now >= self.next_refresh:
            measured = self.setup_counts / config.update_interval
            self._estimates = (
                (1.0 - config.ewma_weight) * self._estimates
                + config.ewma_weight * measured
            )
            self.setup_counts[:] = 0
            self._apply_levels(self.next_refresh)
            self.recompute_count += 1
            self.next_refresh += config.update_interval
        return True
