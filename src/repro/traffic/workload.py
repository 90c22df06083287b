"""Adversarial and time-varying workloads: per-O-D-pair demand over time.

Everything the repo measured before this module ran *stationary* Poisson
demand — exactly the regime the paper's Theorem-1 guarantee is stated for.
This module supplies the workloads that guarantee says nothing about: a
:class:`Workload` maps every O-D pair to its own piecewise-constant
:class:`~repro.traffic.profiles.LoadProfile` (not just a global scalar),
with constructors for the regime shifts that stress alternate routing in
practice:

* :func:`diurnal` — anti-phased day/night cycles across node regions, the
  slow shift the deployment story (links re-estimating demand, Equation-15
  recompute) is built for;
* :func:`flash_crowd` — a ramped surge into one hotspot node that arrives,
  peaks, and clears (the Olesker-Taylor metastability shape: a transient
  that can kick the network into the bad all-alternate mode);
* :func:`regional_surge` — a block of nodes overloads together, modelling
  a failover or a correlated regional event;
* :func:`adversarial_workload` — an injector in the spirit of Andrews et
  al.'s adversarial source model: each epoch it concentrates demand on the
  O-D pairs whose alternate routes overlap the most with everyone else's,
  rotating targets between epochs so freshly recomputed thresholds are
  wrong again — the worst case for crankback and alternate churn.  The
  schedule is a pure function of ``seed``: every adversarial run is
  replayable bit for bit.

Workloads **compose**: :meth:`Workload.overlay` multiplies profiles
pointwise, so ``diurnal(...).overlay(flash_crowd(...))`` is the obvious
thing.  :func:`generate_workload_trace` realizes a workload as a standard
:class:`~repro.sim.trace.ArrivalTrace` — per-pair thinning on per-pair
named substreams, so changing one pair's profile never perturbs another
pair's arrivals — which then flows unchanged through the simulators, the
serving plane, and the cluster.

String specs (``"flash-crowd"``, ``"adversarial:7"``) name preset
workloads for the CLI and :class:`repro.api.Scenario`;
:func:`build_workload` resolves them against a concrete network/traffic
and rejects unknown names or malformed seeds with a listing of what it
knows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..sim.rng import substream
from ..sim.trace import ArrivalTrace
from .matrix import TrafficMatrix
from .profiles import LoadProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topology.graph import Network
    from ..topology.paths import PathTable

__all__ = [
    "Workload",
    "WORKLOAD_NAMES",
    "diurnal",
    "flash_crowd",
    "regional_surge",
    "adversarial_workload",
    "alternate_overlap_scores",
    "build_workload",
    "parse_workload_spec",
    "generate_workload_trace",
]

OD = tuple[int, int]


@dataclass(frozen=True)
class Workload:
    """Per-O-D-pair load profiles under one name.

    ``profiles`` holds the pairs that deviate from ``default`` (sorted by
    O-D pair, which keeps the content signature canonical).  A pair absent
    from ``profiles`` follows ``default``.
    """

    name: str
    profiles: tuple[tuple[OD, LoadProfile], ...] = ()
    default: LoadProfile = LoadProfile.constant(1.0)

    def __post_init__(self):
        if not self.name:
            raise ValueError("workload needs a name")
        pairs = [od for od, __ in self.profiles]
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate O-D pair in workload profiles")
        if list(pairs) != sorted(pairs):
            object.__setattr__(
                self, "profiles", tuple(sorted(self.profiles, key=lambda e: e[0]))
            )

    @cached_property
    def _by_pair(self) -> dict[OD, LoadProfile]:
        return dict(self.profiles)

    def profile_for(self, od: OD) -> LoadProfile:
        """The profile one O-D pair follows."""
        return self._by_pair.get(od, self.default)

    def scale_at(self, od: OD, time: float) -> float:
        """The demand multiplier for ``od`` in force at ``time``."""
        return self.profile_for(od).scale_at(time)

    @property
    def shift_time(self) -> float | None:
        """Earliest time any pair's rate changes (``None`` if stationary)."""
        times = [
            profile.breakpoints[0]
            for __, profile in self.profiles
            if profile.breakpoints
        ]
        if self.default.breakpoints:
            times.append(self.default.breakpoints[0])
        return min(times) if times else None

    def overlay(self, other: "Workload") -> "Workload":
        """Compose two workloads by multiplying their profiles pointwise."""
        pairs = {od for od, __ in self.profiles} | {od for od, __ in other.profiles}
        return Workload(
            name=f"{self.name}+{other.name}",
            profiles=tuple(
                (od, self.profile_for(od).multiply(other.profile_for(od)))
                for od in sorted(pairs)
            ),
            default=self.default.multiply(other.default),
        )

    def signature(self) -> dict:
        """JSON-stable content description (feeds the lab's cache keys)."""

        def profile_sig(profile: LoadProfile) -> dict:
            return {
                "breakpoints": [float(b) for b in profile.breakpoints],
                "scales": [float(s) for s in profile.scales],
            }

        return {
            "name": self.name,
            "default": profile_sig(self.default),
            "profiles": [
                [list(od), profile_sig(profile)] for od, profile in self.profiles
            ],
        }


# --------------------------------------------------------------- constructors


def _node_pairs(num_nodes: int) -> list[OD]:
    return [
        (i, j) for i in range(num_nodes) for j in range(num_nodes) if i != j
    ]


def diurnal(
    num_nodes: int,
    horizon: float,
    *,
    period: float = 40.0,
    peak: float = 1.3,
    trough: float = 0.7,
    regions: int = 2,
) -> Workload:
    """Anti-phased day/night demand across ``regions`` node blocks.

    Nodes are split into contiguous blocks; a pair follows its *source*
    node's region, and region ``k`` is phase-shifted by ``k/regions`` of a
    period — so when one region peaks another idles, continuously moving
    the per-link primary loads that Equation 15 was computed from.
    """
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    if period <= 0 or horizon <= 0:
        raise ValueError("period and horizon must be positive")
    if regions < 1 or regions > num_nodes:
        raise ValueError("regions must lie in [1, num_nodes]")
    half = period / 2.0
    region_profiles = []
    for region in range(regions):
        offset = period * region / regions
        breakpoints: list[float] = []
        scales: list[float] = []
        t = -offset
        high = True
        while t < horizon:
            if t <= 0:
                scales = [peak if high else trough]
            else:
                breakpoints.append(t)
                scales.append(peak if high else trough)
            high = not high
            t += half
        region_profiles.append(
            LoadProfile(tuple(breakpoints), tuple(scales[: len(breakpoints) + 1]))
        )
    profiles = tuple(
        (od, region_profiles[min(od[0] * regions // num_nodes, regions - 1)])
        for od in _node_pairs(num_nodes)
    )
    return Workload(name="diurnal", profiles=profiles,
                    default=LoadProfile.constant(1.0))


def flash_crowd(
    num_nodes: int,
    horizon: float,
    *,
    target: int = 0,
    start: float | None = None,
    ramp_steps: int = 3,
    ramp_length: float | None = None,
    peak_scale: float = 2.5,
    hold: float | None = None,
    background: float = 1.0,
) -> Workload:
    """A ramped surge of demand toward (and from) one hotspot node.

    Pairs touching ``target`` climb in ``ramp_steps`` equal steps from
    ``background`` to ``peak_scale`` starting at ``start``, hold the peak
    for ``hold`` time units, then fall straight back — the canonical
    flash-crowd shape.  All other pairs stay at ``background``.
    """
    if not 0 <= target < num_nodes:
        raise ValueError(f"target node {target} out of range")
    if peak_scale <= 0:
        raise ValueError("peak_scale must be positive")
    if ramp_steps < 1:
        raise ValueError("ramp_steps must be positive")
    start = 0.35 * horizon if start is None else start
    ramp_length = 0.1 * horizon if ramp_length is None else ramp_length
    hold = 0.25 * horizon if hold is None else hold
    if start < 0 or ramp_length <= 0 or hold <= 0:
        raise ValueError("start must be >= 0, ramp_length and hold positive")
    breakpoints = [start + ramp_length * k / ramp_steps for k in range(ramp_steps)]
    scales = [background] + [
        background + (peak_scale - background) * (k + 1) / ramp_steps
        for k in range(ramp_steps)
    ]
    breakpoints.append(start + ramp_length + hold)
    scales.append(background)
    surge = LoadProfile(tuple(breakpoints), tuple(scales))
    profiles = tuple(
        (od, surge)
        for od in _node_pairs(num_nodes)
        if target in od
    )
    return Workload(name="flash-crowd", profiles=profiles,
                    default=LoadProfile.constant(background))


def regional_surge(
    num_nodes: int,
    horizon: float,
    *,
    region: tuple[int, ...] | None = None,
    start: float | None = None,
    length: float | None = None,
    scale: float = 1.8,
    background: float = 1.0,
) -> Workload:
    """One block of nodes overloads together for a window, then recovers.

    Pairs whose *source* lies in ``region`` (default: the first half of the
    node ids) jump to ``scale`` on ``[start, start + length)`` — a
    correlated regional event, the shape to compose with a shard kill when
    measuring failure-under-overload.
    """
    region = tuple(range(num_nodes // 2)) if region is None else tuple(region)
    if not region or any(not 0 <= n < num_nodes for n in region):
        raise ValueError("region must be a non-empty tuple of valid node ids")
    start = 0.4 * horizon if start is None else start
    length = 0.3 * horizon if length is None else length
    pulse = LoadProfile.pulse(start, start + length, scale, base=background)
    members = set(region)
    profiles = tuple(
        (od, pulse) for od in _node_pairs(num_nodes) if od[0] in members
    )
    return Workload(name="regional-surge", profiles=profiles,
                    default=LoadProfile.constant(background))


def alternate_overlap_scores(
    network: "Network", table: "PathTable", traffic: TrafficMatrix
) -> dict[OD, float]:
    """How much each pair's alternate routes contend with everyone else's.

    For every link, count the positive-demand pairs whose alternate paths
    traverse it; a pair's score is the sum over its own alternate links of
    the *other* pairs sharing that link.  High-scoring pairs are the ones
    whose overflow sets off the widest crankback/alternate churn — the
    adversary's targets.
    """
    table.check_current(network)
    alt_links = {
        od: set().union(*table.alternate_links.get(od, ()))
        for od, __ in traffic.positive_pairs()
    }
    users = Counter(chain.from_iterable(alt_links.values()))
    return {
        od: float(sum(map(users.__getitem__, links)) - len(links))
        for od, links in alt_links.items()
    }


def adversarial_workload(
    network: "Network",
    table: "PathTable",
    traffic: TrafficMatrix,
    horizon: float,
    *,
    seed: int = 0,
    epochs: int | None = None,
    epoch_length: float | None = None,
    surge: float = 3.0,
    target_fraction: float = 0.15,
    conserve_mass: bool = True,
) -> Workload:
    """The Andrews-et-al.-spirit adversary, fixed by ``seed``.

    Demand is injected in epochs.  Each epoch the adversary surges the
    pairs whose alternate routes overlap the most
    (:func:`alternate_overlap_scores`), drawing its targets from the
    top-scoring pool with a seeded rotation that avoids the previous
    epoch's picks — so thresholds recomputed from the last epoch's
    observations are maximally wrong for the next.  With ``conserve_mass``
    the non-targeted pairs are scaled down so each epoch's total offered
    load equals the stationary total: the adversary redistributes demand
    rather than simply adding it, which keeps comparisons against the
    stationary Theorem-1 bound honest.

    The whole schedule — targets, epochs, scales — is a deterministic
    function of ``(network, table, traffic, horizon, seed, knobs)``.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if surge <= 1.0:
        raise ValueError("surge must exceed 1 (the adversary concentrates load)")
    if not 0.0 < target_fraction <= 0.5:
        raise ValueError("target_fraction must lie in (0, 0.5]")
    if epochs is None:
        epochs = 4 if epoch_length is None else max(1, int(horizon // epoch_length))
    if epochs < 1:
        raise ValueError("epochs must be positive")
    epoch_length = horizon / epochs if epoch_length is None else epoch_length

    scores = alternate_overlap_scores(network, table, traffic)
    pairs = sorted(scores, key=lambda od: (-scores[od], od))
    if not pairs:
        raise ValueError("traffic matrix has no positive demand to attack")
    demands = dict(traffic.positive_pairs())
    total = sum(demands.values())
    k = max(1, int(round(target_fraction * len(pairs))))
    pool = pairs[: min(len(pairs), 3 * k)]

    rng = substream(seed, "adversary", "targets")
    previous: set[OD] = set()
    epoch_targets: list[list[OD]] = []
    for __ in range(epochs):
        order = [pool[i] for i in rng.permutation(len(pool))]
        fresh = [od for od in order if od not in previous]
        picks = (fresh + [od for od in order if od in previous])[:k]
        epoch_targets.append(sorted(picks))
        previous = set(picks)

    # Per-pair scale sequence across epochs: surge when targeted; when mass
    # is conserved, everyone else absorbs the difference so the epoch total
    # matches the stationary total.
    scale_rows: dict[OD, list[float]] = {od: [] for od in pairs}
    for targets in epoch_targets:
        targeted = set(targets)
        surged_mass = sum(demands[od] for od in targeted) * surge
        rest_mass = total - sum(demands[od] for od in targeted)
        if conserve_mass and rest_mass > 0.0 and surged_mass < total:
            off_scale = (total - surged_mass) / rest_mass
        else:
            off_scale = 1.0
        for od in pairs:
            scale_rows[od].append(surge if od in targeted else off_scale)

    breakpoints = tuple(epoch_length * e for e in range(1, epochs))
    profiles = tuple(
        (od, LoadProfile(breakpoints, tuple(scale_rows[od])))
        for od in sorted(pairs)
    )
    return Workload(name=f"adversarial:{int(seed)}", profiles=profiles,
                    default=LoadProfile.constant(1.0))


# ------------------------------------------------------------- named presets

#: Workload spec names :func:`build_workload` understands.
WORKLOAD_NAMES = ("stationary", "diurnal", "flash-crowd", "regional-surge",
                  "adversarial")


def parse_workload_spec(spec: str) -> tuple[str, int]:
    """Split ``"name"`` / ``"name:seed"`` into a validated (name, seed).

    Unknown names and malformed seeds raise ``ValueError`` with the list of
    known workloads — the CLI shows this directly instead of a traceback.
    """
    name, sep, seed_text = spec.partition(":")
    seed = 0
    if sep:
        try:
            seed = int(seed_text)
        except ValueError:
            raise ValueError(
                f"workload seed {seed_text!r} in spec {spec!r} is not an "
                "integer; use e.g. 'adversarial:7'"
            ) from None
        if seed < 0:
            raise ValueError(f"workload seed must be non-negative, got {seed}")
    if name not in WORKLOAD_NAMES:
        known = ", ".join(WORKLOAD_NAMES)
        raise ValueError(f"unknown workload {name!r}; known workloads: {known}")
    return name, seed


def build_workload(
    spec: "str | Workload",
    *,
    network: "Network",
    table: "PathTable",
    traffic: TrafficMatrix,
    horizon: float,
) -> Workload | None:
    """Resolve a workload spec against a concrete scenario.

    A :class:`Workload` object passes through unchanged; a string names a
    preset, built for this network/traffic over ``[0, horizon)``.
    ``"stationary"`` resolves to ``None`` — the caller should fall back to
    the plain stationary generator, keeping traces bit-identical with the
    historical path.
    """
    if isinstance(spec, Workload):
        return spec
    name, seed = parse_workload_spec(spec)
    if name == "stationary":
        return None
    num_nodes = network.num_nodes
    if name == "diurnal":
        return diurnal(num_nodes, horizon, period=max(horizon / 2.0, 1e-9))
    if name == "flash-crowd":
        return flash_crowd(num_nodes, horizon)
    if name == "regional-surge":
        return regional_surge(num_nodes, horizon)
    return adversarial_workload(network, table, traffic, horizon, seed=seed)


# ------------------------------------------------------------ trace realizer


def generate_workload_trace(
    traffic: TrafficMatrix,
    workload: Workload,
    duration: float,
    seed: int,
) -> ArrivalTrace:
    """Realize a workload as a standard :class:`ArrivalTrace`.

    Each positive-demand pair is an independent nonstationary Poisson
    process (thinning at the pair's own peak rate) on its own named
    substream ``(seed, "workload", i, j)`` — so editing one pair's profile
    leaves every other pair's arrivals, holding times and routing uniforms
    bit-identical, and the whole trace is a pure function of
    ``(traffic, workload, duration, seed)``.  The merged trace is sorted by
    arrival time (stable in pair order) and plugs into the simulator, the
    serving plane, and the cluster unchanged.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    pairs: list[OD] = []
    segments: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for index, (od, demand) in enumerate(traffic.positive_pairs()):
        pairs.append(od)
        profile = workload.profile_for(od)
        peak = demand * profile.max_scale
        rng = substream(seed, "workload", od[0], od[1])
        if peak <= 0.0:
            continue
        count = int(rng.poisson(peak * duration))
        candidate_times = np.sort(rng.uniform(0.0, duration, size=count))
        acceptance = rng.uniform(0.0, 1.0, size=count)
        keep = acceptance * profile.max_scale < profile.scales_at(candidate_times)
        times = candidate_times[keep]
        kept = int(times.size)
        segments.append(
            (
                times,
                np.full(kept, index, dtype=np.int64),
                rng.exponential(1.0, size=kept),
                rng.uniform(0.0, 1.0, size=kept),
            )
        )
    if segments:
        times = np.concatenate([s[0] for s in segments])
        order = np.argsort(times, kind="stable")
        times = times[order]
        od_index = np.concatenate([s[1] for s in segments])[order]
        holding = np.concatenate([s[2] for s in segments])[order]
        uniforms = np.concatenate([s[3] for s in segments])[order]
    else:
        times = np.empty(0)
        od_index = np.empty(0, dtype=np.int64)
        holding = np.empty(0)
        uniforms = np.empty(0)
    return ArrivalTrace(
        od_pairs=tuple(pairs),
        times=times,
        od_index=od_index,
        holding_times=holding,
        uniforms=uniforms,
        duration=float(duration),
        seed=seed,
    )
