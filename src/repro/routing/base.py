"""Routing-policy interface shared by the call-by-call simulator.

A policy compiles, per O-D pair, one or more :class:`RouteChoice` objects
(a primary path plus its ordered alternates, all as link-index tuples) with
selection probabilities — the probabilistic selection implements the
"bifurcated" primaries of the min-link-loss rule; deterministic policies
have a single choice with probability one.

Two admission disciplines exist:

* **threshold** policies (single-path, uncontrolled and controlled alternate
  routing) admit a primary call iff every link has a free circuit, and an
  alternate call iff additionally every link's occupancy is *below its
  alternate-admission threshold* ``C - r`` — state protection;
* the **shadow-price** policy (Ott-Krishnan) instead scores each candidate
  path by a sum of per-link state-dependent prices.

The simulator dispatches on :attr:`RoutingPolicy.discipline`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..topology.graph import Network
from ..topology.paths import Path, PathTable

__all__ = [
    "RouteChoice",
    "RoutingPolicy",
    "bound_table",
    "compile_route_choices",
    "policy_bounds",
]


@dataclass(frozen=True, slots=True)
class RouteChoice:
    """One primary path and its ordered alternates, as link-index tuples.

    Slotted: the simulator materializes one of these per O-D pair per
    policy compilation and reads ``primary``/``alternates`` on every call,
    so the fixed layout keeps the per-call record small and the attribute
    loads cheap.
    """

    primary: tuple[int, ...]
    alternates: tuple[tuple[int, ...], ...]


class RoutingPolicy:
    """Base class: compiled per-O-D route choices plus admission data.

    ``choices[od]`` is a list of :class:`RouteChoice`; ``cum_probs[od]`` the
    matching cumulative selection probabilities (a per-call uniform variate
    from the trace picks the choice, keeping common random numbers intact).

    ``discipline`` is ``"threshold"`` or ``"shadow"``.  Threshold policies
    must provide :attr:`alt_thresholds` (per-link occupancy bound for
    alternate admission); shadow policies provide :attr:`price_tables`.
    """

    name: str = "base"
    discipline: str = "threshold"

    def __init__(
        self,
        network: Network,
        choices: Mapping[tuple[int, int], Sequence[RouteChoice]],
        cum_probs: Mapping[tuple[int, int], np.ndarray] | None = None,
    ):
        self.network = network
        self.choices: dict[tuple[int, int], tuple[RouteChoice, ...]] = {
            od: tuple(route_choices) for od, route_choices in choices.items()
        }
        if cum_probs is None:
            cum_probs = {
                od: np.ones(len(route_choices))
                for od, route_choices in self.choices.items()
            }
        self.cum_probs: dict[tuple[int, int], np.ndarray] = {
            od: np.asarray(probs, dtype=float) for od, probs in cum_probs.items()
        }
        for od, route_choices in self.choices.items():
            probs = self.cum_probs.get(od)
            if probs is None or probs.size != len(route_choices):
                raise ValueError(f"cumulative probabilities mismatch for {od}")
            if probs.size and not np.isclose(probs[-1], 1.0):
                raise ValueError(f"cumulative probabilities for {od} must end at 1")
            # searchsorted here and the engines' scan agree only on this.
            if probs.size and not (probs[0] >= 0 and (np.diff(probs) >= 0).all()):
                raise ValueError(f"cumulative probabilities for {od} must be "
                                 f"nondecreasing within [0, 1]")
        # Filled in by subclasses as appropriate.
        self.alt_thresholds: np.ndarray | None = None
        self.price_tables: list[np.ndarray] | None = None

    def select_choice(self, od: tuple[int, int], uniform: float) -> RouteChoice:
        """Pick a route choice using the call's uniform variate."""
        options = self.choices[od]
        if len(options) == 1:
            return options[0]
        index = int(np.searchsorted(self.cum_probs[od], uniform, side="right"))
        return options[min(index, len(options) - 1)]

    def describe(self) -> str:
        """Human-readable one-liner for experiment reports."""
        return self.name


def compile_route_choices(
    network: Network,
    table: PathTable,
    include_alternates: bool,
    splits: Mapping[tuple[int, int], Sequence[tuple[Path, float]]] | None = None,
    max_alternates: int | None = None,
) -> tuple[dict[tuple[int, int], list[RouteChoice]], dict[tuple[int, int], np.ndarray]]:
    """Compile a :class:`PathTable` into per-O-D route choices.

    Without ``splits`` every pair gets its single table primary.  With
    ``splits`` (bifurcated primaries) each listed path becomes a choice with
    its probability; the alternates of a choice are all the pair's loop-free
    paths except the chosen primary, in increasing-length order.

    ``max_alternates`` caps the crankback depth: only the first that many
    alternates (shortest first) are ever attempted — the signaling cost
    knob real deployments tune, and the ``m`` of the bistability model.

    Route choices reuse the table's link tuples; only split paths, which
    need not come from the table, are resolved against ``network``.  A
    table routing over a link failed since it was built raises
    ``ValueError``.
    """
    if max_alternates is not None and max_alternates < 0:
        raise ValueError("max_alternates must be non-negative")
    table.check_current(network, alternates=include_alternates)
    choices: dict[tuple[int, int], list[RouteChoice]] = {}
    cum_probs: dict[tuple[int, int], np.ndarray] = {}
    for od in table.od_pairs():
        if splits is not None and od in splits:
            entries = [(tuple(path), prob) for path, prob in splits[od] if prob > 0]
            total = sum(prob for __, prob in entries)
            if not np.isclose(total, 1.0, atol=1e-6):
                raise ValueError(f"split probabilities for {od} sum to {total}")
            # The pair's whole pool, primary included, by (length, lex).
            pool = sorted(zip(table.routes(od), table.route_links(od)),
                          key=lambda entry: (len(entry[0]), entry[0])
                          ) if include_alternates else ()
            options = [
                (network.path_links(path), prob / total,
                 tuple(links for other, links in pool if other != path))
                for path, prob in entries
            ]
        else:
            options = [(table.primary_links[od], 1.0,
                        table.alternate_links[od] if include_alternates else ())]
        od_choices: list[RouteChoice] = []
        probs: list[float] = []
        for primary_links, prob, alternates in options:
            if max_alternates is not None:
                alternates = alternates[:max_alternates]
            od_choices.append(RouteChoice(primary=primary_links, alternates=alternates))
            probs.append(prob)
        choices[od] = od_choices
        cum_probs[od] = np.cumsum(probs)
    return choices, cum_probs


def bound_table(spec, capacities, base: np.ndarray | int) -> np.ndarray:
    """Apply one threshold spec to an admission-bound table.

    A bound table is an ``(hops + 1, links)`` int64 array whose row ``h``
    bounds alternates of ``h`` hops; under the ``threshold`` discipline
    every row is the same vector.  ``base`` is the table in force, or a hop
    count for a fresh table whose rows ``0..hops`` all read capacity.
    ``spec`` is a per-link vector (every row takes it) or a
    ``{hops: per-link}`` mapping (the named rows change, the rest are
    kept).  Returns a new read-only table and leaves ``base`` untouched.

    Raises :class:`ValueError` for a vector that is not per-link, a bound
    outside ``[0, capacity]``, or a hop count the table has no row for.
    """
    capacities = np.asarray(capacities, dtype=np.int64)
    if isinstance(base, np.ndarray):
        table = base.copy()
    else:
        table = np.tile(capacities, (int(base) + 1, 1))
    if isinstance(spec, Mapping):
        unknown = sorted(int(h) for h in spec if not 0 <= int(h) < len(table))
        if unknown:
            raise ValueError(f"no bound row for hop counts {unknown}")
        for hops, row in spec.items():
            table[int(hops)] = _bound_row(row, capacities)
    else:
        table[:] = _bound_row(spec, capacities)
    table.flags.writeable = False
    return table


def _bound_row(values, capacities: np.ndarray) -> np.ndarray:
    row = np.asarray(values, dtype=np.int64)
    if row.shape != capacities.shape:
        raise ValueError(
            f"thresholds must be per-link, shape {capacities.shape}, got {row.shape}"
        )
    if (row < 0).any() or (row > capacities).any():
        raise ValueError("thresholds must lie in [0, capacity]")
    return row


def policy_bounds(policy: RoutingPolicy, hops: int) -> np.ndarray:
    """The policy's own bound table, with rows for at least ``0..hops``.

    ``length-threshold`` policies contribute their per-hop-length
    ``length_thresholds`` (hop counts they omit stay at capacity); every
    other threshold policy its per-link ``alt_thresholds``.
    """
    if policy.discipline == "length-threshold":
        spec = getattr(policy, "length_thresholds", None)
        if spec is None:
            raise ValueError(f"policy {policy.name!r} lacks length thresholds")
        hops = max([hops, *map(int, spec)])
    else:
        spec = policy.alt_thresholds
        if spec is None:
            raise ValueError(f"policy {policy.name!r} lacks alternate thresholds")
    return bound_table(spec, policy.network.capacities(), hops)
