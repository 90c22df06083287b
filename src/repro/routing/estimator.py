"""Measured per-link primary demand (an extension).

The paper assumes each link knows its primary traffic demand ``Lambda^k`` a
priori and explicitly leaves the estimation procedure out of scope ("The
estimation procedure is not detailed in this report"), noting that the
robustness of state protection makes estimation error benign.
:func:`estimate_loads_from_trace` supplies the missing piece so the
ablation can measure that claim: a one-shot measurement pass that counts
primary set-ups per link over a trace and divides by time, which is what a
deployment's warm-started estimator converges to.  The windowed EWMA form
of the same measurement is :mod:`repro.routing.adaptive`.
"""

from __future__ import annotations

import numpy as np

from ..routing.base import RoutingPolicy
from ..topology.graph import Network
from ..sim.trace import ArrivalTrace
from .adaptive import primary_setups

__all__ = ["estimate_loads_from_trace"]


def estimate_loads_from_trace(
    network: Network,
    policy: RoutingPolicy,
    trace: ArrivalTrace,
    warmup: float = 10.0,
) -> np.ndarray:
    """Per-link primary-demand estimates from observed primary setups.

    Every call's primary path (as the policy would choose it — for
    bifurcated primaries the trace's per-call uniform makes the same pick
    the simulator would) counts one setup on each of its links, whether or
    not the call would be admitted: the setup packet "flies past" the link
    either way.  Rates are measured after ``warmup``.

    In expectation the estimate equals Equation 1's ``Lambda^k`` exactly.
    """
    if warmup < 0 or warmup >= trace.duration:
        raise ValueError("warmup must lie in [0, duration)")
    counts = primary_setups(policy, trace, [warmup])[1]
    return counts / (trace.duration - warmup)
