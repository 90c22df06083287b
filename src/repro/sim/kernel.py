"""The compiled admission kernel: route-table compile, build, validated call.

The threshold-family event loop (``threshold`` and ``length-threshold``
disciplines, unit bandwidth, no fault plane) lives once, in C, in
``_kernel.c`` beside this module.  It is compiled on first use with the
installed ``gcc`` and loaded through :mod:`ctypes`.  The shared object is
cached in ``__pycache__/`` next to the source, under a name carrying a hash
of the source, the compiler command and the platform, so later interpreters
load it without compiling.  When no compiler is available or the build
fails, :func:`load_kernel` warns once and returns ``None``; the simulator
then runs its general loop instead and records ``backend="reference"``.

A policy is compiled into a :class:`RouteTable` — flat CSR arrays of
per-pair candidates, cumulative split probabilities and path links — once
per ``(policy, O-D pair list)`` and reused for every trace.  Thresholds are
read afresh per run (:func:`threshold_rows`), one block of int32 rows per
schedule segment.  :func:`admit` checks the dtype, length and index range of
every array before handing pointers to C, so the kernel never reads or
writes out of bounds.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from ..routing.base import bound_table, policy_bounds

__all__ = [
    "KERNEL_DISCIPLINES",
    "RouteTable",
    "admit",
    "load_kernel",
    "route_table",
    "threshold_rows",
]

#: Routing disciplines the compiled kernel runs.
KERNEL_DISCIPLINES = frozenset({"threshold", "length-threshold"})

_SOURCE = Path(__file__).with_name("_kernel.c")
_COMPILE = ("gcc", "-O2", "-std=c99", "-shared", "-fPIC")
_INT32_MAX = np.iinfo(np.int32).max
_STATUS = {1: "occupancy went negative on release"}

_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p


def _library_path() -> Path:
    """Cache location of the shared object for this source/compiler/platform."""
    digest = hashlib.sha256()
    digest.update(_SOURCE.read_bytes())
    digest.update(" ".join(_COMPILE).encode())
    digest.update(f"{sys.platform}-{os.uname().machine}".encode())
    return _SOURCE.parent / "__pycache__" / f"_kernel-{digest.hexdigest()[:16]}.so"


def _build(target: Path) -> None:
    """Compile the kernel into ``target`` (temp file + atomic rename)."""
    compiler = shutil.which(_COMPILE[0])
    if compiler is None:
        raise OSError(f"{_COMPILE[0]} not found on PATH")
    target.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_COMPILE[1:], "-o", tmp, str(_SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def load_kernel():
    """The kernel entry point, building it on first use; ``None`` if unavailable.

    A missing compiler, a failed build or an unloadable library emits one
    :class:`RuntimeWarning` per process; callers then run the general loop.
    """
    target = _library_path()
    try:
        if not target.exists():
            _build(target)
        library = ctypes.CDLL(str(target))
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        if isinstance(detail, bytes):
            detail = detail.decode(errors="replace").strip()
        warnings.warn(
            f"compiled admission kernel unavailable ({detail}); "
            f"running the reference loop instead",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    function = library.repro_admit
    function.restype = ctypes.c_int
    function.argtypes = [
        _i64, _ptr, _ptr, _ptr, _i64,  # calls, times, od_index, uniforms, first
        _i64, _ptr, _ptr, _ptr,  # departures, order, times, warm links
        _ptr, _ptr, _ptr, _ptr, _ptr,  # pair/candidate/path offsets, links
        _i64, _ptr,  # links, capacity
        _i64, _i64, _ptr, _i64, _ptr,  # threshold rows, schedule
        _ptr, _ptr, _ptr, _ptr,  # occupancy, admitted, blocked, carried
    ]
    return function


# ------------------------------------------------------------------ table


@dataclass(frozen=True)
class RouteTable:
    """One policy's per-pair route choices as flat, read-only CSR arrays.

    Candidates ``pair_off[p]:pair_off[p+1]`` belong to O-D pair ``p``;
    ``cand_cum[c]`` is candidate ``c``'s cumulative split probability;
    paths ``cand_path_off[c]:cand_path_off[c+1]`` are its primary followed
    by its alternates in trial order; ``links[path_link_off[q]:
    path_link_off[q+1]]`` are path ``q``'s links.  Construction checks
    every invariant the C loop relies on, makes the arrays read-only and
    derives ``max_path_len`` and ``bifurcated`` (some pair has several
    candidates, so calls consult their uniform variate).
    """

    num_links: int
    pair_off: np.ndarray
    cand_cum: np.ndarray
    cand_path_off: np.ndarray
    path_link_off: np.ndarray
    links: np.ndarray
    max_path_len: int = field(init=False)
    bifurcated: bool = field(init=False)

    def __post_init__(self) -> None:
        for array, dtype in ((self.pair_off, np.int64), (self.cand_cum, np.float64),
                             (self.cand_path_off, np.int64),
                             (self.path_link_off, np.int64), (self.links, np.int32)):
            if array.dtype != dtype or array.ndim != 1 or not array.flags.c_contiguous:
                raise ValueError("route table arrays must be contiguous 1-D arrays "
                                 "of the documented dtypes")
        num_cands = self.cand_cum.size
        num_paths = self.path_link_off.size - 1
        if self.cand_path_off.size != num_cands + 1:
            raise ValueError("cand_path_off needs one entry per candidate, plus one")
        _offsets(self.pair_off, num_cands, "pair_off", strict=False)
        _offsets(self.cand_path_off, num_paths, "cand_path_off", strict=True)
        _offsets(self.path_link_off, self.links.size, "path_link_off", strict=False)
        if num_paths > _INT32_MAX:
            raise ValueError("route table has more paths than int32 can index")
        _in_range(self.links, self.num_links, "route links")
        object.__setattr__(
            self, "max_path_len", int(np.diff(self.path_link_off).max(initial=0))
        )
        object.__setattr__(self, "bifurcated", bool((np.diff(self.pair_off) > 1).any()))
        for array in (self.pair_off, self.cand_cum, self.cand_path_off,
                      self.path_link_off, self.links):
            array.flags.writeable = False


_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def route_table(policy, od_pairs) -> RouteTable:
    """The policy's :class:`RouteTable` over ``od_pairs`` (compiled once).

    Policies are treated as immutable once simulated: the table is cached
    per policy object and rebuilt only for a different O-D pair list.
    """
    od_pairs = tuple(od_pairs)
    cached = _TABLES.get(policy)
    if cached is not None and cached[0] == od_pairs:
        return cached[1]
    table = _compile_table(policy, od_pairs)
    _TABLES[policy] = (od_pairs, table)
    return table


def _compile_table(policy, od_pairs) -> RouteTable:
    num_links = policy.network.num_links
    options = [policy.choices.get(od, ()) for od in od_pairs]
    counts = np.fromiter(map(len, options), dtype=np.int64, count=len(options))
    pair_off = np.zeros(len(options) + 1, dtype=np.int64)
    np.cumsum(counts, out=pair_off[1:])
    candidates = list(chain.from_iterable(options))
    cum_parts = [
        policy.cum_probs[od] if len(opts) > 1 else np.zeros(len(opts))
        for od, opts in zip(od_pairs, options)
    ]
    cand_cum = (
        np.concatenate(cum_parts).astype(np.float64)
        if cum_parts else np.zeros(0, dtype=np.float64)
    )
    per_cand = np.fromiter(
        (1 + len(c.alternates) for c in candidates),
        dtype=np.int64, count=len(candidates),
    )
    cand_path_off = np.zeros(len(candidates) + 1, dtype=np.int64)
    np.cumsum(per_cand, out=cand_path_off[1:])
    num_paths = int(cand_path_off[-1])

    def paths():
        for choice in candidates:
            yield choice.primary
            yield from choice.alternates

    lengths = np.fromiter(map(len, paths()), dtype=np.int64, count=num_paths)
    path_link_off = np.zeros(num_paths + 1, dtype=np.int64)
    np.cumsum(lengths, out=path_link_off[1:])
    links = np.fromiter(
        chain.from_iterable(paths()), dtype=np.int32, count=int(path_link_off[-1])
    )
    return RouteTable(
        num_links=num_links,
        pair_off=pair_off,
        cand_cum=cand_cum,
        cand_path_off=cand_path_off,
        path_link_off=path_link_off,
        links=links,
    )


def _offsets(offsets: np.ndarray, end: int, name: str, strict: bool) -> None:
    steps = np.diff(offsets)
    if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != end or (
        (steps <= 0).any() if strict else (steps < 0).any()
    ):
        raise ValueError(f"{name} is not a valid offset array")


def _in_range(values: np.ndarray, end: int, name: str) -> None:
    if values.size and (values.min() < 0 or values.max() >= end):
        raise ValueError(f"{name} out of range [0, {end})")


# ------------------------------------------------------------- thresholds


def threshold_rows(policy, table: RouteTable, capacities: np.ndarray,
                   schedule=None) -> tuple[np.ndarray, int, np.ndarray]:
    """Alternate-admission thresholds as ``(rows, row_stride, switch_times)``.

    ``rows`` has shape ``(segments, rows_per_segment, links)``: segment 0 is
    the policy's own bound table, segment ``k`` the previous one updated by
    the ``k``-th schedule entry through :func:`~repro.routing.base.bound_table`
    (the function ``NetworkState.hot_swap`` applies).  Per-hop-length bounds
    (the ``length-threshold`` discipline, or any schedule entry given as a
    ``{hops: per-link}`` mapping) keep one row per hop count, ``row_stride =
    links``; flat per-link thresholds keep a single row, ``row_stride=0``.
    """
    specs = [spec for __, spec in schedule or ()]
    by_length = policy.discipline == "length-threshold" or any(
        isinstance(spec, Mapping) for spec in specs
    )
    hops = 0
    if by_length:
        hops = max([table.max_path_len, *(
            int(h) for spec in specs if isinstance(spec, Mapping) for h in spec
        )])
    segments = [policy_bounds(policy, hops)]
    for spec in specs:
        segments.append(bound_table(spec, capacities, segments[-1]))
    rows = np.stack(segments)
    if rows.size and (rows.min() < -_INT32_MAX or rows.max() > _INT32_MAX):
        raise ValueError("thresholds exceed the int32 range")
    switch_times = np.array([float(t) for t, __ in schedule or ()], dtype=np.float64)
    return rows.astype(np.int32), table.num_links if by_length else 0, switch_times


# ------------------------------------------------------------------- call


def _array(values, dtype, size: int, name: str) -> np.ndarray:
    array = np.ascontiguousarray(values, dtype=dtype)
    if array.ndim != 1 or array.size != size:
        raise ValueError(f"{name} must be a 1-D array of {size} entries")
    return array


def admit(kernel, table: RouteTable, *, times, od_index, uniforms,
          first_measured: int, dep_order, dep_times, warm_links,
          capacities, rows: np.ndarray, row_stride: int,
          switch_times: np.ndarray, occupancy: np.ndarray):
    """Run one trace through the kernel; returns ``(blocked, primary, alternate)``.

    ``occupancy`` (int32, per link) is the starting state and is updated in
    place.  Every array is checked for dtype, contiguity, length and index
    range before the call; a nonzero kernel status raises
    :class:`RuntimeError`.
    """
    num_links = table.num_links
    num_pairs = table.pair_off.size - 1
    times = _array(times, np.float64, len(times), "times")
    num_calls = times.size
    od_index = _array(od_index, np.int64, num_calls, "od_index")
    _in_range(od_index, num_pairs, "od_index")
    if table.bifurcated:
        uniforms = _array(uniforms, np.float64, num_calls, "uniforms")
    else:
        uniforms = np.zeros(0, dtype=np.float64)  # never read
    if not 0 <= first_measured <= num_calls:
        raise ValueError("first_measured out of range")
    warm_links = _array(warm_links, np.int32, len(warm_links), "warm_links")
    _in_range(warm_links, num_links, "warm_links")
    num_deps = num_calls + warm_links.size
    dep_order = _array(dep_order, np.int64, num_deps, "dep_order")
    _in_range(dep_order, num_deps, "dep_order")
    dep_times = _array(dep_times, np.float64, num_deps, "dep_times")
    capacity = _array(capacities, np.int32, num_links, "capacities")
    if occupancy.dtype != np.int32 or not occupancy.flags.c_contiguous \
            or occupancy.shape != (num_links,):
        raise ValueError(f"occupancy must be a contiguous int32 array of {num_links}")
    if (occupancy < 0).any():
        raise ValueError("occupancy must be non-negative")
    switch_times = _array(switch_times, np.float64, len(switch_times), "switch_times")
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    if rows.ndim != 3 or rows.shape[0] != switch_times.size + 1 \
            or rows.shape[2] != num_links:
        raise ValueError("threshold rows must be (segments, rows, links)")
    if row_stride not in (0, num_links) or (
        row_stride and rows.shape[1] <= table.max_path_len
    ):
        raise ValueError("threshold rows do not cover every path length")
    admitted = np.full(num_calls, -1, dtype=np.int32)
    blocked = np.zeros(num_pairs, dtype=np.int64)
    carried = np.zeros(2, dtype=np.int64)

    status = kernel(
        num_calls, times.ctypes.data, od_index.ctypes.data, uniforms.ctypes.data,
        first_measured,
        num_deps, dep_order.ctypes.data, dep_times.ctypes.data,
        warm_links.ctypes.data,
        table.pair_off.ctypes.data, table.cand_cum.ctypes.data,
        table.cand_path_off.ctypes.data, table.path_link_off.ctypes.data,
        table.links.ctypes.data,
        num_links, capacity.ctypes.data,
        row_stride, rows.shape[1], rows.ctypes.data,
        switch_times.size, switch_times.ctypes.data,
        occupancy.ctypes.data, admitted.ctypes.data,
        blocked.ctypes.data, carried.ctypes.data,
    )
    if status != 0:
        raise RuntimeError(
            f"admission kernel failed: {_STATUS.get(status, f'status {status}')}"
        )
    return blocked, int(carried[0]), int(carried[1])
