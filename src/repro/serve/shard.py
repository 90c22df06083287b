"""One cluster shard: the worker process owning a slice of link state.

A shard worker holds the authoritative occupancy for its partition of the
network's links (see :func:`repro.serve.state.partition_links`) plus the
compiled admission bounds for those links, and answers the router's
commands over a :class:`multiprocessing.connection.Connection`:

* ``reserve``  — phase 1 of the cross-shard two-phase set-up: check every
  listed link against its bound and, on success, book the circuits under
  a reservation hold-timer; refuse (booking nothing) otherwise;
* ``commit``   — phase 2: the reservation becomes permanent occupancy.  A
  commit arriving after the hold-timer already reaped the reservation
  re-books the circuits (the router's journal is authoritative once it
  answered the client), counted as an ``expired_commit``;
* ``abort``    — phase 2 on crankback: release the reservation;
* ``rescommit`` — the single-shard fast path: check + book permanently in
  one hop, no reservation state, no second phase;
* ``release``  — teardown of an established call's circuits;
* ``sync``     — crash recovery: overwrite occupancy from the router's
  journal replay and drop all pending reservations;
* ``swap``     — hot policy swap: replace this shard's admission-bound
  rows and stamp the new policy epoch, leaving occupancy and reservations
  untouched;
* ``snapshot`` / ``ping`` — observability and liveness.

The worker is deliberately single-threaded and blocking: commands within
a connection apply in exactly the order the router sent them, which is
the per-shard serialization the cluster's consistency argument rests on.
Reservation hold-timers run on the worker's own monotonic clock and are
checked every loop tick, so an orphaned reservation (lost commit, dead
router) is reaped even while the connection is silent.

Retried commands are idempotent by reservation id: a ``reserve`` whose
reply was lost returns its cached verdict instead of double-booking.

Results are deliberately tiny — admission checks answer ``1`` (booked)
or ``0`` (refused), phase-2 and teardown ops answer ``1`` — because the
router matches replies to commands positionally and every byte of every
reply crosses a process boundary on the admission hot path.

Chaos (:mod:`repro.serve.chaos`) enters here as the worker's own plan: a
deterministic self-crash after N commands (``os._exit``, no cleanup — a
real SIGKILL leaves exactly this state behind) and a per-command sleep
modelling a slow shard.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from multiprocessing.connection import Connection

__all__ = ["ShardWorker", "shard_worker_main"]

#: Bound on remembered per-reservation results (idempotency window).
_RECENT_LIMIT = 8192

#: Primary-tier marker in a reserve/rescommit command's ``kind`` field;
#: non-negative kinds are alternate attempts carrying the path length.
PRIMARY_KIND = -1


class ShardWorker:
    """Link-slice state machine; see the module docstring for the ops."""

    def __init__(self, spec: dict, clock=time.monotonic):
        self.shard_id = int(spec["shard_id"])
        self.links = tuple(spec["links"])
        self.capacities = dict(spec["capacities"])
        #: Admission-bound rows by alternate hop count, each ``{link: bound}``.
        self.bounds = [dict(row) for row in spec["bounds"]]
        self.policy_epoch = int(spec.get("epoch", 0))
        hold = spec.get("hold_timer")
        self.hold_timer = None if hold is None else float(hold)
        self.clock = clock
        plan = spec.get("chaos") or {}
        self.kill_after_ops = plan.get("kill_after_ops")
        self.slow_seconds = float(plan.get("slow_seconds") or 0.0)
        self.occupancy = {link: 0 for link in self.links}
        #: Phase-1 reservations: rid -> (links, width, expiry deadline).
        self.pending: dict[str, tuple[tuple[int, ...], int, float]] = {}
        #: Cached verdicts for idempotent retries, rid -> result.
        self.recent: OrderedDict[str, int] = OrderedDict()
        #: Reservations the hold-timer reaped, with their circuits kept
        #: around so a late commit can re-book them.
        self.expired: OrderedDict[str, tuple[tuple[int, ...], int]] = OrderedDict()
        self.ops = 0
        self.tallies = {
            "shard_reserves": 0,
            "shard_refusals": 0,
            "shard_commits": 0,
            "shard_aborts": 0,
            "shard_releases": 0,
            "shard_hold_expirations": 0,
            "shard_expired_commits": 0,
            "shard_swaps": 0,
        }

    # -------------------------------------------------------------- helpers

    def _bound(self, link: int, kind: int) -> int:
        if kind == PRIMARY_KIND:
            return self.capacities[link]
        return self.bounds[kind][link]

    def _remember(self, rid: str, result: int) -> int:
        self.recent[rid] = result
        if len(self.recent) > _RECENT_LIMIT:
            self.recent.popitem(last=False)
        return result

    def expire_holds(self) -> None:
        """Reap reservations whose hold-timer deadline has passed."""
        if not self.pending:
            return
        now = self.clock()
        reaped = [rid for rid, (__, ___, due) in self.pending.items()
                  if due <= now]
        for rid in reaped:
            links, width, __ = self.pending.pop(rid)
            for link in links:
                self.occupancy[link] -= width
            self.expired[rid] = (links, width)
            if len(self.expired) > _RECENT_LIMIT:
                self.expired.popitem(last=False)
            self.tallies["shard_hold_expirations"] += 1

    # ------------------------------------------------------------- commands

    def handle(self, command: tuple):
        """Apply one command; returns its result (an int on the hot ops)."""
        if self.slow_seconds:
            time.sleep(self.slow_seconds)
        if self.kill_after_ops is not None and self.ops >= self.kill_after_ops:
            os._exit(17)  # deterministic chaos crash: no cleanup, no flush
        self.ops += 1
        op = command[0]
        if op == "reserve":
            __, rid, links, width, kind = command
            cached = self.recent.get(rid)
            if cached is not None:
                return cached
            for link in links:
                if self.occupancy[link] + width > self._bound(link, kind):
                    self.tallies["shard_refusals"] += 1
                    return self._remember(rid, 0)
            for link in links:
                self.occupancy[link] += width
            due = (
                float("inf") if self.hold_timer is None
                else self.clock() + self.hold_timer
            )
            self.pending[rid] = (tuple(links), width, due)
            self.tallies["shard_reserves"] += 1
            return self._remember(rid, 1)
        if op == "rescommit":
            __, rid, links, width, kind = command
            cached = self.recent.get(rid)
            if cached is not None:
                return cached
            for link in links:
                if self.occupancy[link] + width > self._bound(link, kind):
                    self.tallies["shard_refusals"] += 1
                    return self._remember(rid, 0)
            for link in links:
                self.occupancy[link] += width
            self.tallies["shard_commits"] += 1
            return self._remember(rid, 1)
        if op == "commit":
            __, rid = command
            if rid in self.pending:
                self.pending.pop(rid)
            elif rid in self.expired:
                # The hold-timer beat the commit; the router has already
                # answered the client, so the journal wins: re-book.
                links, width = self.expired.pop(rid)
                for link in links:
                    self.occupancy[link] += width
                self.tallies["shard_expired_commits"] += 1
            self.tallies["shard_commits"] += 1
            return 1
        if op == "abort":
            __, rid = command
            entry = self.pending.pop(rid, None)
            if entry is not None:
                links, width, __ = entry
                for link in links:
                    self.occupancy[link] -= width
            self.expired.pop(rid, None)
            self.tallies["shard_aborts"] += 1
            return 1
        if op == "release":
            __, rid, links, width = command
            cached = self.recent.get(rid)
            if cached is not None:
                return cached  # a retried release must not double-free
            for link in links:
                self.occupancy[link] -= width
            self.tallies["shard_releases"] += 1
            return self._remember(rid, 1)
        if op == "swap":
            # Hot policy swap: install new admission bounds for this
            # shard's links, atomically between commands.  Reservations
            # already booked keep their circuits — only future admission
            # tests see the new bounds — and the epoch stamp makes every
            # later snapshot attributable to the version in force.
            __, epoch, bounds = command
            self.bounds = [
                {int(l): int(t) for l, t in row.items()} for row in bounds
            ]
            self.policy_epoch = int(epoch)
            self.tallies["shard_swaps"] += 1
            return 1
        if op == "sync":
            __, occupancy = command
            self.occupancy = {link: 0 for link in self.links}
            self.occupancy.update({int(l): int(n) for l, n in occupancy.items()})
            self.pending.clear()
            self.recent.clear()
            self.expired.clear()
            return 1
        if op == "snapshot":
            return {
                "shard_id": self.shard_id,
                "epoch": self.policy_epoch,
                "occupancy": dict(self.occupancy),
                "pending": len(self.pending),
                "ops": self.ops,
                "tallies": dict(self.tallies),
            }
        if op == "ping":
            return ("pong", self.shard_id, self.ops)
        raise ValueError(f"shard {self.shard_id}: unknown op {op!r}")

    # ----------------------------------------------------------- the server

    def serve(self, conn: Connection, tick: float = 0.05) -> None:
        """Answer command frames until EOF or an explicit ``stop``."""
        while True:
            try:
                if not conn.poll(tick):
                    self.expire_holds()
                    continue
                frame = conn.recv()
            except (EOFError, OSError):
                return
            self.expire_holds()
            kind, seq, commands = frame
            if kind == "stop":
                return
            results = [self.handle(command) for command in commands]
            try:
                conn.send(("reply", seq, results))
            except (BrokenPipeError, OSError):
                return


def shard_worker_main(conn: Connection, spec: dict) -> None:
    """Process entry point: build the worker and serve until EOF."""
    ShardWorker(spec).serve(conn, tick=float(spec.get("tick", 0.05)))
