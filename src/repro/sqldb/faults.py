"""One seeded fault injector for every named point in the engine.

The durability code, the memory governor and the wire are threaded with
*named points* (:data:`POINTS`).  A :class:`Faults` instance is armed
with an *action* at a point; every time execution passes the point, the
site calls :meth:`Faults.hit`, which records the pass and returns the
action that is due there (or None), and the site acts it out:

* **durability points** (WAL append/fsync, commit, checkpoint) —
  ``crash`` raises :class:`SimulatedCrash`.  The two write points,
  ``wal.append.after`` and ``checkpoint.snapshot.written``, also take
  ``tear``: a *prefix* of the record or snapshot reaches the file before
  the crash, a genuinely torn tail that recovery must detect (checksum /
  length mismatch) and truncate.  The harness then abandons the
  :class:`~repro.sqldb.engine.Database` object — as if the process had
  died — and reopens the WAL path, either as a **process crash** (the
  file exactly as flushed: every append is flushed) or as **power loss**
  (truncated to :attr:`~repro.sqldb.wal.WriteAheadLog.synced_size`, the
  loss of everything after the last ``fsync``).
* **allocation points** (the memory governor's) — ``deny`` refuses the
  reservation (a degradable one partitions, a non-degradable one sheds
  with 53200), ``fail`` raises :class:`~repro.errors.OutOfMemory`
  outright, ``stall`` sleeps first (a deterministic window for
  cancellation and timeout tests).
* **wire points** (``wire.c2s``, ``wire.s2c``: the two directions of a
  :class:`~repro.sqldb.netfaults.FaultProxy` link, one pass per protocol
  frame) — ``drop`` loses the frame, ``duplicate`` delivers it twice,
  ``tear`` delivers a prefix and kills the link, ``delay`` sleeps first.
  A partition is an every-pass ``drop`` on both wire points.

``stall`` and ``delay`` are served inside :meth:`Faults.hit` (outside its
lock), so they combine with whatever else fires on the same pass.

The default injector (:data:`NO_FAULTS`) is inert and shared: its
:meth:`~Faults.hit` returns None without a lock or a record.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError

__all__ = ["Faults", "NO_FAULTS", "POINTS", "SimulatedCrash", "crashpoint"]


class SimulatedCrash(ReproError):
    """Raised at a durability point; models sudden process death.

    Deliberately *not* an :class:`~repro.errors.SQLError`: the engine
    never catches it, so it unwinds through every layer exactly like a
    real crash would (the in-memory state is torn; the database object
    must be abandoned and the WAL path reopened)."""

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at {point!r}")
        self.point = point


_CRASH = ("crash",)
_WRITE = ("crash", "tear")
_ALLOCATION = ("deny", "fail", "stall")
_WIRE = ("drop", "duplicate", "tear", "delay")
#: actions served by sleeping in :meth:`Faults.hit` (they take ``seconds``)
_SLEEPS = frozenset({"stall", "delay"})

#: every named point and the actions it takes, in rough execution order
#: per kind.  Tests sweep this registry, so a point added here joins the
#: crash-at-every-point and deny-at-every-point property tests.
POINTS: dict[str, tuple[str, ...]] = {
    # WAL record append (every record, commit records included); the
    # write itself is the ".after" point
    "wal.append.before": _CRASH,
    "wal.append.after": _WRITE,
    # fsync of the WAL file
    "wal.fsync.before": _CRASH,
    "wal.fsync.after": _CRASH,
    # transaction commit: before any record is written / after the commit
    # record is durably on disk (but before the engine acknowledges)
    "wal.commit.begin": _CRASH,
    "wal.commit.end": _CRASH,
    # between the durable commit record and the in-memory install of the
    # committed state (the MVCC catalog swap / autocommit acknowledgement)
    "commit.install": _CRASH,
    # checkpoint: snapshot write, atomic rename, WAL reset
    "checkpoint.begin": _CRASH,
    "checkpoint.snapshot.written": _WRITE,
    "checkpoint.before_rename": _CRASH,
    "checkpoint.after_rename": _CRASH,
    "checkpoint.end": _CRASH,
    # memory-governor allocation points, in rough plan order
    "sort.buffer": _ALLOCATION,  # decorated keys + order array of a one-run sort
    "sort.run": _ALLOCATION,  # one run of a merged sort (working chunk)
    "join.build": _ALLOCATION,  # hash-join build side + code tables
    "join.partition": _ALLOCATION,  # one join partition's working chunk
    "agg.hashtable": _ALLOCATION,  # aggregate group codes + accumulator state
    "agg.partition": _ALLOCATION,  # one aggregation partition's working chunk
    "distinct.hashtable": _ALLOCATION,  # distinct's group-code table
    "distinct.partition": _ALLOCATION,  # distinct's chunk once that is denied
    "window.partition": _ALLOCATION,  # partition codes + per-partition order
    "cte.materialize": _ALLOCATION,  # a materialised CTE cached for the query
    "result.batch": _ALLOCATION,  # the final result batch handed to the client
    "spill.write": _ALLOCATION,  # serialising a spill payload
    "spill.read": _ALLOCATION,  # reading a spill payload back
    # one protocol frame forwarded by a FaultProxy, per direction
    "wire.c2s": _WIRE,
    "wire.s2c": _WIRE,
}
_DURABILITY = frozenset(p for p, actions in POINTS.items() if "crash" in actions)


@dataclass(slots=True)
class _Arm:
    #: passes left until due; None = due on every pass
    hits: Optional[int]
    #: probability that a due pass fires (None = always)
    p: Optional[float]
    seconds: float


class Faults:
    """Named-point fault injector: arms, per-pass decisions, one record.

    ``arm(point, action, hits=n)`` makes the *n*-th pass through *point*
    fire *action* (then the arm is spent); ``hits=None`` fires on every
    pass.  ``p`` makes a due pass fire only with that probability, drawn
    from the one RNG seeded by *seed*, so two injectors with the same
    seed and arms decide identically over the same pass sequence.  Each
    point holds one arm per action, re-arming replaces it; on one pass
    every arm counts, the sleeps that fire are all served and the first
    other action in arm order is returned (a later one due on the same
    pass is spent without firing).

    A crash ends the process: once a ``crash`` or ``tear`` has fired,
    every later durability point crashes too (without counting as fired),
    so a session racing the dead one cannot append after a torn record
    and be acknowledged — nothing more reaches the WAL of a dead process.

    Every pass is recorded in :attr:`trace` (so a test can assert that a
    workload reached the point it armed) and every action that fired in
    :attr:`fired`.  :meth:`hit` takes a lock: allocation points are
    reached from concurrent sessions, wire points from pump threads.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._mutex = threading.Lock()
        #: False only on NO_FAULTS
        self._live = True
        #: a crash or tear has fired at a durability point
        self._crashed = False
        self._arms: dict[str, dict[str, _Arm]] = {}
        #: points passed, in order (armed or not)
        self.trace: list[str] = []
        #: ``(point, action)`` of every action that fired, in order
        self.fired: list[tuple[str, str]] = []

    def arm(
        self,
        point: str,
        action: str,
        hits: Optional[int] = 1,
        p: Optional[float] = None,
        seconds: Optional[float] = None,
    ) -> "Faults":
        if not self._live:
            raise ValueError("NO_FAULTS is shared and inert; build a Faults()")
        actions = POINTS.get(point)
        if actions is None:
            raise ValueError(f"unknown fault point {point!r}; see faults.POINTS")
        if action not in actions:
            raise ValueError(f"{point!r} takes {actions}, not {action!r}")
        if hits is not None and hits < 1:
            raise ValueError("hits must be >= 1 (or None: every pass)")
        if p is not None and not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if (seconds is None) == (action in _SLEEPS):
            raise ValueError("seconds= goes with stall and delay, and only them")
        arm = _Arm(hits, p, seconds or 0.0)
        with self._mutex:
            self._arms.setdefault(point, {})[action] = arm
        return self

    def disarm(self, point: str, action: str) -> None:
        with self._mutex:
            self._arms.get(point, {}).pop(action, None)

    def clear(self) -> None:
        with self._mutex:
            self._arms.clear()

    def hit(self, point: str) -> Optional[str]:
        """Record a pass through *point*; the action due there, or None."""
        if not self._live:
            return None
        action = None
        pause = 0.0
        with self._mutex:
            self.trace.append(point)
            if self._crashed and point in _DURABILITY:
                return "crash"
            arms = self._arms.get(point)
            for name, arm in list(arms.items()) if arms else ():
                if arm.hits is not None:
                    arm.hits -= 1
                    if arm.hits:
                        continue
                    del arms[name]
                sleeps = name in _SLEEPS
                if action is not None and not sleeps:
                    continue
                if arm.p is not None and self._rng.random() >= arm.p:
                    continue
                self.fired.append((point, name))
                if sleeps:
                    pause += arm.seconds
                else:
                    action = name
            if action is not None and point in _DURABILITY:
                self._crashed = True
        if pause:
            time.sleep(pause)
        return action


#: the shared inert injector of a Database built without ``faults=``:
#: :meth:`Faults.hit` returns None untouched, :meth:`Faults.arm` refuses
NO_FAULTS = Faults()
NO_FAULTS._live = False


def crashpoint(faults: Faults, point: str) -> None:
    """Pass the durability *point*; a due ``crash`` raises there."""
    if faults.hit(point) is not None:
        raise SimulatedCrash(point)
