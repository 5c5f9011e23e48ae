"""Compiled schedule plans: one-time lowering of a :class:`Schedule`.

Every executor of a schedule — the serial drivers, the tree-machine
simulator, the static verifier, the fault campaign — used to re-derive
the same per-step index arrays (``np.fromiter`` over ``step.pairs`` /
``step.moves``) on every sweep of every run.  A
:class:`CompiledSchedule` performs that lowering exactly once: each step
becomes a :class:`CompiledStep` of contiguous ``intp`` arrays (pair
columns ``a``/``b``, move ``src``/``dst``, per-move tree levels and hop
counts, the leaf that hosts each pair), the sweep-level slot trajectory
is precomputed, and healthy-mode routing outcomes are memoised per
topology.

Plans are cached process-wide behind an LRU keyed by the schedule's
*structural fingerprint* (its pair/move tuples), so two runs that build
the same ordering at the same size — the common case: every
``ParallelJacobiSVD.compute`` call constructs a fresh
:class:`~repro.orderings.base.Ordering` — share one compiled plan.  The
cache is observable (:func:`plan_cache_stats`) and resettable
(:func:`clear_plan_cache`); hits and misses are counted so the
"lowering happens once" property is testable rather than folklore.

Plans are immutable and therefore safe to share across threads: the
step executor backends (:mod:`repro.parallel.executor`) read the same
plan from every worker.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from threading import Lock

import numpy as np

from ..util.bits import comm_level, leaf_of_slot
from .schedule import Move, Schedule

__all__ = [
    "CompiledSchedule",
    "CompiledStep",
    "PLAN_MEMO_ATTR",
    "PlanCacheStats",
    "clear_plan_cache",
    "compile_schedule",
    "lower_schedule",
    "plan_cache_stats",
    "plans_structurally_equal",
    "structural_fingerprint",
]

#: compiled plans kept by the process-wide LRU (a plan is a few KB; the
#: registry spans a handful of orderings x sizes in any realistic run)
_CACHE_MAXSIZE = 128

_EMPTY = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class CompiledStep:
    """One schedule step lowered to contiguous index arrays.

    ``pairs`` is the ``(k, 2)`` slot-pair array in the schedule's
    storage convention (``a = pairs[:, 0]`` is the *left* slot of each
    pair); ``src``/``dst`` are the move phase as a partial permutation.
    Empty phases are zero-length arrays, never ``None``, so consumers
    index unconditionally.  ``moves`` keeps the original
    :class:`~repro.orderings.schedule.Move` tuple for consumers that
    need object identity (the fault transport matches messages against
    it).
    """

    #: (k, 2) slot pairs rotated in parallel (k may be 0)
    pairs: np.ndarray
    #: left / right columns of ``pairs`` (views, kept for hot loops)
    a: np.ndarray
    b: np.ndarray
    #: move phase: partial permutation of slot contents
    src: np.ndarray
    dst: np.ndarray
    #: original move objects (fault transport, corruption operators)
    moves: tuple[Move, ...]
    #: physical leaf hosting each pair's left slot (identity host map)
    pair_leaves: np.ndarray
    #: tree level of each move (0 = intra-leaf)
    move_levels: np.ndarray
    #: ``(src_leaf, dst_leaf)`` per move (identity host map)
    move_leaves: np.ndarray
    #: messages crossing leaves under the identity host map
    n_remote: int
    #: total channel hops of the step's messages (2 x level each)
    hop_count: int
    #: busiest leaf's rotation count under the identity host map
    max_pairs_per_leaf: int

    @property
    def n_pairs(self) -> int:
        return len(self.a)

    @property
    def has_moves(self) -> bool:
        return len(self.src) > 0


@dataclass(frozen=True)
class CompiledSchedule:
    """A whole sweep lowered once; shared, immutable, thread-safe.

    ``trajectory[k]`` is the slot layout after step ``k + 1`` (layout
    entries are the *initial* slot whose content now sits there), i.e.
    the slot -> content trajectory of the sweep; ``trajectory[-1]`` is
    the sweep permutation the restoration argument of the paper is
    about.  ``route_phase`` memoises healthy-mode routing per topology
    so the simulator never re-routes an unchanged move phase.
    """

    n: int
    name: str
    steps: tuple[CompiledStep, ...]
    #: (n_steps, n) slot-content trajectory across the sweep
    trajectory: np.ndarray
    #: healthy-mode routing memo: topology cache key -> per-step phases
    _routes: dict = field(default_factory=dict, repr=False, compare=False)
    _routes_lock: Lock = field(default_factory=Lock, repr=False, compare=False)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def total_messages(self) -> int:
        """Inter-leaf transfers per sweep (matches ``Schedule.total_messages``)."""
        return sum(s.n_remote for s in self.steps)

    def final_layout(self) -> np.ndarray:
        """Slot permutation of the whole sweep (``trajectory[-1]``)."""
        if len(self.trajectory):
            return self.trajectory[-1]
        return np.arange(self.n, dtype=np.intp)

    def route_phase(self, topology, step_index: int):
        """Healthy-mode :class:`~repro.machine.routing.MessagePhase` of a
        step, memoised per topology.

        Valid only for the identity host map — a degraded machine must
        re-route through :func:`~repro.machine.routing.route_phase`
        itself.  The returned phase is shared; treat it as read-only.
        """
        key = _topology_key(topology)
        with self._routes_lock:
            phases = self._routes.get(key)
            if phases is None:
                phases = self._routes[key] = [None] * len(self.steps)
            phase = phases[step_index]
        if phase is None:
            from ..machine.routing import route_moves

            step = self.steps[step_index]
            phase = route_moves(topology, step.move_leaves[:, 0],
                                step.move_leaves[:, 1])
            with self._routes_lock:
                phases[step_index] = phase
        return phase


def _topology_key(topology) -> tuple:
    """Structural identity of a topology (class + leaves + knobs)."""
    key: tuple = (type(topology).__qualname__, topology.n_leaves)
    skinny = getattr(topology, "skinny_above", None)
    if skinny is not None:
        key += (skinny,)
    return key


@dataclass
class PlanCacheStats:
    """Counters of the process-wide plan cache (see :func:`plan_cache_stats`).

    ``misses`` counts actual lowerings; ``hits`` counts reuses through
    the structural LRU; ``instance_hits`` counts the fast path where the
    same :class:`Schedule` object asked again (per-run repeat sweeps).
    """

    hits: int = 0
    misses: int = 0
    instance_hits: int = 0
    size: int = 0

    @property
    def compilations(self) -> int:
        return self.misses


_cache: OrderedDict[tuple, CompiledSchedule] = OrderedDict()
_stats = PlanCacheStats()
_lock = Lock()

# attribute used to memoise per-Schedule-instance state without touching
# the Schedule class itself
_ATTR = "_compiled_plan"

#: public name of the instance-memo attribute — the verifier's
#: corruption operators plant stale plans under it to prove the
#: plan-cache check (PLAN003) actually detects them
PLAN_MEMO_ATTR = _ATTR


def _fingerprint(schedule: Schedule) -> tuple:
    """Structural cache key: sizes plus every pair and move of the sweep.

    Plain int tuples — equality-safe (no hashes that could collide into
    a wrong plan) and cheap next to the lowering itself.
    """
    return (
        schedule.n,
        tuple(
            (step.pairs, tuple((m.src, m.dst) for m in step.moves))
            for step in schedule.steps
        ),
    )


def _lower(schedule: Schedule) -> CompiledSchedule:
    """The actual lowering: every per-step python walk happens here, once."""
    steps: list[CompiledStep] = []
    layout = np.arange(schedule.n, dtype=np.intp)
    trajectory = np.empty((len(schedule.steps), schedule.n), dtype=np.intp)
    for i, step in enumerate(schedule.steps):
        if step.pairs:
            pairs = np.asarray(step.pairs, dtype=np.intp).reshape(-1, 2)
        else:
            pairs = _EMPTY.reshape(0, 2)
        a = np.ascontiguousarray(pairs[:, 0])
        b = np.ascontiguousarray(pairs[:, 1])
        pair_leaves = a >> 1  # leaf_of_slot, vectorised
        if len(pair_leaves):
            busiest = int(np.bincount(pair_leaves).max())
        else:
            busiest = 0
        if step.moves:
            src = np.fromiter((m.src for m in step.moves), dtype=np.intp,
                              count=len(step.moves))
            dst = np.fromiter((m.dst for m in step.moves), dtype=np.intp,
                              count=len(step.moves))
        else:
            src = dst = _EMPTY
        move_levels = np.fromiter(
            (comm_level(leaf_of_slot(int(s)), leaf_of_slot(int(d)))
             for s, d in zip(src, dst)),
            dtype=np.intp, count=len(src))
        move_leaves = np.column_stack((src >> 1, dst >> 1)) if len(src) \
            else _EMPTY.reshape(0, 2)
        steps.append(CompiledStep(
            pairs=pairs, a=a, b=b, src=src, dst=dst, moves=step.moves,
            pair_leaves=pair_leaves, move_levels=move_levels,
            move_leaves=move_leaves,
            n_remote=int(np.count_nonzero(move_levels)),
            hop_count=2 * int(move_levels.sum()),
            max_pairs_per_leaf=busiest,
        ))
        if len(src):
            layout[dst] = layout[src]
        trajectory[i] = layout
    for arr in (trajectory,):
        arr.setflags(write=False)
    return CompiledSchedule(
        n=schedule.n, name=schedule.name, steps=tuple(steps),
        trajectory=trajectory,
    )


def compile_schedule(schedule: Schedule) -> CompiledSchedule:
    """Compiled plan of ``schedule``; lowered once, then cached.

    Fast path: the plan is memoised on the schedule instance, so repeat
    sweeps of one run cost a single attribute read.  Slow path: the
    process-wide LRU keyed by the structural fingerprint, which makes
    *runs* share plans (every ``compute`` call builds a fresh ordering
    and therefore fresh ``Schedule`` objects of identical structure).
    """
    plan = schedule.__dict__.get(_ATTR)
    if plan is not None:
        with _lock:
            _stats.instance_hits += 1
        return plan
    key = _fingerprint(schedule)
    with _lock:
        plan = _cache.get(key)
        if plan is not None:
            _cache.move_to_end(key)
            _stats.hits += 1
            schedule.__dict__[_ATTR] = plan
            return plan
    # lower outside the lock: compilation is pure and idempotent, and a
    # rare duplicate lowering beats serialising every first compile
    plan = _lower(schedule)
    with _lock:
        existing = _cache.get(key)
        if existing is not None:
            _stats.hits += 1
            plan = existing
        else:
            _stats.misses += 1
            _cache[key] = plan
            while len(_cache) > _CACHE_MAXSIZE:
                _cache.popitem(last=False)
        _stats.size = len(_cache)
    schedule.__dict__[_ATTR] = plan
    return plan


def structural_fingerprint(schedule: Schedule) -> tuple:
    """Public view of the plan cache key of ``schedule``.

    The verifier's plan-integrity pass (:mod:`repro.verify.plancheck`)
    uses it to prove that two schedules sharing one cached plan really
    are structurally identical, without reaching into cache internals.
    """
    return _fingerprint(schedule)


def lower_schedule(schedule: Schedule) -> CompiledSchedule:
    """Lower ``schedule`` afresh, bypassing every cache layer.

    The result is never stored: no LRU entry, no instance memo, no
    counter movement.  This is the independent re-elaboration oracle the
    plan-integrity pass compares cached plans against — a stale or
    collided cache entry cannot influence it.
    """
    return _lower(schedule)


def plans_structurally_equal(a: CompiledSchedule, b: CompiledSchedule) -> bool:
    """True iff two compiled plans lower the same schedule structure.

    Compares every per-step index array plus the derived trajectory;
    routing memos and object identity are ignored.
    """
    if a.n != b.n or len(a.steps) != len(b.steps):
        return False
    if not np.array_equal(a.trajectory, b.trajectory):
        return False
    for sa, sb in zip(a.steps, b.steps):
        if not (np.array_equal(sa.pairs, sb.pairs)
                and np.array_equal(sa.src, sb.src)
                and np.array_equal(sa.dst, sb.dst)):
            return False
    return True


def plan_cache_stats() -> PlanCacheStats:
    """Snapshot of the plan-cache counters (copy; safe to keep)."""
    with _lock:
        return PlanCacheStats(
            hits=_stats.hits, misses=_stats.misses,
            instance_hits=_stats.instance_hits, size=len(_cache),
        )


def clear_plan_cache() -> None:
    """Drop every cached plan and zero the counters (test isolation)."""
    with _lock:
        _cache.clear()
        _stats.hits = _stats.misses = _stats.instance_hits = 0
        _stats.size = 0
