"""A simulated tree multiprocessor executing Jacobi schedules.

``TreeMachine`` holds the distributed matrix (two column slots per leaf,
as in the paper), runs a schedule's sweeps with real numerics, and
charges every step to the cost model while the router measures channel
loads on the chosen topology.

The machine has no sweep loop of its own.  A loaded machine holds the
serial driver's sweep state — :class:`~repro.svd.hestenes.ScalarSweep`
in scalar mode, :class:`~repro.blockjacobi.driver.BlockSweep` on a
batch of one with ``block_size=b`` — and :meth:`TreeMachine.run_sweep`
runs that driver's own sweep, passing per-step hooks that are told
which storage columns every slot holds.  So its numerics are the serial
drivers' bit for bit, on every kernel; what the machine adds is the
*timeline*: per-step compute/communication times, message counts and
contention factors.  On a healthy machine that timeline depends only on
the plan and the topology, so :func:`sweep_ledger` computes it without
running a sweep, and :func:`charge_step` is the one charging rule both
use.

In block mode each slot holds a ``b``-column block, a met pair solves a
local ``2b``-column subproblem through a :mod:`repro.blockjacobi.kernel`
solver, every message carries ``b`` columns, and the step records
charge the block work to the cost model.

With a :class:`~repro.faults.injector.FaultInjector` installed (via
:meth:`TreeMachine.install_faults`), crash/stall faults fire before a
step (a crashed leaf poisons the storage columns its slots hold), every
inter-leaf move of the step is then delivered through the ack/seq
:class:`~repro.faults.transport.AckTransport` (a silently corrupted
payload is damaged in the column its destination slot holds), and a
degraded host map (``host_of_leaf``) reroutes a dead leaf's traffic and
compute onto its sibling.  With no injector, every code path is
identical to the fault-free machine — bit-for-bit and
charge-for-charge.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..orderings.plan import CompiledSchedule, CompiledStep, compile_schedule
from ..orderings.schedule import Schedule
from ..svd.rotations import RotationStats
from ..util.bits import leaf_of_slot
from ..util.validation import require
from .costmodel import CostModel
from .routing import MessagePhase, route_moves
from .stats import StepRecord, SweepStats
from .topology import TreeTopology

__all__ = ["TreeMachine", "charge_step", "sweep_ledger"]

#: the item list of the machine's batch of one (block mode)
_ONE_ITEM = np.zeros(1, dtype=np.intp)
_ONE_ITEM.flags.writeable = False


def charge_step(
    cost: CostModel,
    k: int,
    cs: CompiledStep,
    phase: MessagePhase | None,
    m: int,
    words: int,
    block_size: int | None = None,
    inner_sweeps: int = 2,
    busiest: int | None = None,
) -> StepRecord:
    """The cost record of step ``k`` (1-based) of a sweep.

    Compute: the busiest leaf's ``busiest`` met pairs (the plan's count
    under the identity host map by default), each one rotation of
    length-``m`` columns, or in block mode one ``2b``-column local solve
    of ``inner_sweeps`` sweeps.  Communication: the move ``phase``
    (``None`` for a step without moves), each message ``words`` long.
    Fault fields stay zero; the event path adds them.
    """
    compute_t = 0.0
    if cs.n_pairs:
        if busiest is None:
            busiest = cs.max_pairs_per_leaf
        if block_size is None:
            compute_t = cost.compute_time(busiest, m)
        else:
            compute_t = cost.block_compute_time(busiest, m, block_size,
                                                inner_sweeps)
    if phase is None:
        return StepRecord(step=k, rotations=cs.n_pairs, messages=0,
                          max_level=0, contention=0.0,
                          compute_time=compute_t, comm_time=0.0)
    return StepRecord(step=k, rotations=cs.n_pairs,
                      messages=phase.n_messages, max_level=phase.max_level,
                      contention=phase.contention, compute_time=compute_t,
                      comm_time=cost.comm_time(phase, words))


def sweep_ledger(
    plan: CompiledSchedule,
    topology: TreeTopology,
    cost: CostModel,
    m: int,
    words: int,
    block_size: int | None = None,
    inner_sweeps: int = 2,
) -> SweepStats:
    """The cost ledger of one healthy sweep of ``plan`` on ``topology``:
    the :class:`SweepStats` :meth:`TreeMachine.run_sweep` records with
    no fault plan, computed without running the sweep.

    A healthy sweep's charges depend only on which pairs meet on which
    leaf and which messages cross which level — the plan and the
    topology — never on the data.  ``words`` is the length of one
    message: ``b * (m + n)`` with vectors accumulated, ``b * m``
    without (``b = 1`` in scalar mode).
    """
    return SweepStats(steps=[
        charge_step(cost, k, cs,
                    plan.route_phase(topology, k - 1) if cs.has_moves else None,
                    m, words, block_size, inner_sweeps)
        for k, cs in enumerate(plan.steps, start=1)
    ])


class TreeMachine:
    """Leaf processors at the bottom of a tree topology, two columns each."""

    def __init__(self, topology: TreeTopology, cost_model: CostModel | None = None):
        self.topology = topology
        self.cost = cost_model or CostModel()
        #: the loaded sweep state: the scalar driver's
        #: :class:`~repro.svd.hestenes.ScalarSweep`, or in block mode the
        #: block driver's :class:`~repro.blockjacobi.driver.BlockSweep`
        #: on a batch of one
        self.state = None
        #: the distributed matrix and its accumulated right vectors:
        #: views of the state's storage (slot order between sweeps in
        #: scalar mode; ``state.block_cols`` maps slots in block mode)
        self.X: np.ndarray | None = None
        self.V: np.ndarray | None = None
        self.kernel: str = "reference"
        self.block_size: int | None = None
        self.inner_sweeps: int = 2
        # step executor for the block-mode local solves (None = serial)
        self._executor = None
        # runtime sanitizer for the block-mode local solves (None = off)
        self._sanitizer = None
        # fault-mode state: injector + reliable transport, and the
        # degraded host map (logical leaf -> physical leaf)
        self.injector = None
        self._transport = None
        self.host_of_leaf = np.arange(topology.n_leaves, dtype=np.intp)
        self.dead_leaves: set[int] = set()

    @property
    def n_slots(self) -> int:
        """Schedule slots: columns in scalar mode, blocks in block mode."""
        return 2 * self.topology.n_leaves

    @property
    def n_columns(self) -> int:
        """Matrix columns the machine holds (``n_slots * block_size``)."""
        return self.n_slots * (self.block_size or 1)

    def load(self, a: np.ndarray, compute_v: bool = True,
             kernel: str = "reference", block_size: int | None = None,
             inner_sweeps: int = 2, executor=None,
             sanitizer=None) -> None:
        """Distribute the columns of ``a`` over the leaves.

        Scalar mode (``block_size=None``): slot ``i`` holds column ``i``,
        ``kernel`` names a scalar rotation kernel.  Block mode: slot
        ``i`` holds the ``block_size`` columns ``i*b .. (i+1)*b - 1`` and
        ``kernel`` names a block-pair solver from
        :data:`repro.blockjacobi.BLOCK_KERNELS` (``inner_sweeps`` cyclic
        sweeps per met pair).  ``executor`` (a
        :class:`~repro.parallel.executor.StepExecutor`) runs each step's
        independent block solves across workers; results are
        bit-identical to serial, and the caller owns (and closes) it.
        ``sanitizer`` (a :class:`~repro.verify.sanitize.RuntimeSanitizer`)
        arms runtime write-set records on every block step; the driver
        owns it and runs the sweep-boundary canaries itself.
        """
        if block_size is None:
            from ..svd.hestenes import KERNELS

            require(kernel in KERNELS,
                    f"unknown kernel {kernel!r}; available: {', '.join(KERNELS)}")
        else:
            from ..blockjacobi.kernel import BLOCK_KERNELS

            require(block_size >= 1, "block_size must be positive")
            require(inner_sweeps >= 1,
                    f"inner_sweeps must be >= 1, got {inner_sweeps!r}")
            require(kernel in BLOCK_KERNELS,
                    f"unknown block kernel {kernel!r}; "
                    f"available: {', '.join(BLOCK_KERNELS)}")
        a = np.asarray(a, dtype=np.float64)
        require(a.ndim == 2, "matrix expected")
        # a fresh load is a fresh machine: healthy host map, no faults
        self.injector = None
        self._transport = None
        self.host_of_leaf = np.arange(self.topology.n_leaves, dtype=np.intp)
        self.dead_leaves = set()
        self.block_size = block_size
        self.inner_sweeps = inner_sweeps
        require(a.shape[1] == self.n_columns,
                f"machine holds {self.n_columns} columns, matrix has {a.shape[1]}")
        self.kernel = kernel
        self._executor = executor
        self._sanitizer = sanitizer
        if executor is not None and sanitizer is not None:
            executor.sanitizer = sanitizer
        if block_size is None:
            from ..svd.hestenes import ScalarSweep

            self.state = ScalarSweep(
                a.copy(), np.eye(a.shape[1]) if compute_v else None, kernel)
            self.X, self.V = self.state.X, self.state.V
        else:
            from ..blockjacobi.driver import BlockSweep

            self.state = BlockSweep(a[None], compute_v, block_size)
            self.X = self.state.Xs[0]
            self.V = None if self.state.Vs is None else self.state.Vs[0]

    # -- fault-mode hooks -------------------------------------------------

    def install_faults(self, injector) -> None:
        """Arm a :class:`~repro.faults.injector.FaultInjector`.

        From now on inter-leaf moves are delivered through the ack/seq
        transport and step boundaries consult the injector for crash
        and stall faults.  Call after :meth:`load` (loading resets the
        fault state).
        """
        from ..faults.transport import AckTransport

        self.injector = injector
        self._transport = AckTransport(self.cost, injector)

    def _host(self, leaf: int) -> int:
        """Physical leaf executing logical leaf ``leaf`` (identity when
        healthy; the sibling after graceful degradation)."""
        return int(self.host_of_leaf[leaf])

    def _busiest_leaf(self, cs: CompiledStep) -> int:
        """Rotation count of the step's busiest physical leaf.

        The compiled plan precomputes the identity-host-map value; only
        a degraded machine (rehosted leaves) recounts under the current
        host map.
        """
        if not self.dead_leaves:
            return cs.max_pairs_per_leaf
        return int(np.bincount(self.host_of_leaf[cs.pair_leaves]).max())

    def require_finite(self) -> None:
        """Sweep-boundary guardrail: raise
        :class:`~repro.util.errors.NumericalBreakdown` at the first
        non-finite entry of the distributed matrix."""
        from ..util.errors import NumericalBreakdown

        for name, mat in (("X", self.X), ("V", self.V)):
            if mat is None:
                continue
            finite = np.isfinite(mat)
            if not finite.all():
                idx = tuple(int(i) for i in np.argwhere(~finite)[0])
                raise NumericalBreakdown(
                    f"non-finite entry in {name} at {idx} after sweep",
                    where=idx)

    def degrade_leaf(self, dead: int) -> tuple[int, list[int]]:
        """Gracefully degrade: rehost leaf ``dead``'s slots on its
        sibling ``dead ^ 1`` (the leaf sharing its lowest switch).

        Leaves previously rehosted *onto* the dead leaf move with it.
        Returns ``(new_host, remapped_logical_leaves)``; raises
        :class:`~repro.faults.errors.UnrecoverableFault` when the
        sibling (or its own host) is dead too — a buddy-pair double
        crash leaves no level-1 host for the columns.
        """
        from ..faults.errors import UnrecoverableFault

        self.dead_leaves.add(dead)
        buddy = dead ^ 1
        target = self._host(buddy)
        if target == dead or target in self.dead_leaves:
            raise UnrecoverableFault(
                f"leaf {dead} and its sibling {buddy} are both dead; "
                "no host remains for their columns")
        moved = [lf for lf in range(self.topology.n_leaves)
                 if self._host(lf) == dead]
        for lf in moved:
            self.host_of_leaf[lf] = target
        return target, moved

    def _fault_step_begin(self, sweep: int, k: int,
                          held: np.ndarray) -> tuple[float, list]:
        """Fire crash/stall faults scheduled at step ``k``.

        A newly dead leaf poisons (NaN-marks) the storage columns its
        two slots hold (``held[slot]``), so even a crash no message ever
        touches is caught by the non-finite sentinels.  Returns
        ``(stall_time, events)``.
        """
        from ..faults.events import FaultEvent

        inj = self.injector
        events: list = []
        for leaf in inj.advance(sweep, k):
            self.state.poison(held[[2 * leaf, 2 * leaf + 1]])
            events.append(inj.record(FaultEvent(
                "crash", "injected", sweep, k, leaf=leaf,
                detail=f"leaf {leaf} crash-stopped; local columns lost")))
        stall_t = 0.0
        for leaf, duration in inj.stalls(sweep, k):
            if leaf in inj.dead:
                continue
            # the step is synchronous: the slowest (stalled) leaf gates it
            stall_t = max(stall_t, duration)
            events.append(inj.record(FaultEvent(
                "stall", "injected", sweep, k, leaf=leaf,
                time_charged=duration,
                detail=f"leaf {leaf} frozen for {duration:.0f}")))
        return stall_t, events

    def _corrupt(self, held, mode: str) -> None:
        """Damage a silently corrupted payload in the storage column its
        destination slot holds (``held``); a block payload damages one
        of its columns, drawn from the injector's RNG."""
        from ..faults.corruptions import corrupt_payload

        rng = self.injector.rng
        if np.ndim(held):
            # an integer index yields a writable view (a fancy-indexed
            # block would be a copy and the damage would miss the matrix)
            held = held[int(rng.integers(len(held)))]
        corrupt_payload(self.X[:, int(held)], mode, rng)

    def _fault_deliver(self, sweep: int, k: int, moves, words: int,
                       held: np.ndarray):
        """Deliver a move phase through the transport under the current
        host map.  Returns ``(phase, extra_time, retries, events)``;
        silently corrupted payloads are damaged where their destination
        slots' columns now sit (``held``, after the move)."""
        pairs = [(self._host(leaf_of_slot(mv.src)),
                  self._host(leaf_of_slot(mv.dst))) for mv in moves]
        phase = route_moves(self.topology,
                            np.fromiter((s for s, _ in pairs),
                                        dtype=np.int64, count=len(pairs)),
                            np.fromiter((d for _, d in pairs),
                                        dtype=np.int64, count=len(pairs)))
        msgs = [(s, d, self.topology.comm_level(s, d))
                for s, d in pairs if s != d]
        outcome = self._transport.deliver_phase(sweep, k, msgs, words)
        pending = list(outcome.silent)
        for mv, (s, d) in zip(moves, pairs):
            if not pending:
                break
            for i, (ps, pd, mode) in enumerate(pending):
                if (s, d) == (ps, pd):
                    self._corrupt(held[mv.dst], mode)
                    pending.pop(i)
                    break
        return phase, outcome.extra_time, outcome.retries, outcome.events

    def _charge(self, plan: CompiledSchedule, k: int, cs: CompiledStep,
                m: int, words: int, sweep_index: int, stall: float,
                events: list, held: np.ndarray) -> StepRecord:
        """Step ``k``'s record, after its rotations and moves ran.

        A healthy machine charges the plan's memoised routing through
        :func:`charge_step`, exactly as :func:`sweep_ledger` does; with
        an injector the move phase is delivered through the transport
        (``held`` locates silently corrupted payloads), and the stall,
        retransmission time, retries and fault events are added.
        """
        busiest = self._busiest_leaf(cs) if cs.n_pairs else 0
        if self.injector is None:
            phase = plan.route_phase(self.topology, k - 1) if cs.has_moves \
                else None
            return charge_step(self.cost, k, cs, phase, m, words,
                               self.block_size, self.inner_sweeps, busiest)
        phase, extra, retries = None, 0.0, 0
        if cs.has_moves:
            phase, extra, retries, move_events = self._fault_deliver(
                sweep_index, k, cs.moves, words, held)
            events.extend(move_events)
        rec = charge_step(self.cost, k, cs, phase, m, words, self.block_size,
                          self.inner_sweeps, busiest)
        return dataclasses.replace(
            rec, compute_time=rec.compute_time + stall,
            comm_time=rec.comm_time + extra, retries=retries,
            fault_events=tuple(events))

    def run_sweep(
        self,
        schedule: Schedule,
        tol: float = 1e-12,
        sort: str | None = "desc",
        sweep_index: int = 0,
    ) -> tuple[SweepStats, RotationStats, float]:
        """Execute one sweep; returns (timing stats, rotation stats, worst
        relative off-diagonal seen before rotating).

        ``tol`` is the sweep's rotation threshold.  ``sweep_index``
        locates the sweep for fault matching and event records; it is
        ignored (and harmless) without an injector.

        The sweep is the loaded driver's own —
        :meth:`~repro.svd.hestenes.ScalarSweep.sweep`, or
        :meth:`~repro.blockjacobi.driver.BlockSweep.sweep` on a batch of
        one — run with the machine's per-step hooks: crash and stall
        faults before each step; after its moves, the transport and the
        step's charge.  With no injector the records equal
        :func:`sweep_ledger`'s for the same plan.
        """
        require(self.state is not None, "load() a matrix first")
        require(schedule.n == self.n_slots, "schedule size != machine size")
        plan = compile_schedule(schedule)
        m, n = self.X.shape
        # a message carries one slot's columns of m words each (plus
        # their V rows when vectors are accumulated)
        words = (self.block_size or 1) * (m + (n if self.V is not None else 0))
        hooks = _StepEvents(self, plan, sweep_index, m, words)
        if self.block_size is None:
            rstats, worst = self.state.sweep(plan, tol, sort, hooks)
            return hooks.stats, rstats, worst
        applied, wo = self.state.sweep(plan, _ONE_ITEM, tol, sort,
                                       self.inner_sweeps, self.kernel,
                                       self._executor, self._sanitizer, hooks)
        return hooks.stats, RotationStats(applied=int(applied[0])), float(wo[0])

    def column_norms(self) -> np.ndarray:
        require(self.X is not None, "load() a matrix first")
        return np.linalg.norm(self.X, axis=0)


class _StepEvents:
    """The machine's per-step hooks on a driver's sweep, which tell it
    the storage columns every slot holds (``held``): crash and stall
    faults before a step, delivery and charging after its moves."""

    def __init__(self, machine: TreeMachine, plan: CompiledSchedule,
                 sweep: int, m: int, words: int):
        self.machine, self.plan, self.sweep = machine, plan, sweep
        self.m, self.words = m, words
        self.stats = SweepStats()
        self.stall, self.events = 0.0, []

    def before(self, k: int, cs: CompiledStep, held: np.ndarray) -> None:
        if self.machine.injector is not None:
            self.stall, self.events = self.machine._fault_step_begin(
                self.sweep, k, held)

    def after(self, k: int, cs: CompiledStep, held: np.ndarray) -> None:
        self.stats.steps.append(self.machine._charge(
            self.plan, k, cs, self.m, self.words, self.sweep, self.stall,
            self.events, held))
