"""A simulated tree multiprocessor executing Jacobi schedules.

``TreeMachine`` holds the distributed matrix (two column slots per leaf,
as in the paper), executes a schedule's rotation and communication
phases with real numerics, and charges every phase to the cost model
while the router measures channel loads on the chosen topology.

The numerics are identical to the serial driver — same kernels, same
label-oriented sorting — so the parallel path is bit-compatible with
:func:`repro.svd.jacobi_svd` (asserted in the integration tests); what
the machine adds is the *timeline*: per-step compute/communication
times, message counts and contention factors.

With ``block_size=b`` the machine runs at *block* granularity instead:
each slot holds a ``b``-column block, a met pair solves a local
``2b``-column subproblem through a :mod:`repro.blockjacobi.kernel`
solver (bit-compatible with :func:`repro.blockjacobi.block_jacobi_svd`),
every message carries ``b`` columns, and the step records charge the
block work to the cost model.

With a :class:`~repro.faults.injector.FaultInjector` installed (via
:meth:`TreeMachine.install_faults`), every inter-leaf move additionally
goes through the ack/seq :class:`~repro.faults.transport.AckTransport`,
crash/stall faults fire at step boundaries, and a degraded host map
(``host_of_leaf``) reroutes a dead leaf's traffic and compute onto its
sibling.  With no injector, every code path is identical to the
fault-free machine — bit-for-bit and charge-for-charge.
"""

from __future__ import annotations

import numpy as np

from ..orderings.plan import CompiledStep, compile_schedule
from ..orderings.schedule import Schedule
from ..svd.rotations import (
    RotationStats,
    apply_step_rotations,
    apply_step_rotations_batched,
    column_norms_sq,
)
from ..util.bits import leaf_of_slot
from ..util.validation import require
from .costmodel import CostModel
from .routing import route_moves
from .stats import StepRecord, SweepStats
from .topology import TreeTopology

__all__ = ["TreeMachine"]


class TreeMachine:
    """Leaf processors at the bottom of a tree topology, two columns each."""

    def __init__(self, topology: TreeTopology, cost_model: CostModel | None = None):
        self.topology = topology
        self.cost = cost_model or CostModel()
        self.X: np.ndarray | None = None
        self.V: np.ndarray | None = None
        self.labels: np.ndarray | None = None
        self.kernel: str = "reference"
        self.block_size: int | None = None
        self.inner_sweeps: int = 2
        #: (n_slots, b) block-to-column indirection in block mode
        self.block_cols: np.ndarray | None = None
        self._norms_sq: np.ndarray | None = None
        # batched kernel's column-as-row working buffer, allocated once
        # per load() and refilled (not reallocated) every sweep
        self._WT: np.ndarray | None = None
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
        #: pin the event-driven reference path even when the fast path
        #: is eligible (parity tests, fastpath-vs-event benchmarks)
        self.force_event = False
        #: which path the last run_sweep took ("fast" or "event")
        self.last_sweep_path: str | None = None

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
        self.X = a.copy()
        self.V = np.eye(a.shape[1]) if compute_v else None
        self.labels = np.arange(self.n_slots, dtype=np.intp)
        self.kernel = kernel
        self._executor = executor
        self._sanitizer = sanitizer
        if executor is not None and sanitizer is not None:
            executor.sanitizer = sanitizer
        self._WT = None
        if block_size is not None:
            self.block_cols = np.arange(
                self.n_columns, dtype=np.intp).reshape(self.n_slots, block_size)
            self._norms_sq = None
        else:
            self.block_cols = None
            # the batched kernel's cross-sweep squared-norm cache, kept in
            # slot order (X/V stay the canonical storage between sweeps)
            self._norms_sq = column_norms_sq(self.X) if kernel == "batched" else None
            if kernel == "batched":
                # per-sweep working buffer (stacked [X; V] column-as-row),
                # allocated once here and refilled each sweep
                m, n = a.shape
                self._WT = np.empty((n, m + (n if compute_v else 0)))

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

    def _fault_step_begin(self, sweep: int, k: int, mark) -> tuple[float, list]:
        """Fire crash/stall faults scheduled at step ``k``.

        Newly dead leaves have their resident slots NaN-marked through
        ``mark(slots)`` (mode-specific storage), so even a crash no
        message ever touches is caught by the non-finite sentinels.
        Returns ``(stall_time, events)``.
        """
        from ..faults.events import FaultEvent

        inj = self.injector
        events: list = []
        for leaf in inj.advance(sweep, k):
            mark([2 * leaf, 2 * leaf + 1])
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

    def _fault_deliver(self, sweep: int, k: int, moves, words: int,
                       corrupt_slot):
        """Deliver a move phase through the transport under the current
        host map.  Returns ``(phase, extra_time, retries, events)``;
        silently corrupted payloads are damaged via
        ``corrupt_slot(dst_slot, mode)`` after the move."""
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
                    corrupt_slot(mv.dst, mode)
                    pending.pop(i)
                    break
        return phase, outcome.extra_time, outcome.retries, outcome.events

    def run_sweep(
        self,
        schedule: Schedule,
        tol: float = 1e-12,
        sort: str | None = "desc",
        sweep_index: int = 0,
    ) -> tuple[SweepStats, RotationStats, float]:
        """Execute one sweep; returns (timing stats, rotation stats, worst
        relative off-diagonal seen before rotating).

        ``sweep_index`` locates the sweep for fault matching and event
        records; it is ignored (and harmless) without an injector.

        Fault-free, sanitizer-off, single-worker sweeps auto-select the
        vectorised fast path (see :meth:`_fastpath_eligible`): columns
        never move during the sweep, costs come in closed form from the
        compiled plan, and the result is bit-identical to the
        event-driven reference path — X, V, worst, rotation counters and
        every StepRecord field (enforced by the parity suite).  Any
        armed injector or sanitizer keeps the event path, which remains
        the reference semantics.
        """
        require(self.X is not None, "load() a matrix first")
        require(schedule.n == self.n_slots, "schedule size != machine size")
        plan = compile_schedule(schedule)
        fast = self._fastpath_eligible()
        self.last_sweep_path = "fast" if fast else "event"
        if self.block_size is not None:
            if fast:
                return self._run_sweep_fast_block(plan, tol, sort)
            return self._run_sweep_block(plan, tol, sort, sweep_index)
        if fast:
            return self._run_sweep_fast_scalar(plan, tol, sort)
        X, V, labels = self.X, self.V, self.labels
        m = X.shape[0]
        batched = self.kernel == "batched"
        if batched:
            # column-as-row working buffer for this sweep; X/V remain the
            # canonical storage so the telemetry/inspection surface is
            # kernel-agnostic (conversion is one transpose either way);
            # the buffer itself is hoisted onto the machine by load()
            WT = self._WT
            WT[:, :m] = X.T
            if V is not None:
                WT[:, m:] = V.T
            norms_sq = self._norms_sq
        if self.injector is not None:
            from ..faults.corruptions import corrupt_payload

            if batched:
                def mark(slots):
                    WT[slots, :m] = np.nan
                    if norms_sq is not None:
                        norms_sq[slots] = np.nan

                def corrupt_slot(slot, mode):
                    corrupt_payload(WT[slot, :m], mode, self.injector.rng)
            else:
                def mark(slots):
                    X[:, slots] = np.nan

                def corrupt_slot(slot, mode):
                    corrupt_payload(X[:, slot], mode, self.injector.rng)
        stats = SweepStats()
        rstats = RotationStats()
        worst = 0.0
        for k, cs in enumerate(plan.steps, start=1):
            rotations = 0
            compute_t = 0.0
            retries = 0
            fault_events: list = []
            if self.injector is not None:
                compute_t, fault_events = self._fault_step_begin(
                    sweep_index, k, mark)
            if cs.n_pairs:
                a, b = cs.a, cs.b
                flip = labels[a] > labels[b]
                if batched:
                    ab = cs.pairs
                    P = np.where(flip[:, None], ab[:, ::-1], ab)
                    st, mx = apply_step_rotations_batched(
                        WT, P, tol, sort, norms_sq, m
                    )
                else:
                    left = np.where(flip, b, a)
                    right = np.where(flip, a, b)
                    st, mx = apply_step_rotations(X, V, left, right, tol, sort)
                rstats.merge(st)
                worst = max(worst, mx)
                rotations = cs.n_pairs
                # each leaf rotates at most one of the step's pairs; remote
                # pairs (non-co-resident slots) would serialise, but the
                # paper's orderings are fully local so the busiest leaf
                # performs exactly one rotation
                compute_t += self.cost.compute_time(
                    self._busiest_leaf(cs), m)
            comm_t = 0.0
            messages = 0
            max_level = 0
            contention = 0.0
            if cs.has_moves:
                src, dst = cs.src, cs.dst
                if batched:
                    WT[dst] = WT[src]
                    norms_sq[dst] = norms_sq[src]
                else:
                    X[:, dst] = X[:, src]
                    if V is not None:
                        V[:, dst] = V[:, src]
                labels[dst] = labels[src]
                # a message carries one column of m words (plus its V row
                # block when vectors are accumulated)
                words = m + (X.shape[1] if V is not None else 0)
                if self.injector is None:
                    # healthy host map: routing depends only on (plan,
                    # topology), so the memoised phase is exact
                    phase = plan.route_phase(self.topology, k - 1)
                    extra = 0.0
                else:
                    phase, extra, retries, move_events = self._fault_deliver(
                        sweep_index, k, cs.moves, words, corrupt_slot)
                    fault_events.extend(move_events)
                messages = phase.n_messages
                max_level = phase.max_level
                contention = phase.contention
                comm_t = self.cost.comm_time(phase, words) + extra
            stats.steps.append(
                StepRecord(
                    step=k,
                    rotations=rotations,
                    messages=messages,
                    max_level=max_level,
                    contention=contention,
                    compute_time=compute_t,
                    comm_time=comm_t,
                    retries=retries,
                    fault_events=tuple(fault_events),
                )
            )
        if batched:
            X[:] = WT[:, :m].T
            if V is not None:
                V[:] = WT[:, m:].T
        return stats, rstats, worst

    def _fastpath_eligible(self) -> bool:
        """True when the vectorised fast path may replace the
        event-driven sweep: no fault injector (per-move delivery and
        degraded host maps need real events), no runtime sanitizer (its
        write-set records hang off the event path's solvers), no
        multi-worker executor (the fast path is a single serial
        pipeline), and no explicit ``force_event`` pin."""
        if self.force_event or self.injector is not None:
            return False
        if self._sanitizer is not None:
            return False
        return self._executor is None or self._executor.workers <= 1

    def _fast_record(self, plan, k: int, cs: CompiledStep, rotations: int,
                     compute_t: float, words: int) -> StepRecord:
        """Closed-form :class:`StepRecord` of a healthy step: identical
        to the event path's record by construction — same memoised
        routing phase (derived from the compiled ``move_leaves``), same
        cost-model calls, zero fault fields."""
        comm_t = 0.0
        messages = 0
        max_level = 0
        contention = 0.0
        if cs.has_moves:
            phase = plan.route_phase(self.topology, k - 1)
            messages = phase.n_messages
            max_level = phase.max_level
            contention = phase.contention
            comm_t = self.cost.comm_time(phase, words)
        return StepRecord(
            step=k,
            rotations=rotations,
            messages=messages,
            max_level=max_level,
            contention=contention,
            compute_time=compute_t,
            comm_time=comm_t,
            retries=0,
            fault_events=(),
        )

    def _run_sweep_fast_scalar(
        self,
        plan,
        tol: float,
        sort: str | None,
    ) -> tuple[SweepStats, RotationStats, float]:
        """Vectorised fault-free sweep at scalar granularity.

        Columns never move: the plan's precomputed content pairs address
        each step's columns where they already sit (content id = slot at
        sweep start), and the sweep permutation is applied once at the
        end — the event path's per-step ``X[:, dst] = X[:, src]`` column
        copies (and the batched kernel's row moves) disappear entirely.
        The rotation kernels receive the same values in the same pair
        order with the same label orientation, so the arithmetic is
        bit-identical to the event path.
        """
        X, V, labels = self.X, self.V, self.labels
        m = X.shape[0]
        fp = plan.fastpath()
        labels0 = labels.copy()
        batched = self.kernel == "batched"
        if batched:
            WT = self._WT
            WT[:, :m] = X.T
            if V is not None:
                WT[:, m:] = V.T
            norms_sq = self._norms_sq
        stats = SweepStats()
        rstats = RotationStats()
        worst = 0.0
        words = m + (X.shape[1] if V is not None else 0)
        for k, cs in enumerate(plan.steps, start=1):
            rotations = 0
            compute_t = 0.0
            if cs.n_pairs:
                pc = fp.content_pairs[k - 1]
                # the label a content carries is fixed for the whole
                # sweep, so the event path's per-step ``labels[a] >
                # labels[b]`` orientation is a static lookup here
                flip = labels0[pc[:, 0]] > labels0[pc[:, 1]]
                if batched:
                    P = np.where(flip[:, None], pc[:, ::-1], pc)
                    st, mx = apply_step_rotations_batched(
                        WT, P, tol, sort, norms_sq, m
                    )
                else:
                    left = np.where(flip, pc[:, 1], pc[:, 0])
                    right = np.where(flip, pc[:, 0], pc[:, 1])
                    st, mx = apply_step_rotations(X, V, left, right, tol, sort)
                rstats.merge(st)
                worst = max(worst, mx)
                rotations = cs.n_pairs
                compute_t = self.cost.compute_time(cs.max_pairs_per_leaf, m)
            stats.steps.append(
                self._fast_record(plan, k, cs, rotations, compute_t, words))
        final = fp.final_layout
        if batched:
            X[:] = WT[final, :m].T
            if V is not None:
                V[:] = WT[final, m:].T
            norms_sq[:] = norms_sq[final]
        else:
            X[:] = X[:, final]
            if V is not None:
                V[:] = V[:, final]
        labels[:] = labels0[final]
        return stats, rstats, worst

    def _run_sweep_fast_block(
        self,
        plan,
        tol: float,
        sort: str | None,
    ) -> tuple[SweepStats, RotationStats, float]:
        """Vectorised fault-free sweep at block granularity.

        Block indirections (``block_cols``/``labels``) stop evolving per
        step: each step's met columns come from the plan's content pairs
        through the sweep-start indirection, and both indirections jump
        to their final state once at the end.  The gram kernel
        additionally runs on transposed row-major buffers
        (:func:`~repro.blockjacobi.kernel.fastpath_gram_step`): the
        event path's strided column gather/scatter — its dominant cost
        at large n — becomes contiguous row traffic, with sort-only
        steps reduced to index relabelings.  A numerical breakdown
        materialises ``X``/``V`` and delegates that step to the event
        solver, preserving the per-pair fallback semantics bit for bit.
        """
        from ..blockjacobi.kernel import (
            fastpath_gram_flush,
            fastpath_gram_step,
            solve_block_step,
        )
        from ..util.errors import NumericalBreakdown

        X, V = self.X, self.V
        b = self.block_size
        m = X.shape[0]
        n_cols = X.shape[1]
        fp = plan.fastpath()
        block0 = self.block_cols.copy()
        labels0 = self.labels.copy()
        gram = self.kernel == "gram"
        if gram:
            XT = np.ascontiguousarray(X.T)
            VT = np.ascontiguousarray(V.T) if V is not None else None
            row_of_col = np.arange(n_cols, dtype=np.intp)
            scratch: dict = {}  # step stacks, allocated once per sweep
        stats = SweepStats()
        rstats = RotationStats()
        worst = 0.0
        words = b * (m + (n_cols if V is not None else 0))
        for k, cs in enumerate(plan.steps, start=1):
            rotations = 0
            compute_t = 0.0
            if cs.n_pairs:
                # (n_pairs, 2b): the event path's evolving ``block_cols``
                # indirection, replayed from the sweep-start snapshot
                pair_cols = block0[fp.content_pairs[k - 1]].reshape(
                    cs.n_pairs, 2 * b)
                if gram:
                    try:
                        st, mx = fastpath_gram_step(
                            XT, VT, row_of_col, pair_cols, tol, sort,
                            self.inner_sweeps, scratch=scratch)
                    except NumericalBreakdown:
                        # materialise and delegate the poisoned step to
                        # the event solver: same per-pair fallback
                        # on the same values, then re-ingest the buffers
                        fastpath_gram_flush(XT, VT, scratch)
                        X[:] = XT[row_of_col].T
                        if V is not None:
                            V[:] = VT[row_of_col].T
                        st, mx = solve_block_step(
                            X, V, pair_cols, tol, sort, self.inner_sweeps,
                            self.kernel, executor=self._executor)
                        XT[:] = X.T
                        if VT is not None:
                            VT[:] = V.T
                        row_of_col = np.arange(n_cols, dtype=np.intp)
                else:
                    st, mx = solve_block_step(
                        X, V, pair_cols, tol, sort, self.inner_sweeps,
                        self.kernel, executor=self._executor)
                rstats.merge(st)
                worst = max(worst, mx)
                rotations = cs.n_pairs
                compute_t = self.cost.block_compute_time(
                    cs.max_pairs_per_leaf, m, b, self.inner_sweeps)
            stats.steps.append(
                self._fast_record(plan, k, cs, rotations, compute_t, words))
        final = fp.final_layout
        if gram:
            fastpath_gram_flush(XT, VT, scratch)
            X[:] = XT[row_of_col].T
            if V is not None:
                V[:] = VT[row_of_col].T
        self.block_cols[:] = block0[final]
        self.labels[:] = labels0[final]
        return stats, rstats, worst

    def _run_sweep_block(
        self,
        plan,
        tol: float,
        sort: str | None,
        sweep_index: int = 0,
    ) -> tuple[SweepStats, RotationStats, float]:
        """Block-granularity sweep: met pairs solve 2b-column subproblems,
        moves carry whole blocks, records charge block work."""
        from ..blockjacobi.kernel import solve_block_step

        X, V, labels = self.X, self.V, self.labels
        block_cols = self.block_cols
        b = self.block_size
        m = X.shape[0]
        if self.injector is not None:
            from ..faults.corruptions import corrupt_payload

            def mark(slots):
                for s in slots:
                    X[:, block_cols[s]] = np.nan

            def corrupt_slot(slot, mode):
                # pick one column of the block: an integer index yields a
                # writable view (a fancy-indexed block would be a copy and
                # the damage would silently miss the matrix)
                cols = block_cols[slot]
                col = int(cols[int(self.injector.rng.integers(len(cols)))])
                corrupt_payload(X[:, col], mode, self.injector.rng)
        stats = SweepStats()
        rstats = RotationStats()
        worst = 0.0
        for k, cs in enumerate(plan.steps, start=1):
            rotations = 0
            compute_t = 0.0
            retries = 0
            fault_events: list = []
            if self.injector is not None:
                compute_t, fault_events = self._fault_step_begin(
                    sweep_index, k, mark)
            if cs.n_pairs:
                # (n_pairs, 2b): row i = the met columns of block pair i
                pair_cols = block_cols[cs.pairs].reshape(cs.n_pairs, 2 * b)
                st, mx = solve_block_step(X, V, pair_cols, tol, sort,
                                          self.inner_sweeps, self.kernel,
                                          executor=self._executor,
                                          sanitizer=self._sanitizer)
                rstats.merge(st)
                worst = max(worst, mx)
                # block granularity: one "rotation" per met block pair
                rotations = cs.n_pairs
                compute_t += self.cost.block_compute_time(
                    self._busiest_leaf(cs), m, b, self.inner_sweeps
                )
            comm_t = 0.0
            messages = 0
            max_level = 0
            contention = 0.0
            if cs.has_moves:
                src, dst = cs.src, cs.dst
                # fancy assignment materialises the gather first, so the
                # snapshot semantics of a move phase hold
                block_cols[dst] = block_cols[src]
                labels[dst] = labels[src]
                # a message carries one b-column block of b*m words (plus
                # its V row block when vectors are accumulated)
                words = b * (m + (X.shape[1] if V is not None else 0))
                if self.injector is None:
                    phase = plan.route_phase(self.topology, k - 1)
                    extra = 0.0
                else:
                    phase, extra, retries, move_events = self._fault_deliver(
                        sweep_index, k, cs.moves, words, corrupt_slot)
                    fault_events.extend(move_events)
                messages = phase.n_messages
                max_level = phase.max_level
                contention = phase.contention
                comm_t = self.cost.comm_time(phase, words) + extra
            stats.steps.append(
                StepRecord(
                    step=k,
                    rotations=rotations,
                    messages=messages,
                    max_level=max_level,
                    contention=contention,
                    compute_time=compute_t,
                    comm_time=comm_t,
                    retries=retries,
                    fault_events=tuple(fault_events),
                )
            )
        return stats, rstats, worst

    def column_norms(self) -> np.ndarray:
        require(self.X is not None, "load() a matrix first")
        return np.linalg.norm(self.X, axis=0)
