"""Schedule representation for parallel Jacobi orderings.

A *sweep* of a parallel Jacobi ordering is a sequence of :class:`Step`\\ s.
Each step names the disjoint slot pairs that are orthogonalised in
parallel, followed by the column *moves* (a partial permutation of slot
contents) that set up the next step.  Slots are fixed physical storage
locations: leaf processor ``i`` owns slots ``2i`` and ``2i + 1``.

Making communication explicit in the schedule (rather than implicit in an
index permutation) is what lets the tree-machine simulator charge every
ordering its true channel loads: a move between slots on different leaves
is a message whose tree level is ``comm_level(leaf(src), leaf(dst))``.

The paper's orderings pair only co-resident slots (that is the whole
point of the fat-tree ordering), but the representation permits arbitrary
slot pairs so that baselines with remote rotations can be expressed and
penalised by the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence

from ..util.bits import comm_level, leaf_of_slot
from ..util.validation import require

__all__ = [
    "Move",
    "Step",
    "Schedule",
    "apply_moves",
    "compose_moves",
    "permutation_of_sweep",
]


@dataclass(frozen=True)
class Move:
    """Relocation of one column: the content of ``src`` slot goes to ``dst``.

    All moves of a step are applied simultaneously (they form a partial
    permutation), so a set of moves may freely exchange slot contents.
    """

    src: int
    dst: int

    @property
    def level(self) -> int:
        """Tree level the column crosses; 0 for an intra-leaf move."""
        return comm_level(leaf_of_slot(self.src), leaf_of_slot(self.dst))

    @property
    def is_local(self) -> bool:
        return self.level == 0


@dataclass(frozen=True)
class Step:
    """One parallel time step: disjoint rotations, then column moves.

    ``pairs``
        Slot pairs rotated in parallel.  The order within a pair is the
        storage convention: the first slot is the *left* position of the
        paper's figures (the slot that keeps the larger-norm column when
        sorting is enabled).
    ``moves``
        Partial permutation of slot contents applied after the rotations.
    """

    pairs: tuple[tuple[int, int], ...]
    moves: tuple[Move, ...] = ()

    def __post_init__(self) -> None:
        touched: set[int] = set()
        for a, b in self.pairs:
            require(a != b, f"degenerate pair ({a}, {b})")
            require(a not in touched and b not in touched,
                    f"slot appears in two pairs of one step: {self.pairs}")
            touched.add(a)
            touched.add(b)
        srcs = [m.src for m in self.moves]
        dsts = [m.dst for m in self.moves]
        require(len(set(srcs)) == len(srcs), "duplicate move sources in step")
        require(len(set(dsts)) == len(dsts), "duplicate move destinations in step")
        require(set(srcs) == set(dsts),
                "moves must form a partial permutation (src set == dst set); "
                f"got srcs={sorted(srcs)} dsts={sorted(dsts)}")

    @property
    def message_moves(self) -> tuple[Move, ...]:
        """Moves that cross leaves (i.e. cost communication)."""
        return tuple(m for m in self.moves if not m.is_local)

    @property
    def remote_pairs(self) -> tuple[tuple[int, int], ...]:
        """Rotation pairs whose slots live on different leaves."""
        return tuple(
            (a, b) for a, b in self.pairs
            if leaf_of_slot(a) != leaf_of_slot(b)
        )

    def max_level(self) -> int:
        """Highest tree level used by this step's moves (0 if none)."""
        return max((m.level for m in self.moves), default=0)


@dataclass
class Schedule:
    """A full sweep: ``n`` column slots driven through ``steps``.

    The schedule is *positional*: it knows nothing about which logical
    column currently sits in which slot.  Tracking logical indices through
    a sweep (to check the all-pairs property, or to report the paper's
    figure tables) is done with :meth:`trace` starting from a layout.
    """

    n: int
    steps: list[Step]
    name: str = "schedule"
    notes: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for step in self.steps:
            for a, b in step.pairs:
                require(0 <= a < self.n and 0 <= b < self.n,
                        f"pair slot out of range in {self.name}")
            for m in step.moves:
                require(0 <= m.src < self.n and 0 <= m.dst < self.n,
                        f"move slot out of range in {self.name}")

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_rotation_steps(self) -> int:
        """Steps that perform rotations (the paper's step count); move-only
        steps are stand-alone communication phases between super-steps."""
        return sum(1 for s in self.steps if s.pairs)

    def trace(self, layout: Sequence[int] | None = None) -> Iterator[tuple[int, list[tuple[int, int]], list[int]]]:
        """Yield ``(step_number, index_pairs, layout_after)`` per step.

        ``layout[slot]`` is the logical index stored in ``slot``; the
        default layout is the identity ``1..n`` (the paper numbers columns
        from 1).  ``index_pairs`` preserves the slot-order convention of
        each pair.
        """
        state = list(range(1, self.n + 1)) if layout is None else list(layout)
        require(len(state) == self.n, "layout length mismatch")
        for k, step in enumerate(self.steps, start=1):
            pairs = [(state[a], state[b]) for a, b in step.pairs]
            state = apply_moves(state, step.moves)
            yield k, pairs, list(state)

    def final_layout(self, layout: Sequence[int] | None = None) -> list[int]:
        """Layout after the whole sweep."""
        state = list(range(1, self.n + 1)) if layout is None else list(layout)
        for _, _, state in self.trace(state):
            pass
        return state

    def index_pairs(self, layout: Sequence[int] | None = None) -> list[list[tuple[int, int]]]:
        """All index pairs, one list per step, tracked from ``layout``."""
        return [pairs for _, pairs, _ in self.trace(layout)]

    def all_moves(self) -> Iterator[tuple[int, Move]]:
        """Yield ``(step_number, move)`` for every move of the sweep."""
        for k, step in enumerate(self.steps, start=1):
            for m in step.moves:
                yield k, m

    def total_messages(self) -> int:
        """Number of inter-leaf column transfers in one sweep."""
        return sum(1 for _, m in self.all_moves() if not m.is_local)

    def level_histogram(self) -> dict[int, int]:
        """Message count per tree level (level >= 1 only)."""
        hist: dict[int, int] = {}
        for _, m in self.all_moves():
            if m.level > 0:
                hist[m.level] = hist.get(m.level, 0) + 1
        return dict(sorted(hist.items()))


def apply_moves(layout: Sequence[int], moves: Iterable[Move]) -> list[int]:
    """Apply a partial permutation of slot contents and return the new layout."""
    state = list(layout)
    snapshot = {m.src: layout[m.src] for m in moves}
    for m in moves:
        state[m.dst] = snapshot[m.src]
    return state


def compose_moves(first: Iterable[Move], second: Iterable[Move]) -> tuple[Move, ...]:
    """Compose two sequential move phases into one net partial permutation.

    A column moved by ``first`` and then again by ``second`` travels
    directly from its original slot to its final slot; identity moves are
    dropped.  Used to fuse a stage's end-of-stage restore traffic with the
    next stage's block interchange so that every column is transferred at
    most once between consecutive rotation steps (what a real
    implementation would do).
    """
    first = tuple(first)
    second = tuple(second)
    f_map = {m.src: m.dst for m in first}
    s_map = {m.src: m.dst for m in second}
    sources = set(f_map) | set(s_map)
    net: dict[int, int] = {}
    # sources handled by `first` (their intermediate position feeds `second`)
    for src in f_map:
        mid = f_map[src]
        net[src] = s_map.get(mid, mid)
    # sources that only `second` touches, and whose slot content was not
    # produced by `first` (otherwise already covered above)
    produced = set(f_map.values())
    for src in s_map:
        if src not in produced and src not in net:
            net[src] = s_map[src]
    moves = tuple(Move(s, d) for s, d in sorted(net.items()) if s != d)
    # sanity: still a partial permutation
    srcs = [m.src for m in moves]
    dsts = [m.dst for m in moves]
    require(set(srcs) == set(dsts) and len(set(dsts)) == len(dsts),
            "composition did not produce a partial permutation")
    _ = sources  # documented above; kept for clarity
    return moves


def permutation_of_sweep(schedule: Schedule) -> list[int]:
    """The sweep's slot permutation ``sigma``: ``sigma[s]`` is the slot whose
    initial content ends up in slot ``s`` after one sweep.

    Restoration after ``k`` sweeps is equivalent to ``sigma`` having order
    dividing ``k`` — the property the paper proves for its orderings
    (order 1 for the fat-tree ordering, order 2 for the ring orderings).

    Reads the compiled plan (:mod:`repro.orderings.plan`), whose
    trajectory is precomputed once per schedule structure; the lazy
    import avoids a cycle (the plan module lowers this module's types).
    """
    from .plan import compile_schedule

    return compile_schedule(schedule).final_layout().tolist()
