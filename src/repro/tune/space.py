"""Candidate space of the configuration autotuner.

A :class:`Candidate` is one complete, runnable configuration of the
public SVD entry points — the same five knobs ``svd`` / ``svd_batch``
expose (ordering, kernel, block size, step executor, workers).
:func:`candidate_space` enumerates the admissible candidates for a
target shape.

The space is deliberately small and structured rather than a grid: the
block-Jacobi literature (Faverge et al., Novaković — see PAPERS.md)
shows performance is decided by block size × ordering, so we take the
divisor block sizes that keep at least 8 schedule slots, the two
strongest ordering families (the paper's fat-tree ordering and the new
ring ordering), and one threaded-executor variant instead of the full
cross product.  The default configuration is always
candidate 0 so every tune run prices the thing it is trying to beat.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.bits import is_power_of_two
from ..util.validation import require

__all__ = [
    "Candidate",
    "DEFAULT_CANDIDATE",
    "candidate_space",
]


@dataclass(frozen=True)
class Candidate:
    """One complete tuner configuration (the knobs of :func:`repro.svd`).

    ``block_size is None`` means scalar mode, where the executor /
    worker knobs must stay unset (`svd` rejects them without a block
    size — the scalar kernels have no independent pair subproblems).
    """

    kernel: str = "reference"
    block_size: int | None = None
    ordering: str = "fat_tree"
    executor: str | None = None
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.block_size is None:
            require(self.executor is None and self.workers is None,
                    f"scalar candidates cannot carry executor/workers: "
                    f"{self!r}")

    def label(self) -> str:
        """Compact display name, e.g. ``gram-b16/ring_new/threads2``."""
        parts = [self.kernel if self.block_size is None
                 else f"{self.kernel}-b{self.block_size}", self.ordering]
        if self.executor is not None:
            w = "" if self.workers is None else str(self.workers)
            parts.append(f"{self.executor}{w}")
        return "/".join(parts)

    def call_kwargs(self) -> dict:
        """Keyword arguments for :func:`repro.svd` / :func:`repro.svd_batch`
        (only the knobs this candidate actually sets)."""
        kw: dict = {"ordering": self.ordering, "kernel": self.kernel}
        for name in ("block_size", "executor", "workers"):
            value = getattr(self, name)
            if value is not None:
                kw[name] = value
        return kw

    def options_dict(self) -> dict:
        """JSON form persisted in tuned profiles (all five knobs, explicit
        ``None`` for the unset ones so a profile is self-describing)."""
        return {
            "ordering": self.ordering,
            "kernel": self.kernel,
            "block_size": self.block_size,
            "executor": self.executor,
            "workers": self.workers,
        }


#: what ``svd()`` does when asked for nothing: scalar reference kernel
#: under the paper's fat-tree ordering
DEFAULT_CANDIDATE = Candidate()


def _block_sizes(n: int, pow2_blocks: bool) -> list[int]:
    """Divisor block sizes keeping >= 8 schedule slots, largest first.

    ``pow2_blocks`` additionally requires a power-of-two block count
    (tree-ordering admissibility without padding).
    """
    sizes = []
    for b in (32, 16, 8, 4, 2):
        if n % b or n // b < 8:
            continue
        if pow2_blocks and not is_power_of_two(n // b):
            continue
        sizes.append(b)
    return sizes


def candidate_space(m: int, n: int, batch: int | None = None, *,
                    quick: bool = False) -> tuple[Candidate, ...]:
    """Admissible candidates for one target shape, default first.

    The structure (not a grid):

    * the default configuration (always, so the search prices it);
    * scalar ``batched`` under fat-tree and ring orderings (the scalar
      ``reference`` kernel beyond the default only at small ``n`` — it
      is strictly dominated and would waste most of round one);
    * the BLAS-3 ``gram`` kernel at every admissible divisor block size
      (>= 8 slots), fat-tree ordering when the block count is a power of
      two, ring ordering otherwise, plus one block-``batched`` variant;
    * one threads variant of the best-blocked gram candidate
      (``workers=2``, the determinism-safe floor).

    ``quick=True`` keeps only one candidate per axis (default, scalar
    batched, serial gram, threaded gram) — the CI smoke space.
    """
    require(m >= n >= 2, f"need m >= n >= 2, got m={m}, n={n}")

    out: list[Candidate] = [DEFAULT_CANDIDATE]

    def add(c: Candidate) -> None:
        if c not in out:
            out.append(c)

    blocks = _block_sizes(n, pow2_blocks=False)
    best_b = blocks[0] if blocks else None

    def block_ordering(b: int) -> str:
        return "fat_tree" if is_power_of_two(n // b) else "ring_new"

    if quick:
        add(Candidate(kernel="batched", ordering="ring_new"))
        if best_b is not None:
            add(Candidate(kernel="gram", block_size=best_b,
                          ordering=block_ordering(best_b)))
            add(Candidate(kernel="gram", block_size=best_b,
                          ordering=block_ordering(best_b),
                          executor="threads", workers=2))
        return tuple(out)

    for ordering in ("fat_tree", "ring_new"):
        add(Candidate(kernel="batched", ordering=ordering))
    if n <= 64:
        add(Candidate(kernel="reference", ordering="ring_new"))
    for b in blocks:
        add(Candidate(kernel="gram", block_size=b,
                      ordering=block_ordering(b)))
    if best_b is not None:
        add(Candidate(kernel="batched", block_size=best_b,
                      ordering=block_ordering(best_b)))
        add(Candidate(kernel="gram", block_size=best_b,
                      ordering=block_ordering(best_b),
                      executor="threads", workers=2))
    _ = batch  # the space is shape-driven; batch only changes the timer
    return tuple(out)
