"""Name-based ordering registry used by the public API and the harness."""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from .base import Ordering
from .fattree import FatTreeOrdering
from .hybrid import HybridOrdering
from .llb import LLBOrdering
from .oddeven import OddEvenOrdering
from .ringnew import RingOrdering
from .roundrobin import RoundRobinOrdering

__all__ = ["ORDERINGS", "make_ordering", "ordering_names"]

#: name -> constructor; keyword arguments go straight to the constructor,
#: so one it does not take raises ``TypeError`` instead of being dropped
ORDERINGS: dict[str, Callable[..., Ordering]] = {
    "round_robin": RoundRobinOrdering,
    "odd_even": OddEvenOrdering,
    "ring_new": partial(RingOrdering, modified=False),
    "ring_modified": partial(RingOrdering, modified=True),
    "fat_tree": FatTreeOrdering,
    "llb": LLBOrdering,
    "hybrid": HybridOrdering,
}


def ordering_names() -> list[str]:
    """All registered ordering names."""
    return sorted(ORDERINGS)


def make_ordering(name: str, n: int, **kwargs: object) -> Ordering:
    """Instantiate an ordering by name for ``n`` columns.

    ``kwargs`` are forwarded to the ordering constructor (e.g.
    ``n_groups`` for ``hybrid``, ``skip_duplicate`` for ``llb``).
    """
    try:
        factory = ORDERINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown ordering {name!r}; available: {', '.join(ordering_names())}"
        ) from None
    return factory(n, **kwargs)
