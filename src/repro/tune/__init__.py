"""Empirical configuration autotuner (``repro-harness tune``).

With three kernels, seven orderings, two executors and free block
sizes, the fastest configuration for a given
``(m, n, batch)`` is an empirical question — the tiled/blocked Jacobi
literature (PAPERS.md) answers it with exactly this kind of parameter
search.  The subsystem has three layers:

:mod:`~repro.tune.space`
    The structured candidate enumeration for one target shape.
:mod:`~repro.tune.runner`
    Successive-halving elimination over the candidates with the bench
    harness' median-of-k timing; deterministic given a timer, which is
    injectable for tests.
:mod:`~repro.tune.profile`
    Schema-versioned persistence (``PROFILE_<host>.json``) and the
    nearest-shape lookup that lets ``svd(profile=...)`` /
    ``$REPRO_PROFILE`` fill unset options from a tuned profile.
"""

from .profile import (SCHEMA, default_host, load_profile, lookup_entry,
                      profile_entry, profile_options, profile_path,
                      save_profile, validate_profile)
from .runner import Trial, TuneResult, default_timer, tune
from .space import Candidate, DEFAULT_CANDIDATE, candidate_space

__all__ = [
    "Candidate",
    "DEFAULT_CANDIDATE",
    "SCHEMA",
    "Trial",
    "TuneResult",
    "candidate_space",
    "default_host",
    "default_timer",
    "load_profile",
    "lookup_entry",
    "profile_entry",
    "profile_options",
    "profile_path",
    "save_profile",
    "tune",
    "validate_profile",
]
