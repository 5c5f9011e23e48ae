"""Symmetric eigenproblems under the same parallel orderings (Brent-Luk [2])."""

from .jacobi import (
    EigOptions,
    EigResult,
    gram_eigh_grouped,
    jacobi_eigh,
    symmetric_off_norm,
)

__all__ = ["EigOptions", "EigResult", "gram_eigh_grouped", "jacobi_eigh",
           "symmetric_off_norm"]
