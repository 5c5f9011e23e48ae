"""Block Jacobi SVD: blocks of columns per leaf (Bischof [1], Schreiber [14])."""

from .driver import BlockJacobiOptions, block_jacobi_svd, block_jacobi_svd_batch
from .kernel import BLOCK_KERNELS, solve_block_step, solve_block_step_batch

__all__ = ["BLOCK_KERNELS", "BlockJacobiOptions", "block_jacobi_svd",
           "block_jacobi_svd_batch", "solve_block_step",
           "solve_block_step_batch"]
