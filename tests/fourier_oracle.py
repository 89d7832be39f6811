"""Closed-form blocks of the two-stage d2 step for unit-speed advection.

A reference written out by hand, independent of both the solver and
stability.assemble_matrices, which reads its blocks from the solver.
"""

import numpy as np


def printed_d2_blocks(ops, sigma):
    """Closed-form stage matrices A_k, with C_k = -sigma^|k| A_k for k != 0
    and C_0 = I - sigma A_0.

    The zero-block coefficient sign is fixed so constants are preserved;
    the printed form carries the opposite sign, which fails that check.
    """
    eye = np.eye(ops.degree + 1)
    t1 = eye - sigma / 4 * ops.D
    t2 = eye - sigma / 6 * ops.D
    t2s = -sigma / 3 * ops.D
    blvr = np.outer(ops.bL, ops.VR)
    cell = ops.D - np.outer(ops.bL, ops.VL)
    a1_m1 = 0.5 * blvr @ t1
    a1_0 = 0.5 * cell @ t1
    mix = t2 + t2s @ (eye - sigma * a1_0)
    return {
        -2: -blvr @ t2s @ a1_m1,
        -1: blvr @ mix - sigma * cell @ t2s @ a1_m1,
        0: cell @ mix,
        1: np.zeros_like(eye),
        2: np.zeros_like(eye),
    }


def printed_d2_symbol(ops, sigma, kappa):
    """H(sigma, kappa) = sum_k C_k e^{i kappa k} of the closed-form blocks."""
    a = printed_d2_blocks(ops, sigma)
    c = {k: -sigma ** abs(k) * m for k, m in a.items()}
    c[0] = np.eye(ops.degree + 1) - sigma * a[0]
    return sum(m * np.exp(1j * kappa * k) for k, m in c.items())
