"""Reference implementations that the vectorized library code is tested against.

These are the straightforward loops the library used before it was
vectorized; they are slow but their arithmetic is easy to audit.
"""

import numpy as np

from morsekit import QuadratureConfig


def gram_matrix_loop(basis, states, quad=None):
    """<s_i | s_j> as one vdot of C_i against S C_j S^T per state pair."""
    quad = quad or QuadratureConfig()
    dim = basis.k + 1
    s = basis.mode_tables(quad.refined()).overlap_1d
    mats = [state.coefficient_matrix(dim) for state in states]
    transformed = [s @ c @ s.T for c in mats]
    g = np.empty((len(mats), len(mats)), dtype=complex)
    for i, ci in enumerate(mats):
        for j, tj in enumerate(transformed):
            g[i, j] = np.vdot(ci, tj)
    return g


def coherent_coefficient_matrix_sum(state, dim):
    """sum_n c_n C(mu_n) as one dense (dim x dim) term per level."""
    c = np.zeros((dim, dim), dtype=complex)
    for weight, level_state in zip(state.coefficients, state.basis.states):
        c += weight * level_state.coefficient_matrix(dim)
    return c
