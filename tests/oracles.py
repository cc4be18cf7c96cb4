"""Reference implementations that the vectorized library code is tested against.

These are the straightforward loops the library used before it was
vectorized; they are slow but their arithmetic is easy to audit.
"""

import numpy as np

from morsekit import Crossing, QuadratureConfig, level_key


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


def crossing_report_pairs(k, epsilon, tol):
    """crossing_report over every one of the L(L-1)/2 key pairs at once."""
    keys = sorted({level_key(k, n, m) for n in range(k + 1) for m in range(k + 1)})
    a = np.array([key.a for key in keys], dtype=float)
    b = np.array([key.b for key in keys], dtype=float)
    ii, jj = np.triu_indices(len(keys), 1)
    da = a[ii] - a[jj]
    db = b[ii] - b[jj]
    hit = np.abs(da + 2.0 * epsilon * db) < 2.0 * tol * np.abs(db)
    out = []
    for idx in np.nonzero(hit)[0]:
        key_i, key_j = sorted((keys[ii[idx]], keys[jj[idx]]))
        out.append(Crossing(key_i, key_j, float(-da[idx] / (2.0 * db[idx]))))
    out.sort(key=lambda c: (c.epsilon_cross, c.key_i, c.key_j))
    return out
