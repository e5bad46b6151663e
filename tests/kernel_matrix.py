"""One round as a dense matrix, read off the package's round kernel.

Unlike ``oracles``, this runs the kernel itself: column ``j`` of the matrix
is the kernel's image of ``e_j`` with fresh resets attached.
"""

import numpy as np

from coolsign.refrigerator import build_uqr
from coolsign.verify import _round_rows


def round_matrix(n, m, alpha, permutation=None):
    """Column-stochastic matrix of one round on the non-reset vector: the
    round kernel run on the identity, transposed.  An array of
    polarizations gives a stack of matrices, one per entry."""
    perm = permutation if permutation is not None else build_uqr(n)
    return np.swapaxes(_round_rows(n, m, alpha, perm), -1, -2).copy()
