"""Reference eigensolve of the open chain for the tests.

The package eigensolves the dense matrix of `build_chain_matrix` with
`numpy.linalg.eigh`.  This oracle shares neither the builder nor the LAPACK
driver: it fills the (3, N) lower band straight from (mu, t1, t2) and calls
`scipy.linalg.eig_banded`.
"""

import numpy as np
from scipy.linalg import eig_banded


def chain_eigh(p):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of the
    chain Hamiltonian of p."""
    n = p.n
    band = np.zeros((3, n))
    band[0] = -p.mu
    band[1, :n - 1] = -p.t1
    band[2, :max(n - 2, 0)] = -p.t2
    # a bandwidth above N - 1 is an illegal argument to LAPACK's rescaling
    # of tiny matrices, which then returns wrong eigenvalues
    return eig_banded(band[:n], lower=True)

