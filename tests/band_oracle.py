"""Reference spectra for the tests, computed without the package's paths.

- `chain_eigh`: the package eigensolves the dense matrix of
  `build_chain_matrix` with `numpy.linalg.eigh`.  This oracle shares neither
  the builder nor the LAPACK driver: it fills the (3, N) lower band straight
  from (mu, t1, t2) and calls `scipy.linalg.eig_banded`.
- `t1_zero_spectrum`: the exact spectrum of the two decoupled sublattices
  at t1 = 0, each a nearest-neighbour chain with hopping t2, in closed form.
- `bdg_matrix` and `bdg_spectrum`: the Kitaev chain's 2N x 2N
  particle-hole matrix and its eigenvalues, against the package's
  singular values of the N x N Majorana matrix of `kitaev`.
- `effective_h_matrix`: the sublattice matrix h = A^T A from which `kitaev`
  derives its map onto the four-term recursion, built from the map's own
  hoppings, for the tests of that derivation.
"""

import math

import numpy as np
from scipy.linalg import eig_banded

from tetranacci.chain import pentadiagonal
from tetranacci.kitaev import kitaev_effective_hoppings


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


def t1_zero_spectrum(p):
    """Exact spectrum, ascending, of the chain p with p.t1 = 0: the odd and
    the even sites form open chains of ceil(N/2) and floor(N/2) sites."""
    n = p.n
    energies = []
    if n % 2 == 0:
        for m in range(1, n // 2 + 1):
            e = -p.mu - 2.0 * p.t2 * math.cos(2.0 * m * math.pi / (n + 2))
            energies.extend([e, e])
    else:
        for m in range(1, (n + 1) // 2 + 1):
            energies.append(-p.mu - 2.0 * p.t2 * math.cos(2.0 * m * math.pi / (n + 3)))
        for m in range(1, (n - 1) // 2 + 1):
            energies.append(-p.mu - 2.0 * p.t2 * math.cos(2.0 * m * math.pi / (n + 1)))
    return sorted(energies)


def bdg_matrix(p):
    """Particle-hole (2N x 2N) single-particle matrix of the Kitaev chain p."""
    n = p.n
    h0 = np.zeros((n, n))
    np.fill_diagonal(h0, -p.mu)
    d = np.zeros((n, n))
    for j in range(n - 1):
        h0[j, j + 1] = h0[j + 1, j] = -p.t
        d[j + 1, j] = p.delta
        d[j, j + 1] = -p.delta
    return np.block([[h0, d], [-d, -h0]])


def bdg_spectrum(p):
    """The 2N excitation energies, ascending, of the particle-hole matrix."""
    return [float(x) for x in np.linalg.eigvalsh(bdg_matrix(p))]


def effective_h_matrix(p):
    """Sublattice matrix h with h v = E^2 v, real symmetric pentadiagonal.

    With a = i(delta - t) and b = i(delta + t) all products entering h are
    real: -a^2 = (delta - t)^2, -b^2 = (delta + t)^2, i mu (a - b) =
    2 t mu, a b = t^2 - delta^2.  The first site misses the -b^2 term of
    the diagonal and the last site the -a^2 term.
    """
    dm, dp = p.delta - p.t, p.delta + p.t
    diag = np.full(p.n, p.mu * p.mu)
    diag[:-1] += dm * dm   # -a^2; a float product is inf past the doubles
    diag[1:] += dp * dp    # -b^2
    return pentadiagonal(diag, *kitaev_effective_hoppings(p))
