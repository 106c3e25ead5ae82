"""Linear-algebra kernels: the banded eigensolve, eigenvalue clustering and
the subspace-angle helper that the chain tests use."""

import numpy as np

from tetranacci.chain import cluster_eigenvalues, eigh_pentadiagonal

from test_chain import subspace_angle


def test_subspace_angle_zero_for_same_span():
    rng = np.random.default_rng(4)
    u = rng.normal(size=(6, 2))
    mix = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    # arccos near 1 resolves angles only down to sqrt(machine eps)
    assert subspace_angle(u, u @ mix) < 1e-7


def test_identity_eigen():
    w, v = eigh_pentadiagonal(np.ones(3), 0.0, 0.0)
    assert np.allclose(w, [1, 1, 1])
    assert np.allclose(v.T @ v, np.eye(3))


def test_diagonal_eigen_sorted():
    w, _ = eigh_pentadiagonal(np.array([2.0, -1.0]), 0.0, 0.0)
    assert np.allclose(w, [-1.0, 2.0])


def test_chain_matrix_eigen_t1_zero():
    w, _ = eigh_pentadiagonal(np.zeros(4), 0.0, -1.0)
    assert np.allclose(w, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)


def test_random_eigen_residuals():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 20, 100):
        diag, off1 = rng.normal(size=n), rng.normal(size=n - 1)
        off2 = rng.normal(size=max(n - 2, 0))
        m = np.diag(diag) + np.diag(off1, 1) + np.diag(off1, -1)
        if n > 2:
            m += np.diag(off2, 2) + np.diag(off2, -2)
        w, v = eigh_pentadiagonal(diag, off1, off2)
        scale = np.abs(m).max()
        assert np.abs(m @ v - v * w).max() <= 1e-10 * scale * n
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10 * n
        assert np.all(np.diff(w) >= 0)


def test_eigen_tiny_entries_small_n():
    # LAPACK rescales a matrix this small in norm; N = 1, 2 need a narrower band
    w, _ = eigh_pentadiagonal(np.array([-1e-300, -1e-300]), 1e-300, 1e-300)
    assert np.allclose(w / 1e-300, [-2.0, 0.0], atol=1e-12)
    w, v = eigh_pentadiagonal(np.array([3e-300]), 0.0, 0.0)
    assert w[0] == 3e-300 and v[0, 0] ** 2 == 1.0


def test_cluster_grouping():
    w = np.array([0.0, 1e-12, 1.0, 2.0, 2.0 + 1e-12])
    groups = cluster_eigenvalues(w, 1e-8)
    assert [list(g) for g in groups] == [[0, 1], [2], [3, 4]]
