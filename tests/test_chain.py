import dataclasses
import math

import numpy as np
import pytest

from tetranacci.chain import (Arrow, ChainParams, _branch_residuals,
                              arrow_classify, build_chain_matrix,
                              coeffs_from_energy, crossings, dispersion,
                              eigenvector_tetranacci, spectrum)
from tetranacci.closedform import characterize, standing_wave
from tetranacci.errors import PreconditionError, ZeroT2Error
from tetranacci.exactnum import tm2_replay, tm2_scale

from band_oracle import chain_eigh, t1_zero_spectrum


def random_chain(rng, n):
    t2 = 0.0
    while abs(t2) < 0.1:
        t2 = rng.normal()
    return ChainParams(mu=rng.normal(), t1=rng.normal(), t2=t2, n=n)


def subspace_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Largest principal angle (radians) between the column spans of u, v."""
    qu, _ = np.linalg.qr(u)
    qv, _ = np.linalg.qr(v)
    sv = np.linalg.svd(qu.T.conj() @ qv, compute_uv=False)
    sv = np.clip(sv, -1.0, 1.0)
    return float(np.arccos(sv.min()))


def test_subspace_angle_zero_for_same_span():
    rng = np.random.default_rng(4)
    u = rng.normal(size=(6, 2))
    mix = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    # arccos near 1 resolves angles only down to sqrt(machine eps)
    assert subspace_angle(u, u @ mix) < 1e-7


# --- matrix / dispersion ----------------------------------------------------

def test_build_chain_matrix_pattern():
    h = build_chain_matrix(ChainParams(mu=1.0, t1=2.0, t2=3.0, n=3))
    assert np.array_equal(h, [[-1, -2, -3], [-2, -1, -2], [-3, -2, -1]])
    # an integer mu must not make the matrix integer and truncate t2
    h = build_chain_matrix(ChainParams(mu=0, t1=1, t2=0.5, n=3))
    assert np.array_equal(h, [[0, -1, -0.5], [-1, 0, -1], [-0.5, -1, 0]])


def test_build_chain_matrix_single_site():
    assert np.array_equal(build_chain_matrix(ChainParams(0.5, 1, 1, 1)), [[-0.5]])


def test_build_chain_matrix_tridiagonal_when_t2_zero():
    h = build_chain_matrix(ChainParams(mu=0.0, t1=1.0, t2=0.0, n=5))
    assert np.count_nonzero(np.diag(h, 2)) == 0


def test_dispersion_values():
    p = ChainParams(mu=0.5, t1=1.0, t2=2.0, n=4)
    assert abs(dispersion(0.0, p) - (-0.5 - 2.0 - 4.0)) < 1e-14
    p0 = ChainParams(mu=0.0, t1=1.0, t2=2.0, n=4)
    assert abs(dispersion(math.pi / 2.0, p0) - 2.0 * p0.t2) < 1e-12
    pn = ChainParams(mu=0.0, t1=0.0, t2=1.0, n=4)
    # quantized mode n = 1 of the N = 4 chain: 2kd = 2 pi / 6
    assert abs(dispersion(math.pi / 6.0, pn) - (-1.0)) < 1e-12


def test_coeffs_from_energy():
    p = ChainParams(mu=0.3, t1=1.0, t2=-0.5, n=4)
    c = coeffs_from_energy(-p.mu, p)
    assert c.zeta == 0.0
    c2 = coeffs_from_energy(1.0, ChainParams(mu=0.0, t1=1.0, t2=-0.5, n=4))
    assert c2.zeta == 2.0 and c2.eta == 2.0


def test_coeffs_from_energy_rejects_zero_t2():
    with pytest.raises(ZeroT2Error):
        coeffs_from_energy(0.0, ChainParams(0, 1, 0, 4))
    # t2 = 1e-320 is not zero, but eta = -t1/t2 overflows a double
    with pytest.raises(ZeroT2Error):
        coeffs_from_energy(0.0, ChainParams(0, 1, 1e-320, 4))


def test_wavevectors_t1_zero_relation():
    p = ChainParams(mu=0.0, t1=0.0, t2=1.0, n=8)
    for e in (-0.8, 0.3, 1.4):
        cd = characterize(coeffs_from_energy(e, p))
        k1, k2 = cd.theta1, cd.theta2
        assert abs((k1 + k2).real - math.pi) < 1e-9
        # both wavevectors reproduce the energy
        assert abs(dispersion(k1, p) - e) < 1e-9
        assert abs(dispersion(k2, p) - e) < 1e-9


# --- quantization -----------------------------------------------------------

def test_quantization_zero_at_crossing_pair():
    n = 10
    k1 = (3 * math.pi / (n + 2)) + (1 * math.pi / (n + 2))
    k2 = (3 * math.pi / (n + 2)) - (1 * math.pi / (n + 2))
    assert min(_branch_residuals(k1, k2, n).values()) < 1e-12


def test_quantization_generic_pair_large_residual():
    assert min(_branch_residuals(0.913, 0.311, 10).values()) > 1e-3


def test_quantization_removable_singularity():
    # k_- = 0: f(k-) takes its limit N + 2 = 12, against f(k+) = sin(12)/sin(1),
    # so the residual is |sin(12)/sin(1) + 12| / 12 = 0.9469 with s_q = -1
    res = _branch_residuals(1.0, 1.0, 10)
    assert min(res, key=res.get) == -1
    assert abs(res[-1] - abs(math.sin(12.0) / math.sin(1.0) + 12.0) / 12.0) < 1e-12


def test_quantization_residual_from_dense_modes():
    p = ChainParams(mu=0.2, t1=1.0, t2=0.7, n=10)
    for m in spectrum(p):
        assert m.quant_residual < 1e-6


@pytest.mark.parametrize("p", [ChainParams(0.0, -5.0, 1.0, 800),
                               ChainParams(0.0, 1.0, 0.5, 1100)])
def test_spectrum_long_chain_fields_finite(p):
    # modes with (N + 2) |Im k+-| > 709, where sin((N + 2) k+-) leaves the
    # doubles: the residual scales both waves alike and stays finite
    modes = spectrum(p)
    assert len(modes) == p.n
    for m in modes:
        assert np.isfinite([m.e, m.k1, m.k2, m.k_plus, m.k_minus]).all()
        assert np.isfinite(m.vector).all() and m.s_q * m.lambda_i == -1
        assert m.quant_residual < 1e-6


@pytest.mark.parametrize("p", [ChainParams(0.0, -5.0, 1.0, 40), ChainParams(0.0, -5.0, 1.0, 700),
                               ChainParams(0.0, 1.0, 0.5, 1000), ChainParams(0.3, 0.8, -1.1, 17)])
def test_scaled_residuals_equal_unscaled(p):
    # the residuals with the waves themselves, wherever those are finite
    cd = characterize(coeffs_from_energy(np.array([m.e for m in spectrum(p)]), p))
    fp = standing_wave(p.n + 2, (cd.theta1 + cd.theta2) / 2.0)
    fm = standing_wave(p.n + 2, (cd.theta1 - cd.theta2) / 2.0)
    scale = np.maximum(np.maximum(np.abs(fp), np.abs(fm)), 1.0)
    got = _branch_residuals(cd.theta1, cd.theta2, p.n)
    assert np.abs(got[1] - np.abs(fp - fm) / scale).max() <= 1e-12
    assert np.abs(got[-1] - np.abs(fp + fm) / scale).max() <= 1e-12


# --- spectra ----------------------------------------------------------------

def test_spectrum_t1_zero_n4():
    p = ChainParams(mu=0.0, t1=0.0, t2=1.0, n=4)
    energies = [m.e for m in spectrum(p)]
    assert np.allclose(energies, [-1, -1, 1, 1], atol=1e-10)


def test_spectrum_tiny_entries_small_n():
    # a matrix this small in norm is rescaled inside LAPACK
    e = [m.e for m in spectrum(ChainParams(mu=1e-300, t1=-1e-300, t2=-1e-300, n=2))]
    assert np.allclose(np.array(e) / 1e-300, [-2.0, 0.0], atol=1e-12)
    (mode,) = spectrum(ChainParams(mu=-3e-300, t1=-1e-300, t2=-1e-300, n=1))
    assert mode.e == 3e-300 and mode.vector[0] ** 2 == 1.0


def test_t1_zero_spectrum_n3():
    got = t1_zero_spectrum(ChainParams(mu=0.0, t1=0.0, t2=1.0, n=3))
    assert np.allclose(got, [-1.0, 0.0, 1.0], atol=1e-12)


def test_t1_zero_spectrum_mu_shift():
    base = t1_zero_spectrum(ChainParams(mu=0.0, t1=0.0, t2=1.0, n=7))
    shifted = t1_zero_spectrum(ChainParams(mu=0.4, t1=0.0, t2=1.0, n=7))
    assert np.allclose(np.array(shifted) + 0.4, base, atol=1e-12)


def test_t1_zero_spectrum_matches_dense():
    for n in (4, 5, 8, 9):
        p = ChainParams(mu=0.1, t1=0.0, t2=-1.3, n=n)
        w = chain_eigh(p)[0]
        assert np.allclose(t1_zero_spectrum(p), w, atol=1e-10)


def test_spectrum_n21_no_degeneracy_at_eta_zero():
    p = ChainParams(mu=0.0, t1=0.0, t2=1.0, n=21)
    e = np.array([m.e for m in spectrum(p)])
    assert np.diff(e).min() > 1e-6


def test_spectrum_complex_wavevector_beyond_arrow():
    p = ChainParams(mu=0.0, t1=6.0, t2=1.0, n=40)
    modes = spectrum(p)
    assert any(m.arrow is Arrow.OUTSIDE for m in modes)
    assert any(abs(m.k1.imag) > 1e-4 or abs(m.k2.imag) > 1e-4 for m in modes)


def test_spectrum_equal_energy_constraint():
    rng = np.random.default_rng(0)
    p = random_chain(rng, 12)
    scale = max(abs(m.e) for m in spectrum(p))
    for m in spectrum(p):
        assert abs(dispersion(m.k1, p) - m.e) <= 1e-8 * max(1.0, scale)
        assert abs(dispersion(m.k2, p) - m.e) <= 1e-8 * max(1.0, scale)
        lhs = np.cos(complex(m.k1)) + np.cos(complex(m.k2))
        assert abs(lhs - (-p.t1 / (2.0 * p.t2))) <= 1e-8


def test_spectrum_parity_and_branch():
    rng = np.random.default_rng(1)
    for _ in range(5):
        p = random_chain(rng, int(rng.integers(2, 14)))
        for m in spectrum(p):
            flipped = m.vector[::-1]
            dev = np.abs(flipped - m.lambda_i * m.vector).max()
            assert dev <= 1e-8 * max(1.0, np.abs(m.vector).max())
            assert m.s_q * m.lambda_i == -1


def test_quant_residual_is_the_chosen_branch():
    # eta = 0 at N = 40: twenty degenerate pairs, whose residual is the one
    # computed for s_q like every other mode's
    p = ChainParams(mu=0.0, t1=0.0, t2=1.0, n=40)
    for m in spectrum(p):
        assert m.quant_residual == _branch_residuals(m.k1, m.k2, p.n)[m.s_q]


def test_spectrum_t2_to_zero_continuity():
    t1 = 1.0
    p = ChainParams(mu=0.2, t1=t1, t2=1e-3 * t1, n=9)
    got = [m.e for m in spectrum(p)]
    want = sorted(-p.mu - 2.0 * t1 * math.cos(n * math.pi / (p.n + 1))
                  for n in range(1, p.n + 1))
    assert np.abs(np.array(got) - want).max() <= 1e-2 * abs(t1)


@pytest.mark.parametrize("mu, t1", [(0.0, 1.0), (0.3, -0.7)])
def test_spectrum_t2_zero_nearest_neighbour_wavevector(mu, t1):
    # the N = 7 nearest-neighbour chain: E_q = -mu - 2 t1 cos(q pi / 8)
    p = ChainParams(mu=mu, t1=t1, t2=0.0, n=7)
    modes = spectrum(p)
    k1 = sorted(m.k1.real for m in modes)
    assert np.abs(np.array(k1) - np.arange(1, 8) * math.pi / 8).max() <= 1e-12
    for m in modes:
        assert m.k1.imag == 0.0 and abs(dispersion(m.k1, p) - m.e) <= 1e-12
        assert (m.k2, m.k_plus, m.k_minus, m.s_q, m.arrow, m.quant_residual) == (None,) * 6
    # at t1 = t2 = 0 the chain is diagonal: no wavevector
    assert all(m.k1 is None for m in spectrum(ChainParams(mu=mu, t1=0.0, t2=0.0, n=7)))


def test_spectrum_root_past_the_doubles_is_nearest_neighbour():
    # t2 / t1 = 1e-307: zeta, eta = -1e307 and every eigenvalue are finite,
    # but eta^2 in `characterize` is not, so the modes take the
    # nearest-neighbour fields, E_q = -2 t1 cos(q pi / 5) within its roundoff
    p = ChainParams(mu=0.0, t1=1e300, t2=1e-7, n=4)
    modes = spectrum(p)
    assert [m.k1.real for m in modes] == pytest.approx(np.arange(1, 5) * math.pi / 5, abs=1e-14)
    for m in modes:
        assert m.k1.imag == 0.0
        assert m.e == pytest.approx(-2e300 * math.cos(m.k1.real), rel=1e-14)
        assert (m.k2, m.k_plus, m.k_minus, m.s_q, m.arrow, m.quant_residual) == (None,) * 6


# --- crossings --------------------------------------------------------------

def test_crossing_counts():
    with pytest.raises(PreconditionError):
        crossings(1)
    assert len(crossings(2)) == 1
    assert len(crossings(3)) == 2
    for n in range(2, 22):
        want = n * n // 4 if n % 2 == 0 else (n * n - 1) // 4
        assert len(crossings(n)) == want


def test_crossing_records_are_degenerate():
    for rec in crossings(6):
        p = ChainParams(mu=0.0, t1=rec.t1_over_t2, t2=1.0, n=6)
        w = chain_eigh(p)[0]
        gaps = np.abs(w - rec.e)
        idx = np.argsort(gaps)
        assert gaps[idx[0]] < 1e-8 and gaps[idx[1]] < 1e-8


def test_crossing_record_geometry():
    n = 8
    for rec in crossings(n):
        # the positive-eta family satisfies k+- d = (n_idx, l_idx) pi/(N+2)
        assert 1 <= rec.l_idx < rec.n_idx <= (n + 2) // 2
        assert abs(rec.eta - 4.0 * math.cos(rec.k_plus) * math.cos(rec.k_minus)) < 1e-12


# --- eigenvectors -----------------------------------------------------------

def test_eigenvector_matches_dense():
    p = ChainParams(mu=0.0, t1=1.0, t2=3.0, n=5)
    w, v = chain_eigh(p)
    vec = eigenvector_tetranacci(float(w[0]), p)
    vec = vec / np.linalg.norm(vec)
    dense = v[:, 0]
    dev = min(np.abs(vec - dense).max(), np.abs(vec + dense).max())
    assert dev < 1e-7


def test_eigenvector_parity():
    p = ChainParams(mu=0.3, t1=0.8, t2=1.1, n=7)
    w = chain_eigh(p)[0]
    for e in w:
        vec = eigenvector_tetranacci(float(e), p)
        flipped = vec[::-1]
        same = np.abs(flipped - vec).max()
        opp = np.abs(flipped + vec).max()
        assert min(same, opp) <= 1e-7 * np.abs(vec).max()


@pytest.mark.parametrize("p, modes", [(ChainParams(0.0, -5.0, 1.0, 800), (0, 400, 799)),
                                      (ChainParams(0.0, 1.0, 0.5, 1000), (0, 1))])
def test_eigenvector_long_chain(p, modes):
    # modes with a complex wavevector, whose T_-2 values pass 1e308: the
    # closed form compares and combines them as ints, and only xi_j is rounded
    spec = spectrum(p)
    for i in modes:
        vec = eigenvector_tetranacci(spec[i].e, p)
        assert np.isfinite(vec).all()
        vec = vec / np.linalg.norm(vec)
        dense = spec[i].vector
        assert min(np.abs(vec - dense).max(), np.abs(vec + dense).max()) < 1e-7


def eigenvector_products(e, p):
    """The closed-form eigenvector as two products of replayed ints per entry:
    (tau(j) tau(N+2) - tau(N+1) tau(j+1)) / (tau(N+2) D^(N+4)), tau(i) =
    D^(N+4) T_-2(i), rounded once, with the package's degeneracy test."""
    c = coeffs_from_energy(e, p)
    top = p.n + 2
    k, (z, h) = tm2_scale(c.zeta, c.eta)
    y = tm2_replay(z, h, k, top)
    taus = [y[j + 2] << k * (top - j) for j in range(top + 1)]
    tn2, tn1 = taus[top], taus[top - 1]
    if abs(tn2) * 10 ** 10 <= max(map(abs, taus)):
        raise PreconditionError("degenerate")
    if tn2 < 0:
        tn2, tn1 = -tn2, -tn1
    out = np.empty(p.n)
    for j in range(1, p.n + 1):  # over 2^(k (top-j-1)), a factor of both terms
        s = k * (top - j - 1)
        out[j - 1] = ((taus[j] >> s) * tn2 - tn1 * (taus[j + 1] >> s)) / (tn2 << k * (j + 3))
    return out


def test_eigenvector_replay_equals_products():
    # every mode of one seeded chain per N = 3..60, every eighth with t1 = 0,
    # whose two sublattices give degenerate pairs: the replayed numerator has
    # the bits of the products, and both refuse the same modes
    rng = np.random.default_rng(5)
    modes = refused = 0
    for n in range(3, 61):
        p = random_chain(rng, n)
        if n % 8 == 0:
            p = dataclasses.replace(p, t1=0.0)
        for e in np.linalg.eigvalsh(build_chain_matrix(p)).tolist():
            modes += 1
            try:
                want = eigenvector_products(e, p)
            except PreconditionError:
                refused += 1
                with pytest.raises(PreconditionError):
                    eigenvector_tetranacci(e, p)
                continue
            assert eigenvector_tetranacci(e, p).tobytes() == want.tobytes()
    assert modes - refused >= 1385 and refused > 0


def test_eigenvector_refuses_crossings():
    # at a twofold eigenvalue T_-2(N+2) vanishes against the window's largest value
    for rec in crossings(6):
        with pytest.raises(PreconditionError, match="degenerate"):
            eigenvector_tetranacci(rec.e, ChainParams(mu=0.0, t1=rec.t1_over_t2, t2=1.0, n=6))


def test_eigenvector_boundary_extension():
    from tetranacci.closedform import characterize, t_minus2
    p = ChainParams(mu=0.1, t1=0.9, t2=1.4, n=6)
    w = chain_eigh(p)[0]
    e = float(w[2])
    cd = characterize(coeffs_from_energy(e, p))
    t = t_minus2(cd, -1, p.n + 3)  # t[j + 1] = T_-2(j)
    tn2, tn1 = t[p.n + 3], t[p.n + 2]
    scale = np.abs(t).max()
    for j in (-1, 0, p.n + 1, p.n + 2):
        xi = (t[j + 1] * tn2 - tn1 * t[j + 2]) / tn2
        assert abs(xi) <= 1e-8 * scale


def test_degenerate_pair_subspace():
    rec = crossings(6)[0]
    p = ChainParams(mu=0.0, t1=rec.t1_over_t2, t2=1.0, n=6)
    w, v = chain_eigh(p)
    idx = np.where(np.abs(w - rec.e) < 1e-8)[0]
    assert len(idx) == 2
    from tetranacci.closedform import characterize, t_minus2
    cd = characterize(coeffs_from_energy(rec.e, p))
    basis = np.array([t_minus2(cd, 1, 6).real, t_minus2(cd, 2, 7).real]).T
    assert subspace_angle(v[:, idx], basis) < 1e-6


# --- arrow ------------------------------------------------------------------

def test_arrow_tip_is_boundary():
    assert arrow_classify(2.0, 0.0) is Arrow.BOUNDARY


def test_arrow_origin_inside():
    assert arrow_classify(0.0, 0.0) is Arrow.INSIDE


def test_arrow_far_eta_outside():
    assert arrow_classify(0.0, 5.0) is Arrow.OUTSIDE


def test_arrow_agrees_with_wavevector_test():
    # a mode's arrow comes from its (zeta, eta); away from the bounding
    # curves it is INSIDE iff both of its own wavevectors are real, to 1e-7
    # in Im k, as theta = arccos(S/2) of an argument rounded just past +-1
    # picks up an imaginary part, e.g. acos(1 + 2^-52) = 2.1e-8 i
    rng = np.random.default_rng(2)
    p_base = dict(mu=0.0, t2=1.0, n=16)
    for _ in range(20):
        t1 = rng.uniform(-6.0, 6.0)
        p = ChainParams(t1=t1, **p_base)
        for m in spectrum(p):
            c = coeffs_from_energy(m.e, p)
            upper, lower = 2.0 - 2.0 * abs(c.eta), -2.0 - c.eta * c.eta / 4.0
            if abs(c.zeta - upper) <= 1e-6 or (
                    abs(c.eta) <= 4.0 + 1e-6 and abs(c.zeta - lower) <= 1e-6):
                continue
            real = abs(m.k1.imag) < 1e-7 and abs(m.k2.imag) < 1e-7
            assert (m.arrow is Arrow.INSIDE) == real


@pytest.mark.filterwarnings("error")
def test_arrow_classify_arrays_entry_by_entry():
    # points on both bounding curves, inside, outside and at +-1e308, where
    # the curves leave the doubles without a warning
    values = [-1e308, -6.0, -4.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0, 6.0, 1e308]
    zeta, eta = (g.ravel() for g in np.meshgrid(values, values))
    got = arrow_classify(zeta, eta)
    assert got.shape == zeta.shape
    assert got.tolist() == [arrow_classify(z, e) for z, e in zip(zeta.tolist(), eta.tolist())]
    assert set(got.tolist()) == set(Arrow)
    assert arrow_classify(0.0, 1e308) is Arrow.OUTSIDE
    assert arrow_classify(-6.0, 4.0) is Arrow.BOUNDARY

