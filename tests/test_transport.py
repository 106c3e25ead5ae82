import math

import numpy as np
import pytest

from tetranacci.chain import ChainParams, build_chain_matrix, coeffs_from_energy
from tetranacci.errors import SingularBoundaryError
from tetranacci.transport import (LeadParams, TransportSetup, conductance,
                                  current, fermi, green_1n_dense,
                                  green_1n_tetranacci, sigma_sequence,
                                  transmission, transmission_dense)

from band_oracle import chain_eigh


def default_setup(n=5, gamma=0.5):
    chain = ChainParams(mu=0.3, t1=1.0, t2=0.8, n=n)
    return TransportSetup(chain, LeadParams(gamma), LeadParams(gamma))


def test_lead_self_energy():
    lead = LeadParams(gamma=0.4, lam=0.1)
    assert lead.self_energy == 0.1 - 0.4j


def test_lead_rejects_negative_gamma():
    with pytest.raises(ValueError):
        LeadParams(gamma=-1.0)


@pytest.mark.parametrize("make", [
    lambda: ChainParams(mu=0.3j, t1=1.0, t2=0.8, n=5),
    lambda: ChainParams(mu=0.3, t1=1.0, t2=complex(0.8), n=5),
    lambda: LeadParams(gamma=0.5 + 0j),
    lambda: LeadParams(gamma=0.5, lam=0.1j),
])
def test_parameters_reject_non_real(make):
    # the exact boundary solve replays real recursion coefficients
    with pytest.raises(ValueError):
        make()


def test_green_matches_dense_reference_point():
    s = default_setup()
    e = 0.1
    gt = green_1n_tetranacci(e, s)
    gd = green_1n_dense(e, s)
    assert abs(gt - gd) <= 1e-9 * abs(gd)


def test_dense_references_at_subnormal_energy():
    # t1 = 0 leaves site 2 decoupled, its row holding only the subnormal E;
    # an unscaled solve overflows the reciprocal pivot and returns nan
    s = TransportSetup(ChainParams(mu=0.0, t1=0.0, t2=1.0, n=3),
                       LeadParams(0.5), LeadParams(0.5))
    e = 2.2e-313
    gt = green_1n_tetranacci(e, s)
    gd = green_1n_dense(e, s)
    assert abs(gt - gd) <= 1e-9 * abs(gd)
    assert abs(transmission_dense(e, s) - transmission(e, s)) <= 1e-12
    # a last row holding only E = 1e-310 scales by 2^1030, past the doubles
    s = TransportSetup(ChainParams(mu=0.0, t1=0.0, t2=1.0, n=2),
                       LeadParams(0.5), LeadParams(0.0))
    assert green_1n_dense(1e-310, s) == 0
    assert transmission_dense(1e-310, s) == 0


def test_green_decoupled_leads_is_isolated_resolvent():
    chain = ChainParams(mu=0.2, t1=0.7, t2=1.1, n=6)
    s = TransportSetup(chain, LeadParams(0.0), LeadParams(0.0))
    e = 0.37  # not an eigenvalue
    gt = green_1n_tetranacci(e, s)
    a = e * np.eye(chain.n, dtype=complex) - build_chain_matrix(chain)
    gd = np.linalg.inv(a)[0, -1]
    assert abs(gt - gd) <= 1e-9 * abs(gd)


def test_green_singular_at_decoupled_eigenvalue():
    chain = ChainParams(mu=0.0, t1=0.0, t2=1.0, n=4)
    s = TransportSetup(chain, LeadParams(0.0), LeadParams(0.0))
    w = chain_eigh(chain)[0]
    with pytest.raises(SingularBoundaryError):
        green_1n_tetranacci(float(w[0]), s)


def test_green_overflowing_pole_is_singular():
    # t1 = 2.2e-311 barely couples the two sublattices, so at E = 0 the
    # solution diverges past the largest double instead of past 1e12
    chain = ChainParams(mu=0.0, t1=2.225073858507e-311, t2=1.0, n=3)
    s = TransportSetup(chain, LeadParams(1.0), LeadParams(1.0))
    with pytest.raises(SingularBoundaryError):
        green_1n_tetranacci(0.0, s)


def test_sigma_boundary_conditions():
    s = default_setup()
    e = 0.25
    chain = s.chain
    sig = sigma_sequence(e, s, -1, chain.n + 2)

    def at(j):
        return sig[j + 1]

    t2 = chain.t2
    scale = max(abs(x) for x in sig)
    # homogeneous conditions sigma_0 = sigma_{N+1} = 0
    assert abs(at(0)) <= 1e-9 * scale
    assert abs(at(chain.n + 1)) <= 1e-9 * scale
    # left lead condition
    wl = 1j * s.left.gamma - s.left.lam
    assert abs(wl * at(1) - t2 * at(-1)) <= 1e-9 * scale
    # right lead condition carries the inhomogeneous unit source
    wr = 1j * s.right.gamma - s.right.lam
    assert abs(wr * at(chain.n) - t2 * at(chain.n + 2) - 1.0) <= 1e-9 * scale


def test_sigma_sequence_obeys_recursion_at_negative_indices():
    # T_-2 at negative indices comes from its odd symmetry; sigma must still
    # obey the four-term recursion there, and sigma_1 is G_1N bit for bit
    s = default_setup(n=7)
    e = 0.25
    c = coeffs_from_energy(e, s.chain)
    lo = -6
    sig = sigma_sequence(e, s, lo, s.chain.n + 2)

    def at(j):
        return sig[j - lo]

    scale = max(abs(x) for x in sig)
    for j in range(lo + 2, s.chain.n + 1):
        want = c.zeta * at(j) - at(j - 2) + c.eta * (at(j + 1) + at(j - 1))
        assert abs(at(j + 2) - want) <= 1e-9 * scale
    assert at(1) == green_1n_tetranacci(e, s)


def test_green_equals_dense_over_grid():
    rng = np.random.default_rng(0)
    for _ in range(8):
        n = int(rng.integers(3, 31))
        chain = ChainParams(mu=rng.normal(), t1=rng.normal(),
                            t2=rng.normal() + math.copysign(0.5, rng.normal()),
                            n=n)
        s = TransportSetup(chain,
                           LeadParams(abs(rng.normal()) + 0.1, 0.2 * rng.normal()),
                           LeadParams(abs(rng.normal()) + 0.1, 0.2 * rng.normal()))
        for e in np.linspace(-4, 4, 25):
            gt = green_1n_tetranacci(float(e), s)
            gd = green_1n_dense(float(e), s)
            assert abs(gt - gd) <= 1e-8 * max(abs(gd), 1e-30)


def test_advanced_is_conjugate_of_retarded():
    s = default_setup()
    for e in (-1.0, 0.0, 0.6):
        a = e * np.eye(s.chain.n, dtype=complex) - build_chain_matrix(s.chain)
        a[0, 0] -= s.left.self_energy
        a[-1, -1] -= s.right.self_energy
        gr = np.linalg.inv(a)
        ga = np.linalg.inv(a.conj().T)
        assert np.abs(ga - gr.conj().T).max() < 1e-10


def test_transmission_zero_without_left_coupling():
    chain = ChainParams(mu=0.3, t1=1.0, t2=0.8, n=5)
    s = TransportSetup(chain, LeadParams(0.0), LeadParams(0.5))
    assert transmission(0.1, s) == 0.0


def test_transmission_matches_dense_trace():
    s = default_setup(n=10)
    for e in np.linspace(-3, 3, 200):
        t_fast = transmission(float(e), s)
        t_dense = transmission_dense(float(e), s)
        assert abs(t_fast - t_dense) <= 1e-8
        assert -1e-12 <= t_fast <= 1.0 + 1e-9


def test_transmission_resonance_near_unity():
    chain = ChainParams(mu=0.0, t1=1.0, t2=0.4, n=3)
    s = TransportSetup(chain, LeadParams(0.4), LeadParams(0.4))
    peak = max(transmission(float(e), s) for e in np.linspace(-3, 3, 1501))
    assert peak > 0.9


def test_fermi_limits():
    assert fermi(-1.0, math.inf) == 1.0
    assert fermi(1.0, math.inf) == 0.0
    assert fermi(0.0, math.inf) == 0.5
    assert abs(fermi(0.0, 10.0) - 0.5) < 1e-14
    assert fermi(1000.0, 1.0) == 0.0


def test_current_zero_bias():
    assert current(0.0, math.inf, default_setup()) == 0.0


def test_current_zero_temperature_is_window_integral():
    from scipy import integrate
    s = default_setup()
    v = 0.8
    want, _ = integrate.quad(lambda x: transmission(x, s), -v, 0.0,
                             epsabs=1e-10, epsrel=1e-10, limit=200)
    got = current(v, math.inf, s)
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_current_small_bias_linear_response():
    s = default_setup()
    v = 1e-6
    got = current(v, math.inf, s)
    assert abs(got - conductance(s) * v) <= 1e-4 * abs(got)


def test_current_finite_temperature_approaches_zero_t():
    s = default_setup()
    v = 0.5
    cold = current(v, 5000.0, s)
    zero = current(v, math.inf, s)
    assert abs(cold - zero) < 1e-2 * max(abs(zero), 1e-12)


def test_conductance_values():
    chain = ChainParams(mu=0.3, t1=1.0, t2=0.8, n=5)
    off = TransportSetup(chain, LeadParams(0.0), LeadParams(0.5))
    assert conductance(off) == 0.0
    s = default_setup()
    assert abs(conductance(s) - transmission(0.0, s)) == 0.0
