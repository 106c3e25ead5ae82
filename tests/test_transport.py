import math
from fractions import Fraction

import numpy as np
import pytest

from tetranacci import transport
from tetranacci.chain import ChainParams, build_chain_matrix
from tetranacci.errors import SingularBoundaryError, ZeroT2Error
from tetranacci.transport import (LeadParams, TransportSetup, current, digamma,
                                  fermi, green_1n_dense, green_1n_tetranacci,
                                  transmission)

from dense_oracle import transmission_dense


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
    # E = -1 = -t2 is an eigenvalue of both sublattices (t1 = 0), at which
    # the boundary system is exactly singular
    with pytest.raises(SingularBoundaryError):
        green_1n_tetranacci(-1.0, s)


def test_dense_green_at_weightless_eigenvalue():
    # at t1 = 0 and N = 5 the even sites 2, 4 touch neither lead, and E = -1
    # is an eigenvalue of theirs: E - H - Sigma is exactly singular, yet the
    # odd sites 1, 3, 5, a nearest-neighbour chain with hopping t2, fix G_1N
    full = TransportSetup(ChainParams(mu=0.0, t1=0.0, t2=1.0, n=5),
                          LeadParams(0.5), LeadParams(0.5))
    odd = TransportSetup(ChainParams(mu=0.0, t1=1.0, t2=0.0, n=3),
                         LeadParams(0.5), LeadParams(0.5))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(-np.eye(5) - build_chain_matrix(full.chain), np.eye(5)[-1])
    want = green_1n_dense(-1.0, odd)
    assert abs(green_1n_dense(-1.0, full) - want) <= 1e-15 * abs(want)
    # with a lead decoupled the singular system is a true pole
    with pytest.raises(np.linalg.LinAlgError):
        green_1n_dense(-1.0, TransportSetup(full.chain, LeadParams(0.0), LeadParams(0.5)))


def _dense_one(e, s):
    """G_1N of `green_1n_dense` for one energy, one unstacked solve."""
    n = s.chain.n
    a = e * np.eye(n) - transport._h_eff(s)
    k = -np.frexp(np.abs(a).max(axis=1))[1]
    a.real = np.ldexp(a.real, k[:, None])
    a.imag = np.ldexp(a.imag, k[:, None])
    rhs = np.eye(n, dtype=complex)[-1]
    try:
        x1 = np.linalg.solve(a, rhs)[0]
    except np.linalg.LinAlgError:
        x1 = np.linalg.lstsq(a, rhs, rcond=None)[0][0]
    return complex(math.ldexp(x1.real, int(k[-1])), math.ldexp(x1.imag, int(k[-1])))


def _same_bits(got, want):
    return [(repr(z.real), repr(z.imag)) for z in got] == \
        [(repr(z.real), repr(z.imag)) for z in want]


@pytest.mark.parametrize("setup, energies", [
    (default_setup(), [-3.0, -0.4, 0.0, 0.1, 1.7, 2.9]),
    (default_setup(n=17, gamma=2.0), [-1.3, 0.25, 4.0]),
    # a row holding only the subnormal E, scaled by 2^1030 (see above)
    (TransportSetup(ChainParams(mu=0.0, t1=0.0, t2=1.0, n=3),
                    LeadParams(0.5), LeadParams(0.5)), [2.2e-313, 0.5, -2.2e-313]),
    # the weightless eigenvalue E = -1 makes the stack singular: least squares
    (TransportSetup(ChainParams(mu=0.0, t1=0.0, t2=1.0, n=5),
                    LeadParams(0.5), LeadParams(0.5)), [0.3, -1.0, 2.0, -1.0]),
])
def test_dense_green_array_equals_per_energy_calls(setup, energies):
    got = transport.green_1n_dense(np.array(energies), setup)
    assert got.dtype == complex and got.shape == (len(energies),)
    assert _same_bits(got.tolist(), [green_1n_dense(e, setup) for e in energies])
    assert _same_bits(got.tolist(), [_dense_one(e, setup) for e in energies])


def test_dense_green_array_with_decoupled_lead_at_pole_raises():
    s = TransportSetup(ChainParams(mu=0.0, t1=0.0, t2=1.0, n=5),
                       LeadParams(0.0), LeadParams(0.5))
    with pytest.raises(np.linalg.LinAlgError):
        green_1n_dense(np.array([0.3, -1.0]), s)
    assert green_1n_dense(np.array([0.3]), s)[0] == green_1n_dense(0.3, s)


def test_green_at_barely_coupled_sublattices():
    # t1 = 2.2e-311 barely couples the two sublattices, yet at E = 0 G_13 =
    # t1^2 / (t1^2 (2 t2 - 2 i gamma)) = (1 + i) / 4 for any t1 != 0
    chain = ChainParams(mu=0.0, t1=2.225073858507e-311, t2=1.0, n=3)
    s = TransportSetup(chain, LeadParams(1.0), LeadParams(1.0))
    assert green_1n_tetranacci(0.0, s) == 0.25 + 0.25j
    assert abs(transmission(0.0, s) - 0.5) <= math.ulp(0.5)


def test_weak_leads_stay_exact(monkeypatch):
    # N = 1 with both leads on its one site: G = 1 / (2 i gamma), |G| =
    # 5e169, and T = (2 gamma |G|)^2 = 1 from the boundary solve alone
    def refuse(e, s):
        raise AssertionError("dense solve called")

    monkeypatch.setattr(transport, "green_1n_dense", refuse)
    s = TransportSetup(ChainParams(mu=0.0, t1=1.0, t2=1.0, n=1),
                       LeadParams(1e-170), LeadParams(1e-170))
    assert transmission(0.0, s) == 1.0


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


def test_transmission_without_coefficient_map_is_dense():
    # at t2 = 0 the boundary solve has no coefficient map
    s = TransportSetup(ChainParams(mu=0.2, t1=1.0, t2=0.0, n=6),
                       LeadParams(0.5), LeadParams(0.3))
    with pytest.raises(ZeroT2Error):
        green_1n_tetranacci(0.4, s)
    assert transmission(0.4, s) == transmission_dense(0.4, s)


def test_transmission_at_weightless_eigenvalue_is_dense():
    # E = -1 is an eigenvalue of the even sublattice, which touches neither
    # lead: the 2x2 boundary system is singular, T is not
    s = TransportSetup(ChainParams(mu=0.0, t1=0.0, t2=1.0, n=5),
                       LeadParams(0.5), LeadParams(0.5))
    with pytest.raises(SingularBoundaryError):
        green_1n_tetranacci(-1.0, s)
    t = transmission(-1.0, s)
    assert t == transmission_dense(-1.0, s) and 0.0 < t <= 1.0


def test_transmission_strong_leads():
    # gamma = 1e150: 4 gamma_L gamma_R = 4e300 is a double, but |G_1N|^2 ~
    # 1e-600 underflows to 0 while T = 4.2e-300 does not
    s = TransportSetup(ChainParams(mu=0.3, t1=1.0, t2=0.7, n=4),
                       LeadParams(1e150), LeadParams(1e150))
    t, want = transmission(0.5, s), transmission_dense(0.5, s)
    assert want > 4e-300 and abs(t - want) <= 1e-15 * want
    # gamma = 1e200: 4 gamma_L gamma_R overflows as well, and inf * 0 is nan
    s = TransportSetup(ChainParams(mu=0.0, t1=1.0, t2=1.0, n=3),
                       LeadParams(1e200), LeadParams(1e200))
    assert transmission(1.0, s) == 0.0 and transmission_dense(1.0, s) == 0.0
    # the pole residues carry the couplings the same way, or they are nan
    # and the current falls back to a quadrature that does not converge
    _, a, _ = transport._poles(s)
    assert np.all(np.isfinite(a))
    assert current(1.0, math.inf, s) == 0.0


def test_current_strong_leads_finite_temperature():
    # the poles lie about 1e200 off the real axis, so the digamma argument
    # y ~ beta 1e200 / 2 pi squares past the doubles; its series weight 1/y^2
    # must underflow to 0 without an overflow warning
    s = TransportSetup(ChainParams(mu=0.0, t1=1.0, t2=1.0, n=3),
                       LeadParams(1e200), LeadParams(1e200))
    assert current(1.0, 10.0, s) == 0.0


@pytest.mark.filterwarnings("error")
def test_transmission_at_the_largest_coupling():
    # gamma_L = 1e308: 2 gamma_L overflows, and T was inf or nan; with the
    # exact 2 on the smaller factor, T is 4 gamma_L gamma_R |G_1N|^2 of the
    # returned G_1N, formed exactly, to a few ulps
    s = TransportSetup(ChainParams(mu=0.0, t1=1.0, t2=1.0, n=3),
                       LeadParams(1e308), LeadParams(1.0))
    for e in np.linspace(-2.0, 2.0, 5).tolist():
        t, g = transmission(e, s), green_1n_tetranacci(e, s)
        want = 4 * Fraction(1e308) * (Fraction(g.real) ** 2 + Fraction(g.imag) ** 2)
        assert math.isfinite(t) and t <= 1.0
        assert abs(Fraction(t) - want) <= 4 * math.ulp(float(want))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", [math.inf, 10.0])
@pytest.mark.parametrize("gamma", [1e308, 1.7976931348623157e308])
def test_current_at_the_largest_couplings(beta, gamma):
    # the poles lie about gamma below the real axis: 2 gamma, z_k -
    # conj(z_l) and a panel's distance to a pole leave the doubles, which
    # made the current nan; it is the current at gamma = 1e307, here 0
    def currents(g):
        s = TransportSetup(ChainParams(mu=0.0, t1=1.0, t2=1.0, n=3),
                           LeadParams(g), LeadParams(g))
        return current(np.array([0.5, 2.0]), beta, s)

    assert np.array_equal(currents(gamma), currents(1e307))
    assert np.all(currents(gamma) == 0.0)


def test_transmission_weak_leads_at_resonance():
    # a single level at E = 0 between equal leads transmits fully for any
    # gamma; at gamma = 1e-170, 4 gamma_L gamma_R underflows to 0, which is
    # not a decoupled lead, and |G_1N|^2 = 1e340 overflows; at gamma =
    # 2.8e-309 and 4e-309, G_1N = 1 / (2 i gamma) is finite but 2 |G_1N| is not
    for gamma in (1e-170, 2.8e-309, 4e-309):
        s = TransportSetup(ChainParams(mu=0.0, t1=0.0, t2=1.0, n=1),
                           LeadParams(gamma), LeadParams(gamma))
        assert transmission(0.0, s) == 1.0 and transmission_dense(0.0, s) == 1.0


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


def test_current_scalar_and_grid_shapes():
    s = default_setup()
    one = current(0.8, 10.0, s)
    assert type(one) is float
    grid = current([0.0, 0.8, -0.8], 10.0, s)
    assert grid.shape == (3,) and grid[0] == 0.0 and grid[1] == one


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
    assert abs(got - transmission(0.0, s) * v) <= 1e-4 * abs(got)


def test_current_finite_temperature_approaches_zero_t():
    s = default_setup()
    v = 0.5
    cold = current(v, 5000.0, s)
    zero = current(v, math.inf, s)
    assert abs(cold - zero) < 1e-2 * max(abs(zero), 1e-12)


def test_digamma_matches_scipy():
    from scipy.special import psi
    rng = np.random.default_rng(0)
    re = np.concatenate([0.5 + np.logspace(-16, 3, 400), 0.5 + 1e3 * rng.random(400)])
    im = rng.choice([-1.0, 1.0], 800) * 10.0 ** rng.uniform(-16, 4, 800)
    x = np.concatenate([re + 1j * im, re, 0.5 + 1j * np.logspace(-3, 4, 50)])
    want = psi(x)
    assert np.all(np.abs(digamma(x) - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def _spy_quad(monkeypatch):
    calls = []
    quad = transport._current_quad
    monkeypatch.setattr(transport, "_current_quad",
                        lambda *args: calls.append(args) or quad(*args))
    return calls


# want: adaptive quadrature of the exact T (tolerance 1e-9); the pole sum
# agrees to 7e-16
@pytest.mark.parametrize("chain, gammas, want, fallback", [
    # modes with no weight on site 1 or N have real eigenvalues: the pole
    # expansion drops them instead of dividing by their zero width
    (ChainParams(mu=0.0, t1=1.0, t2=1.0, n=4), (0.5, 0.5), 0.50829634306817362, False),
    (ChainParams(mu=0.1, t1=0.0, t2=0.8, n=3), (0.5, 0.5), 0.8938879790620324, False),
    (ChainParams(mu=0.1, t1=0.0, t2=0.8, n=5), (0.5, 0.5), 0.8431134491031017, False),
    # an exact exceptional point of H_eff: the expansion misses the current
    # by 2.9e-3 and T by 0.14 at its probe, E = 0 (Re z_k clipped into the
    # window), so the probe sends the current to the quadrature
    (ChainParams(mu=0.1, t1=1.0, t2=1.0, n=2), (2.5, 0.5), 0.82558208596338711, True),
])
def test_current_edge_cases(monkeypatch, chain, gammas, want, fallback):
    calls = _spy_quad(monkeypatch)
    s = TransportSetup(chain, LeadParams(gammas[0]), LeadParams(gammas[1]))
    got = current(1.0, math.inf, s)
    assert abs(got - want) <= 1e-12 * want
    assert bool(calls) is fallback


def test_current_quad_resolves_narrow_resonance(monkeypatch):
    # the resonance example of test_current_matches_quadrature: sublattices
    # coupled by t1 = 1e-5 hold resonances 1.5e-11 wide, which an adaptive
    # quadrature without split points misses by 2.1e-9 relative
    calls = _spy_quad(monkeypatch)
    lead = LeadParams(0.2558811373430868)
    s = TransportSetup(ChainParams(mu=-1e-05, t1=-1e-05, t2=2.5774780254716845, n=7),
                       lead, lead)
    v, beta = 0.2558811373430868, 78.94830302877999
    want = current(v, beta, s)
    assert not calls  # the probe-checked pole sum
    got = transport._current_quad(np.array([v]), beta, s, transport._poles(s)[0])[0]
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("beta", [math.inf, 10.0])
def test_current_decoupled_lead_is_zero(monkeypatch, beta):
    calls = _spy_quad(monkeypatch)
    chain = ChainParams(mu=0.3, t1=1.0, t2=0.8, n=5)
    for left, right in ((0.0, 0.5), (0.5, 0.0)):
        s = TransportSetup(chain, LeadParams(left), LeadParams(right))
        assert current(0.7, beta, s) == 0.0
    assert not calls



def _exceptional_point():
    # N = 2 with (gamma_L - gamma_R) / 2 = t1: H_eff is defective
    return TransportSetup(ChainParams(mu=0.1, t1=1.0, t2=1.0, n=2),
                          LeadParams(2.5), LeadParams(0.5))


# want: the current at V = 1e6, whose window already holds all of T, and
# the graded quadrature of the exact T at V = 1e10 and 1e300 alike
@pytest.mark.parametrize("beta, want", [(math.inf, 1.262026794064185),
                                        (10.0, 1.2593983920215057)])
@pytest.mark.parametrize("v", [1e10, 1e300])
def test_current_large_bias_at_exceptional_point(monkeypatch, v, beta, want):
    # a probe at -V/2 lies in the tail, where every pole sum is near 0, and
    # passed a current 1.0 % (V = 1e10) and 12 % (V = 1e300) off; a probe
    # at Re z_k of the worst-conditioned pole sees the wrong residues
    calls = _spy_quad(monkeypatch)
    s = _exceptional_point()
    got = current(v, beta, s)
    assert len(calls) == 1
    assert got == transport._current_quad(np.array([v]), beta, s, transport._poles(s)[0])[0]
    assert abs(got - want) <= 1e-14 * want


@pytest.mark.filterwarnings("error")
def test_finite_beta_current_at_the_largest_bias(monkeypatch):
    # beta V / 2 pi overflows at V = 1e308: the pole sum is not finite and
    # goes quietly to the table, which gives the value the pole sum tends
    # to as V grows (the Fermi edge at E = 0 lies inside the band, so the
    # beta = inf current 1.95909 differs; the beta = 10 one is continuous)
    s = TransportSetup(ChainParams(mu=0.0, t1=1.0, t2=1.0, n=3),
                       LeadParams(1.0), LeadParams(1.0))
    tail = current(np.array([1e6, 1e12, 1e100, 1e300]), 10.0, s)
    assert np.abs(tail - 1.9587519317180).max() <= 1e-13
    calls = _spy_quad(monkeypatch)
    assert abs(current(1e308, 10.0, s) - 1.9587519317180) <= 1e-13
    assert len(calls) == 1


@pytest.mark.parametrize("beta", [math.inf, 10.0])
def test_current_grid_fallback_is_one_table(monkeypatch, beta):
    # every bias falls back: the whole grid is one call of the quadrature,
    # on the poles of the one eigendecomposition, and matches the pole sum
    s = default_setup()
    biases = np.arange(-10, 11) * 0.3
    want = current(biases, beta, s)
    eigs = []
    for name in ("eig", "eigvals"):
        f = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *args, f=f: eigs.append(args) or f(*args))
    calls = _spy_quad(monkeypatch)
    monkeypatch.setattr(transport, "_PROBE_TOL", -1.0)
    got = current(biases, beta, s)
    assert len(calls) == 1 and len(eigs) == 1
    assert got[10] == 0.0 and want[10] == 0.0
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_current_exactly_defective_falls_back(monkeypatch):
    # an eigensolver that returns the one isotropic eigenvector (r^T r = 0
    # exactly) of the defective H_eff makes the residues not finite, and
    # the current comes from the quadrature without a warning
    s = _exceptional_point()
    h = transport._h_eff(s)
    z = np.trace(h) / 2
    r = np.array([h[0, 1], z - h[0, 0]])
    assert r @ r == 0
    monkeypatch.setattr(np.linalg, "eig",
                        lambda a: (np.array([z, z]), np.column_stack([r, r]) / abs(r[0])))
    calls = _spy_quad(monkeypatch)
    got = current(1.0, math.inf, s)
    assert len(calls) == 1
    assert abs(got - 0.82558208596338711) <= 1e-12 * got


def test_poles_of_degenerate_sublattices(monkeypatch):
    # at t1 = 0 and even N the sublattices touch one lead each, mirror
    # images under equal leads: every eigenvalue is doubled, and the
    # eigenvectors LAPACK returns stay on one sublattice, so every residue
    # of the solve-free c_k vanishes and T = 0 passes its probe
    calls = _spy_quad(monkeypatch)
    lead = LeadParams(0.5, 0.2)
    s = TransportSetup(ChainParams(mu=0.3, t1=0.0, t2=1.0, n=8), lead, lead)
    z, a, _ = transport._poles(s)
    z = np.sort_complex(z)
    assert len(z) == 8 and np.abs(z[::2] - z[1::2]).max() <= 1e-14
    assert np.all(a == 0)
    assert current(1.0, 10.0, s) == 0.0 and not calls
