"""Randomized invariants of the closed form, the chain and Kitaev spectra and
transport (hypothesis).

The tolerances are those of `test_acceptance.py`: 1e-10 for chain
eigenvalues against a reference eigensolve (test_03), 1e-9 for the
spectrum's symmetry under t1 -> -t1 (test_11) and 1e-8 for the Kitaev
sublattice against the particle-hole spectrum (test_09), each relative to
the spectral scale max(1, |E|max).  The chain reference is scipy's banded
driver on a band filled from (mu, t1, t2) (`band_oracle`), which shares
neither the dense matrix nor the `numpy.linalg.eigh` behind `spectrum`.
Transmission must lie in [0, 1] and match the dense trace formula to the
1e-8 of test_10, here absolute because T <= 1 and evanescent T can be far
below the dense path's roundoff.  Where the double-precision dense path
misses by more, or is singular, an exact rational solve settles the
reference.  The closed form must match the recursion replay to the 1e-9 of
test_02, relative to the largest replayed value (or to 1e-4 of the largest
term g_i T_i(j), where xi is a small difference of such terms), also in the
bands where characteristic roots nearly coincide: within 10^-14..10^-5 of
the degenerate locus, of a root S = +-2, or of the corner eta = +-4 where
both meet.
Each chain eigenvector must be mirror-symmetric, v[::-1] = lambda_i v, to
1e-12 of its largest entry; the sector solve of `spectrum` makes it exact.
The current from the pole expansion must match an adaptive quadrature of
the exact transmission to 1e-8, relative to the current or, for a current
below 1e-6 |V|, to 1e-6 |V| (0 <= T <= 1 bounds |I| by |V|).  A bias grid
must give each bias's single-bias current to 1e-14 with the same floor,
from one pole expansion, with every nonzero bias probed at Re z_k of the
worst-conditioned pole clipped into its window, once per distinct energy.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tetranacci import transport
from tetranacci.chain import ChainParams, build_chain_matrix, spectrum
from tetranacci.closedform import characterize, xi_closed
from tetranacci.kitaev import KitaevParams, kitaev_spectrum
from tetranacci.recurrence import Coefficients, InitialValues, eval_range
from tetranacci.transport import LeadParams, TransportSetup, current, fermi, transmission

from band_oracle import bdg_spectrum, chain_eigh
from dense_oracle import green_1n_fraction, transmission_dense
from unit_initials import unit

coupling = st.floats(-3.0, 3.0)
next_nearest = st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1))
chains = st.builds(ChainParams, mu=coupling, t1=coupling, t2=next_nearest,
                   n=st.integers(1, 40))
kitaev_chains = st.builds(KitaevParams, mu=coupling, t=coupling, delta=coupling,
                          n=st.integers(2, 40))
leads = st.builds(LeadParams, gamma=st.floats(0.05, 3.0), lam=st.floats(-1.0, 1.0))
transport_setups = st.builds(TransportSetup, chains, leads, leads)
complexes = st.builds(complex, coupling, coupling)
signs = st.sampled_from([1.0, -1.0])
# a complex offset of modulus 10^-14..10^-5
offsets = st.builds(lambda e, a: 10.0 ** e * cmath.exp(1j * a),
                    st.floats(-14.0, -5.0), st.floats(0.0, 2 * cmath.pi))
initials = st.tuples(complexes, complexes, complexes, complexes).map(InitialValues)

PROPERTY = settings(max_examples=60, deadline=None)


def _scale(w):
    return max(1.0, float(np.abs(w).max()))


def _closed_form_error(c, g):
    """Worst miss of the closed form against the replay over [-20, 20],
    relative to the larger of the window's largest value and 1e-4 times its
    largest term sum_i |g_i T_i(j)|.

    The second scale only takes over where xi is a small difference of the
    terms, as for g near the slow solutions of S_1 = +-2 while S_2 grows: a
    relative error eps of the coefficients or of the roots then moves xi by
    eps times the terms, for the replay and for any closed form, so 1e-9 of
    it is 1e-13 of the terms, a few hundred rounding errors.
    """
    window = eval_range(g, c, -20, 20).values
    closed = xi_closed(g, characterize(c), -20, 20).values
    basic = [eval_range(unit(i), c, -20, 20).values for i in range(-2, 2)]
    terms = max(sum(abs(gi * t[k]) for gi, t in zip(g.g, basic)) for k in range(41))
    scale = max(max(abs(v) for v in window), 1e-4 * terms) or 1.0
    return max(abs(a - b) for a, b in zip(closed, window)) / scale


def _locus(eta):
    return -2.0 - eta * eta / 4.0


@PROPERTY
@given(complexes, complexes, initials)
def test_closed_form_matches_replay_generic(zeta, eta, g):
    assert _closed_form_error(Coefficients(zeta, eta), g) <= 1e-9


@PROPERTY
@given(st.one_of(st.builds(complex, st.floats(-6.0, 6.0), coupling),
                 st.sampled_from([4.0, -4.0])), initials)
def test_closed_form_matches_replay_on_degenerate_locus(eta, g):
    # S_1 = S_2 = eta/2, at +-2 where eta = +-4
    assert _closed_form_error(Coefficients(_locus(eta), eta), g) <= 1e-9


@PROPERTY
@given(complexes, offsets, initials)
@example(3.0, 1e-8, InitialValues((1, 0, 0, 0)))
def test_closed_form_matches_replay_near_degenerate_locus(eta, dz, g):
    assert _closed_form_error(Coefficients(_locus(eta) + dz, eta), g) <= 1e-9


@PROPERTY
@given(signs, offsets, complexes, initials)
# g = (1, 1, 1, 1) is the constant solution at S_1 = 2; test_closedform's
# test_xi_closed_near_slow_solution checks this point against max|xi| alone
@example(1.0, 1e-5, 2j, InitialValues((1, 1, 1, 1)))
def test_closed_form_matches_replay_near_unit_root(sign, ds, s2, g):
    # S_1 = +-2 + ds and S_2 generic: S_1 + S_2 = eta, S_1 S_2 = -(zeta + 2)
    s1 = 2.0 * sign + ds
    c = Coefficients(-2.0 - s1 * s2, s1 + s2)
    assert _closed_form_error(c, g) <= 1e-9


@PROPERTY
@given(signs, offsets, st.one_of(offsets, st.just(0.0)), initials)
@example(1.0, 1e-8, 0.0, InitialValues((1, 2, 3, 4)))
@example(1.0, 6e-8j, 0.0, InitialValues((1, 2, 3, 4)))
def test_closed_form_matches_replay_near_corner(sign, de, dz, g):
    # eta near +-4 and zeta near the locus: S_1 and S_2 both near +-2
    eta = 4.0 * sign + de
    assert _closed_form_error(Coefficients(_locus(eta) + dz, eta), g) <= 1e-9


@PROPERTY
@given(chains)
def test_spectrum_matches_dense_eigvalsh(p):
    got = np.array([m.e for m in spectrum(p)])
    want = chain_eigh(p)[0]
    assert np.abs(got - want).max() <= 1e-10 * _scale(want)


@PROPERTY
@given(chains)
# a near-degenerate pair that an overlap-based parity would return mixed
@example(ChainParams(mu=0.0, t1=1e-7, t2=1.0, n=6))
def test_branch_parity_product(p):
    for m in spectrum(p):
        assert m.s_q * m.lambda_i == -1
        dev = np.abs(m.vector[::-1] - m.lambda_i * m.vector).max()
        assert dev <= 1e-12 * np.abs(m.vector).max()


@PROPERTY
@given(chains)
def test_spectrum_symmetric_under_t1_flip(p):
    flipped = ChainParams(mu=p.mu, t1=-p.t1, t2=p.t2, n=p.n)
    a = np.array([m.e for m in spectrum(p)])
    b = np.array([m.e for m in spectrum(flipped)])
    assert np.abs(a - b).max() <= 1e-9 * _scale(a)


@PROPERTY
@given(kitaev_chains)
def test_kitaev_sublattice_matches_bdg(p):
    a = np.array(kitaev_spectrum(p))
    b = np.array(bdg_spectrum(p))
    assert np.abs(a - b).max() <= 1e-8 * _scale(b)


def _transmission_exact(e, s):
    """4 gamma_L gamma_R |G_1N|^2 from the exact rational solve, rounded once."""
    g_1n = green_1n_fraction(e, s)
    return float(4 * Fraction(s.left.gamma) * Fraction(s.right.gamma)
                 * (g_1n[0] * g_1n[0] + g_1n[1] * g_1n[1]))


def test_transmission_bounded_and_matches_dense():
    @settings(max_examples=200, deadline=None)
    @given(transport_setups, st.floats(-10.0, 10.0))
    # near a mode that barely touches the leads, E - H - Sigma is so badly
    # conditioned that the dense double-precision path misses by 4.8e-7
    @example(TransportSetup(ChainParams(mu=0.0, t1=1e-6, t2=-1.0, n=17),
                            LeadParams(1.0, 0.0), LeadParams(1.0, 0.0)), 1.0)
    # site 2 is decoupled (t1 = 0) and its row holds only a subnormal E;
    # a dense inverse put 1/E = inf in G and returned nan
    @example(TransportSetup(ChainParams(mu=0.0, t1=0.0, t2=1.0, n=3),
                            LeadParams(1.0, 0.0), LeadParams(1.0, 0.0)),
             2.2250738585e-313)
    # t1 = 0 and odd N: at E = -1, an eigenvalue of the even sublattice,
    # which touches neither lead, the dense system is exactly singular
    @example(TransportSetup(ChainParams(mu=0.0, t1=0.0, t2=1.0, n=5),
                            LeadParams(0.5, 0.0), LeadParams(0.5, 0.0)), -1.0)
    def check(s, e):
        t = transmission(e, s)
        assert -1e-12 <= t <= 1.0 + 1e-12
        try:
            reference = transmission_dense(e, s)
        except np.linalg.LinAlgError:  # exactly singular
            reference = None
        if reference is None or abs(t - reference) > 1e-8:
            reference = _transmission_exact(e, s)
        assert abs(t - reference) <= 1e-8

    check()


def _current_quad(v, beta, s):
    """Adaptive quadrature of T(E) (f(E) - f(E + V)) with the exact T,
    split around every pole z_k of H_eff at Re z_k + m |Im z_k| for m in
    0, +-1, +-16, +-256: a resonance far narrower than the window
    (1.5e-11 wide at t1 = 1e-5) is otherwise missed.  Poles within 1e-12
    of the real axis belong to modes with no weight on site 1 or N, and
    splits clustered within 1e-14 of them upset the error estimate.  Each
    panel between splits is one adaptive call: with the splits passed to a
    single call, its global error estimate gave up on roundoff beside a
    resonance 3.5e-9 wide and missed by 2.3e-8 relative."""
    from scipy import integrate
    pad = 40.0 / beta
    lo, hi = min(0.0, -v) - pad, max(0.0, -v) + pad
    h = build_chain_matrix(s.chain).astype(complex)
    h[0, 0] += s.left.self_energy
    h[-1, -1] += s.right.self_energy
    z = np.linalg.eigvals(h)
    points = sorted({x for r, w in zip(z.real, -z.imag)
                     for m in (0, 1, -1, 16, -16, 256, -256)
                     for x in [r + m * w] if lo < x < hi and w > 1e-12})
    edges = [lo, *points, hi]
    return sum(integrate.quad(
        lambda x: transmission(x, s) * (fermi(x, beta) - fermi(x + v, beta)),
        a, b, epsabs=1e-15, epsrel=1e-10, limit=1000)[0] for a, b in zip(edges, edges[1:]))


@settings(max_examples=25, deadline=None)
@given(st.builds(ChainParams, mu=coupling, t1=coupling, t2=next_nearest,
                 n=st.integers(1, 12)), leads, leads,
       st.one_of(st.floats(0.01, 5.0), st.floats(-5.0, -0.01)),
       st.one_of(st.just(math.inf), st.floats(0.5, 200.0)))
# sublattices coupled by t1 = 1e-5 hold resonances 1.5e-11 wide
@example(ChainParams(mu=-1e-05, t1=-1e-05, t2=2.5774780254716845, n=7),
         LeadParams(0.2558811373430868), LeadParams(0.2558811373430868),
         0.2558811373430868, 78.94830302877999)
# a current of 3e-24: the pole sum is off by its roundoff, 5e-21
@example(ChainParams(mu=0.0, t1=1e-12, t2=1.0, n=2), LeadParams(1.0), LeadParams(1.0),
         1.0, math.inf)
# three weightless poles within 3e-17 of the real axis
@example(ChainParams(mu=0.0, t1=4.417763531144255e-134, t2=-0.5, n=7),
         LeadParams(2.0), LeadParams(2.0), 3.1875, 6.5)
# t1 = 0, even N, equal leads: the sublattices are mirror images and every
# eigenvalue is doubled; the solve-free c_k = R_1k R_Nk / (r_k^T r_k) of
# `_poles` holds only if r_k^T r_l = 0 within each eigenspace
@example(ChainParams(mu=0.3, t1=0.0, t2=1.0, n=6), LeadParams(0.5, 0.2),
         LeadParams(0.5, 0.2), 1.0, 10.0)
# a resonance at E = 0.25, 3.5e-9 wide, inside the window [0, 1]
@example(ChainParams(mu=0.0, t1=6.103515625e-05, t2=0.25, n=5), LeadParams(1.0),
         LeadParams(1.0), -1.0, math.inf)
def test_current_matches_quadrature(chain, left, right, v, beta):
    s = TransportSetup(chain, left, right)
    want = _current_quad(v, beta, s)
    assert abs(current(v, beta, s) - want) <= 1e-8 * max(abs(want), 1e-6 * abs(v))


@settings(max_examples=40, deadline=None)
@given(st.builds(ChainParams, mu=coupling, t1=coupling, t2=next_nearest,
                 n=st.integers(1, 12)), leads, leads,
       st.lists(st.one_of(st.just(0.0), st.floats(0.01, 5.0), st.floats(-5.0, -0.01)),
                min_size=1, max_size=8),
       st.one_of(st.just(math.inf), st.floats(0.5, 200.0)))
# a natural fallback at V = 3, which a partition of the union of the
# windows integrated 1.9e-13 away from the single bias
@example(ChainParams(0.0, 5.960464477539063e-08, 0.125, 11), LeadParams(1.0),
         LeadParams(1.0), [1.0, 3.0], math.inf)
def test_current_grid_matches_single_biases(chain, left, right, biases, beta):
    s = TransportSetup(chain, left, right)
    singles = [current(v, beta, s) for v in biases]
    calls = {"poles": 0, "probes": []}
    poles, exact = transport._poles, transport.transmission

    def count_poles(setup):
        calls["poles"] += 1
        return poles(setup)

    def record_probe(e, setup):
        calls["probes"].append(e)
        return exact(e, setup)

    transport._poles, transport.transmission = count_poles, record_probe
    try:
        grid = current(np.array(biases), beta, s)
    finally:
        transport._poles, transport.transmission = poles, exact
    assert grid.shape == (len(biases),)
    for got, want, v in zip(grid, singles, biases):
        assert abs(got - want) <= 1e-14 * max(abs(want), 1e-6 * abs(v))
    assert calls["poles"] == (1 if any(biases) else 0)
    z, _, kappa = poles(s)
    probed = sorted({float(np.clip(z.real[np.argmax(kappa)], min(0.0, -v), max(0.0, -v)))
                     if len(z) else -0.5 * v for v in biases if v != 0.0})
    assert calls["probes"][:len(probed)] == probed
