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
misses by more, an exact rational solve settles the reference.  The closed
form must match the recursion replay to the 1e-9 of test_02, relative to the
largest replayed value.
"""

from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tetranacci.chain import ChainParams, spectrum
from tetranacci.closedform import RootClass, characterize, xi_closed
from tetranacci.errors import SingularBoundaryError
from tetranacci.kitaev import KitaevParams, bdg_spectrum, kitaev_spectrum
from tetranacci.recurrence import Coefficients, InitialValues, eval_range
from tetranacci.transport import (LeadParams, TransportSetup, transmission,
                                  transmission_dense)

from band_oracle import chain_eigh

coupling = st.floats(-3.0, 3.0)
next_nearest = st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1))
chains = st.builds(ChainParams, mu=coupling, t1=coupling, t2=next_nearest,
                   n=st.integers(1, 40))
kitaev_chains = st.builds(KitaevParams, mu=coupling, t=coupling, delta=coupling,
                          n=st.integers(2, 40))
leads = st.builds(LeadParams, gamma=st.floats(0.05, 3.0), lam=st.floats(-1.0, 1.0))
transport_setups = st.builds(TransportSetup, chains, leads, leads)
complexes = st.builds(complex, coupling, coupling)
initials = st.tuples(complexes, complexes, complexes, complexes).map(InitialValues)

PROPERTY = settings(max_examples=60, deadline=None)


def _scale(w):
    return max(1.0, float(np.abs(w).max()))


def _closed_form_error(c, g):
    cd = characterize(c)
    window = eval_range(g, c, -20, 20)
    scale = max(abs(v) for v in window.values) or 1.0
    return max(abs(xi_closed(g, j, cd) - window.value(j)) for j in range(-20, 21)) / scale


@PROPERTY
@given(complexes, complexes, initials)
def test_closed_form_matches_replay_generic(zeta, eta, g):
    c = Coefficients(zeta, eta)
    # the degenerate classes are drawn exactly on their locus below; a draw
    # within the 1e-8 class threshold of the locus but off it is snapped
    # onto it and misses by ~20x its distance, a known limit of that threshold
    assume(characterize(c).root_class is RootClass.DISTINCT)
    assert _closed_form_error(c, g) <= 1e-9


@PROPERTY
@given(st.one_of(complexes, st.sampled_from([4.0, -4.0])), initials)
def test_closed_form_matches_replay_on_degenerate_locus(eta, g):
    # |Re eta| <= 3 keeps S = eta/2 away from +-2 (class degenerate_s);
    # eta = +-4 is the degenerate_unit point
    assert _closed_form_error(Coefficients(-2.0 - eta * eta / 4.0, eta), g) <= 1e-9


@PROPERTY
@given(chains)
def test_spectrum_matches_dense_eigvalsh(p):
    got = np.array([m.e for m in spectrum(p)])
    want = chain_eigh(p)[0]
    assert np.abs(got - want).max() <= 1e-10 * _scale(want)


@PROPERTY
@given(chains)
def test_branch_parity_product(p):
    assert all(m.s_q * m.lambda_i == -1 for m in spectrum(p))


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


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _cdiv(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return _cmul(a, (b[0] / norm, -b[1] / norm))


def _transmission_exact(e, s):
    """4 gamma_L gamma_R |G_1N|^2 from an exact rational solve of
    (E - H - Sigma) x = e_N.

    Complex entries are (re, im) pairs of Fractions built from the setup's
    doubles, so nothing is rounded before the final float().
    """
    n, p = s.chain.n, s.chain
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    a = [[zero] * n + [one if r == n - 1 else zero] for r in range(n)]
    for r in range(n):
        a[r][r] = (Fraction(e) + Fraction(p.mu), Fraction(0))
        for d, t in ((1, p.t1), (2, p.t2)):
            if r + d < n:
                a[r][r + d] = a[r + d][r] = (Fraction(t), Fraction(0))
    for r, lead in ((0, s.left), (n - 1, s.right)):
        re, im = a[r][r]
        a[r][r] = (re - Fraction(lead.lam), im + Fraction(lead.gamma))
    for k in range(n):
        pivot = next(r for r in range(k, n) if a[r][k] != zero)
        a[k], a[pivot] = a[pivot], a[k]
        for r in range(k + 1, n):
            if a[r][k] != zero:
                f = _cdiv(a[r][k], a[k][k])
                a[r] = [(x[0] - y[0], x[1] - y[1])
                        for x, y in zip(a[r], (_cmul(f, v) for v in a[k]))]
    x = [zero] * n
    for r in reversed(range(n)):
        acc = a[r][n]
        for c in range(r + 1, n):
            prod = _cmul(a[r][c], x[c])
            acc = (acc[0] - prod[0], acc[1] - prod[1])
        x[r] = _cdiv(acc, a[r][r])
    g_1n = x[0]
    return float(4 * Fraction(s.left.gamma) * Fraction(s.right.gamma)
                 * (g_1n[0] * g_1n[0] + g_1n[1] * g_1n[1]))


def test_transmission_bounded_and_matches_dense():
    # draws at a mode decoupled from both leads (t1 = 0 sublattices, say)
    # raise SingularBoundaryError and are skipped; they must stay rare
    skipped = []

    @settings(max_examples=200, deadline=None)
    @given(transport_setups, st.floats(-10.0, 10.0))
    # near a mode that barely touches the leads, E - H - Sigma is so badly
    # conditioned that the dense double-precision path misses by 4.8e-7
    @example(TransportSetup(ChainParams(mu=0.0, t1=1e-6, t2=-1.0, n=17),
                            LeadParams(1.0, 0.0), LeadParams(1.0, 0.0)), 1.0)
    def check(s, e):
        try:
            t = transmission(e, s)
        except SingularBoundaryError:
            skipped.append(True)
            return
        skipped.append(False)
        assert -1e-12 <= t <= 1.0 + 1e-12
        reference = transmission_dense(e, s)
        if abs(t - reference) > 1e-8:
            reference = _transmission_exact(e, s)
        assert abs(t - reference) <= 1e-8

    check()
    assert sum(skipped) < 0.05 * len(skipped)
