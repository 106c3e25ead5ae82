"""Randomized invariants of the chain and Kitaev spectra and of transport (hypothesis).

The tolerances are those of `test_acceptance.py`: 1e-10 for chain
eigenvalues against a dense eigensolve (test_03), 1e-9 for the spectrum's
symmetry under t1 -> -t1 (test_11) and 1e-8 for the Kitaev sublattice
against the particle-hole spectrum (test_09), each relative to the
spectral scale max(1, |E|max).  The dense `numpy.linalg` drivers are
independent of the banded driver behind `spectrum` and `kitaev_spectrum`.
Transmission must lie in [0, 1] and match the dense trace formula to the
1e-8 of test_10, here absolute because T <= 1 and evanescent T can be far
below the dense path's roundoff.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tetranacci.chain import ChainParams, build_chain_matrix, spectrum
from tetranacci.errors import SingularBoundaryError
from tetranacci.kitaev import KitaevParams, bdg_spectrum, kitaev_spectrum
from tetranacci.transport import (LeadParams, TransportSetup, transmission,
                                  transmission_dense)

coupling = st.floats(-3.0, 3.0)
next_nearest = st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1))
chains = st.builds(ChainParams, mu=coupling, t1=coupling, t2=next_nearest,
                   n=st.integers(1, 40))
kitaev_chains = st.builds(KitaevParams, mu=coupling, t=coupling, delta=coupling,
                          n=st.integers(2, 40))
leads = st.builds(LeadParams, gamma=st.floats(0.05, 3.0), lam=st.floats(-1.0, 1.0))
transport_setups = st.builds(TransportSetup, chains, leads, leads)

PROPERTY = settings(max_examples=60, deadline=None)


def _scale(w):
    return max(1.0, float(np.abs(w).max()))


@PROPERTY
@given(chains)
def test_spectrum_matches_dense_eigvalsh(p):
    got = np.array([m.e for m in spectrum(p)])
    want = np.linalg.eigvalsh(build_chain_matrix(p))
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


def test_transmission_bounded_and_matches_dense():
    # draws at a mode decoupled from both leads (t1 = 0 sublattices, say)
    # raise SingularBoundaryError and are skipped; they must stay rare
    skipped = []

    @settings(max_examples=200, deadline=None)
    @given(transport_setups, st.floats(-10.0, 10.0))
    def check(s, e):
        try:
            t = transmission(e, s)
        except SingularBoundaryError:
            skipped.append(True)
            return
        skipped.append(False)
        assert -1e-12 <= t <= 1.0 + 1e-12
        assert abs(t - transmission_dense(e, s)) <= 1e-8

    check()
    assert sum(skipped) < 0.05 * len(skipped)
