import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tetranacci.chain import ChainParams
from tetranacci.errors import ZeroT2Error
from tetranacci.kitaev import (KitaevParams, kitaev_effective_coeffs,
                               kitaev_effective_hoppings, kitaev_spectrum)

from band_oracle import bdg_matrix, bdg_spectrum, chain_eigh, effective_h_matrix


@pytest.mark.parametrize("make", [
    lambda: KitaevParams(mu=0.5j, t=1.0, delta=0.3, n=4),
], ids=["kitaev"])
def test_params_reject_complex(make):
    with pytest.raises(ValueError, match="non-real"):
        make()


def test_effective_coeffs_mu_zero():
    c = kitaev_effective_coeffs(0.5, KitaevParams(mu=0.0, t=1.0, delta=0.3, n=4))
    assert c.eta == 0.0


def test_effective_hoppings_simple():
    t1, t2 = kitaev_effective_hoppings(KitaevParams(mu=0.7, t=1.0, delta=0.0, n=4))
    assert t2 == 1.0 and t1 == 1.4


def test_effective_coeffs_quoted_point():
    c = kitaev_effective_coeffs(0.0, KitaevParams(mu=1.0, t=2.0, delta=1.0, n=4))
    assert abs(c.zeta - (-11.0 / 3.0)) < 1e-14
    assert abs(c.eta - (-4.0 / 3.0)) < 1e-14


@pytest.mark.filterwarnings("error")
def test_effective_coeffs_batch_is_per_energy():
    p = KitaevParams(mu=0.7, t=1.0, delta=0.3, n=12)
    energies = kitaev_spectrum(p)
    batch = kitaev_effective_coeffs(np.array(energies), p)
    each = [kitaev_effective_coeffs(e, p) for e in energies]
    assert [z.hex() for z in batch.zeta.tolist()] == [c.zeta.hex() for c in each]
    assert all(c.eta.hex() == batch.eta.hex() for c in each)
    # E^2 past the doubles: the map overflows, quietly, as for one energy
    for e in (1e200, np.array([1.0, 1e200])):
        with pytest.raises(ZeroT2Error):
            kitaev_effective_coeffs(e, p)


def test_effective_coeffs_rejects_t_eq_delta():
    with pytest.raises(ZeroT2Error):
        kitaev_effective_coeffs(0.0, KitaevParams(mu=0.5, t=1.0, delta=1.0, n=4))


@pytest.mark.parametrize("mu, t", [(1e160, 1.0), (0.0, 1e155)])
def test_effective_coeffs_past_the_doubles_is_no_map(mu, t):
    # the effective chain's onsite energy mu^2 + 2 t^2 (and at t = 1e155 its
    # t2 = -t^2) is past the doubles: no chain, so no map, as at t = delta
    with pytest.raises(ZeroT2Error, match="entries"):
        kitaev_effective_coeffs(1.0, KitaevParams(mu=mu, t=t, delta=0.0, n=4))


def _xy_hoppings(jx, jy, hfield):
    # the XY chain is the Kitaev chain at mu = -2h, t = (Jx+Jy)/2, delta = (Jx-Jy)/2
    return kitaev_effective_hoppings(KitaevParams(mu=-2.0 * hfield, t=(jx + jy) / 2,
                                                  delta=(jx - jy) / 2, n=4))


def test_xy_hoppings():
    # t1_eff = -2 h (Jx + Jy), t2_eff = Jx Jy
    assert _xy_hoppings(1.0, 1.0, 0.0)[0] == 0.0
    assert _xy_hoppings(1.0, 1.0, 1.0) == (-4.0, 1.0)
    assert _xy_hoppings(2.0, -1.0, 0.3)[1] == -2.0


def test_h_matrix_structure():
    p = KitaevParams(mu=0.6, t=1.1, delta=0.4, n=5)
    h = effective_h_matrix(p)
    assert np.allclose(h, h.T)
    bulk = p.mu ** 2 + (p.delta - p.t) ** 2 + (p.delta + p.t) ** 2
    assert abs(h[2, 2] - bulk) < 1e-14
    assert abs(h[0, 1] - 2.0 * p.t * p.mu) < 1e-14
    assert abs(h[0, 2] - (p.t ** 2 - p.delta ** 2)) < 1e-14
    # boundary deficits: first site misses the (delta+t)^2 term, last the other
    assert abs(h[0, 0] - (p.mu ** 2 + (p.delta - p.t) ** 2)) < 1e-14
    assert abs(h[-1, -1] - (p.mu ** 2 + (p.delta + p.t) ** 2)) < 1e-14
    # h v = E^2 v for the spectrum's energies E >= 0
    e = np.array(kitaev_spectrum(p))[p.n:]
    assert np.abs(np.linalg.eigvalsh(h) - e * e).max() < 1e-14


def test_h_matrix_t_eq_delta_drops_second_neighbor():
    h = effective_h_matrix(KitaevParams(mu=0.3, t=1.0, delta=1.0, n=5))
    assert np.abs(np.diag(h, 2)).max() == 0.0


def test_h_matrix_n2():
    p = KitaevParams(mu=0.5, t=0.8, delta=0.2, n=2)
    h = effective_h_matrix(p)
    assert h.shape == (2, 2)
    assert abs(h[0, 0] - (p.mu ** 2 + (p.delta - p.t) ** 2)) < 1e-14


def test_spectrum_vs_bdg():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = KitaevParams(mu=rng.normal(), t=rng.normal(),
                         delta=0.5 * rng.normal(), n=6)
        a = np.array(kitaev_spectrum(p))
        b = np.array(bdg_spectrum(p))
        scale = max(1.0, np.abs(b).max())
        assert np.abs(np.sort(a) - np.sort(b)).max() <= 1e-8 * scale


# signed magnitudes from 1e-150 to 3e153
magnitudes = st.builds(lambda s, x: s * 10.0 ** x, st.sampled_from((-1.0, 1.0)),
                       st.floats(-150.0, 153.5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(magnitudes, magnitudes, st.one_of(st.just(0.0), magnitudes), st.integers(2, 12))
@example(5e153, 5e153, 0.0, 30)
@example(1e160, 1e155, 0.0, 12)  # mu^2 and t^2 are past the doubles, A and E are not
# entries 1 and 1.78e144, where an unscaled BdG eigensolve is off by 3.9e-6
@example(-1.0, -1.0, -10.0 ** 144.25, 3)
def test_spectrum_is_finite_and_matches_bdg(mu, t, delta, n):
    # the singular values of A are finite wherever A is, and match the
    # particle-hole spectrum
    p = KitaevParams(mu=mu, t=t, delta=delta, n=n)
    got = np.array(kitaev_spectrum(p))
    want = np.array(bdg_spectrum(p))
    assert np.isfinite(got).all()
    assert np.abs(got - want).max() <= 1e-8 * max(1.0, np.abs(got).max())


def test_spectrum_past_norm_overflow_matches_bdg():
    p = KitaevParams(mu=5e153, t=5e153, delta=0.0, n=30)
    a = np.array(kitaev_spectrum(p))
    b = np.array(bdg_spectrum(p))
    assert np.abs(a - b).max() <= 1e-8 * np.abs(b).max()


@pytest.mark.filterwarnings("error")
def test_spectrum_where_h_overflows():
    # (delta - t)^2 = 1e310 puts inf into h, but A and E are doubles:
    # E = +-sqrt(2) t twice and +-0
    p = KitaevParams(mu=0.0, t=1e155, delta=0.0, n=3)
    assert np.isinf(effective_h_matrix(p)).any()
    got = np.array(kitaev_spectrum(p))
    x = np.sqrt(2.0) * 1e155
    want = np.array([-x, -x, 0.0, 0.0, x, x])
    assert np.abs(got - want).max() <= 1e-15 * x


@pytest.mark.filterwarnings("error")
def test_sublattice_overflow_is_named():
    # t + delta = inf leaves A past the doubles; at mu = t = 1.7e308 A is
    # finite, but its largest singular value is not
    for mu, t, delta, name in ((0.0, 1e308, 1e308, "Majorana matrix A"),
                               (1.7e308, 1.7e308, 0.0, "excitation energy E")):
        with pytest.raises(OverflowError, match=name):
            kitaev_spectrum(KitaevParams(mu=mu, t=t, delta=delta, n=3))


def test_majorana_point_zero_mode():
    p = KitaevParams(mu=0.0, t=1.0, delta=1.0, n=8)
    w = np.linalg.eigvalsh(effective_h_matrix(p))
    assert abs(w[0]) < 1e-10


def test_delta_zero_reduces_to_tridiagonal_chain():
    p = KitaevParams(mu=0.4, t=0.9, delta=0.0, n=7)
    chain = ChainParams(mu=p.mu, t1=p.t, t2=0.0, n=p.n)
    w = chain_eigh(chain)[0]
    want = sorted(np.concatenate([np.abs(w), -np.abs(w)]))
    got = kitaev_spectrum(p)
    assert np.abs(np.array(got) - want).max() < 1e-9


def test_spectrum_symmetric_in_mu():
    p_plus = KitaevParams(mu=0.7, t=1.0, delta=0.4, n=6)
    p_minus = KitaevParams(mu=-0.7, t=1.0, delta=0.4, n=6)
    a = np.abs(kitaev_spectrum(p_plus))
    b = np.abs(kitaev_spectrum(p_minus))
    assert np.abs(np.sort(a) - np.sort(b)).max() < 1e-10


def test_t_delta_duality_regimes_differ():
    strong = KitaevParams(mu=0.5, t=2.0, delta=0.5, n=6)   # t/delta = 4
    weak = KitaevParams(mu=0.5, t=0.5, delta=2.0, n=6)     # t/delta = 0.25
    a = np.array(kitaev_spectrum(strong))
    b = np.array(kitaev_spectrum(weak))
    assert np.abs(a - b).max() > 1e-6


def test_bdg_matrix_structure():
    p = KitaevParams(mu=0.5, t=0.8, delta=0.2, n=3)
    m = bdg_matrix(p)
    assert m.shape == (6, 6)
    assert np.allclose(m, m.T)
    assert m[0, 0] == -p.mu
    assert m[0, 3 + 1] == -p.delta
