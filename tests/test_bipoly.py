import pytest

from tetranacci.bipoly import BiPoly, tetranacci_poly, verify_identity
from tetranacci.errors import PreconditionError
from tetranacci.recurrence import Coefficients, basic_tetranacci_ref


def test_ring_basics():
    p = BiPoly.zeta() + BiPoly.const(1)
    assert p + BiPoly.zero() == p
    assert BiPoly.zeta() * BiPoly.eta() == BiPoly({(1, 1): 1})
    sq = (BiPoly.const(1) + BiPoly.eta()) * (BiPoly.const(1) + BiPoly.eta())
    assert sq == BiPoly({(0, 0): 1, (0, 1): 2, (0, 2): 1})
    assert -p + p == BiPoly.zero()


def test_known_polynomials():
    zeta, eta = BiPoly.zeta(), BiPoly.eta()
    one = BiPoly.const(1)
    assert tetranacci_poly(0, 4) == (zeta + one) * (zeta - one + eta * eta)
    assert tetranacci_poly(1, 3) == eta * eta + zeta
    assert tetranacci_poly(-2, 0) == BiPoly.zero()


def test_table_one_window():
    """All four columns on j in [-3, 2], exactly."""
    zeta, eta = BiPoly.zeta(), BiPoly.eta()
    one = BiPoly.const(1)
    table = {
        # j: (T_-2, T_-1, T_0, T_1)
        -3: (eta, zeta, eta, -one),
        -2: (one, BiPoly.zero(), BiPoly.zero(), BiPoly.zero()),
        -1: (BiPoly.zero(), one, BiPoly.zero(), BiPoly.zero()),
        0: (BiPoly.zero(), BiPoly.zero(), one, BiPoly.zero()),
        1: (BiPoly.zero(), BiPoly.zero(), BiPoly.zero(), one),
        2: (-one, eta, zeta, eta),
    }
    for j, row in table.items():
        for i, want in zip((-2, -1, 0, 1), row):
            assert tetranacci_poly(i, j) == want, (i, j)


def test_range_guard():
    with pytest.raises(PreconditionError):
        tetranacci_poly(0, 65)
    with pytest.raises(PreconditionError):
        tetranacci_poly(0, -65)


def test_inversion_identities_exact():
    for j in range(-12, 13):
        assert verify_identity(tetranacci_poly(1, j), tetranacci_poly(-2, -1 - j))
        assert verify_identity(tetranacci_poly(0, j), tetranacci_poly(-1, -1 - j))
        assert verify_identity(tetranacci_poly(-2, j), tetranacci_poly(1, -1 - j))
        assert verify_identity(tetranacci_poly(-1, j), tetranacci_poly(0, -1 - j))


def test_reduction_identities_exact():
    eta = BiPoly.eta()
    for j in range(-12, 13):
        assert verify_identity(tetranacci_poly(-2, j), -tetranacci_poly(-2, -j))
        assert verify_identity(
            tetranacci_poly(-1, j),
            tetranacci_poly(-2, j - 1) - eta * tetranacci_poly(-2, j))
        assert verify_identity(
            tetranacci_poly(0, j),
            eta * tetranacci_poly(-2, j + 1) - tetranacci_poly(-2, j + 2))
        assert verify_identity(tetranacci_poly(1, j), -tetranacci_poly(-2, j + 1))


def test_distinct_polynomials_differ():
    assert not verify_identity(tetranacci_poly(0, 5), tetranacci_poly(1, 5))
    a = tetranacci_poly(0, 5).evaluate(1.0, 1.0)
    b = tetranacci_poly(1, 5).evaluate(1.0, 1.0)
    assert a != b


def test_numeric_agreement_with_recursion():
    c = Coefficients(0.7 - 0.2j, -1.1 + 0.4j)
    for i in range(-2, 2):
        for j in range(-10, 11):
            exact = tetranacci_poly(i, j).evaluate(c.zeta, c.eta)
            ref = basic_tetranacci_ref(i, j, c)
            assert abs(exact - ref) <= 1e-10 * max(1.0, abs(ref))


def test_superposition_with_integer_weights():
    from tetranacci.recurrence import InitialValues, eval_range
    weights = (3, -2, 5, 7)
    c = Coefficients(2, -1)
    w = eval_range(InitialValues(weights), c, -10, 10)
    for j in range(-10, 11):
        combo = BiPoly.zero()
        for i, g_i in zip((-2, -1, 0, 1), weights):
            combo = combo + tetranacci_poly(i, j).scale(g_i)
        assert combo.evaluate(2, -1) == w.value(j)


def test_render_canonical():
    p = BiPoly.zeta() * BiPoly.zeta() + BiPoly.eta().scale(-1) + BiPoly.const(3)
    text = p.render()
    assert "zeta" in text and "eta" in text
    # grlex: highest total degree first, zeta before eta
    assert text.index("zeta") < text.index("eta")
    assert BiPoly.zero().render() == "0"
