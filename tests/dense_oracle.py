"""The dense T(E) for the tests: the trace formula Tr{Gamma_L G^r Gamma_R
G^a} from `green_1n_dense` at every energy, where `transmission` takes it
only where the exact boundary solve has no answer."""

from tetranacci.transport import _twice, green_1n_dense


def transmission_dense(e, s):
    """With Gamma_L = 2 gamma_L e_1 e_1^T and Gamma_R = w w^T, w = sqrt(2
    gamma_R) e_N, the trace is 2 gamma_L |(G^r w)_1|^2 = 4 gamma_L gamma_R
    |G^r_{1N}|^2, in the two factors of `transmission`."""
    g = abs(green_1n_dense(e, s))
    return _twice(s.left.gamma, g) * _twice(s.right.gamma, g)
