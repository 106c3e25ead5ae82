"""Kronecker-delta initial data, from which the tests replay the four basic
sequences T_i (the 1 at g_i, i in -2..1) with `eval_range` and `xi_closed`."""

from tetranacci.recurrence import InitialValues


def unit(i: int) -> InitialValues:
    """Initial values g_-2..g_1 with the 1 at index i in -2..1."""
    return InitialValues(tuple(int(k == i + 2) for k in range(4)))
