"""Reference implementations that more than one test module checks against."""

import numpy as np
from scipy.integrate import quad

from cascadefuse import autodiff as ad
from cascadefuse.autodiff import Tensor
from cascadefuse.layers import gru_step
from cascadefuse.pointprocess import KernelParams

P = KernelParams()


def phi_ref(s, params=P):
    """Independent scalar evaluation of the memory kernel."""
    if s <= params.s0:
        return params.c
    return params.c * (s / params.s0) ** (-(1 + params.theta))


def quad_oracle(t_i, t, params=P, tol=1e-10):
    """Adaptive-quadrature oracle for the denominator integral."""
    lo = max(t_i, t / 2)
    if lo >= t:
        return 0.0
    val, _ = quad(lambda s: max(1 - 2 * (t - s) / t, 0) * phi_ref(s - t_i, params),
                  lo, t, points=[t_i + params.s0] if lo < t_i + params.s0 < t else None,
                  epsabs=tol, epsrel=tol, limit=200)
    return val


def gru_chain(X, mask, *weights, form="paper"):
    """The tape oracle: one gru_step per real row of X, each reading its row
    through X.T @ one-hot so that X's gradient flows through the tape."""
    T, E = X.data.shape[0], weights[0].data.shape[1]
    h = zero = Tensor(np.zeros(E))
    rows = []
    for t in range(T):
        if mask[t]:
            h = gru_step(X.T @ Tensor(np.eye(T)[t]), h, *weights, form=form)
        rows.append(h if mask[t] else zero)
    return ad.stack_rows(rows)
