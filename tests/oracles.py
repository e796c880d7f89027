"""Reference implementations that more than one test module checks against."""

import numpy as np
from scipy.integrate import quad

from cascadefuse import autodiff as ad
from cascadefuse.autodiff import Tensor
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


def sigmoid(x: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def bwd(g):
        x._accumulate(g * out_data * (1.0 - out_data))

    return Tensor(out_data, parents=(x,), backward=bwd)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def bwd(g):
        x._accumulate(g * (1.0 - out_data * out_data))

    return Tensor(out_data, parents=(x,), backward=bwd)


def gru_step(x: Tensor, h_prev: Tensor, U_z, W_z, U_r, W_r, U_h, W_h) -> Tensor:
    """One GRU update on the tape, the paper's form, whose candidate is gated as
    h_prev * (r @ W_h): the reference of layers.gru_lockstep."""
    z = sigmoid(x @ U_z + h_prev @ W_z)
    r = sigmoid(x @ U_r + h_prev @ W_r)
    f = tanh(x @ U_h + h_prev * (r @ W_h))
    return (z * -1.0 + 1.0) * h_prev + z * f


def gru_chain(X, mask, *weights):
    """The tape oracle: one gru_step per real row of X, each reading its row
    through X.T @ one-hot so that X's gradient flows through the tape."""
    T, E = X.data.shape[0], weights[0].data.shape[1]
    h = zero = Tensor(np.zeros(E))
    rows = []
    for t in range(T):
        if mask[t]:
            h = gru_step(X.T @ Tensor(np.eye(T)[t]), h, *weights)
        rows.append(h if mask[t] else zero)
    return ad.stack_rows(rows)
