"""Trainable layers assembled from the autodiff primitives: embedding, GRU,
FC, CIM attention, cross-entropy, and the AdaDelta update."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigMismatch, InvalidValue, ShapeMismatch

PROB_FLOOR = 1e-12


class Parameter(Tensor):
    """A trainable tensor carrying its AdaDelta accumulators.

    grad_rows holds the sorted rows of grad that can be nonzero when
    embedding_sequence wrote the whole gradient, and None otherwise.
    """

    __slots__ = ("name", "acc_grad_sq", "acc_delta_sq", "grad_rows")

    def __init__(self, data, name=""):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.acc_grad_sq = np.zeros_like(self.data)
        self.acc_delta_sq = np.zeros_like(self.data)
        self.grad_rows = None

    def _accumulate(self, g):
        self.grad_rows = None
        super()._accumulate(g)


class ParameterSet(dict):
    """Named parameters; behaves as a dict name -> Parameter."""

    def add(self, name, data) -> Parameter:
        p = Parameter(data, name=name)
        self[name] = p
        return p

    def zero_grad(self):
        for p in self.values():
            p.grad = None
            p.grad_rows = None

    def copy_values(self) -> dict[str, np.ndarray]:
        return {k: p.data.copy() for k, p in self.items()}

    def load_values(self, values: dict[str, np.ndarray]):
        got = {k: v.shape for k, v in values.items()}
        want = {k: p.data.shape for k, p in self.items()}
        if got != want:
            bad = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
            raise ConfigMismatch(f"parameters {bad} missing, unexpected or of another shape")
        for k, v in values.items():
            self[k].data = v.copy()


def embedding_sequence(E: Tensor, posts, mask: np.ndarray) -> Tensor:
    """ad.embedding_lookup of every real post as one (T, D) node; padded rows
    and empty posts are zero.

    posts is a sequence of T sparse vectors with `indices` and `values`.
    """
    T, D = len(posts), E.data.shape[1]
    real = [t for t in range(T) if mask[t] and posts[t].indices.size]
    if not real:
        return Tensor(np.zeros((T, D)))
    idx = np.concatenate([posts[t].indices for t in real])
    vals = np.concatenate([posts[t].values for t in real])
    rows = np.repeat(real, [posts[t].indices.size for t in real])
    weights = np.zeros((T, idx.size))  # row t holds post t's values
    weights[rows, np.arange(idx.size)] = vals
    out_data = weights @ E.data[idx]

    def bwd(g):
        gE = np.zeros(E.data.shape)
        np.add.at(gE, idx, vals[:, None] * g[rows])
        if E.grad is None:
            # the first contribution becomes the gradient itself; a Parameter
            # also records the rows it touches, so AdaDelta can skip the rest
            # (sorted unique rows; np.unique would import numpy.ma, +1.7 MB RSS)
            E.grad = gE
            if isinstance(E, Parameter):
                E.grad_rows = np.flatnonzero(np.bincount(idx, minlength=E.data.shape[0]))
        else:
            E._accumulate(gE)

    return Tensor(out_data, parents=(E,), backward=bwd)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def fc(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Affine layer x @ W + b; broadcasts the bias over rows of a 2-D input."""
    return x @ W + b


@dataclass
class HiddenSequence:
    """Stacked per-step hidden states with a validity mask; padded rows are zero."""

    states: Tensor       # (T, E)
    mask: np.ndarray     # (T,) bool


def gru_lockstep(paths) -> list[HiddenSequence]:
    """gru_step (the tape oracle in tests/oracles.py) over the real rows of
    several paths, one HiddenSequence each.

    A path is an (X, mask, weights) triple: a (T, D) input, its (T,) mask and
    gru_step's six weights. Paths of one hidden width step together: their
    carried states are stacked, and each step makes one batched matmul per gate
    group over the paths that still have real steps. Each such group is one
    tape node whose backward is hand-written backpropagation through time.
    Padded rows emit zero states and do not advance the carried state.
    """
    masks = [np.asarray(mask, dtype=bool) for _, mask, _ in paths]
    reals = [np.flatnonzero(mask) for mask in masks]
    states: list = [None] * len(paths)
    groups: dict[int, list[int]] = {}
    for i, ((X, _, weights), mask) in enumerate(zip(paths, masks)):
        D, E = weights[0].data.shape
        if X.data.shape != (mask.size, D):
            raise ShapeMismatch(f"GRU path {i}: input {X.data.shape} vs mask {mask.shape} "
                                f"and weight {weights[0].data.shape}")
        if reals[i].size:
            groups.setdefault(E, []).append(i)
        else:
            states[i] = Tensor(np.zeros((mask.size, E)))
    for group in groups.values():
        group.sort(key=lambda i: -reals[i].size)  # the paths still stepping are a prefix
        outs = _gru_group([paths[i][0] for i in group], [reals[i] for i in group],
                          [tuple(paths[i][2]) for i in group])
        for i, out in zip(group, outs):
            states[i] = out
    return [HiddenSequence(states=s, mask=mask) for s, mask in zip(states, masks)]


def _gru_group(Xs, reals, weights) -> list[Tensor]:
    """The states of paths of one hidden width, longest first; see gru_lockstep.

    A one-path group returns its tape node. Otherwise the node's rows stack the
    paths' states, each path reads its own rows, and a path whose rows get no
    gradient passes none to its input and weights.
    """
    P, E = len(Xs), weights[0][0].data.shape[1]
    steps = [real.size for real in reals]
    n = steps[0]
    # phases: in steps lo..hi-1 the first a paths still step
    bounds = [0] + steps[::-1]
    phases = [(P - j, lo, hi) for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo]
    Xr = [X.data[real] for X, real in zip(Xs, reals)]
    # z and r share one matmul: column blocks [:E] are z, [E:] are r
    U_zr = [np.concatenate([w[0].data, w[2].data], axis=1) for w in weights]
    W_zr = np.array([np.concatenate([w[1].data, w[3].data], axis=1) for w in weights])
    Wh = np.array([w[5].data for w in weights])
    # step-major arrays: [k, p] holds path p's real step k as one (1, width) row,
    # so that np.matmul steps all paths at once; ops write in place (out=)
    nP_zr, P_h = np.zeros((n, P, 1, 2 * E)), np.zeros((n, P, 1, E))
    for p, (x, m, w) in enumerate(zip(Xr, steps, weights)):
        nP_zr[:m, p, 0], P_h[:m, p, 0] = -(x @ U_zr[p]), x @ w[4].data
    H = np.zeros((n + 1, P, 1, E))  # H[k, p] is the state entering path p's real step k
    ZR = np.zeros((n, P, 1, 2 * E))
    F = np.zeros((n, P, 1, E))      # candidate
    A = np.zeros((n, P, 1, E))      # r @ W_h
    Z, R = ZR[..., :E], ZR[..., E:]
    for a, lo, hi in phases:
        live = slice(None, a) if a > 1 else 0  # a lone path steps as plain 2-D rows
        W_zr_a, Wh_a = W_zr[live], Wh[live]
        views = (X[lo:hi, live] for X in (H[:-1], H[1:], ZR, Z, R, F, A, nP_zr, P_h))
        for h, h_next, zr, z, r, f, ra, nq_zr, q_h in zip(*views):
            # zr = 1 / (1 + exp(-(P_zr + h @ W_zr))), as -(p + q) == -p - q exactly
            np.matmul(h, W_zr_a, out=zr)
            np.subtract(nq_zr, zr, out=zr)
            np.exp(zr, out=zr)
            zr += 1.0
            np.divide(1.0, zr, out=zr)
            np.matmul(r, Wh_a, out=ra)
            np.multiply(h, ra, out=f)
            f += q_h
            np.tanh(f, out=f)
            np.subtract(1.0, z, out=h_next)  # h_next = (1 - z) * h + z * f
            h_next *= h
            h_next += z * f
    offsets = list(itertools.accumulate((X.data.shape[0] for X in Xs), initial=0))
    data = np.zeros((offsets[-1], E))
    for p, (real, m) in enumerate(zip(reals, steps)):
        data[offsets[p] + real] = H[1:m + 1, p, 0]
    read = [P == 1] * P     # paths whose rows reached the backward

    def bwd(g):
        G = np.zeros((n, P, 1, E))
        for p, (real, m) in enumerate(zip(reals, steps)):
            G[:m, p, 0] = g[offsets[p] + real]
        # whole-array factors, each the same per element as its per-step form
        one_zr, one_ff, f_h = 1.0 - ZR, 1.0 - F * F, F - H[:-1]
        one_z, one_r = one_zr[..., :E], one_zr[..., E:]
        dP_zr = np.empty((n, P, 1, 2 * E))
        dP_h = np.empty((n, P, 1, E))
        dA = np.empty((n, P, 1, E))      # gradient of r @ W_h
        dZ, dR = dP_zr[..., :E], dP_zr[..., E:]
        dh = np.zeros((P, 1, E))
        for a, lo, hi in phases[::-1]:
            live = slice(None, a) if a > 1 else 0
            W_zr_T, Wh_T = W_zr[live].swapaxes(-1, -2), Wh[live].swapaxes(-1, -2)
            d = dh[live]
            views = (X[lo:hi, live][::-1] for X in (H, Z, R, A, G, one_z, one_r, one_ff, f_h,
                                                 dP_zr, dP_h, dA, dZ, dR))
            for h, z, r, ra, g_k, o_z, o_r, o_ff, fh, dp_zr, dp_h, da, dz, dr in zip(*views):
                d += g_k
                np.multiply(d, z, out=dp_h)  # dp_h = d * z * (1 - f * f)
                dp_h *= o_ff
                dprev = d * o_z
                np.multiply(dp_h, h, out=da)
                dprev += dp_h * ra
                np.matmul(da, Wh_T, out=dr)
                dr *= r                      # dr = dr * r * (1 - r)
                dr *= o_r
                np.multiply(d, fh, out=dz)   # dz = d * (f - h) * z * (1 - z)
                dz *= z
                dz *= o_z
                np.matmul(dp_zr, W_zr_T, out=d)  # dh = dprev + dp_zr @ W_zr^T
                d += dprev
        for p, (X, real, m, w) in enumerate(zip(Xs, reals, steps, weights)):
            if not read[p]:
                continue
            x, dzr, dph, Hp = Xr[p], dP_zr[:m, p, 0], dP_h[:m, p, 0], H[:m, p, 0]
            grads = (x.T @ dzr[:, :E], Hp.T @ dzr[:, :E], x.T @ dzr[:, E:],
                     Hp.T @ dzr[:, E:], x.T @ dph, R[:m, p, 0].T @ dA[:m, p, 0])
            for wt, gw in zip(w, grads):
                if wt.requires_grad:
                    wt._accumulate(gw)
            if X.requires_grad:
                gx = np.zeros_like(X.data)
                gx[real] = dzr @ U_zr[p].T + dph @ w[4].data.T
                X._accumulate(gx)

    node = Tensor(data, parents=tuple(t for X, w in zip(Xs, weights) for t in (X,) + w),
                  backward=bwd)
    if P == 1:
        return [node]

    def rows(p):
        lo, hi = offsets[p], offsets[p + 1]

        def bwd_rows(g):
            if node.grad is None:
                node.grad = np.zeros(data.shape)
            node.grad[lo:hi] += g
            read[p] = True

        return Tensor(data[lo:hi], parents=(node,), backward=bwd_rows)

    return [rows(p) for p in range(P)]


def gru_unroll(inputs: list[Tensor], mask: np.ndarray, *weights,
               form: str = "paper") -> HiddenSequence:
    """gru_lockstep of one path: 1-D step inputs, their mask and gru_step's six weights.

    form names the GRU and may only be the paper's; the benchmark's probes pass it.
    """
    if form != "paper":
        raise ConfigMismatch(f"unknown GRU form {form!r}")
    return gru_lockstep([(ad.stack_rows(inputs), mask, weights)])[0]


def cim_attention(H_l: HiddenSequence, H_u: HiddenSequence):
    """Pairwise contextual inter-modal attention between two hidden sequences.

    Returns the (T, 2E) fused sequence and a trace of the intermediate
    matching/attention matrices.
    """
    Tl, El = H_l.states.data.shape
    Tu, Eu = H_u.states.data.shape
    if El != Eu:
        raise ShapeMismatch(f"hidden dims differ: {El} vs {Eu}")
    if Tl != Tu or not np.array_equal(H_l.mask, H_u.mask):
        raise ShapeMismatch("sequence lengths/masks differ between modalities")
    mask = H_l.mask
    M1 = H_l.states @ H_u.states.T
    M2 = H_u.states @ H_l.states.T
    N1 = ad.masked_row_softmax(M1, mask)
    N2 = ad.masked_row_softmax(M2, mask)
    O1 = N1 @ H_u.states
    O2 = N2 @ H_l.states
    A1 = O1 * H_l.states
    A2 = O2 * H_u.states
    H_ul = ad.concat([A1, A2], axis=1)
    trace = {"M1": M1.data, "M2": M2.data, "N1": N1.data, "N2": N2.data,
             "O1": O1.data, "O2": O2.data, "A1": A1.data, "A2": A2.data}
    return HiddenSequence(states=H_ul, mask=mask), trace


def cross_entropy(z: Tensor, label: int) -> Tensor:
    """-ln max(z[label], PROB_FLOOR); a floored probability passes no gradient."""
    tau = z.data.shape[0]
    if not 0 <= label < tau:
        raise InvalidValue(f"label {label} outside 0..{tau - 1}")
    p = np.maximum(z.data[label], PROB_FLOOR)

    def bwd(g):
        gz = np.zeros_like(z.data)
        gz[label] = (-g / p) * (z.data[label] > PROB_FLOOR)
        z._accumulate(gz)

    return Tensor(-np.log(p), parents=(z,), backward=bwd)


def adadelta_step(params: ParameterSet, rho: float = 0.95, eps: float = 1e-6):
    """Apply one AdaDelta update to every parameter with a gradient, then
    zero the gradient buffers.

    Both accumulators decay over all rows; the update itself runs over the
    rows the gradient names (grad_rows), or all rows. That is bit-equal to
    updating every row, which on a zero-gradient row computes acc*rho + 0.0
    and data + (-0.0).
    """
    for p in params.values():
        if p.grad is None:
            continue
        rows = slice(None) if p.grad_rows is None else p.grad_rows
        g = p.grad[rows]
        p.acc_grad_sq *= rho
        p.acc_grad_sq[rows] += (1.0 - rho) * g * g
        delta = -np.sqrt(p.acc_delta_sq[rows] + eps) / np.sqrt(p.acc_grad_sq[rows] + eps) * g
        p.acc_delta_sq *= rho
        p.acc_delta_sq[rows] += (1.0 - rho) * delta * delta
        p.data[rows] += delta
    params.zero_grad()

