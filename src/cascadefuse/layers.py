"""Trainable layers assembled from the autodiff primitives: embedding, GRU,
FC, CIM attention, cross-entropy, and the AdaDelta update."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigMismatch, DimensionalityMismatch, InvalidClass, ShapeMismatch

PROB_FLOOR = 1e-12
GRU_FORMS = ("paper", "standard")


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


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    shape = (fan_in, fan_out) if shape is None else shape
    return rng.uniform(-limit, limit, size=shape)


def fc(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Affine layer x @ W + b; broadcasts the bias over rows of a 2-D input."""
    if x.data.shape[-1] != W.data.shape[0]:
        raise ShapeMismatch(f"fc: input dim {x.data.shape[-1]} vs weight {W.data.shape}")
    return x @ W + b


def gru_step(x: Tensor, h_prev: Tensor, U_z, W_z, U_r, W_r, U_h, W_h,
             form: str = "paper") -> Tensor:
    """One GRU update.

    form="paper" gates the candidate as h_prev * (W_h @ r); form="standard"
    uses the conventional W_h @ (r * h_prev).
    """
    z = ad.sigmoid(x @ U_z + h_prev @ W_z)
    r = ad.sigmoid(x @ U_r + h_prev @ W_r)
    if form == "paper":
        f = ad.tanh(x @ U_h + h_prev * (r @ W_h))
    elif form == "standard":
        f = ad.tanh(x @ U_h + (r * h_prev) @ W_h)
    else:
        raise ConfigMismatch(f"unknown GRU form {form!r}")
    return (1.0 - z) * h_prev + z * f


@dataclass
class HiddenSequence:
    """Stacked per-step hidden states with a validity mask; padded rows are zero."""

    states: Tensor       # (T, E)
    mask: np.ndarray     # (T,) bool


def gru_sequence(X: Tensor, mask: np.ndarray, U_z, W_z, U_r, W_r, U_h, W_h,
                 form: str = "paper") -> HiddenSequence:
    """gru_step over the real rows of a (T, D) input, recorded as one tape node
    whose backward is hand-written backpropagation through time.

    Padded rows emit zero states and do not advance the carried state.
    """
    if form not in GRU_FORMS:
        raise ConfigMismatch(f"unknown GRU form {form!r}")
    mask = np.asarray(mask, dtype=bool)
    x = X.data
    if x.shape != (mask.size, U_z.data.shape[0]):
        raise ShapeMismatch(f"gru_sequence: input {x.shape} vs mask {mask.shape} "
                            f"and weight {U_z.data.shape}")
    real = np.flatnonzero(mask)
    n, E = real.size, U_z.data.shape[1]
    states = np.zeros((mask.size, E))
    if n == 0:
        return HiddenSequence(states=Tensor(states), mask=mask)
    paper = form == "paper"
    # z and r share one matmul: column blocks [:E] are z, [E:] are r
    U_zr = np.concatenate([U_z.data, U_r.data], axis=1)
    W_zr = np.concatenate([W_z.data, W_r.data], axis=1)
    Wh = W_h.data
    Xr = x[real]
    P_zr, P_h = Xr @ U_zr, Xr @ U_h.data
    H = np.zeros((n + 1, E))     # H[k] is the state entering real step k
    ZR = np.empty((n, 2 * E))
    F = np.empty((n, E))         # candidate
    A = np.empty((n, E))         # paper: r @ W_h; standard: r * h
    for k in range(n):
        h = H[k]
        zr = ZR[k] = 1.0 / (1.0 + np.exp(-(P_zr[k] + h @ W_zr)))
        z, r = zr[:E], zr[E:]
        if paper:
            a = A[k] = r @ Wh
            f = F[k] = np.tanh(P_h[k] + h * a)
        else:
            a = A[k] = r * h
            f = F[k] = np.tanh(P_h[k] + a @ Wh)
        H[k + 1] = (1.0 - z) * h + z * f
    states[real] = H[1:]
    weights = (U_z, W_z, U_r, W_r, U_h, W_h)

    def bwd(g):
        G = g[real]
        dP_zr = np.empty((n, 2 * E))
        dP_h = np.empty((n, E))
        dA = np.empty((n, E))        # paper only: gradient of r @ W_h
        W_zr_T, Wh_T = W_zr.T, Wh.T
        dh = np.zeros(E)
        for k in range(n - 1, -1, -1):
            dh = dh + G[k]
            h, z, r, f = H[k], ZR[k, :E], ZR[k, E:], F[k]
            dp_h = dP_h[k] = dh * z * (1.0 - f * f)
            dprev = dh * (1.0 - z)
            if paper:
                da = dA[k] = dp_h * h
                dprev += dp_h * A[k]
                dr = da @ Wh_T
            else:
                drh = dp_h @ Wh_T
                dr = drh * h
                dprev += drh * r
            dp_zr = dP_zr[k]
            dp_zr[:E] = dh * (f - h) * z * (1.0 - z)
            dp_zr[E:] = dr * r * (1.0 - r)
            dh = dprev + dp_zr @ W_zr_T
        Hp = H[:-1]
        dWh = ZR[:, E:].T @ dA if paper else A.T @ dP_h
        grads = (Xr.T @ dP_zr[:, :E], Hp.T @ dP_zr[:, :E],
                 Xr.T @ dP_zr[:, E:], Hp.T @ dP_zr[:, E:],
                 Xr.T @ dP_h, dWh)
        for w, gw in zip(weights, grads):
            if w.requires_grad:
                w._accumulate(gw)
        if X.requires_grad:
            gx = np.zeros_like(x)
            gx[real] = dP_zr @ U_zr.T + dP_h @ U_h.data.T
            X._accumulate(gx)

    return HiddenSequence(states=Tensor(states, parents=(X,) + weights, backward=bwd),
                          mask=mask)


def gru_unroll(inputs: list[Tensor], mask: np.ndarray, U_z, W_z, U_r, W_r, U_h, W_h,
               form: str = "paper") -> HiddenSequence:
    """gru_sequence over a list of 1-D step inputs."""
    return gru_sequence(ad.stack_rows(inputs), mask, U_z, W_z, U_r, W_r, U_h, W_h, form=form)


def cim_attention(H_l: HiddenSequence, H_u: HiddenSequence):
    """Pairwise contextual inter-modal attention between two hidden sequences.

    Returns the (T, 2E) fused sequence and a trace of the intermediate
    matching/attention matrices.
    """
    Tl, El = H_l.states.data.shape
    Tu, Eu = H_u.states.data.shape
    if El != Eu:
        raise DimensionalityMismatch(f"hidden dims differ: {El} vs {Eu}")
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
    """-ln z[label], with the probability floored at 1e-12."""
    tau = z.data.shape[0]
    if not 0 <= label < tau:
        raise InvalidClass(f"label {label} outside 0..{tau - 1}")
    return -ad.log(ad.clamp_min(ad.pick(z, label), PROB_FLOOR))


def adadelta_step(params: ParameterSet, rho: float = 0.95, eps: float = 1e-6):
    """Apply one AdaDelta update to every parameter with a gradient, then
    zero the gradient buffers.

    A parameter whose gradient names its rows (grad_rows) is updated on those
    rows only, in the dense branch's order; the other rows just decay their
    accumulators. That is bit-equal to the dense update, which on a zero row
    computes acc*rho + 0.0 and data + (-0.0).
    """
    for p in params.values():
        if p.grad is None:
            continue
        rows = p.grad_rows
        if rows is None:
            g = p.grad
            p.acc_grad_sq *= rho
            p.acc_grad_sq += (1.0 - rho) * g * g
            delta = -np.sqrt(p.acc_delta_sq + eps) / np.sqrt(p.acc_grad_sq + eps) * g
            p.acc_delta_sq *= rho
            p.acc_delta_sq += (1.0 - rho) * delta * delta
            p.data = p.data + delta
        else:
            g = p.grad[rows]
            p.acc_grad_sq *= rho
            acc_g = p.acc_grad_sq[rows]
            acc_g += (1.0 - rho) * g * g
            p.acc_grad_sq[rows] = acc_g
            delta = -np.sqrt(p.acc_delta_sq[rows] + eps) / np.sqrt(acc_g + eps) * g
            p.acc_delta_sq *= rho
            p.acc_delta_sq[rows] += (1.0 - rho) * delta * delta
            p.data[rows] += delta
    params.zero_grad()


CHECKPOINT_VERSION = 3


def save_checkpoint(path, params: ParameterSet, manifest: dict | None = None):
    """Write parameters as an .npz of float64 arrays plus a JSON manifest."""
    path = str(path)
    np.savez(path if path.endswith(".npz") else path + ".npz",
             **{k: p.data for k, p in params.items()})
    meta = {"version": CHECKPOINT_VERSION,
            "shapes": {k: list(p.data.shape) for k, p in params.items()}}
    meta.update(manifest or {})
    base = path[:-4] if path.endswith(".npz") else path
    with open(base + ".json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    path = str(path)
    base = path[:-4] if path.endswith(".npz") else path
    with open(base + ".json", encoding="utf-8") as f:
        try:
            meta = json.load(f)
        except ValueError as e:  # not JSON, or not UTF-8
            raise ConfigMismatch(f"checkpoint {base}.json is not valid JSON: {e}") from None
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ConfigMismatch(f"unsupported checkpoint version {meta.get('version')!r}"
                             f" (expected {CHECKPOINT_VERSION})")
    with np.load(base + ".npz") as npz:
        values = {k: npz[k] for k in npz.files}
    return values, meta
