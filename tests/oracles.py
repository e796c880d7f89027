"""Reference implementations that the tests check the library against."""

import math
from collections import Counter

import numpy as np
from scipy.integrate import quad

from cascadefuse import autodiff as ad
from cascadefuse.autodiff import Tensor
from cascadefuse.features import SparseVec, Vocabulary, tokenize
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


def reference_vocabulary(corpus, K):
    """Top-K tf-idf vocabulary with one Counter per post: df and the largest
    per-post tf of each term, then a sort by (-tf * idf, term)."""
    docs = [tokenize(p.text) for story in corpus for p in story.posts]
    n_docs = len(docs)
    df = Counter()
    best_tf = {}
    for doc in docs:
        counts = Counter(doc)
        df.update(counts.keys())
        for w, tf in counts.items():
            if tf > best_tf.get(w, 0):
                best_tf[w] = tf
    idf = {w: math.log((1 + n_docs) / (1 + d)) + 1.0 for w, d in df.items()}
    scored = sorted(idf, key=lambda w: (-best_tf[w] * idf[w], w))
    terms = tuple(scored[:K])
    return Vocabulary(terms=terms, idf=np.array([idf[w] for w in terms]))


def reference_vectorize_post(tokens, vocab):
    """tf * idf of one post's in-vocabulary tokens, from a Counter."""
    counts = Counter(map(vocab.index.get, tokens))
    counts.pop(None, None)
    if not counts:
        return SparseVec(np.empty(0, dtype=np.int64), np.empty(0), vocab.size)
    indices, tfs = zip(*sorted(counts.items()))
    indices = np.array(indices, dtype=np.int64)
    return SparseVec(indices=indices, values=np.array(tfs, dtype=float) * vocab.idf[indices],
                     dim=vocab.size)
