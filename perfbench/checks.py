"""Output checks. Each compares the program's output with a computation made
here, apart from the program, or with a property the method must have.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np
from scipy.integrate import quad

from cascadefuse import layers, model
from cascadefuse.pointprocess import SECONDS_PER_HOUR

ESTIMATOR_RTOL = 1e-7   # infectiousness_series vs. quadrature
TFIDF_RTOL = 1e-12      # tf-idf vs. the recomputation
GRAD_RTOL = 1e-5        # backward vs. central finite differences
GRAD_WEIGHTS_PER_GROUP = 2
ADADELTA_RTOL = 1e-12   # adadelta_step vs. the recomputed update
RHO, EPS = 0.95, 1e-6    # the AdaDelta constants passed to adadelta_step
PROB_SUM_TOL = 1e-12    # |sum of class probabilities - 1|


# --- simulator -------------------------------------------------------------

def check_cascades(stories, horizon_s: float) -> list[str]:
    """Times sorted, the source at t=0, every time within the horizon."""
    problems = []
    for s in stories:
        t = np.array([p.t for p in s.posts])
        if t.size == 0 or t[0] != 0.0:
            problems.append(f"{s.id}: source post not at t=0")
        if np.any(np.diff(t) < 0):
            problems.append(f"{s.id}: post times not sorted")
        if np.any(t < 0) or np.any(t > horizon_s):
            problems.append(f"{s.id}: post time outside [0, {horizon_s}]")
    return problems


def check_same(a, b, what: str) -> list[str]:
    return [] if a == b else [f"{what} differ"]


# --- point-process estimator -----------------------------------------------

def _phi(u: float, kernel) -> float:
    """Memory kernel; u -> 0+ gives c."""
    if u <= kernel.s0:
        return kernel.c
    return kernel.c * (u / kernel.s0) ** (-(1.0 + kernel.theta))


def reference_infectiousness(times, followers, t: float, kernel) -> float:
    """Estimator at t seconds: triangular-kernel numerator over reshares and
    quadrature denominators, one integral per post before t."""
    num = sum(max(1.0 - 2.0 * (t - ti) / t, 0.0) for ti in times[1:] if ti <= t)
    if num == 0.0:
        return 0.0
    den = 0.0
    for ti, ni in zip(times, followers):
        if ti >= t:
            continue
        lo = max(ti, t / 2.0)
        brk = ti + kernel.s0
        val, _ = quad(lambda s: (1.0 - 2.0 * (t - s) / t) * _phi(s - ti, kernel), lo, t,
                      points=[brk] if lo < brk < t else None,
                      epsabs=0.0, epsrel=1e-12, limit=200)
        den += ni * val
    return num / den if den > 0.0 else 0.0  # the program degrades to 0 here


def check_infectiousness(story, values, grid_hours, hour_indices, kernel) -> list[str]:
    times = [p.t for p in story.posts]
    followers = [p.followers for p in story.posts]
    problems = []
    for k in hour_indices:
        h = float(grid_hours[k])
        want = reference_infectiousness(times, followers, h * SECONDS_PER_HOUR, kernel)
        got = float(values[k])
        if not (math.isfinite(got) and abs(got - want) <= ESTIMATOR_RTOL * abs(want)):
            problems.append(f"{story.id} hour {h:g}: infectiousness {got!r} != {want!r}")
    return problems


# --- features ---------------------------------------------------------------

def check_features(train_stories, vocab, K: int, samples) -> list[str]:
    """Recompute the vocabulary and the tf-idf of sampled posts.

    The benchmark's texts are lowercase ASCII words joined by single spaces,
    so str.split is an exact tokenizer for them. `samples` holds
    (text, SparseVec) pairs from the featurized bundles.
    """
    docs = [Counter(p.text.split()) for s in train_stories for p in s.posts]
    n_docs = len(docs)
    df: Counter = Counter()
    best_tf: dict[str, int] = {}
    for doc in docs:
        for w, tf in doc.items():
            df[w] += 1
            best_tf[w] = max(best_tf.get(w, 0), tf)
    idf = {w: math.log((1 + n_docs) / (1 + d)) + 1.0 for w, d in df.items()}
    problems = []
    if vocab.size != min(K, len(df)):
        problems.append(f"vocabulary size {vocab.size} != min({K}, {len(df)})")
    ranked = tuple(sorted(idf, key=lambda w: (-best_tf[w] * idf[w], w))[:K])
    if vocab.terms != ranked:
        problems.append("vocabulary terms differ from the top-K tf-idf ranking")
    index = {w: i for i, w in enumerate(vocab.terms)}
    for text, vec in samples:
        counts = Counter(w for w in text.split() if w in index)
        want = {index[w]: c * idf[w] for w, c in counts.items()}
        got = dict(zip(vec.indices.tolist(), vec.values.tolist()))
        if set(got) != set(want) or any(
                abs(got[i] - want[i]) > TFIDF_RTOL * abs(want[i]) for i in want):
            problems.append(f"tf-idf of post {text[:30]!r}... differs")
    return problems


# --- training ---------------------------------------------------------------

def _loss(bundle, label, params, config, rng_seed):
    z, _ = model.forward(bundle, params, config, training=True,
                         rng=np.random.default_rng(rng_seed))
    return layers.cross_entropy(z, label)


def backward_gradients(bundle, label: int, params, config) -> dict:
    """The program's gradient of one story's training loss (fixed dropout)."""
    params.zero_grad()
    _loss(bundle, label, params, config, 0).backward()
    grads = {k: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
             for k, p in params.items()}
    params.zero_grad()
    return grads


def check_gradients(grads: dict, bundle, label: int, params, config) -> list[str]:
    """Backward vs. central differences on the GRAD_WEIGHTS_PER_GROUP
    largest-gradient weights of every parameter group (embed, ling, user,
    temp, f2, out), with the dropout of `backward_gradients`.

    A step that straddles a kink (relu, max-pool, clamp) is retried with a
    ten times smaller step before it counts as a mismatch.
    """
    groups: dict[str, list] = {}
    for name, g in grads.items():
        flat = np.abs(g).ravel()
        for i in np.argsort(flat)[-GRAD_WEIGHTS_PER_GROUP:]:
            groups.setdefault(name.split("_")[0], []).append((flat[i], name, int(i)))
    problems = []
    for candidates in groups.values():
        for _, name, i in sorted(candidates, reverse=True)[:GRAD_WEIGHTS_PER_GROUP]:
            p, g = params[name], grads[name].flat[i]
            orig = p.data.flat[i]
            for h in (1e-6, 1e-7):
                p.data.flat[i] = orig + h
                up = float(_loss(bundle, label, params, config, 0).data)
                p.data.flat[i] = orig - h
                down = float(_loss(bundle, label, params, config, 0).data)
                p.data.flat[i] = orig
                fd = (up - down) / (2.0 * h)
                if abs(fd - g) <= GRAD_RTOL * max(abs(fd), abs(g)) + 1e-9:
                    break
            else:
                problems.append(f"{name}[{i}]: backward {g!r} vs finite difference {fd!r}")
    return problems


def adadelta_update(bundle, label: int, config):
    """Run two AdaDelta steps on fresh weights.

    Returns the state each parameter had before the second step (weights,
    gradient, both accumulators) and the parameters after it.
    """
    params = model.init_params(config)
    _loss(bundle, label, params, config, 0).backward()
    layers.adadelta_step(params, rho=RHO, eps=EPS)
    _loss(bundle, label, params, config, 1).backward()
    before = {k: (p.data.copy(), p.grad.copy(), p.acc_grad_sq.copy(), p.acc_delta_sq.copy())
              for k, p in params.items() if p.grad is not None}
    layers.adadelta_step(params, rho=RHO, eps=EPS)
    return before, params


def check_adadelta(before: dict, params) -> list[str]:
    """The step recomputed from its gradient and the accumulators it started from."""
    problems = []
    for k, (x, g, eg, ed) in before.items():
        eg = RHO * eg + (1.0 - RHO) * g * g
        delta = -np.sqrt(ed + EPS) / np.sqrt(eg + EPS) * g
        ed = RHO * ed + (1.0 - RHO) * delta * delta
        p = params[k]
        for what, got, want in (("weights", p.data, x + delta),
                                ("squared-gradient average", p.acc_grad_sq, eg),
                                ("squared-update average", p.acc_delta_sq, ed)):
            if not np.allclose(got, want, rtol=ADADELTA_RTOL, atol=0.0):
                problems.append(f"{k}: AdaDelta {what} differ from the recomputation")
        if p.grad is not None:
            problems.append(f"{k}: gradient not cleared after the step")
    return problems


def check_training(history, epochs: int, params) -> list[str]:
    problems = []
    if len(history.train_loss) != epochs:
        problems.append(f"trained {len(history.train_loss)} epochs, expected {epochs}")
    if not all(math.isfinite(v) for v in history.train_loss + history.val_loss):
        problems.append("non-finite training or validation loss")
    if not all(np.all(np.isfinite(p.data)) for p in params.values()):
        problems.append("non-finite trained weights")
    return problems


# --- scoring ----------------------------------------------------------------

def eval_probabilities(test_bundles, params, config, temporal_scaler) -> np.ndarray:
    return np.array([model.forward(temporal_scaler.apply(b), params, config)[0].data
                     for b in test_bundles])


def check_scores(probs: np.ndarray, labels, report) -> list[str]:
    """Probabilities finite and summing to 1; the report agrees with them."""
    problems = []
    if not np.all(np.isfinite(probs)):
        return ["non-finite class probabilities"]
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > PROB_SUM_TOL):
        problems.append("class probabilities do not sum to 1")
    y = np.asarray(labels)
    accuracy = float(np.mean(np.argmax(probs, axis=1) == y))
    if accuracy != report.accuracy:
        problems.append(f"report accuracy {report.accuracy} != {accuracy} from probabilities")
    loss = float(np.mean(-np.log(np.maximum(probs[np.arange(len(y)), y], layers.PROB_FLOOR))))
    if not math.isclose(loss, report.loss, rel_tol=1e-12):
        problems.append(f"report loss {report.loss} != {loss} from probabilities")
    return problems


# --- digests ----------------------------------------------------------------

def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def cascade_digest(stories) -> str:
    return digest(np.array([[p.t, p.followers] for p in s.posts]) for s in stories)

