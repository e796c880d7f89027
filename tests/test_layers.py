import tracemalloc

import numpy as np
import pytest

from cascadefuse import autodiff as ad
from cascadefuse.autodiff import Tensor
from cascadefuse.errors import ConfigMismatch, InvalidValue, ShapeMismatch
from cascadefuse.features import SparseVec
from cascadefuse.layers import (
    PROB_FLOOR,
    HiddenSequence,
    Parameter,
    ParameterSet,
    adadelta_step,
    cim_attention,
    cross_entropy,
    embedding_sequence,
    fc,
    glorot,
    gru_lockstep,
    gru_unroll,
)

from oracles import gru_chain, gru_step
from oracles import sigmoid as tape_sigmoid
from oracles import tanh as tape_tanh

rng = np.random.default_rng(1)


def sigmoid(x):
    return 1 / (1 + np.exp(-x))


def make_gru_weights(I, E, seed=2):
    g = np.random.default_rng(seed)
    names = ("Uz", "Wz", "Ur", "Wr", "Uh", "Wh")
    shapes = ((I, E), (E, E), (I, E), (E, E), (I, E), (E, E))
    return {n: Tensor(g.normal(size=s)) for n, s in zip(names, shapes)}


def gru_args(w):
    return (w["Uz"], w["Wz"], w["Ur"], w["Wr"], w["Uh"], w["Wh"])


def gru_sequence(X, mask, *weights):
    """gru_lockstep of one (T, D) input path."""
    return gru_lockstep([(X, mask, weights)])[0]


# --- fc ---

def test_fc_textbook_gradient():
    W = Parameter(rng.normal(size=(2, 2)))
    b = Parameter(np.zeros(2))
    x = np.array([1.5, -0.5])
    delta = np.array([2.0, 3.0])
    out = fc(Tensor(x), W, b)
    (out * Tensor(delta)).sum().backward()
    assert np.allclose(W.grad, np.outer(x, delta))
    assert np.allclose(b.grad, delta)


def test_fc_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        fc(Tensor(np.zeros(3)), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))


# --- gru_step ---

def test_gru_step_zero_input_zero_state():
    w = make_gru_weights(3, 2)
    h = gru_step(Tensor(np.zeros(3)), Tensor(np.zeros(2)), *gru_args(w))
    assert np.allclose(h.data, 0.0)


def test_gru_step_zero_state_reduction():
    # h_prev = 0 collapses the update to sigmoid(x U_z) * tanh(x U_h)
    w = make_gru_weights(3, 2)
    x = rng.normal(size=3)
    h = gru_step(Tensor(x), Tensor(np.zeros(2)), *gru_args(w))
    expected = sigmoid(x @ w["Uz"].data) * np.tanh(x @ w["Uh"].data)
    assert np.allclose(h.data, expected)


def test_gru_step_hand_evaluation():
    # independent scripted evaluation of the printed update formulas
    w = make_gru_weights(2, 2, seed=5)
    x = np.array([0.3, -0.7])
    hp = np.array([0.1, 0.4])
    z = sigmoid(x @ w["Uz"].data + hp @ w["Wz"].data)
    r = sigmoid(x @ w["Ur"].data + hp @ w["Wr"].data)
    f = np.tanh(x @ w["Uh"].data + hp * (r @ w["Wh"].data))
    expected = (1 - z) * hp + z * f
    got = gru_step(Tensor(x), Tensor(hp), *gru_args(w))
    assert np.allclose(got.data, expected, atol=1e-14)


def test_gru_gate_ranges():
    w = make_gru_weights(4, 3)
    x = rng.normal(size=4) * 5
    hp = rng.normal(size=3)
    z = tape_sigmoid(Tensor(x) @ w["Uz"] + Tensor(hp) @ w["Wz"]).data
    r = tape_sigmoid(Tensor(x) @ w["Ur"] + Tensor(hp) @ w["Wr"]).data
    r0 = tape_sigmoid(Tensor(np.zeros(3)))
    f = tape_tanh(Tensor(x) @ w["Uh"] + Tensor(hp) * (r0 @ w["Wh"])).data
    assert np.all((z > 0) & (z < 1)) and np.all((r > 0) & (r < 1))
    assert np.all((f > -1) & (f < 1))


# --- gru_unroll ---

def test_unroll_all_masked_is_zero():
    w = make_gru_weights(3, 2)
    seq = gru_unroll([Tensor(np.zeros(3))] * 4, np.zeros(4, dtype=bool), *gru_args(w))
    assert np.all(seq.states.data == 0)


def test_unroll_length_one_is_single_step():
    w = make_gru_weights(3, 2)
    x = rng.normal(size=3)
    seq = gru_unroll([Tensor(x)], np.array([True]), *gru_args(w))
    direct = gru_step(Tensor(x), Tensor(np.zeros(2)), *gru_args(w))
    assert np.allclose(seq.states.data[0], direct.data)


def test_unroll_matches_chained_steps():
    w = make_gru_weights(3, 2)
    xs = [rng.normal(size=3) for _ in range(3)]
    seq = gru_unroll([Tensor(x) for x in xs], np.ones(3, dtype=bool), *gru_args(w))
    h = Tensor(np.zeros(2))
    for t, x in enumerate(xs):
        h = gru_step(Tensor(x), h, *gru_args(w))
        assert np.allclose(seq.states.data[t], h.data)


def test_unroll_padded_positions_zero_and_frozen():
    w = make_gru_weights(3, 2)
    xs = [Tensor(rng.normal(size=3)) for _ in range(4)]
    mask = np.array([True, True, False, False])
    seq = gru_unroll(xs, mask, *gru_args(w))
    assert np.all(seq.states.data[2:] == 0)
    short = gru_unroll(xs[:2], np.ones(2, dtype=bool), *gru_args(w))
    assert np.allclose(seq.states.data[:2], short.states.data)


# --- one-path gru_lockstep (gru_sequence) vs the gru_step tape ---

def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("mask", [[1, 1, 1, 1, 1], [1, 1, 0, 1, 0, 0], [0, 1, 1, 0],
                                  [1], [0, 0, 0]])
def test_gru_sequence_matches_gru_step_chain(mask):
    mask = np.array(mask, dtype=bool)
    g = np.random.default_rng(len(mask) + 10 * mask.sum())
    D, E = 3, 4
    x = g.normal(size=(mask.size, D))
    w0 = [g.normal(size=s) * 0.7 for s in ((D, E), (E, E)) * 3]
    upstream = Tensor(g.normal(size=(mask.size, E)))

    def run(fn):
        X = Tensor(x, requires_grad=True)
        ws = [Parameter(w.copy()) for w in w0]
        states = fn(X, mask, *ws)
        if mask.any():
            (states * upstream).sum().backward()
        return states.data, [X.grad] + [w.grad for w in ws]

    got_states, got_grads = run(lambda *a: gru_sequence(*a).states)
    want_states, want_grads = run(gru_chain)
    assert got_states.shape == (mask.size, E)
    assert np.all(got_states[~mask] == 0)
    if not mask.any():
        assert np.all(got_states == 0) and all(gr is None for gr in got_grads)
        return
    assert rel_err(got_states, want_states) <= 1e-12
    for got, want in zip(got_grads, want_grads):
        assert rel_err(got, want) <= 1e-12


def test_gru_sequence_rejects_unknown_form_and_shapes():
    w = gru_args(make_gru_weights(3, 2))
    with pytest.raises(ConfigMismatch):
        gru_unroll([Tensor(np.zeros(3))] * 2, np.ones(2, dtype=bool), *w, form="bogus")
    with pytest.raises(ShapeMismatch):
        gru_sequence(Tensor(np.zeros((2, 3))), np.ones(3, dtype=bool), *w)
    with pytest.raises(ShapeMismatch):
        gru_sequence(Tensor(np.zeros((2, 4))), np.ones(2, dtype=bool), *w)


def test_gru_sequence_is_one_tape_node():
    w = [Parameter(v.data) for v in gru_args(make_gru_weights(3, 2))]
    seq = gru_sequence(Tensor(rng.normal(size=(6, 3))), np.ones(6, dtype=bool), *w)
    assert set(map(id, seq.states._parents)) >= set(map(id, w))
    assert all(p._parents == () for p in seq.states._parents)


# --- gru_lockstep vs the gru_step tape, path by path ---

def steps(n_real, n_pad=0):
    return [1] * n_real + [0] * n_pad


# (mask, D, E) per path; the loss reads every path, or only path 2
LOCKSTEP_CASES = {
    "47_28_28": [(steps(47), 1, 4), (steps(28, 2), 3, 4), (steps(28, 2), 5, 4)],
    "padded_and_empty": [([1, 1, 0, 1, 0, 0], 3, 4), ([0, 0, 0], 2, 4),
                         ([0, 1, 1, 0, 1, 1, 1], 2, 4), ([1], 3, 4)],
    "two_widths": [(steps(7), 2, 3), ([1, 1, 0, 1], 3, 5), (steps(5), 2, 3),
                   ([1, 0, 1], 4, 5), ([0, 0], 1, 5)],
}


@pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
@pytest.mark.parametrize("read", ["all", "path_2"])
def test_gru_lockstep_matches_gru_step_chain(case, read):
    g = np.random.default_rng(5)
    specs = [(np.array(m, dtype=bool), D, E) for m, D, E in LOCKSTEP_CASES[case]]
    xs = [g.normal(size=(m.size, D)) for m, D, _ in specs]
    w0 = [[g.normal(size=s) * 0.7 for s in ((D, E), (E, E)) * 3] for _, D, E in specs]
    ups = [Tensor(g.normal(size=(m.size, E))) for m, _, E in specs]
    read_paths = range(len(specs)) if read == "all" else [2]

    def run(fn):
        Xs = [Tensor(x, requires_grad=True) for x in xs]
        ws = [[Parameter(w.copy()) for w in path] for path in w0]
        states = fn([(X, m, w) for X, (m, _, _), w in zip(Xs, specs, ws)])
        sum((states[p] * ups[p]).sum() for p in read_paths).backward()
        return [s.data for s in states], [[X.grad] + [w.grad for w in wp]
                                          for X, wp in zip(Xs, ws)]

    got_states, got_grads = run(lambda paths: [s.states for s in gru_lockstep(paths)])
    want_states, want_grads = run(lambda paths: [gru_chain(X, m, *w) for X, m, w in paths])
    for (m, _, E), got, want in zip(specs, got_states, want_states):
        assert got.shape == (m.size, E) and np.all(got[~m] == 0)
        assert rel_err(got, want) <= 1e-12 if m.any() else np.all(got == 0)
    for p, (got, want) in enumerate(zip(got_grads, want_grads)):
        for gr, wr in zip(got, want):
            if p in read_paths and specs[p][0].any():
                assert rel_err(gr, wr) <= 1e-12
            else:
                assert gr is None and wr is None


def test_gru_lockstep_is_one_tape_node_per_width():
    specs = [(3, 4), (2, 4), (1, 6), (3, 4)]  # (D, E)
    ws = [[Parameter(v.data) for v in gru_args(make_gru_weights(D, E))] for D, E in specs]
    seqs = gru_lockstep([(Tensor(rng.normal(size=(5, D))), np.ones(5, dtype=bool), w)
                         for (D, _), w in zip(specs, ws)])
    nodes = [s.states._parents for s in seqs]
    assert nodes[0] == nodes[1] == nodes[3] and len(nodes[0]) == 1
    node = nodes[0][0]
    assert node.data.shape == (15, 4)
    assert set(map(id, node._parents)) >= {id(w) for i in (0, 1, 3) for w in ws[i]}
    assert all(p._parents == () for p in node._parents)
    # a one-path group is the node itself
    assert set(map(id, seqs[2].states._parents)) >= set(map(id, ws[2]))
    assert all(p._parents == () for p in seqs[2].states._parents)


def test_gru_lockstep_rejects_mismatched_shapes():
    w = gru_args(make_gru_weights(3, 2))
    good = (Tensor(np.zeros((2, 3))), np.ones(2, dtype=bool), w)
    with pytest.raises(ShapeMismatch, match="GRU path 1"):
        gru_lockstep([good, (Tensor(np.zeros((2, 4))), np.ones(2, dtype=bool), w)])


# --- cim attention ---

def hseq(data, mask=None):
    T = data.shape[0]
    return HiddenSequence(states=Tensor(data),
                          mask=np.ones(T, dtype=bool) if mask is None else mask)


def test_cim_single_position():
    hl = rng.normal(size=(1, 3))
    hu = rng.normal(size=(1, 3))
    fused, trace = cim_attention(hseq(hl), hseq(hu))
    assert np.allclose(trace["N1"], [[1.0]])
    assert np.allclose(fused.states.data[:, :3], hu * hl)
    assert np.allclose(fused.states.data[:, 3:], hl * hu)


def test_cim_zero_user_stream():
    hl = rng.normal(size=(3, 2))
    fused, trace = cim_attention(hseq(hl), hseq(np.zeros((3, 2))))
    assert np.all(trace["M1"] == 0)
    assert np.allclose(trace["N1"], 1 / 3)
    assert np.all(fused.states.data == 0)


def test_cim_hand_oracle_t3_e2():
    # independent matrix arithmetic with plain numpy
    hl = rng.normal(size=(3, 2))
    hu = rng.normal(size=(3, 2))
    m1 = hl @ hu.T
    n1 = np.exp(m1 - m1.max(axis=1, keepdims=True))
    n1 /= n1.sum(axis=1, keepdims=True)
    m2 = hu @ hl.T
    n2 = np.exp(m2 - m2.max(axis=1, keepdims=True))
    n2 /= n2.sum(axis=1, keepdims=True)
    expected = np.concatenate([(n1 @ hu) * hl, (n2 @ hl) * hu], axis=1)
    fused, _ = cim_attention(hseq(hl), hseq(hu))
    assert np.allclose(fused.states.data, expected, atol=1e-12)


def test_cim_identical_inputs_symmetric():
    h = rng.normal(size=(4, 3))
    fused, _ = cim_attention(hseq(h), hseq(h))
    assert np.allclose(fused.states.data[:, :3], fused.states.data[:, 3:])


def test_cim_rows_stochastic_with_mask():
    mask = np.array([True, True, False])
    fused, trace = cim_attention(hseq(rng.normal(size=(3, 2)), mask),
                                 hseq(rng.normal(size=(3, 2)), mask))
    assert np.allclose(trace["N1"].sum(axis=1), 1.0, atol=1e-9)
    assert np.all(trace["N1"][:, 2] == 0)


def test_cim_dimension_mismatch():
    with pytest.raises(ShapeMismatch, match="hidden dims differ: 3 vs 4"):
        cim_attention(hseq(np.zeros((2, 3))), hseq(np.zeros((2, 4))))


def test_cim_output_shape():
    fused, _ = cim_attention(hseq(rng.normal(size=(5, 4))), hseq(rng.normal(size=(5, 4))))
    assert fused.states.data.shape == (5, 8)


# --- cross entropy ---

def test_cross_entropy_perfect_prediction():
    z = Tensor(np.array([0.0, 1.0]))
    assert float(cross_entropy(z, 1).data) == pytest.approx(0.0)


def test_cross_entropy_uniform_four_way():
    z = Tensor(np.full(4, 0.25))
    assert float(cross_entropy(z, 2).data) == pytest.approx(np.log(4))


def test_cross_entropy_quarter_probability():
    z = Tensor(np.array([0.75, 0.25]))
    assert float(cross_entropy(z, 1).data) == pytest.approx(np.log(4))


def test_cross_entropy_clamped():
    z = Tensor(np.array([1.0, 0.0]))
    assert float(cross_entropy(z, 1).data) == pytest.approx(-np.log(1e-12))


def test_cross_entropy_invalid_class():
    with pytest.raises(InvalidValue, match=r"label 2 outside 0\.\.1"):
        cross_entropy(Tensor(np.array([0.5, 0.5])), 2)


@pytest.mark.parametrize("p", [0.7, 1.0, 1e-12, 3e-13])
def test_cross_entropy_is_bit_equal_to_pick_clamp_log_negate(p):
    z = Tensor(np.array([1.0 - p, p, 0.0]), requires_grad=True)
    loss = cross_entropy(z, 1)
    loss.backward()
    # the composition -log(clamp_min(pick(z, 1), PROB_FLOOR)) in numpy: forward,
    # then each node's backward from the root's gradient 1.0
    picked = z.data[1]
    clamped = np.maximum(picked, PROB_FLOOR)
    want_loss = -np.log(clamped)
    g = -np.ones(())               # negate
    g = g / clamped                # log
    g = g * (picked > PROB_FLOOR)  # clamp_min
    want_grad = np.zeros(3)
    want_grad[1] = g               # pick
    assert loss.data.tobytes() == np.asarray(want_loss).tobytes()
    assert z.grad.tobytes() == want_grad.tobytes()
    # a floored probability passes -0.0
    assert (z.grad[1] == 0) == (p <= PROB_FLOOR) and np.signbit(z.grad[1])


def test_cross_entropy_gradient_matches_finite_differences():
    z0 = np.array([0.2, 0.7, 0.1])
    z = Tensor(z0.copy(), requires_grad=True)
    cross_entropy(z, 1).backward()
    step = 1e-6
    fd = [(float(cross_entropy(Tensor(z0 + step * e), 1).data)
           - float(cross_entropy(Tensor(z0 - step * e), 1).data)) / (2 * step)
          for e in np.eye(3)]
    assert np.allclose(z.grad, fd, rtol=1e-8, atol=1e-10)


# --- adadelta ---

def test_adadelta_zero_gradient_no_change():
    ps = ParameterSet()
    p = ps.add("w", np.array([1.0, 2.0]))
    p.grad = np.zeros(2)
    adadelta_step(ps)
    assert np.allclose(p.data, [1.0, 2.0])


def test_adadelta_first_step_hand_value():
    rho, eps = 0.95, 1e-6
    g = np.array([0.5, -2.0])
    ps = ParameterSet()
    p = ps.add("w", np.zeros(2))
    p.grad = g.copy()
    adadelta_step(ps, rho=rho, eps=eps)
    expected = -np.sqrt(eps) / np.sqrt((1 - rho) * g**2 + eps) * g
    assert np.allclose(p.data, expected, atol=1e-15)
    assert p.grad is None


def test_adadelta_two_steps_follow_recurrence():
    rho, eps = 0.95, 1e-6
    g1, g2 = np.array([1.0]), np.array([-0.3])
    # hand recurrence
    Eg = (1 - rho) * g1**2
    d1 = -np.sqrt(eps) / np.sqrt(Eg + eps) * g1
    Ed = (1 - rho) * d1**2
    Eg2 = rho * Eg + (1 - rho) * g2**2
    d2 = -np.sqrt(Ed + eps) / np.sqrt(Eg2 + eps) * g2
    ps = ParameterSet()
    p = ps.add("w", np.zeros(1))
    p.grad = g1.copy()
    adadelta_step(ps, rho=rho, eps=eps)
    p.grad = g2.copy()
    adadelta_step(ps, rho=rho, eps=eps)
    assert np.allclose(p.data, d1 + d2, atol=1e-15)
    assert np.allclose(p.acc_grad_sq, Eg2)
    assert np.allclose(p.acc_delta_sq, rho * Ed + (1 - rho) * d2**2)


def reference_adadelta_step(p, rho=0.95, eps=1e-6):
    """The dense AdaDelta update of one parameter, over every row."""
    g = p.grad
    p.acc_grad_sq *= rho
    p.acc_grad_sq += (1.0 - rho) * g * g
    delta = -np.sqrt(p.acc_delta_sq + eps) / np.sqrt(p.acc_grad_sq + eps) * g
    p.acc_delta_sq *= rho
    p.acc_delta_sq += (1.0 - rho) * delta * delta
    p.data = p.data + delta
    p.grad = None


@pytest.mark.parametrize("case", ["named rows", "dense 2-D", "1-D bias"])
def test_adadelta_step_equals_dense_reference(case):
    g = np.random.default_rng(4)
    shape = (9,) if case == "1-D bias" else (9, 5)
    ps, ref = ParameterSet(), ParameterSet()
    data = g.normal(size=shape)
    p, q = ps.add("w", data.copy()), ref.add("w", data.copy())
    for step in range(4):
        grad = g.normal(size=shape)
        if case == "named rows":
            rows = np.sort(g.choice(9, size=3, replace=False))
            grad[np.setdiff1d(np.arange(9), rows)] = 0.0
            p.grad_rows = rows
        p.grad, q.grad = grad.copy(), grad.copy()
        adadelta_step(ps)
        reference_adadelta_step(q)
        for what in ("data", "acc_grad_sq", "acc_delta_sq"):
            assert np.array_equal(getattr(p, what), getattr(q, what)), (step, what)


# --- row-sparse adadelta ---

def sparse(indices, values, dim):
    return SparseVec(np.asarray(indices, dtype=np.int64), np.asarray(values, dtype=float), dim)


def embedding_twins(K, D):
    """Two parameter sets holding the same K x D embedding and D-vector bias."""
    E0, b0 = rng.normal(size=(K, D)), rng.normal(size=D)
    twins = ParameterSet(), ParameterSet()
    for ps in twins:
        ps.add("embed", E0.copy())
        ps.add("bias", b0.copy())
    return twins


def embedding_loss(ps, posts, mask, upstream, lookups=()):
    """A scalar of one story's embedded posts plus the bias, and optional
    embedding_lookup terms on the same E in the same graph, added first or last."""
    E = ps["embed"]
    seq = embedding_sequence(E, posts, mask) + ps["bias"]
    loss = (seq * Tensor(upstream)).sum()
    for first, idx, vals, w in lookups:
        term = (ad.embedding_lookup(E, np.asarray(idx), np.asarray(vals)) * Tensor(w)).sum()
        loss = term + loss if first else loss + term
    return loss


K, D, T = 12, 3, 4
EMPTY = sparse([], [], K)
# each step: posts, mask, lookups on the same E
STORIES = [
    # repeated indices within and across posts, an empty post, a padded row
    ([sparse([0, 2, 2], [1.0, 0.5, -0.3], K), EMPTY, sparse([2, 5], [2.0, 0.7], K),
      sparse([7], [9.0], K)], [True, True, True, False], ()),
    # rows 0, 2 and 5 untouched this step, 1 and 3 new
    ([sparse([1, 3], [0.4, -1.2], K), sparse([3], [0.8], K), EMPTY, EMPTY],
     [True, True, False, False], ()),
    # no in-vocabulary term at all: no gradient, no update
    ([EMPTY] * T, [True, True, True, False], ()),
    # embedding_lookup on the same E gives the dense update, whether its
    # backward runs before the scatter (added first) or after it (added last)
    ([sparse([4, 4, 9], [1.0, 1.0, 0.2], K), EMPTY, EMPTY, EMPTY],
     [True, True, True, True], [(True, [9, 11], [0.3, -0.6], rng.normal(size=D))]),
    ([sparse([4, 8], [0.5, 1.5], K), EMPTY, EMPTY, EMPTY],
     [True, True, True, True], [(False, [6, 4], [2.0, 1.0], rng.normal(size=D))]),
    ([sparse([0, 11], [0.1, 0.9], K), sparse([0], [3.0], K), EMPTY, EMPTY],
     [True, True, True, True], ()),
]


def test_row_sparse_adadelta_equals_dense_step():
    sparse_set, dense_set = embedding_twins(K, D)
    Es, Ed = sparse_set["embed"], dense_set["embed"]
    for posts, mask, lookups in STORIES:
        mask = np.array(mask)
        upstream = rng.normal(size=(T, D))
        embedding_loss(sparse_set, posts, mask, upstream, lookups).backward()
        embedding_loss(dense_set, posts, mask, upstream, lookups).backward()
        touched = np.unique(np.concatenate([v.indices for v, m in zip(posts, mask) if m]))
        if not touched.size:
            assert Es.grad is None and Ed.grad is None
        elif lookups:
            assert Es.grad_rows is None
        else:
            assert np.array_equal(Es.grad_rows, touched)
            assert np.all(np.delete(Es.grad, touched, axis=0) == 0)
            Ed.grad_rows = None  # the twin takes the dense branch
            assert np.array_equal(Es.grad, Ed.grad)
        adadelta_step(sparse_set)
        adadelta_step(dense_set)
        assert Es.grad is None and Es.grad_rows is None
        for name in ("embed", "bias"):
            for what in ("data", "acc_grad_sq", "acc_delta_sq"):
                assert np.array_equal(getattr(sparse_set[name], what),
                                      getattr(dense_set[name], what)), (name, what)


def test_row_sparse_adadelta_allocates_less_than_one_dense_embedding():
    # 30 posts of 16 terms touch at most 480 of 5000 rows
    K5, D5, T5 = 5000, 100, 30
    ps, _ = embedding_twins(K5, D5)
    E = ps["embed"]
    r = np.random.default_rng(2)
    posts = [sparse(r.integers(0, K5, size=16), r.random(16), K5) for _ in range(T5)]
    embedding_loss(ps, posts, np.ones(T5, dtype=bool), r.normal(size=(T5, D5))).backward()
    assert E.grad_rows is not None and E.grad_rows.size <= 480
    tracemalloc.start()
    try:
        adadelta_step(ps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < E.data.nbytes


# --- ParameterSet.load_values ---

def test_load_values_requires_the_same_names_and_shapes():
    ps = ParameterSet()
    ps.add("a", np.zeros((3, 2)))
    ps.add("b", np.zeros(4))
    for values in ({"a": np.ones((3, 2))},
                   {"a": np.ones((3, 2)), "b": np.ones(4), "c": np.ones(1)},
                   {"a": np.ones((2, 3)), "b": np.ones(4)}):
        with pytest.raises(ConfigMismatch, match="missing, unexpected or of another shape"):
            ps.load_values(values)
    assert not ps["a"].data.any()
    ps.load_values({"a": np.ones((3, 2)), "b": np.ones(4)})
    assert ps["a"].data.all() and ps["b"].data.all()
