import numpy as np
import pytest

from cascadefuse import autodiff as ad
from cascadefuse.autodiff import Tensor
from cascadefuse.errors import InvalidValue, ShapeMismatch
from cascadefuse.features import SparseVec
from cascadefuse.layers import embedding_sequence

from oracles import sigmoid, tanh

STEP = 1e-5
TOL = 1e-4


def fd_gradient(fn, x, step=STEP):
    """Central finite differences of a scalar-valued fn at x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + step
        fp = fn(x)
        x[i] = orig - step
        fm = fn(x)
        x[i] = orig
        g[i] = (fp - fm) / (2 * step)
    return g


def check_grad(build, x0):
    """build(Tensor) -> scalar Tensor; compares autodiff vs finite differences."""
    t = Tensor(x0.copy(), requires_grad=True)
    build(t).backward()
    num = fd_gradient(lambda arr: float(build(Tensor(arr)).data), x0.copy())
    denom = np.maximum(np.maximum(np.abs(num), np.abs(t.grad)), 1e-8)
    assert np.max(np.abs(num - t.grad) / denom) < TOL


rng = np.random.default_rng(0)


def test_grad_add_mul():
    y = Tensor(rng.normal(size=(3, 2)))
    check_grad(lambda x: ((x * y + x) * x).sum(), rng.normal(size=(3, 2)))


def test_grad_matmul_all_arities():
    A = rng.normal(size=(3, 4))
    v = rng.normal(size=4)
    check_grad(lambda x: (x @ Tensor(A)).sum(), rng.normal(size=(2, 3)))
    check_grad(lambda x: (Tensor(A) @ x).sum(), rng.normal(size=4))
    check_grad(lambda x: (Tensor(v) @ x).sum(), rng.normal(size=(4, 3)))


def test_grad_activations():
    check_grad(lambda x: sigmoid(x).sum(), rng.normal(size=5))
    check_grad(lambda x: tanh(x).sum(), rng.normal(size=5))
    check_grad(lambda x: (ad.relu(x) * ad.relu(x)).sum(), rng.normal(size=7) + 0.3)


def test_grad_softmax():
    w = Tensor(rng.normal(size=5))
    check_grad(lambda x: (ad.softmax(x) * w).sum(), rng.normal(size=5))


def test_softmax_sums_to_one():
    z = ad.softmax(Tensor(rng.normal(size=9) * 10))
    assert z.data.sum() == pytest.approx(1.0, abs=1e-9)
    u = ad.softmax(Tensor(np.zeros(4)))
    assert np.allclose(u.data, 0.25)


def test_grad_masked_row_softmax():
    mask = np.array([True, True, False, True])
    w = Tensor(rng.normal(size=(4, 4)))
    check_grad(lambda x: (ad.masked_row_softmax(x, mask) * w).sum(),
               rng.normal(size=(4, 4)))


def test_masked_softmax_rows_stochastic_over_real_positions():
    mask = np.array([True, False, True])
    n = ad.masked_row_softmax(Tensor(rng.normal(size=(3, 3))), mask)
    assert np.allclose(n.data.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(n.data[:, ~mask] == 0)


def test_grad_concat():
    y = Tensor(rng.normal(size=(2, 4)))
    check_grad(lambda x: (ad.concat([x, x * 2.0], axis=1) * y).sum(),
               rng.normal(size=(2, 2)))


def test_grad_stack_rows():
    w = Tensor(rng.normal(size=(2, 3)))
    check_grad(lambda x: (ad.stack_rows([x * 1.5, tanh(x)]) * w).sum(),
               rng.normal(size=3))


def test_grad_maxpool_time():
    mask = np.array([True, True, False])
    w = Tensor(rng.normal(size=4))
    check_grad(lambda x: (ad.maxpool_time(x, mask) * w).sum(),
               rng.normal(size=(3, 4)))


def test_maxpool_ignores_masked_rows():
    x = Tensor(np.array([[1.0, 2.0], [0.5, 3.0], [9.0, 9.0]]))
    out = ad.maxpool_time(x, np.array([True, True, False]))
    assert out.data.tolist() == [1.0, 3.0]


def test_maxpool_all_masked_raises():
    with pytest.raises(InvalidValue, match="maxpool over an empty mask"):
        ad.maxpool_time(Tensor(np.zeros((2, 2))), np.array([False, False]))


def test_maxpool_constant_sequence():
    x = Tensor(np.full((4, 3), 2.5))
    out = ad.maxpool_time(x, np.ones(4, dtype=bool))
    assert np.allclose(out.data, 2.5)


def test_grad_embedding_lookup():
    idx = np.array([0, 2])
    vals = np.array([1.0, 0.5])
    w = Tensor(rng.normal(size=3))
    check_grad(lambda E: (ad.embedding_lookup(E, idx, vals) * w).sum(),
               rng.normal(size=(4, 3)))


def test_embedding_one_hot_selects_row():
    E = Tensor(rng.normal(size=(5, 3)))
    out = ad.embedding_lookup(E, np.array([2]), np.array([1.0]))
    assert np.allclose(out.data, E.data[2])


def test_embedding_empty_is_zero():
    E = Tensor(rng.normal(size=(5, 3)))
    out = ad.embedding_lookup(E, np.empty(0, dtype=np.int64), np.empty(0))
    assert np.all(out.data == 0)


def test_embedding_sequence_matches_per_post_lookup():
    # repeated indices within and across posts, an empty post, padded rows
    posts = [SparseVec(np.array([0, 2, 2]), np.array([1.0, 0.5, -0.3]), 5),
             SparseVec(np.empty(0, dtype=np.int64), np.empty(0), 5),
             SparseVec(np.array([2, 4]), np.array([2.0, 0.7]), 5),
             SparseVec(np.array([1]), np.array([9.0]), 5),
             SparseVec(np.empty(0, dtype=np.int64), np.empty(0), 5)]
    mask = np.array([True, True, True, False, False])
    upstream = Tensor(rng.normal(size=(5, 3)))
    E0 = rng.normal(size=(5, 3))

    E = Tensor(E0.copy(), requires_grad=True)
    got = embedding_sequence(E, posts, mask)
    (got * upstream).sum().backward()

    E_ref = Tensor(E0.copy(), requires_grad=True)
    want = ad.stack_rows([ad.embedding_lookup(E_ref, v.indices, v.values) if m
                          else Tensor(np.zeros(3)) for v, m in zip(posts, mask)])
    (want * upstream).sum().backward()
    assert np.all(got.data[~mask] == 0) and np.all(got.data[1] == 0)
    assert np.max(np.abs(got.data - want.data)) <= 1e-12 * np.max(np.abs(want.data))
    assert np.max(np.abs(E.grad - E_ref.grad)) <= 1e-12 * np.max(np.abs(E_ref.grad))
    assert np.all(E.grad[[1, 3]] == 0)  # rows read only by padded posts


def test_embedding_sequence_without_terms_records_no_gradient():
    empty = SparseVec(np.empty(0, dtype=np.int64), np.empty(0), 4)
    E = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    out = embedding_sequence(E, [empty, empty], np.array([True, False]))
    assert out.data.shape == (2, 2) and np.all(out.data == 0)
    assert not out.requires_grad


def test_dropout_eval_mode_identity():
    x = Tensor(rng.normal(size=10))
    out = ad.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
    assert out is x


def test_dropout_preserves_expectation():
    x = np.abs(rng.normal(size=8)) + 1.0
    g = np.random.default_rng(123)
    acc = np.zeros_like(x)
    n = 10_000
    for _ in range(n):
        acc += ad.dropout(Tensor(x), 0.5, training=True, rng=g).data
    assert np.all(np.abs(acc / n - x) / x < 0.02)


def test_grad_dropout():
    # fresh rng with a fixed seed per call keeps the mask constant under fd
    check_grad(lambda x: ad.dropout(x, 0.5, training=True,
                                    rng=np.random.default_rng(7)).sum(),
               rng.normal(size=12))


def test_backward_requires_graph():
    with pytest.raises(InvalidValue, match="no recorded graph"):
        Tensor(np.zeros(3)).backward()


def test_backward_requires_scalar_root():
    t = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ShapeMismatch):
        (t * 2.0).backward()


def test_shape_mismatch_matmul():
    with pytest.raises(ShapeMismatch):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))


@pytest.mark.parametrize("a, b", [
    (np.ones(3), np.ones(3)),
    (np.ones((2, 2, 3)), np.ones((3, 2))),
    (np.ones((2, 3)), np.ones((2, 3, 4))),
    (np.float64(2.0), np.ones((2, 2))),
])
def test_matmul_rejects_unsupported_arity_in_the_forward(a, b):
    with pytest.raises(ShapeMismatch, match="unsupported matmul arity"):
        Tensor(a, requires_grad=True) @ Tensor(b, requires_grad=True)


def test_grad_accumulates_over_shared_subexpression():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0
    y.sum().backward()
    assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)
