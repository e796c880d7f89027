import dataclasses

import numpy as np
import pytest

from cascadefuse import autodiff as ad
from cascadefuse import model
from cascadefuse.autodiff import Tensor
from cascadefuse.errors import ConfigMismatch, InvalidValue
from cascadefuse.features import (
    N_COUNTS,
    USER_DIM,
    FeatureBundle,
    SparseVec,
    UserScaler,
    Vocabulary,
)
from cascadefuse.layers import (
    HiddenSequence,
    ParameterSet,
    PROB_FLOOR,
    adadelta_step,
    cross_entropy,
)
from cascadefuse.model import (
    SCORE_CHUNK,
    EvalReport,
    ModelConfig,
    TemporalScaler,
    evaluate,
    f1_scores,
    forward,
    grid_search,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)

from oracles import gru_chain

rng = np.random.default_rng(3)

TOY = dict(vocab_size=8, embed_dim=3, seq_len=3, temporal_len=4,
           E_l=4, E_u=4, E_s=4, dropout=0.0)


def toy_bundle(label="true", temporal=True, seed=0, poisoned=False):
    g = np.random.default_rng(seed)
    ling = tuple(SparseVec(np.array([0, 3 + i]), g.uniform(0.5, 2.0, 2), 8)
                 for i in range(3))
    temp = None
    if temporal:
        temp = np.full(4, np.nan) if poisoned else g.normal(size=4)
    return FeatureBundle(linguistic=ling, users=g.normal(size=(3, 8)),
                         mask=np.array([True, True, True]), temporal=temp, label=label)


def make_dataset(n=8):
    out = []
    for i in range(n):
        label = "true" if i % 2 == 0 else "fake"
        # separable temporal signal
        b = toy_bundle(label=label, seed=i)
        temp = np.linspace(1, 0, 4) if label == "true" else np.linspace(0, 1, 4)
        out.append(dataclasses.replace(b, temporal=temp + 0.01 * i))
    return out


# --- forward shapes ---

def test_forward_f1_dimension_full():
    cfg = ModelConfig(variant="full", **TOY)
    params = init_params(cfg)
    z, trace = forward(toy_bundle(), params, cfg)
    assert trace["f1_dim"] == cfg.E_l + cfg.E_u + 2 * cfg.E_l + cfg.E_s
    assert z.data.shape == (2,)


def test_forward_f1_dimension_no_cim():
    cfg = ModelConfig(variant="no_cim", **TOY)
    z, trace = forward(toy_bundle(), init_params(cfg), cfg)
    assert trace["f1_dim"] == cfg.E_l + cfg.E_u + cfg.E_s
    assert "attention" not in trace


def test_forward_f1_dimension_no_time():
    cfg = ModelConfig(variant="no_time", **TOY)
    z, trace = forward(toy_bundle(temporal=False), init_params(cfg), cfg)
    assert trace["f1_dim"] == cfg.E_l + cfg.E_u + 2 * cfg.E_l


def test_forward_output_is_distribution():
    for variant in ("full", "no_cim", "no_time", "freq"):
        cfg = ModelConfig(variant=variant, **TOY)
        z, _ = forward(toy_bundle(temporal=variant != "no_time"),
                       init_params(cfg), cfg)
        assert np.all(z.data >= 0)
        assert z.data.sum() == pytest.approx(1.0, abs=1e-9)


def test_no_time_never_reads_temporal_stream():
    cfg = ModelConfig(variant="no_time", **TOY)
    params = init_params(cfg)
    clean, _ = forward(toy_bundle(temporal=False), params, cfg)
    poisoned, _ = forward(toy_bundle(poisoned=True), params, cfg)
    assert np.array_equal(clean.data, poisoned.data)


def test_forward_config_mismatch():
    cfg = ModelConfig(variant="full", **TOY)
    params = init_params(cfg)
    with pytest.raises(ConfigMismatch):
        forward(toy_bundle(temporal=False), params, cfg)
    bad = dataclasses.replace(toy_bundle(), temporal=np.zeros(7))
    with pytest.raises(ConfigMismatch):
        forward(bad, params, cfg)


def test_e_con_matches_f1_dim_per_variant():
    for variant in ("full", "no_cim", "no_time", "freq"):
        cfg = ModelConfig(variant=variant, **TOY)
        _, trace = forward(toy_bundle(temporal=variant != "no_time"),
                           init_params(cfg), cfg)
        assert trace["f1_dim"] == cfg.e_con


def test_no_cim_allows_unequal_path_sizes():
    cfg = ModelConfig(variant="no_cim", max_epochs=1, **dict(TOY, E_l=8, E_u=4))
    _, trace = forward(toy_bundle(), init_params(cfg), cfg)
    assert trace["f1_dim"] == cfg.E_l + cfg.E_u + cfg.E_s
    data = make_dataset(4)
    _, history, _ = train(data[:2], data[2:], cfg)
    assert len(history.train_loss) == 1 and np.isfinite(history.val_loss[0])


def test_cim_requires_equal_path_sizes():
    with pytest.raises(ConfigMismatch):
        ModelConfig(variant="full", **dict(TOY, E_l=8, E_u=4))


@pytest.mark.parametrize("values", [
    {"seq_len": 0}, {"seq_len": -2}, {"temporal_len": 0}, {"max_epochs": 0},
    {"max_epochs": -1}, {"patience": 0}, {"vocab_size": -1}, {"embed_dim": 0},
    {"E_l": 0, "E_u": 0}, {"E_l": -1, "E_u": -1}, {"E_s": 0},
])
def test_config_rejects_bad_sizes_and_epoch_counts(values):
    with pytest.raises(ConfigMismatch):
        ModelConfig(variant="full", **dict(TOY, **values))


@pytest.mark.parametrize("values", [
    {"seed": 1.5}, {"seed": "1"}, {"seed": True}, {"E_l": 4.0}, {"patience": None},
    {"dropout": "0.5"}, {"dropout": True}, {"dropout": float("nan")},
    {"variant": 1}, {"seq_len": "3"},
])
def test_config_checks_field_types(values):
    with pytest.raises(ConfigMismatch, match="is not"):
        ModelConfig(**dict(TOY, **values))


def test_config_float_fields_accept_ints():
    cfg = ModelConfig(**dict(TOY, dropout=0, seed=np.int64(3)))
    assert cfg.dropout == 0 and cfg.seed == 3


def test_user_weights_take_their_width_from_the_profile():
    cfg = ModelConfig(variant="full", **TOY)
    params = init_params(cfg)
    for gate in ("z", "r", "h"):
        assert params[f"user_U{gate}"].data.shape == (USER_DIM, cfg.E_u)
    assert not hasattr(cfg, "user_dim")


def test_config_allows_empty_vocabulary():
    assert ModelConfig(variant="full", **dict(TOY, vocab_size=0)).vocab_size == 0


# --- gradient of the composed model ---

def test_full_model_matches_finite_differences():
    cfg = ModelConfig(variant="full", **TOY)
    base = init_params(cfg)
    bundle = toy_bundle(label="fake")
    step, worst = 1e-5, 0.0

    def loss_of(values):
        ps = ParameterSet()
        for k, v in values.items():
            ps.add(k, v.copy())
        z, _ = forward(bundle, ps, cfg)
        return cross_entropy(z, 1), ps

    values = base.copy_values()
    loss, ps = loss_of(values)
    loss.backward()
    for k, arr in values.items():
        g = ps[k].grad
        assert g is not None, f"{k} got no gradient"
        flat = arr.reshape(-1)
        idx = np.random.default_rng(0).choice(flat.size, size=min(6, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            lp = float(loss_of(values)[0].data)
            flat[i] = orig - step
            lm = float(loss_of(values)[0].data)
            flat[i] = orig
            num = (lp - lm) / (2 * step)
            gi = g.reshape(-1)[i]
            worst = max(worst, abs(num - gi) / max(abs(num), abs(gi), 1e-8))
    assert worst < 1e-4


# --- training ---

def test_train_empty_dataset():
    cfg = ModelConfig(variant="full", **TOY)
    with pytest.raises(InvalidValue, match="training and validation sets must be non-empty"):
        train([], [toy_bundle()], cfg)


def test_train_early_stop_and_best_epoch():
    cfg = ModelConfig(variant="full", max_epochs=30, patience=3, seed=1, **TOY)
    data = make_dataset(8)
    params, history, scaler = train(data[:6], data[6:], cfg)
    n = len(history.val_loss)
    assert n <= cfg.max_epochs
    assert history.best_epoch == int(np.argmin(history.val_loss))
    # stopping rule: no more than `patience` stale epochs after the best one,
    # modulo sub-tolerance improvements that do not reset the counter
    if n < cfg.max_epochs:
        assert history.val_loss[-1] >= min(history.val_loss) - model.MIN_IMPROVEMENT
    # returned parameters reproduce the recorded best validation loss
    report = evaluate(data[6:], params, cfg, scaler=scaler)
    assert report.loss == pytest.approx(min(history.val_loss), abs=1e-9)


def test_train_max_epochs_cap():
    cfg = ModelConfig(variant="full", max_epochs=2, patience=10, seed=1, **TOY)
    data = make_dataset(6)
    _, history, _ = train(data[:4], data[4:], cfg)
    assert len(history.val_loss) == 2


def test_train_deterministic_history():
    cfg = ModelConfig(variant="full", max_epochs=3, seed=7, dropout=0.5,
                      **{k: v for k, v in TOY.items() if k != "dropout"})
    data = make_dataset(6)
    _, h1, _ = train(data[:4], data[4:], cfg)
    _, h2, _ = train(data[:4], data[4:], cfg)
    assert h1.train_loss == h2.train_loss
    assert h1.val_loss == h2.val_loss


def tape_gru_lockstep(paths):
    """The per-path tape the lockstep op replaces: gru_chain for each path."""
    seqs = []
    for X, mask, weights in paths:
        mask = np.asarray(mask, dtype=bool)
        seqs.append(HiddenSequence(states=gru_chain(X, mask, *weights), mask=mask))
    return seqs


def tape_embedding_sequence(E, posts, mask):
    return ad.stack_rows([ad.embedding_lookup(E, v.indices, v.values) if m
                          else Tensor(np.zeros(E.data.shape[1]))
                          for v, m in zip(posts, mask)])


def test_train_trajectory_matches_tape_oracle(monkeypatch):
    cfg = ModelConfig(variant="full", max_epochs=3, patience=10, seed=5, dropout=0.5,
                      **{k: v for k, v in TOY.items() if k != "dropout"})
    data = make_dataset(8)
    data[0] = dataclasses.replace(data[0], mask=np.array([True, True, False]))
    fused, h_fused, _ = train(data[:6], data[6:], cfg)
    oracle_paths = []

    def oracle(paths):
        oracle_paths.extend(paths)
        return tape_gru_lockstep(paths)

    with monkeypatch.context() as m:
        m.setattr(model, "gru_lockstep", oracle)
        m.setattr(model, "embedding_sequence", tape_embedding_sequence)
        tape, h_tape, _ = train(data[:6], data[6:], cfg)
    assert len(oracle_paths) == 3 * (3 * 6 + 3 * 2)  # three paths per forward pass
    assert len(h_fused.train_loss) == 3
    for got, want in ((h_fused.train_loss, h_tape.train_loss),
                      (h_fused.val_loss, h_tape.val_loss)):
        assert np.max(np.abs(np.subtract(got, want)) / np.abs(want)) <= 1e-10
    for k in tape:
        scale = np.max(np.abs(tape[k].data))
        assert np.max(np.abs(fused[k].data - tape[k].data)) <= 1e-10 * scale, k


@pytest.mark.parametrize("variant, sizes", [
    ("full", dict(E_s=3)), ("no_time", {}), ("no_cim", dict(E_u=3)), ("no_cim", dict(E_s=5)),
])
def test_forward_and_gradients_match_per_path_tape_oracle(monkeypatch, variant, sizes):
    cfg = ModelConfig(variant=variant, dropout=0.5,
                      **dict({k: v for k, v in TOY.items() if k != "dropout"}, **sizes))
    b = dataclasses.replace(toy_bundle(seed=4), mask=np.array([True, True, False]))

    def run():
        params = init_params(cfg, seed=2)
        z, _ = forward(b, params, cfg, training=True, rng=np.random.default_rng(9))
        cross_entropy(z, 1).backward()
        return z.data, {k: p.grad for k, p in params.items()}

    z, grads = run()
    monkeypatch.setattr(model, "gru_lockstep", tape_gru_lockstep)
    z_tape, grads_tape = run()
    assert np.max(np.abs(z - z_tape)) <= 1e-12
    assert grads.keys() == grads_tape.keys()
    for k, g in grads_tape.items():
        assert np.max(np.abs(grads[k] - g)) <= 1e-12 * max(np.max(np.abs(g)), 1e-300), k


def test_train_row_sparse_step_is_bit_equal_to_dense(monkeypatch):
    cfg = ModelConfig(variant="full", max_epochs=3, patience=10, seed=5, dropout=0.5,
                      **{k: v for k, v in TOY.items() if k != "dropout"})
    data = make_dataset(8)  # posts touch rows 0 and 3-5 of the 8-row embedding
    row_sparse, h_row_sparse, _ = train(data[:6], data[6:], cfg)
    sparse_steps = []

    def dense_step(params):
        sparse_steps.append(params["embed"].grad_rows is not None)
        params["embed"].grad_rows = None
        adadelta_step(params)

    monkeypatch.setattr(model, "adadelta_step", dense_step)
    dense, h_dense, _ = train(data[:6], data[6:], cfg)
    assert len(sparse_steps) == 18 and all(sparse_steps)
    assert h_row_sparse.to_dict() == h_dense.to_dict()
    for k in dense:
        assert np.array_equal(row_sparse[k].data, dense[k].data), k
        assert np.array_equal(row_sparse[k].acc_delta_sq, dense[k].acc_delta_sq), k


# --- evaluation ---

def test_evaluate_empty():
    cfg = ModelConfig(variant="full", **TOY)
    with pytest.raises(InvalidValue, match="evaluation set is empty"):
        evaluate([], init_params(cfg), cfg)


@pytest.mark.parametrize("step", ["train", "evaluate"])
def test_label_outside_the_label_set_is_unknown(step):
    cfg = ModelConfig(variant="full", max_epochs=1, **TOY)
    data = make_dataset(4)
    data[1] = dataclasses.replace(data[1], label="unverified")
    with pytest.raises(InvalidValue, match=r"label 'unverified' is not in the model's "
                                           r"label set \['true', 'fake'\]"):
        if step == "train":
            train(data[:3], data[3:], cfg)
        else:
            evaluate(data, init_params(cfg), cfg)


def test_output_units_follow_the_label_set():
    cfg = ModelConfig(variant="full", **TOY)
    fourway = ("true", "fake", "unverified", "debunking")
    params = init_params(cfg, label_set=fourway)
    assert params["out_W"].data.shape[1] == params["out_b"].data.size == 4
    data = make_dataset(4)
    data[1] = dataclasses.replace(data[1], label="debunking")
    assert evaluate(data, params, cfg, fourway).confusion.shape == (4, 4)
    # a binary output layer cannot score four labels
    with pytest.raises(ConfigMismatch, match="2 output units for the 4 labels"):
        evaluate(data, init_params(cfg), cfg, fourway)


def test_evaluate_consistency_of_report():
    cfg = ModelConfig(variant="full", **TOY)
    params = init_params(cfg)
    data = make_dataset(6)
    report = evaluate(data, params, cfg)
    assert report.confusion.sum() == 6
    assert report.accuracy == pytest.approx(np.trace(report.confusion) / 6)
    assert all(0 <= f <= 1 for f in report.per_class_f1.values())


BATCH = dict(TOY, seq_len=5)


def varied_bundles(n, seed=0):
    """n stories of BATCH's shapes with 1 to 5 real posts, zero padded rows, and
    every third story's second post without vocabulary terms."""
    g = np.random.default_rng(seed)
    out = []
    for i in range(n):
        n_real = 1 + i % 5
        ling = []
        for t in range(5):
            terms = np.empty(0, dtype=np.int64)
            if t < n_real and not (i % 3 == 0 and t == 1):
                terms = np.sort(g.choice(8, size=1 + t % 3, replace=False))
            ling.append(SparseVec(terms, g.uniform(0.5, 2.0, terms.size), 8))
        users = np.zeros((5, USER_DIM))
        users[:n_real] = g.normal(size=(n_real, USER_DIM))
        out.append(FeatureBundle(linguistic=tuple(ling), users=users,
                                 mask=np.arange(5) < n_real, temporal=g.normal(size=4),
                                 label=("true", "fake")[g.integers(2)]))
    return out


@pytest.mark.parametrize("variant, sizes", [
    ("full", dict(E_s=3)), ("no_cim", dict(E_u=3)), ("no_time", {}), ("freq", {}),
])
def test_evaluate_in_chunks_equals_per_story_forward(variant, sizes):
    cfg = ModelConfig(variant=variant, **dict(BATCH, **sizes))
    params = init_params(cfg, seed=6)
    data = varied_bundles(2 * SCORE_CHUNK + 5)  # the last chunk is partial
    confusion = np.zeros((2, 2), dtype=int)
    total_loss = 0.0
    for b in data:
        z = forward(b, params, cfg)[0].data
        y = ("true", "fake").index(b.label)
        confusion[y, int(np.argmax(z))] += 1
        total_loss += float(-np.log(np.maximum(z[y], PROB_FLOOR)))
    report = evaluate(data, params, cfg)
    assert np.array_equal(report.confusion, confusion)
    assert report.loss == total_loss / len(data)


def test_evaluate_leaves_no_gradient_and_training_unchanged():
    cfg = ModelConfig(variant="full", max_epochs=3, patience=10, seed=5, dropout=0.5,
                      **{k: v for k, v in BATCH.items() if k != "dropout"})
    params = init_params(cfg)
    evaluate(varied_bundles(SCORE_CHUNK + 1), params, cfg)
    assert all(p.grad is None for p in params.values())
    # validation of 2 stories or of more than a chunk: the same training steps
    data = varied_bundles(8 + SCORE_CHUNK + 1, seed=1)
    _, short, _ = train(data[:6], data[6:8], cfg)
    _, long, _ = train(data[:6], data[8:], cfg)
    assert short.train_loss == long.train_loss


@pytest.mark.parametrize("position", [0, SCORE_CHUNK // 2, SCORE_CHUNK + 2])
@pytest.mark.parametrize("spoil, message", [
    (lambda b: dataclasses.replace(b, linguistic=b.linguistic[:4], users=b.users[:4],
                                   mask=b.mask[:4]),
     "bundle sequence length 4 != config 5"),
    (lambda b: dataclasses.replace(b, temporal=np.zeros(7)), "temporal length 7 != config 4"),
    (lambda b: dataclasses.replace(b, linguistic=tuple(
        SparseVec(v.indices, v.values, 9) for v in b.linguistic)), "vocab size 9 != config 8"),
], ids=["seq_len", "temporal_len", "vocab_size"])
def test_evaluate_refuses_a_mismatched_bundle_anywhere(position, spoil, message):
    cfg = ModelConfig(variant="full", **BATCH)
    data = varied_bundles(SCORE_CHUNK + 3)
    data[position] = spoil(data[position])
    with pytest.raises(ConfigMismatch, match=f"^{message}$"):
        evaluate(data, init_params(cfg), cfg)


def test_f1_hand_confusion():
    # 6-story toy confusion: truth rows [[2,1],[0,3]]
    conf = np.array([[2, 1], [0, 3]])
    f1 = f1_scores(conf, ("true", "fake"))
    assert f1["true"] == pytest.approx(2 * 2 / (2 * 2 + 0 + 1))
    assert f1["fake"] == pytest.approx(2 * 3 / (2 * 3 + 1 + 0))


def test_f1_all_correct():
    conf = np.eye(2, dtype=int) * 3
    f1 = f1_scores(conf, ("true", "fake"))
    assert f1 == {"true": 1.0, "fake": 1.0}


def test_f1_absent_class_zero():
    conf = np.zeros((4, 4), dtype=int)
    conf[0, 0] = 5
    f1 = f1_scores(conf, ("a", "b", "c", "d"))
    assert f1["b"] == 0.0 and f1["c"] == 0.0


# --- grid search ---

def test_grid_search_empty_space():
    with pytest.raises(InvalidValue, match="empty configuration space"):
        grid_search([toy_bundle()], [toy_bundle()], [])


def test_grid_search_single_candidate():
    cfg = ModelConfig(variant="full", max_epochs=2, **TOY)
    data = make_dataset(6)
    best, log = grid_search(data[:4], data[4:], [cfg], quick_epochs=2)
    assert best == cfg and len(log) == 1


def test_grid_search_prefers_better_validation():
    data = make_dataset(10)
    good = ModelConfig(variant="full", seed=1, **TOY)
    # tau mismatch aside, a 1-epoch candidate should underperform a 12-epoch one
    cands = [dataclasses.replace(good, max_epochs=1),
             dataclasses.replace(good, max_epochs=12)]
    best, log = grid_search(data[:7], data[7:], cands, quick_epochs=None)
    accs = [entry["val_accuracy"] for entry in log]
    assert accs[0] == max(accs)


# --- checkpoints ---

def test_checkpoint_roundtrip(tmp_path):
    cfg = ModelConfig(variant="full", **TOY)
    ps = init_params(cfg, seed=4)
    vocab = Vocabulary(terms=tuple("abcdefgh"), idf=rng.uniform(1, 2, 8))
    user_scaler = UserScaler(means=rng.normal(size=N_COUNTS), stds=rng.uniform(1, 2, N_COUNTS))
    temporal_scaler = TemporalScaler(mean=0.25, std=3.0)
    path = tmp_path / "ckpt"
    save_checkpoint(path, ps, cfg, vocab, user_scaler, temporal_scaler, ("true", "fake"))
    params, config, vocab2, user_scaler2, temporal_scaler2, label_set = load_checkpoint(path)
    assert config == cfg and label_set == ("true", "fake")
    assert temporal_scaler2 == temporal_scaler
    assert vocab2.terms == vocab.terms and np.array_equal(vocab2.idf, vocab.idf)
    assert np.array_equal(user_scaler2.means, user_scaler.means)
    assert np.array_equal(user_scaler2.stds, user_scaler.stds)
    assert params.keys() == ps.keys()
    for k in ps:
        assert np.array_equal(params[k].data, ps[k].data)


def test_checkpoint_loads_without_drawing_weights(tmp_path, monkeypatch):
    # load_checkpoint takes the shapes from param_shapes, not from fresh weights
    cfg = ModelConfig(variant="no_cim", **dict(TOY, E_u=3))
    label_set = ("true", "fake", "unverified")
    ps = init_params(cfg, seed=4, label_set=label_set)
    assert {k: p.data.shape for k, p in ps.items()} == model.param_shapes(cfg, label_set)
    path = tmp_path / "ckpt"
    save_checkpoint(path, ps, cfg, Vocabulary(terms=tuple("abcdefgh"), idf=np.ones(8)),
                    UserScaler(means=np.zeros(N_COUNTS), stds=np.ones(N_COUNTS)),
                    TemporalScaler(), label_set)

    def draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random weights")

    with monkeypatch.context() as m:
        m.setattr(model, "glorot", draw)
        m.setattr(np.random, "default_rng", draw)
        params = load_checkpoint(path)[0]
    assert list(params) == list(ps)
    for k in ps:
        assert np.array_equal(params[k].data, ps[k].data), k
