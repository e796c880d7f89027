"""The fused classifier: three GRU encoder paths, inter-modal attention,
max-pool concatenation, and a two-layer softmax head, with training,
evaluation, grid search, the time-frame sweep, and the checkpoint format."""

from __future__ import annotations

import json
import math
import numbers
import zipfile
from dataclasses import asdict, dataclass, field, fields, replace
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .cascade import BINARY_LABELS
from .data import distinct_labels, read_json_object
from .errors import CascadeFuseError, ConfigMismatch, InvalidValue
from .features import (DEFAULT_VOCAB_SIZE, USER_DIM, BundleConfig, FeatureBundle, UserScaler,
                       Vocabulary, build_bundles)
from .layers import (
    HiddenSequence,
    ParameterSet,
    adadelta_step,
    cim_attention,
    cross_entropy,
    embedding_sequence,
    fc,
    glorot,
    gru_lockstep,
)


@dataclass(frozen=True)
class ModelConfig(BundleConfig):
    """A BundleConfig plus the network's sizes and training settings."""

    vocab_size: int = DEFAULT_VOCAB_SIZE
    embed_dim: int = 100          # linguistic embedding dimension
    E_l: int = 32
    E_u: int = 32
    E_s: int = 32
    dropout: float = 0.5
    max_epochs: int = 500
    patience: int = 10
    seed: int = 0
    gru_form: ClassVar[str] = "paper"  # the paper's GRU; fixed, not stored in checkpoints

    def __post_init__(self):
        super().__post_init__()
        if self.has_cim and self.E_l != self.E_u:
            raise ConfigMismatch("CIM requires E_l == E_u")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigMismatch(f"dropout {self.dropout!r} outside [0, 1)")
        for name in ("max_epochs", "patience", "embed_dim", "E_l", "E_u", "E_s"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigMismatch(f"{name} {value!r} must be at least 1")
        for name in ("vocab_size", "seed"):  # vocab_size 0 is legal: tree imports have no text
            value = getattr(self, name)
            if value < 0:
                raise ConfigMismatch(f"{name} {value!r} must not be negative")

    @property
    def has_temporal(self) -> bool:
        return self.variant != "no_time"

    @property
    def has_cim(self) -> bool:
        return self.variant != "no_cim"

    @property
    def e_con(self) -> int:
        """Dimension of the pooled concatenation f1 for this variant."""
        dim = self.E_l + self.E_u
        if self.has_cim:
            dim += 2 * self.E_l
        if self.has_temporal:
            dim += self.E_s
        return dim


def config_fields(values, source) -> dict:
    """values, if its keys are all ModelConfig fields (a --config file's or a manifest's)."""
    unknown = sorted(set(values) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise ConfigMismatch(f"{source}: unknown config fields {unknown}")
    return values


@dataclass
class EvalReport:
    accuracy: float
    per_class_f1: dict[str, float]
    confusion: np.ndarray  # (labels, labels) counts, rows = truth
    loss: float

    def to_dict(self):
        return {"accuracy": self.accuracy, "per_class_f1": self.per_class_f1,
                "confusion": self.confusion.tolist(), "loss": self.loss}


GRU_GATES = ("z", "r", "h")
MIN_IMPROVEMENT = 1e-6  # a smaller fall in validation loss counts as no improvement


def param_shapes(config: ModelConfig, label_set=BINARY_LABELS) -> dict[str, tuple[int, ...]]:
    """The name and shape of each parameter of config's network, in init_params'
    draw order, with one output unit per label."""
    shapes = {"embed": (config.vocab_size, config.embed_dim)}
    paths = [("ling", config.embed_dim, config.E_l), ("user", USER_DIM, config.E_u)]
    if config.has_temporal:
        paths.append(("temp", 1, config.E_s))
    for prefix, in_dim, out_dim in paths:
        for gate in GRU_GATES:
            shapes[f"{prefix}_U{gate}"] = (in_dim, out_dim)
            shapes[f"{prefix}_W{gate}"] = (out_dim, out_dim)
        shapes[f"{prefix}_fcW"] = (out_dim, out_dim)
        shapes[f"{prefix}_fcb"] = (out_dim,)
    e_con = config.e_con  # the head's hidden layer is as wide as its input
    shapes |= {"f2_W": (e_con, e_con), "f2_b": (e_con,),
               "out_W": (e_con, len(label_set)), "out_b": (len(label_set),)}
    return shapes


def init_params(config: ModelConfig, seed: int | None = None,
                label_set=BINARY_LABELS) -> ParameterSet:
    """Fresh weights for config's network: glorot matrices and zero biases."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    p = ParameterSet()
    for name, shape in param_shapes(config, label_set).items():
        p.add(name, glorot(rng, *shape) if len(shape) == 2 else np.zeros(shape))
    return p


def _gru_weights(params, prefix):
    return tuple(params[f"{prefix}_{m}{gate}"] for gate in GRU_GATES for m in "UW")


def _encode_path(seq: HiddenSequence, params, prefix, config, training, rng) -> HiddenSequence:
    """Dropout on a GRU path's raw states, per-step FC, dropout again, then
    re-zero the padded rows."""
    mask = seq.mask
    h = ad.dropout(seq.states, config.dropout, training, rng)
    h = fc(h, params[f"{prefix}_fcW"], params[f"{prefix}_fcb"])
    h = ad.dropout(h, config.dropout, training, rng)
    h = h * Tensor(mask.astype(float)[:, None])  # FC bias leaks into padded rows
    return HiddenSequence(states=h, mask=mask)


def forward(bundle: FeatureBundle, params: ParameterSet, config: ModelConfig,
            training: bool = False, rng: np.random.Generator | None = None):
    """Run the variant's architecture on one featurized story.

    Returns the class-probability tensor and a trace dict of intermediates.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if len(bundle.linguistic) != config.seq_len:
        raise ConfigMismatch(
            f"bundle sequence length {len(bundle.linguistic)} != config {config.seq_len}")
    if config.has_temporal:
        if bundle.temporal is None:
            raise ConfigMismatch(f"variant {config.variant!r} needs a temporal stream")
        if len(bundle.temporal) != config.temporal_len:
            raise ConfigMismatch(
                f"temporal length {len(bundle.temporal)} != config {config.temporal_len}")
    if bundle.linguistic[0].dim != config.vocab_size:
        raise ConfigMismatch(
            f"vocab size {bundle.linguistic[0].dim} != config {config.vocab_size}")

    mask = bundle.mask
    paths = {"ling": (embedding_sequence(params["embed"], bundle.linguistic, mask), mask),
             "user": (Tensor(bundle.users), mask)}
    if config.has_temporal:
        paths["temp"] = (Tensor(bundle.temporal[:, None]),
                         np.ones(config.temporal_len, dtype=bool))
    # the GRUs draw no random numbers, so stepping them first keeps the dropout stream
    seqs = gru_lockstep([(X, m, _gru_weights(params, name)) for name, (X, m) in paths.items()])
    H_l, H_u, *H_s = [_encode_path(seq, params, name, config, training, rng)
                      for seq, name in zip(seqs, paths)]

    pooled = [ad.maxpool_time(H_l.states, mask), ad.maxpool_time(H_u.states, mask)]
    trace = {}
    if config.has_cim:
        H_ul, attn = cim_attention(H_l, H_u)
        pooled.append(ad.maxpool_time(H_ul.states, mask))
        trace["attention"] = attn
    for H in H_s:
        pooled.append(ad.maxpool_time(H.states, H.mask))

    f1 = ad.concat(pooled, axis=0)
    f1 = ad.dropout(f1, config.dropout, training, rng)
    f2 = ad.relu(fc(f1, params["f2_W"], params["f2_b"]))
    f2 = ad.dropout(f2, config.dropout, training, rng)
    z = ad.softmax(fc(f2, params["out_W"], params["out_b"]))
    trace["f1_dim"] = f1.data.shape[0]
    return z, trace


@dataclass
class TemporalScaler:
    """Train-split standardization of the temporal stream (raw infectiousness
    values are ~1e-4 scale and would vanish through tanh)."""

    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        for name in ("mean", "std"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not math.isfinite(value):
                raise InvalidValue(f"temporal scaler {name} {value!r} is not a finite number")
        if self.std <= 0:
            raise InvalidValue(f"temporal scaler std {self.std!r} is not positive")

    def apply(self, bundle: FeatureBundle) -> FeatureBundle:
        if bundle.temporal is None:
            return bundle
        return replace(bundle, temporal=(bundle.temporal - self.mean) / self.std)


def fit_temporal_scaler(bundles: list[FeatureBundle]) -> TemporalScaler:
    vals = np.concatenate([b.temporal for b in bundles if b.temporal is not None]) \
        if any(b.temporal is not None for b in bundles) else np.array([0.0])
    std = float(vals.std())
    return TemporalScaler(mean=float(vals.mean()), std=std if std > 0 else 1.0)


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1

    def to_dict(self):
        return {"train_loss": self.train_loss, "val_loss": self.val_loss,
                "best_epoch": self.best_epoch}


def _label_index(label: str, label_set) -> int:
    labels = list(label_set)
    if label not in labels:
        raise InvalidValue(f"label {label!r} is not in the model's label set {labels}")
    return labels.index(label)


def train(train_bundles: list[FeatureBundle], val_bundles: list[FeatureBundle],
          config: ModelConfig, label_set=BINARY_LABELS):
    """Per-story AdaDelta training with early stopping on validation loss.

    Returns the best-validation-epoch parameters and the loss history.
    """
    if not train_bundles or not val_bundles:
        raise InvalidValue("training and validation sets must be non-empty")
    scaler = fit_temporal_scaler(train_bundles)
    train_bundles = [scaler.apply(b) for b in train_bundles]
    val_bundles = [scaler.apply(b) for b in val_bundles]
    y_train = [_label_index(b.label, label_set) for b in train_bundles]

    params = init_params(config, label_set=label_set)
    rng = np.random.default_rng(config.seed + 1)
    history = TrainHistory()
    best_val = np.inf
    best_values = params.copy_values()
    stale = 0

    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_bundles))
        epoch_loss = 0.0
        for i in order:
            z, _ = forward(train_bundles[i], params, config, training=True, rng=rng)
            loss = cross_entropy(z, y_train[i])
            epoch_loss += float(loss.data)
            loss.backward()
            adadelta_step(params)
        history.train_loss.append(epoch_loss / len(train_bundles))

        val_loss = evaluate(val_bundles, params, config, label_set).loss
        history.val_loss.append(val_loss)
        if val_loss < best_val - MIN_IMPROVEMENT:
            best_val = val_loss
            best_values = params.copy_values()
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    params.load_values(best_values)
    return params, history, scaler


def f1_scores(confusion: np.ndarray, label_set) -> dict[str, float]:
    """Per-class F1 = 2PR/(P+R) from a confusion matrix (rows = truth);
    classes absent from both predictions and truth score 0 by convention."""
    out = {}
    for k, name in enumerate(label_set):
        tp = confusion[k, k]
        fp = confusion[:, k].sum() - tp
        fn = confusion[k, :].sum() - tp
        denom = 2 * tp + fp + fn
        out[name] = float(2 * tp / denom) if denom > 0 else 0.0
    return out


def evaluate(test_bundles: list[FeatureBundle], params: ParameterSet,
             config: ModelConfig, label_set=BINARY_LABELS,
             scaler: TemporalScaler | None = None) -> EvalReport:
    """Argmax predictions; accuracy, per-class F1 and confusion counts."""
    if not test_bundles:
        raise InvalidValue("evaluation set is empty")
    n_labels = len(label_set)
    if params["out_b"].data.size != n_labels:
        raise ConfigMismatch(f"{params['out_b'].data.size} output units for the "
                             f"{n_labels} labels {list(label_set)}")
    if scaler is not None:
        test_bundles = [scaler.apply(b) for b in test_bundles]
    confusion = np.zeros((n_labels, n_labels), dtype=int)
    total_loss = 0.0
    for b in test_bundles:
        y = _label_index(b.label, label_set)
        z, _ = forward(b, params, config, training=False)
        pred = int(np.argmax(z.data))
        confusion[y, pred] += 1
        total_loss += float(cross_entropy(z, y).data)

    accuracy = float(np.trace(confusion)) / float(confusion.sum())
    return EvalReport(accuracy=accuracy, per_class_f1=f1_scores(confusion, label_set),
                      confusion=confusion, loss=total_loss / len(test_bundles))


def grid_search(train_bundles, val_bundles, candidates: list[ModelConfig],
                label_set=BINARY_LABELS, quick_epochs: int | None = 50):
    """Train each candidate (optionally with a reduced epoch cap), pick the
    best validation accuracy; ties broken by lower val loss, then smaller E_con."""
    if not candidates:
        raise InvalidValue("empty configuration space")
    results = []
    for cfg in candidates:
        quick = cfg if quick_epochs is None else replace(cfg, max_epochs=quick_epochs)
        params, history, scaler = train(train_bundles, val_bundles, quick, label_set)
        report = evaluate(val_bundles, params, quick, label_set, scaler=scaler)
        results.append((report.accuracy, -report.loss, -cfg.e_con, cfg, report))
    results.sort(key=lambda r: (r[0], r[1], r[2]), reverse=True)
    best = results[0][3]
    log = [{"config": c.__dict__ | {}, "val_accuracy": acc, "val_loss": -nl}
           for acc, nl, _, c, _ in results]
    return best, log


def train_and_test(stories_by_split, vocab: Vocabulary, user_scaler: UserScaler,
                   configs, label_set=BINARY_LABELS):
    """For each config in turn: featurize stories_by_split ({"train": [...], "val":
    [...], "test": [...]}), train on train and val, and yield the test EvalReport."""
    for config in configs:
        bundles = build_bundles(stories_by_split, vocab, user_scaler, config)
        params, _, scaler = train(bundles.get("train", []), bundles.get("val", []), config,
                                  label_set)
        yield evaluate(bundles.get("test", []), params, config, label_set, scaler=scaler)


def timeframe_sweep(stories_by_split, vocab, user_scaler, days: list[int],
                    config: ModelConfig, label_set=BINARY_LABELS):
    """train_and_test for each time frame, day 0 being the no_time variant;
    returns a list of (days, accuracy) pairs."""
    configs = [replace(config, variant="no_time") if d == 0
               else replace(config, temporal_len=24 * d - 1) for d in days]
    reports = train_and_test(stories_by_split, vocab, user_scaler, configs, label_set)
    return [(d, report.accuracy) for d, report in zip(days, reports)]


CHECKPOINT_VERSION = 5


def checkpoint_base(path) -> str:
    """The path without a trailing .npz: m and m.npz both name m.npz + m.json."""
    return str(path).removesuffix(".npz")


def save_checkpoint(path, params: ParameterSet, config: ModelConfig, vocab: Vocabulary,
                    user_scaler: UserScaler, temporal_scaler: TemporalScaler, label_set):
    """Write the parameters as an .npz of float64 arrays, and everything else
    scoring needs as a JSON manifest beside it."""
    base = checkpoint_base(path)
    np.savez(base + ".npz", **{k: p.data for k, p in params.items()})
    meta = {"version": CHECKPOINT_VERSION,
            "config": asdict(config),
            "vocabulary": {"terms": list(vocab.terms), "idf": vocab.idf.tolist()},
            "user_scaler": {"means": user_scaler.means.tolist(),
                            "stds": user_scaler.stds.tolist()},
            "temporal_scaler": {"mean": temporal_scaler.mean, "std": temporal_scaler.std},
            "label_set": list(label_set)}
    with open(base + ".json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2)


def load_checkpoint(path):
    """save_checkpoint's (params, config, vocabulary, user scaler, temporal scaler,
    label set); ConfigMismatch if the manifest or the .npz is malformed or they do not fit."""
    base = checkpoint_base(path)
    try:
        meta = read_json_object(base + ".json")
    except CascadeFuseError as e:  # the reader's ParseError names the file
        raise ConfigMismatch(f"checkpoint {e}") from None
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ConfigMismatch(f"unsupported checkpoint version {meta.get('version')!r}"
                             f" (expected {CHECKPOINT_VERSION})")
    try:
        with np.load(base + ".npz") as npz:
            values = {k: npz[k] for k in npz.files}
        config = ModelConfig(**config_fields(meta["config"], "config"))
        vocab = Vocabulary(terms=tuple(meta["vocabulary"]["terms"]),
                           idf=meta["vocabulary"]["idf"])
        user_scaler = UserScaler(**meta["user_scaler"])
        temporal_scaler = TemporalScaler(**meta["temporal_scaler"])
        label_set = distinct_labels(meta["label_set"])
        params = ParameterSet()
        for name, shape in param_shapes(config, label_set).items():
            params.add(name, np.empty(shape))
        params.load_values(values)
        bad = sorted(name for name, v in values.items() if not np.isfinite(v).all())
        if bad:
            raise ConfigMismatch(f"parameters {bad} hold values that are not finite")
    except KeyError as e:
        raise ConfigMismatch(f"checkpoint {path}: missing key {e}") from None
    except (TypeError, ValueError, EOFError, zipfile.BadZipFile, CascadeFuseError) as e:
        raise ConfigMismatch(f"checkpoint {path}: {e}") from None
    return params, config, vocab, user_scaler, temporal_scaler, label_set
