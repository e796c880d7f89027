"""Featurization: tokenization, tf-idf vocabulary, user scaling, story bundles."""

from __future__ import annotations

import dataclasses
import math
import numbers
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cascade import PROFILE_COUNT_FIELDS, PROFILE_FLAG_FIELDS, NewsStory, UserProfile
from .errors import ConfigMismatch, EmptyCorpus, InvalidValue
from .pointprocess import (
    KernelParams,
    DEFAULT_PARAMS,
    default_grid,
    infectiousness_series,
    post_count_series,
)

URL_RE = re.compile(r"https?://\S+|www\.\S+", re.IGNORECASE)
WORD_RE = re.compile(r"[\w']+", re.UNICODE)
URL_TOKEN = "<url>"

VARIANTS = ("full", "no_cim", "no_time", "freq")
USER_DIM = len(PROFILE_COUNT_FIELDS + PROFILE_FLAG_FIELDS)  # width of a user vector


def _is_han(ch: str) -> bool:
    return "一" <= ch <= "鿿" or "㐀" <= ch <= "䶿"


def _split_han(token: str):
    """Split a token into han runs (emitted as character bigrams) and the rest."""
    out = []
    run = []
    other = []

    def flush_other():
        if other:
            out.append("".join(other))
            other.clear()

    def flush_run():
        if len(run) == 1:
            out.append(run[0])
        elif run:
            out.extend(a + b for a, b in zip(run, run[1:]))
        run.clear()

    for ch in token:
        if _is_han(ch):
            flush_other()
            run.append(ch)
        else:
            flush_run()
            other.append(ch)
    flush_other()
    flush_run()
    return out


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; URLs collapse to a sentinel; han runs become
    character bigrams."""
    if not text:
        return []
    text = URL_RE.sub(f" {URL_TOKEN} ", text)
    text = unicodedata.normalize("NFKC", text).lower()
    tokens = []
    for piece in text.split():
        if piece == URL_TOKEN:
            tokens.append(URL_TOKEN)
            continue
        for tok in WORD_RE.findall(piece):
            if any(_is_han(c) for c in tok):
                tokens.extend(_split_han(tok))
            else:
                tokens.append(tok)
    return tokens


@dataclass(frozen=True)
class Vocabulary:
    """Top-K terms ranked by tf-idf, with smoothed idf weights."""

    terms: tuple[str, ...]
    idf: np.ndarray  # aligned with terms

    def __post_init__(self):
        object.__setattr__(self, "idf", np.asarray(self.idf, dtype=float))
        if len(self.terms) != len(self.idf):
            raise InvalidValue("terms and idf lengths differ")

    @property
    def size(self) -> int:
        return len(self.terms)

    @property
    def index(self) -> dict[str, int]:
        # cached lazily on first access
        idx = self.__dict__.get("_index")
        if idx is None:
            idx = {t: i for i, t in enumerate(self.terms)}
            self.__dict__["_index"] = idx
        return idx


def build_vocabulary(corpus: list[NewsStory], K: int = 5000) -> Vocabulary:
    """Build the top-K tf-idf vocabulary from training stories.

    idf(w) = ln((1 + N) / (1 + df(w))) + 1 over the N training posts; terms
    are ranked by their max tf-idf across posts, ties lexicographic.
    """
    if not corpus:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    docs = [tokenize(p.text) for story in corpus for p in story.posts]
    n_docs = len(docs)
    df: Counter = Counter()
    best_tf: dict[str, float] = {}
    for doc in docs:
        counts = Counter(doc)
        for w, tf in counts.items():
            df[w] += 1
            best_tf[w] = max(best_tf.get(w, 0.0), tf)
    idf = {w: math.log((1 + n_docs) / (1 + d)) + 1.0 for w, d in df.items()}
    scored = sorted(idf, key=lambda w: (-best_tf[w] * idf[w], w))
    terms = tuple(scored[:K])
    return Vocabulary(terms=terms, idf=np.array([idf[w] for w in terms]))


@dataclass(frozen=True)
class SparseVec:
    """Sparse K-dimensional tf-idf vector of one post."""

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out


def vectorize_post(tokens: list[str], vocab: Vocabulary) -> SparseVec:
    """tf * idf over in-vocabulary tokens; OOV tokens are dropped."""
    idx = vocab.index
    counts: Counter = Counter(t for t in tokens if t in idx)
    if not counts:
        return SparseVec(np.empty(0, dtype=np.int64), np.empty(0), vocab.size)
    indices = np.array(sorted(idx[w] for w in counts), dtype=np.int64)
    values = np.array([counts[vocab.terms[i]] * vocab.idf[i] for i in indices])
    return SparseVec(indices=indices, values=values, dim=vocab.size)


@dataclass(frozen=True)
class UserScaler:
    """Per-feature standardization of the profile counts; flags pass through."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "stds", np.asarray(self.stds, dtype=float))


def fit_user_scaler(corpus: list[NewsStory]) -> UserScaler:
    if not corpus:
        raise EmptyCorpus("cannot fit a scaler on an empty corpus")
    n = len(PROFILE_COUNT_FIELDS)
    rows = np.array([p.user.as_tuple()[:n] for s in corpus for p in s.posts], dtype=float)
    means = rows.mean(axis=0)
    stds = rows.std(axis=0)
    stds[stds == 0] = 1.0
    return UserScaler(means=means, stds=stds)


def user_vector(profile: UserProfile, scaler: UserScaler) -> np.ndarray:
    raw = np.array(profile.as_tuple(), dtype=float)  # a fresh array, scaled in place
    n = len(PROFILE_COUNT_FIELDS)
    raw[:n] = (raw[:n] - scaler.means) / scaler.stds
    return raw


_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}  # by annotation


@dataclass(frozen=True)
class BundleConfig:
    """The shape of a story's streams; model.ModelConfig extends it."""

    seq_len: int = 30          # posts fed to the linguistic/user GRUs
    temporal_len: int = 47     # hourly infectiousness points
    variant: str = "full"
    kernel: ClassVar[KernelParams] = DEFAULT_PARAMS  # fixed; not stored in checkpoints

    def __post_init__(self):
        for f in dataclasses.fields(self):  # ModelConfig's fields too
            value, kind = getattr(self, f.name), f.type.removesuffix(" | None")
            if value is None and kind != f.type:
                continue
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
                raise ConfigMismatch(f"{f.name} {value!r} is not of type {f.type}")
            if kind == "float" and not math.isfinite(value):
                raise ConfigMismatch(f"{f.name} {value!r} is not finite")
        if self.variant not in VARIANTS:
            raise ConfigMismatch(f"unknown variant {self.variant!r}")
        for name in ("seq_len", "temporal_len"):
            if getattr(self, name) < 1:
                raise ConfigMismatch(f"{name} {getattr(self, name)!r} must be at least 1")

    def grid(self) -> np.ndarray:
        return default_grid(self.temporal_len)


@dataclass(frozen=True)
class FeatureBundle:
    """Featurized story: linguistic sequence, user sequence, temporal series."""

    linguistic: tuple[SparseVec, ...]
    users: np.ndarray            # (seq_len, USER_DIM)
    mask: np.ndarray             # (seq_len,) bool, True at real posts
    temporal: np.ndarray | None  # (temporal_len,) or None for the no_time variant
    label: str


def build_bundle(story: NewsStory, vocab: Vocabulary, scaler: UserScaler,
                 config: BundleConfig) -> FeatureBundle:
    """Vectorize the first seq_len posts and attach the variant's temporal stream."""
    T = config.seq_len
    posts = story.posts[:T]
    n_real = len(posts)
    empty = SparseVec(np.empty(0, dtype=np.int64), np.empty(0), vocab.size)
    linguistic = tuple(vectorize_post(tokenize(p.text), vocab) for p in posts) \
        + (empty,) * (T - n_real)
    users = np.zeros((T, USER_DIM))
    for i, p in enumerate(posts):
        users[i] = user_vector(p.user, scaler)
    mask = np.zeros(T, dtype=bool)
    mask[:n_real] = True

    if config.variant in ("full", "no_cim"):
        temporal = np.array(infectiousness_series(story, config.grid(), config.kernel).values)
    elif config.variant == "freq":
        temporal = post_count_series(story, config.grid())
    else:  # no_time
        temporal = None
    return FeatureBundle(linguistic=linguistic, users=users, mask=mask,
                         temporal=temporal, label=story.label)


def build_bundles(stories_by_split: dict[str, list[NewsStory]], vocab: Vocabulary,
                  scaler: UserScaler, config: BundleConfig) -> dict[str, list[FeatureBundle]]:
    """build_bundle over every story of every split, keyed like the input."""
    return {split: [build_bundle(s, vocab, scaler, config) for s in stories]
            for split, stories in stories_by_split.items()}
