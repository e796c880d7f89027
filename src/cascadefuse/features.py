"""Featurization: tokenization, tf-idf vocabulary, user scaling, story bundles."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
import operator
import re
import unicodedata
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cascade import PROFILE_COUNT_FIELDS, PROFILE_FLAG_FIELDS, NewsStory, UserProfile
from .errors import ConfigMismatch, InvalidValue
from .pointprocess import (
    KernelParams,
    DEFAULT_GRID_HOURS,
    DEFAULT_PARAMS,
    default_grid,
    infectiousness_series,
    post_count_series,
)

# https?://\S+|www\.\S+ ignoring case; only h/H and w/W fold to h and w, and a
# plain first class lets the engine skip ahead to candidate characters
URL_RE = re.compile(r"[hH](?i:ttps?://)\S+|[wW](?i:ww\.)\S+")
URL_TOKEN = "<url>"
# a word, or a whitespace-delimited URL_TOKEN piece (the lookbehind, after the
# "<", asks that no non-space precede it)
TOKEN_RE = re.compile(r"[\w']+|<(?<!\S<)url>(?!\S)")
HAN = "一-鿿㐀-䶿"  # CJK unified ideographs and extension A
HAN_RE = re.compile(f"[{HAN}]")
# a han run of two or more (emitted as bigrams), or any other run (kept whole)
HAN_RUN_RE = re.compile(f"([{HAN}]{{2,}})|([{HAN}]|[^{HAN}]+)")

VARIANTS = ("full", "no_cim", "no_time", "freq")
N_COUNTS = len(PROFILE_COUNT_FIELDS)  # leading, standardized columns of a user row
USER_DIM = len(PROFILE_COUNT_FIELDS + PROFILE_FLAG_FIELDS)  # width of a user vector
DEFAULT_VOCAB_SIZE = 5000  # tf-idf terms kept


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; URLs collapse to a sentinel; han runs become
    character bigrams."""
    if not text:
        return []
    text = URL_RE.sub(f" {URL_TOKEN} ", text)
    text = unicodedata.normalize("NFKC", text).lower()
    tokens = TOKEN_RE.findall(text)
    if HAN_RE.search(text) is None:
        return tokens
    out = []
    for tok in tokens:
        if HAN_RE.search(tok) is None:
            out.append(tok)
            continue
        for run, other in HAN_RUN_RE.findall(tok):
            if run:
                out.extend(map(operator.add, run, run[1:]))
            else:
                out.append(other)
    return out


@dataclass(frozen=True)
class Vocabulary:
    """Top-K terms ranked by tf-idf, with smoothed idf weights."""

    terms: tuple[str, ...]
    idf: np.ndarray  # aligned with terms

    def __post_init__(self):
        object.__setattr__(self, "idf", np.asarray(self.idf, dtype=float))
        if self.idf.shape != (len(self.terms),):
            raise InvalidValue("terms and idf lengths differ")
        if not np.isfinite(self.idf).all():
            raise InvalidValue("idf values must be finite")
        if not all(isinstance(t, str) for t in self.terms) or \
                len(set(self.terms)) != len(self.terms):
            raise InvalidValue("vocabulary terms must be distinct strings")

    @property
    def size(self) -> int:
        return len(self.terms)

    @functools.cached_property
    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.terms)}


def build_vocabulary(corpus: list[NewsStory], K: int = DEFAULT_VOCAB_SIZE) -> Vocabulary:
    """Build the top-K tf-idf vocabulary from training stories.

    idf(w) = ln((1 + N) / (1 + df(w))) + 1 over the N training posts; terms
    are ranked by their max tf-idf across posts, ties lexicographic. K must be
    a non-negative integer (InvalidValue otherwise).
    """
    if not corpus:
        raise InvalidValue("cannot build a vocabulary from an empty corpus")
    if isinstance(K, bool) or not isinstance(K, numbers.Integral) or K < 0:
        raise InvalidValue(f"vocabulary size K {K!r} must be a non-negative integer")
    docs = [tokenize(p.text) for story in corpus for p in story.posts]
    names = sorted(set(itertools.chain.from_iterable(docs)))  # lexicographic ids break ties
    _, term, tf = _count_terms(docs, dict(zip(names, range(len(names)))))
    df = np.bincount(term, minlength=len(names))
    best_tf = np.zeros(len(names), dtype=np.int64)
    np.maximum.at(best_tf, term, tf)
    # math.log once per distinct df, as the scalar formula computes it
    idf_of_df = np.zeros(df.max(initial=0) + 1)
    for d in np.flatnonzero(np.bincount(df)).tolist():
        idf_of_df[d] = math.log((1 + len(docs)) / (1 + d)) + 1.0
    idf = idf_of_df[df]
    top = np.argsort(-best_tf * idf, kind="stable")[:K]
    return Vocabulary(terms=tuple(map(names.__getitem__, top.tolist())), idf=idf[top])


def _count_terms(token_lists: list[list[str]], ids: dict[str, int]):
    """(post, id, count) arrays over the distinct (post, term id) pairs of the
    posts' tokens, ordered by post then id; tokens not in ids are dropped.
    One sort of integer pair keys does the grouping."""
    lengths = list(map(len, token_lists))
    n_ids = max(len(ids), 1)
    # a token not in ids gets a negative key, which the sort puts first
    oov = -len(token_lists) * n_ids
    keys = np.repeat(np.arange(0, len(token_lists) * n_ids, n_ids), lengths)
    keys += np.fromiter(map(ids.get, itertools.chain.from_iterable(token_lists),
                            itertools.repeat(oov)), np.int64, keys.size)
    keys.sort()
    keys = keys[np.searchsorted(keys, 0):]
    edge = np.ones(keys.size + 1, dtype=bool)  # where a run of equal keys starts or ends
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    edges = np.flatnonzero(edge)
    post, term = np.divmod(keys[edges[:-1]], n_ids)
    return post, term, edges[1:] - edges[:-1]


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


def vectorize_posts(token_lists: list[list[str]], vocab: Vocabulary) -> list[SparseVec]:
    """tf * idf over each post's in-vocabulary tokens; OOV tokens are dropped."""
    post, indices, tf = _count_terms(token_lists, vocab.index)
    values = tf * vocab.idf[indices]
    bounds = np.searchsorted(post, np.arange(len(token_lists) + 1)).tolist()
    return [SparseVec(indices=indices[a:b], values=values[a:b], dim=vocab.size)
            for a, b in zip(bounds, bounds[1:])]


def vectorize_post(tokens: list[str], vocab: Vocabulary) -> SparseVec:
    """vectorize_posts on one post."""
    return vectorize_posts([tokens], vocab)[0]


@dataclass(frozen=True)
class UserScaler:
    """Per-feature standardization of the profile counts; flags pass through."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        for name in ("means", "stds"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (N_COUNTS,) or not np.isfinite(value).all():
                raise InvalidValue(f"user scaler {name} must be {N_COUNTS} finite numbers")
            object.__setattr__(self, name, value)
        if not (self.stds > 0).all():
            raise InvalidValue("user scaler stds must be positive")


def fit_user_scaler(corpus: list[NewsStory]) -> UserScaler:
    if not corpus:
        raise InvalidValue("cannot fit a scaler on an empty corpus")
    rows = np.array([p.user.as_tuple()[:N_COUNTS] for s in corpus for p in s.posts],
                    dtype=float)
    means = rows.mean(axis=0)
    stds = rows.std(axis=0)
    stds[stds == 0] = 1.0
    return UserScaler(means=means, stds=stds)


def _user_rows(profiles, scaler: UserScaler) -> np.ndarray:
    """(len(profiles), USER_DIM) rows: counts standardized, flags as they are."""
    rows = np.array([p.as_tuple() for p in profiles], dtype=float).reshape(-1, USER_DIM)
    rows[:, :N_COUNTS] = (rows[:, :N_COUNTS] - scaler.means) / scaler.stds
    return rows


def user_vector(profile: UserProfile, scaler: UserScaler) -> np.ndarray:
    return _user_rows([profile], scaler)[0]


_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}  # by annotation


@dataclass(frozen=True)
class BundleConfig:
    """The shape of a story's streams; model.ModelConfig extends it."""

    seq_len: int = 30          # posts fed to the linguistic/user GRUs
    temporal_len: int = DEFAULT_GRID_HOURS  # hourly infectiousness points
    variant: str = "full"
    kernel: ClassVar[KernelParams] = DEFAULT_PARAMS  # fixed; not stored in checkpoints

    def __post_init__(self):
        for f in dataclasses.fields(self):  # ModelConfig's fields too
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigMismatch(f"{f.name} {value!r} is not of type {f.type}")
            if f.type == "float" and not math.isfinite(value):
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
    linguistic = tuple(vectorize_posts([tokenize(p.text) for p in posts]
                                       + [[]] * (T - n_real), vocab))
    users = np.zeros((T, USER_DIM))
    users[:n_real] = _user_rows([p.user for p in posts], scaler)
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
