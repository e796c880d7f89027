import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cascadefuse.cascade import NewsStory, Post, UserProfile
from cascadefuse.cli import run_command
from cascadefuse.data import generate_synthetic, save_dataset, split_dataset
from cascadefuse.errors import ConfigMismatch, EmptyCorpus
from cascadefuse.features import (
    URL_TOKEN,
    USER_DIM,
    BundleConfig,
    UserScaler,
    Vocabulary,
    build_bundle,
    build_bundles,
    build_vocabulary,
    fit_user_scaler,
    tokenize,
    user_vector,
    vectorize_post,
)
from cascadefuse.layers import load_checkpoint
from cascadefuse.model import ModelConfig
from cascadefuse.pointprocess import DEFAULT_PARAMS


def story_of_texts(texts, label="true", sid="s", t_step=10.0, followers=5.0):
    posts = tuple(Post(t=i * t_step, followers=followers, text=tx)
                  for i, tx in enumerate(texts))
    return NewsStory(id=sid, label=label, posts=posts)


# --- tokenize ---

def test_tokenize_lowercases_and_splits():
    assert tokenize("Fake NEWS here") == ["fake", "news", "here"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_url_sentinel():
    assert tokenize("see https://example.com/x now") == ["see", URL_TOKEN, "now"]


def test_tokenize_han_bigrams():
    assert tokenize("这是假的") == ["这是", "是假", "假的"]
    assert tokenize("假") == ["假"]


def test_tokenize_mixed_script_golden():
    # golden values fixed from the tokenizer contract: latin words kept,
    # han runs become bigrams, URLs collapse
    got = tokenize("BREAKING 这是新闻 http://t.co/abc fake?")
    assert got == ["breaking", "这是", "是新", "新闻", URL_TOKEN, "fake"]


# --- vocabulary ---

TOY = [story_of_texts(["apple banana apple"]), story_of_texts(["banana cherry"], sid="s2")]


def hand_idf(df, n_docs=2):
    return math.log((1 + n_docs) / (1 + df)) + 1


def test_vocabulary_hand_ranking():
    # N=2 posts; df: apple 1, banana 2, cherry 1; max tf: apple 2, others 1.
    # scores: apple 2*1.405, cherry 1.405, banana 1.0
    vocab = build_vocabulary(TOY, K=3)
    assert vocab.terms == ("apple", "cherry", "banana")
    assert vocab.idf[0] == pytest.approx(hand_idf(1))
    assert vocab.idf[2] == pytest.approx(hand_idf(2))


def test_vocabulary_idf_floor_for_ubiquitous_term():
    vocab = build_vocabulary(TOY, K=3)
    assert vocab.idf[vocab.terms.index("banana")] == pytest.approx(1.0)


def test_vocabulary_truncates_when_k_exceeds_terms():
    vocab = build_vocabulary(TOY, K=100)
    assert vocab.size == 3


def test_vocabulary_tie_break_lexicographic():
    corpus = [story_of_texts(["bb aa"])]
    vocab = build_vocabulary(corpus, K=2)
    assert vocab.terms == ("aa", "bb")


def test_vocabulary_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocabulary([], K=5)


# --- vectorize ---

def test_vectorize_no_in_vocab_tokens():
    vocab = build_vocabulary(TOY, K=3)
    v = vectorize_post(["durian"], vocab)
    assert v.indices.size == 0 and np.all(v.to_dense() == 0)


def test_vectorize_repeated_token():
    vocab = build_vocabulary(TOY, K=3)
    v = vectorize_post(["apple", "apple"], vocab).to_dense()
    j = vocab.terms.index("apple")
    assert v[j] == pytest.approx(2 * hand_idf(1))
    assert np.count_nonzero(v) == 1


def test_vectorize_toy_post_hand_values():
    vocab = build_vocabulary(TOY, K=3)
    v = vectorize_post(tokenize("banana cherry"), vocab).to_dense()
    assert v[vocab.terms.index("banana")] == pytest.approx(hand_idf(2))
    assert v[vocab.terms.index("cherry")] == pytest.approx(hand_idf(1))


@given(st.lists(st.sampled_from(["apple", "banana", "cherry", "oov"]), max_size=20))
def test_vectorize_nnz_bounded_by_tokens(tokens):
    vocab = build_vocabulary(TOY, K=3)
    v = vectorize_post(tokens, vocab)
    assert v.indices.size <= len(tokens)


# --- user scaling ---

def test_user_vector_flags_bypass_scaling():
    scaler = UserScaler(means=np.ones(6) * 5, stds=np.ones(6) * 2)
    u = user_vector(UserProfile(verified=1, geo=0), scaler)
    assert u[6] == 1.0 and u[7] == 0.0
    assert u[0] == pytest.approx((0 - 5) / 2)


def test_fit_scaler_hand_values():
    profiles = [UserProfile(followers=10), UserProfile(followers=20), UserProfile(followers=60)]
    stories = [NewsStory(id="s", label="true",
                         posts=tuple(Post(t=i, followers=1, user=p)
                                     for i, p in enumerate(profiles)))]
    scaler = fit_user_scaler(stories)
    assert scaler.means[2] == pytest.approx(30.0)
    assert scaler.stds[2] == pytest.approx(np.std([10, 20, 60]))
    u = user_vector(profiles[0], scaler)
    assert u[2] == pytest.approx((10 - 30) / np.std([10, 20, 60]))


def test_fit_scaler_constant_feature_keeps_unit_std():
    stories = [story_of_texts(["a", "b"])]
    scaler = fit_user_scaler(stories)
    assert np.all(scaler.stds == 1.0)


# --- bundles ---

def test_bundle_padding_and_mask():
    s = story_of_texts(["a"] * 10)
    vocab = build_vocabulary([s], K=5)
    scaler = fit_user_scaler([s])
    b = build_bundle(s, vocab, scaler, BundleConfig(seq_len=30, temporal_len=5))
    assert len(b.linguistic) == 30
    assert b.mask.sum() == 10 and not b.mask[10:].any()
    assert b.linguistic[10].indices.size == 0
    assert np.all(b.users[10:] == 0)
    assert len(b.temporal) == 5


def test_bundle_freq_variant_uses_counts():
    s = story_of_texts(["a"] * 4, t_step=1800.0)
    vocab = build_vocabulary([s], K=5)
    scaler = fit_user_scaler([s])
    b = build_bundle(s, vocab, scaler, BundleConfig(seq_len=10, temporal_len=3, variant="freq"))
    assert b.temporal.tolist() == [3.0, 1.0, 0.0]  # posts at 0, .5h, 1h, 1.5h


def test_bundle_no_time_variant_lacks_temporal():
    s = story_of_texts(["a"] * 3)
    vocab = build_vocabulary([s], K=5)
    scaler = fit_user_scaler([s])
    b = build_bundle(s, vocab, scaler, BundleConfig(seq_len=5, temporal_len=3, variant="no_time"))
    assert b.temporal is None


@pytest.mark.parametrize("values", [{"seq_len": 0}, {"seq_len": -1}, {"temporal_len": 0}])
def test_bundle_config_rejects_sizes_below_one(values):
    with pytest.raises(ConfigMismatch, match="must be at least 1"):
        BundleConfig(**values)


def test_bundle_config_kernel_is_a_constant_not_a_field():
    assert "kernel" not in {f.name for f in dataclasses.fields(BundleConfig)}
    assert BundleConfig().kernel is DEFAULT_PARAMS
    assert "kernel" not in dataclasses.asdict(ModelConfig())


def test_build_bundles_accepts_a_model_config():
    s = story_of_texts(["a b", "b c"], t_step=600.0)
    vocab = build_vocabulary([s], K=5)
    scaler = fit_user_scaler([s])
    cfg = ModelConfig(seq_len=5, temporal_len=3, variant="freq", vocab_size=vocab.size)
    (got,) = build_bundles({"train": [s]}, vocab, scaler, cfg)["train"]
    want = build_bundle(s, vocab, scaler, BundleConfig(seq_len=5, temporal_len=3,
                                                       variant="freq"))
    assert got.users.shape == (5, USER_DIM)
    assert np.array_equal(got.users, want.users)
    assert np.array_equal(got.temporal, want.temporal)
    assert np.array_equal(got.mask, want.mask)


def test_bundle_deterministic():
    s = story_of_texts(["a b", "b c"], t_step=600.0)
    vocab = build_vocabulary([s], K=5)
    scaler = fit_user_scaler([s])
    cfg = BundleConfig(seq_len=5, temporal_len=3)
    b1 = build_bundle(s, vocab, scaler, cfg)
    b2 = build_bundle(s, vocab, scaler, cfg)
    assert all(np.array_equal(x.to_dense(), y.to_dense())
               for x, y in zip(b1.linguistic, b2.linguistic))
    assert np.array_equal(b1.temporal, b2.temporal)


def test_featurizer_artifacts_depend_only_on_training_split():
    train = [story_of_texts(["apple banana"], sid="t1"),
             story_of_texts(["cherry"], sid="t2")]
    vocab1 = build_vocabulary(train, K=10)
    scaler1 = fit_user_scaler(train)
    vocab2 = build_vocabulary(list(reversed(train)), K=10)
    scaler2 = fit_user_scaler(list(reversed(train)))
    assert vocab1.terms == vocab2.terms
    assert np.array_equal(scaler1.means, scaler2.means)



def test_featurizer_roundtrip(tmp_path):
    # the vocabulary and user scaler `train` writes into the checkpoint manifest
    # come back bit for bit, and featurize a story as the in-memory fit does
    m = split_dataset(generate_synthetic(6, seed=5), seed=5)
    data = tmp_path / "stories.jsonl"
    save_dataset(m, data)
    with open(str(data) + ".split.json", "w") as f:
        json.dump(m.split, f)
    assert run_command(["train", "--input", str(data), "--out", str(tmp_path / "model"),
                        "--max-epochs", "1", "--seq-len", "5"]) == 0
    _, meta = load_checkpoint(tmp_path / "model")
    vocab2 = Vocabulary(terms=tuple(meta["vocabulary"]["terms"]),
                        idf=meta["vocabulary"]["idf"])
    scaler2 = UserScaler(**meta["user_scaler"])

    train = m.by_split()["train"]
    vocab, scaler = build_vocabulary(train), fit_user_scaler(train)
    assert vocab2.terms == vocab.terms
    assert np.array_equal(vocab2.idf, vocab.idf)
    assert np.array_equal(scaler2.means, scaler.means)
    assert np.array_equal(scaler2.stds, scaler.stds)
    cfg = BundleConfig(seq_len=5)
    b1 = build_bundle(m.stories[0], vocab, scaler, cfg)
    b2 = build_bundle(m.stories[0], vocab2, scaler2, cfg)
    assert all(np.array_equal(x.to_dense(), y.to_dense())
               for x, y in zip(b1.linguistic, b2.linguistic))
    assert np.array_equal(b1.users, b2.users)
