import dataclasses
import hashlib
import json
import math
import re
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascadefuse.cascade import NewsStory, Post, UserProfile
from cascadefuse.cli import run_command
from cascadefuse.data import generate_synthetic, save_dataset, split_dataset
from cascadefuse.errors import ConfigMismatch, InvalidValue
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
    vectorize_posts,
)
from cascadefuse.model import ModelConfig, load_checkpoint
from cascadefuse.pointprocess import DEFAULT_PARAMS

from oracles import reference_vectorize_post, reference_vocabulary


def story_of_texts(texts, label="true", sid="s", t_step=10.0, followers=5.0):
    posts = tuple(Post(t=i * t_step, followers=followers, text=tx)
                  for i, tx in enumerate(texts))
    return NewsStory(id=sid, label=label, posts=posts)


# --- tokenize ---

def _is_han(ch):
    return "一" <= ch <= "鿿" or "㐀" <= ch <= "䶿"


def _split_han(token):
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


REFERENCE_URL_RE = re.compile(r"https?://\S+|www\.\S+", re.IGNORECASE)


def reference_tokenize(text):
    """Test oracle: the per-piece, per-character tokenizer that `tokenize`
    replaces with one regex pass."""
    if not text:
        return []
    text = REFERENCE_URL_RE.sub(f" {URL_TOKEN} ", text)
    text = unicodedata.normalize("NFKC", text).lower()
    tokens = []
    for piece in text.split():
        if piece == URL_TOKEN:
            tokens.append(URL_TOKEN)
            continue
        for tok in re.findall(r"[\w']+", piece):
            if any(_is_han(c) for c in tok):
                tokens.extend(_split_han(tok))
            else:
                tokens.append(tok)
    return tokens


TEXT_PIECES = (
    "<url>", "<URL>", "a<url>", "<url>b", "<URL>Glued", "http://t.co/x", "HTTPS://X.Y/z",
    "www.", "www.e.org", "　", "\x1c", "\x85", "\xa0", " ", "\u200b", "\n",
    "一", "鿿", "㐀", "䶿", "\u33ff", "\u4dc0", "\ua000", "豈", "这是", "新闻",
    "ＦＵＬＬ", "ｗｉｄｅ", "ﬁ", "İ", "’", "'", "_", "word", "Mixed", "3",
    "httpſ://a", "HTTPS://", "wWw.x", "Www.", "ｈｔｔｐ://x", "\u212a",
)


@settings(max_examples=400)
@given(st.lists(st.sampled_from(TEXT_PIECES) | st.text(max_size=3), max_size=12).map("".join))
def test_tokenize_matches_reference(text):
    assert tokenize(text) == reference_tokenize(text)

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


@pytest.mark.parametrize("K", [-3, -1, 1.5, "5", True])
def test_vocabulary_rejects_k_that_is_not_a_non_negative_integer(K):
    with pytest.raises(InvalidValue, match="non-negative integer"):
        build_vocabulary(TOY, K=K)


def test_vocabulary_k_zero_is_empty():
    vocab = build_vocabulary(TOY, K=0)
    assert vocab.size == 0 and vocab.idf.shape == (0,)


def test_vocabulary_empty_corpus():
    with pytest.raises(InvalidValue, match="cannot build a vocabulary from an empty corpus"):
        build_vocabulary([], K=5)


# few words, so that equal tf-idf scores are common; a han run tokenizes to bigrams
CORPUS_WORDS = ("aa", "ab", "b", "zz", "don't", URL_TOKEN, "<URL>", "这是新闻", "假", "假的")
post_texts = st.lists(st.sampled_from(CORPUS_WORDS), max_size=6).map(" ".join)
corpora = st.lists(st.lists(post_texts, min_size=1, max_size=4), min_size=1, max_size=4).map(
    lambda stories: [story_of_texts(texts, sid=f"s{i}") for i, texts in enumerate(stories)])


@settings(max_examples=300)
@given(corpora, st.sampled_from([0, 1, 3, 1000]))
def test_vocabulary_matches_reference(corpus, K):
    got, want = build_vocabulary(corpus, K=K), reference_vocabulary(corpus, K)
    assert got.terms == want.terms
    assert got.idf.dtype == want.idf.dtype and got.idf.tobytes() == want.idf.tobytes()


def test_vocabulary_matches_reference_on_ties_and_empty_posts():
    corpus = [story_of_texts(["b aa aa", "", "zz <url> 这是新闻"]),
              story_of_texts(["aa b", "假 假", ""], sid="s2")]
    for K in (0, 1, 3, 1000):
        want = reference_vocabulary(corpus, K)
        got = build_vocabulary(corpus, K=K)
        assert got.terms == want.terms and got.idf.tobytes() == want.idf.tobytes()
    # tf 2 beats df 1; among the df-1, tf-1 ties the order is by code point
    assert build_vocabulary(corpus, K=1000).terms[:4] == ("假", "aa", URL_TOKEN, "zz")


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


def assert_as_post_by_post(token_lists, vocab):
    """vectorize_posts equals vectorize_post and the Counter oracle post by
    post, with int64 indices and float64 values byte for byte."""
    got = vectorize_posts(token_lists, vocab)
    for want in ([vectorize_post(t, vocab) for t in token_lists],
                 [reference_vectorize_post(t, vocab) for t in token_lists]):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dim == w.dim
            assert g.indices.dtype == np.int64 and g.values.dtype == np.float64
            assert g.indices.tobytes() == w.indices.tobytes()
            assert g.values.tobytes() == w.values.tobytes()
    return got


@given(st.lists(st.lists(st.sampled_from(["apple", "banana", "cherry", "oov", "kiwi"]),
                         max_size=8), max_size=6),
       st.sampled_from([0, 1, 3]))
def test_vectorize_posts_is_vectorize_post_per_post(token_lists, K):
    assert_as_post_by_post(token_lists, build_vocabulary(TOY, K=K))


def test_vectorize_posts_empty_oov_repeated_and_size_zero_vocabulary():
    token_lists = [[], ["oov", "durian"], ["apple", "banana", "apple"], [], ["cherry"]]
    got = assert_as_post_by_post(token_lists, build_vocabulary(TOY, K=3))
    assert [v.indices.size for v in got] == [0, 0, 2, 0, 1]
    # a tree import whose texts are all empty yields a size-0 vocabulary
    got = assert_as_post_by_post(token_lists, Vocabulary(terms=(), idf=np.empty(0)))
    assert all(v.dim == 0 and v.indices.size == 0 for v in got)
    assert vectorize_posts([], build_vocabulary(TOY, K=3)) == []


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
    _, _, vocab2, scaler2, _, _ = load_checkpoint(tmp_path / "model")

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


# --- golden digest of the whole featurizer ---

MIXED_TEXTS = (
    "BREAKING 这是新闻 http://t.co/abc fake?",
    "ＦＵＬＬＷＩＤＴＨ Ｎｅｗｓ ﬁnd <URL> 一丁鿿㐀䶿 www.example.com/x",
    "假 rumour’s_spread 真的假的 HTTPS://X.Y/z <url>glued 豈豈",
    "don't　stop\xa0now\x85İstanbul\u200bzero 丁a鿿",
)


def with_mixed_texts(stories):
    """The stories with the first two texts of each replaced by MIXED_TEXTS."""
    out = []
    for i, s in enumerate(stories):
        posts = list(s.posts)
        for j in range(min(2, len(posts))):
            posts[j] = dataclasses.replace(posts[j],
                                           text=MIXED_TEXTS[(i + j) % len(MIXED_TEXTS)])
        out.append(dataclasses.replace(s, posts=tuple(posts)))
    return out


def featurizer_digest(stories):
    """sha256 over the vocabulary (terms, idf bytes) and every bundle's
    linguistic indices and values, user rows and temporal series."""
    vocab = build_vocabulary(stories, K=5000)
    scaler = fit_user_scaler(stories)
    h = hashlib.sha256("\n".join(vocab.terms).encode())
    h.update(vocab.idf.tobytes())
    for s in stories:
        b = build_bundle(s, vocab, scaler, BundleConfig())
        for v in b.linguistic:
            h.update(v.indices.tobytes())
            h.update(v.values.tobytes())
        h.update(b.users.tobytes())
        h.update(b.temporal.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden_stories():
    return generate_synthetic(4, seed=3).stories


def test_featurizer_golden_digest(golden_stories):
    # recorded with the per-character tokenizer and per-post user scaling
    assert featurizer_digest(golden_stories) == (
        "55adf0e7b5f48a805e2d3e5f7663be95b74bf62de4eafe139df615401a1e3eed")


def test_featurizer_golden_digest_mixed_scripts(golden_stories):
    assert featurizer_digest(with_mixed_texts(golden_stories)) == (
        "6d54e60fa09e57ac445429555565563a85bb411933baee9c474dd34dac259e85")


def test_user_vector_is_a_bundle_row(golden_stories):
    s = golden_stories[0]
    vocab, scaler = build_vocabulary([s], K=5), fit_user_scaler(golden_stories)
    b = build_bundle(s, vocab, scaler, BundleConfig(seq_len=3))
    for i in range(3):
        assert user_vector(s.posts[i].user, scaler).tobytes() == b.users[i].tobytes()
