"""Workload inputs and the timed pipeline stages of the benchmark.

Each workload builds its dataset from a seed with the program's own
generator (`data.generate_synthetic`, which runs `pointprocess.simulate_hawkes`
per cascade). The Zipf-lexicon texts of `lexicon_k5000` are drawn here, on
the benchmark side. The stages below call only public functions of
`cascadefuse.data`, `features` and `model`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cascadefuse import data, features, model

LABEL_SET = ("true", "fake")
N_PER_CLASS = 12         # 24 stories: 16 / 2 / 6 after split_dataset's defaults
VOCAB_K = 5000           # K of build_vocabulary; the generator's texts have only 17 terms
ZIPF_EXPONENT = 1.0
PROFILE = data.SyntheticProfile()          # 2-day cascades
BUNDLE_CONFIG = features.BundleConfig()    # 47 hourly infectiousness points


@dataclass(frozen=True)
class Workload:
    name: str
    epochs: int                # fixed; patience is set to the same value
    featurize_passes: int      # featurize passes timed as one stage
    score_passes: int          # evaluate passes timed as one stage
    lexicon_size: int = 0      # 0 keeps the generator's own texts
    words_per_post: int = 0


WORKLOADS = {
    w.name: w for w in (
        Workload(name="synthetic_k17", epochs=4, featurize_passes=8, score_passes=10),
        Workload(name="lexicon_k5000", epochs=3, featurize_passes=6, score_passes=9,
                 lexicon_size=20000, words_per_post=16),
    )
}


def lexicon_word(rank: int) -> str:
    """A lowercase ASCII pseudo-word for a lexicon rank (bijective base 26)."""
    letters = []
    n = rank + 26 * 27  # at least three letters
    while n > 0:
        n, r = divmod(n - 1, 26)
        letters.append(chr(ord("a") + r))
    return "".join(reversed(letters))


def zipf_texts(rng: np.random.Generator, n_posts: int, w: Workload) -> list[str]:
    """n_posts texts of words drawn from a Zipf(ZIPF_EXPONENT) lexicon."""
    ranks = np.arange(1, w.lexicon_size + 1, dtype=float)
    p = ranks ** -ZIPF_EXPONENT
    p /= p.sum()
    words = [lexicon_word(i) for i in range(w.lexicon_size)]
    draws = rng.choice(w.lexicon_size, size=(n_posts, w.words_per_post), p=p)
    return [" ".join(words[i] for i in row) for row in draws]


def generate(w: Workload, seed: int) -> data.DatasetManifest:
    """The workload's dataset: the program's generator, plus lexicon texts."""
    manifest = data.generate_synthetic(N_PER_CLASS, seed=seed, profile_spec=PROFILE)
    if not w.lexicon_size:
        return manifest
    rng = np.random.default_rng([seed, 1])
    texts = iter(zipf_texts(rng, sum(len(s.posts) for s in manifest.stories), w))
    stories = [dataclasses.replace(s, posts=tuple(dataclasses.replace(p, text=next(texts))
                                                  for p in s.posts))
               for s in manifest.stories]
    return dataclasses.replace(manifest, stories=stories)


def setup(w: Workload, seed: int, path: Path, tracer):
    """generate -> save_dataset -> load_dataset -> split_dataset.

    Returns the generated manifest (for the round-trip check) and the split one.
    """
    generated = generate(w, seed)
    with tracer.span("data.save_dataset"):
        data.save_dataset(generated, path)
    with tracer.span("data.load_dataset"):
        loaded = data.load_dataset(path)
    return generated, data.split_dataset(loaded, seed=seed)


@dataclass
class Featurized:
    vocab: features.Vocabulary
    scaler: features.UserScaler
    bundles: dict[str, list[features.FeatureBundle]]
    config: model.ModelConfig


def featurize(w: Workload, splits: dict, tracer) -> Featurized:
    """Vocabulary, user scaler and one bundle per story, on every split."""
    train_stories = splits["train"]
    with tracer.span("features.build_vocabulary"):
        vocab = features.build_vocabulary(train_stories, K=VOCAB_K)
    scaler = features.fit_user_scaler(train_stories)
    bundles = {name: [features.build_bundle(s, vocab, scaler, BUNDLE_CONFIG) for s in stories]
               for name, stories in splits.items()}
    config = model.ModelConfig(vocab_size=vocab.size, max_epochs=w.epochs, patience=w.epochs)
    return Featurized(vocab, scaler, bundles, config)


def train(f: Featurized):
    return model.train(f.bundles["train"], f.bundles["val"], f.config, LABEL_SET)


def score(f: Featurized, params, temporal_scaler) -> model.EvalReport:
    return model.evaluate(f.bundles["test"], params, f.config, LABEL_SET,
                          scaler=temporal_scaler)

