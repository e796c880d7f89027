"""Each output check passes on the program's real output and fails on a
deliberately perturbed copy of it.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
from cascadefuse import data, features, model, pointprocess  # noqa: E402
from cascadefuse.model import TemporalScaler, TrainHistory  # noqa: E402

HORIZON_S = 2 * data.SECONDS_PER_DAY


@pytest.fixture(scope="module")
def stories():
    return data.generate_synthetic(2, seed=7).stories


@pytest.fixture(scope="module")
def featurized(stories):
    vocab = features.build_vocabulary(stories, K=5000)
    scaler = features.fit_user_scaler(stories)
    bundles = [features.build_bundle(s, vocab, scaler, features.BundleConfig())
               for s in stories]
    config = model.ModelConfig(vocab_size=vocab.size, embed_dim=8, E_l=8, E_u=8, E_s=8,
                               max_epochs=1, patience=1)
    return vocab, bundles, config


def _with_times(story, times):
    return dataclasses.replace(story, posts=tuple(
        dataclasses.replace(p, t=t) for p, t in zip(story.posts, times)))


def test_cascade_check(stories):
    assert checks.check_cascades(stories, HORIZON_S) == []
    times = [p.t for p in stories[0].posts]
    swapped = times[:1] + [times[2], times[1]] + times[3:]
    for bad, message in ((swapped, "not sorted"),
                         ([5.0] + times[1:], "not at t=0"),
                         (times[:-1] + [HORIZON_S + 1.0], "outside")):
        problems = checks.check_cascades([_with_times(stories[0], bad)], HORIZON_S)
        assert any(message in p for p in problems)


def test_same_seed_check():
    spec = data.SyntheticProfile()

    def simulate(seed):
        c = pointprocess.simulate_hawkes(spec.real, lambda r: r.poisson(1.0), 6 * 3600.0,
                                         seed=seed, source_followers=150.0)
        return checks.cascade_digest([c])

    assert checks.check_same(simulate(3), simulate(3), "cascades") == []
    assert checks.check_same(simulate(3), simulate(4), "cascades") != []


def test_estimator_check(stories):
    grid = pointprocess.default_grid()
    values = np.array(pointprocess.infectiousness_series(stories[1], grid).values)
    hours = [0, 11, 23, 46]
    assert checks.check_infectiousness(stories[1], values, grid, hours,
                                       pointprocess.DEFAULT_PARAMS) == []
    for k in hours:
        if values[k] == 0.0:
            continue
        for bad in (values[k] * (1 + 1e-6), np.nan):
            perturbed = values.copy()
            perturbed[k] = bad
            assert checks.check_infectiousness(stories[1], perturbed, grid, [k],
                                               pointprocess.DEFAULT_PARAMS) != []


def test_features_check(stories, featurized):
    vocab, bundles, _ = featurized
    samples = [(p.text, v) for s, b in zip(stories, bundles)
               for p, v in zip(s.posts, b.linguistic)]
    assert checks.check_features(stories, vocab, 5000, samples) == []

    text, vec = samples[0]
    values = vec.values.copy()
    values[0] *= 1 + 1e-9
    bad_vec = dataclasses.replace(vec, values=values)
    assert checks.check_features(stories, vocab, 5000, [(text, bad_vec)]) != []

    short = features.Vocabulary(terms=vocab.terms[:-1], idf=vocab.idf[:-1])
    problems = checks.check_features(stories, short, 5000, [])
    assert any("size" in p for p in problems) and any("ranking" in p for p in problems)


def test_gradient_check(featurized):
    _, bundles, config = featurized
    params = model.init_params(config)
    label = ("true", "fake").index(bundles[0].label)
    grads = checks.backward_gradients(bundles[0], label, params, config)
    assert checks.check_gradients(grads, bundles[0], label, params, config) == []

    # the largest gradient of the user path is always among the weights checked
    name = max((k for k in grads if k.startswith("user_")), key=lambda k: np.abs(grads[k]).max())
    bad = {k: g.copy() for k, g in grads.items()}
    bad[name].flat[np.argmax(np.abs(bad[name]))] *= 1.001
    problems = checks.check_gradients(bad, bundles[0], label, params, config)
    assert len(problems) == 1 and problems[0].startswith(name)


def test_adadelta_check(featurized):
    _, bundles, config = featurized
    before, params = checks.adadelta_update(bundles[0], 0, config)
    assert checks.check_adadelta(before, params) == []

    params["out_b"].data = params["out_b"].data * (1 + 1e-9)
    acc = params["f2_W"].acc_grad_sq
    acc.flat[np.argmax(acc)] *= 1 + 1e-9
    problems = checks.check_adadelta(before, params)
    assert any(p.startswith("out_b: AdaDelta weights") for p in problems)
    assert any(p.startswith("f2_W: AdaDelta squared-gradient") for p in problems)


def test_training_check(featurized):
    _, _, config = featurized
    params = model.init_params(config)
    history = TrainHistory(train_loss=[0.7, 0.6], val_loss=[0.7, 0.65])
    assert checks.check_training(history, 2, params) == []
    assert checks.check_training(history, 3, params) != []
    history.val_loss[1] = float("nan")
    assert checks.check_training(history, 2, params) != []


def test_score_check(featurized):
    _, bundles, config = featurized
    params = model.init_params(config)
    scaler = TemporalScaler()
    report = model.evaluate(bundles, params, config, scaler=scaler)
    probs = checks.eval_probabilities(bundles, params, config, scaler)
    labels = [("true", "fake").index(b.label) for b in bundles]
    assert checks.check_scores(probs, labels, report) == []

    unnormalised = probs.copy()
    unnormalised[0] *= 1.001
    assert any("sum to 1" in p for p in checks.check_scores(unnormalised, labels, report))
    nan = probs.copy()
    nan[1, 0] = np.nan
    assert checks.check_scores(nan, labels, report) != []
    flipped = probs.copy()
    flipped[0] = flipped[0, ::-1]
    assert any("accuracy" in p for p in checks.check_scores(flipped, labels, report))
