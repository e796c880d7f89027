"""Spans recorded around calls into the program, and the per-layer probes.

Spans and counts are kept in memory for the per-layer metrics. The probes call
each layer's public functions directly, on the workload's own stories, so
that work inside `model.train` and `model.evaluate` can be timed layer by
layer from outside the program.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from statistics import median

import numpy as np

from cascadefuse import autodiff, features, layers, model, pointprocess
from cascadefuse.data import SECONDS_PER_DAY

from workloads import BUNDLE_CONFIG, LABEL_SET, PROFILE


class NullTracer:
    """Tracing off: spans and counts cost one call each."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, value):
        pass


class Tracer:
    """Span durations and counts by name, kept in memory."""

    def __init__(self):
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, list] = defaultdict(list)

    @contextlib.contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name].append(time.perf_counter() - start)

    def count(self, name, value):
        self.counts[name].append(value)


def tape_nodes(root) -> list:
    """Every node of the autodiff tape reachable from root.

    The tape has no public walker, so this follows `Tensor._parents`.
    """
    seen = {id(root): root}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def _gru_weights(params, prefix):
    return tuple(params[f"{prefix}_{n}"] for n in ("Uz", "Wz", "Ur", "Wr", "Uh", "Wh"))


def _timed_backward(tracer, name, states: autodiff.Tensor, rng):
    """Backpropagate a fixed random upstream gradient through states."""
    root = (states * autodiff.Tensor(rng.standard_normal(states.data.shape))).sum()
    with tracer.span(name):
        root.backward()


PROBE_STORIES = 3


def probe_layers(seed: int, splits, feat, trained, temporal_scaler, tracer):
    """One round of per-layer probes on the first PROBE_STORIES train and
    test stories of the workload."""
    cfg = feat.config
    grid = BUNDLE_CONFIG.grid()
    rng = np.random.default_rng([seed, 3])

    # point process: two fresh cascades, one per profile shape of the generator
    events = 0
    for k, shape in enumerate((PROFILE.real, PROFILE.fake)):
        with tracer.span("pointprocess.simulate_hawkes"):
            c = pointprocess.simulate_hawkes(
                shape, lambda r: r.poisson(PROFILE.follower_mean),
                PROFILE.horizon_days * SECONDS_PER_DAY, seed=seed * 2 + k,
                source_followers=PROFILE.source_followers)
        events += len(c.posts)
    tracer.count("pointprocess.events_simulated", events)

    stories = splits["train"][:PROBE_STORIES]
    for s in stories:
        with tracer.span("pointprocess.infectiousness_series"):
            pointprocess.infectiousness_series(s, grid, BUNDLE_CONFIG.kernel)
        with tracer.span("features.build_bundle_probe"):
            features.build_bundle(s, feat.vocab, feat.scaler, BUNDLE_CONFIG)
        with tracer.span("features.tokenize_story"):
            docs = [features.tokenize(p.text) for p in s.posts]
        with tracer.span("features.vectorize_story"):
            for d in docs:
                features.vectorize_post(d, feat.vocab)
        tracer.count("features.posts", len(s.posts))
    tracer.count("pointprocess.grid_points_estimated", len(stories) * grid.size)

    # training step on fresh weights: forward, backward, AdaDelta
    params = model.init_params(cfg)
    for b in feat.bundles["train"][:PROBE_STORIES]:
        b = temporal_scaler.apply(b)
        y = LABEL_SET.index(b.label)
        with tracer.span("model.forward_train"):
            z, _ = model.forward(b, params, cfg, training=True, rng=rng)
            loss = layers.cross_entropy(z, y)
        nodes = tape_nodes(loss)
        tracer.count("autodiff.tape_nodes_train", len(nodes))
        with tracer.span("autodiff.backward"):
            loss.backward()
        tracer.count("autodiff.grad_bytes",
                     sum(n.grad.nbytes for n in nodes if n.grad is not None))
        tracer.count("layers.adadelta_weights_updated",
                     sum(p.data.size for p in params.values() if p.grad is not None))
        del nodes, loss, z
        with tracer.span("layers.adadelta_step"):
            layers.adadelta_step(params)

        # encoder paths, attention and head, each with its own tape
        mask = b.mask
        E = params["embed"]
        ling_in = [autodiff.Tensor(autodiff.embedding_lookup(E, v.indices, v.values).data)
                   if mask[t] else autodiff.Tensor(np.zeros(cfg.embed_dim))
                   for t, v in enumerate(b.linguistic)]
        user_in = [autodiff.Tensor(u) for u in b.users]
        temp_in = [autodiff.Tensor(np.array([v])) for v in b.temporal]
        paths = {}
        for name, inputs, m in (("ling", ling_in, mask), ("user", user_in, mask),
                                ("temp", temp_in, np.ones(len(temp_in), dtype=bool))):
            with tracer.span(f"layers.gru_{name}_fwd"):
                seq = layers.gru_unroll(inputs, m, *_gru_weights(params, name),
                                        form=cfg.gru_form)
            _timed_backward(tracer, f"layers.gru_{name}_bwd", seq.states, rng)
            paths[name] = seq.states.data
        H_l = layers.HiddenSequence(autodiff.Tensor(paths["ling"], requires_grad=True), mask)
        H_u = layers.HiddenSequence(autodiff.Tensor(paths["user"], requires_grad=True), mask)
        with tracer.span("layers.cim_attention_fwd"):
            H_ul, _ = layers.cim_attention(H_l, H_u)
        _timed_backward(tracer, "layers.cim_attention_bwd", H_ul.states, rng)
        f1 = autodiff.Tensor(rng.standard_normal(cfg.e_con), requires_grad=True)
        with tracer.span("layers.head_fwd"):
            f2 = autodiff.relu(layers.fc(f1, params["f2_W"], params["f2_b"]))
            z = autodiff.softmax(layers.fc(f2, params["out_W"], params["out_b"]))
            loss = layers.cross_entropy(z, y)
        with tracer.span("layers.head_bwd"):
            loss.backward()
        params.zero_grad()

    # scoring: forward-only on held-out stories with the trained weights
    for b in feat.bundles["test"][:PROBE_STORIES]:
        b = temporal_scaler.apply(b)
        with tracer.span("model.forward_eval"):
            z, _ = model.forward(b, trained, cfg, training=False)
        tracer.count("autodiff.tape_nodes_eval", len(tape_nodes(z)))


def _ms(xs):
    return 1e3 * median(xs)


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and counts of a traced run.

    Times are medians per call; counts are medians per probe round
    (events, grid points) or per call (tape nodes, bytes, weights).
    """
    d = tracer.spans
    c = tracer.counts
    out = {
        "pointprocess.simulate_hawkes_ms": (_ms(d["pointprocess.simulate_hawkes"]), "ms"),
        "pointprocess.events_simulated": (median(c["pointprocess.events_simulated"]), "count"),
        "pointprocess.infectiousness_series_ms":
            (_ms(d["pointprocess.infectiousness_series"]), "ms"),
        "pointprocess.grid_points_estimated":
            (median(c["pointprocess.grid_points_estimated"]), "count"),
        "data.save_dataset_s": (median(d["data.save_dataset"]), "s"),
        "data.load_dataset_s": (median(d["data.load_dataset"]), "s"),
        "features.build_vocabulary_s": (median(d["features.build_vocabulary"]), "s"),
        "features.tokenize_us": (1e6 * median(
            t / n for t, n in zip(d["features.tokenize_story"], c["features.posts"])), "us"),
        "features.vectorize_post_us": (1e6 * median(
            t / n for t, n in zip(d["features.vectorize_story"], c["features.posts"])), "us"),
        "features.build_bundle_self_ms": (_ms(
            [b - i for b, i in zip(d["features.build_bundle_probe"],
                                   d["pointprocess.infectiousness_series"])]), "ms"),
        "model.forward_train_ms": (_ms(d["model.forward_train"]), "ms"),
        "autodiff.backward_ms": (_ms(d["autodiff.backward"]), "ms"),
        "autodiff.tape_nodes_train": (median(c["autodiff.tape_nodes_train"]), "count"),
        "autodiff.grad_bytes": (median(c["autodiff.grad_bytes"]), "bytes"),
        "layers.adadelta_step_ms": (_ms(d["layers.adadelta_step"]), "ms"),
        "layers.adadelta_weights_updated":
            (median(c["layers.adadelta_weights_updated"]), "count"),
    }
    for layer in ("gru_ling", "gru_user", "gru_temp", "cim_attention", "head"):
        for way in ("fwd", "bwd"):
            out[f"layers.{layer}_{way}_ms"] = (_ms(d[f"layers.{layer}_{way}"]), "ms")
    out["model.forward_eval_ms"] = (_ms(d["model.forward_eval"]), "ms")
    out["autodiff.tape_nodes_eval"] = (median(c["autodiff.tape_nodes_eval"]), "count")
    return out
