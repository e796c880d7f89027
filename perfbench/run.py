"""Benchmark of the cascadefuse pipeline: generate -> featurize -> train -> score.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --remake-digests

Run from the root of a checkout; the program is imported from its `src/`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`). See perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported: the default
# thread count made the train stage 14 % slower on some runs than others.
THREAD_SETTINGS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REFERENCE_DIGESTS = HERE / "reference_digests.json"
REFERENCE_SEEDS = (1, 2)
SETUP_REPEATS = 3
MIN_ROUNDS = 5


def process_age_s() -> float:
    """Seconds since the kernel started this process; 0 where that is unknown."""
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    except (OSError, ValueError, IndexError):
        return 0.0
    age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    return age if 0.0 <= age < 60.0 else 0.0


def import_program():
    src = ROOT / "src"
    if not (src / "cascadefuse" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {src / 'cascadefuse'}")
    sys.path.insert(0, str(src))


AGE_AT_START = process_age_s()
T_START = time.perf_counter()
import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cascadefuse.data import SECONDS_PER_DAY  # noqa: E402

IMPORT_S = AGE_AT_START + time.perf_counter() - T_START


class Operations:
    """Checked operations: one per set-up, three per round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {what}: {p}", file=sys.stderr)


def first_round_checks(seed, splits, feat, trained, temporal_scaler):
    """The output checks too slow to repeat every round: the estimator,
    features, gradient and AdaDelta checks. Returns the problems of the
    featurize and the train operation."""
    rng = np.random.default_rng([seed, 4])
    train_stories = splits["train"]
    grid = workloads.BUNDLE_CONFIG.grid()
    kernel = workloads.BUNDLE_CONFIG.kernel

    feat_problems = []
    for name in ("train", "test"):
        story, bundle = splits[name][0], feat.bundles[name][0]
        hours = rng.choice(grid.size, size=4, replace=False)
        feat_problems += checks.check_infectiousness(story, bundle.temporal, grid, hours, kernel)
    samples = [(p.text, vec)
               for name in ("train", "val", "test")
               for s, b in zip(splits[name][:2], feat.bundles[name][:2])
               for p, vec in zip(s.posts, b.linguistic)]
    feat_problems += checks.check_features(train_stories, feat.vocab, workloads.VOCAB_K, samples)

    bundle = temporal_scaler.apply(feat.bundles["train"][0])
    label = workloads.LABEL_SET.index(bundle.label)
    grads = checks.backward_gradients(bundle, label, trained, feat.config)
    train_problems = checks.check_gradients(grads, bundle, label, trained, feat.config)
    train_problems += checks.check_adadelta(*checks.adadelta_update(bundle, label, feat.config))
    return feat_problems, train_problems


def run(w, seed: int, seconds: float, trace: bool, min_rounds: int = MIN_ROUNDS) -> dict:
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    ops = Operations()
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{w.name}-{seed}-{os.getpid()}.jsonl"
    horizon_s = workloads.PROFILE.horizon_days * SECONDS_PER_DAY

    setup_times = []
    first_digest = None
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            generated, manifest = workloads.setup(w, seed, path, tracer)
            setup_times.append(time.perf_counter() - t0)
            cascades = checks.cascade_digest(generated.stories)
            first_digest = first_digest or cascades
            ops.record("set-up", checks.check_cascades(generated.stories, horizon_s)
                       + checks.check_same(manifest.stories, generated.stories,
                                           "saved and loaded stories")
                       + checks.check_same(cascades, first_digest,
                                           "cascades generated from the same seed"))
    finally:
        path.unlink(missing_ok=True)

    splits = manifest.by_split()
    sizes = {k: len(v) for k, v in splits.items()}
    stage = {"featurize": [], "train": [], "score": []}
    round_s = []
    first = None
    # A round starts only if a round of median length still ends within
    # `seconds` of process start, so the whole run, set-up included, takes
    # about `seconds`; at least min_rounds rounds run whatever `seconds` is.
    deadline = T_START - AGE_AT_START + seconds
    while len(round_s) < min_rounds or time.perf_counter() + median(round_s) <= deadline:
        t0 = time.perf_counter()
        for _ in range(w.featurize_passes):
            feat = workloads.featurize(w, splits, tracer)
        t1 = time.perf_counter()
        trained, history, temporal_scaler = workloads.train(feat)
        t2 = time.perf_counter()
        for _ in range(w.score_passes):
            report = workloads.score(feat, trained, temporal_scaler)
        t3 = time.perf_counter()
        stage["featurize"].append(t1 - t0)
        stage["train"].append(t2 - t1)
        stage["score"].append(t3 - t2)

        probs = checks.eval_probabilities(feat.bundles["test"], trained, feat.config,
                                          temporal_scaler)
        labels = [workloads.LABEL_SET.index(b.label) for b in feat.bundles["test"]]
        score_problems = checks.check_scores(probs, labels, report)
        train_problems = checks.check_training(history, w.epochs, trained)
        outputs = {
            "bundles": checks.digest(
                [b.temporal for bs in feat.bundles.values() for b in bs]
                + [v.values for bs in feat.bundles.values() for b in bs for v in b.linguistic]),
            "weights": checks.digest(p.data for p in trained.values()),
            "eval_probabilities": checks.digest([probs]),
        }
        if first is None:
            first = outputs
            # Later rounds repeat this work; the checks below hold larger
            # arrays than the pipeline does, so the peak is read before them.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            feat_problems, more = first_round_checks(seed, splits, feat, trained,
                                                     temporal_scaler)
            train_problems += more
        else:  # every round repeats the first one bit for bit
            feat_problems = checks.check_same(outputs["bundles"], first["bundles"],
                                              "bundles of two rounds")
            train_problems += checks.check_same(outputs["weights"], first["weights"],
                                                "trained weights of two rounds")
            score_problems += checks.check_same(outputs["eval_probabilities"],
                                                first["eval_probabilities"],
                                                "eval probabilities of two rounds")
        ops.record("featurize", feat_problems)
        ops.record("train", train_problems)
        ops.record("score", score_problems)
        if trace:
            tracing.probe_layers(seed, splits, feat, trained, temporal_scaler, tracer)
        round_s.append(time.perf_counter() - t0)

    n_all = sum(sizes.values())
    feat_s = median(stage["featurize"]) / w.featurize_passes
    train_s = median(stage["train"])
    score_s = median(stage["score"]) / w.score_passes
    e2e = {
        "setup_s": (IMPORT_S + median(setup_times), "s"),
        "featurize_stories_per_s": (n_all / feat_s, "1/s"),
        "train_stories_per_s": (sizes["train"] * w.epochs / train_s, "1/s"),
        "score_stories_per_s": (sizes["test"] / score_s, "1/s"),
        "pipeline_stories_per_s": (n_all / (feat_s + train_s + score_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    digests = {"cascades": first_digest,
               "infectiousness": checks.digest(
                   [b.temporal for bs in feat.bundles.values() for b in bs]),
               "eval_probabilities": first["eval_probabilities"]}
    info = {"workload": w.name, "seed": seed, "threads": THREAD_SETTINGS,
            "rounds": len(round_s), "round_s": [round(x, 2) for x in round_s],
            "stories": sizes,
            "vocabulary": feat.vocab.size, "test_accuracy": report.accuracy,
            "stage_s": {k: [round(x, 4) for x in v] for k, v in stage.items()},
            "digests": digests}
    metrics = e2e
    if trace:
        info["traced_end_to_end"] = {k: v for k, (v, _) in e2e.items()}
        metrics = tracing.layer_metrics(tracer)
    return {"info": info, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": metrics}


def reference_status(workload: str, seed: int, digests: dict) -> str:
    try:
        refs = json.loads(REFERENCE_DIGESTS.read_text())
    except FileNotFoundError:
        return "no reference file"
    ref = refs.get(workload, {}).get(str(seed))
    if ref is None:
        return "no reference for this seed"
    return "same" if ref == digests else "differs"


def remake_digests():
    refs = {}
    for name, w in workloads.WORKLOADS.items():
        for seed in REFERENCE_SEEDS:
            refs.setdefault(name, {})[str(seed)] = run(w, seed, 0.0, False, min_rounds=1)["info"]["digests"]
            print(name, seed, refs[name][str(seed)], flush=True)
    REFERENCE_DIGESTS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--remake-digests", action="store_true",
                    help=f"rewrite {REFERENCE_DIGESTS.name} for seeds {REFERENCE_SEEDS}")
    args = ap.parse_args(argv)
    if args.remake_digests:
        remake_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    info = result["info"]
    info["reference_digests"] = reference_status(args.workload, args.seed, info["digests"])
    print(json.dumps(info))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
