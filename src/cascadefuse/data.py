"""The reader of every input file, dataset I/O, splitting, and the synthetic generator.

The on-disk format is JSON Lines, one story per line:

    {"id": ..., "label": ..., "posts": [{"t": ..., "followers": ..., "text": ...,
      "user": {"desc_len", "name_len", "followers", "follows", "posts",
               "account_age_days", "verified", "geo"}}]}
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cascade import (
    BINARY_LABELS,
    FOURWAY_LABELS,
    NewsStory,
    Post,
    UserProfile,
    profile_from_dict,
    validate_story,
)
from .errors import CascadeFuseError, InvalidValue, ParseError
from .pointprocess import seeded_rng, simulate_hawkes

SECONDS_PER_DAY = 86400.0
TEST_FRAC = 0.25  # of all stories, held out for test (3:1)
VAL_FRAC = 0.15   # of the rest, moved to validation
SPLIT_NAMES = ("train", "val", "test")


def read_text(path, form: str = "UTF-8 text") -> str:
    """An input file's UTF-8 text; a ParseError naming it as not valid `form` if undecodable."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not valid {form}: {e}") from None


def read_json_object(path) -> dict:
    """An input file that holds one JSON object, else a ParseError naming it."""
    try:
        value = json.loads(read_text(path, form="JSON"))
    except ValueError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from None
    if isinstance(value, dict):
        return value
    raise ParseError(f"{path} is not a JSON object")


@dataclass
class DatasetManifest:
    stories: list[NewsStory]
    label_set: tuple[str, ...]
    split: dict[str, str] = field(default_factory=dict)  # story id -> train/val/test

    def by_split(self) -> dict[str, list[NewsStory]]:
        out: dict[str, list[NewsStory]] = defaultdict(list)
        for s in self.stories:
            out[self.split.get(s.id, "train")].append(s)
        return dict(out)


def _story_from_obj(obj: dict) -> tuple[NewsStory, tuple[str, ...]]:
    posts = []
    for p in obj["posts"]:
        user = dict(p.get("user", {}))
        if "posts" in user:  # wire name for the post-count profile field
            user["post_count"] = user.pop("posts")
        posts.append(Post(t=float(p["t"]), followers=float(p["followers"]),
                          text=p.get("text", ""), user=profile_from_dict(user)))
    story = NewsStory(id=str(obj["id"]), label=str(obj["label"]), posts=tuple(posts))
    return story, tuple(obj.get("label_set") or ())


def distinct_labels(label_set) -> tuple[str, ...]:
    """label_set as a tuple; InvalidValue if it names a label twice."""
    label_set = tuple(label_set)
    for i, label in enumerate(label_set):
        if label in label_set[:i]:
            raise InvalidValue(f"label set {list(label_set)} repeats label {label!r}")
    return label_set


def _label_set(labels: set, declared_sets=()) -> tuple[str, ...]:
    """The one declared label set, else the binary set if it holds every label, else four-way."""
    if len(declared_sets) > 1:
        raise InvalidValue(f"conflicting declared label sets: {sorted(declared_sets)}")
    label_set = distinct_labels(next(iter(declared_sets), BINARY_LABELS
                                     if labels <= set(BINARY_LABELS) else FOURWAY_LABELS))
    unknown = labels - set(label_set)
    if unknown:
        raise InvalidValue(f"labels {sorted(unknown)} outside declared set {label_set}")
    return label_set


def _first_use(first_line: dict[str, int], sid: str, lineno: int, where: str) -> None:
    """Record that story id sid is on line lineno; a ParseError if an earlier line has it."""
    if first_line.setdefault(sid, lineno) != lineno:
        raise ParseError(f"{where} {lineno}: story id {sid!r} repeats line {first_line[sid]}",
                         line=lineno)


def load_dataset(path) -> DatasetManifest:
    """Parse and validate a JSONL dataset; infers the label set."""
    stories = []
    declared_sets = set()
    first_line: dict[str, int] = {}  # story id -> line
    # split on "\n" only: str.splitlines would also split at the U+2028 that texts may hold
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:  # a field value that Post or UserProfile refuses is a ParseError too
            story, declared = _story_from_obj(json.loads(line))
        except Exception as e:
            raise ParseError(f"line {lineno}: {e}", line=lineno) from e
        try:
            story = validate_story(story)
        except CascadeFuseError as e:  # validate_story's typed errors keep their type
            raise type(e)(f"line {lineno}: {e}") from e
        _first_use(first_line, story.id, lineno, "line")
        if declared:
            declared_sets.add(declared)
        stories.append(story)
    return DatasetManifest(stories=stories,
                           label_set=_label_set({s.label for s in stories}, declared_sets))


def _post_obj(p: Post) -> dict:
    u = p.user
    return {
        "t": p.t, "followers": p.followers, "text": p.text,
        "user": {"desc_len": u.desc_len, "name_len": u.name_len,
                 "followers": u.followers, "follows": u.follows,
                 "posts": u.post_count, "account_age_days": u.account_age_days,
                 "verified": u.verified, "geo": u.geo},
    }


def save_dataset(manifest: DatasetManifest, path) -> None:
    """Write the canonical JSONL form (load -> save -> load round-trips)."""
    with open(path, "w", encoding="utf-8") as f:
        for s in manifest.stories:
            obj = {"id": s.id, "label": s.label,
                   "label_set": list(manifest.label_set),
                   "posts": [_post_obj(p) for p in s.posts]}
            f.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")


def split_path(dataset) -> str:
    """The split sidecar of a dataset file: <dataset>.split.json."""
    return f"{dataset}.split.json"


def save_split(split: dict[str, str], dataset) -> None:
    """Write a split as the sidecar of its dataset file."""
    with open(split_path(dataset), "w", encoding="utf-8") as f:
        json.dump(split, f, indent=0, sort_keys=True)


def load_split(path, story_ids: list[str]) -> dict[str, str]:
    """A split sidecar: one JSON object mapping each of the dataset's story ids,
    and no other, to train, val or test."""
    split = read_json_object(path)
    for sid, part in split.items():
        if part not in SPLIT_NAMES:
            raise ParseError(f"{path}: story {sid!r} has split {part!r}, "
                             f"not one of {list(SPLIT_NAMES)}")
    for sid in story_ids:
        if sid not in split:
            raise ParseError(f"{path}: story {sid!r} of the dataset has no split")
    known = set(story_ids)
    for sid in split:
        if sid not in known:
            raise ParseError(f"{path}: story {sid!r} is not in the dataset")
    return split


def split_dataset(manifest: DatasetManifest, seed: int = 0) -> DatasetManifest:
    """Seeded split: TEST_FRAC held out, then VAL_FRAC of the remaining
    training portion moved to validation; per label when every label of the
    label set has at least 3 stories, else over all stories."""
    if len(manifest.stories) < 3:
        raise InvalidValue("need at least 3 stories to split")
    groups: dict[str, list[NewsStory]] = defaultdict(list)
    for s in manifest.stories:
        groups[s.label].append(s)
    if any(len(groups[label]) < 3 for label in manifest.label_set):
        groups = {"_all": list(manifest.stories)}

    rng = seeded_rng(seed)
    split: dict[str, str] = {}
    for _, items in sorted(groups.items()):
        order = rng.permutation(len(items))
        n = len(items)
        n_test = round(TEST_FRAC * n)
        n_trainval = n - n_test
        n_val = round(VAL_FRAC * n_trainval)
        for rank, idx in enumerate(order):
            if rank < n_test:
                split[items[idx].id] = "test"
            elif rank < n_test + n_val:
                split[items[idx].id] = "val"
            else:
                split[items[idx].id] = "train"
    return DatasetManifest(stories=list(manifest.stories), label_set=manifest.label_set,
                           split=split)


# --- synthetic generation ---

REAL_TOKENS = ("breaking", "report", "official", "confirmed", "statement",
               "news", "update", "today", "sources", "according")
FAKE_TOKENS = ("shocking", "exposed", "truth", "hoax", "really", "unbelievable",
               "news", "update", "today", "share")


@dataclass(frozen=True)
class SyntheticProfile:
    """Infectiousness profile shapes for the generator: real news decays
    monotonically; fake news adds a second upsurge near hour 20-24."""

    base: float = 0.75
    decay_hours: float = 10.0
    bump_height: float = 0.65
    bump_hour: float = 22.0
    bump_width: float = 3.0
    source_followers: float = 150.0
    follower_mean: float = 1.0
    horizon_days: float = 2.0
    shared_text: bool = False  # draw texts from one pooled distribution

    def real(self, h: float) -> float:
        return self.base * math.exp(-h / self.decay_hours)

    def fake(self, h: float) -> float:
        bump = self.bump_height * math.exp(-0.5 * ((h - self.bump_hour) / self.bump_width) ** 2)
        return min(self.base * math.exp(-h / self.decay_hours) + bump, 1.0)

    def cascade(self, label: str, seed: int, story_id: str) -> NewsStory:
        """A cascade over horizon_days: the real profile for label "true", else the fake one."""
        return simulate_hawkes(
            self.real if label == "true" else self.fake, lambda r: r.poisson(self.follower_mean),
            self.horizon_days * SECONDS_PER_DAY, seed=seed, story_id=story_id, label=label,
            source_followers=self.source_followers)


def _sample_text(rng, tokens):
    return " ".join(rng.choice(tokens, size=8))


def _sample_profile(rng) -> UserProfile:
    return UserProfile(
        desc_len=float(rng.integers(0, 160)),
        name_len=float(rng.integers(1, 30)),
        followers=float(rng.lognormal(4.0, 1.5)),
        follows=float(rng.lognormal(4.0, 1.0)),
        post_count=float(rng.lognormal(5.0, 1.5)),
        account_age_days=float(rng.integers(1, 4000)),
        verified=int(rng.uniform() < 0.05),
        geo=int(rng.uniform() < 0.3),
    )


def generate_synthetic(n_per_class: int, seed: int = 0,
                       profile_spec: SyntheticProfile | None = None) -> DatasetManifest:
    """Fully seeded synthetic dataset: single-bump (real) vs double-bump (fake)
    cascades with overlapping text/user distributions."""
    spec = profile_spec or SyntheticProfile()
    rng = seeded_rng(seed)
    stories = []
    for k in range(n_per_class):
        for label in ("true", "fake"):
            cascade = spec.cascade(label, int(rng.integers(0, 2**31)), f"{label}-{k}")
            if spec.shared_text:
                tokens = tuple(sorted(set(REAL_TOKENS) | set(FAKE_TOKENS)))
            else:
                tokens = REAL_TOKENS if label == "true" else FAKE_TOKENS
            posts = tuple(
                Post(t=p.t, followers=p.followers,
                     text=_sample_text(rng, tokens),
                     user=_sample_profile(rng))
                for p in cascade.posts)
            stories.append(NewsStory(id=cascade.id, label=label, posts=posts))
    return DatasetManifest(stories=stories, label_set=BINARY_LABELS)


# --- best-effort import of the public tree-layout releases ---

def import_tree_dataset(root) -> DatasetManifest:
    """Import a rumor dataset in the label.txt + tree/<id>.txt layout.

    Expects `label.txt` lines of the form "label:story_id" and one
    `tree/<story_id>.txt` per story whose lines look like
    "['uid', 'tid', minutes]->['uid', 'tid', minutes]". Follower counts are
    not present in that layout and default to 1.
    """
    import ast

    root = Path(root)
    label_file = root / "label.txt"
    if not label_file.exists():
        raise ParseError(f"{label_file} not found")
    label_map = {"true": "true", "non-rumor": "true", "false": "fake",
                 "fake": "fake", "unverified": "unverified",
                 "debunking": "debunking", "debunk": "debunking"}
    stories = []
    first_line: dict[str, int] = {}  # story id -> line
    for lineno, line in enumerate(read_text(label_file).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw_label, sid = line.split(":", 1)
        except ValueError as e:
            raise ParseError(f"label.txt line {lineno}: {e}", line=lineno) from e
        label = label_map.get(raw_label.strip().lower())
        if label is None:
            raise ParseError(f"label.txt line {lineno}: unknown label {raw_label!r}",
                             line=lineno)
        sid = sid.strip()
        _first_use(first_line, sid, lineno, "label.txt line")
        tree_file = root / "tree" / f"{sid}.txt"
        if not tree_file.exists():
            continue
        minutes = set()
        for raw in read_text(tree_file).splitlines():
            if "->" not in raw:
                continue
            for side in raw.split("->", 1):
                try:
                    tup = ast.literal_eval(side.strip())
                    minutes.add(float(tup[2]))
                except Exception:
                    continue
        if not minutes:
            continue
        t0 = min(minutes)
        posts = tuple(Post(t=(m - t0) * 60.0, followers=1.0)
                      for m in sorted(minutes))
        stories.append(validate_story(
            NewsStory(id=sid, label=label, posts=posts)))
    return DatasetManifest(stories=stories, label_set=_label_set({s.label for s in stories}))
