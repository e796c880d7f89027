import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cascadefuse.cascade import NewsStory, Post
from cascadefuse.data import (
    DatasetManifest,
    SyntheticProfile,
    generate_synthetic,
    import_tree_dataset,
    load_dataset,
    save_dataset,
    split_dataset,
)
from cascadefuse.errors import InvalidValue, ParseError
from cascadefuse.pointprocess import default_grid, infectiousness_series


def write_jsonl(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def story_line(sid, label, times, label_set=None):
    obj = {"id": sid, "label": label,
           "posts": [{"t": t, "followers": 3, "text": "hello world",
                      "user": {"desc_len": 1, "name_len": 2, "followers": 3,
                               "follows": 4, "posts": 5, "account_age_days": 6,
                               "verified": 0, "geo": 1}} for t in times]}
    if label_set:
        obj["label_set"] = label_set
    return json.dumps(obj)


def test_load_well_formed(tmp_path):
    p = tmp_path / "d.jsonl"
    write_jsonl(p, [story_line(f"s{i}", "true" if i % 2 else "fake", [0, 10])
                    for i in range(3)])
    m = load_dataset(p)
    assert len(m.stories) == 3
    assert m.label_set == ("true", "fake")
    assert m.stories[0].posts[0].user.post_count == 5


def test_load_parse_error_reports_line(tmp_path):
    p = tmp_path / "d.jsonl"
    write_jsonl(p, [story_line("a", "true", [0]), "{not json", story_line("c", "fake", [0])])
    with pytest.raises(ParseError) as exc:
        load_dataset(p)
    assert exc.value.line == 2


@pytest.mark.parametrize("field", ["followers", "user.followers"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_load_rejects_non_finite_counts_with_line(tmp_path, field, value):
    obj = json.loads(story_line("b", "fake", [0, 10]))
    post = obj["posts"][1]
    if field == "followers":
        post["followers"] = value
    else:
        post["user"]["followers"] = value
    p = tmp_path / "d.jsonl"
    write_jsonl(p, [story_line("a", "true", [0]), json.dumps(obj)])
    with pytest.raises(ParseError, match="finite and non-negative") as exc:
        load_dataset(p)
    assert exc.value.line == 2


def test_load_rejects_non_finite_time(tmp_path):
    p = tmp_path / "d.jsonl"
    write_jsonl(p, [story_line("a", "true", [0, math.nan])])
    with pytest.raises(InvalidValue, match="non-finite"):
        load_dataset(p)


@pytest.mark.parametrize("label, times, message", [
    ("true", [0, math.nan], "has post at non-finite t=nan"),
    ("true", [0, -5], "has post at t=-5.0"),
    ("bogus", [0], "has label 'bogus', expected one of"),
    ("true", [], "has no posts"),
], ids=["non_finite_time", "negative_time", "unknown_label", "empty_story"])
def test_load_story_validation_errors_name_their_line(tmp_path, label, times, message):
    p = tmp_path / "d.jsonl"
    write_jsonl(p, [story_line("a", "true", [0]), story_line("b", label, times)])
    with pytest.raises(InvalidValue, match=rf"^line 2: story 'b' {message}"):
        load_dataset(p)


def test_load_mixed_label_sets(tmp_path):
    p = tmp_path / "d.jsonl"
    write_jsonl(p, [story_line("a", "true", [0], label_set=["true", "fake"]),
                    story_line("b", "unverified", [0],
                               label_set=["true", "fake", "unverified", "debunking"])])
    with pytest.raises(InvalidValue, match="conflicting declared label sets"):
        load_dataset(p)


def test_load_infers_four_class(tmp_path):
    p = tmp_path / "d.jsonl"
    write_jsonl(p, [story_line("a", "true", [0]), story_line("b", "debunking", [0])])
    assert len(load_dataset(p).label_set) == 4


def test_roundtrip_bit_identical(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(p1, [story_line(f"s{i}", "fake", [5, 0, 700.5]) for i in range(4)])
    m = load_dataset(p1)
    save_dataset(m, p2)
    m2 = load_dataset(p2)
    p3 = tmp_path / "c.jsonl"
    save_dataset(m2, p3)
    assert p2.read_bytes() == p3.read_bytes()
    assert m.stories == m2.stories


def test_roundtrip_keeps_line_separators_inside_texts(tmp_path):
    # save_dataset writes U+2028 and U+2029 raw; only "\n" ends a JSONL line
    post = Post(t=0.0, followers=1.0, text="one\u2028two\u2029three\x85four")
    m = DatasetManifest(stories=[NewsStory(id="a", label="true", posts=(post,))],
                        label_set=("true", "fake"))
    p = tmp_path / "d.jsonl"
    save_dataset(m, p)
    assert "\u2028" in p.read_text(encoding="utf-8")
    assert load_dataset(p).stories == m.stories


# --- splits ---

def manifest_of(n, labels=("true", "fake")):
    stories = [NewsStory(id=f"s{i}", label=labels[i % len(labels)],
                         posts=(Post(t=0.0, followers=1.0),))
               for i in range(n)]
    return DatasetManifest(stories=stories, label_set=labels)


def test_split_100_stories_ratios():
    m = split_dataset(manifest_of(100, labels=("true",)), seed=0)
    counts = Counter(m.split.values())
    assert counts["test"] == 25
    assert counts["val"] == 11
    assert counts["train"] == 64


def test_split_stratified_within_one_per_stratum():
    m = split_dataset(manifest_of(100), seed=3)
    for label in ("true", "fake"):
        ids = [s.id for s in m.stories if s.label == label]
        counts = Counter(m.split[i] for i in ids)
        assert abs(counts["test"] - 12.5) <= 1
        assert abs(counts["val"] - 5.7) <= 1.1


def test_split_deterministic():
    a = split_dataset(manifest_of(40), seed=9)
    b = split_dataset(manifest_of(40), seed=9)
    assert a.split == b.split


def test_split_exhaustive_and_disjoint():
    m = split_dataset(manifest_of(37), seed=1)
    assert set(m.split) == {s.id for s in m.stories}


def test_split_too_few_stratified():
    # 4 stories of 4 labels split over all stories; 2 stories are too few to split
    m = manifest_of(4, labels=("true", "fake", "unverified", "debunking"))
    assert Counter(split_dataset(m).split.values()) == {"test": 1, "train": 3}
    with pytest.raises(InvalidValue, match="need at least 3 stories to split"):
        split_dataset(manifest_of(2))


def test_split_per_label_when_every_label_has_3_stories():
    m = split_dataset(manifest_of(6), seed=4)  # over all 6 stories: 2 test, 1 val
    for label in ("true", "fake"):
        assert Counter(m.split[s.id] for s in m.stories if s.label == label) == \
            {"test": 1, "train": 2}


@pytest.mark.parametrize("labels", [
    ["true"] * 6 + ["fake"] * 2,   # a label with fewer than 3 stories
    ["true"] * 6,                  # a label of the label set with none
])
def test_split_over_all_stories_when_a_label_has_fewer_than_3(labels):
    stories = [NewsStory(id=f"s{i}", label=label, posts=(Post(t=0.0, followers=1.0),))
               for i, label in enumerate(labels)]
    m = split_dataset(DatasetManifest(stories=stories, label_set=("true", "fake")), seed=4)
    # the oracle: the same stories as one label, which split as one group
    one_label = DatasetManifest(stories=[replace(s, label="true") for s in stories],
                                label_set=("true",))
    assert m.split == split_dataset(one_label, seed=4).split


# --- synthetic generation ---

def test_synthetic_deterministic_and_balanced():
    a = generate_synthetic(2, seed=5)
    b = generate_synthetic(2, seed=5)
    assert a.stories == b.stories
    labels = Counter(s.label for s in a.stories)
    assert labels == {"true": 2, "fake": 2}


def test_synthetic_single_story_per_class():
    m = generate_synthetic(1, seed=0)
    assert len(m.stories) == 2
    for s in m.stories:
        assert s.posts[0].t == 0.0
        assert all(p.text for p in s.posts)


def test_synthetic_fake_has_larger_late_infectiousness_mass():
    m = generate_synthetic(12, seed=2)
    grid = default_grid(47)
    late = (grid >= 18) & (grid <= 30)
    mass = {"true": [], "fake": []}
    for s in m.stories:
        v = np.array(infectiousness_series(s, grid).values)
        mass[s.label].append(v[late].sum())
    assert np.mean(mass["fake"]) > np.mean(mass["true"])


def test_synthetic_real_profiles_trend_downward():
    m = generate_synthetic(15, seed=4)
    grid = default_grid(47)
    window = grid >= 2
    n_down = 0
    reals = [s for s in m.stories if s.label == "true"]
    for s in reals:
        v = np.array(infectiousness_series(s, grid).values)[window]
        slope = np.polyfit(grid[window], v, 1)[0]
        n_down += slope < 0
    assert n_down >= 0.9 * len(reals)


# --- import ---

def test_import_tree_layout(tmp_path):
    (tmp_path / "tree").mkdir()
    (tmp_path / "label.txt").write_text("false:e1\nnon-rumor:e2\n")
    (tmp_path / "tree" / "e1.txt").write_text(
        "['u1','t1',0.0]->['u2','t2',5.0]\n['u2','t2',5.0]->['u3','t3',12.0]\n")
    (tmp_path / "tree" / "e2.txt").write_text("['u1','t9',0.0]->['u4','t8',3.0]\n")
    m = import_tree_dataset(tmp_path)
    assert {s.id: s.label for s in m.stories} == {"e1": "fake", "e2": "true"}
    e1 = next(s for s in m.stories if s.id == "e1")
    assert [p.t for p in e1.posts] == [0.0, 300.0, 720.0]


def test_import_missing_label_file(tmp_path):
    with pytest.raises(ParseError):
        import_tree_dataset(tmp_path)
