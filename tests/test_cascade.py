import math

import pytest
from hypothesis import given, strategies as st

from cascadefuse.cascade import (
    FOURWAY_LABELS,
    PROFILE_COUNT_FIELDS,
    NewsStory,
    Post,
    UserProfile,
    profile_from_dict,
    truncate_story,
    validate_story,
)
from cascadefuse.errors import CascadeFuseError, InvalidValue
from cascadefuse.pointprocess import simulate_hawkes


def story(times, label="fake", sid="s1"):
    return NewsStory(id=sid, label=label,
                     posts=tuple(Post(t=t, followers=1.0) for t in times))


def test_validate_sorts_posts():
    v = validate_story(story([3, 0, 7]))
    assert [p.t for p in v.posts] == [0, 3, 7]


def test_validate_rebases_timestamps():
    v = validate_story(story([100, 250]))
    assert [p.t for p in v.posts] == [0, 150]


def test_validate_empty_story():
    with pytest.raises(InvalidValue, match="story 's1' has no posts"):
        validate_story(story([]))


def test_validate_negative_time():
    with pytest.raises(InvalidValue, match="story 's1' has post at t=-5$"):
        validate_story(story([-5, 10]))


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_validate_rejects_non_finite_time(t):
    with pytest.raises(InvalidValue, match="non-finite"):
        validate_story(story([0, t]))


def test_validate_negative_infinite_time_is_negative():
    with pytest.raises(InvalidValue, match="story 's1' has post at t=-inf$"):
        validate_story(story([0, -math.inf]))


def test_validate_unknown_label():
    with pytest.raises(InvalidValue, match="story 's1' has label 'maybe', expected one of"):
        validate_story(story([0], label="maybe"))
    for label in FOURWAY_LABELS:  # the allowed labels are the four-way set
        assert validate_story(story([0], label=label)).label == label


def test_validate_keeps_tie_order():
    a = Post(t=5, followers=1.0, text="first")
    b = Post(t=5, followers=2.0, text="second")
    v = validate_story(NewsStory(id="s", label="true", posts=(Post(t=0, followers=1), a, b)))
    assert v.posts[1].text == "first" and v.posts[2].text == "second"


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1))
def test_validate_idempotent(times):
    once = validate_story(story(times))
    twice = validate_story(once)
    assert once == twice


def test_truncate_threshold():
    s = validate_story(story([0, 3600, 200000]))
    t = truncate_story(s, 172800)
    assert [p.t for p in t.posts] == [0, 3600]


def test_truncate_noop_beyond_max():
    s = validate_story(story([0, 10, 20]))
    assert truncate_story(s, 100) == s


@pytest.mark.parametrize("horizon", [-1.0, float("nan")])
def test_truncate_rejects_negative_or_nan_horizon(horizon):
    with pytest.raises(InvalidValue):
        truncate_story(validate_story(story([0, 10])), horizon)


def test_truncate_zero_horizon_keeps_source():
    s = validate_story(story([0, 10]))
    t = truncate_story(s, 0)
    assert len(t.posts) == 1 and t.posts[0].t == 0


@given(st.lists(st.floats(min_value=0, max_value=1e5, allow_nan=False), min_size=1),
       st.floats(min_value=0, max_value=1e5),
       st.floats(min_value=0, max_value=1e5))
def test_truncate_composes_as_min(times, h1, h2):
    s = validate_story(story(times))
    assert truncate_story(truncate_story(s, h1), h2) == truncate_story(s, min(h1, h2))


def test_profile_flags_validated():
    with pytest.raises(ValueError):
        UserProfile(verified=2)
    with pytest.raises(ValueError):
        UserProfile(followers=-1)


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", PROFILE_COUNT_FIELDS)
def test_profile_count_fields_must_be_finite_and_non_negative(name, value):
    with pytest.raises(ValueError, match=f"{name!r} must be finite and non-negative"):
        UserProfile(**{name: value})


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_post_followers_must_be_finite_and_non_negative(value):
    with pytest.raises(ValueError, match="followers must be finite and non-negative"):
        Post(t=0.0, followers=value)


@pytest.mark.parametrize("make", [
    lambda: Post(t=0.0, followers=-1.0),
    lambda: Post(t=0.0, followers=math.nan),
    lambda: UserProfile(followers=math.inf),
    lambda: UserProfile(desc_len=-1.0),
    lambda: UserProfile(verified=2),
    lambda: UserProfile(geo=-1),
    # a follower sampler's value reaches Post through a public function
    lambda: simulate_hawkes(lambda h: 0.75, lambda r: -1.0, 3600.0, seed=0),
], ids=["post_followers_negative", "post_followers_nan", "profile_followers_inf",
        "profile_desc_len_negative", "profile_verified_2", "profile_geo_negative",
        "simulate_sampler_negative"])
def test_invalid_post_and_profile_values_are_typed_errors(make):
    with pytest.raises(CascadeFuseError):
        make()


def test_profile_as_tuple_is_in_field_order():
    p = UserProfile(1, 2, 3, 4, 5, 6, 1, 0)
    assert p.as_tuple() == (1, 2, 3, 4, 5, 6, 1, 0)


def test_profile_from_dict_defaults_missing_to_zero():
    with pytest.warns(UserWarning):
        p = profile_from_dict({"followers": 10})
    assert p.followers == 10 and p.desc_len == 0 and p.verified == 0
