import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from cascadefuse import pointprocess
from cascadefuse.cascade import NewsStory, Post
from cascadefuse.data import DatasetManifest, SyntheticProfile, generate_synthetic, split_dataset
from cascadefuse.errors import CascadeFuseError, ExplodingCascade, InvalidValue
from cascadefuse.model import ModelConfig, init_params
from cascadefuse.pointprocess import (
    DEFAULT_C,
    SECONDS_PER_HOUR,
    InfectiousnessSeries,
    KernelParams,
    default_grid,
    estimate_infectiousness,
    infectiousness_series,
    intensity,
    kernel_integral,
    memory_kernel,
    post_count_series,
    simulate_hawkes,
    triangular_kernel,
    _excitation,
)

from oracles import phi_ref, quad_oracle

P = KernelParams()


def make_story(events, label="true"):
    """events: list of (t, followers)."""
    return NewsStory(id="s", label=label,
                     posts=tuple(Post(t=t, followers=n) for t, n in events))


# --- memory kernel ---

def test_kernel_flat_regime_value():
    assert memory_kernel(60) == pytest.approx(6.27e-4)


def test_kernel_boundary_continuity():
    left = memory_kernel(P.s0)
    right = memory_kernel(P.s0 * (1 + 1e-12))
    assert left == pytest.approx(DEFAULT_C)
    assert abs(left - right) < 1e-12


def test_kernel_power_law_value():
    # direct independent evaluation of c * 2^-(1+theta)
    expected = 6.27e-4 * 2 ** (-1.242)
    assert memory_kernel(600) == pytest.approx(expected, rel=1e-12)


def test_kernel_rejects_nonpositive_delay():
    with pytest.raises(InvalidValue, match="delay must be positive, got 0.0"):
        memory_kernel(0.0)


@given(st.floats(min_value=1e-3, max_value=1e7),
       st.floats(min_value=1e-3, max_value=1e7))
def test_kernel_monotone_nonincreasing(a, b):
    lo, hi = sorted([a, b])
    assert memory_kernel(lo) >= memory_kernel(hi) - 1e-18


# --- triangular kernel ---

def test_triangle_peak():
    assert triangular_kernel(1e-12, 100.0) == pytest.approx(1.0)


def test_triangle_support_edge_and_midpoint():
    assert triangular_kernel(50.0, 100.0) == 0.0
    assert triangular_kernel(25.0, 100.0) == pytest.approx(0.5)


def test_triangle_rejects_nonpositive_window():
    with pytest.raises(InvalidValue, match="window must be positive, got 0.0"):
        triangular_kernel(1.0, 0.0)


@given(st.floats(min_value=0, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
def test_triangle_bounds(s, t):
    v = triangular_kernel(s, t)
    assert 0.0 <= v <= 1.0
    if s >= t / 2:
        assert v == 0.0


def test_triangle_area_is_quarter_window():
    t = 4567.0
    area, _ = quad(lambda s: triangular_kernel(s, t), 0, t / 2, epsabs=1e-9)
    assert area == pytest.approx(t / 4, abs=1e-9 * t)


# --- kernel integral ---

def test_kernel_integral_empty_interval_limit():
    assert kernel_integral(100.0, 100.0 + 1e-9) < 1e-10


def test_kernel_integral_flat_regime_analytic():
    # t_i=0, t=200 with c=1: triangle over the flat regime integrates to 50
    p1 = KernelParams(c=1.0, s0=300.0, theta=0.242)
    assert kernel_integral(0.0, 200.0, p1) == pytest.approx(50.0, rel=1e-12)
    assert kernel_integral(0.0, 200.0) == pytest.approx(50.0 * DEFAULT_C, rel=1e-12)


def test_kernel_integral_vs_quadrature_oracle():
    expected = quad_oracle(0.0, 7200.0)
    assert kernel_integral(0.0, 7200.0) == pytest.approx(expected, rel=1e-9)


def test_kernel_integral_invalid_interval():
    with pytest.raises(InvalidValue, match="require 0 <= t_i < t, got t_i=100.0, t=50.0"):
        kernel_integral(100.0, 50.0)


def test_kernel_integral_matches_oracle_on_random_cases():
    rng = np.random.default_rng(42)
    for _ in range(100):
        t = rng.uniform(10.0, 500_000.0)
        t_i = rng.uniform(0.0, t * 0.999)
        params = KernelParams(c=rng.uniform(1e-4, 1e-2),
                              s0=rng.uniform(30.0, 2000.0),
                              theta=rng.uniform(0.05, 0.95))
        got = kernel_integral(t_i, t, params)
        want = quad_oracle(t_i, t, params)
        if want == 0.0:
            assert got == pytest.approx(0.0, abs=1e-15)
        else:
            assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("theta", [1.0, 1.0 - 5e-9, 1.0 + 5e-9, 1.0 - 2e-8, 1.0 + 2e-8])
def test_kernel_integral_at_and_around_theta_one(theta):
    # theta = 1 is the closed form's removable singularity (log limit)
    params = KernelParams(theta=theta)
    for t_i, t in [(0.0, 7200.0), (100.0, 47 * 3600.0), (5000.0, 7200.0),
                   (3000.0, 5 * 3600.0), (0.0, 7 * 86400.0)]:
        got = kernel_integral(t_i, t, params)
        assert math.isfinite(got)
        assert got == pytest.approx(quad_oracle(t_i, t, params), rel=1e-6)


# --- intensity ---

def test_intensity_single_post_flat_regime():
    story = make_story([(0.0, 100.0)])
    assert intensity(story, s_h=0.5, t=60.0) == pytest.approx(0.5 * 100 * 6.27e-4)


def test_intensity_zero_infectiousness():
    story = make_story([(0.0, 100.0), (10.0, 50.0)])
    assert intensity(story, s_h=0.0, t=60.0) == 0.0


def test_intensity_two_posts_hand_sum():
    story = make_story([(0.0, 100.0), (300.0, 50.0)])
    expected = 0.7 * (100 * phi_ref(360.0) + 50 * phi_ref(60.0))
    assert intensity(story, s_h=0.7, t=360.0) == pytest.approx(expected, rel=1e-12)


def test_intensity_before_origin():
    with pytest.raises(InvalidValue, match="t must be >= 0, got -1.0"):
        intensity(make_story([(0.0, 1.0)]), 1.0, -1.0)


# --- infectiousness estimator ---

def test_estimator_no_reshares_is_zero():
    story = make_story([(0.0, 1000.0)])
    assert estimate_infectiousness(story, 7200.0) == 0.0


def test_estimator_reshare_outside_window_is_zero():
    # a reshare older than t/2 has zero triangular weight
    story = make_story([(0.0, 1000.0), (1800.0, 10.0)])
    assert estimate_infectiousness(story, 7200.0) == 0.0


def test_estimator_hand_case():
    story = make_story([(0.0, 1000.0), (5400.0, 10.0)])
    t = 7200.0
    num = max(1 - 2 * (t - 5400.0) / t, 0)
    den = 1000.0 * quad_oracle(0.0, t) + 10.0 * quad_oracle(5400.0, t)
    assert estimate_infectiousness(story, t) == pytest.approx(num / den, rel=1e-6)


def test_estimator_zero_denominator():
    story = make_story([(0.0, 0.0), (5400.0, 0.0)])
    with pytest.raises(InvalidValue, match="story 's': zero denominator at t=7200.0"):
        estimate_infectiousness(story, 7200.0)


def test_estimator_nonpositive_time():
    with pytest.raises(InvalidValue, match="t must be positive, got 0.0"):
        estimate_infectiousness(make_story([(0.0, 1.0)]), 0.0)


def test_estimator_follower_scale_covariance():
    story = make_story([(0.0, 500.0), (4000.0, 3.0), (6000.0, 7.0)])
    scaled = make_story([(0.0, 5000.0), (4000.0, 30.0), (6000.0, 70.0)])
    t = 7200.0
    assert estimate_infectiousness(scaled, t) == pytest.approx(
        estimate_infectiousness(story, t) / 10.0, rel=1e-9)


def test_estimator_consistency_on_simulated_cascades():
    ests = []
    for seed in range(20):
        st_ = simulate_hawkes(lambda h: 0.8, lambda r: r.poisson(1.0),
                              horizon=172800.0, seed=seed, source_followers=150.0)
        assert len(st_.posts) >= 100
        ests.append(estimate_infectiousness(st_, 172800.0))
    assert np.mean(ests) == pytest.approx(0.8, rel=0.2)


# --- series ---

def test_default_grid_is_47_hours():
    g = default_grid()
    assert len(g) == 47 and g[0] == 1 and g[-1] == 47


def test_series_no_reshares_all_zero():
    series = infectiousness_series(make_story([(0.0, 100.0)]))
    assert len(series.values) == 47
    assert all(v == 0.0 for v in series.values)


def test_series_custom_day_grid_length():
    for d in (1, 3):
        grid = default_grid(24 * d - 1)
        series = infectiousness_series(make_story([(0.0, 10.0), (1800.0, 2.0)]), grid)
        assert len(series.values) == 24 * d - 1


def test_series_zero_denominator_degrades_with_warning():
    story = make_story([(0.0, 0.0), (3000.0, 0.0)])
    with pytest.warns(UserWarning):
        series = infectiousness_series(story, [1.0, 2.0])
    assert series.values == (0.0, 0.0)


@pytest.mark.parametrize("theta", [P.theta, 1.0])
def test_series_matches_oracle(theta):
    # the whole default grid: hours inside the cascade and hours after its last reshare
    story = generate_synthetic(2, seed=7).stories[0]
    params = KernelParams(theta=theta)
    grid = default_grid()
    series = infectiousness_series(story, grid, params)
    for h, got in zip(grid, series.values):
        t = h * 3600.0
        num = sum(max(1 - 2 * (t - p.t) / t, 0) for p in story.posts[1:] if p.t <= t)
        den = sum(p.followers * quad_oracle(p.t, t, params) for p in story.posts if p.t < t)
        assert math.isfinite(got)
        assert got == pytest.approx(num / den if num > 0 else 0.0, rel=1e-6)


def test_series_matches_pointwise_estimates():
    # the grid pass masks the posts after each window end; the one-point
    # estimate never sees them. Only the summation order may differ.
    for story in generate_synthetic(2, seed=7).stories:
        series = infectiousness_series(story)
        pointwise = [estimate_infectiousness(story, h * 3600.0) for h in default_grid()]
        np.testing.assert_allclose(series.values, pointwise, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["c", "s0", "theta"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_kernel_params_must_be_positive_and_finite(name, bad):
    with pytest.raises(CascadeFuseError, match="positive and finite") as exc:
        KernelParams(**{name: bad})
    assert isinstance(exc.value, ValueError)  # InvalidValue is both


@pytest.mark.parametrize("s_h", [-1.0, float("nan"), float("inf")])
def test_intensity_rejects_negative_or_nan_rate(s_h):
    for followers in (1.0, 0.0):  # with no followers, inf * 0 would be a NaN
        with pytest.raises(InvalidValue, match="s_h must be non-negative and finite"):
            intensity(make_story([(0.0, followers)]), s_h, 10.0)


def test_intensity_rejects_non_finite_result():
    story = make_story([(0.0, 1e308), (1.0, 1e308)])
    with pytest.raises(InvalidValue, match="intensity at t=10.0 is not finite"):
        intensity(story, 1e10, 10.0)


def test_estimator_rejects_non_finite_estimate():
    # subnormal follower weights overflow num / den, as in the series of the same story
    story = make_story([(0.0, 1e-310), (5000.0, 1e-310)])
    with pytest.raises(InvalidValue, match="infectiousness values must be finite"):
        estimate_infectiousness(story, 7200.0)
    with pytest.raises(InvalidValue, match="infectiousness values must be finite"):
        infectiousness_series(story, [2.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_series_rejects_non_finite_values(bad):
    with pytest.raises(ValueError):
        InfectiousnessSeries(grid=(1.0, 2.0), values=(0.1, bad))


def test_series_empty_grid():
    with pytest.raises(InvalidValue, match="grid must be non-empty"):
        infectiousness_series(make_story([(0.0, 1.0)]), [])


@pytest.mark.parametrize("series", [infectiousness_series, post_count_series])
def test_both_series_check_the_grid(series):
    story = make_story([(0.0, 1.0), (0.5 * 3600, 1.0), (1.5 * 3600, 1.0), (2.5 * 3600, 1.0)])
    with pytest.raises(InvalidValue, match="grid must be non-empty"):
        series(story, [])
    for grid in ([3.0, 2.0, 1.0], [-1.0, 2.0], [1.0, float("nan")]):
        with pytest.raises(ValueError):
            series(story, grid)


def test_post_count_series_binning():
    story = make_story([(0.0, 1.0), (0.5 * 3600, 1.0), (1.5 * 3600, 1.0)])
    counts = post_count_series(story, [1.0, 2.0])
    assert counts.tolist() == [2.0, 1.0]


def test_post_count_series_partition():
    story = make_story([(0.0, 1.0)] + [(i * 977.0, 1.0) for i in range(1, 30)])
    counts = post_count_series(story, default_grid(9))
    in_horizon = sum(1 for p in story.posts if p.t <= 9 * 3600)
    assert counts.sum() == in_horizon
    assert counts[0] >= 1  # source in the first bin


# --- simulator ---

def test_simulate_zero_profile_only_seed():
    st_ = simulate_hawkes(lambda h: 0.0, lambda r: 5.0, horizon=86400.0, seed=1)
    assert len(st_.posts) == 1 and st_.posts[0].t == 0.0


@pytest.mark.parametrize("horizon", [0.0, -5.0, float("nan"), float("inf")])
def test_simulate_rejects_non_positive_horizon(horizon):
    with pytest.raises(InvalidValue, match="horizon must be positive and finite"):
        simulate_hawkes(lambda h: 0.5, lambda r: r.poisson(1.0), horizon, seed=1)


@pytest.mark.parametrize("call", [
    lambda: generate_synthetic(1, seed=-1),
    lambda: split_dataset(DatasetManifest(stories=[
        make_story([(0.0, 1.0)], label) for label in ("true", "fake", "true")],
        label_set=("true", "fake")), seed=-1),
    lambda: init_params(ModelConfig(), seed=-1),
    lambda: simulate_hawkes(lambda h: 0.5, lambda r: r.poisson(1.0), 3600.0, seed=-1),
], ids=["generate_synthetic", "split_dataset", "init_params", "simulate_hawkes"])
def test_negative_seed_is_refused(call):
    with pytest.raises(InvalidValue, match="^seed -1 must not be negative$"):
        call()


def test_synthetic_cascades_pinned_digest():
    # post times and follower counts of a fixed dataset: a change in how the
    # simulator consumes its RNG stream shows here
    h = hashlib.sha256()
    for story in generate_synthetic(2, seed=7).stories:
        h.update(np.array([[p.t, p.followers] for p in story.posts], dtype=float).tobytes())
    assert h.hexdigest() == "00f10660056b5f30aaea4968fa7a0cc34410f597d15ad1b41aac7a90958e7926"


def test_simulate_deterministic():
    a = simulate_hawkes(lambda h: 0.5, lambda r: r.poisson(1.0), 86400.0, seed=9,
                        source_followers=30.0)
    b = simulate_hawkes(lambda h: 0.5, lambda r: r.poisson(1.0), 86400.0, seed=9,
                        source_followers=30.0)
    assert a == b


def reference_simulate_hawkes(s_h_profile, follower_sampler, horizon, seed,
                              source_followers=None, ratios=None):
    """Ogata thinning with the events in lists, rebuilt as arrays after each
    accepted event, one window at a time. Appends lambda / bound of every
    candidate to ratios when given."""
    rng = np.random.default_rng(seed)
    n0 = follower_sampler(rng) if source_followers is None else source_followers
    times, followers = [0.0], [float(n0)]
    times_arr, foll_arr = np.array(times), np.array(followers)
    t = 0.0
    while t < horizon:
        hist = _excitation(times_arr, foll_arr, t, P)
        w_end = min(t + 60.0, horizon)
        grid = np.linspace(t, w_end, 5) / SECONDS_PER_HOUR
        bound = max(float(s_h_profile(h)) for h in grid) * hist
        if bound <= 0:
            t = w_end
            continue
        wait = rng.exponential(1.0 / bound)
        if t + wait > w_end:
            t = w_end
            continue
        t = t + wait
        lam = float(s_h_profile(t / SECONDS_PER_HOUR)) * _excitation(times_arr, foll_arr, t, P)
        if ratios is not None:
            ratios.append(lam / bound)
        if rng.uniform() <= lam / bound:
            times.append(t)
            followers.append(float(follower_sampler(rng)))
            times_arr, foll_arr = np.array(times), np.array(followers)
    return list(zip(times, followers))


SPEC = SyntheticProfile()
PROFILES = {"real": SPEC.real, "fake": SPEC.fake, "constant": lambda h: 0.8}


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_simulate_matches_list_reference(profile):
    s_h = PROFILES[profile]
    for seed in range(6):
        story = simulate_hawkes(s_h, lambda r: r.poisson(1.0), 172800.0, seed=seed,
                                source_followers=SPEC.source_followers)
        want = reference_simulate_hawkes(s_h, lambda r: r.poisson(1.0), 172800.0, seed=seed,
                                         source_followers=SPEC.source_followers)
        got = [(p.t, p.followers) for p in story.posts]
        assert got == want, (profile, seed)
        assert all(type(v) is float for row in got for v in row)


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_thinning_bound_holds_over_each_window(profile):
    # the bound taken at a window's start must not fall below the intensity
    # anywhere in the window, or thinning would accept too rarely
    ratios = []
    for seed in range(6):
        reference_simulate_hawkes(PROFILES[profile], lambda r: r.poisson(1.0), 172800.0,
                                  seed=seed, source_followers=SPEC.source_followers,
                                  ratios=ratios)
    assert len(ratios) > 100
    assert max(ratios) <= 1.0


BLOCK_CASES = {
    # a zero bound inside a block: no events after hour 6
    "falls_to_0": (lambda h: SPEC.real(h) if h < 6 else 0.0, 43200.0, SPEC.source_followers),
    # zero bounds first: no events before hour 3
    "0_at_first": (lambda h: 0.0 if h < 3 else SPEC.fake(h), 43200.0, SPEC.source_followers),
    "horizon_off_the_minute": (SPEC.real, 10037.3, SPEC.source_followers),
    "horizon_under_a_minute": (SPEC.fake, 45.0, SPEC.source_followers),
    "source_followers_drawn": (SPEC.fake, 43200.0, None),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_simulate_blocks_match_list_reference(case):
    s_h, horizon, source_followers = BLOCK_CASES[case]
    reshares = []
    for seed in range(4):
        story = simulate_hawkes(s_h, lambda r: r.poisson(1.0), horizon, seed=seed,
                                source_followers=source_followers)
        want = reference_simulate_hawkes(s_h, lambda r: r.poisson(1.0), horizon, seed=seed,
                                         source_followers=source_followers)
        got = [(p.t, p.followers) for p in story.posts]
        assert got == want, (case, seed)
        reshares += [t for t, _ in got[1:]]
    assert reshares and max(reshares) < horizon
    if case == "falls_to_0":
        assert max(reshares) < 6 * SECONDS_PER_HOUR
    if case == "0_at_first":
        assert min(reshares) >= 3 * SECONDS_PER_HOUR


def test_simulate_max_events_is_the_largest_cascade_allowed():
    def run(**kw):
        return simulate_hawkes(lambda h: 0.8, lambda r: r.poisson(1.0), 21600.0, seed=2,
                               source_followers=40.0, **kw)

    story = run()
    n = len(story.posts)
    assert n > 10
    assert run(max_events=n) == story
    with pytest.raises(ExplodingCascade):
        run(max_events=n - 1)



def test_simulate_event_buffer_growth_keeps_the_cascade(monkeypatch):
    # from 3 rows the buffer doubles to 6, 12, ... and is capped at max_events + 1
    def run(**kw):
        return simulate_hawkes(lambda h: 0.8, lambda r: r.poisson(1.0), 21600.0, seed=2,
                               source_followers=40.0, **kw)

    story = run()
    n = len(story.posts)
    monkeypatch.setattr(pointprocess, "EVENT_ROWS", 3)
    assert run() == story
    assert run(max_events=n) == story
    with pytest.raises(ExplodingCascade):
        run(max_events=n - 1)

@pytest.mark.parametrize("cap", [1, 2])
def test_simulate_block_cap_keeps_the_cascade(monkeypatch, cap):
    # with at most 1 (or 2) windows per block the loop takes one window at a time
    def run(**kw):
        return simulate_hawkes(lambda h: 0.8, lambda r: r.poisson(1.0), 21600.0, seed=2,
                               source_followers=40.0, **kw)

    story = run()
    n = len(story.posts)
    real = simulate_hawkes(SPEC.real, lambda r: r.poisson(1.0), 172800.0, seed=0,
                           source_followers=SPEC.source_followers)
    monkeypatch.setattr(pointprocess, "BLOCK_CAP", cap)
    assert run() == story
    assert run(max_events=n) == story
    with pytest.raises(ExplodingCascade):
        run(max_events=n - 1)
    assert simulate_hawkes(SPEC.real, lambda r: r.poisson(1.0), 172800.0, seed=0,
                           source_followers=SPEC.source_followers) == real


def test_simulate_subcritical_branching_mean():
    # expected children of the seed: s_h * n0 * int_0^H phi; each later event
    # roughly b = s_h * E[n] * int phi children, so total ~ 1 + m0 / (1 - b)
    H = 172800.0
    s_h, n0, mean_n = 0.5, 20.0, 1.0
    phi_mass, _ = quad(phi_ref, 1e-9, H, points=[300.0], limit=200)
    m0 = s_h * n0 * phi_mass
    b = s_h * mean_n * phi_mass
    expected = 1 + m0 / (1 - b)
    counts = [len(simulate_hawkes(lambda h: s_h, lambda r: r.poisson(mean_n), H,
                                  seed=s, source_followers=n0).posts)
              for s in range(200)]
    # horizon truncation biases low; allow a generous statistical band
    assert np.mean(counts) == pytest.approx(expected, rel=0.35)
