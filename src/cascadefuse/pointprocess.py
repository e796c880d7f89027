"""Self-exciting point-process engine for cascade infectiousness.

Implements the power-law memory kernel, the cascade intensity, the
one-sided-triangular-kernel infectiousness estimator, and an
Ogata-thinning simulator used both as a test oracle and as the
synthetic-data source.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cascade import NewsStory, Post
from .errors import (
    EmptyGrid,
    ExplodingCascade,
    InvalidInterval,
    NonPositiveDelay,
    NonPositiveTime,
    NonPositiveWindow,
    TimeBeforeOrigin,
    ZeroDenominator,
)

DEFAULT_C = 6.27e-4
DEFAULT_S0 = 300.0  # 5 minutes, in seconds
DEFAULT_THETA = 0.242

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class KernelParams:
    """Memory-kernel constants: flat rate c up to s0 seconds, then power-law decay."""

    c: float = DEFAULT_C
    s0: float = DEFAULT_S0
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        if self.c <= 0 or self.s0 <= 0 or self.theta <= 0:
            raise ValueError("kernel parameters must all be positive")


DEFAULT_PARAMS = KernelParams()


@dataclass(frozen=True)
class IntensityValue:
    lam: float
    at_time: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("intensity must be non-negative")


@dataclass(frozen=True)
class InfectiousnessSeries:
    """Hourly infectiousness curve: grid in hours, one value per grid point."""

    grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values must have equal length")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("infectiousness values must be finite")
        if any(v < 0 for v in self.values):
            raise ValueError("infectiousness values must be non-negative")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")


def default_grid(n_hours: int = 47) -> np.ndarray:
    """Hourly evaluation grid: hours 1..n_hours."""
    return np.arange(1, n_hours + 1, dtype=float)


def memory_kernel(s: float, params: KernelParams = DEFAULT_PARAMS) -> float:
    """Reshare-delay density: c for 0 < s <= s0, power-law decay beyond."""
    if s <= 0:
        raise NonPositiveDelay(f"delay must be positive, got {s}")
    if s <= params.s0:
        return params.c
    return params.c * (s / params.s0) ** (-(1.0 + params.theta))


def _phi(s: np.ndarray, params: KernelParams) -> np.ndarray:
    """Vectorized memory kernel; s -> 0+ limit is c (used for t_i = t events)."""
    s = np.asarray(s, dtype=float)
    out = np.full(s.shape, params.c)
    tail = s > params.s0
    out[tail] = params.c * (s[tail] / params.s0) ** (-(1.0 + params.theta))
    return out


def triangular_kernel(s: float, t: float) -> float:
    """One-sided recency window K_t(s) = max(1 - 2s/t, 0)."""
    if t <= 0:
        raise NonPositiveWindow(f"window must be positive, got {t}")
    if s < 0:
        raise NonPositiveDelay(f"delay must be non-negative, got {s}")
    return max(1.0 - 2.0 * s / t, 0.0)


def _kernel_integral_analytic(t_i, t, params: KernelParams):
    """Closed-form integral of triangle weight x memory kernel, vectorized in t_i.

    In u = s - t_i the weight is linear, (2u + 2 t_i - t)/t, supported on
    u >= t/2 - t_i; the kernel is piecewise (flat, power-law) with the break
    at u = s0, so each regime integrates in closed form; at theta = 1 the
    power-law primitive takes its logarithmic limit.
    """
    t_i = np.asarray(t_i, dtype=float)
    c, s0, theta = params.c, params.s0, params.theta
    u_lo = np.maximum(0.0, t / 2.0 - t_i)
    u_hi = t - t_i

    out = np.zeros(t_i.shape)

    # flat regime: integral of c*(2u + 2 t_i - t)/t
    lo = u_lo
    hi = np.minimum(u_hi, s0)
    valid = hi > lo
    b = 2.0 * t_i - t

    def flat_prim(u):
        return (c / t) * (u * u + b * u)

    out += np.where(valid, flat_prim(hi) - flat_prim(lo), 0.0)

    # power-law regime: c*(u/s0)^-(1+theta) * (2u + b)/t
    lo = np.maximum(u_lo, s0)
    hi = u_hi
    valid = hi > lo
    coef = c * s0 ** (1.0 + theta) / t

    # within 1e-8 of theta = 1 the closed form loses more digits to cancellation
    # than the limit is off by; either side of the switch stays within ~2e-7
    if abs(theta - 1.0) > 1e-8:
        def power_prim(u):
            u = np.maximum(u, 1e-300)
            return coef * (2.0 * u ** (1.0 - theta) / (1.0 - theta) - b * u ** (-theta) / theta)
    else:
        # 2u^(1-theta)/(1-theta) -> 2 ln u, up to a constant that cancels
        def power_prim(u):
            u = np.maximum(u, 1e-300)
            return coef * (2.0 * np.log(u) - b / u)

    out += np.where(valid, power_prim(hi) - power_prim(lo), 0.0)
    return out


def kernel_integral(t_i: float, t: float, params: KernelParams = DEFAULT_PARAMS) -> float:
    """Integral of K_t(t - s) * phi(s - t_i) over s in [t_i, t], in closed form."""
    if t_i < 0 or t_i >= t:
        raise InvalidInterval(f"require 0 <= t_i < t, got t_i={t_i}, t={t}")
    return float(_kernel_integral_analytic(np.asarray([t_i]), t, params)[0])


def _posts_arrays(story: NewsStory):
    times = np.array([p.t for p in story.posts], dtype=float)
    followers = np.array([p.followers for p in story.posts], dtype=float)
    return times, followers


def intensity(story: NewsStory, s_h: float, t: float,
              params: KernelParams = DEFAULT_PARAMS) -> IntensityValue:
    """Cascade intensity lambda_t = s_h * sum_i n_i * phi(t - t_i) over t_i <= t."""
    if t < 0:
        raise TimeBeforeOrigin(f"t must be >= 0, got {t}")
    if s_h < 0:
        raise ValueError("s_h must be non-negative")
    times, followers = _posts_arrays(story)
    sel = times <= t
    lam = s_h * float(np.sum(followers[sel] * _phi(t - times[sel], params)))
    return IntensityValue(lam=lam, at_time=t)


def estimate_infectiousness(story: NewsStory, t: float,
                            params: KernelParams = DEFAULT_PARAMS) -> float:
    """One-sided-kernel infectiousness estimate at time t (seconds).

    Numerator sums the triangular kernel over reshares; denominator sums
    follower-weighted kernel integrals over all posts including the source.
    Returns 0 when there are no effective reshares; raises ZeroDenominator
    when the numerator is positive but every follower weight vanishes.
    """
    if t <= 0:
        raise NonPositiveTime(f"t must be positive, got {t}")
    times, followers = _posts_arrays(story)
    sel = times <= t
    times, followers = times[sel], followers[sel]
    if len(times) == 0 or times[0] != 0:
        raise ValueError("story must contain its source post at t = 0")

    # reshares only in the numerator; K_t(0) limit is 1
    num = float(np.sum(np.maximum(1.0 - 2.0 * (t - times[1:]) / t, 0.0)))
    if num == 0.0:
        return 0.0

    strict = times < t  # the t_i = t integral is empty
    den = float(np.sum(followers[strict]
                       * _kernel_integral_analytic(times[strict], t, params)))
    if den <= 0.0:
        raise ZeroDenominator(f"story {story.id!r}: zero denominator at t={t}")
    return num / den


def infectiousness_series(story: NewsStory, grid_hours=None,
                          params: KernelParams = DEFAULT_PARAMS) -> InfectiousnessSeries:
    """Infectiousness estimates at each hourly grid point; degrades to 0 on
    a zero denominator rather than aborting the story."""
    grid = default_grid() if grid_hours is None else np.asarray(grid_hours, dtype=float)
    if grid.size == 0:
        raise EmptyGrid("grid must be non-empty")
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing and positive")
    values = []
    for h in grid:
        try:
            values.append(estimate_infectiousness(story, h * SECONDS_PER_HOUR, params))
        except ZeroDenominator:
            warnings.warn(f"story {story.id!r}: zero denominator at hour {h}, using 0",
                          stacklevel=2)
            values.append(0.0)
    return InfectiousnessSeries(grid=tuple(grid), values=tuple(values))


def post_count_series(story: NewsStory, grid_hours=None) -> np.ndarray:
    """Number of posts falling in each grid bin (grid[k-1], grid[k]], first bin from 0."""
    grid = default_grid() if grid_hours is None else np.asarray(grid_hours, dtype=float)
    if grid.size == 0:
        raise EmptyGrid("grid must be non-empty")
    times_h = np.array([p.t for p in story.posts]) / SECONDS_PER_HOUR
    # right-inclusive bins (grid[k-1], grid[k]]; the source at t=0 lands in the first
    idx = np.searchsorted(grid, times_h, side="left")
    counts = np.bincount(idx[times_h <= grid[-1]], minlength=grid.size)
    return counts.astype(float)


def simulate_hawkes(s_h_profile, follower_sampler, horizon: float, seed: int,
                    params: KernelParams = DEFAULT_PARAMS,
                    source_followers: float | None = None,
                    max_events: int = 100_000,
                    story_id: str = "sim", label: str = "true") -> NewsStory:
    """Generate a cascade by Ogata thinning of the self-exciting intensity.

    s_h_profile maps hours to the (time-varying) infectiousness; the
    follower count of each event is drawn from follower_sampler(rng).
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    n0 = follower_sampler(rng) if source_followers is None else source_followers
    times = [0.0]
    followers = [float(n0)]
    t = 0.0
    lookahead = 60.0  # seconds; intensity upper bound held over this window

    times_arr = np.array(times)
    foll_arr = np.array(followers)

    while t < horizon:
        # the excitation kernel is non-increasing, so the history term at the
        # window start bounds it over the whole window
        hist = float(np.sum(foll_arr * _phi(np.maximum(t - times_arr, 1e-9), params)))
        w_end = min(t + lookahead, horizon)
        grid = np.linspace(t, w_end, 5) / SECONDS_PER_HOUR
        s_max = max(float(s_h_profile(h)) for h in grid)
        bound = s_max * hist
        if bound <= 0:
            t = w_end
            if t >= horizon:
                break
            continue
        wait = rng.exponential(1.0 / bound)
        if t + wait > w_end:
            t = w_end
            continue
        t = t + wait
        lam = (float(s_h_profile(t / SECONDS_PER_HOUR))
               * float(np.sum(foll_arr * _phi(np.maximum(t - times_arr, 1e-9), params))))
        if rng.uniform() <= lam / bound:
            times.append(t)
            followers.append(float(follower_sampler(rng)))
            times_arr = np.array(times)
            foll_arr = np.array(followers)
            if len(times) > max_events:
                raise ExplodingCascade(
                    f"cascade exceeded {max_events} events; profile is supercritical")

    posts = tuple(Post(t=tt, followers=nn) for tt, nn in zip(times, followers))
    return NewsStory(id=story_id, label=label, posts=posts)
