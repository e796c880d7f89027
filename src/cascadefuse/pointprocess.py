"""Self-exciting point-process engine for cascade infectiousness.

Implements the power-law memory kernel, the cascade intensity, the
one-sided-triangular-kernel infectiousness estimator, and an
Ogata-thinning simulator used both as a test oracle and as the
synthetic-data source.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .cascade import NewsStory, Post
from .errors import ExplodingCascade, InvalidValue

DEFAULT_C = 6.27e-4
DEFAULT_S0 = 300.0  # 5 minutes, in seconds
DEFAULT_THETA = 0.242

SECONDS_PER_HOUR = 3600.0
LOOKAHEAD = 60.0  # seconds; the simulator holds its intensity bound over this window
EVENT_ROWS = 256  # the simulator's first event buffer; it doubles when full
BLOCK_WINDOWS = 4  # the simulator's first block of windows; it doubles while no candidate comes
BLOCK_CAP = 256  # the most windows in one block
BLOCK_ELEMENTS = 8192  # cap on windows x events in a block's history pass: 64 KB arrays


@dataclass(frozen=True)
class KernelParams:
    """Memory-kernel constants: flat rate c up to s0 seconds, then power-law decay."""

    c: float = DEFAULT_C
    s0: float = DEFAULT_S0
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.c, self.s0, self.theta)):  # NaN fails too
            raise InvalidValue(f"kernel parameters must all be positive and finite: {self!r}")


DEFAULT_PARAMS = KernelParams()
DEFAULT_GRID_HOURS = 47  # hours 1..47: the hourly points before a 2-day horizon


@dataclass(frozen=True)
class InfectiousnessSeries:
    """Hourly infectiousness curve: grid in hours, one value per grid point."""

    grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise InvalidValue("grid and values must have equal length")
        if not all(math.isfinite(v) for v in self.values):
            raise InvalidValue("infectiousness values must be finite")
        if any(v < 0 for v in self.values):
            raise InvalidValue("infectiousness values must be non-negative")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise InvalidValue("grid must be strictly increasing")


def default_grid(n_hours: int = DEFAULT_GRID_HOURS) -> np.ndarray:
    """Hourly evaluation grid: hours 1..n_hours."""
    return np.arange(1, n_hours + 1, dtype=float)


def _grid(grid_hours) -> np.ndarray:
    """The grid in hours (default_grid() for None): non-empty, positive, increasing."""
    grid = default_grid() if grid_hours is None else np.asarray(grid_hours, dtype=float)
    if grid.size == 0:
        raise InvalidValue("grid must be non-empty")
    if not (np.all(grid > 0) and np.all(np.diff(grid) > 0)):
        raise InvalidValue("grid must be strictly increasing and positive")
    return grid


def _phi(s, params: KernelParams) -> np.ndarray:
    """Memory kernel on an array of delays; the s -> 0+ limit is c."""
    s = np.asarray(s, dtype=float)
    out = np.full(s.shape, params.c)
    tail = s > params.s0
    out[tail] = params.c * (s[tail] / params.s0) ** (-(1.0 + params.theta))
    return out


def memory_kernel(s: float, params: KernelParams = DEFAULT_PARAMS) -> float:
    """Reshare-delay density: c for 0 < s <= s0, power-law decay beyond."""
    if s <= 0:
        raise InvalidValue(f"delay must be positive, got {s}")
    return float(_phi(s, params))


def _triangle(s, t):
    return np.maximum(1.0 - 2.0 * s / t, 0.0)


def triangular_kernel(s: float, t: float) -> float:
    """One-sided recency window K_t(s) = max(1 - 2s/t, 0)."""
    if t <= 0:
        raise InvalidValue(f"window must be positive, got {t}")
    if s < 0:
        raise InvalidValue(f"delay must be non-negative, got {s}")
    return float(_triangle(s, t))


def _kernel_integral_analytic(t_i, t, params: KernelParams):
    """Closed-form integral of triangle weight x memory kernel, in the
    broadcast shape of t_i and t (0 where t_i >= t).

    In u = s - t_i the weight is linear, (2u + 2 t_i - t)/t, supported on
    u >= t/2 - t_i; the kernel is piecewise (flat, power-law) with the break
    at u = s0, so each regime integrates in closed form, its upper end clamped
    to its lower end so that an empty regime gives exactly 0; at theta = 1 the
    power-law primitive takes its logarithmic limit.
    """
    c, s0, theta = params.c, params.s0, params.theta
    u_lo = np.maximum(0.0, t / 2.0 - t_i)
    u_hi = t - t_i
    b = 2.0 * t_i - t

    # flat regime: integral of c*(2u + 2 t_i - t)/t
    def flat_prim(u):
        return (c / t) * (u * u + b * u)

    out = flat_prim(np.maximum(np.minimum(u_hi, s0), u_lo)) - flat_prim(u_lo)

    # power-law regime: c*(u/s0)^-(1+theta) * (2u + b)/t, on u >= s0 > 0
    lo = np.maximum(u_lo, s0)
    hi = np.maximum(u_hi, lo)
    coef = c * s0 ** (1.0 + theta) / t

    # within 1e-8 of theta = 1 the closed form loses more digits to cancellation
    # than the limit is off by; either side of the switch stays within ~2e-7
    if abs(theta - 1.0) > 1e-8:
        def power_prim(u):
            return coef * (2.0 * u ** (1.0 - theta) / (1.0 - theta) - b * u ** (-theta) / theta)
    else:
        # 2u^(1-theta)/(1-theta) -> 2 ln u, up to a constant that cancels
        def power_prim(u):
            return coef * (2.0 * np.log(u) - b / u)

    return out + (power_prim(hi) - power_prim(lo))


def kernel_integral(t_i: float, t: float, params: KernelParams = DEFAULT_PARAMS) -> float:
    """Integral of K_t(t - s) * phi(s - t_i) over s in [t_i, t], in closed form."""
    if t_i < 0 or t_i >= t:
        raise InvalidValue(f"require 0 <= t_i < t, got t_i={t_i}, t={t}")
    return float(_kernel_integral_analytic(np.array([t_i]), t, params)[0])


def _posts_arrays(story: NewsStory, t_end: float):
    """Rows of times and follower counts of the story's posts at or before t_end seconds."""
    posts = np.array([(p.t, p.followers) for p in story.posts], dtype=float).reshape(-1, 2)
    return posts[posts[:, 0] <= t_end].T


def _excitation(times, followers, t, params: KernelParams):
    """History term sum_i n_i * phi(t - t_i) over posts at or before t; for a
    1-D array of times, one term per time, in one (len(t), n) pass."""
    t = np.asarray(t)[..., None]
    return (followers * _phi(np.maximum(t - times, 1e-9), params)).sum(axis=-1)


def intensity(story: NewsStory, s_h: float, t: float,
              params: KernelParams = DEFAULT_PARAMS) -> float:
    """Cascade intensity lambda_t = s_h * sum_i n_i * phi(t - t_i) over t_i <= t."""
    if t < 0:
        raise InvalidValue(f"t must be >= 0, got {t}")
    if not 0 <= s_h < math.inf:  # NaN fails too
        raise InvalidValue(f"s_h must be non-negative and finite, got {s_h}")
    lam = s_h * float(_excitation(*_posts_arrays(story, t), t, params))
    if not math.isfinite(lam):
        raise InvalidValue(f"intensity at t={t} is not finite")
    return lam


def _estimate(times, followers, t, params: KernelParams):
    """Numerator and denominator of the estimate at each window end of t
    (seconds), in one (G, n) pass; a post after a window end adds 0 to both."""
    if len(times) == 0 or times[0] != 0:
        raise InvalidValue("story must contain its source post at t = 0")
    t = t[:, None]
    reshares = times[1:]
    num = np.sum(np.where(reshares <= t, _triangle(t - reshares, t), 0.0), axis=1)
    den = np.sum(followers * _kernel_integral_analytic(times, t, params), axis=1)
    return num, den


def estimate_infectiousness(story: NewsStory, t: float,
                            params: KernelParams = DEFAULT_PARAMS) -> float:
    """One-sided-kernel infectiousness estimate at time t (seconds).

    Numerator sums the triangular kernel over reshares; denominator sums
    follower-weighted kernel integrals over all posts including the source.
    Returns 0 when there are no effective reshares; raises InvalidValue when
    the numerator is positive but every follower weight vanishes, or when the
    estimate is not finite.
    """
    if t <= 0:
        raise InvalidValue(f"t must be positive, got {t}")
    (num,), (den,) = _estimate(*_posts_arrays(story, t), np.array([t], dtype=float), params)
    if num == 0.0:
        return 0.0
    if den <= 0.0:
        raise InvalidValue(f"story {story.id!r}: zero denominator at t={t}")
    with np.errstate(over="ignore"):  # the finiteness check below reports it
        value = float(num / den)
    if not math.isfinite(value):
        raise InvalidValue("infectiousness values must be finite")
    return value


def infectiousness_series(story: NewsStory, grid_hours=None,
                          params: KernelParams = DEFAULT_PARAMS) -> InfectiousnessSeries:
    """Infectiousness estimates at each hourly grid point; degrades to 0 on
    a zero denominator rather than aborting the story."""
    grid = _grid(grid_hours)
    t = grid * SECONDS_PER_HOUR
    num, den = _estimate(*_posts_arrays(story, t[-1]), t, params)
    for h in grid[(num > 0) & (den <= 0)]:
        warnings.warn(f"story {story.id!r}: zero denominator at hour {h}, using 0",
                      stacklevel=2)
    with np.errstate(over="ignore"):  # InfectiousnessSeries refuses an overflow
        values = np.divide(num, den, out=np.zeros_like(num), where=(num > 0) & (den > 0))
    return InfectiousnessSeries(grid=tuple(grid), values=tuple(values))


def post_count_series(story: NewsStory, grid_hours=None) -> np.ndarray:
    """Number of posts falling in each grid bin (grid[k-1], grid[k]], first bin from 0."""
    grid = _grid(grid_hours)
    times_h = np.array([p.t for p in story.posts]) / SECONDS_PER_HOUR
    # right-inclusive bins (grid[k-1], grid[k]]; the source at t=0 lands in the first
    idx = np.searchsorted(grid, times_h, side="left")
    counts = np.bincount(idx[times_h <= grid[-1]], minlength=grid.size)
    return counts.astype(float)


def seeded_rng(seed) -> np.random.Generator:
    """np.random.default_rng(seed), with InvalidValue for a negative integer seed."""
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise InvalidValue(f"seed {seed} must not be negative")
    return np.random.default_rng(seed)


def simulate_hawkes(s_h_profile, follower_sampler, horizon: float, seed: int,
                    params: KernelParams = DEFAULT_PARAMS,
                    source_followers: float | None = None,
                    max_events: int = 100_000,
                    story_id: str = "sim", label: str = "true") -> NewsStory:
    """Generate a cascade by Ogata thinning of the self-exciting intensity.

    s_h_profile maps hours to the (time-varying) infectiousness; the
    follower count of each event is drawn from follower_sampler(rng).
    Deterministic for a fixed seed. Raises ExplodingCascade when the cascade,
    its source included, would exceed max_events events.
    """
    if not 0 < horizon < math.inf:  # NaN too; an infinite horizon never ends
        raise InvalidValue(f"horizon must be positive and finite, got {horizon!r}")
    rng = seeded_rng(seed)
    n0 = follower_sampler(rng) if source_followers is None else source_followers
    # one event buffer, written in place: the source, the accepted events and
    # the one past max_events that raises. It starts small and doubles when
    # full, since most cascades hold a few hundred events, far below max_events.
    times = np.zeros(min(EVENT_ROWS, max_events + 1))
    followers = np.zeros(times.size)
    followers[0] = n0
    n = 1
    t = 0.0
    m = BLOCK_WINDOWS

    # Windows of LOOKAHEAD seconds, in blocks: one grid, one history pass and
    # one draw per block, then the first candidate of the block is thinned.
    # The kernel is non-increasing, so the history term at a window's start
    # bounds it over the whole window. Until a candidate, a block's windows are
    # the ones a window-at-a-time loop would take, and its waits are the same
    # draws: rng.exponential(1 / bound) per window whose bound is above 0.
    while t < horizon:
        k_max = min(m, BLOCK_CAP, max(1, BLOCK_ELEMENTS // n))
        edges = [t]
        while len(edges) <= k_max and edges[-1] < horizon:
            edges.append(min(edges[-1] + LOOKAHEAD, horizon))
        starts, ends = np.array(edges[:-1]), np.array(edges[1:])
        k = starts.size
        grid = np.linspace(starts, ends, 5) / SECONDS_PER_HOUR  # column j: window j
        # linspace ends each grid on its stop exactly, so window j's last point
        # is window j + 1's first: 4k + 1 profile values serve the k windows
        s_h = np.array([float(s_h_profile(h)) for h in np.append(grid[:4].T, grid[4, -1])])
        s_max = np.maximum(s_h[:-1].reshape(k, 4).max(axis=1), s_h[4::4])
        bound = s_max * _excitation(times[:n], followers[:n], starts, params)
        draw = ~(bound <= 0)  # a bound <= 0 is an infinite wait, with no draw; NaN draws
        state = rng.bit_generator.state
        wait = np.full(k, math.inf)
        # what rng.exponential(1 / bound) computes, window by window
        wait[draw] = (1.0 / bound[draw]) * rng.standard_exponential(np.count_nonzero(draw))
        hit = np.flatnonzero(~(starts + wait > ends))
        if hit.size == 0:
            t = edges[-1]
            m = min(2 * m, BLOCK_CAP)
            continue
        # a candidate in window j: rewind the generator to just after window j's draw
        j = hit[0]
        rng.bit_generator.state = state
        rng.standard_exponential(np.count_nonzero(draw[:j + 1]))
        m = BLOCK_WINDOWS
        t = float(starts[j] + wait[j])
        lam = (float(s_h_profile(t / SECONDS_PER_HOUR))
               * float(_excitation(times[:n], followers[:n], t, params)))
        if rng.uniform() <= lam / bound[j]:
            if n == times.size:  # full: double it, up to max_events + 1 rows
                more = np.zeros(min(n, max_events + 1 - n))
                times, followers = np.concatenate([times, more]), np.concatenate([followers, more])
            times[n] = t
            followers[n] = follower_sampler(rng)
            n += 1
            if n > max_events:
                raise ExplodingCascade(
                    f"cascade exceeded {max_events} events; profile is supercritical")

    posts = tuple(Post(t=tt, followers=nn)
                  for tt, nn in zip(times[:n].tolist(), followers[:n].tolist()))
    return NewsStory(id=story_id, label=label, posts=posts)
