"""Truncated-Fock-space state vectors for the seeded two-crystal interferometer.

The state zoo needed here is deliberately small: single-mode coherent seed
states and their single-photon-added counterparts.  A state is a vector of
complex amplitudes over photon-number basis states, truncated at a cutoff
chosen so that the discarded photon-number tail carries negligible
probability for the seed amplitudes in play.

The builders work on batches.  Each row of a flat photon-number array holds
one state per segment, segment p spanning levels 0 .. cutoffs[p] at the
columns a ``Segments`` layout gives, and a failed check names the segment at
fault.  ``coherent_state`` builds coherent states, ``apply_creation`` applies
the creation operator and ``spacs_state`` turns coherent states into their
normalized photon-added counterparts.  ``inner_product`` and
``tensor_product`` act on one state's 1-d amplitude array; the latter builds
the joint two-mode vector for tests that contract it in full.  A single state
is a one-segment batch: ``coherent_state([[alpha]], Segments([cutoff]))[0]``.

The cutoff rule, ``cutoffs_for_means``, is the one gate on which seeds can be
built: it names each |alpha|^2 that is NaN, inf or past its ceiling.  The
builders take any cutoff and check their own work only.

Cutoffs and coherent amplitudes both come from one numpy kernel for the
Poisson log-pmf, ``_poisson_log_pmf``, in Loader's saddle-point form
(C. Loader, *Fast and Accurate Computation of Binomial Probabilities*, 2000;
the form R's ``dpois`` uses).  It is accurate to a few ulps of log p for
every level and mean the oracle reaches, so the module needs numpy alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .analytic import _fail_first


# stirlerr(n) = log(n!) - (n log n - n + log(2 pi n) / 2), Stirling's error,
# for n = 1 .. 15 (Loader's table; n = 0 holds a placeholder).
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
# Above 15, stirlerr(n) = 1/(12n) - 1/(360n^3) + 1/(1260n^5) - 1/(1680n^7)
# + 1/(1188n^9), short of the true value by less than 1.2e-16.
_STIRLING_SERIES = (1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0)

# Below this mean n / mean can overflow, so the deviance takes log n - log mean.
_MEAN_TINY = 1e-290
# Above this mean the deviance near the mean, where n log(n / mean) and
# n - mean cancel, takes Loader's series in v = (n - mean) / (n + mean):
# bd0 = (n - mean) v + 2n (v^3/3 + v^5/5 + ... + v^17/17) for |n - mean| <
# 0.1 (n + mean).  At and below it the direct form stays within 3e-15 of
# log p.
_SERIES_MEAN = 1000.0
_SERIES_V = 0.1
_SERIES_TERMS = tuple(2.0 / (2 * j + 1) for j in range(1, 9))


# The heads -stirlerr(n) - log(2 pi n) / 2, the part of log p(n; mean) that
# depends on n alone, of levels 0 .. len - 1; 0 at n = 0, where log p is
# -mean.  It starts as levels 0 .. 15 from the table above and grows on
# demand, a block of levels at a time, to at least twice its length.
_heads = np.array(
    [0.0] + [-s - 0.5 * math.log(2.0 * math.pi * n) for n, s in enumerate(_STIRLERR) if n]
)
_HEADS_BLOCK = 1 << 16


def _stirling_heads(top: int) -> np.ndarray:
    """-stirlerr(n) - log(2 pi n) / 2 for n = 0 .. top at least, 0 at n = 0."""
    global _heads
    heads = _heads
    if top >= len(heads):
        grown = np.empty(max(top + 1, 2 * len(heads)))
        grown[: len(heads)] = heads
        s0, s1, s2, s3, s4 = _STIRLING_SERIES
        for start in range(len(heads), len(grown), _HEADS_BLOCK):
            n = np.arange(float(start), float(min(start + _HEADS_BLOCK, len(grown))))
            r = 1.0 / n
            r2 = r * r
            stirlerr = r * (s0 - r2 * (s1 - r2 * (s2 - r2 * (s3 - r2 * s4))))
            n *= 2.0 * math.pi
            grown[start : start + len(n)] = -(0.5 * np.log(n) + stirlerr)
        _heads = heads = grown
    return heads


def _poisson_log_pmf(n: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """log P(X = n) for X ~ Poisson(mean), elementwise over broadcast arrays.

    Loader's saddle-point form: log p = -stirlerr(n) - bd0 - log(2 pi n) / 2
    with the deviance bd0 = n log(n / mean) + mean - n, which is ``mean`` at
    n = 0.  It never forms n! or mean^n, so nothing cancels at large n: the
    result is within a few ulps of log p for levels n >= 0 up to 2e6 and
    finite means up to 1e6 (tests/test_fock.py checks it against mpmath).
    Levels n are integers >= 0 (of any dtype); a zero mean gives 0 at n = 0
    and -inf above.
    """
    n = np.asarray(n)
    mean = np.asarray(mean, dtype=float)
    t = n - mean
    # bd0 = n log1p(t / mean) - t; at n = 0, t / mean is -1 exactly and the
    # floor keeps 0 * log1p(-1) from turning into nan
    if mean.min(initial=math.inf) >= _MEAN_TINY:
        bd0 = t / mean
        np.maximum(bd0, -1.0 + 2.0**-53, out=bd0)
        np.log1p(bd0, out=bd0)
        bd0 *= n
        bd0 -= t
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            direct = n * np.log1p(np.maximum(t / mean, -1.0 + 2.0**-53)) - t
            far = n * (np.log(np.maximum(n, 1.0)) - np.log(mean)) - t
        bd0 = np.where(mean >= _MEAN_TINY, direct, np.where(n > 0.0, far, mean))
    if mean.max(initial=0.0) > _SERIES_MEAN:
        # only where |v| < 0.1 and the mean is large, so a large batch pays
        # for its near-mean levels alone
        n_all, mean_all = np.broadcast_arrays(n, mean)
        near = np.abs(t) < _SERIES_V * (n_all + mean_all)
        near &= mean_all > _SERIES_MEAN
        t_near, n_near = t[near], n_all[near]
        v = t_near / (n_near + mean_all[near])
        w = v * v
        series = np.full_like(w, _SERIES_TERMS[-1])
        for term in _SERIES_TERMS[-2::-1]:
            series *= w
            series += term
        series *= n_near * v * w
        series += t_near * v
        bd0[near] = series
    levels = n.astype(np.intp, copy=False)
    return np.subtract(_stirling_heads(int(levels.max(initial=0)))[levels], bd0, out=bd0)


# The Poisson(mean) tail falls below 1e-12 near the Cornish-Fisher level
# mean + z sqrt(mean) + (z^2 + 2) / 6 with z = 7.034.  The eight levels from
# 4 below to 3 above its floor (or from the cutoff floor) hold the crossing
# for every mean in [0, 1e6]: a walk over all 1,007,022 steps of the window
# start k found tail(k) >= 1e-12 at each step's first mean and
# tail(k + 7) < 1e-12 at its last, and tests/test_oracle.py repeats it on a
# sample of the steps.  Above 1e6 the window stops at the ceiling.
_TAIL_Z = 7.034
_WINDOW = 8

# A tail is the sum of the pmf from its level up to the window start plus
# 4.5 sqrt(mean) + 18 levels; the levels beyond carry less than 1e-30, a
# 1e-18 share of the tolerance, at every mean in [0, 1e6] (tests/test_fock.py
# checks the bound).  At most this many levels are evaluated at once.
_SPAN_SIGMAS = 4.5
_SPAN_EXTRA = 18
_SPAN_BUDGET = 1 << 18


def _window_span(mean_max: float) -> int:
    return math.ceil(_SPAN_SIGMAS * math.sqrt(mean_max)) + _SPAN_EXTRA


def _window_tails(start: np.ndarray, means: np.ndarray, span: int) -> np.ndarray:
    """Poisson tails P(X >= start + i), i = 0 .. 7, one row per mean."""
    levels = start[:, None] + np.arange(span)
    pmf = np.exp(_poisson_log_pmf(levels, means[:, None]))
    # running sums from the top level down, smallest terms first
    return np.cumsum(pmf[:, ::-1], axis=1)[:, : -_WINDOW - 1 : -1]


def _minimal_cutoffs(means, tolerance: float, floor: int, ceiling: int) -> np.ndarray:
    """Per mean, the smallest N in [floor, ceiling] with Poisson tail P(X >= N) < tolerance.

    One vectorised pass sums the pmf over an eight-level window around the
    Cornish-Fisher guess, plus the levels above it that still count, and
    takes the level where the tail crosses the tolerance.  Means are taken
    in chunks of at most ``_SPAN_BUDGET`` levels.  Raises ValueError naming
    the first mean that is negative or NaN, or that even ``ceiling`` leaves
    too much tail.
    """
    means = np.asarray(means, dtype=float)
    _fail_first(~(means >= 0.0), lambda k: f"mean photon number {means[k]} is not >= 0")
    # Past the ceiling every mean, inf too, fails as the ceiling itself does.
    lam = np.minimum(means, float(ceiling))
    start = np.floor(lam + _TAIL_Z * np.sqrt(lam) + ((_TAIL_Z * _TAIL_Z + 2.0) / 6.0 - 4.0))
    start = np.minimum(np.maximum(start, floor), ceiling + 1 - _WINDOW).astype(np.intp)
    span = _window_span(float(lam.max(initial=0.0)))
    rows = max(1, _SPAN_BUDGET // span)
    if len(lam) <= rows:
        tails = _window_tails(start, lam, span)
    else:
        tails = np.concatenate([
            _window_tails(start[i : i + rows], lam[i : i + rows],
                          _window_span(float(lam[i : i + rows].max())))
            for i in range(0, len(lam), rows)
        ])
    below = tails < tolerance
    first = below.argmax(axis=1)
    # first == 0 is the answer only where the window starts at the floor.  Any
    # other miss is a mean above 1e6, whose window ends at the ceiling.
    _fail_first(
        (first == 0) & ((start > floor) | ~below[:, 0]),
        lambda k: f"no cutoff <= ceiling {ceiling} bounds the photon-number "
        f"tail below {tolerance:.3e} for |alpha|^2 = {means[k]:.6g}",
    )
    return (start + first).astype(np.int64, copy=False)


@dataclass(frozen=True)
class CutoffPolicy:
    """The photon-number cutoff rule; its one instance is ``DEFAULT_POLICY``.

    tail_tolerance: largest truncated probability mass accepted per seed.
    floor, ceiling: hard bounds on the cutoff search range.
    """

    tail_tolerance: float
    floor: int
    ceiling: int


# The ceiling is the cutoff the largest seed ``SeedPair`` accepts
# (|alpha| = 1000, mean photon number 1e6) needs, so no valid seed is refused.
# It is pinned so that importing this module sums no Poisson tail;
# tests/test_fock.py derives it with ``_minimal_cutoffs`` over [floor, 2e6],
# where the Poisson tail underflows to zero.
DEFAULT_POLICY = CutoffPolicy(1e-12, 16, 1_007_044)

def cutoffs_for_means(means) -> np.ndarray:
    """The cutoff rule of ``DEFAULT_POLICY`` for each mean photon number |alpha|^2.

    Each cutoff is the smallest N in [floor, ceiling] whose Poisson(mean)
    tail above N - 1 is below the tail tolerance; the extra level reserves
    headroom for one creation-operator application.  Returns an int64 array
    shaped like ``means``.
    """
    rule = DEFAULT_POLICY
    return _minimal_cutoffs(means, rule.tail_tolerance, rule.floor, rule.ceiling)


def choose_cutoff(alphas: Iterable[complex]) -> int:
    """The one cutoff safe for every seed in ``alphas``: the rule at the largest |alpha|^2."""
    alphas = np.array(list(alphas), dtype=complex)
    if not alphas.size:
        raise ValueError("at least one seed amplitude is required")
    mags = np.hypot(alphas.real, alphas.imag)
    # an overflowing |alpha|^2 is inf, which the rule refuses by name
    with np.errstate(over="ignore"):
        means = mags * mags
    return int(cutoffs_for_means([means.max()])[0])


@dataclass(frozen=True, eq=False)
class Segments:
    """Layout of a flat photon-number array: segment p holds levels 0 .. cutoffs[p].

    ``starts`` is each segment's first column and ``lengths`` its cutoff + 1;
    ``bounds`` lists the (start, stop) column pairs as Python ints, ``size``
    is the total length and ``levels`` the photon number n at every column.
    """

    cutoffs: np.ndarray
    starts: np.ndarray = field(init=False)
    lengths: np.ndarray = field(init=False)
    bounds: list = field(init=False)
    size: int = field(init=False)
    levels: np.ndarray = field(init=False)

    def __post_init__(self):
        cutoffs = np.asarray(self.cutoffs, dtype=np.int64)
        if cutoffs.ndim != 1 or np.count_nonzero(cutoffs < 1):
            raise ValueError(f"cutoffs must be a 1-d array of levels >= 1, got {cutoffs!r}")
        lengths = cutoffs + 1
        stops = lengths.cumsum()
        starts = stops - lengths
        size = int(stops[-1]) if len(stops) else 0
        levels = np.arange(size, dtype=np.int64)
        levels -= starts.repeat(lengths)
        set_field = object.__setattr__
        set_field(self, "cutoffs", cutoffs)
        set_field(self, "starts", starts)
        set_field(self, "lengths", lengths)
        set_field(self, "bounds", list(zip(starts.tolist(), stops.tolist())))
        set_field(self, "size", size)
        set_field(self, "levels", levels)


def _segment_norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a contiguous complex segment, bit for bit, without its overhead.

    numpy's norm of a complex vector is sqrt(re.re + im.im), each a BLAS dot
    product over the strided real or imaginary view; this makes the same two
    calls.
    """
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _normalize_segments(amps: np.ndarray, segments: Segments) -> None:
    """Divide each segment of each row, in place, by its Euclidean norm."""
    for row in amps:
        for i, j in segments.bounds:
            segment = row[i:j]
            segment /= _segment_norm(segment)


def coherent_state(
    alphas, segments: Segments, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Coherent states |alpha>, one row per row of ``alphas`` and one segment per column.

    Segment p of every row holds levels 0 .. ``segments.cutoffs[p]``.
    Amplitudes are proportional to alpha**n / sqrt(n!): their magnitudes are
    sqrt(p(n; |alpha|^2)) from the Poisson log-pmf kernel, which stays
    accurate at any level, and each truncated segment is renormalized to unit
    norm, so it is exactly normalized even when the cutoff is tight.  Alpha
    = 0 gives the vacuum |0>.  Returns ``out`` (allocated when None), shaped
    (rows, ``segments.size``).
    """
    alphas = np.asarray(alphas, dtype=complex)
    cutoffs, lengths = segments.cutoffs, segments.lengths
    if alphas.ndim != 2 or alphas.shape[1] != len(cutoffs):
        raise ValueError(
            f"alphas must be (rows, segments) with one segment per column, got "
            f"shape {alphas.shape} for {len(cutoffs)} segments"
        )
    # np.hypot, unlike np.abs, matches abs(complex) bit for bit; np.arctan2
    # does not match cmath.phase, so the phases are taken seed by seed
    mags = np.hypot(alphas.real, alphas.imag)
    means = mags * mags
    phases = np.array([[cmath.phase(a) for a in row] for row in alphas.tolist()])
    if out is None:
        out = np.empty((len(alphas), segments.size), dtype=complex)
    n = segments.levels
    magnitudes = _poisson_log_pmf(n, means.repeat(lengths, axis=1))
    magnitudes *= 0.5
    np.exp(magnitudes, out=magnitudes)
    np.multiply(1j * n, phases.repeat(lengths, axis=1), out=out)
    np.exp(out, out=out)
    np.multiply(magnitudes, out, out=out)
    del magnitudes
    _normalize_segments(out, segments)
    return out


def apply_creation(
    amps: np.ndarray, segments: Segments, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Apply the creation operator a†|n> = sqrt(n+1) |n+1> to every segment.

    The result is unnormalized.  Population in a segment's top level would
    be pushed out of the truncated space, so it must carry less probability
    than the cutoff rule's tail tolerance or the cutoff is too small for this
    operation.  Returns ``out`` (allocated when None).
    """
    tops = amps[:, segments.starts + segments.cutoffs]
    top_mass = tops.real * tops.real + tops.imag * tops.imag
    tolerance = DEFAULT_POLICY.tail_tolerance
    if np.count_nonzero(top_mass <= tolerance) != top_mass.size:
        _fail_first(
            (top_mass > tolerance).any(axis=0),
            lambda k: f"top-level probability {top_mass[:, k].max():.3e} exceeds tail "
            f"tolerance {tolerance:.3e}; increase the cutoff before applying a "
            "creation operator",
        )
    if out is None:
        out = np.empty_like(amps)
    np.multiply(amps[:, :-1], np.sqrt(segments.levels[1:]), out=out[:, 1:])
    # a† leaves level 0 of every segment empty
    out[:, 0] = 0.0
    if len(segments.starts) > 1:
        out[:, segments.starts[1:]] = 0.0
    return out


def spacs_state(
    coherent: np.ndarray, segments: Segments, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Single-photon-added coherent states a†|alpha> / sqrt(1 + |alpha|^2).

    Takes the coherent states ``coherent_state`` built and applies a† to
    every segment, then divides each by its measured norm.  That norm equals
    sqrt(1 + |alpha|^2) up to truncation error; dividing by it keeps each
    segment exactly unit length.  For alpha = 0 a segment is exactly the
    one-photon state |1>.  ``apply_creation`` guards the top level.
    """
    out = apply_creation(coherent, segments, out)
    _normalize_segments(out, segments)
    return out


def _check_same_length(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(
            f"dimension mismatch: amplitude arrays of shape {a.shape} and {b.shape} "
            "(equal cutoffs required)"
        )


def inner_product(a, b) -> complex:
    """Hermitian inner product <a|b> of two 1-d amplitude arrays, conjugate-linear in ``a``."""
    a, b = np.asarray(a), np.asarray(b)
    _check_same_length(a, b)
    return complex(np.vdot(a, b))


def tensor_product(a, b) -> np.ndarray:
    """Joint two-mode amplitudes of two 1-d arrays, ``a`` the more significant factor.

    The occupation (n_a, n_b) sits at index n_a * (cutoff + 1) + n_b, the
    order ``numpy.kron`` composes in.
    """
    a, b = np.asarray(a), np.asarray(b)
    _check_same_length(a, b)
    return np.kron(a, b)
