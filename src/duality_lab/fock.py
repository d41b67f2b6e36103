"""Truncated-Fock-space state vectors for the seeded two-crystal interferometer.

The state zoo needed here is deliberately small: single-mode coherent seed
states and their single-photon-added counterparts.  A state is a vector of
complex amplitudes over photon-number basis states, truncated at a cutoff
chosen so that the discarded photon-number tail carries negligible
probability for the seed amplitudes in play.

The builders work on batches: a flat photon-number array holds one state per
segment, segment p spanning levels 0 .. cutoffs[p] at the columns a
``Segments`` layout gives, and a failed check names the segment at fault.
``coherent_state`` builds coherent states, one seed per segment,
``apply_creation`` applies the creation operator and ``spacs_state`` turns
coherent states into their normalized photon-added counterparts, and returns
the squared norms it divided by.  ``inner_product`` and ``tensor_product``
act on one state's amplitude array; the latter builds the joint two-mode
vector of two equal-cutoff states.  A single state is a one-segment batch:
``coherent_state([alpha], Segments([cutoff]))``.
Every segment is normalized by a segmented reduction, one ``np.add.reduceat``
over the segment starts, which sums each segment on its own: a state comes
out the same, bit for bit, in any batch.

The cutoff rule, ``cutoffs_for_means``, is the one gate on which seeds can be
built: it names each |alpha|^2 that is NaN, inf or past its ceiling.  It
scans each mean's Poisson tails from the mean up to a Bennett bound.  The
builders take any cutoff and check their own work only.

Cutoffs and coherent amplitudes both come from one numpy kernel for the
Poisson log-pmf, ``_poisson_log_pmf``, in Loader's saddle-point form
(C. Loader, *Fast and Accurate Computation of Binomial Probabilities*, 2000;
the form R's ``dpois`` uses).  It is accurate to a few ulps of log p for
every level and mean the oracle reaches, so the module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .analytic import _blocks, _fail_first, _modulus


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


# Bernstein's form of Bennett's inequality for the Poisson(mean) upper tail,
# P(X >= mean + t) <= exp(-t^2 / (2 (mean + t / 3))) (Boucheron, Lugosi &
# Massart, *Concentration Inequalities*, OUP 2013, ch. 2), leaves less than
# e^-x = 1e-30, a 1e-18 share of the tolerance, above mean + t with
# t = x / 3 + sqrt(x^2 / 9 + 2 x mean).  At most _SPAN_BUDGET levels are
# evaluated at once.
_BENNETT_X = math.log(1e30)
_SPAN_BUDGET = 1 << 18


def _scan_span(mean_max: float) -> int:
    """The scan width for means up to ``mean_max``.

    ceil(t) + 2 levels from floor(mean) reach past mean + t.
    """
    third = _BENNETT_X / 3.0
    return math.ceil(third + math.sqrt(third * third + 2.0 * _BENNETT_X * mean_max)) + 2


def _minimal_cutoffs(means, tolerance: float, floor: int, ceiling: int) -> np.ndarray:
    """Per mean, the smallest N in [floor, ceiling] with Poisson tail P(X >= N) < tolerance.

    One scan per mean takes the tail of every level from max(floor,
    floor(mean)) up past the Bennett bound, as running sums of the pmf from
    the top level down (smallest terms first), and the first level whose tail is below the
    tolerance is the cutoff.  No level below floor(mean) can be: the Poisson
    median is at least mean - ln 2 (Choi, Proc. AMS 122, 1994), so the tail
    there is at least 1/2.  Means are taken in chunks of at most
    ``_SPAN_BUDGET`` levels.  Raises ValueError naming the first mean that
    is negative or NaN, or whose cutoff is past ``ceiling``.
    """
    means = np.asarray(means, dtype=float)
    _fail_first(~(means >= 0.0), lambda k: f"mean photon number {means[k]} is not >= 0")
    # Past the ceiling every mean, inf too, fails as the ceiling itself does.
    lam = np.minimum(means, float(ceiling))
    start = np.maximum(np.floor(lam), floor).astype(np.intp)
    cutoffs = np.empty(len(lam), dtype=np.int64)
    rows = max(1, _SPAN_BUDGET // _scan_span(float(lam.max(initial=0.0))))
    for lam_rows, start_rows, cutoff_rows in _blocks((lam, start, cutoffs), rows):
        levels = start_rows[:, None] + np.arange(_scan_span(float(lam_rows.max())))
        pmf = np.exp(_poisson_log_pmf(levels, lam_rows[:, None]))
        tails = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
        cutoff_rows[:] = start_rows + (tails < tolerance).argmax(axis=1)
    _fail_first(
        cutoffs > ceiling,
        lambda k: f"no cutoff <= ceiling {ceiling} bounds the photon-number "
        f"tail below {tolerance:.3e} for |alpha|^2 = {means[k]:.6g}",
    )
    return cutoffs


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
    tail above N - 1, P(X >= N), is below the tail tolerance.  The rule bounds
    that tail only and reserves no level for the creation operator: the
    squared norm of a† applied to a coherent state truncated at N falls short
    by up to P(X >= N - 1) relative.  Returns an int64 array shaped like
    ``means``.
    """
    rule = DEFAULT_POLICY
    return _minimal_cutoffs(means, rule.tail_tolerance, rule.floor, rule.ceiling)


def choose_cutoff(alphas: Iterable[complex]) -> int:
    """The one cutoff safe for every seed in ``alphas``: the rule at the largest |alpha|^2."""
    alphas = np.array(list(alphas), dtype=complex)
    if not alphas.size:
        raise ValueError("at least one seed amplitude is required")
    mags = _modulus(alphas)
    # an overflowing |alpha|^2 is inf, which the rule refuses by name
    with np.errstate(over="ignore"):
        means = mags * mags
    return int(cutoffs_for_means([means.max()])[0])


@dataclass(frozen=True, eq=False)
class Segments:
    """Layout of a flat photon-number array: segment p holds levels 0 .. cutoffs[p].

    ``starts`` is each segment's first column and ``lengths`` its cutoff + 1;
    ``size`` is the total length and ``levels`` the photon number n at every
    column.
    """

    cutoffs: np.ndarray
    starts: np.ndarray = field(init=False)
    lengths: np.ndarray = field(init=False)
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
        set_field(self, "size", size)
        set_field(self, "levels", levels)


def _squared_norms(amps: np.ndarray, segments: Segments) -> np.ndarray:
    """Each segment's squared Euclidean norm.

    ``np.add.reduceat`` sums each segment's interleaved squares re^2, im^2
    on their own, so a segment's sum equals the one-segment reduction of
    that segment alone bit for bit, wherever it sits in the layout.
    """
    return np.add.reduceat(np.square(amps.view(float)), 2 * segments.starts)


def _segment_overlaps(bra: np.ndarray, ket: np.ndarray, segments: Segments) -> np.ndarray:
    """<bra|ket> on every segment: conj(bra) ket summed segment by segment.

    The sums are ``np.add.reduceat``'s, as in ``_squared_norms``.
    """
    products = np.conjugate(bra)
    products *= ket
    return np.add.reduceat(products, segments.starts)


def _normalize_segments(amps: np.ndarray, segments: Segments) -> np.ndarray:
    """Divide each segment, in place, by its Euclidean norm.

    Returns the squared norms divided by.  Each segment is multiplied by its
    norm's reciprocal: that is how numpy divides a complex array by a real
    number, bit for bit, and its complex division loop costs several times
    more.
    """
    norms_sq = _squared_norms(amps, segments)
    scales = np.sqrt(norms_sq)
    np.divide(1.0, scales, out=scales)
    amps *= scales.repeat(segments.lengths)
    return norms_sq


def coherent_state(
    alphas, segments: Segments, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Coherent states |alpha>, seed ``alphas[p]`` in segment p.

    Segment p holds levels 0 .. ``segments.cutoffs[p]``.  Amplitudes are
    proportional to alpha**n / sqrt(n!): their magnitudes are sqrt(p(n;
    |alpha|^2)) from the Poisson log-pmf kernel, which stays accurate at any
    level, and each truncated segment is renormalized to unit norm, so it is
    exactly normalized even when the cutoff is tight.  Alpha = 0 gives the
    vacuum |0>.  Returns ``out`` (allocated when None), of ``segments.size``
    amplitudes.
    """
    alphas = np.asarray(alphas, dtype=complex)
    lengths = segments.lengths
    if alphas.shape != lengths.shape:
        raise ValueError(
            f"alphas must hold one seed per segment, got shape {alphas.shape} for "
            f"{len(lengths)} segments"
        )
    mags = _modulus(alphas)
    means = mags * mags
    phases = np.arctan2(alphas.imag, alphas.real)
    if out is None:
        out = np.empty(segments.size, dtype=complex)
    n = segments.levels
    magnitudes = _poisson_log_pmf(n, means.repeat(lengths))
    magnitudes *= 0.5
    np.exp(magnitudes, out=magnitudes)
    np.multiply(1j * n, phases.repeat(lengths), out=out)
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
    tops = amps[segments.starts + segments.cutoffs]
    top_mass = tops.real * tops.real + tops.imag * tops.imag
    tolerance = DEFAULT_POLICY.tail_tolerance
    _fail_first(
        top_mass > tolerance,
        lambda k: f"top-level probability {top_mass[k]:.3e} exceeds tail tolerance "
        f"{tolerance:.3e}; increase the cutoff before applying a creation operator",
    )
    if out is None:
        out = np.empty_like(amps)
    np.multiply(amps[:-1], np.sqrt(segments.levels[1:]), out=out[1:])
    # a† leaves level 0 of every segment empty
    out[segments.starts] = 0.0
    return out


def spacs_state(
    coherent: np.ndarray, segments: Segments, out: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Single-photon-added coherent states a†|alpha> / sqrt(1 + |alpha|^2).

    Takes the coherent states ``coherent_state`` built and applies a† to
    every segment, then divides each by its measured norm.  That norm equals
    sqrt(1 + |alpha|^2) up to truncation error (Agarwal & Tara, PRA 43, 492,
    1991); dividing by it keeps each segment exactly unit length.  For
    alpha = 0 a segment is exactly the one-photon state |1>.
    ``apply_creation`` guards the top level.  Returns ``(out, norms_sq)``:
    ``out`` (allocated when None) holds the states and ``norms_sq`` the
    measured ||a†|alpha>||^2 of each segment.
    """
    out = apply_creation(coherent, segments, out)
    return out, _normalize_segments(out, segments)


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
