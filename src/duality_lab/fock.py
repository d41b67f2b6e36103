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

Only the oracle needs this module's scipy functions, so ``scipy.special`` is
loaded when a cutoff or a coherent state is first computed, not on import.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .analytic import _fail_first


# The Poisson(mean) tail falls below 1e-12 near the Cornish-Fisher level
# mean + z sqrt(mean) + (z^2 + 2) / 6 with z = 7.034.  The eight levels from
# 4 below to 3 above its floor (or from the cutoff floor) hold the crossing
# for every mean in [0, 1e6]: a walk over all 1,007,022 steps of the window
# start k found tail(k) >= 1e-12 at each step's first mean and
# tail(k + 7) < 1e-12 at its last, and tests/test_oracle.py repeats it on a
# sample of the steps.  Above 1e6 the window stops at the ceiling.
_TAIL_Z = 7.034
_WINDOW = np.arange(8.0)


def _minimal_cutoffs(means, tolerance: float, floor: int, ceiling: int) -> np.ndarray:
    """Per mean, the smallest N in [floor, ceiling] with Poisson tail P(X >= N) < tolerance.

    One vectorised pass evaluates the tail on an eight-level window around
    the Cornish-Fisher guess and takes the level where it crosses the
    tolerance.  Raises ValueError naming the first mean that is negative or
    NaN, or that even ``ceiling`` leaves too much tail.
    """
    from scipy.special import gammainc  # local: the closed-form commands never load scipy

    means = np.asarray(means, dtype=float)
    start = np.floor(
        means + _TAIL_Z * np.sqrt(means) + ((_TAIL_Z * _TAIL_Z + 2.0) / 6.0 - 4.0)
    )
    start = np.minimum(np.maximum(start, floor), ceiling + 1 - len(_WINDOW))
    below = gammainc(start[:, None] + _WINDOW, means[:, None]) < tolerance
    first = below.argmax(axis=1)
    _fail_first(~(means >= 0.0), lambda k: f"mean photon number {means[k]} is not >= 0")
    # first == 0 is the answer only where the window starts at the floor.  Any
    # other miss is a mean above 1e6, whose window ends at the ceiling.
    _fail_first(
        (first == 0) & ((start > floor) | ~below[:, 0]),
        lambda k: f"no cutoff <= ceiling {ceiling} bounds the photon-number "
        f"tail below {tolerance:.3e} for |alpha|^2 = {means[k]:.6g}",
    )
    return (start + first).astype(np.int64)


@dataclass(frozen=True)
class CutoffPolicy:
    """The photon-number cutoff rule; its one instance is ``DEFAULT_POLICY``.

    tail_tolerance: largest truncated probability mass accepted per seed.
    floor, ceiling: hard bounds on the cutoff search range.
    """

    tail_tolerance: float
    floor: int
    ceiling: int


_TAIL_TOLERANCE = 1e-12
_CUTOFF_FLOOR = 16

# The ceiling is the cutoff the largest seed ``SeedPair`` accepts
# (|alpha| = 1000, mean photon number 1e6) needs, so no valid seed is refused.
# It is pinned so that importing this module computes nothing and loads no
# scipy; tests/test_fock.py derives it with ``_minimal_cutoffs`` over
# [floor, 2e6], where the Poisson tail underflows to zero.
DEFAULT_POLICY = CutoffPolicy(_TAIL_TOLERANCE, _CUTOFF_FLOOR, 1_007_044)

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
    alphas = [complex(a) for a in alphas]
    if not alphas:
        raise ValueError("at least one seed amplitude is required")
    for a in alphas:
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError("seed amplitudes must be finite")
    lam = max(abs(a) ** 2 for a in alphas)
    return int(cutoffs_for_means([lam])[0])


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
    Amplitudes are proportional to alpha**n / sqrt(n!) and each truncated
    segment is renormalized to unit norm, so it is exactly normalized even
    when the cutoff is tight.  Magnitudes are accumulated in log space, which
    stays finite for any representable alpha.  Returns ``out`` (allocated
    when None), shaped (rows, ``segments.size``).
    """
    from scipy.special import gammaln  # local: the closed-form commands never load scipy

    alphas = np.asarray(alphas, dtype=complex)
    cutoffs, lengths = segments.cutoffs, segments.lengths
    if alphas.ndim != 2 or alphas.shape[1] != len(cutoffs):
        raise ValueError(
            f"alphas must be (rows, segments) with one segment per column, got "
            f"shape {alphas.shape} for {len(cutoffs)} segments"
        )
    ceiling = DEFAULT_POLICY.ceiling
    finite = np.isfinite(alphas)
    if np.count_nonzero(finite) != finite.size or np.count_nonzero(cutoffs > ceiling):
        finite = finite.all(axis=0)
        _fail_first(
            ~finite | (cutoffs > ceiling),
            lambda k: "alpha must be finite"
            if not finite[k]
            else f"cutoff {cutoffs[k]} exceeds policy ceiling {ceiling}",
        )
    if out is None:
        out = np.empty((len(alphas), segments.size), dtype=complex)
    n = segments.levels
    seeds = alphas.tolist()
    log_mag, phases = np.array(
        [
            [[math.log(abs(a)) if a else 0.0 for a in row] for row in seeds],
            [[cmath.phase(a) for a in row] for row in seeds],
        ]
    ).repeat(lengths, axis=2)
    # n * log|alpha| - log(n!) / 2, then shifted so each segment peaks at 0
    log_mag *= n
    half_log_factorial = n + 1.0
    gammaln(half_log_factorial, out=half_log_factorial)
    half_log_factorial *= 0.5
    log_mag -= half_log_factorial
    del half_log_factorial
    log_mag -= np.maximum.reduceat(log_mag, segments.starts, axis=1).repeat(lengths, axis=1)
    np.exp(log_mag, out=log_mag)
    np.multiply(1j * n, phases, out=out)
    del phases
    np.exp(out, out=out)
    np.multiply(log_mag, out, out=out)
    del log_mag
    for row, row_seeds in zip(out, seeds):
        if 0 in row_seeds:
            for (start, stop), a in zip(segments.bounds, row_seeds):
                if not a:  # the vacuum |0>
                    row[start:stop] = 0.0
                    row[start] = 1.0
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
