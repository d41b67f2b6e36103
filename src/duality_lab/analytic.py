"""Closed-form complementarity measures of the seeded double-path interferometer.

Two down-conversion crystals share a pump; their idler modes are seeded with
coherent states alpha_1 and alpha_2.  A single signal photon (the quanton)
then emerges in a superposition of the two source paths while the idler pair
acts as a built-in which-path detector whose distinguishing power is set by
the seed amplitudes.  Every measure of that trade-off — distinguishability D,
predictability P, quanton-detector entanglement E, fringe visibility V,
coherence C, detector-state fidelity |F| and source purity mu_s — reduces to
an elementary function of |alpha_1| and |alpha_2|.  This module evaluates
those closed forms; the ``oracle`` module re-derives the same numbers from
explicit truncated-Fock-space states.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

import numpy as np

IDENTITY_ATOL = 1e-12

_SEED_MAGNITUDE_MAX = 1.0e3


@dataclass(frozen=True)
class SeedPair:
    """The two complex coherent seed amplitudes — the experiment's only knobs."""

    alpha1: complex
    alpha2: complex

    def __post_init__(self):
        a1 = complex(self.alpha1)
        a2 = complex(self.alpha2)
        for name, z in (("alpha1", a1), ("alpha2", a2)):
            if not cmath.isfinite(z):
                raise ValueError(f"{name} must be finite, got {z!r}")
            # abs(z) raises OverflowError where |z| passes 1.8e308; hypot gives inf
            magnitude = math.hypot(z.real, z.imag)
            if magnitude > _SEED_MAGNITUDE_MAX:
                raise ValueError(
                    f"|{name}| = {magnitude:.6g} exceeds the sanity bound "
                    f"{_SEED_MAGNITUDE_MAX:g}"
                )
        object.__setattr__(self, "alpha1", a1)
        object.__setattr__(self, "alpha2", a2)


class PointError(ValueError):
    """A check failed at one point of a batch; ``index`` names the point."""

    def __init__(self, index: int, detail: str):
        super().__init__(f"point {index}: {detail}")
        self.index = index
        self.detail = detail


def _fail_first(bad, detail) -> None:
    """Raise at the first point where ``bad`` is true; ``detail(k)`` words it.

    ``k`` is the flat index of that point.  A batch (``bad`` with a shape)
    raises ``PointError``; a single point raises a plain ValueError.
    """
    bad = np.asarray(bad)
    if np.count_nonzero(bad):
        k = int(np.argmax(bad.ravel()))
        if bad.ndim:
            raise PointError(k, detail(k))
        raise ValueError(detail(k))


# Elements per block of every bounded pass: verify's samples, the sweep's
# oracle pairs, a fringe scan's points and lines, and heat-map cells, so a
# pass holds one block's temporaries whatever its input's length.  A block of
# verify samples takes about 1.4 MB (340 B a sample), a fit's about 0.33 MB.
# At 1e5 samples, verify in blocks of 4096 to 8192 ran 30 % faster than one
# pass; heat maps ran faster at 4096 cells than at 1024 or 16384.
_BLOCK = 4096


def _blocks(columns, size: Optional[int] = None) -> Iterator[list[np.ndarray]]:
    """The columns ``size`` rows at a time, ``_BLOCK`` when None, as lists of views."""
    columns = list(columns)
    size = size or _BLOCK
    for start in range(0, len(columns[0]), size):
        yield [column[start:start + size] for column in columns]


def _modulus(z) -> np.ndarray:
    """|z| elementwise; np.hypot, unlike np.abs, matches abs(complex) bit for bit."""
    return np.hypot(z.real, z.imag)


@dataclass(frozen=True)
class QuantonDensityMatrix:
    """2x2 Hermitian density matrix of the signal photon over the two paths.

    Only the independent elements are stored: rho21 is implied by Hermiticity.
    Positivity demands |rho12| <= sqrt(rho11 rho22); equality holds exactly
    when the matrix describes the pure path superposition, while a reduced
    (detector-traced) state sits strictly inside the bound for |F| < 1.
    ``oracle.build_composite`` builds the pure matrix from the photon-added
    norms of its states and ``oracle.CompositeState`` the reduced one.
    Scalars for one seed pair or equal-length arrays for a batch; a failed
    check names the first point at fault.  ``coherence`` is |rho12|.
    """

    rho11: float
    rho22: float
    rho12: complex
    coherence: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rho11 = np.asarray(self.rho11, dtype=float)
        rho22 = np.asarray(self.rho22, dtype=float)
        rho12 = np.asarray(self.rho12, dtype=complex)
        object.__setattr__(self, "rho12", complex(self.rho12) if rho12.ndim == 0 else rho12)
        coherence = _modulus(rho12)
        object.__setattr__(self, "coherence", coherence)
        if rho11.size == rho22.size == coherence.size == 1:
            # one point: the same checks on Python floats cost a fraction of
            # the array ones; a failure falls through to name its check
            r11, r22, c = rho11.item(), rho22.item(), coherence.item()
            if (
                r11 >= 0.0
                and r22 >= 0.0
                and abs(r11 + r22 - 1.0) <= IDENTITY_ATOL
                and c <= math.sqrt(max(r11 * r22, 0.0)) + IDENTITY_ATOL
            ):
                return
        trace_error = np.abs(rho11 + rho22 - 1.0)
        lowest = np.minimum(rho11, rho22)
        # the bound of a point with a negative diagonal is never read
        bound = np.sqrt(np.maximum(rho11 * rho22, 0.0))
        holds = (lowest >= 0.0) & (trace_error <= IDENTITY_ATOL)
        holds &= coherence <= bound + IDENTITY_ATOL
        if np.count_nonzero(holds) == holds.size:
            return
        negative = lowest < 0.0
        # a NaN element compares false to every bound, and fails as off trace
        # or off positivity
        off_trace = ~(trace_error <= IDENTITY_ATOL)

        def detail(k):
            if negative.flat[k]:
                return "diagonal probabilities must be non-negative"
            if off_trace.flat[k]:
                return f"trace deviates from 1 by {trace_error.flat[k]:.3e}"
            return (
                f"|rho12| = {coherence.flat[k]:.12g} violates positivity bound "
                f"{bound.flat[k]:.12g}"
            )

        _fail_first(~holds, detail)


class ComplementarityMeasures(NamedTuple):
    """All seven measures, at one seed point (floats) or at many (equal-length arrays).

    A plain record whose field order, ``MEASURE_FIELDS``, is that of every
    report and emitter; iterating it gives the seven values in that order.
    The cross-field identities (D^2 = P^2 + E^2, P^2 + E^2 + C^2 = 1,
    P^2 + C^2 = mu_s^2, mu_s^2 + E^2 = 1, C = V |F|, V^2 + P^2 = 1) are
    checked by ``validate_measures``, which every route that produces
    measures passes its result through once.
    """

    D: float
    P: float
    E: float
    V: float
    C: float
    F_abs: float
    mu_s: float


MEASURE_FIELDS = ComplementarityMeasures._fields

IDENTITY_NAMES = (
    "D^2 = P^2 + E^2",
    "P^2 + E^2 + C^2 = 1",
    "P^2 + C^2 = mu_s^2",
    "mu_s^2 + E^2 = 1",
    "C = V |F|",
    "V^2 + P^2 = 1",
)


def _identity_terms(values) -> list:
    """The six identities' signed residuals from the seven fields in ``MEASURE_FIELDS`` order.

    ``values`` is a list of seven floats for a single point, or an array
    stacking the seven fields along its first axis.
    """
    # one multiply over the stack: six separate squares of a large batch cost
    # fresh pages each
    squares = values * values if isinstance(values, np.ndarray) else [x * x for x in values]
    d2, p2, e2, v2, c2, _, m2 = squares
    _, _, _, v, c, f_abs, _ = values
    return [
        d2 - p2 - e2,
        p2 + e2 + c2 - 1.0,
        p2 + c2 - m2,
        m2 + e2 - 1.0,
        c - v * f_abs,
        v2 + p2 - 1.0,
    ]


def validate_measures(measures: ComplementarityMeasures) -> ComplementarityMeasures:
    """Return ``measures`` unchanged if every point is internally consistent.

    Each field must lie in [0, 1] (up to rounding), the six identities must
    hold to 1e-12, and C <= V, P <= D.  Raises ValueError naming the first
    check that fails.  Works on scalar and array records alike.
    """
    values = _stacked_fields(measures)
    if values.shape[1] == 1:
        # one point: the same checks on Python floats cost a fraction of the
        # array ones; a failure falls through to name its check
        point = values.ravel().tolist()
        d, p, _, v, c, _, _ = point
        if (
            all(-1e-15 <= x <= 1.0 + 1e-12 for x in point)
            and all(abs(term) <= IDENTITY_ATOL for term in _identity_terms(point))
            and c <= v + IDENTITY_ATOL
            and p <= d + IDENTITY_ATOL
        ):
            return measures
    _checked_residuals(values)
    return measures


def validated_identity_residuals(measures: ComplementarityMeasures) -> np.ndarray:
    """The checks of ``validate_measures`` in one pass that keeps its residuals.

    Returns the six identities' absolute residuals, one row per name in
    ``IDENTITY_NAMES`` and one column per point, or raises the ValueError
    ``validate_measures`` raises.
    """
    return _checked_residuals(_stacked_fields(measures))


def _stacked_fields(measures: ComplementarityMeasures) -> np.ndarray:
    return np.array(measures, dtype=float).reshape(len(MEASURE_FIELDS), -1)


def _checked_residuals(values: np.ndarray) -> np.ndarray:
    """Check the (7, points) field stack; return the (6, points) identity residuals."""
    residuals = np.abs(_identity_terms(values))
    d, p, _, v, c, _, _ = values
    inside = (values >= -1e-15) & (values <= 1.0 + 1e-12)
    # a NaN compares false, so it fails here and is judged below
    if (
        np.count_nonzero(inside) == inside.size
        and np.count_nonzero(residuals <= IDENTITY_ATOL) == residuals.size
        and np.count_nonzero((c <= v + IDENTITY_ATOL) & (p <= d + IDENTITY_ATOL)) == c.size
    ):
        return residuals
    if not inside.all():
        field_index, point = np.argwhere(~inside)[0]
        raise ValueError(
            f"{MEASURE_FIELDS[field_index]} = {float(values[field_index, point])!r} "
            "outside [0, 1]"
        )
    violated = residuals > IDENTITY_ATOL
    if violated.any():
        identity = np.argwhere(violated)[0][0]
        raise ValueError(
            f"identity '{IDENTITY_NAMES[identity]}' violated by "
            f"{residuals[identity].max():.3e}"
        )
    if (c > v + IDENTITY_ATOL).any():
        raise ValueError("C must not exceed V")
    if (p > d + IDENTITY_ATOL).any():
        raise ValueError("P must not exceed D")
    return residuals


def detector_fidelity(seeds: SeedPair) -> complex:
    """Complex overlap of the two which-path detector states.

    Equals alpha_1 * conj(alpha_2) / (sqrt(1+|alpha_1|^2) sqrt(1+|alpha_2|^2)):
    the product of the single-mode overlaps between each seeded coherent state
    and its photon-added counterpart.  Every measure consumes only the
    magnitude, which lies in [0, 1); the full complex value is kept for
    callers that care about the phase.
    """
    a = abs(seeds.alpha1)
    b = abs(seeds.alpha2)
    na = 1.0 + a * a
    nb = 1.0 + b * b
    return seeds.alpha1 * seeds.alpha2.conjugate() / math.sqrt(na * nb)


def closed_form_measures(alpha1_abs, alpha2_abs) -> ComplementarityMeasures:
    """Evaluate all seven measures from the seed magnitudes a = |alpha_1|, b = |alpha_2|.

    Takes scalars or equal-shape arrays and returns an unvalidated record of
    the same shape.  With T = 2 + a^2 + b^2 and the path weights
    rho_jj = (1 + |alpha_j|^2) / T:

        P     = |a - b| (a + b) / T          = sqrt(1 - V^2)
        E     = 2 sqrt(1 + a^2 + b^2) / T    = V sqrt(1 - |F|^2)
        D     = sqrt((2 + (a - b)^2) (2 + (a + b)^2)) / T = sqrt(1 - C^2)
        mu_s  = (a^2 + b^2) / T              = sqrt(1 - E^2)
        V     = 2 sqrt(rho11 rho22)
        C     = 2 a b / T                    = V |F|
        |F|   = a b / sqrt((1 + a^2) (1 + b^2))

    No form subtracts nearly equal terms (a - b of the inputs is exact), so
    each measure is good to a few ulps relative, down to equal seeds and
    zero, and none needs a clamp.  Callers pass the result through
    ``validate_measures``.
    """
    a = alpha1_abs
    b = alpha2_abs
    a2 = a * a
    b2 = b * b
    na = 1.0 + a2
    nb = 1.0 + b2
    total = na + nb
    spread = abs(a - b)
    width = a + b
    return ComplementarityMeasures(
        D=np.sqrt((2.0 + spread * spread) * (2.0 + width * width)) / total,
        P=spread * width / total,
        E=2.0 * np.sqrt(na + b2) / total,
        V=2.0 * np.sqrt(na / total * (nb / total)),
        C=2.0 * a * b / total,
        F_abs=a * b / np.sqrt(na * nb),
        mu_s=(a2 + b2) / total,
    )


def complementarity_measures(seeds: SeedPair) -> ComplementarityMeasures:
    """All seven measures at one seed point, validated, as plain floats.

    The measures depend on the seed magnitudes only.
    """
    measures = validate_measures(
        closed_form_measures(abs(seeds.alpha1), abs(seeds.alpha2))
    )
    return ComplementarityMeasures(*map(float, measures))
