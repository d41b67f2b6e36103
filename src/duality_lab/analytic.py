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

import numpy as np

IDENTITY_ATOL = 1e-12

# Floating-point cancellation near |F| -> 1 can push a radicand a hair outside
# [0, 1]; anything beyond this window is a genuine bug, not rounding.
_CLAMP_WINDOW = 1e-14

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


@dataclass(frozen=True)
class QuantonDensityMatrix:
    """2x2 Hermitian density matrix of the signal photon over the two paths.

    Only the independent elements are stored: rho21 is implied by Hermiticity.
    Positivity demands |rho12| <= sqrt(rho11 rho22); equality holds exactly
    when the matrix describes the pure path superposition, while a reduced
    (detector-traced) state sits strictly inside the bound for |F| < 1.
    ``path_density`` builds the pure matrix and ``oracle.CompositeState``
    the reduced one.  Scalars for one seed pair or equal-length arrays for
    a batch; a failed check names the first point at fault.  ``coherence``
    is |rho12|.
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
        # |rho12|; np.hypot, unlike np.abs, matches abs(complex) bit for bit
        coherence = np.hypot(rho12.real, rho12.imag)
        object.__setattr__(self, "coherence", coherence)
        trace_error = np.abs(rho11 + rho22 - 1.0)
        lowest = np.minimum(rho11, rho22)
        # the bound of a point with a negative diagonal is never read
        bound = np.sqrt(np.maximum(rho11 * rho22, 0.0))
        holds = (lowest >= 0.0) & (trace_error <= IDENTITY_ATOL)
        holds &= coherence <= bound + IDENTITY_ATOL
        if np.count_nonzero(holds) == holds.size:
            return
        negative = lowest < 0.0
        off_trace = trace_error > IDENTITY_ATOL

        def detail(k):
            if negative.flat[k]:
                return "diagonal probabilities must be non-negative"
            if off_trace.flat[k]:
                return f"trace deviates from 1 by {trace_error.flat[k]:.3e}"
            return (
                f"|rho12| = {coherence.flat[k]:.12g} violates positivity bound "
                f"{bound.flat[k]:.12g}"
            )

        _fail_first(negative | off_trace | (coherence > bound + IDENTITY_ATOL), detail)

    def purity(self) -> float:
        """Tr[rho^2] = rho11^2 + rho22^2 + 2 |rho12|^2."""
        off = abs(self.rho12)
        return self.rho11 * self.rho11 + self.rho22 * self.rho22 + 2.0 * off * off


@dataclass(frozen=True)
class ComplementarityMeasures:
    """All seven measures, at one seed point (floats) or at many (equal-length arrays).

    A plain record.  The cross-field identities (D^2 = P^2 + E^2,
    P^2 + E^2 + C^2 = 1, P^2 + C^2 = mu_s^2, mu_s^2 + E^2 = 1, C = V |F|,
    V^2 + P^2 = 1) are checked by ``validate_measures``, which every route
    that produces measures passes its result through once.
    """

    D: float
    P: float
    E: float
    V: float
    C: float
    F_abs: float
    mu_s: float

    _FIELD_ORDER = ("D", "P", "E", "V", "C", "F_abs", "mu_s")

    def identity_residuals(self) -> dict:
        """Absolute residuals of the six cross-field identities."""
        values = np.array([getattr(self, name) for name in self._FIELD_ORDER], dtype=float)
        return {name: abs(term) for name, term in zip(IDENTITY_NAMES, _identity_terms(values))}

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._FIELD_ORDER}


# Field order of ComplementarityMeasures, shared by reports and emitters.
MEASURE_FIELDS = ComplementarityMeasures._FIELD_ORDER

IDENTITY_NAMES = (
    "D^2 = P^2 + E^2",
    "P^2 + E^2 + C^2 = 1",
    "P^2 + C^2 = mu_s^2",
    "mu_s^2 + E^2 = 1",
    "C = V |F|",
    "V^2 + P^2 = 1",
)


def _identity_terms(values: np.ndarray) -> list:
    """The six identities' signed residuals from the seven fields stacked along the first axis.

    For a single point the rows are numpy scalars, for a batch arrays.
    """
    d2, p2, e2, v2, c2, _, m2 = values * values
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
    values = np.array([getattr(measures, name) for name in MEASURE_FIELDS], dtype=float)
    values = values.reshape(len(MEASURE_FIELDS), -1)
    # a single point's rows are numpy scalars, whose arithmetic costs less
    terms = _identity_terms(values[:, 0] if values.shape[1] == 1 else values)
    residuals = np.abs(terms).reshape(len(IDENTITY_NAMES), -1)
    d, p, _, v, c, _, _ = values
    inside = (values >= -1e-15) & (values <= 1.0 + 1e-12)
    # a NaN compares false, so it fails here and is judged below
    if (
        np.count_nonzero(inside) == inside.size
        and np.count_nonzero(residuals <= IDENTITY_ATOL) == residuals.size
        and np.count_nonzero((c <= v + IDENTITY_ATOL) & (p <= d + IDENTITY_ATOL)) == c.size
    ):
        return measures
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
    return measures


def _clamped_sqrt(radicands):
    """Square roots of radicands stacked along the first axis, one column per point.

    Rounding may push a radicand a hair outside [0, 1]; it is clamped back,
    and one beyond ``_CLAMP_WINDOW`` fails naming its point.
    """
    x = np.asarray(radicands, dtype=float)
    if np.count_nonzero((x >= -_CLAMP_WINDOW) & (x <= 1.0 + _CLAMP_WINDOW)) != x.size:
        grid = x.reshape(len(x), -1)
        outside = (grid < -_CLAMP_WINDOW) | (grid > 1.0 + _CLAMP_WINDOW)
        _fail_first(
            outside.any(axis=0).reshape(x.shape[1:]),
            lambda k: f"radicand {float(grid[:, k][outside[:, k]][0])!r} outside the "
            "clamp window around [0, 1]",
        )
    return np.sqrt(np.minimum(1.0, np.maximum(0.0, x)))


def path_density(alpha1_abs_sq, alpha2_abs_sq) -> QuantonDensityMatrix:
    """Density matrix of the pure path state c1 |1> + c2 |2>, checked.

    The path amplitudes are c_j = sqrt(1 + |alpha_j|^2) / sqrt(2 + |alpha_1|^2
    + |alpha_2|^2): stimulated emission favours the more strongly seeded
    crystal, so the path weights follow the seeded gains 1 + |alpha_j|^2.
    Returns (rho11, rho22, rho12) = (c1^2, c2^2, c1 c2).  Takes the squared
    seed magnitudes as floats or equal-length arrays.
    """
    na = 1.0 + alpha1_abs_sq
    nb = 1.0 + alpha2_abs_sq
    total = na + nb
    c1 = np.sqrt(na / total)
    c2 = np.sqrt(nb / total)
    return QuantonDensityMatrix(c1 * c1, c2 * c2, c1 * c2)


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
    """Evaluate all seven measures from the seed magnitudes |alpha_1|, |alpha_2|.

    Takes scalars or equal-shape arrays and returns an unvalidated record of
    the same shape.  With r = rho11 rho22 and |F| the detector fidelity:

        D^2   = 1 - 4 r |F|^2        P^2 = 1 - 4 r
        E^2   = 4 r (1 - |F|^2)      V   = 2 sqrt(r)
        C     = 2 |alpha_1||alpha_2| / (2 + |alpha_1|^2 + |alpha_2|^2) = V |F|
        mu_s  = sqrt(1 - E^2)

    Callers pass the result through ``validate_measures``.
    """
    a = alpha1_abs
    b = alpha2_abs
    na = 1.0 + a * a
    nb = 1.0 + b * b
    total = na + nb
    rho11 = na / total
    rho22 = nb / total
    # Grouped so that equal seeds give four_r == 1.0 exactly and hence P == 0.
    four_r = 4.0 * na * nb / (total * total)
    f_abs = a * b / np.sqrt(na * nb)
    f2 = f_abs * f_abs
    e2 = four_r * (1.0 - f2)
    d, p, e, mu_s = _clamped_sqrt([1.0 - four_r * f2, 1.0 - four_r, e2, 1.0 - e2])
    return ComplementarityMeasures(
        D=d,
        P=p,
        E=e,
        V=2.0 * np.sqrt(rho11 * rho22),
        C=2.0 * a * b / total,
        F_abs=f_abs,
        mu_s=mu_s,
    )


def complementarity_measures(seeds: SeedPair) -> ComplementarityMeasures:
    """All seven measures at one seed point, validated, as plain floats.

    The measures depend on the seed magnitudes only.
    """
    measures = validate_measures(
        closed_form_measures(abs(seeds.alpha1), abs(seeds.alpha2))
    )
    return ComplementarityMeasures(
        *(float(getattr(measures, name)) for name in MEASURE_FIELDS)
    )
