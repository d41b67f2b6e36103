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
from dataclasses import dataclass

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
            if abs(z) > _SEED_MAGNITUDE_MAX:
                raise ValueError(
                    f"|{name}| = {abs(z):.6g} exceeds the sanity bound "
                    f"{_SEED_MAGNITUDE_MAX:g}"
                )
        object.__setattr__(self, "alpha1", a1)
        object.__setattr__(self, "alpha2", a2)

    def swapped(self) -> "SeedPair":
        return SeedPair(self.alpha2, self.alpha1)


@dataclass(frozen=True)
class QuantonAmplitudes:
    """Real, non-negative path amplitudes (c1, c2) with c1^2 + c2^2 = 1."""

    c1: float
    c2: float

    def __post_init__(self):
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise ValueError("path amplitudes must be non-negative")
        residual = abs(self.c1 * self.c1 + self.c2 * self.c2 - 1.0)
        if residual > IDENTITY_ATOL:
            raise ValueError(
                f"c1^2 + c2^2 deviates from 1 by {residual:.3e}"
            )


@dataclass(frozen=True)
class QuantonDensityMatrix:
    """2x2 Hermitian density matrix of the signal photon over the two paths.

    Only the independent elements are stored: rho21 is implied by Hermiticity.
    Positivity demands |rho12| <= sqrt(rho11 rho22); equality holds exactly
    when the matrix describes the pure path superposition, while a reduced
    (detector-traced) state sits strictly inside the bound for |F| < 1.
    """

    rho11: float
    rho22: float
    rho12: complex

    def __post_init__(self):
        if self.rho11 < 0.0 or self.rho22 < 0.0:
            raise ValueError("diagonal probabilities must be non-negative")
        if abs(self.rho11 + self.rho22 - 1.0) > IDENTITY_ATOL:
            raise ValueError(
                f"trace deviates from 1 by {abs(self.rho11 + self.rho22 - 1.0):.3e}"
            )
        bound = math.sqrt(self.rho11 * self.rho22)
        if abs(self.rho12) > bound + IDENTITY_ATOL:
            raise ValueError(
                f"|rho12| = {abs(self.rho12):.12g} violates positivity bound "
                f"{bound:.12g}"
            )
        object.__setattr__(self, "rho12", complex(self.rho12))

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
        d2 = self.D * self.D
        p2 = self.P * self.P
        e2 = self.E * self.E
        c2 = self.C * self.C
        v2 = self.V * self.V
        m2 = self.mu_s * self.mu_s
        return {
            "D^2 = P^2 + E^2": abs(d2 - p2 - e2),
            "P^2 + E^2 + C^2 = 1": abs(p2 + e2 + c2 - 1.0),
            "P^2 + C^2 = mu_s^2": abs(p2 + c2 - m2),
            "mu_s^2 + E^2 = 1": abs(m2 + e2 - 1.0),
            "C = V |F|": abs(self.C - self.V * self.F_abs),
            "V^2 + P^2 = 1": abs(v2 + p2 - 1.0),
        }

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._FIELD_ORDER}


# Field order of ComplementarityMeasures, shared by reports and emitters.
MEASURE_FIELDS = ComplementarityMeasures._FIELD_ORDER


def validate_measures(measures: ComplementarityMeasures) -> ComplementarityMeasures:
    """Return ``measures`` unchanged if every point is internally consistent.

    Each field must lie in [0, 1] (up to rounding), the six identities must
    hold to 1e-12, and C <= V, P <= D.  Raises ValueError naming the first
    check that fails.  Works on scalar and array records alike.
    """
    values = np.array([getattr(measures, name) for name in MEASURE_FIELDS], dtype=float)
    values = values.reshape(len(MEASURE_FIELDS), -1)
    inside = (values >= -1e-15) & (values <= 1.0 + 1e-12)
    if not inside.all():
        field, point = np.argwhere(~inside)[0]
        raise ValueError(
            f"{MEASURE_FIELDS[field]} = {float(values[field, point])!r} outside [0, 1]"
        )
    identities = measures.identity_residuals()
    residuals = np.array(list(identities.values()), dtype=float)
    residuals = residuals.reshape(len(identities), -1)
    violated = residuals > IDENTITY_ATOL
    if violated.any():
        identity = np.argwhere(violated)[0][0]
        raise ValueError(
            f"identity '{list(identities)[identity]}' violated by "
            f"{residuals[identity].max():.3e}"
        )
    by_name = dict(zip(MEASURE_FIELDS, values))
    if (by_name["C"] > by_name["V"] + IDENTITY_ATOL).any():
        raise ValueError("C must not exceed V")
    if (by_name["P"] > by_name["D"] + IDENTITY_ATOL).any():
        raise ValueError("P must not exceed D")
    return measures


def _clamped_sqrt(x):
    x = np.asarray(x, dtype=float)
    outside = (x < -_CLAMP_WINDOW) | (x > 1.0 + _CLAMP_WINDOW)
    if outside.any():
        raise ValueError(
            f"radicand {float(x[outside].flat[0])!r} outside the clamp window around [0, 1]"
        )
    return np.sqrt(np.minimum(1.0, np.maximum(0.0, x)))


def quanton_amplitudes(seeds: SeedPair) -> QuantonAmplitudes:
    """Path amplitudes c_j = sqrt(1 + |alpha_j|^2) / sqrt(2 + |alpha_1|^2 + |alpha_2|^2).

    Stimulated emission favours the more strongly seeded crystal, so the path
    weights follow the seeded gains 1 + |alpha_j|^2.
    """
    a = abs(seeds.alpha1)
    b = abs(seeds.alpha2)
    na = 1.0 + a * a
    nb = 1.0 + b * b
    total = na + nb
    return QuantonAmplitudes(math.sqrt(na / total), math.sqrt(nb / total))


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


def quanton_density_closed(seeds: SeedPair) -> QuantonDensityMatrix:
    """Density matrix of the pure quanton path superposition.

    rho_jj = (1 + |alpha_j|^2) / (2 + |alpha_1|^2 + |alpha_2|^2) and
    |rho12| = sqrt(rho11 rho22).  The phase of rho12 is fixed, by convention,
    to the phase of conj(alpha_1) * alpha_2 (the phase of the detector-state
    overlap <d2|d1>), and to zero when either seed vanishes.  No measured
    quantity depends on this choice.
    """
    a = abs(seeds.alpha1)
    b = abs(seeds.alpha2)
    na = 1.0 + a * a
    nb = 1.0 + b * b
    total = na + nb
    rho11 = na / total
    rho22 = nb / total
    magnitude = math.sqrt(na * nb) / total
    z = seeds.alpha1.conjugate() * seeds.alpha2
    phase = z / abs(z) if z != 0 else 1.0
    return QuantonDensityMatrix(rho11, rho22, magnitude * phase)


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
