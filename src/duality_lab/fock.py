"""Truncated-Fock-space state vectors for the seeded two-crystal interferometer.

The state zoo needed here is deliberately small: single-mode coherent seed
states and their single-photon-added counterparts (the oracle keeps each
two-mode detector state as its two factors; ``tensor_product`` builds the
joint vector for tests that contract it in full).
A state is a plain vector of complex amplitudes over photon-number basis
states, truncated at a cutoff chosen so that the discarded photon-number tail
carries negligible probability for the seed amplitudes in play.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np
from scipy.special import gammainc, gammaln

from .analytic import _SEED_MAGNITUDE_MAX


def poisson_tail_mass(mean: float, n: int) -> float:
    """P(X >= n) for X ~ Poisson(mean); the photon-number tail of |alpha|^2 = mean."""
    if n <= 0:
        return 1.0
    if mean == 0.0:
        return 0.0
    return float(gammainc(n, mean))


def _smallest_cutoff(mean: float, tolerance: float, lo: int, hi: int) -> Optional[int]:
    """Smallest N in [lo, hi] with ``poisson_tail_mass(mean, N) < tolerance``.

    The tail falls monotonically in N, so bisection needs about
    log2(hi - lo) evaluations.  None when even ``hi`` leaves too much tail.
    """
    if poisson_tail_mass(mean, hi) >= tolerance:
        return None
    if poisson_tail_mass(mean, lo) < tolerance:
        return lo
    while hi - lo > 1:  # tail(lo) >= tolerance > tail(hi)
        mid = (lo + hi) // 2
        if poisson_tail_mass(mean, mid) < tolerance:
            hi = mid
        else:
            lo = mid
    return hi


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
_MEAN_MAX = _SEED_MAGNITUDE_MAX**2

# The ceiling is the cutoff the largest seed ``SeedPair`` accepts
# (|alpha| = 1000) needs, so no valid seed is refused.  Twice the mean photon
# number lies ~1000 standard deviations out, where the Poisson tail underflows
# to zero.
DEFAULT_POLICY = CutoffPolicy(
    _TAIL_TOLERANCE,
    _CUTOFF_FLOOR,
    _smallest_cutoff(_MEAN_MAX, _TAIL_TOLERANCE, _CUTOFF_FLOOR, int(2 * _MEAN_MAX)),
)

# A vector is considered normalized when its Euclidean norm sits this close to 1.
NORMALIZED_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class FockVector:
    """Complex amplitudes over the truncated photon-number states |0> .. |cutoff>.

    Instances are immutable: the amplitude array is copied and marked
    read-only at construction, and ``norm`` / ``normalized`` are derived
    from the data rather than trusted from the caller.
    """

    cutoff: int
    amplitudes: np.ndarray
    norm: float = field(init=False)
    normalized: bool = field(init=False)

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.cutoff + 1,):
            raise ValueError(
                f"amplitude vector must have length cutoff+1 = {self.cutoff + 1}, "
                f"got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        norm = float(np.linalg.norm(amps))
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "normalized", abs(norm - 1.0) <= NORMALIZED_ATOL)

    def __repr__(self) -> str:  # the raw amplitude dump is never useful
        return (
            f"FockVector(cutoff={self.cutoff}, norm={self.norm:.12g}, "
            f"normalized={self.normalized})"
        )


def coherent_state(alpha: complex, cutoff: int) -> FockVector:
    """Coherent state |alpha> truncated at ``cutoff``.

    Amplitudes are proportional to alpha**n / sqrt(n!) and the truncated
    vector is renormalized to unit norm, so the result is exactly normalized
    even when the cutoff is tight.  Magnitudes are accumulated in log space,
    which stays finite for any representable ``alpha``.
    """
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError("alpha must be finite")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if cutoff > DEFAULT_POLICY.ceiling:
        raise ValueError(
            f"cutoff {cutoff} exceeds policy ceiling {DEFAULT_POLICY.ceiling}"
        )
    d = cutoff + 1
    mag = abs(alpha)
    if mag == 0.0:
        amps = np.zeros(d, dtype=complex)
        amps[0] = 1.0
        return FockVector(cutoff, amps)
    n = np.arange(d)
    log_mag = n * math.log(mag) - 0.5 * gammaln(n + 1.0)
    log_mag -= log_mag.max()
    amps = np.exp(log_mag) * np.exp(1j * n * cmath.phase(alpha))
    amps /= np.linalg.norm(amps)
    return FockVector(cutoff, amps)


def apply_creation(state: FockVector) -> FockVector:
    """Apply the creation operator: a†|n> = sqrt(n+1) |n+1>.

    The result is unnormalized; its exact Euclidean norm is recorded on the
    returned vector.  Population in the top photon-number level would be
    pushed out of the truncated space, so it must carry less probability
    than the cutoff rule's tail tolerance or the cutoff is too small for this
    operation.
    """
    amps = state.amplitudes
    top_mass = abs(amps[-1]) ** 2
    tolerance = DEFAULT_POLICY.tail_tolerance
    if top_mass > tolerance:
        raise ValueError(
            f"top-level probability {top_mass:.3e} exceeds tail tolerance "
            f"{tolerance:.3e}; increase the cutoff before applying a creation "
            "operator"
        )
    out = np.zeros_like(amps)
    out[1:] = amps[:-1] * np.sqrt(np.arange(1, state.cutoff + 1))
    return FockVector(state.cutoff, out)


def photon_added(state: FockVector) -> FockVector:
    """a†|state> divided by its measured norm: one photon added, unit length.

    ``apply_creation`` guards the top level.
    """
    raised = apply_creation(state)
    return FockVector(state.cutoff, raised.amplitudes / raised.norm)


def spacs_state(alpha: complex, cutoff: int) -> FockVector:
    """Single-photon-added coherent state a†|alpha> / sqrt(1 + |alpha|^2).

    Built numerically as coherent state -> creation operator -> normalize,
    so there is a single source of truth for the amplitudes.  The measured
    norm of a†|alpha> equals sqrt(1 + |alpha|^2) up to truncation error;
    dividing by the measured norm keeps the result exactly unit length.
    For alpha = 0 this is exactly the one-photon state |1>.
    """
    return photon_added(coherent_state(alpha, cutoff))


def inner_product(a: FockVector, b: FockVector) -> complex:
    """Hermitian inner product <a|b>, conjugate-linear in the first argument."""
    if a.cutoff != b.cutoff:
        raise ValueError(f"dimension mismatch: cutoff {a.cutoff} vs cutoff {b.cutoff}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def tensor_product(a: FockVector, b: FockVector) -> np.ndarray:
    """Joint two-mode amplitudes with ``a`` as the more significant factor.

    The occupation (n_a, n_b) sits at index n_a * (cutoff + 1) + n_b, the
    order ``numpy.kron`` composes in.
    """
    if a.cutoff != b.cutoff:
        raise ValueError(
            f"cutoff mismatch: {a.cutoff} vs {b.cutoff} (equal cutoffs required)"
        )
    return np.kron(a.amplitudes, b.amplitudes)


def choose_cutoff(alphas: Iterable[complex]) -> int:
    """Smallest cutoff N in [floor, ceiling] safe for every seed in ``alphas``.

    Safe means the Poisson(|alpha|^2) photon-number tail above N - 1 is below
    the tail tolerance of ``DEFAULT_POLICY``; the extra level reserves
    headroom for one creation-operator application.  Found by bisection;
    deterministic in its inputs.
    """
    alphas = [complex(a) for a in alphas]
    if not alphas:
        raise ValueError("at least one seed amplitude is required")
    for a in alphas:
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError("seed amplitudes must be finite")
    lam = max(abs(a) ** 2 for a in alphas)
    rule = DEFAULT_POLICY
    cutoff = _smallest_cutoff(lam, rule.tail_tolerance, rule.floor, rule.ceiling)
    if cutoff is None:
        raise ValueError(
            f"no cutoff <= ceiling {rule.ceiling} bounds the photon-number "
            f"tail below {rule.tail_tolerance:.3e} for |alpha|^2 = {lam:.6g}"
        )
    return cutoff
