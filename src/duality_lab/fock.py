"""Truncated-Fock-space state vectors for the seeded two-crystal interferometer.

The state zoo needed here is deliberately small: coherent seed states, their
single-photon-added counterparts, and tensor products of the two idler modes
(the oracle keeps its product states as their factors; ``tensor_product``
builds the joint vector for tests that contract it in full).
A state is a plain vector of complex amplitudes over photon-number basis
states, truncated at a cutoff chosen so that the discarded photon-number tail
carries negligible probability for the seed amplitudes in play.

Index convention (load-bearing for everything downstream): a multi-mode
vector of per-mode dimension ``d = cutoff + 1`` is stored flat, with the
joint occupation ``(n_1, n_2, ...)`` at flat index ``n_1 * d**(m-1) + ...``,
i.e. mode 1 is the most significant digit.  ``numpy.kron`` composes vectors
in exactly this order.
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
    """How photon-number cutoffs are chosen.

    tail_tolerance: largest truncated probability mass accepted per seed.
    floor, ceiling: hard bounds on the cutoff search range.  The default
    ceiling is the cutoff the largest seed ``SeedPair`` accepts
    (|alpha| = 1000) needs at this tail tolerance, so no valid seed is refused.
    """

    tail_tolerance: float = 1e-12
    floor: int = 16
    ceiling: Optional[int] = None

    def __post_init__(self):
        if not (0.0 < self.tail_tolerance < 1.0):
            raise ValueError(
                f"tail_tolerance must lie in (0, 1), got {self.tail_tolerance}"
            )
        if self.ceiling is None:
            # twice the mean photon number lies ~1000 standard deviations out,
            # where the Poisson tail underflows to zero
            mean = _SEED_MAGNITUDE_MAX**2
            ceiling = _smallest_cutoff(
                mean, self.tail_tolerance, self.floor, max(self.floor, int(2 * mean))
            )
            object.__setattr__(self, "ceiling", ceiling)
        if self.floor < 1 or self.floor > self.ceiling:
            raise ValueError(
                f"need 1 <= floor <= ceiling, got floor={self.floor}, "
                f"ceiling={self.ceiling}"
            )


DEFAULT_POLICY = CutoffPolicy()

# A vector is considered normalized when its Euclidean norm sits this close to 1.
NORMALIZED_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class FockVector:
    """Complex amplitudes over truncated photon-number basis states.

    Instances are immutable: the amplitude array is copied and marked
    read-only at construction, and ``norm`` / ``normalized`` are derived
    from the data rather than trusted from the caller.
    """

    modes: int
    cutoff: int
    amplitudes: np.ndarray
    norm: float = field(init=False)
    normalized: bool = field(init=False)

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError(f"modes must be >= 1, got {self.modes}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        amps = np.array(self.amplitudes, dtype=complex)
        expected = (self.cutoff + 1) ** self.modes
        if amps.shape != (expected,):
            raise ValueError(
                f"amplitude vector must have length (cutoff+1)**modes = "
                f"{expected}, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        norm = float(np.linalg.norm(amps))
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "normalized", abs(norm - 1.0) <= NORMALIZED_ATOL)

    @property
    def dim(self) -> int:
        """Per-mode dimension, cutoff + 1."""
        return self.cutoff + 1

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per mode (read-only view)."""
        return self.amplitudes.reshape((self.dim,) * self.modes)

    def __repr__(self) -> str:  # the raw amplitude dump is never useful
        return (
            f"FockVector(modes={self.modes}, cutoff={self.cutoff}, "
            f"norm={self.norm:.12g}, normalized={self.normalized})"
        )


def coherent_state(
    alpha: complex, cutoff: int, policy: CutoffPolicy = DEFAULT_POLICY
) -> FockVector:
    """Single-mode coherent state |alpha> truncated at ``cutoff``.

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
    if cutoff > policy.ceiling:
        raise ValueError(
            f"cutoff {cutoff} exceeds policy ceiling {policy.ceiling}"
        )
    d = cutoff + 1
    mag = abs(alpha)
    if mag == 0.0:
        amps = np.zeros(d, dtype=complex)
        amps[0] = 1.0
        return FockVector(1, cutoff, amps)
    n = np.arange(d)
    log_mag = n * math.log(mag) - 0.5 * gammaln(n + 1.0)
    log_mag -= log_mag.max()
    amps = np.exp(log_mag) * np.exp(1j * n * cmath.phase(alpha))
    amps /= np.linalg.norm(amps)
    return FockVector(1, cutoff, amps)


def apply_creation(
    state: FockVector, mode_index: int, tail_tolerance: float = DEFAULT_POLICY.tail_tolerance
) -> FockVector:
    """Apply the creation operator to one mode: a†|n> = sqrt(n+1) |n+1>.

    The result is unnormalized; its exact Euclidean norm is recorded on the
    returned vector.  Population in the top photon-number level of the target
    mode would be pushed out of the truncated space, so it must carry less
    probability than ``tail_tolerance`` or the cutoff is too small for this
    operation.
    """
    if not 0 <= mode_index < state.modes:
        raise ValueError(
            f"mode_index {mode_index} out of range for {state.modes} modes"
        )
    tensor = state.as_tensor()
    top_mass = float(np.sum(np.abs(np.take(tensor, state.cutoff, axis=mode_index)) ** 2))
    if top_mass > tail_tolerance:
        raise ValueError(
            f"top-level probability {top_mass:.3e} in mode {mode_index} exceeds "
            f"tail tolerance {tail_tolerance:.3e}; increase the cutoff before "
            "applying a creation operator"
        )
    out = np.zeros_like(tensor)
    src = [slice(None)] * state.modes
    dst = [slice(None)] * state.modes
    src[mode_index] = slice(0, state.cutoff)
    dst[mode_index] = slice(1, state.cutoff + 1)
    factor_shape = [1] * state.modes
    factor_shape[mode_index] = state.cutoff
    factors = np.sqrt(np.arange(1, state.cutoff + 1)).reshape(factor_shape)
    out[tuple(dst)] = tensor[tuple(src)] * factors
    return FockVector(state.modes, state.cutoff, out.reshape(-1))


def photon_added(
    state: FockVector, tail_tolerance: float = DEFAULT_POLICY.tail_tolerance
) -> FockVector:
    """a†|state> divided by its measured norm: one photon added, unit length.

    Single-mode states only; ``apply_creation`` guards the top level.
    """
    if state.modes != 1:
        raise ValueError(f"need a single-mode state, got {state.modes} modes")
    raised = apply_creation(state, 0, tail_tolerance)
    return FockVector(1, state.cutoff, raised.amplitudes / raised.norm)


def spacs_state(
    alpha: complex, cutoff: int, policy: CutoffPolicy = DEFAULT_POLICY
) -> FockVector:
    """Single-photon-added coherent state a†|alpha> / sqrt(1 + |alpha|^2).

    Built numerically as coherent state -> creation operator -> normalize,
    so there is a single source of truth for the amplitudes.  The measured
    norm of a†|alpha> equals sqrt(1 + |alpha|^2) up to truncation error;
    dividing by the measured norm keeps the result exactly unit length.
    For alpha = 0 this is exactly the one-photon state |1>.
    """
    return photon_added(coherent_state(alpha, cutoff, policy), policy.tail_tolerance)


def inner_product(a: FockVector, b: FockVector) -> complex:
    """Hermitian inner product <a|b>, conjugate-linear in the first argument."""
    if a.modes != b.modes or a.cutoff != b.cutoff:
        raise ValueError(
            f"dimension mismatch: ({a.modes} modes, cutoff {a.cutoff}) vs "
            f"({b.modes} modes, cutoff {b.cutoff})"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def tensor_product(a: FockVector, b: FockVector) -> FockVector:
    """Tensor product with ``a`` as the more significant factor."""
    if a.cutoff != b.cutoff:
        raise ValueError(
            f"cutoff mismatch: {a.cutoff} vs {b.cutoff} (equal cutoffs required)"
        )
    return FockVector(a.modes + b.modes, a.cutoff, np.kron(a.amplitudes, b.amplitudes))


def choose_cutoff(
    alphas: Iterable[complex], policy: CutoffPolicy = DEFAULT_POLICY
) -> int:
    """Smallest cutoff N in [floor, ceiling] safe for every seed in ``alphas``.

    Safe means the Poisson(|alpha|^2) photon-number tail above N - 1 is below
    the policy's tail tolerance; the extra level reserves headroom for one
    creation-operator application.  Found by bisection; deterministic in its
    inputs.
    """
    alphas = [complex(a) for a in alphas]
    if not alphas:
        raise ValueError("at least one seed amplitude is required")
    for a in alphas:
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError("seed amplitudes must be finite")
    lam = max(abs(a) ** 2 for a in alphas)
    cutoff = _smallest_cutoff(lam, policy.tail_tolerance, policy.floor, policy.ceiling)
    if cutoff is None:
        raise ValueError(
            f"no cutoff <= ceiling {policy.ceiling} bounds the photon-number "
            f"tail below {policy.tail_tolerance:.3e} for |alpha|^2 = {lam:.6g}"
        )
    return cutoff
