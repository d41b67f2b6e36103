"""Brute-force re-derivation of the measures from explicit Fock-space states.

Everything in ``analytic`` is an elementary closed form, which makes it fast
and makes transcription slips invisible.  This module rebuilds each quantity
the long way: construct the joint quanton-detector state in a truncated
photon-number basis, take overlaps and partial traces numerically, and only
then form the measures from their definitions.  The two routes share no
formula beyond the path amplitudes, so agreement between them is a real
check, not a tautology:

  * |F| comes from an explicit inner product of two-mode idler vectors, not
    from its closed form;
  * D, P, E, V, C come from their definitional sums over path pairs;
  * mu_s comes from the purity of the numerically reduced quanton matrix,
    never from the closed-form expression the analytic module uses.

``verify_identities`` wraps both routes in a randomized pass/fail report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import (
    _SEED_MAGNITUDE_MAX,
    MEASURE_FIELDS,
    ComplementarityMeasures,
    QuantonAmplitudes,
    QuantonDensityMatrix,
    SeedPair,
    _clamped_sqrt,
    closed_form_measures,
    quanton_amplitudes,
    validate_measures,
)
from .fock import (
    DEFAULT_POLICY,
    CutoffPolicy,
    FockVector,
    choose_cutoff,
    coherent_state,
    inner_product,
    spacs_state,
    tensor_product,
)

_STATE_NORM_ATOL = 1e-10

# Beyond this seed magnitude the required cutoffs grow quadratically while the
# closed forms stay exact, so oracle comparisons default to this cap.
ORACLE_ALPHA_MAX = 4.0

_DEFAULT_ORACLE_SAMPLES = 200


@dataclass(frozen=True, eq=False)
class CompositeState:
    """Joint quanton-detector state in a truncated photon-number basis.

    The quanton factor is kept as an explicit two-level path label (the
    signal photon occupies exactly one of two orthonormal modes), while each
    detector vector lives in the two idler modes at a shared cutoff.  The
    global state is c1 |path 1>|d1> + c2 |path 2>|d2>.
    """

    amplitudes: QuantonAmplitudes
    detector1: FockVector
    detector2: FockVector
    cutoff: int

    quanton_dim = 2

    def __post_init__(self):
        for name, det in (("detector1", self.detector1), ("detector2", self.detector2)):
            if det.modes != 2:
                raise ValueError(f"{name} must be a two-mode idler vector")
            if det.cutoff != self.cutoff:
                raise ValueError(f"{name} cutoff {det.cutoff} != {self.cutoff}")
            if abs(det.norm - 1.0) > _STATE_NORM_ATOL:
                raise ValueError(f"{name} norm {det.norm!r} is not unit")
        c1, c2 = self.amplitudes.c1, self.amplitudes.c2
        global_norm_sq = (
            c1 * c1 * self.detector1.norm**2 + c2 * c2 * self.detector2.norm**2
        )
        if abs(global_norm_sq - 1.0) > _STATE_NORM_ATOL:
            raise ValueError(f"global state norm^2 {global_norm_sq!r} is not unit")


def build_composite(
    seeds: SeedPair, policy: CutoffPolicy = DEFAULT_POLICY
) -> CompositeState:
    """Construct the joint state for one seed pair.

    Detector 1 pairs the photon-added state of idler 1 with the unchanged
    coherent state of idler 2; detector 2 is the mirror image.  Both are
    built at the cutoff the policy picks for the larger seed.
    """
    cutoff = choose_cutoff((seeds.alpha1, seeds.alpha2), policy)
    coh1 = coherent_state(seeds.alpha1, cutoff, policy)
    coh2 = coherent_state(seeds.alpha2, cutoff, policy)
    d1 = tensor_product(spacs_state(seeds.alpha1, cutoff, policy), coh2)
    d2 = tensor_product(coh1, spacs_state(seeds.alpha2, cutoff, policy))
    return CompositeState(quanton_amplitudes(seeds), d1, d2, cutoff)


def reduce_quanton(state: CompositeState) -> QuantonDensityMatrix:
    """Trace the detector out of the pure composite state.

    For |psi> = sum_j c_j |j>|d_j| the partial trace over the detector is
    rho[i][j] = c_i c_j <d_j|d_i>, which is evaluated here with explicit
    Fock inner products (the full index contraction gives the same matrix;
    the test suite checks that equivalence).  Hermiticity and positivity
    are enforced by the returned type.
    """
    c1, c2 = state.amplitudes.c1, state.amplitudes.c2
    rho11 = c1 * c1 * inner_product(state.detector1, state.detector1).real
    rho22 = c2 * c2 * inner_product(state.detector2, state.detector2).real
    rho12 = c1 * c2 * inner_product(state.detector2, state.detector1)
    return QuantonDensityMatrix(rho11, rho22, rho12)


def measures_from_state(state: CompositeState) -> ComplementarityMeasures:
    """Form all seven measures from the explicit state, definitions first.

    D, P and E come from the sums over distinct path pairs of
    sqrt(rho_ii rho_jj), with and without the detector overlap weight;
    V and C from the weighted off-diagonal sums; mu_s from the purity of
    the reduced matrix via sqrt(2 Tr[rho_r^2] - 1), evaluated in its
    unit-trace form (rho11 - rho22)^2 + 4 |rho12|^2, which is the same
    number without the catastrophic cancellation near zero purity excess.
    None of the closed forms used by the analytic route appear here.  The
    result is checked by ``validate_measures``.
    """
    c1, c2 = state.amplitudes.c1, state.amplitudes.c2
    rho11 = c1 * c1
    rho22 = c2 * c2
    f_abs = abs(inner_product(state.detector1, state.detector2))
    paired_root = 2.0 * math.sqrt(rho11 * rho22)
    paired_root_f = paired_root * f_abs
    visibility = 2.0 * c1 * c2
    reduced = reduce_quanton(state)
    balance = reduced.rho11 - reduced.rho22
    coherence_off = abs(reduced.rho12)
    d, p, e, mu_s = _clamped_sqrt(
        [
            1.0 - paired_root_f * paired_root_f,
            1.0 - paired_root * paired_root,
            paired_root * paired_root - paired_root_f * paired_root_f,
            balance * balance + 4.0 * coherence_off * coherence_off,
        ]
    ).tolist()
    return validate_measures(
        ComplementarityMeasures(
            D=d, P=p, E=e, V=visibility, C=visibility * f_abs, F_abs=f_abs, mu_s=mu_s
        )
    )


@dataclass(frozen=True)
class Tolerances:
    """Acceptance thresholds for the verification report."""

    closed_form: float = 1e-12
    oracle: float = 1e-8


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    samples: int
    tolerance: float
    worst_residual: float
    worst_seed_pair: tuple[complex, complex]
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail outcome of the randomized identity and route-agreement suite."""

    rng_seed: int
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_text(self) -> str:
        lines = [
            f"identity verification (rng_seed={self.rng_seed})",
        ]
        width = max(len(check.name) for check in self.checks)
        for check in self.checks:
            verdict = "PASS" if check.passed else "FAIL"
            a1, a2 = check.worst_seed_pair
            lines.append(
                f"  {verdict}  {check.name.ljust(width)}  samples={check.samples}"
                f"  worst={check.worst_residual:.3e} (tol {check.tolerance:.1e})"
                f"  at alpha1={a1:.6g}, alpha2={a2:.6g}"
            )
        passed = sum(1 for check in self.checks if check.passed)
        overall = "PASS" if self.all_passed else "FAIL"
        lines.append(f"overall: {overall} ({passed}/{len(self.checks)} checks)")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "rng_seed": self.rng_seed,
            "all_passed": self.all_passed,
            "checks": [
                {
                    "identity": check.name,
                    "samples": check.samples,
                    "tolerance": check.tolerance,
                    "worst_residual": check.worst_residual,
                    "worst_seed_pair": [
                        [z.real, z.imag] for z in check.worst_seed_pair
                    ],
                    "pass": check.passed,
                }
                for check in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _sample_seeds(rng: np.random.Generator, count: int, magnitude_max: float) -> np.ndarray:
    """``count`` seed pairs as a (count, 2) complex array."""
    mags = rng.uniform(0.0, magnitude_max, size=(count, 2))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(count, 2))
    return mags * np.exp(1j * phases)


def _worst_check(
    name: str, residuals: np.ndarray, seeds: np.ndarray, tolerance: float
) -> IdentityCheck:
    """The check's verdict at its largest residual; a later tie wins."""
    worst, pair = 0.0, (0j, 0j)
    if len(residuals):
        k = len(residuals) - 1 - int(np.argmax(residuals[::-1]))
        worst, pair = float(residuals[k]), (complex(seeds[k, 0]), complex(seeds[k, 1]))
    return IdentityCheck(name, len(residuals), tolerance, worst, pair, worst <= tolerance)


def verify_identities(
    sample_count: int,
    rng_seed: int,
    policy: CutoffPolicy = DEFAULT_POLICY,
    tolerances: Tolerances = Tolerances(),
    alpha_max: float = 10.0,
    oracle_alpha_max: float = ORACLE_ALPHA_MAX,
    oracle_sample_count: Optional[int] = None,
) -> VerificationReport:
    """Randomized verification of the closed-form identities and both routes.

    Draws ``sample_count`` seed pairs with magnitudes uniform in
    [0, alpha_max] and random phases and checks the six closed-form
    identities on every one.  A second, smaller draw capped at
    ``oracle_alpha_max`` (default min(sample_count, 200) pairs) compares the
    Fock-space route against the closed forms field by field, plus the
    reduced-purity route to the source purity.  Violations are reported,
    not raised; the caller decides what a failing report means.
    Deterministic for a fixed ``rng_seed``.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    if not alpha_max <= _SEED_MAGNITUDE_MAX:
        raise ValueError(
            f"alpha_max (--alpha-max) = {alpha_max:g} exceeds the sanity bound "
            f"{_SEED_MAGNITUDE_MAX:g}"
        )
    if oracle_sample_count is None:
        oracle_sample_count = min(sample_count, _DEFAULT_ORACLE_SAMPLES)
    if oracle_sample_count < 0:
        raise ValueError("oracle_sample_count must be >= 0")

    rng = np.random.default_rng(rng_seed)
    closed_seeds = _sample_seeds(rng, sample_count, alpha_max)
    oracle_seeds = _sample_seeds(rng, oracle_sample_count, oracle_alpha_max)

    def closed_route(seeds: np.ndarray) -> ComplementarityMeasures:
        # np.hypot, unlike np.abs, matches abs(complex) bit for bit
        mags = np.hypot(seeds.real, seeds.imag)
        return validate_measures(closed_form_measures(mags[:, 0], mags[:, 1]))

    checks = [
        _worst_check(name, residuals, closed_seeds, tolerances.closed_form)
        for name, residuals in closed_route(closed_seeds).identity_residuals().items()
    ]

    closed = closed_route(oracle_seeds)
    fock = [
        measures_from_state(build_composite(SeedPair(z1, z2), policy))
        for z1, z2 in oracle_seeds.tolist()
    ]
    for name in MEASURE_FIELDS:
        residuals = np.abs([getattr(m, name) for m in fock] - getattr(closed, name))
        checks.append(
            _worst_check(
                f"fock route matches closed form: {name}",
                residuals,
                oracle_seeds,
                tolerances.oracle,
            )
        )
    purity = np.array(
        [abs(m.mu_s**2 - mu**2) for m, mu in zip(fock, closed.mu_s.tolist())]
    )
    checks.append(
        _worst_check(
            "mu_s^2: reduced purity vs closed form",
            purity,
            oracle_seeds,
            tolerances.oracle,
        )
    )
    return VerificationReport(rng_seed=rng_seed, checks=tuple(checks))
