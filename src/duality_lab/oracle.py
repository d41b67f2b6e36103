"""Brute-force re-derivation of the measures from explicit Fock-space states.

Everything in ``analytic`` is an elementary closed form, which makes it fast
and makes transcription slips invisible.  This module rebuilds each quantity
the long way: construct the joint quanton-detector state in a truncated
photon-number basis, take overlaps and partial traces numerically, and only
then form the measures from their definitions.  The two routes share no
formula beyond the path amplitudes, so agreement between them is a real
check, not a tautology:

  * |F| comes from explicit inner products of the idler states, not from
    its closed form.  Each detector state is a product over the two idler
    modes, so its overlaps are products of single-mode inner products and
    no two-mode vector is ever formed;
  * D, P, E, V, C come from their definitional sums over path pairs;
  * mu_s comes from the purity of the numerically reduced quanton matrix,
    never from the closed-form expression the analytic module uses.

``route_residuals`` is the one comparison of the two routes that the CLI,
the sweeps and ``verify_identities`` share; ``verify_identities`` wraps it in
a randomized pass/fail report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

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
    FockVector,
    choose_cutoff,
    coherent_state,
    inner_product,
    photon_added,
)

_STATE_NORM_ATOL = 1e-10

# Beyond this seed magnitude the required cutoffs grow quadratically while the
# closed forms stay exact, so the sweep and verify oracle draws stop here.
ORACLE_ALPHA_MAX = 4.0

# verify_identities compares the routes on min(sample_count, this) pairs.
ORACLE_SAMPLES_MAX = 200

# route_residuals key of the reduced-purity residual |mu_s^2 - closed mu_s^2|.
PURITY_RESIDUAL = "mu_s^2"


@dataclass(frozen=True, eq=False)
class DetectorState:
    """A product state |idler1>|idler2> of the two idler modes, kept as its factors.

    Overlaps of product states factorise, <a1 a2|b1 b2> = <a1|b1> <a2|b2>,
    so nothing here needs the (cutoff + 1)**2-element joint vector;
    ``fock.tensor_product(idler1, idler2)`` builds it where a test wants it.
    """

    idler1: FockVector
    idler2: FockVector

    def __post_init__(self):
        for name in ("idler1", "idler2"):
            factor = getattr(self, name)
            if abs(factor.norm - 1.0) > _STATE_NORM_ATOL:
                raise ValueError(f"{name} norm {factor.norm!r} is not unit")
        if self.idler1.cutoff != self.idler2.cutoff:
            raise ValueError(
                f"idler cutoffs differ: {self.idler1.cutoff} vs {self.idler2.cutoff}"
            )

    @property
    def cutoff(self) -> int:
        return self.idler1.cutoff

    @property
    def norm(self) -> float:
        return self.idler1.norm * self.idler2.norm

    def overlap(self, other: "DetectorState") -> complex:
        """<self|other>, conjugate-linear in ``self``."""
        return inner_product(self.idler1, other.idler1) * inner_product(
            self.idler2, other.idler2
        )


@dataclass(frozen=True, eq=False)
class CompositeState:
    """Joint quanton-detector state in a truncated photon-number basis.

    The quanton factor is kept as an explicit two-level path label (the
    signal photon occupies exactly one of two orthonormal modes), while each
    detector is a product state of the two idler modes at a shared cutoff.
    The global state is c1 |path 1>|d1> + c2 |path 2>|d2>.
    """

    amplitudes: QuantonAmplitudes
    detector1: DetectorState
    detector2: DetectorState
    cutoff: int

    def __post_init__(self):
        for name, det in (("detector1", self.detector1), ("detector2", self.detector2)):
            if det.cutoff != self.cutoff:
                raise ValueError(f"{name} cutoff {det.cutoff} != {self.cutoff}")
        c1, c2 = self.amplitudes.c1, self.amplitudes.c2
        global_norm_sq = (
            c1 * c1 * self.detector1.norm**2 + c2 * c2 * self.detector2.norm**2
        )
        if abs(global_norm_sq - 1.0) > _STATE_NORM_ATOL:
            raise ValueError(f"global state norm^2 {global_norm_sq!r} is not unit")


def build_composite(seeds: SeedPair) -> CompositeState:
    """Construct the joint state for one seed pair.

    Detector 1 pairs the photon-added state of idler 1 with the unchanged
    coherent state of idler 2; detector 2 is the mirror image.  All four
    single-mode factors are built at the cutoff ``choose_cutoff`` picks for
    the larger seed, each coherent state once.
    """
    cutoff = choose_cutoff((seeds.alpha1, seeds.alpha2))
    coh1 = coherent_state(seeds.alpha1, cutoff)
    coh2 = coherent_state(seeds.alpha2, cutoff)
    d1 = DetectorState(photon_added(coh1), coh2)
    d2 = DetectorState(coh1, photon_added(coh2))
    return CompositeState(quanton_amplitudes(seeds), d1, d2, cutoff)


def reduce_quanton(state: CompositeState) -> QuantonDensityMatrix:
    """Trace the detector out of the pure composite state.

    For |psi> = sum_j c_j |j>|d_j> the partial trace over the detector is
    rho[i][j] = c_i c_j <d_j|d_i>, which is evaluated here with explicit
    Fock inner products of the detector factors (the full index contraction
    over the joint idler vectors gives the same matrix; the test suite
    checks that equivalence).  Hermiticity and positivity are enforced by
    the returned type.
    """
    c1, c2 = state.amplitudes.c1, state.amplitudes.c2
    rho11 = c1 * c1 * state.detector1.overlap(state.detector1).real
    rho22 = c2 * c2 * state.detector2.overlap(state.detector2).real
    rho12 = c1 * c2 * state.detector2.overlap(state.detector1)
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
    f_abs = abs(state.detector1.overlap(state.detector2))
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


def route_residuals(
    pairs: Sequence[SeedPair], closed: ComplementarityMeasures
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Compare the Fock route with the caller's closed-form record, pair by pair.

    ``closed`` holds the closed-form measures at ``pairs``: one value per
    pair, or floats for a single pair.  It is taken as given, not evaluated
    again.  Returns ``(residuals, cutoffs)``: ``residuals`` maps each name in
    ``MEASURE_FIELDS`` to |Fock - closed| per pair, then ``PURITY_RESIDUAL``
    to |mu_s^2 - closed mu_s^2| with mu_s from the reduced purity;
    ``cutoffs`` holds the cutoff each pair's state was built at.
    """
    fock, cutoffs = [], []
    for seeds in pairs:
        state = build_composite(seeds)
        fock.append(measures_from_state(state))
        cutoffs.append(state.cutoff)
    residuals = {
        name: np.abs([getattr(m, name) for m in fock] - np.asarray(getattr(closed, name)))
        for name in MEASURE_FIELDS
    }
    closed_mu = np.broadcast_to(closed.mu_s, len(fock)).tolist()
    residuals[PURITY_RESIDUAL] = np.array(
        [abs(m.mu_s**2 - mu**2) for m, mu in zip(fock, closed_mu)]
    )
    return residuals, np.array(cutoffs)


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
    tolerances: Tolerances = Tolerances(),
    alpha_max: float = 10.0,
) -> VerificationReport:
    """Randomized verification of the closed-form identities and both routes.

    Draws ``sample_count`` seed pairs with magnitudes uniform in
    [0, alpha_max] and random phases and checks the six closed-form
    identities on every one.  A second draw of min(sample_count,
    ``ORACLE_SAMPLES_MAX``) pairs capped at ``ORACLE_ALPHA_MAX`` compares the
    Fock-space route against the closed forms field by field, plus the
    reduced-purity route to the source purity.  Violations are reported,
    not raised; the caller decides what a failing report means.
    Deterministic for a fixed ``rng_seed``.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count (--samples) must be >= 1, got {sample_count}")
    if not (math.isfinite(alpha_max) and alpha_max >= 0.0):
        raise ValueError(
            f"alpha_max (--alpha-max) must be finite and >= 0, got {alpha_max:g}"
        )
    if not alpha_max <= _SEED_MAGNITUDE_MAX:
        raise ValueError(
            f"alpha_max (--alpha-max) = {alpha_max:g} exceeds the sanity bound "
            f"{_SEED_MAGNITUDE_MAX:g}"
        )

    rng = np.random.default_rng(rng_seed)
    closed_seeds = _sample_seeds(rng, sample_count, alpha_max)
    oracle_seeds = _sample_seeds(
        rng, min(sample_count, ORACLE_SAMPLES_MAX), ORACLE_ALPHA_MAX
    )

    def closed_route(seeds: np.ndarray) -> ComplementarityMeasures:
        # np.hypot, unlike np.abs, matches abs(complex) bit for bit
        mags = np.hypot(seeds.real, seeds.imag)
        return validate_measures(closed_form_measures(mags[:, 0], mags[:, 1]))

    checks = [
        _worst_check(name, residuals, closed_seeds, tolerances.closed_form)
        for name, residuals in closed_route(closed_seeds).identity_residuals().items()
    ]

    residuals, _ = route_residuals(
        [SeedPair(z1, z2) for z1, z2 in oracle_seeds.tolist()],
        closed_route(oracle_seeds),
    )
    for name, residual in residuals.items():
        label = (
            f"{name}: reduced purity vs closed form"
            if name == PURITY_RESIDUAL
            else f"fock route matches closed form: {name}"
        )
        checks.append(_worst_check(label, residual, oracle_seeds, tolerances.oracle))
    return VerificationReport(rng_seed=rng_seed, checks=tuple(checks))
