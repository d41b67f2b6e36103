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
  * P comes from the diagonal of the reduced quanton matrix, E, V and C
    from their definitional sums over path pairs, and D = hypot(P, E);
  * mu_s comes from the purity of the numerically reduced quanton matrix,
    never from the closed-form expression the analytic module uses.

The route works on a batch of seed pairs at once.  ``build_composite`` keeps
the four single-mode factors of every pair in one flat photon-number array,
pair p in its own segment of columns: ``fock.coherent_state`` builds the two
coherent seeds and ``fock.spacs_state`` their photon-added counterparts.
The state holds the pure path density matrix ``pure`` and the reduced one,
``reduced``, built once from the detector overlaps.  Both, and the record
``measures_from_state`` returns, are one array record for the batch, and
every check names the seed pair at fault.  Inner products and norms are taken
pair by pair on contiguous segments.
``route_residuals`` is the one comparison of the two routes that the CLI,
the sweeps and ``verify_identities`` share; ``verify_identities`` wraps it
in a randomized pass/fail report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import (
    _SEED_MAGNITUDE_MAX,
    IDENTITY_ATOL,
    MEASURE_FIELDS,
    ComplementarityMeasures,
    PointError,
    QuantonDensityMatrix,
    _fail_first,
    closed_form_measures,
    path_density,
    validate_measures,
)
from .fock import Segments, coherent_state, cutoffs_for_means, spacs_state

_FACTOR_NORM_ATOL = 1e-10

# Beyond this seed magnitude the required cutoffs grow quadratically while the
# closed forms stay exact, so the sweep and verify oracle draws stop here.
ORACLE_ALPHA_MAX = 4.0

# verify_identities accepts a route residual up to this bound.
ORACLE_ATOL = 1e-8

# verify_identities compares the routes on min(sample_count, this) pairs.
ORACLE_SAMPLES_MAX = 200

# route_residuals key of the reduced-purity residual |mu_s^2 - closed mu_s^2|.
PURITY_RESIDUAL = "mu_s^2"

# Rows of CompositeState.factors.  Detector 1 is ADDED_1 x COHERENT_2 (a photon
# added to idler 1), detector 2 is COHERENT_1 x ADDED_2.
COHERENT_1, COHERENT_2, ADDED_1, ADDED_2 = range(4)
_FACTOR_NAMES = ("coherent idler 1", "coherent idler 2", "photon-added idler 1",
                 "photon-added idler 2")


class _NamingSeedPairs:
    """Context that re-raises a batch check's ``PointError`` naming the seed pair at fault."""

    def __init__(self, seeds: np.ndarray):
        self.seeds = seeds

    def __enter__(self):
        return self

    def __exit__(self, kind, err, traceback):
        if kind is not None and issubclass(kind, PointError):
            a1, a2 = self.seeds[err.index]
            raise ValueError(
                f"seed pair {err.index} (alpha1={a1:.6g}, alpha2={a2:.6g}): {err.detail}"
            ) from None
        return False


@dataclass(frozen=True, eq=False)
class CompositeState:
    """Joint quanton-detector states of a batch of seed pairs.

    Pair p's state is c1 |path 1>|d1> + c2 |path 2>|d2>, and ``pure`` is
    the density matrix of its path part c1 |path 1> + c2 |path 2>.  The
    quanton factor is an explicit two-level path label (the signal photon
    occupies exactly one of two orthonormal modes) and each detector is a
    product state of the two idler modes, kept as its factors:
    d1 = a†|alpha_1> |alpha_2> and d2 = |alpha_1> a†|alpha_2>, photon-added
    factors normalized.

    ``seeds`` is the (pairs, 2) complex seed array.  ``factors`` has one row
    per factor (the ``COHERENT_1`` .. ``ADDED_2`` rows) and pair p's levels
    0 .. cutoffs[p] in segment p of the ``segments`` layout.

    Construction takes the inner products once, pair by pair on contiguous
    segments: ``detector_gram[i, j, p]`` is <d_i+1|d_j+1>, the product of
    two idler inner products.  It then traces the detector out: for
    |psi> = sum_j c_j |j>|d_j> the reduced quanton matrix ``reduced`` has
    rho[i][j] = c_i c_j <d_j|d_i>, formed from ``pure`` and the Gram matrix
    (the full index contraction over the joint idler vectors gives the same
    matrix; the test suite checks that equivalence).  Every factor must have
    unit norm, and the reduced trace, which is the global norm^2, must be 1.
    """

    seeds: np.ndarray
    segments: Segments
    factors: np.ndarray
    pure: QuantonDensityMatrix
    detector_gram: np.ndarray = field(init=False)
    reduced: QuantonDensityMatrix = field(init=False)

    def __post_init__(self):
        count = len(self.seeds)
        if (
            self.seeds.shape != (count, 2)
            or len(self.segments.cutoffs) != count
            or self.factors.shape != (4, self.segments.size)
            or np.shape(self.pure.rho11) != (count,)
        ):
            raise ValueError(
                f"factor layout does not match the {count} seed pairs: factors "
                f"{self.factors.shape} for {len(self.segments.cutoffs)} segments of "
                f"{self.segments.size} levels"
            )
        overlaps = []
        coherent1, coherent2, added1, added2 = self.factors
        vdot, times = np.vdot, complex.__mul__
        for i, j in self.segments.bounds:
            c1, c2, a1, a2 = coherent1[i:j], coherent2[i:j], added1[i:j], added2[i:j]
            n_c1, n_c2, n_a1, n_a2 = vdot(c1, c1), vdot(c2, c2), vdot(a1, a1), vdot(a2, a2)
            # detector 1 = (a1, c2), detector 2 = (c1, a2); each Gram entry is a
            # product of idler overlaps taken with Python's complex multiply,
            # which rounds every product on its own
            overlaps += (
                n_c1, n_c2, n_a1, n_a2,
                times(n_a1, n_c2),
                times(vdot(a1, c1), vdot(c2, a2)),
                times(vdot(c1, a1), vdot(a2, c2)),
                times(n_c1, n_a2),
            )
        # one contiguous row per overlap: strided rows slow every check below
        overlaps = np.array(overlaps, dtype=complex).reshape(count, 8).T.copy()
        gram = overlaps[4:].reshape(2, 2, count)
        object.__setattr__(self, "detector_gram", gram)
        norms_sq = overlaps[:4].real
        # a NaN norm, from a non-finite factor, compares false and fails too
        off_unit = ~(np.abs(np.sqrt(norms_sq) - 1.0) <= _FACTOR_NORM_ATOL)

        def detail(k):
            row = off_unit[:, k].argmax()
            return f"{_FACTOR_NAMES[row]} norm {math.sqrt(norms_sq[row, k])!r} is not unit"

        pure = self.pure
        with _NamingSeedPairs(self.seeds):
            _fail_first(off_unit.any(axis=0), detail)
            # the trace check of this matrix is the global norm^2 check
            reduced = QuantonDensityMatrix(
                pure.rho11 * gram[0, 0].real,
                pure.rho22 * gram[1, 1].real,
                pure.coherence * gram[1, 0],
            )
        object.__setattr__(self, "reduced", reduced)

    @property
    def cutoffs(self) -> np.ndarray:
        return self.segments.cutoffs


def build_composite(seeds) -> CompositeState:
    """Construct the joint states of a batch of seed pairs.

    ``seeds`` is a (pairs, 2) array of complex seed amplitudes (alpha_1,
    alpha_2), one row per pair.  Detector 1 pairs the photon-added state of
    idler 1 with the unchanged coherent state of idler 2; detector 2 is the
    mirror image.  Each pair's four factors are built at the cutoff
    ``cutoffs_for_means`` picks for its larger seed, each coherent state once.
    """
    seeds = np.asarray(seeds, dtype=complex)
    if seeds.ndim != 2 or seeds.shape[1] != 2 or not len(seeds):
        raise ValueError(
            f"seeds must be a (pairs, 2) array with at least one pair, got shape {seeds.shape}"
        )
    with _NamingSeedPairs(seeds):
        # |alpha_1|^2 and |alpha_2|^2 as two contiguous rows; np.hypot, unlike
        # np.abs, matches abs(complex) bit for bit
        mags = np.hypot(seeds.real.T, seeds.imag.T, order="C")
        with np.errstate(over="ignore"):
            mags_sq = mags * mags
        # the rule names every pair whose |alpha|^2 is NaN, inf or too large
        segments = Segments(cutoffs_for_means(np.maximum(mags_sq[0], mags_sq[1])))
        factors = np.empty((4, segments.size), dtype=complex)
        coherent_state(seeds.T, segments, out=factors[:2])
        spacs_state(factors[:2], segments, out=factors[2:])
        factors.setflags(write=False)
        pure = path_density(mags_sq[0], mags_sq[1])
    return CompositeState(seeds, segments, factors, pure)


def measures_from_state(state: CompositeState) -> ComplementarityMeasures:
    """Form all seven measures from the explicit states, definitions first.

    P = |rho11 - rho22| of the reduced matrix, the which-path bias left after
    the detectors are traced out.  E = sqrt(pr^2 - pr^2 |F|^2), with
    pr = 2 sqrt(rho11 rho22) of the pure matrix and |F| the detector overlap,
    and D = hypot(P, E).  V and C come from the weighted off-diagonal sums,
    and mu_s from the purity of the reduced matrix, sqrt(2 Tr[rho_r^2] - 1),
    evaluated in its unit-trace form hypot(rho11 - rho22, 2 |rho12|), which
    is the same number without the cancellation near zero purity excess.
    None of the closed forms used by the analytic route appear here.  The
    batch is checked once by ``validate_measures``; a NaN there, such as the
    root of a negative E radicand, fails it.
    """
    pure, reduced = state.pure, state.reduced
    fidelity = state.detector_gram[0, 1]
    f_abs = np.hypot(fidelity.real, fidelity.imag)
    paired_root = 2.0 * np.sqrt(pure.rho11 * pure.rho22)
    paired_root_f = paired_root * f_abs
    visibility = 2.0 * pure.coherence
    balance = reduced.rho11 - reduced.rho22
    p = np.abs(balance)
    e = np.sqrt(paired_root * paired_root - paired_root_f * paired_root_f)
    return validate_measures(
        ComplementarityMeasures(
            D=np.hypot(p, e),
            P=p,
            E=e,
            V=visibility,
            C=visibility * f_abs,
            F_abs=f_abs,
            mu_s=np.hypot(balance, 2.0 * reduced.coherence),
        )
    )


def route_residuals(
    seeds, closed: ComplementarityMeasures
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Compare the Fock route with the caller's closed-form record, pair by pair.

    ``seeds`` is a (pairs, 2) array of complex seed amplitudes and ``closed``
    holds the closed-form measures at those pairs: one value per pair, or
    floats for a single pair.  It is taken as given, not evaluated again.
    Returns ``(residuals, cutoffs)``: ``residuals`` maps each name in
    ``MEASURE_FIELDS`` to |Fock - closed| per pair, then ``PURITY_RESIDUAL``
    to |mu_s^2 - closed mu_s^2| with mu_s from the reduced purity;
    ``cutoffs`` holds the cutoff each pair's state was built at.
    """
    state = build_composite(seeds)
    measures = measures_from_state(state)
    fock = np.array([getattr(measures, name) for name in MEASURE_FIELDS])
    expected = np.empty_like(fock)
    expected[...] = np.reshape(
        [getattr(closed, name) for name in MEASURE_FIELDS], (len(MEASURE_FIELDS), -1)
    )
    residuals = dict(zip(MEASURE_FIELDS, np.abs(fock - expected)))
    # Python's float ** (libm pow) can differ from x * x in the last place
    residuals[PURITY_RESIDUAL] = np.array(
        [abs(m**2 - mu**2) for m, mu in zip(fock[-1].tolist(), expected[-1].tolist())]
    )
    return residuals, state.cutoffs


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
    alpha_max: float = 10.0,
) -> VerificationReport:
    """Randomized verification of the closed-form identities and both routes.

    Draws ``sample_count`` seed pairs with magnitudes uniform in
    [0, alpha_max] and random phases and checks the six closed-form
    identities on every one to ``IDENTITY_ATOL``.  A second draw of
    min(sample_count, ``ORACLE_SAMPLES_MAX``) pairs, with magnitudes
    uniform in [0, min(alpha_max, ``ORACLE_ALPHA_MAX``)], compares the
    Fock-space route against the closed forms field by field, plus the
    reduced-purity route to the source purity, to ``ORACLE_ATOL``.  Route disagreements are reported, not
    raised, and the caller decides what a failing report means.  Identity
    violations are not: both routes pass their measures through
    ``validate_measures``, which raises ValueError at the first point that
    breaks an identity by more than the same 1e-12, or leaves [0, 1],
    before any report is built.  Deterministic for a fixed ``rng_seed``
    (--seed), which must be >= 0.
    """
    if rng_seed < 0:
        raise ValueError(f"rng_seed (--seed) must be >= 0, got {rng_seed}")
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
        rng, min(sample_count, ORACLE_SAMPLES_MAX), min(alpha_max, ORACLE_ALPHA_MAX)
    )

    def closed_route(seeds: np.ndarray) -> ComplementarityMeasures:
        # np.hypot, unlike np.abs, matches abs(complex) bit for bit
        mags = np.hypot(seeds.real, seeds.imag)
        return validate_measures(closed_form_measures(mags[:, 0], mags[:, 1]))

    checks = [
        _worst_check(name, residuals, closed_seeds, IDENTITY_ATOL)
        for name, residuals in closed_route(closed_seeds).identity_residuals().items()
    ]

    residuals, _ = route_residuals(oracle_seeds, closed_route(oracle_seeds))
    for name, residual in residuals.items():
        label = (
            f"{name}: reduced purity vs closed form"
            if name == PURITY_RESIDUAL
            else f"fock route matches closed form: {name}"
        )
        checks.append(_worst_check(label, residual, oracle_seeds, ORACLE_ATOL))
    return VerificationReport(rng_seed=rng_seed, checks=tuple(checks))
