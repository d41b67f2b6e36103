"""Brute-force re-derivation of the measures from explicit Fock-space states.

Everything in ``analytic`` is an elementary closed form, which makes it fast
and makes transcription slips invisible.  This module rebuilds each quantity
the long way: construct the joint quanton-detector state in a truncated
photon-number basis, take overlaps and partial traces numerically, and only
then form the measures from their definitions.  The two routes share no
formula, so agreement between them is a real check, not a tautology:

  * the path weights are the measured squared norms of the photon-added
    factors, ||a†|alpha_j>||^2, which ``fock.spacs_state`` divides by; the
    closed forms' 1 + |alpha_j|^2 is never evaluated;
  * |F| comes from explicit inner products of the idler states, not from
    its closed form.  Each detector state is a product over the two idler
    modes, so its overlaps are products of single-mode inner products and
    no two-mode vector is ever formed;
  * P comes from the diagonal of the reduced quanton matrix, V from the
    pure matrix's coherence, C = V |F|, E = sqrt(V^2 - C^2) and
    D = hypot(P, E);
  * mu_s comes from the purity of the numerically reduced quanton matrix,
    never from the closed-form expression the analytic module uses.

The route works on a batch of seed pairs at once.  ``build_composite`` keeps
one segment of a flat photon-number array per seed, alpha_1 of pair p in
segment 2p and alpha_2 in segment 2p + 1, each at its own cutoff, in two
factor rows: ``fock.coherent_state`` builds the coherent states and
``fock.spacs_state`` their photon-added counterparts.  The state holds the
pure path density matrix ``pure`` and the reduced one, ``reduced``, built
once from the detector overlaps.  Both, and the record
``measures_from_state`` returns, are one array record for the batch, and
every check names the seed pair at fault.  Inner products and norms are
segmented reductions: one ``np.add.reduceat`` over the segment starts sums
every seed's segment on its own, so a seed's factors and sums do not depend
on its partner or batch, bit for bit, and no Python loop runs over the
pairs.
``route_residuals`` is the one comparison of the two routes that the CLI,
the sweeps and ``verify_identities`` share; ``verify_identities`` wraps it
in a randomized pass/fail report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import (
    _SEED_MAGNITUDE_MAX,
    IDENTITY_ATOL,
    IDENTITY_NAMES,
    MEASURE_FIELDS,
    ComplementarityMeasures,
    PointError,
    QuantonDensityMatrix,
    _blocks,
    _fail_first,
    _modulus,
    closed_form_measures,
    validate_measures,
    validated_identity_residuals,
)
from .fock import (
    Segments,
    _segment_overlaps,
    _squared_norms,
    coherent_state,
    cutoffs_for_means,
    spacs_state,
)

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

# A pair's factors in the order its checks name them.  Detector 1 is
# photon-added idler 1 x coherent idler 2, detector 2 is coherent idler 1 x
# photon-added idler 2.
_FACTOR_NAMES = ("coherent idler 1", "coherent idler 2", "photon-added idler 1",
                 "photon-added idler 2")


class _NamingSeedPairs:
    """Context that re-raises a batch check's ``PointError`` naming the seed pair at fault.

    A check over the seeds, not the pairs, takes ``per_pair=2``: seed k is
    of pair k // 2.
    """

    def __init__(self, seeds: np.ndarray, per_pair: int = 1):
        self.seeds = seeds
        self.per_pair = per_pair

    def __enter__(self):
        return self

    def __exit__(self, kind, err, traceback):
        if kind is not None and issubclass(kind, PointError):
            pair = err.index // self.per_pair
            a1, a2 = self.seeds[pair]
            raise ValueError(
                f"seed pair {pair} (alpha1={a1:.6g}, alpha2={a2:.6g}): {err.detail}"
            ) from None
        return False


@dataclass(frozen=True, eq=False)
class CompositeState:
    """Joint quanton-detector states of a batch of seed pairs.

    Pair p's state is c1 |path 1>|d1> + c2 |path 2>|d2>, and ``pure`` is
    the density matrix of its path part c1 |path 1> + c2 |path 2>.  Both
    crystals share the pump, and stimulated emission favours the more
    strongly seeded one: before normalization path j carries the
    photon-added idler a†|alpha_j>, so c_j = sqrt(w_j / (w_1 + w_2)) with
    w_j = ||a†|alpha_j>||^2 as measured on the truncated state.  The
    quanton factor is an explicit two-level path label (the signal photon
    occupies exactly one of two orthonormal modes) and each detector is a
    product state of the two idler modes, kept as its factors:
    d1 = a†|alpha_1> |alpha_2> and d2 = |alpha_1> a†|alpha_2>, photon-added
    factors normalized.

    ``seeds`` is the (pairs, 2) complex seed array.  ``factors`` has two
    rows, coherent then photon-added, and one segment of the ``segments``
    layout per seed: alpha_1 of pair p in segment 2p, alpha_2 in segment
    2p + 1, each on levels 0 .. its own cutoff.  ``cutoffs`` gives each
    pair's larger one.

    Construction takes the inner products once, as segmented reductions
    over the factor rows: every factor's squared norm and every seed's
    <c|a>, whose conjugate is <a|c>, shaped (pairs, 2) by idler.
    ``detector_gram[i, j, p]`` is <d_i+1|d_j+1>, the product of two idler
    inner products, formed for all pairs at once.  It then traces the
    detector out: for |psi> = sum_j c_j |j>|d_j> the reduced quanton matrix
    ``reduced`` has rho[i][j] = c_i c_j <d_j|d_i>, formed from ``pure`` and
    the Gram matrix (the full index contraction over the joint idler vectors
    gives the same matrix; the test suite checks that equivalence).  Every
    factor must have unit norm, and the reduced trace, which is the global
    norm^2, must be 1.
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
            or len(self.segments.cutoffs) != 2 * count
            or self.factors.shape != (2, self.segments.size)
            or np.shape(self.pure.rho11) != (count,)
        ):
            raise ValueError(
                f"factor layout does not match the {count} seed pairs: factors "
                f"{self.factors.shape} for {len(self.segments.cutoffs)} segments of "
                f"{self.segments.size} levels"
            )
        segments = self.segments
        # the squared norms in the order of _FACTOR_NAMES, one row per factor
        c1, c2, a1, a2 = norms_sq = np.concatenate(
            [_squared_norms(row, segments).reshape(count, 2).T for row in self.factors]
        )
        # <c1|a1> and <c2|a2>; <a1|c1> and <a2|c2> are their conjugates
        c1_a1, c2_a2 = _segment_overlaps(*self.factors, segments).reshape(count, 2).T
        # detector 1 = (a1, c2), detector 2 = (c1, a2)
        gram = np.empty((2, 2, count), dtype=complex)
        gram[0, 0] = a1 * c2
        gram[1, 1] = c1 * a2
        np.multiply(c1_a1, np.conjugate(c2_a2), out=gram[1, 0])
        np.conjugate(gram[1, 0], out=gram[0, 1])
        object.__setattr__(self, "detector_gram", gram)
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
        """Each pair's larger cutoff, that of its larger seed."""
        return self.segments.cutoffs.reshape(-1, 2).max(axis=1)


def build_composite(seeds) -> CompositeState:
    """Construct the joint states of a batch of seed pairs.

    ``seeds`` is a (pairs, 2) array of complex seed amplitudes (alpha_1,
    alpha_2), one row per pair.  Detector 1 pairs the photon-added state of
    idler 1 with the unchanged coherent state of idler 2; detector 2 is the
    mirror image.  Each seed's coherent and photon-added factors are built
    once, at the cutoff ``cutoffs_for_means`` picks for it, and the path
    weights are the photon-added norms ``spacs_state`` measures.
    """
    seeds = np.asarray(seeds, dtype=complex)
    if seeds.ndim != 2 or seeds.shape[1] != 2 or not len(seeds):
        raise ValueError(
            f"seeds must be a (pairs, 2) array with at least one pair, got shape {seeds.shape}"
        )
    alphas = seeds.ravel()
    with _NamingSeedPairs(seeds, per_pair=2):
        mags = _modulus(alphas)
        with np.errstate(over="ignore"):
            means = mags * mags
        # the rule names every seed whose |alpha|^2 is NaN, inf or too large
        segments = Segments(cutoffs_for_means(means))
        factors = np.empty((2, segments.size), dtype=complex)
        coherent_state(alphas, segments, out=factors[0])
        _, weights = spacs_state(factors[0], segments, out=factors[1])
    factors.setflags(write=False)
    weights = weights.reshape(-1, 2).T
    c1, c2 = np.sqrt(weights / (weights[0] + weights[1]))
    with _NamingSeedPairs(seeds):
        pure = QuantonDensityMatrix(c1 * c1, c2 * c2, c1 * c2)
    return CompositeState(seeds, segments, factors, pure)


def measures_from_state(state: CompositeState) -> ComplementarityMeasures:
    """Form all seven measures from the explicit states, definitions first.

    P = |rho11 - rho22| of the reduced matrix, the which-path bias left after
    the detectors are traced out.  V = 2 |rho12| of the pure matrix, C = V |F|
    with |F| the detector overlap, E = sqrt(V^2 - C^2) and D = hypot(P, E).
    mu_s comes from the purity of the reduced matrix, sqrt(2 Tr[rho_r^2] - 1),
    evaluated in its unit-trace form hypot(rho11 - rho22, 2 |rho12|), which
    is the same number without the cancellation near zero purity excess.
    None of the closed forms used by the analytic route appear here.  The
    batch is checked once by ``validate_measures``; a NaN there, such as the
    root of a negative E radicand, fails it.
    """
    reduced = state.reduced
    fidelity = state.detector_gram[0, 1]
    f_abs = _modulus(fidelity)
    visibility = 2.0 * state.pure.coherence
    coherence = visibility * f_abs
    balance = reduced.rho11 - reduced.rho22
    p = np.abs(balance)
    e = np.sqrt(visibility * visibility - coherence * coherence)
    return validate_measures(
        ComplementarityMeasures(
            D=np.hypot(p, e),
            P=p,
            E=e,
            V=visibility,
            C=coherence,
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
    fock = np.array(measures)
    expected = np.empty_like(fock)
    expected[...] = np.reshape(closed, (len(MEASURE_FIELDS), -1))
    residuals = dict(zip(MEASURE_FIELDS, np.abs(fock - expected)))
    residuals[PURITY_RESIDUAL] = np.abs(fock[-1] * fock[-1] - expected[-1] * expected[-1])
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


def _polar_draw(
    rng: np.random.Generator, count: int, magnitude_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes, then phases, of ``count`` seed pairs: two (count, 2) arrays."""
    mags = rng.uniform(0.0, magnitude_max, size=(count, 2))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(count, 2))
    return mags, phases


def _sample_seeds(rng: np.random.Generator, count: int, magnitude_max: float) -> np.ndarray:
    """``count`` seed pairs as a (count, 2) complex array."""
    mags, phases = _polar_draw(rng, count, magnitude_max)
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
    identities on every one to ``IDENTITY_ATOL``.  The magnitudes and
    phases are drawn whole, 32 B a sample.  The seeds, their closed forms
    and the identity residuals are then formed ``analytic._BLOCK`` samples
    at a time, and each identity keeps its worst residual and seed pair, a
    later one winning a tie.  Every step is elementwise, so the report is
    that of one pass over the whole draw.  A second draw of
    min(sample_count, ``ORACLE_SAMPLES_MAX``) pairs, with magnitudes
    uniform in [0, min(alpha_max, ``ORACLE_ALPHA_MAX``)], compares the
    Fock-space route against the closed forms field by field, plus the
    reduced-purity route to the source purity, to ``ORACLE_ATOL``.  Route
    disagreements are reported, not raised, and the caller decides what a
    failing report means.  Identity violations are not: both routes pass
    their measures through ``validate_measures``, which raises ValueError at
    the first point that breaks an identity by more than the same 1e-12, or
    leaves [0, 1], before any report is built.  The message gives the
    largest residual within the failing point's block.  Deterministic for a
    fixed ``rng_seed`` (--seed), which must be >= 0.
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
    # both draws whole, in the order that fixes the rng stream
    magnitudes, phases = _polar_draw(rng, sample_count, alpha_max)
    oracle_seeds = _sample_seeds(
        rng, min(sample_count, ORACLE_SAMPLES_MAX), min(alpha_max, ORACLE_ALPHA_MAX)
    )

    def closed_route(seeds: np.ndarray) -> ComplementarityMeasures:
        mags = _modulus(seeds)
        return closed_form_measures(mags[:, 0], mags[:, 1])

    # one pass per block validates the closed-form draw and gives its identity
    # residuals, the values one pass over the whole draw would give
    worst: dict[str, IdentityCheck] = {}
    for block_magnitudes, block_phases in _blocks((magnitudes, phases)):
        seeds = block_magnitudes * np.exp(1j * block_phases)
        identity_rows = validated_identity_residuals(closed_route(seeds))
        for name, residuals in zip(IDENTITY_NAMES, identity_rows):
            check = _worst_check(name, residuals, seeds, IDENTITY_ATOL)
            # a later block's equal worst wins, as a later tie does in a block
            if name not in worst or check.worst_residual >= worst[name].worst_residual:
                worst[name] = check
    checks = [replace(check, samples=sample_count) for check in worst.values()]

    oracle_closed = validate_measures(closed_route(oracle_seeds))
    residuals, _ = route_residuals(oracle_seeds, oracle_closed)
    for name, residual in residuals.items():
        label = (
            f"{name}: reduced purity vs closed form"
            if name == PURITY_RESIDUAL
            else f"fock route matches closed form: {name}"
        )
        checks.append(_worst_check(label, residual, oracle_seeds, ORACLE_ATOL))
    return VerificationReport(rng_seed=rng_seed, checks=tuple(checks))
