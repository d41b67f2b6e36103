import cmath
import dataclasses
import inspect
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from duality_lab import analytic, fock, oracle
from duality_lab.analytic import (
    IDENTITY_ATOL,
    IDENTITY_NAMES,
    MEASURE_FIELDS,
    SeedPair,
    closed_form_measures,
    complementarity_measures,
    detector_fidelity,
    validate_measures,
    validated_identity_residuals,
)
from duality_lab.fock import (
    DEFAULT_POLICY,
    Segments,
    cutoffs_for_means,
)
from duality_lab.interferometer import count_rate
from duality_lab.oracle import (
    ORACLE_ALPHA_MAX,
    ORACLE_ATOL,
    ORACLE_SAMPLES_MAX,
    PURITY_RESIDUAL,
    _sample_seeds,
    _worst_check,
    build_composite,
    measures_from_state,
    route_residuals,
    verify_identities,
)


def random_seeds(rng, count, mag_max):
    """A (count, 2) complex seed array with uniform magnitudes and phases."""
    mags = rng.uniform(0.0, mag_max, (count, 2))
    phases = rng.uniform(0.0, 2 * math.pi, (count, 2))
    return mags * np.exp(1j * phases)


def tr_rho_squared(rho) -> np.ndarray:
    """Tr[rho^2] = rho11^2 + rho22^2 + 2 |rho12|^2 of a quanton density record."""
    return rho.rho11**2 + rho.rho22**2 + 2.0 * np.abs(rho.rho12) ** 2


# the rows of CompositeState.factors
COHERENT, ADDED = 0, 1


def seed_columns(segments, k) -> slice:
    """The columns of segment k, the seed of pair k // 2 on idler k % 2 + 1."""
    start = int(segments.starts[k])
    return slice(start, start + int(segments.lengths[k]))


def detector_vectors(state, k):
    """Pair k's two detector states as full two-mode idler vectors.

    The two idler modes are cut off at their own levels, so the joint
    vectors are ``np.kron`` products of unequal lengths.
    """
    coherent1, added1 = state.factors[:, seed_columns(state.segments, 2 * k)]
    coherent2, added2 = state.factors[:, seed_columns(state.segments, 2 * k + 1)]
    return np.kron(added1, coherent2), np.kron(coherent1, added2)


def partial_trace_by_contraction(state, k) -> np.ndarray:
    """Pair k's reduced quanton matrix the long way: build the full joint
    amplitude table psi[path, idler] and contract the idler index explicitly."""
    d1, d2 = detector_vectors(state, k)
    c1, c2 = np.sqrt(state.pure.rho11[k]), np.sqrt(state.pure.rho22[k])
    psi = np.stack([c1 * d1, c2 * d2])
    return psi @ psi.conj().T


# ---------------------------------------------------------------------------
# Reference: the oracle as one chain of scalar steps per seed pair, each on
# that pair's own arrays, so the batch can be held to it bit for bit.  Every
# sum is a one-segment ``np.add.reduceat``, the reduction the batch runs over
# all segments at once; ``.sum()`` and ``np.vdot`` add in other orders.  It
# runs no checks; the batch's checks are tested separately.


def reference_tail(mean, n):
    if n <= 0:
        return 1.0
    if mean == 0.0:
        return 0.0
    return float(gammainc(n, mean))


def reference_cutoff(mean, lo=DEFAULT_POLICY.floor, hi=DEFAULT_POLICY.ceiling):
    """Smallest N in [lo, hi] with tail(N) < tolerance, by bisection over the whole range."""
    tol = DEFAULT_POLICY.tail_tolerance
    if reference_tail(mean, hi) >= tol:
        return None
    if reference_tail(mean, lo) < tol:
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reference_tail(mean, mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi


def segment_sum(x):
    return np.add.reduceat(x, [0])[0]


def norm_sq(amps) -> float:
    """<amps|amps>, summed over the interleaved squares re^2, im^2 as the batch sums it."""
    return float(segment_sum(np.square(amps.view(float))))


def ip(a, b) -> complex:
    """<a|b>, the segment sum of conj(a) b."""
    return complex(segment_sum(np.conj(a) * b))


def vector_product(x, y) -> complex:
    """x y as numpy multiplies complex arrays; Python's complex multiply can round differently."""
    return complex(np.multiply([x], [y])[0])


def normalized(amps):
    return amps / math.sqrt(norm_sq(amps))


def reference_coherent(alpha, cutoff):
    d = cutoff + 1
    mag = abs(alpha)
    if mag == 0.0:
        amps = np.zeros(d, dtype=complex)
        amps[0] = 1.0
        return amps
    # the Poisson log-pmf kernel on this pair's own levels alone
    n = np.arange(float(d))
    log_mag = 0.5 * fock._poisson_log_pmf(n, np.full(d, mag * mag))
    phase = np.arctan2([alpha.imag], [alpha.real])[0]
    return normalized(np.exp(log_mag) * np.exp(1j * n * phase))


def reference_photon_added(amps):
    """a†|amps>, normalized, and its squared norm before normalizing."""
    out = np.zeros_like(amps)
    out[1:] = amps[:-1] * np.sqrt(np.arange(1, len(amps)))
    return normalized(out), norm_sq(out)


def reference_measures(seeds: SeedPair):
    """(measures dict, cutoff, reduced (rho11, rho22, rho12)) at one seed pair.

    Each seed is built at its own cutoff; the pair's cutoff is the larger.
    """
    cutoff1 = reference_cutoff(abs(seeds.alpha1) ** 2)
    cutoff2 = reference_cutoff(abs(seeds.alpha2) ** 2)
    coh1 = reference_coherent(seeds.alpha1, cutoff1)
    coh2 = reference_coherent(seeds.alpha2, cutoff2)
    (add1, w1), (add2, w2) = reference_photon_added(coh1), reference_photon_added(coh2)
    # the path weights are the photon-added norms the states carry
    c1, c2 = math.sqrt(w1 / (w1 + w2)), math.sqrt(w2 / (w1 + w2))
    # detector 1 = (add1, coh2), detector 2 = (coh1, add2)
    red11 = c1 * c1 * (norm_sq(add1) * norm_sq(coh2))
    red22 = c2 * c2 * (norm_sq(coh1) * norm_sq(add2))
    # <d2|d1> = <c1|a1> <a2|c2>, with <a2|c2> the conjugate of <c2|a2>;
    # <d1|d2> is its conjugate
    overlap = vector_product(ip(coh1, add1), ip(coh2, add2).conjugate())
    red12 = c1 * c2 * overlap
    f_abs = abs(overlap)
    visibility = 2.0 * c1 * c2
    coherence = visibility * f_abs
    balance = red11 - red22
    p = abs(balance)
    e = math.sqrt(visibility * visibility - coherence * coherence)
    # libm's hypot, as the batch takes it: math.hypot can differ in the last bit
    measures = dict(
        D=float(np.hypot(p, e)), P=p, E=e, V=visibility, C=coherence, F_abs=f_abs,
        mu_s=float(np.hypot(balance, 2.0 * abs(red12))),
    )
    return measures, max(cutoff1, cutoff2), (red11, red22, red12)


def reference_route_residuals(pairs, closed):
    results = [reference_measures(seeds) for seeds in pairs]
    fock_route = [m for m, _, _ in results]
    residuals = {
        name: np.abs([m[name] for m in fock_route] - np.asarray(getattr(closed, name)))
        for name in MEASURE_FIELDS
    }
    closed_mu = np.broadcast_to(closed.mu_s, len(pairs)).tolist()
    residuals[PURITY_RESIDUAL] = np.array(
        [abs(m["mu_s"] * m["mu_s"] - mu * mu) for m, mu in zip(fock_route, closed_mu)]
    )
    return residuals, np.array([c for _, c, _ in results])


def closed_at(seeds):
    mags = np.hypot(seeds.real, seeds.imag)
    return closed_form_measures(mags[:, 0], mags[:, 1])


def verify_draw(rng_seed):
    """The oracle pairs ``verify --samples 1000`` draws at ``rng_seed``."""
    rng = np.random.default_rng(rng_seed)
    _sample_seeds(rng, 1000, 10.0)
    return _sample_seeds(rng, 200, ORACLE_ALPHA_MAX)


EDGE_SEEDS = [
    (0, 0), (0, 2.5), (1.7 - 0.3j, 0), (2, 2), (1 + 1j, 1 + 1j), (3, -3),
    (1e-8, 0), (0.5j, -0.5j), (4, 4j),
]
# |alpha| above 19.4, where a cutoff ceiling of 512 once refused the pair
FORMER_FAULT_SEEDS = [(20.5, 3), (24 + 7j, 9j), (1.5 - 2j, -29.5 + 0.5j)]


def seed_strategy(magnitudes):
    phases = st.floats(0.0, 2.0 * math.pi)
    return st.builds(cmath.rect, magnitudes, phases)


# pairs within the sweep and verify oracle cap, and pairs whose larger seed
# has |alpha| in [20, 100], in either order
SMALL_PAIRS = st.tuples(seed_strategy(st.floats(0.0, 4.0)), seed_strategy(st.floats(0.0, 4.0)))
LARGE_PAIRS = st.tuples(
    seed_strategy(st.floats(20.0, 100.0)), seed_strategy(st.floats(0.0, 100.0))
).flatmap(lambda pair: st.sampled_from([pair, pair[::-1]]))


def assert_batch_matches_reference(seeds):
    seeds = np.asarray(seeds, dtype=complex)
    closed = closed_at(seeds)
    residuals, cutoffs = route_residuals(seeds, closed)
    pairs = [SeedPair(z1, z2) for z1, z2 in seeds.tolist()]
    expected, expected_cutoffs = reference_route_residuals(pairs, closed)
    assert np.array_equal(cutoffs, expected_cutoffs)
    assert list(residuals) == list(expected)
    for name, values in expected.items():
        assert np.array_equal(residuals[name], values), name
    state = build_composite(seeds)
    fock_route, reduced = measures_from_state(state), state.reduced
    for k, seed_pair in enumerate(pairs):
        measures, _, (red11, red22, red12) = reference_measures(seed_pair)
        assert {name: getattr(fock_route, name)[k] for name in MEASURE_FIELDS} == measures
        assert (reduced.rho11[k], reduced.rho22[k]) == (red11, red22)
        assert np.hypot(reduced.rho12[k].real, reduced.rho12[k].imag) == abs(red12)


class TestBatchMatchesReference:
    @pytest.mark.parametrize("rng_seed", [3, 42, 2024])
    def test_verify_draw(self, rng_seed):
        assert_batch_matches_reference(verify_draw(rng_seed))

    def test_edge_and_former_fault_seeds(self):
        assert_batch_matches_reference(EDGE_SEEDS + FORMER_FAULT_SEEDS)

    @pytest.mark.parametrize("seeds", [(100, 3), (1000, 0.5), (1000, 999.5)])
    def test_large_seeds(self, seeds):
        assert_batch_matches_reference([seeds])

    @settings(max_examples=25, deadline=None, database=None)
    @given(pairs=st.lists(st.one_of(SMALL_PAIRS, LARGE_PAIRS), min_size=2, max_size=6))
    def test_a_pair_in_any_batch_equals_the_pair_alone(self, pairs):
        # segments from 17 to 10,713 levels, in random order: every
        # residual, cutoff and reduced entry equals that of the pair built alone
        seeds = np.array(pairs)
        residuals, cutoffs = route_residuals(seeds, closed_at(seeds))
        reduced = build_composite(seeds).reduced
        for k in range(len(seeds)):
            alone = seeds[k : k + 1]
            alone_residuals, alone_cutoffs = route_residuals(alone, closed_at(alone))
            assert cutoffs[k] == alone_cutoffs[0]
            for name, values in alone_residuals.items():
                assert residuals[name][k] == values[0], (k, name)
            alone_reduced = build_composite(alone).reduced
            assert reduced.rho11[k] == alone_reduced.rho11[0]
            assert reduced.rho22[k] == alone_reduced.rho22[0]
            assert reduced.rho12[k] == alone_reduced.rho12[0]

    def test_pair_order_and_batch_size_do_not_matter(self):
        seeds = verify_draw(5)[:40]
        together, _ = route_residuals(seeds, closed_at(seeds))
        for k in (0, 17, 39):
            alone, _ = route_residuals(seeds[k : k + 1], closed_at(seeds[k : k + 1]))
            for name, values in alone.items():
                assert values[0] == together[name][k]


def assert_seeds_ignore_their_partners(pairs):
    """Each seed's factors equal those it gets beside the vacuum, bit for bit.

    Also: one segment per seed at its own cutoff, two factor rows, and each
    pair's ``cutoffs`` entry is the rule at its larger |alpha|^2.
    """
    seeds = np.asarray(pairs, dtype=complex)
    state = build_composite(seeds)
    alphas = seeds.ravel()
    mags = np.hypot(alphas.real, alphas.imag)
    own = cutoffs_for_means(mags * mags)
    assert state.segments.cutoffs.tolist() == own.tolist()
    assert state.factors.shape == (2, int(np.sum(own + 1)))
    larger = np.max(mags.reshape(-1, 2), axis=1)
    assert state.cutoffs.tolist() == cutoffs_for_means(larger * larger).tolist()
    for k, alpha in enumerate(alphas.tolist()):
        # beside the vacuum, in the same slot of the pair
        beside_vacuum = build_composite([(alpha, 0)] if k % 2 == 0 else [(0, alpha)])
        got = state.factors[:, seed_columns(state.segments, k)]
        alone = beside_vacuum.factors[:, seed_columns(beside_vacuum.segments, k % 2)]
        assert got.shape == alone.shape and np.array_equal(got, alone), (k, alpha)


class TestOneSegmentPerSeed:
    @pytest.mark.parametrize("pair", [(0.3, 900), (900, 0.3)])
    def test_a_small_seed_beside_a_large_one(self, pair):
        assert_seeds_ignore_their_partners([pair])

    @settings(max_examples=25, deadline=None, database=None)
    @given(pairs=st.lists(st.one_of(SMALL_PAIRS, LARGE_PAIRS), min_size=1, max_size=4))
    def test_any_partner_and_batch(self, pairs):
        assert_seeds_ignore_their_partners(pairs)


def exact_tail(mean, n):
    """P(X >= n) for X ~ Poisson(mean), to 40 digits."""
    if n <= 0:
        return mpmath.mpf(1)
    with mpmath.workdps(40):
        return mpmath.gammainc(n, 0, mpmath.mpf(mean), regularized=True)


def assert_exactly_minimal(mean, cutoff):
    """The exact tail says ``cutoff`` is the smallest bounding level.

    A tail within an ulp of the tolerance is a tie that no double-precision
    tail can settle, and either side of it passes.
    """
    tol, floor = DEFAULT_POLICY.tail_tolerance, DEFAULT_POLICY.floor
    ulp = mpmath.mpf(2.0**-52)
    assert exact_tail(mean, cutoff) < tol * (1 + ulp), (mean, cutoff)
    if cutoff > floor:
        assert exact_tail(mean, cutoff - 1) >= tol * (1 - ulp), (mean, cutoff)


class TestCutoffRule:
    def floor_boundary(self):
        """The smallest mean whose exact tail above level 15 reaches the tolerance.

        There the cutoff steps from 16 to 17.
        """
        tol, lo, hi = DEFAULT_POLICY.tail_tolerance, 1.0, 2.0
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if exact_tail(mid, 16) < tol else (lo, mid)
        return hi

    def means(self):
        rng = np.random.default_rng(12)
        edge = self.floor_boundary()
        return np.concatenate(
            [
                [0.0, 1e-300, 5e-324, 1e-12, 1.0, 1e6, np.nextafter(1e6, 0), edge],
                np.nextafter(edge, [-np.inf, np.inf]),
                edge + np.linspace(-1e-6, 1e-6, 41),
                np.linspace(0.0, 60.0, 1500),
                np.exp(rng.uniform(np.log(60.0), np.log(1e6), 2500)),
            ]
        )

    def test_matches_the_scalar_minimal_search(self):
        # scipy's gammainc is the reference; where it and the kernel disagree,
        # the exact tail decides
        means = self.means()
        assert len(means) >= 4000
        got = cutoffs_for_means(means).tolist()
        expected = [reference_cutoff(mean) for mean in means.tolist()]
        disagree = [k for k in range(len(means)) if got[k] != expected[k]]
        assert len(disagree) <= 3, disagree
        for k in disagree:
            assert_exactly_minimal(means[k], got[k])
        assert {16, 17} <= set(got)

    def test_the_floor_step_follows_the_exact_tail(self):
        edge = self.floor_boundary()
        assert 1.3 < edge < 1.31
        below, above = np.nextafter(edge, [-np.inf, np.inf])
        got = cutoffs_for_means([np.nextafter(below, 0.0), below, edge, above])
        assert got.tolist()[0] == 16 and got.tolist()[2:] == [17, 17]
        for mean, cutoff in zip([below, edge], got[1:3].tolist()):
            assert_exactly_minimal(mean, cutoff)

    def test_no_means_give_no_cutoffs(self):
        got = cutoffs_for_means([])
        assert got.dtype == np.int64 and got.shape == (0,)

    def test_beyond_the_ceiling_names_the_mean(self):
        with pytest.raises(ValueError, match=r"point 1: no cutoff <= ceiling .* 1\.21e\+06"):
            cutoffs_for_means([4.0, 1100.0**2])
        with pytest.raises(ValueError, match="point 0: mean photon number nan"):
            cutoffs_for_means([math.nan])
        # checked before any tail is summed: a bad mean never reaches the kernel
        with pytest.raises(ValueError, match=r"point 1: mean photon number -1\.0 is not >= 0"):
            cutoffs_for_means([math.inf, -1.0, math.nan])
        with pytest.raises(ValueError, match=r"point 2: no cutoff <= ceiling .* = inf"):
            cutoffs_for_means([1e6, 0.0, math.inf])


class TestBuildComposite:
    def test_vacuum_seeds_give_orthogonal_detectors(self):
        state = build_composite([(0, 0)])
        d = int(state.segments.lengths[1])  # idler 2's levels
        d1, d2 = detector_vectors(state, 0)
        assert d1[1 * d + 0] == 1.0
        assert d2[0 * d + 1] == 1.0
        assert state.detector_gram[0, 1, 0] == 0.0

    def test_equal_unit_seeds_overlap(self):
        got = abs(build_composite([(1, 1)]).detector_gram[0, 1, 0])
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_two_one_overlap(self):
        got = abs(build_composite([(2, 1)]).detector_gram[0, 1, 0])
        assert got == pytest.approx(2 / math.sqrt(10), abs=1e-9)

    def test_overlap_matches_closed_form(self):
        seeds = random_seeds(np.random.default_rng(21), 25, 4.0)
        fock_route = build_composite(seeds).detector_gram[0, 1]
        for k, (z1, z2) in enumerate(seeds.tolist()):
            assert abs(fock_route[k] - detector_fidelity(SeedPair(z1, z2))) < 1e-9

    def test_seeds_keep_their_own_cutoffs(self):
        state = build_composite([(0.2, 0), (3, 1), (0, 12)])
        own = [16, 16, 38, 16, 16, int(cutoffs_for_means([144.0])[0])]
        assert state.segments.cutoffs.tolist() == own
        assert state.cutoffs.tolist() == [16, 38, own[-1]]
        assert state.factors.shape == (2, sum(own) + len(own))
        assert state.segments.starts.tolist() == [0, 17, 34, 73, 90, 107]
        assert not state.factors.flags.writeable

    def test_detector_factors_are_checked(self):
        state = build_composite([(0.5, 1), (1.5, 0.2j), (2, 2)])
        doubled = state.factors.copy()
        doubled[ADDED, seed_columns(state.segments, 2)] *= 2.0
        with pytest.raises(
            ValueError,
            match=r"seed pair 1 \(alpha1=1\.5\+0j, alpha2=0\+0\.2j\): "
            r"photon-added idler 1 norm (2\.0|1\.9999999)\d* is not unit",
        ):
            dataclasses.replace(state, factors=doubled)
        with pytest.raises(ValueError, match="factor layout"):
            dataclasses.replace(state, segments=Segments(state.segments.cutoffs + [0, 0, 1, 0, 0, 0]))

    def test_global_norm_is_checked(self):
        # each factor is off by less than the unit tolerance, their product is not
        state = build_composite([(0.5, 1), (3, 0.1), (2, 2)])
        stretched = state.factors.copy()
        stretched[ADDED, seed_columns(state.segments, 2)] *= 1.0 + 0.9e-10
        stretched[COHERENT, seed_columns(state.segments, 3)] *= 1.0 + 0.9e-10
        with pytest.raises(ValueError, match=r"seed pair 1 .*trace deviates from 1"):
            dataclasses.replace(state, factors=stretched)

    def test_non_finite_input_is_named(self):
        state = build_composite([(0.5, 1), (1, 2)])
        broken = state.factors.copy()
        broken[COHERENT, state.segments.starts[3] + 3] = np.nan
        with pytest.raises(ValueError, match="seed pair 1 .*coherent idler 2 norm nan is not"):
            dataclasses.replace(state, factors=broken)
        with pytest.raises(ValueError, match=r"seed pair 2 \(alpha1=nan.*mean photon number nan"):
            build_composite([(0.5, 1), (1, 2), (complex(np.nan, 0), 1)])
        with pytest.raises(ValueError, match=r"seed pair 0 \(alpha1=inf.*\|alpha\|\^2 = inf"):
            build_composite([(complex(np.inf, 0), 1), (1, 2)])
        # |alpha_2|^2 overflows: the rule names the pair, and numpy stays quiet
        with pytest.raises(ValueError, match=r"seed pair 1 \(alpha1=1.*\|alpha\|\^2 = inf"):
            build_composite([(0.5, 1), (1.0, 1e200)])

    def test_seed_beyond_the_ceiling_is_named(self):
        with pytest.raises(ValueError, match=r"seed pair 1 \(alpha1=2.*no cutoff <= ceiling"):
            build_composite([(0.5, 1), (2, 1100)])

    def test_bad_shapes_are_rejected(self):
        for seeds in ([], [1, 2], [(1, 2, 3)]):
            with pytest.raises(ValueError, match=r"\(pairs, 2\)"):
                build_composite(seeds)


class TestReducedMatrix:
    def test_vacuum_seeds(self):
        rho = build_composite([(0, 0)]).reduced
        assert rho.rho11[0] == pytest.approx(0.5, abs=1e-12)
        assert rho.rho22[0] == pytest.approx(0.5, abs=1e-12)
        assert abs(rho.rho12[0]) < 1e-15

    def test_two_one_point(self):
        rho = build_composite([(2, 1)]).reduced
        assert rho.rho11[0] == pytest.approx(5 / 7, abs=1e-9)
        assert rho.rho22[0] == pytest.approx(2 / 7, abs=1e-9)
        # reduced coherence carries the detector overlap: sqrt(10)/7 * 2/sqrt(10)
        assert abs(rho.rho12[0]) == pytest.approx(2 / 7, abs=1e-9)

    def test_phase_convention(self):
        # rho12 carries the phase of conj(alpha1) alpha2
        for pair in ((1.0, 1.0j), (0.7 + 0.2j, 1.3 - 0.5j)):
            rho = build_composite([pair]).reduced
            expected = cmath.phase(complex(pair[0]).conjugate() * pair[1])
            assert cmath.phase(rho.rho12[0]) == pytest.approx(expected, abs=1e-12)

    def test_unit_trace(self):
        rho = build_composite(random_seeds(np.random.default_rng(22), 20, 3.0)).reduced
        assert np.all(np.abs(rho.rho11 + rho.rho22 - 1.0) < 1e-10)

    def test_matches_full_contraction(self):
        seeds = random_seeds(np.random.default_rng(23), 10, 3.0)
        state = build_composite(seeds)
        rho = state.reduced
        for k in range(len(seeds)):
            full = partial_trace_by_contraction(state, k)
            assert abs(rho.rho11[k] - full[0, 0].real) < 1e-12
            assert abs(rho.rho22[k] - full[1, 1].real) < 1e-12
            assert abs(rho.rho12[k] - full[0, 1]) < 1e-12


class TestMeasuresFromState:
    def test_vacuum_seeds_match_analytic(self):
        fock_route = measures_from_state(build_composite([(0, 0)]))
        closed = complementarity_measures(SeedPair(0, 0))
        for name in MEASURE_FIELDS:
            assert abs(getattr(fock_route, name)[0] - getattr(closed, name)) < 1e-10

    def test_two_one_matches_analytic(self):
        fock_route = measures_from_state(build_composite([(2, 1)]))
        expected = {
            "D": 0.8206518066482897,
            "P": 0.42857142857142855,
            "E": 0.6998542122237652,
            "V": 0.9035079029052513,
            "C": 0.5714285714285714,
            "F_abs": 0.6324555320336759,
            "mu_s": 0.7142857142857143,
        }
        for name, value in expected.items():
            assert getattr(fock_route, name)[0] == pytest.approx(value, abs=1e-9)

    def test_equal_unit_seeds_purity(self):
        fock_route = measures_from_state(build_composite([(1, 1)]))
        assert fock_route.mu_s[0] == pytest.approx(0.5, abs=1e-9)
        assert fock_route.mu_s[0] == pytest.approx(fock_route.F_abs[0], abs=1e-9)

    def test_the_fock_route_evaluates_no_closed_form(self, monkeypatch):
        # every measure comes from the states alone: with every public
        # function of ``analytic`` but the validators made to raise (the
        # closed forms, the closed-form overlap), in ``analytic`` and
        # wherever the oracle imported it, the route still gives all seven,
        # and they agree with the closed forms taken beforehand
        seeds = np.concatenate(
            [random_seeds(np.random.default_rng(27), 30, 4.0), [[0, 0], [1e-8, 0], [20.5, 3j]]]
        )
        closed = validate_measures(closed_at(seeds))
        validators = {"validate_measures", "validated_identity_residuals"}
        closed_forms = {
            name: value for name, value in vars(analytic).items()
            if inspect.isfunction(value) and not name.startswith("_") and name not in validators
        }
        assert {"closed_form_measures", "detector_fidelity"} <= set(closed_forms)
        for name, closed_form in closed_forms.items():

            def called(*args, name=name, **kwargs):
                raise AssertionError(f"the Fock route evaluated analytic.{name}")

            for module in (analytic, oracle):
                if getattr(module, name, None) is closed_form:
                    monkeypatch.setattr(module, name, called)
        fock_route = measures_from_state(build_composite(seeds))
        for name in MEASURE_FIELDS:
            error = np.abs(getattr(fock_route, name) - getattr(closed, name))
            assert np.all(error <= 1e-11), (name, error.max())

    def test_route_independence(self):
        seeds = random_seeds(np.random.default_rng(24), 200, 3.0)
        fock_route = measures_from_state(build_composite(seeds))
        for k, (z1, z2) in enumerate(seeds.tolist()):
            closed = complementarity_measures(SeedPair(z1, z2))
            for name in MEASURE_FIELDS:
                assert abs(getattr(fock_route, name)[k] - getattr(closed, name)) < 1e-8

    @pytest.mark.parametrize("seeds", [(3, 3.000000001), (20, 20 + 1e-8), (1e-8, 0)])
    def test_near_equal_and_tiny_seeds_agree(self, seeds):
        # a root of a cancelling difference such as 1 - V^2 would leave P
        # 1.5e-8 off at the first two pairs.  P and V carry no truncation
        # error here: the two path weights are photon-added norms of
        # near-equal seeds, which the rule gives one cutoff, so their tails
        # cancel in the weights' ratio, and at (1e-8, 0) the tail is nil.  The rest
        # inherit the <= 1e-12 tail the cutoff leaves in |F|,
        # which D and E amplify by |F| / sqrt(1 - |F|^2), about 2 at the
        # first pair (2.2e-12 seen)
        residuals, _ = route_residuals([seeds], closed_at(np.array([seeds], dtype=complex)))
        for name, residual in residuals.items():
            assert residual[0] <= (1e-15 if name in ("P", "V") else 5e-12), name

    def test_purity_identity(self):
        seeds = random_seeds(np.random.default_rng(25), 50, 4.0)
        lhs = 2.0 * tr_rho_squared(build_composite(seeds).reduced) - 1.0
        assert np.all(np.abs(lhs - closed_at(seeds).mu_s ** 2) < 1e-8)

    def test_entanglement_concurrence_route(self):
        # E for a pure joint state equals sqrt(2 (1 - Tr[rho_r^2]))
        state = build_composite(random_seeds(np.random.default_rng(26), 50, 3.0))
        purity = tr_rho_squared(state.reduced)
        concurrence = np.sqrt(np.maximum(0.0, 2.0 * (1.0 - purity)))
        assert np.all(np.abs(measures_from_state(state).E - concurrence) < 1e-8)


class TestFringeFromTheStates:
    """The fringe ``count_rate`` writes from closed forms, read off the Fock-route states."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(pair=SMALL_PAIRS)
    def test_offset_and_contrast_match_the_states(self, pair):
        seeds = SeedPair(*pair)
        # at scale 1 the fringe is 2 + a^2 + b^2 - 2ab sin(dtheta)
        offset = count_rate(seeds, 0.0, 1.0)
        high, low = count_rate(seeds, np.array([-math.pi / 2, math.pi / 2]), 1.0)
        contrast = (high - low) / (high + low)
        pairs = np.array([pair], dtype=complex)
        # w1 + w2, the photon-added norms, each on its seed's cutoff
        mags = np.hypot(pairs[0].real, pairs[0].imag)
        segments = Segments(cutoffs_for_means(mags * mags))
        _, weights = fock.spacs_state(fock.coherent_state(pairs[0], segments), segments)
        assert offset == pytest.approx(weights.sum(), rel=1e-10, abs=0.0)
        reduced = build_composite(pairs).reduced
        assert contrast == pytest.approx(2.0 * reduced.coherence[0], rel=0.0, abs=1e-10)


class TestVerifyIdentities:
    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="sample_count"):
            verify_identities(0, rng_seed=1)

    def test_full_suite_passes(self):
        report = verify_identities(1000, rng_seed=42)
        assert report.all_passed
        for check in report.checks:
            assert check.worst_residual < check.tolerance

    def test_impossible_tolerances_fail_without_raising(self, monkeypatch):
        monkeypatch.setattr(oracle, "IDENTITY_ATOL", 0.0)
        monkeypatch.setattr(oracle, "ORACLE_ATOL", 0.0)
        report = verify_identities(50, rng_seed=7)
        assert not report.all_passed
        assert any(check.worst_residual > 0.0 for check in report.checks)

    def test_deterministic_given_seed(self):
        first = verify_identities(200, rng_seed=9)
        second = verify_identities(200, rng_seed=9)
        for a, b in zip(first.checks, second.checks):
            assert a.worst_residual == b.worst_residual
            assert a.worst_seed_pair == b.worst_seed_pair

    def test_text_and_json_serialization(self):
        report = verify_identities(50, rng_seed=3)
        text = report.to_text()
        assert "overall: PASS" in text
        assert text.count("\n") == len(report.checks) + 1
        payload = json.loads(report.to_json())
        assert payload["all_passed"] is True
        assert len(payload["checks"]) == len(report.checks)
        first = payload["checks"][0]
        assert set(first) == {
            "identity",
            "samples",
            "tolerance",
            "worst_residual",
            "worst_seed_pair",
            "pass",
        }


def reference_verify_checks(sample_count, rng_seed, alpha_max=10.0):
    """The checks of ``verify_identities`` from one pass over the whole draw."""
    rng = np.random.default_rng(rng_seed)
    closed_seeds = _sample_seeds(rng, sample_count, alpha_max)
    oracle_seeds = _sample_seeds(
        rng, min(sample_count, ORACLE_SAMPLES_MAX), min(alpha_max, ORACLE_ALPHA_MAX)
    )
    identity_rows = validated_identity_residuals(closed_at(closed_seeds))
    checks = [
        _worst_check(name, residuals, closed_seeds, IDENTITY_ATOL)
        for name, residuals in zip(IDENTITY_NAMES, identity_rows)
    ]
    residuals, _ = route_residuals(oracle_seeds, validate_measures(closed_at(oracle_seeds)))
    for name, residual in residuals.items():
        label = (
            f"{name}: reduced purity vs closed form"
            if name == PURITY_RESIDUAL
            else f"fock route matches closed form: {name}"
        )
        checks.append(_worst_check(label, residual, oracle_seeds, ORACLE_ATOL))
    return checks


BLOCK = analytic._BLOCK


class TestVerifyIdentitiesInBlocks:
    @pytest.mark.parametrize("rng_seed", [0, 17])
    @pytest.mark.parametrize("samples", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_report_equals_one_pass_over_the_whole_draw(self, samples, rng_seed):
        report = verify_identities(samples, rng_seed)
        assert list(report.checks) == reference_verify_checks(samples, rng_seed)

    def test_equal_worst_residuals_in_two_blocks_resolve_to_the_later(self, monkeypatch):
        # blocks of 4 samples: the worst residual, 5e-13, is at sample 1 of
        # the first block and sample 6 of the second
        pattern = np.array([0.0, 5e-13, 0.0, 0.0, 0.0, 1e-13, 5e-13, 0.0, 1e-13, 0.0])
        taken = []

        def pinned_residuals(measures):
            start = sum(taken)
            count = len(validated_identity_residuals(measures)[0])
            taken.append(count)
            return np.tile(pattern[start:start + count], (len(IDENTITY_NAMES), 1))

        monkeypatch.setattr(analytic, "_BLOCK", 4)
        monkeypatch.setattr(oracle, "validated_identity_residuals", pinned_residuals)
        report = verify_identities(len(pattern), rng_seed=5)
        assert taken == [4, 4, 2]
        seeds = _sample_seeds(np.random.default_rng(5), len(pattern), 10.0)
        for check in report.checks[: len(IDENTITY_NAMES)]:
            assert check.samples == len(pattern)
            assert check.worst_residual == 5e-13
            assert check.worst_seed_pair == (complex(seeds[6, 0]), complex(seeds[6, 1]))
