import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammainc

from duality_lab.analytic import _SEED_MAGNITUDE_MAX
from duality_lab.fock import (
    _STIRLERR,
    _TAIL_Z,
    _WINDOW,
    DEFAULT_POLICY,
    Segments,
    _minimal_cutoffs,
    _poisson_log_pmf,
    _window_span,
    _window_tails,
    cutoffs_for_means,
    apply_creation,
    choose_cutoff,
    coherent_state,
    inner_product,
    spacs_state,
    tensor_product,
)


def coherent(alpha: complex, cutoff: int) -> np.ndarray:
    """One coherent state |alpha>, built as a one-segment batch."""
    return coherent_state([[alpha]], Segments([cutoff]))[0]


def spacs(alpha: complex, cutoff: int) -> np.ndarray:
    """One photon-added coherent state, built as a one-segment batch."""
    segments = Segments([cutoff])
    return spacs_state(coherent_state([[alpha]], segments), segments)[0]


def raised(alpha: complex, cutoff: int) -> np.ndarray:
    """a†|alpha>, unnormalized, built as a one-segment batch."""
    segments = Segments([cutoff])
    return apply_creation(coherent_state([[alpha]], segments), segments)[0]


def coherent_amplitudes_reference(alpha: complex, cutoff: int) -> np.ndarray:
    """Independent construction: e^(-|a|^2/2) a^n / sqrt(n!), term by term."""
    amps = np.array(
        [
            alpha**n * math.exp(-abs(alpha) ** 2 / 2) / math.sqrt(math.factorial(n))
            for n in range(cutoff + 1)
        ],
        dtype=complex,
    )
    return amps


def overlap_formula(alpha: complex, beta: complex) -> complex:
    """Analytic coherent-state overlap <alpha|beta>."""
    return np.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / 2 + np.conj(alpha) * beta)


def poisson_tail_by_cumsum(lam: float, n: int) -> float:
    """1 - sum of pmf(0..n-1), the plain cumulative-sum route."""
    if lam == 0.0:
        return 0.0
    p = math.exp(-lam)
    total = p
    for k in range(1, n):
        p *= lam / k
        total += p
    return 1.0 - total


def exact_log_pmf(n: int, mean: float):
    """log P(X = n) for X ~ Poisson(mean), to 40 digits."""
    with mpmath.workdps(40):
        mean = mpmath.mpf(mean)
        return -mean if n == 0 else n * mpmath.log(mean) - mean - mpmath.loggamma(n + 1)


def exact_tail(mean: float, n: int):
    """P(X >= n) for X ~ Poisson(mean), to 40 digits."""
    with mpmath.workdps(40):
        return mpmath.gammainc(n, 0, mpmath.mpf(mean), regularized=True)


def window_start(mean: float) -> int:
    """The first level of the cutoff rule's eight-level window, below the ceiling."""
    shift = (_TAIL_Z * _TAIL_Z + 2.0) / 6.0 - 4.0
    return max(DEFAULT_POLICY.floor, math.floor(mean + _TAIL_Z * math.sqrt(mean) + shift))


class TestPoissonLogPmf:
    # both sides of the series threshold (1000), the tiny-mean form (below
    # 1e-290) and the largest mean a seed can have
    MEANS = [1e-300, 1e-250, 1e-12, 0.1, 1.3, 9.0, 50.0, 361.0, 999.0, 1000.0, 1001.0,
             4321.5, 1e4, 1e5, 999_999.75, 1e6]

    def levels(self, mean: float, rng) -> np.ndarray:
        """Low levels, the bulk, the cutoff window and the levels its tails sum, far tails."""
        sigma = math.sqrt(mean)
        start = window_start(mean)
        return np.unique(np.concatenate([
            np.arange(40.0),
            np.round(mean + sigma * rng.uniform(-12.0, 12.0, 150)).clip(0.0),
            start + np.arange(float(_WINDOW)),
            start + np.round(rng.uniform(0.0, _window_span(mean), 40)),
            np.round(rng.uniform(0.0, 2e6, 40)),
            [2e6],
        ]))

    def test_matches_mpmath(self):
        rng = np.random.default_rng(31)
        for mean in self.MEANS:
            n = self.levels(mean, rng)
            got = _poisson_log_pmf(n, np.full(n.shape, mean))
            for level, value in zip(n.tolist(), got.tolist()):
                exact = exact_log_pmf(int(level), mean)
                assert abs(value - exact) <= 1e-14 * abs(exact), (mean, level, value)

    def test_the_stirling_table_is_correctly_rounded(self):
        with mpmath.workdps(40):
            for n in range(1, 16):
                exact = mpmath.loggamma(n + 1) - (n * mpmath.log(n) - n + mpmath.log(2 * mpmath.pi * n) / 2)
                assert _STIRLERR[n] == float(exact), n

    def test_zero_mean(self):
        got = _poisson_log_pmf(np.arange(4.0), np.zeros(4))
        assert got.tolist() == [0.0, -math.inf, -math.inf, -math.inf]

    def test_window_tails_match_mpmath_at_the_crossing(self):
        tol = DEFAULT_POLICY.tail_tolerance
        checked = 0
        for mean in [0.3, 1.3, 5.0, 9.0, 40.0, 361.0, 870.0, 999.0, 1001.0, 5000.0,
                     1e4, 1e5, 5e5, 1e6]:
            start = window_start(mean)
            tails = _window_tails(np.array([float(start)]), np.array([mean]), _window_span(mean))
            for i, tail in enumerate(tails[0].tolist()):
                exact = exact_tail(mean, start + i)
                # the tails within six orders of the tolerance decide the cutoff
                if 1e-6 * tol <= exact <= 1e6 * tol:
                    assert abs(tail - exact) <= 2e-14 * exact, (mean, start + i, tail)
                    checked += 1
            if start > DEFAULT_POLICY.floor:
                assert tails[0, 0] >= tol > tails[0, -1], mean
        assert checked >= 90

    def test_the_span_leaves_out_less_than_1e_30(self):
        # the remainder past the span is at most p(top) / (1 - mean / (top + 1))
        means = np.concatenate([np.linspace(1e-3, 100.0, 4001), np.geomspace(100.0, 1e6, 4000)])
        tops = np.array([window_start(m) + _window_span(m) for m in means.tolist()], dtype=float)
        bound = _poisson_log_pmf(tops, means) - np.log1p(-means / (tops + 1.0))
        assert np.all(bound < math.log(1e-30))

    def test_tiny_means_keep_the_floor_and_the_vacuum(self):
        assert cutoffs_for_means([0.0, 5e-324, 1e-300]).tolist() == [16, 16, 16]
        for mean in (5e-324, 1e-300):
            alpha = math.sqrt(mean) * complex(math.cos(0.3), math.sin(0.3))
            v = coherent(alpha, 16)
            assert v[0] == 1.0
            assert abs(v[1] - alpha) <= 1e-13 * abs(alpha)
            assert not v[3:].any()


class TestSegments:
    def test_layout(self):
        segments = Segments([2, 3])
        assert segments.bounds == [(0, 3), (3, 7)]
        assert segments.size == 7
        assert segments.levels.tolist() == [0, 1, 2, 0, 1, 2, 3]

    def test_rejects_bad_cutoffs(self):
        for cutoffs in ([0], [4, -1], [[4, 4]]):
            with pytest.raises(ValueError, match="cutoffs must be a 1-d array of levels >= 1"):
                Segments(cutoffs)


class TestCoherentState:
    def test_vacuum(self):
        v = coherent(0.0, 16)
        assert v[0] == 1.0
        assert np.all(v[1:] == 0.0)
        assert np.linalg.norm(v) == 1.0

    def test_overlap_with_vacuum(self):
        got = abs(inner_product(coherent(0.0, 40), coherent(1.0, 40)))
        assert got == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert got == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_matches_reference_amplitudes(self):
        alpha = 1.5 - 0.7j
        ref = coherent_amplitudes_reference(alpha, 40)
        assert np.allclose(coherent(alpha, 40), ref / np.linalg.norm(ref), atol=1e-13)

    @pytest.mark.parametrize("alpha", [3.0 - 1.5j, 30.0 * complex(math.cos(0.7), math.sin(0.7)), 300.0])
    def test_magnitudes_match_mpmath(self, alpha):
        # |c_n| = sqrt(p(n) / (1 - tail above the cutoff)) on every level that
        # carries weight; log(n!) at these levels would cost ~1e-10 in lgamma
        mean = abs(alpha) ** 2
        cutoff = choose_cutoff([alpha])
        v = coherent(alpha, cutoff)
        rng = np.random.default_rng(32)
        sigma = math.sqrt(mean)
        levels = np.unique(np.round(mean + sigma * rng.uniform(-7.0, 7.0, 120)).clip(0, cutoff))
        with mpmath.workdps(40):
            kept = 1 - exact_tail(mean, cutoff + 1)
            for n in levels.astype(int).tolist():
                exact = mpmath.sqrt(mpmath.exp(exact_log_pmf(n, mean)) / kept)
                assert abs(abs(v[n]) - exact) <= 1e-13 * exact, (alpha, n)

    def test_truncated_norm_is_one(self):
        assert abs(np.linalg.norm(coherent(2.0, 40)) - 1.0) < 1e-12

    def test_rejects_alphas_not_matching_segments(self):
        for alphas in ([1.0], [[1.0]], [[1.0, 2.0, 3.0]]):
            with pytest.raises(ValueError, match="one segment per column"):
                coherent_state(alphas, Segments([8, 8]))

    def test_rejects_cutoff_below_one(self):
        with pytest.raises(ValueError):
            coherent(1.0, 0)


class TestApplyCreation:
    def test_vacuum_to_one_photon(self):
        out = raised(0.0, 8)
        assert out[1] == 1.0
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-15)

    def test_norm_on_coherent(self):
        assert np.linalg.norm(raised(1.0, 40)) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_top_level_population_rejected(self):
        # three states in one flat array; the middle one sits in |n = cutoff>
        segments = Segments([16, 16, 24])
        amps = coherent_state([[0.5, 1.0, 1.5]], segments)
        apply_creation(amps, segments)  # each fits its cutoff
        start, stop = segments.bounds[1]
        amps[0, start:stop] = 0.0
        amps[0, stop - 1] = 1.0
        message = r"point 1: top-level probability 1.000e\+00 exceeds tail tolerance"
        with pytest.raises(ValueError, match=message):
            apply_creation(amps, segments)


class TestSpacs:
    def test_photon_added_to_coherent_is_spacs(self):
        for alpha in (0.0, 0.7, 2.0 - 1.5j):
            up = raised(alpha, 40)
            assert np.array_equal(spacs(alpha, 40), up / np.linalg.norm(up))

    def test_vacuum_gives_single_photon(self):
        v = spacs(0.0, 16)
        assert v[1] == 1.0
        assert np.count_nonzero(v) == 1

    @pytest.mark.parametrize(
        "alpha,expected",
        [(1.0, 1.0 / math.sqrt(2.0)), (2.0, 2.0 / math.sqrt(5.0))],
    )
    def test_overlap_with_own_coherent(self, alpha, expected):
        # closed form |<a|a,1>| = |a| / sqrt(1+|a|^2), cross-checked by summation
        cutoff = choose_cutoff([alpha])
        got = abs(inner_product(coherent(alpha, cutoff), spacs(alpha, cutoff)))
        assert got == pytest.approx(expected, abs=1e-12)
        ref = coherent_amplitudes_reference(alpha, cutoff)
        up = np.zeros_like(ref)
        up[1:] = ref[:-1] * np.sqrt(np.arange(1, cutoff + 1))
        by_sum = abs(np.vdot(ref, up / np.linalg.norm(up)))
        assert got == pytest.approx(by_sum, abs=1e-12)

    def test_unit_norm(self):
        for alpha in (0.5, 1.0, 3.0 + 1.0j):
            v = spacs(alpha, choose_cutoff([alpha]))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-10


class TestInnerProduct:
    def test_orthonormal_fock_states(self):
        vac = coherent(0.0, 8)
        one = spacs(0.0, 8)
        assert inner_product(vac, vac) == 1.0
        assert inner_product(one, vac) == 0.0

    def test_coherent_pair_formula(self):
        a, b = 1.0, 0.0
        got = inner_product(coherent(a, 40), coherent(b, 40))
        assert got == pytest.approx(overlap_formula(a, b), abs=1e-12)
        assert abs(got) == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = complex(*rng.uniform(-2, 2, 2))
            b = complex(*rng.uniform(-2, 2, 2))
            u = coherent(a, 30)
            v = coherent(b, 30)
            assert abs(inner_product(u, v) - np.conj(inner_product(v, u))) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner_product(coherent(0.0, 8), coherent(0.0, 9))


class TestTensorProduct:
    def test_two_mode_vacuum(self):
        joint = tensor_product(coherent(0.0, 5), coherent(0.0, 5))
        assert joint.shape == (36,)
        assert joint[0] == 1.0
        assert np.count_nonzero(joint) == 1

    def test_one_photon_indexing(self):
        joint = tensor_product(spacs(0.0, 5), coherent(0.0, 5))
        assert joint.reshape(6, 6)[1, 0] == 1.0

    def test_norm_multiplicativity(self):
        a = coherent(1.2, 40)
        b = coherent(0.4 + 0.3j, 40)
        assert abs(np.linalg.norm(tensor_product(a, b)) - 1.0) < 1e-12

    def test_associative_up_to_relabeling(self):
        u = coherent(0.7, 12)
        v = coherent(0.3 + 0.2j, 12)
        w = spacs(0.5, 12)
        left = np.kron(tensor_product(u, v), w)
        right = np.kron(u, tensor_product(v, w))
        assert np.max(np.abs(left - right)) < 1e-15

    def test_cutoff_mismatch(self):
        with pytest.raises(ValueError, match="cutoff"):
            tensor_product(coherent(0.0, 5), coherent(0.0, 6))


class TestChooseCutoff:
    def test_floor_applies_for_vacuum(self):
        assert choose_cutoff([0.0]) == 16

    def test_alpha_three_matches_cumsum_oracle(self):
        lam = 9.0
        got = choose_cutoff([3.0])
        # smallest N >= floor with tail above N-1 below tolerance, by enumeration
        expected = next(
            n
            for n in range(DEFAULT_POLICY.floor, DEFAULT_POLICY.ceiling + 1)
            if poisson_tail_by_cumsum(lam, n) < DEFAULT_POLICY.tail_tolerance
        )
        assert got == expected == 38
        assert gammainc(got, lam) < DEFAULT_POLICY.tail_tolerance
        assert gammainc(got - 1, lam) >= DEFAULT_POLICY.tail_tolerance

    def test_ceiling_guard(self):
        with pytest.raises(ValueError, match="ceiling"):
            choose_cutoff([1100.0])

    def test_default_ceiling_serves_the_largest_seed(self):
        # |alpha| = 1000 is the largest magnitude SeedPair accepts
        assert choose_cutoff([1000.0]) == DEFAULT_POLICY.ceiling == 1_007_044

    def test_pinned_ceiling_is_derived(self):
        # the pinned ceiling is the cutoff for the largest mean photon number,
        # searched up to twice that mean, where the Poisson tail underflows
        assert _SEED_MAGNITUDE_MAX**2 == 1e6
        derived = _minimal_cutoffs([1e6], 1e-12, 16, 2_000_000)[0]
        assert derived == DEFAULT_POLICY.ceiling == 1_007_044
        assert (DEFAULT_POLICY.tail_tolerance, DEFAULT_POLICY.floor) == (1e-12, 16)

    def test_bisection_matches_linear_scan(self):
        # a linear scan, as choose_cutoff did up to a ceiling of 512, is the reference
        candidates = np.arange(DEFAULT_POLICY.floor, 601)
        for alpha in np.linspace(0.0, 19.4, 1941):
            lam = abs(complex(alpha)) ** 2
            tails = gammainc(candidates, lam) if lam > 0 else np.zeros(candidates.shape)
            below = np.flatnonzero(tails < DEFAULT_POLICY.tail_tolerance)
            assert choose_cutoff([alpha]) == candidates[below[0]], alpha

    def test_minimal_over_the_whole_seed_domain(self):
        tol = DEFAULT_POLICY.tail_tolerance
        rng = np.random.default_rng(8)
        for alpha in [19.5, 20.5, 25.0, 29.5, 100.0, 300.0, 999.5, 1000.0,
                      *rng.uniform(19.4, 1000.0, 40)]:
            lam = abs(complex(alpha)) ** 2
            n = choose_cutoff([alpha])
            assert gammainc(n, lam) < tol
            assert gammainc(n - 1, lam) >= tol

    def test_worst_seed_governs(self):
        assert choose_cutoff([0.0, 3.0]) == choose_cutoff([3.0])

    def test_deterministic(self):
        assert choose_cutoff([2.5, 1.0]) == choose_cutoff([2.5, 1.0])

    def test_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            choose_cutoff([])
        with pytest.raises(ValueError):
            choose_cutoff([complex(np.nan, 0)])
        # |alpha|^2 overflows to inf, which the rule refuses by name
        with pytest.raises(ValueError, match=r"\|alpha\|\^2 = inf"):
            choose_cutoff([1e200])


class TestInvariants:
    def test_truncation_fidelity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            mags = rng.uniform(0.0, 4.0, 2)
            phases = rng.uniform(0.0, 2 * math.pi, 2)
            a = mags[0] * np.exp(1j * phases[0])
            b = mags[1] * np.exp(1j * phases[1])
            cutoff = choose_cutoff([a, b])
            got = inner_product(coherent(a, cutoff), coherent(b, cutoff))
            assert abs(got - overlap_formula(a, b)) < 1e-10

    def test_creation_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            mag = rng.uniform(0.0, 4.0)
            alpha = mag * np.exp(1j * rng.uniform(0, 2 * math.pi))
            cutoff = choose_cutoff([alpha])
            norm = np.linalg.norm(raised(alpha, cutoff))
            assert abs(norm**2 - (1.0 + mag * mag)) < 1e-10
