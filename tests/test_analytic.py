import cmath
import math
import types

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from duality_lab import analytic
from duality_lab.analytic import (
    MEASURE_FIELDS,
    ComplementarityMeasures,
    PointError,
    QuantonDensityMatrix,
    SeedPair,
    closed_form_measures,
    complementarity_measures,
    detector_fidelity,
    validate_measures,
    validated_identity_residuals,
)
from duality_lab.oracle import build_composite, measures_from_state


def random_seed_pairs(rng, count, mag_max):
    mags = rng.uniform(0.0, mag_max, (count, 2))
    phases = rng.uniform(0.0, 2 * math.pi, (count, 2))
    z = mags * np.exp(1j * phases)
    return [SeedPair(complex(z[k, 0]), complex(z[k, 1])) for k in range(count)]


class TestSeedPair:
    def test_coerces_to_complex(self):
        s = SeedPair(2, 1)
        assert s.alpha1 == 2 + 0j and isinstance(s.alpha1, complex)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SeedPair(complex(math.inf, 0), 1)

    def test_rejects_huge_magnitude(self):
        with pytest.raises(ValueError, match="sanity"):
            SeedPair(2000.0, 1.0)
        # |z| overflows a float here; abs(z) would raise OverflowError
        with pytest.raises(ValueError, match="= inf exceeds the sanity bound"):
            SeedPair(1.0, complex(1.7e308, 1.7e308))


def pure_density(seeds: SeedPair) -> QuantonDensityMatrix:
    """Density matrix of the pure path superposition c1 |1> + c2 |2>.

    The path weights are the photon-added norms 1 + |alpha_j|^2:
    c_j = sqrt((1 + |alpha_j|^2) / (2 + |alpha_1|^2 + |alpha_2|^2)).
    """
    na, nb = 1.0 + abs(seeds.alpha1) ** 2, 1.0 + abs(seeds.alpha2) ** 2
    c1, c2 = math.sqrt(na / (na + nb)), math.sqrt(nb / (na + nb))
    return QuantonDensityMatrix(c1 * c1, c2 * c2, c1 * c2)


class TestDetectorFidelity:
    def test_vanishing_seed_kills_overlap(self):
        assert detector_fidelity(SeedPair(0, 1.3)) == 0
        assert detector_fidelity(SeedPair(1.3, 0)) == 0

    def test_two_one_point(self):
        f = detector_fidelity(SeedPair(2, 1))
        assert abs(f) == pytest.approx(2 / math.sqrt(10), abs=1e-15)
        assert abs(f) == pytest.approx(0.6324555320336759, abs=1e-12)

    def test_large_equal_seeds_approach_unity(self):
        values = [abs(detector_fidelity(SeedPair(a, a))) for a in (5, 20, 100)]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))
        assert values[-1] > 0.999
        assert all(v < 1.0 for v in values)

    def test_phase_carried(self):
        f = detector_fidelity(SeedPair(2j, 1))
        assert cmath.phase(f) == pytest.approx(math.pi / 2, abs=1e-15)


class TestQuantonDensityMatrix:
    def test_equal_seeds_balanced(self):
        rho = pure_density(SeedPair(1.7, 1.7))
        assert rho.rho11 == pytest.approx(0.5, abs=1e-15)
        assert rho.rho22 == rho.rho11

    def test_two_one_point(self):
        rho = pure_density(SeedPair(2, 1))
        assert rho.rho11 == pytest.approx(5 / 7, abs=1e-15)
        assert rho.rho22 == pytest.approx(2 / 7, abs=1e-15)
        assert abs(rho.rho12) == pytest.approx(math.sqrt(10) / 7, abs=1e-15)

    def test_vacuum_seeds(self):
        rho = pure_density(SeedPair(0, 0))
        for element in (rho.rho11, rho.rho22, abs(rho.rho12)):
            assert element == pytest.approx(0.5, abs=1e-15)

    def test_pure_state_coherence_saturates_positivity(self):
        rng = np.random.default_rng(1)
        for seeds in random_seed_pairs(rng, 100, 10.0):
            rho = pure_density(seeds)
            assert abs(abs(rho.rho12) - math.sqrt(rho.rho11 * rho.rho22)) < 1e-12

    def test_type_validation(self):
        # one bad point among good ones; the message names it
        good = (0.5, 0.5, 0.25), (0.7, 0.3, 0.1j)
        for bad, match in [((0.6, 0.6, 0.1), "point 1: trace"),
                           ((0.5, 0.5, 0.9), "point 1: .*positivity"),
                           ((-0.1, 1.1, 0.0), "point 1: diagonal probabilities")]:
            rho11, rho22, rho12 = (np.array(column) for column in zip(good[0], bad, good[1]))
            with pytest.raises(ValueError, match=match):
                QuantonDensityMatrix(rho11, rho22, rho12)
        rho = QuantonDensityMatrix(*(np.array(column) for column in zip(*good)))
        assert np.array_equal(rho.coherence, [0.25, 0.1])

    def test_one_point_fails_where_a_batch_does(self):
        # a one-point record takes a fast path; it must refuse the same points
        # with the same words as the batch, and pass the same ones
        good = (0.5, 0.5, 0.25)
        for bad in [(0.6, 0.6, 0.1), (0.5, 0.5, 0.9), (-0.1, 1.1, 0.0), (math.nan, 0.5, 0.1),
                    (0.5, 0.5, complex(math.nan, 0.0)), (0.5, 0.5 + 1.1e-12, 0.0)]:
            with pytest.raises(PointError) as in_batch:
                QuantonDensityMatrix(*(np.array(column) for column in zip(good, bad)))
            with pytest.raises(PointError) as alone:
                QuantonDensityMatrix(*(np.array([x]) for x in bad))
            with pytest.raises(ValueError) as scalar:
                QuantonDensityMatrix(*bad)
            assert (in_batch.value.index, alone.value.index) == (1, 0)
            assert alone.value.detail == in_batch.value.detail == str(scalar.value), bad
        # on the tolerance edges, inside
        for edge in [(0.5, 0.5 + 0.9e-12, 0.0), (0.5, 0.5, 0.5 + 0.9e-12), (0.0, 1.0, 0.0)]:
            rho = QuantonDensityMatrix(*(np.array([x]) for x in edge))
            assert rho.coherence.shape == (1,)
            QuantonDensityMatrix(*(np.array(column) for column in zip(good, edge)))
            QuantonDensityMatrix(*edge)


class TestComplementarityMeasures:
    def test_vacuum_seeds(self):
        m = complementarity_measures(SeedPair(0, 0))
        assert (m.D, m.P, m.E, m.V, m.C, m.F_abs, m.mu_s) == (1, 0, 1, 1, 0, 0, 0)

    def test_equal_unit_seeds(self):
        m = complementarity_measures(SeedPair(1, 1))
        assert m.P == 0.0
        assert m.F_abs == 0.5 and m.C == 0.5 and m.mu_s == 0.5
        assert m.V == 1.0
        assert m.D == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        assert m.E == pytest.approx(math.sqrt(3) / 2, abs=1e-15)

    def test_two_one_point(self):
        m = complementarity_measures(SeedPair(2, 1))
        assert m.D == pytest.approx(math.sqrt(33) / 7, abs=1e-14)
        assert m.P == pytest.approx(3 / 7, abs=1e-14)
        assert m.E == pytest.approx(math.sqrt(24) / 7, abs=1e-14)
        assert m.V == pytest.approx(2 * math.sqrt(10) / 7, abs=1e-14)
        assert m.C == pytest.approx(4 / 7, abs=1e-14)
        assert m.mu_s == pytest.approx(5 / 7, abs=1e-14)
        # squared identities recover the exact rationals
        assert m.P**2 + m.E**2 + m.C**2 == pytest.approx(1.0, abs=1e-15)
        assert 9 / 49 + 24 / 49 + 16 / 49 == pytest.approx(1.0, abs=1e-15)

    def test_identities_random(self):
        rng = np.random.default_rng(2)
        for seeds in random_seed_pairs(rng, 2000, 10.0):
            residuals = validated_identity_residuals(complementarity_measures(seeds))
            for name, residual in zip(analytic.IDENTITY_NAMES, residuals):
                assert residual < 1e-12, (name, seeds)

    def test_swap_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for seeds in random_seed_pairs(rng, 200, 10.0):
            m1 = complementarity_measures(seeds)
            m2 = complementarity_measures(SeedPair(seeds.alpha2, seeds.alpha1))
            for name in MEASURE_FIELDS:
                assert abs(getattr(m1, name) - getattr(m2, name)) <= 1e-15

    def test_phase_invariance_exact_for_quarter_turns(self):
        # multiplying a seed by i, -1 or -i is exact in floating point, so
        # the magnitude-only dependence must show up bitwise
        rng = np.random.default_rng(4)
        for seeds in random_seed_pairs(rng, 100, 10.0):
            m1 = complementarity_measures(seeds)
            for rot1, rot2 in ((1j, -1), (-1j, 1j), (-1, -1j)):
                m2 = complementarity_measures(
                    SeedPair(seeds.alpha1 * rot1, seeds.alpha2 * rot2)
                )
                for name in MEASURE_FIELDS:
                    assert getattr(m1, name) == getattr(m2, name)

    def test_phase_invariance_generic_rotations(self):
        # a generic unit phase rounds the seed components, which the
        # square-root measures amplify near their zeros; the dependence on
        # anything but the magnitudes still has to vanish within rounding
        rng = np.random.default_rng(5)
        for seeds in random_seed_pairs(rng, 300, 10.0):
            phi1, phi2 = rng.uniform(0.0, 2 * math.pi, 2)
            rotated = SeedPair(
                seeds.alpha1 * cmath.exp(1j * phi1),
                seeds.alpha2 * cmath.exp(1j * phi2),
            )
            m1 = complementarity_measures(seeds)
            m2 = complementarity_measures(rotated)
            for name in MEASURE_FIELDS:
                assert abs(getattr(m1, name) - getattr(m2, name)) < 1e-9

    def test_fidelity_monotone_on_equal_seeds(self):
        mags = np.linspace(0.0, 6.0, 61)
        values = [
            complementarity_measures(SeedPair(a, a)).F_abs for a in mags
        ]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
        for a, f in zip(mags, values):
            assert f == pytest.approx(a * a / (1 + a * a), abs=1e-15)
            m = complementarity_measures(SeedPair(a, a))
            assert m.C == pytest.approx(f, abs=1e-15)

    def test_visibility_predictability_duality(self):
        rng = np.random.default_rng(6)
        for seeds in random_seed_pairs(rng, 500, 10.0):
            m = complementarity_measures(seeds)
            assert abs(m.V**2 + m.P**2 - 1.0) < 1e-12

    def test_record_validation_fails_closed(self):
        with pytest.raises(ValueError, match="identity"):
            validate_measures(ComplementarityMeasures(D=1, P=0, E=1, V=1, C=0.5, F_abs=0, mu_s=0))
        with pytest.raises(ValueError, match="outside"):
            validate_measures(ComplementarityMeasures(D=1.5, P=0, E=1, V=1, C=0, F_abs=0, mu_s=0))

    def test_one_point_fails_where_a_batch_does(self):
        # a one-point record takes a fast path; it must refuse the same points
        # with the same words as the batch, and pass the same ones
        good = closed_form_measures(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
        c2 = float(good.C[2])
        # (point, field, new value, refused)
        for k, name, value, refused in [
            (2, "C", 0.9, True), (2, "D", 1.5, True), (2, "mu_s", math.nan, True),
            (2, "P", 0.2, True), (2, "V", 0.0, True), (2, "F_abs", 2e-12, True),
            (2, "C", c2 + 3e-12, True), (2, "C", c2 + 5e-13, False),
            (0, "P", -1.1e-15, True), (0, "P", -0.9e-15, False), (0, "V", 1.0 + 2e-12, True),
        ]:
            batch = {field: getattr(good, field).copy() for field in MEASURE_FIELDS}
            batch[name][k] = value
            one = {field: column[k : k + 1] for field, column in batch.items()}
            scalar = {field: float(column[k]) for field, column in batch.items()}
            words = []
            for record in (batch, one, scalar):
                try:
                    validate_measures(ComplementarityMeasures(**record))
                    words.append(None)
                except ValueError as error:
                    words.append(str(error))
            assert words[0] == words[1] == words[2], (name, value, words)
            assert (words[0] is not None) == refused, (name, value, words)

    def test_validation_covers_every_point_of_an_array_record(self):
        good = closed_form_measures(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
        assert validate_measures(good) is good
        forged = ComplementarityMeasures(
            **{name: getattr(good, name).copy() for name in MEASURE_FIELDS}
        )
        forged.C[2] = forged.V[2] + 1e-9  # only the last point is bad
        with pytest.raises(ValueError, match="identity"):
            validate_measures(forged)
        with pytest.raises(ValueError, match="outside"):  # NaN fails closed
            validate_measures(closed_form_measures(np.array([1.0]), np.array([np.nan])))

    def test_columnar_kernel_matches_scalar_route_bitwise(self):
        # the sweep and verify paths take magnitudes with np.hypot and evaluate
        # whole arrays; each point must equal the one-point route exactly
        rng = np.random.default_rng(7)
        seeds = random_seed_pairs(rng, 500, 10.0)
        z = np.array([[s.alpha1, s.alpha2] for s in seeds])
        mags = np.hypot(z.real, z.imag)
        columns = closed_form_measures(mags[:, 0], mags[:, 1])
        for k, pair in enumerate(seeds):
            assert mags[k].tolist() == [abs(pair.alpha1), abs(pair.alpha2)]
            m = complementarity_measures(pair)
            for name in MEASURE_FIELDS:
                assert getattr(columns, name)[k] == getattr(m, name)


def exact_measures(a: float, b: float) -> dict:
    """The seven measures at seed magnitudes (a, b) from their definitions, in mpmath.

    rho_jj = (1 + |alpha_j|^2) / T with T = 2 + a^2 + b^2, P = |rho11 - rho22|,
    V = 2 sqrt(rho11 rho22), |F| = a b / sqrt((1 + a^2)(1 + b^2)), C = V |F|,
    D = sqrt(1 - V^2 |F|^2), E = sqrt(V^2 (1 - |F|^2)) and mu_s = sqrt(1 - E^2).
    These cancel: 1 - E^2 is about (a^2 + b^2)^2 / 4 near zero, and
    rho11 - rho22 is (a - b)(a + b) / T.  The working precision is raised by
    the digits they lose, so 60 digits are left after the cancellation.
    """
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    lost = 0
    for scale, power in ((max(a, b), 4), (abs(a - b), 2)):
        if 0 < scale < 1:
            lost += power * (1 - int(mpmath.floor(mpmath.log10(scale))))
    with mpmath.workdps(60 + lost):
        na, nb = 1 + a * a, 1 + b * b
        total = na + nb
        rho11, rho22 = na / total, nb / total
        v = 2 * mpmath.sqrt(rho11 * rho22)
        f_abs = a * b / mpmath.sqrt(na * nb)
        e2 = v * v * (1 - f_abs * f_abs)
        values = dict(
            D=mpmath.sqrt(1 - v * v * f_abs * f_abs),
            P=abs(rho11 - rho22),
            E=mpmath.sqrt(e2),
            V=v,
            C=v * f_abs,
            F_abs=f_abs,
            mu_s=mpmath.sqrt(1 - e2),
        )
        return {name: +value for name, value in values.items()}


# below this the squares in the closed forms leave the normal range
_UNDERFLOW = 1e-290


def assert_closed_forms_match_mpmath(a_values, b_values):
    """Every measure within 1e-14 relative of ``exact_measures``; absolutely below 1e-290."""
    closed = validate_measures(closed_form_measures(np.array(a_values), np.array(b_values)))
    for k, (a, b) in enumerate(zip(a_values, b_values)):
        for name, exact in exact_measures(a, b).items():
            got = float(getattr(closed, name)[k])
            error = abs(mpmath.mpf(got) - exact)
            if exact < _UNDERFLOW:
                assert error <= 1e-300, (a, b, name, got, exact)
            else:
                assert error <= 1e-14 * exact, (a, b, name, got, float(error / exact))


class TestClosedFormsMatchMpmath:
    EDGE_SEEDS = [
        (3.0, 3.0 + 1e-10), (20.0, 20.0 + 1e-8), (1e-8, 0.0), (1e-3, 5e-4),
        (1000.0, 999.5), (1000.0, 1000.0), (1000.0, 0.0), (0.0, 0.0),
    ]

    @pytest.mark.parametrize(("a", "b"), EDGE_SEEDS)
    def test_edge_seeds(self, a, b):
        assert_closed_forms_match_mpmath([a, b], [b, a])

    @settings(max_examples=200, deadline=None, database=None)
    @given(a=st.floats(0.0, 1000.0), offset=st.floats(-1e-4, 1e-4))
    def test_as_the_ratio_goes_to_one(self, a, offset):
        b = min(a * (1.0 + offset), 1000.0)
        assert_closed_forms_match_mpmath([a, b], [b, a])

    @settings(max_examples=200, deadline=None, database=None)
    @given(a=st.floats(0.0, 1e-3), b=st.floats(0.0, 1e-3))
    def test_as_the_seeds_go_to_zero(self, a, b):
        assert_closed_forms_match_mpmath([a, b], [b, a])


def assert_three_routes_agree(seeds, both_orders=True):
    """Closed forms within 1e-14 relative of mpmath, the Fock route within 1e-10 of them.

    ``seeds`` are complex seed pairs, each taken in both orders unless
    ``both_orders`` is false.
    """
    seeds = np.array(seeds, dtype=complex)
    if both_orders:
        seeds = np.concatenate([seeds, seeds[:, ::-1]])
    mags = np.hypot(seeds.real, seeds.imag)
    assert_closed_forms_match_mpmath(mags[:, 0].tolist(), mags[:, 1].tolist())
    closed = closed_form_measures(mags[:, 0], mags[:, 1])
    fock_route = measures_from_state(build_composite(seeds))
    for name in MEASURE_FIELDS:
        error = np.abs(getattr(fock_route, name) - getattr(closed, name))
        assert np.all(error <= 1e-10), (name, seeds[np.argmax(error)], error.max())


PHASES = st.floats(0.0, 2.0 * math.pi)


class TestThreeRoutesAtTheDomainEdges:
    """The Fock, closed-form and mpmath routes agree at the edges of the seed domain.

    A pair with |alpha| near 1000 costs about 0.1 s and 125 MB in the Fock
    route, so those take few examples, one order and quarter-turn phases,
    which keep |alpha| exact and within the domain.
    """

    @settings(max_examples=50, deadline=None, database=None)
    @given(a=st.floats(0.0, 1e-3), b=st.floats(0.0, 1e-3), phases=st.tuples(PHASES, PHASES))
    def test_as_the_seeds_go_to_zero(self, a, b, phases):
        assert_three_routes_agree([(cmath.rect(a, phases[0]), cmath.rect(b, phases[1]))])

    @settings(max_examples=50, deadline=None, database=None)
    @given(a=st.floats(1e-3, 20.0), ratio=st.floats(0.0, 1e-6), phases=st.tuples(PHASES, PHASES))
    def test_as_the_ratio_goes_to_zero(self, a, ratio, phases):
        assert_three_routes_agree([(cmath.rect(a, phases[0]), cmath.rect(a * ratio, phases[1]))])

    @settings(max_examples=50, deadline=None, database=None)
    @given(a=st.floats(1e-3, 20.0), offset=st.floats(-1e-9, 1e-9), phases=st.tuples(PHASES, PHASES))
    def test_as_the_ratio_goes_to_one(self, a, offset, phases):
        b = a * (1.0 + offset)
        assert_three_routes_agree([(cmath.rect(a, phases[0]), cmath.rect(b, phases[1]))])

    @settings(max_examples=4, deadline=None, database=None)
    @given(
        a=st.floats(500.0, 1000.0),
        ratio=st.one_of(st.floats(0.0, 1e-6), st.floats(1.0 - 1e-9, 1.0 + 1e-9), st.floats(0.0, 1.0)),
        turns=st.tuples(*[st.sampled_from([1, 1j, -1, -1j])] * 2),
        swap=st.booleans(),
    )
    def test_large_seeds(self, a, ratio, turns, swap):
        pair = (a * turns[0], min(a * ratio, 1000.0) * turns[1])
        assert_three_routes_agree([pair[::-1] if swap else pair], both_orders=False)


class TestClosedFormsSymbolically:
    """The code's own closed forms, evaluated on symbols, against the definitions."""

    def test_squares_match_definitions_and_identities_hold(self, monkeypatch):
        a, b = sympy.symbols("a b", nonnegative=True)
        # closed_form_measures takes np.sqrt alone from numpy
        monkeypatch.setattr(analytic, "np", types.SimpleNamespace(sqrt=sympy.sqrt))
        closed = closed_form_measures(a, b)
        total = 2 + a**2 + b**2
        rho11, rho22 = (1 + a**2) / total, (1 + b**2) / total
        p2 = (rho11 - rho22) ** 2
        v2 = 4 * rho11 * rho22
        f2 = a**2 * b**2 / ((1 + a**2) * (1 + b**2))
        c2 = v2 * f2
        e2 = v2 * (1 - f2)
        squares = dict(D=p2 + e2, P=p2, E=e2, V=v2, C=c2, F_abs=f2, mu_s=p2 + c2)
        for name in MEASURE_FIELDS:
            assert sympy.simplify(getattr(closed, name) ** 2 - squares[name]) == 0, name
        d2, m2 = squares["D"], squares["mu_s"]
        identities = [
            d2 - p2 - e2, p2 + e2 + c2 - 1, p2 + c2 - m2, m2 + e2 - 1, c2 - v2 * f2, v2 + p2 - 1,
        ]
        assert len(identities) == len(analytic.IDENTITY_NAMES)
        for name, term in zip(analytic.IDENTITY_NAMES, identities):
            assert sympy.simplify(term) == 0, name


class TestFockRouteSymbolically:
    """The exact third route: path weights and |F| summed from the states' photon-number series.

    Seeds are taken real, a = |alpha_1| and b = |alpha_2|: the measures
    depend on the magnitudes alone.
    """

    def test_weights_and_overlap_from_the_states_match_the_closed_forms(self, monkeypatch):
        a, b = sympy.symbols("a b", nonnegative=True)
        n = sympy.symbols("n", integer=True, nonnegative=True)

        def amplitude(alpha, k):
            """<k|alpha> of the coherent state |alpha>."""
            return sympy.exp(-alpha**2 / 2) * alpha**k / sympy.sqrt(sympy.factorial(k))

        def series(term):
            return sympy.simplify(sympy.summation(sympy.gammasimp(term), (n, 0, sympy.oo)))

        alpha = sympy.symbols("alpha", nonnegative=True)
        assert series(amplitude(alpha, n) ** 2) == 1
        # a†|alpha> puts sqrt(n + 1) <n|alpha> on level n + 1:
        # ||a†|alpha>||^2 = e^-x sum (n + 1) x^n / n! with x = alpha^2
        added_norm_sq = series((sympy.sqrt(n + 1) * amplitude(alpha, n)) ** 2)
        assert added_norm_sq == 1 + alpha**2
        # <alpha|a†|alpha> = sum <alpha|n + 1> sqrt(n + 1) <n|alpha>
        added_mean = series(amplitude(alpha, n + 1) * sympy.sqrt(n + 1) * amplitude(alpha, n))
        assert added_mean == alpha
        norm_a, norm_b = added_norm_sq.subs(alpha, a), added_norm_sq.subs(alpha, b)
        # detector j pairs a†|alpha_j>, normalized, with the other idler's
        # |alpha>, so F = <d1|d2> is a product over the two idlers
        f_abs = added_mean.subs(alpha, a) * added_mean.subs(alpha, b) / sympy.sqrt(norm_a * norm_b)
        assert sympy.simplify(f_abs - a * b / sympy.sqrt((1 + a**2) * (1 + b**2))) == 0
        # the path weights follow the photon-added norms
        rho11, rho22 = norm_a / (norm_a + norm_b), norm_b / (norm_a + norm_b)
        p2 = (rho11 - rho22) ** 2
        v2 = 4 * rho11 * rho22
        c2 = v2 * f_abs**2
        e2 = v2 * (1 - f_abs**2)
        squares = dict(D=p2 + e2, P=p2, E=e2, V=v2, C=c2, F_abs=f_abs**2, mu_s=p2 + c2)
        monkeypatch.setattr(analytic, "np", types.SimpleNamespace(sqrt=sympy.sqrt))
        closed = closed_form_measures(a, b)
        for name in MEASURE_FIELDS:
            assert sympy.simplify(getattr(closed, name) ** 2 - squares[name]) == 0, name
