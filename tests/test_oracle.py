import json
import math

import numpy as np
import pytest

from duality_lab.analytic import (
    MEASURE_FIELDS,
    SeedPair,
    complementarity_measures,
    detector_fidelity,
)
from duality_lab.fock import FockVector, coherent_state, spacs_state, tensor_product
from duality_lab.oracle import (
    DetectorState,
    Tolerances,
    build_composite,
    measures_from_state,
    reduce_quanton,
    verify_identities,
)


def random_seed_pairs(rng, count, mag_max):
    mags = rng.uniform(0.0, mag_max, (count, 2))
    phases = rng.uniform(0.0, 2 * math.pi, (count, 2))
    z = mags * np.exp(1j * phases)
    return [SeedPair(complex(z[k, 0]), complex(z[k, 1])) for k in range(count)]


def joint_vector(detector):
    """The detector's two-mode idler vector, rebuilt from its factors."""
    return tensor_product(detector.idler1, detector.idler2)


def partial_trace_by_contraction(state) -> np.ndarray:
    """Reduced quanton matrix the long way: build the full joint amplitude
    table psi[path, idler] and contract the idler index explicitly."""
    psi = np.stack(
        [
            state.amplitudes.c1 * joint_vector(state.detector1),
            state.amplitudes.c2 * joint_vector(state.detector2),
        ]
    )
    return psi @ psi.conj().T


class TestBuildComposite:
    def test_vacuum_seeds_give_orthogonal_detectors(self):
        state = build_composite(SeedPair(0, 0))
        d = state.cutoff + 1
        assert joint_vector(state.detector1)[1 * d + 0] == 1.0
        assert joint_vector(state.detector2)[0 * d + 1] == 1.0
        assert state.detector1.overlap(state.detector2) == 0.0

    def test_equal_unit_seeds_overlap(self):
        state = build_composite(SeedPair(1, 1))
        got = abs(state.detector1.overlap(state.detector2))
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_two_one_overlap(self):
        state = build_composite(SeedPair(2, 1))
        got = abs(state.detector1.overlap(state.detector2))
        assert got == pytest.approx(2 / math.sqrt(10), abs=1e-9)

    def test_overlap_matches_closed_form(self):
        rng = np.random.default_rng(21)
        for seeds in random_seed_pairs(rng, 25, 4.0):
            state = build_composite(seeds)
            fock = state.detector1.overlap(state.detector2)
            assert abs(fock - detector_fidelity(seeds)) < 1e-9

    def test_detector_factors_are_checked(self):
        vacuum = coherent_state(0.0, 8)
        with pytest.raises(ValueError, match="not unit"):
            DetectorState(FockVector(8, 2.0 * vacuum.amplitudes), vacuum)
        with pytest.raises(ValueError, match="cutoffs differ"):
            DetectorState(spacs_state(0.5, 16), coherent_state(0.5, 17))


class TestReduceQuanton:
    def test_vacuum_seeds(self):
        rho = reduce_quanton(build_composite(SeedPair(0, 0)))
        assert rho.rho11 == pytest.approx(0.5, abs=1e-12)
        assert rho.rho22 == pytest.approx(0.5, abs=1e-12)
        assert abs(rho.rho12) < 1e-15

    def test_two_one_point(self):
        rho = reduce_quanton(build_composite(SeedPair(2, 1)))
        assert rho.rho11 == pytest.approx(5 / 7, abs=1e-9)
        assert rho.rho22 == pytest.approx(2 / 7, abs=1e-9)
        # reduced coherence carries the detector overlap: sqrt(10)/7 * 2/sqrt(10)
        assert abs(rho.rho12) == pytest.approx(2 / 7, abs=1e-9)

    def test_unit_trace(self):
        rng = np.random.default_rng(22)
        for seeds in random_seed_pairs(rng, 20, 3.0):
            rho = reduce_quanton(build_composite(seeds))
            assert abs(rho.rho11 + rho.rho22 - 1.0) < 1e-10

    def test_matches_full_contraction(self):
        rng = np.random.default_rng(23)
        for seeds in random_seed_pairs(rng, 10, 3.0):
            state = build_composite(seeds)
            rho = reduce_quanton(state)
            full = partial_trace_by_contraction(state)
            assert abs(rho.rho11 - full[0, 0].real) < 1e-12
            assert abs(rho.rho22 - full[1, 1].real) < 1e-12
            assert abs(rho.rho12 - full[0, 1]) < 1e-12


class TestMeasuresFromState:
    def test_vacuum_seeds_match_analytic(self):
        fock_route = measures_from_state(build_composite(SeedPair(0, 0)))
        closed = complementarity_measures(SeedPair(0, 0))
        for name in MEASURE_FIELDS:
            assert abs(getattr(fock_route, name) - getattr(closed, name)) < 1e-10

    def test_two_one_matches_analytic(self):
        fock_route = measures_from_state(build_composite(SeedPair(2, 1)))
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
            assert getattr(fock_route, name) == pytest.approx(value, abs=1e-9)

    def test_equal_unit_seeds_purity(self):
        fock_route = measures_from_state(build_composite(SeedPair(1, 1)))
        assert fock_route.mu_s == pytest.approx(0.5, abs=1e-9)
        assert fock_route.mu_s == pytest.approx(fock_route.F_abs, abs=1e-9)

    def test_route_independence(self):
        rng = np.random.default_rng(24)
        for seeds in random_seed_pairs(rng, 200, 3.0):
            fock_route = measures_from_state(build_composite(seeds))
            closed = complementarity_measures(seeds)
            for name in MEASURE_FIELDS:
                assert abs(getattr(fock_route, name) - getattr(closed, name)) < 1e-8

    def test_purity_identity(self):
        rng = np.random.default_rng(25)
        for seeds in random_seed_pairs(rng, 50, 4.0):
            state = build_composite(seeds)
            rho = reduce_quanton(state)
            closed = complementarity_measures(seeds)
            lhs = 2.0 * rho.purity() - 1.0
            assert abs(lhs - closed.mu_s**2) < 1e-8

    def test_entanglement_concurrence_route(self):
        # E for a pure joint state equals sqrt(2 (1 - Tr[rho_r^2]))
        rng = np.random.default_rng(26)
        for seeds in random_seed_pairs(rng, 50, 3.0):
            state = build_composite(seeds)
            rho = reduce_quanton(state)
            concurrence = math.sqrt(max(0.0, 2.0 * (1.0 - rho.purity())))
            fock_route = measures_from_state(state)
            assert abs(fock_route.E - concurrence) < 1e-8


class TestVerifyIdentities:
    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="sample_count"):
            verify_identities(0, rng_seed=1)

    def test_full_suite_passes(self):
        report = verify_identities(1000, rng_seed=42)
        assert report.all_passed
        for check in report.checks:
            assert check.worst_residual < check.tolerance

    def test_impossible_tolerances_fail_without_raising(self):
        report = verify_identities(
            50, rng_seed=7, tolerances=Tolerances(closed_form=0.0, oracle=0.0)
        )
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
