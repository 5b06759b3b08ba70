import numpy as np
import pytest

from conftest import random_psd_dcf, random_space

from qmeasure import (
    DecoherenceFunctional,
    HistorySpace,
    check_lon,
    check_partition_identity,
    check_poz,
    check_quantum_factorizability,
    check_spacelike_commutation,
    eprb_computational_basis_fixture,
    event_operator,
    gen_double_slit,
    region_algebra,
)
from qmeasure.causal_order import CausalOrder


class TestPoz:
    def test_forward_double_slit_passes(self, double_slit):
        _, order, dcf = double_slit
        rep = check_poz(dcf, order)
        assert rep.passed
        assert rep.max_violation <= 1e-12

    def test_reversed_double_slit_fails_quarter(self):
        _, order, dcf = gen_double_slit(time_reversed=True)
        rep = check_poz(dcf, order)
        assert not rep.passed
        worst = rep.worst()
        assert worst.violation == pytest.approx(0.25, abs=1e-12)
        assert worst.region_points == ("slit",)

    def test_eprb_theories_pass(self, eprb_scenario):
        for key, t in eprb_scenario.theories.items():
            rep = check_poz(t.dcf, t.order)
            assert rep.passed, (key, rep.max_violation)

    def test_vacuous_regions_skipped(self, double_slit):
        _, order, dcf = double_slit
        rep = check_poz(dcf, order)
        # regions containing the bottom point shadow nothing
        assert rep.skipped_vacuous == 2

    def test_explicit_region_list(self, double_slit):
        _, order, dcf = double_slit
        rep = check_poz(dcf, order, regions=[order.region(["screen"])])
        assert len(rep.results) == 1
        assert rep.passed

    def test_measure_zero_persistence(self, eprb_scenario):
        # single-term instance: null past events stay null under wing
        # conjunction
        t = eprb_scenario.theory(0, 0)
        alg = region_algebra(t.space, ("z", "wb"))
        for g in alg.atoms:
            if t.dcf.measure(g) < 1e-14:
                for e in t.beam_a:
                    assert t.dcf.measure(e & g) < 1e-12


class TestEventOperator:
    def test_full_event_is_identity(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        op = event_operator(t.dcf, t.order, ("wa",), t.space.full_event(), ("z",))
        assert np.allclose(op.matrix, np.eye(op.matrix.shape[0]), atol=1e-12)

    def test_empty_event_is_zero(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        op = event_operator(t.dcf, t.order, ("wa",), t.space.empty_event(), ("z",))
        assert np.abs(op.matrix).max() <= 1e-12

    def test_universal_corollary(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        for e in t.beam_a:
            op = event_operator(t.dcf, t.order, ("wa",), e, ("z",))
            assert op.universal_residual < 1e-9

    def test_shared_setting_theories_agree_on_operator(self, eprb_scenario):
        t1 = eprb_scenario.theory(0, 0)
        t2 = eprb_scenario.theory(0, 1)
        op1 = event_operator(t1.dcf, t1.order, ("wa",), t1.beam_a[0], ("z",))
        op2 = event_operator(t2.dcf, t2.order, ("wa",), t2.beam_a[0], ("z",))
        assert np.abs(op1.frame_matrix - op2.frame_matrix).max() < 1e-9

    def test_additivity_over_disjoint_union(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        op_u = event_operator(t.dcf, t.order, ("wa",), t.beam_a[0], ("z",))
        op_d = event_operator(t.dcf, t.order, ("wa",), t.beam_a[1], ("z",))
        op_sum = event_operator(
            t.dcf, t.order, ("wa",), t.beam_a[0] | t.beam_a[1], ("z",)
        )
        assert np.allclose(op_u.matrix + op_d.matrix, op_sum.matrix, atol=1e-9)

    def test_event_outside_region_algebra_rejected(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        bad = t.space.event_from_indices([0])  # a single history is not wing-local
        with pytest.raises(ValueError):
            event_operator(t.dcf, t.order, ("wa",), bad, ("z",))

    def test_refusal_without_zero_persistence(self):
        _, order, dcf = gen_double_slit(time_reversed=True)
        space = dcf.space
        left = space.value_event("slit", 0)
        with pytest.raises(ValueError):
            event_operator(dcf, order, ("slit",), left, ("screen",))
        op = event_operator(
            dcf, order, ("slit",), left, ("screen",), force=True
        )
        assert op.consistency_residual > 0.1


class TestLon:
    def test_eprb_passes(self, eprb_scenario):
        for key, t in eprb_scenario.theories.items():
            rep = check_lon(t.dcf, t.order)
            assert rep.passed, (key, rep.max_residual)
            for row in rep.results:
                assert row.dim_z == row.dim_domain

    def test_full_region_trivial(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        rep = check_lon(t.dcf, t.order, [t.order.full_region()])
        assert rep.passed and rep.max_residual == 0.0

    def test_degenerate_resolution_fails(self):
        scenario = eprb_computational_basis_fixture()
        t = scenario.theory(0, 0)
        rep = check_lon(t.dcf, t.order)
        assert not rep.passed
        z_row = next(r for r in rep.results if r.z_points == ("z",))
        assert z_row.dim_z == 2  # two singlet components survive
        assert z_row.dim_domain == 4

    def test_degenerate_resolution_still_satisfies_poz(self):
        scenario = eprb_computational_basis_fixture()
        t = scenario.theory(0, 0)
        assert check_poz(t.dcf, t.order).passed


class TestCommutation:
    def test_eprb_beam_pairs(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        z = t.order.region(["z"])
        a = t.order.region(["wa"])
        b = t.order.region(["wb"])
        for ea in t.beam_a:
            for eb in t.beam_b:
                rep = check_spacelike_commutation(t.dcf, t.order, z, a, b, ea, eb)
                assert rep.commutator_norm < 1e-9
                assert rep.action_residual < 1e-9

    def test_full_event_commutes_trivially(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        z = t.order.region(["z"])
        a = t.order.region(["wa"])
        b = t.order.region(["wb"])
        rep = check_spacelike_commutation(
            t.dcf, t.order, z, a, b, t.space.full_event(), t.beam_b[0]
        )
        assert rep.commutator_norm < 1e-12

    def test_invalid_geometry_rejected(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        z = t.order.region(["z"])
        a = t.order.region(["wa"])
        with pytest.raises(ValueError):
            check_spacelike_commutation(
                t.dcf, t.order, z, a, a, t.beam_a[0], t.beam_a[1]
            )


class TestPartitionIdentity:
    def test_trivial_partition(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        resid = check_partition_identity(
            t.dcf, t.order, ("wa",), [t.space.full_event()], ("z",)
        )
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_event_and_complement(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        e = t.beam_a[0]
        resid = check_partition_identity(t.dcf, t.order, ("wa",), [e, ~e], ("z",))
        assert resid < 1e-9

    def test_beam_partition(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        resid = check_partition_identity(
            t.dcf, t.order, ("wa",), list(t.beam_a), ("z",)
        )
        assert resid < 1e-9

    def test_non_partition_rejected(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        with pytest.raises(ValueError):
            check_partition_identity(
                t.dcf, t.order, ("wa",), [t.beam_a[0], t.beam_a[0]], ("z",)
            )


def _product_theory(rng, nk=3, na=2, nb=2):
    """Classical product measure over past x wings: factorizable exactly."""
    order = CausalOrder.from_covers(("z", "wa", "wb"), [("z", "wa"), ("z", "wb")])
    histories = tuple(
        (k, i, j) for k in range(nk) for i in range(na) for j in range(nb)
    )
    space = HistorySpace(points=("z", "wa", "wb"), histories=histories)
    pk = rng.dirichlet(np.ones(nk))
    pa = rng.dirichlet(np.ones(na))
    pb = rng.dirichlet(np.ones(nb))
    diag = np.array([pk[k] * pa[i] * pb[j] for k, i, j in histories])
    dcf = DecoherenceFunctional(space, matrix=np.diag(diag).astype(complex))
    return space, order, dcf


class TestQuantumFactorizability:
    def test_product_measure_exact(self):
        rng = np.random.default_rng(41)
        space, order, dcf = _product_theory(rng)
        rep = check_quantum_factorizability(
            dcf,
            order,
            order.region(["z"]),
            order.region(["wa"]),
            order.region(["wb"]),
        )
        assert rep.exhaustive and rep.max_residual < 1e-12

    def test_perturbation_detected(self):
        # blend in a wing-correlated diagonal: still a valid functional,
        # but screening off is broken
        rng = np.random.default_rng(43)
        space, order, dcf = _product_theory(rng)
        corr = np.zeros(space.size)
        for h, (k, i, j) in enumerate(space.value_matrix.tolist()):
            if k == 0 and i == j:
                corr[h] = 0.5
        m = 0.8 * dcf.matrix + 0.2 * np.diag(corr / corr.sum()).astype(complex)
        bad = DecoherenceFunctional(space, matrix=m)
        rep = check_quantum_factorizability(
            bad,
            order,
            order.region(["z"]),
            order.region(["wa"]),
            order.region(["wb"]),
        )
        assert rep.max_residual > 1e-3

    def test_eprb_interference_is_not_factorizable(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        rep = check_quantum_factorizability(
            t.dcf,
            t.order,
            t.order.region(["z"]),
            t.order.region(["wa"]),
            t.order.region(["wb"]),
        )
        assert rep.exhaustive
        assert rep.max_residual > 1e-4


class TestPozProperties:
    def test_random_gram_models_safe_regions(self):
        # regions whose shadow algebra has trivial kernel pass vacuously
        rng = np.random.default_rng(53)
        for _ in range(5):
            space = random_space(rng)
            dcf = random_psd_dcf(rng, space, dim=space.size)
            order = CausalOrder.antichain(space.points)
            rep = check_poz(dcf, order)
            for row in rep.results:
                if row.kernel_dim == 0:
                    assert row.violation == 0.0
