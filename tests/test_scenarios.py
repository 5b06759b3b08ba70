import itertools

import numpy as np
import pytest

from conftest import correlation_table, outcome_event, setting_event
from qmeasure import (
    EprbConfig,
    chsh_value,
    gen_double_slit,
    gen_eprb,
    gen_ghz,
    gen_pr_box,
    no_signalling_residual,
)
from qmeasure.scenarios import SINGLET, TSIRELSON_ANGLES


def spin_projector(theta):
    v = np.array([np.cos(theta), np.sin(theta)])
    return np.outer(v, v)


def singlet_probability(theta_a, i, theta_b, j):
    """State-vector oracle: joint beam probability for the spin pair."""
    pa = spin_projector(theta_a + i * np.pi / 2)
    pb = spin_projector(theta_b + j * np.pi / 2)
    vec = np.kron(pa, pb) @ SINGLET
    return float(np.vdot(vec, vec).real)


class TestDoubleSlit:
    def test_measures(self, double_slit):
        space, _, dcf = double_slit
        dark = space.value_event("screen", 1)
        bright = space.value_event("screen", 0)
        ld = space.event_from_indices([1])
        assert dcf.measure(dark) == pytest.approx(0.0, abs=1e-15)
        assert dcf.measure(ld) == pytest.approx(0.25, abs=1e-15)
        assert dcf.measure(bright) == pytest.approx(1.0, abs=1e-15)

    def test_axioms(self, double_slit):
        _, _, dcf = double_slit
        assert dcf.validate_axioms().passed

    def test_reversed_shares_functional(self):
        s1, o1, d1 = gen_double_slit()
        s2, o2, d2 = gen_double_slit(time_reversed=True)
        assert np.allclose(d1.matrix, d2.matrix)
        assert o1.leq[0, 1] and not o2.leq[0, 1]


def kron_loop_matrices(cfg):
    """The spin-pair functionals built one branch vector at a time, as
    (P_a,i x P_b,j) q_k <q_k, psi> for every (k, i, j)."""
    q, psi = cfg.resolution_basis, cfg.initial_state
    matrices = {}
    for sa, sb in itertools.product(range(2), repeat=2):
        vectors = np.zeros((16, 4), dtype=complex)
        for k, i, j in itertools.product(range(4), range(2), range(2)):
            pa = spin_projector(cfg.angles[sa] + i * np.pi / 2)
            jj = 1 - j if cfg.flip_b else j
            pb = spin_projector(cfg.angles[2 + sb] + jj * np.pi / 2)
            qk = q[:, k] * np.vdot(q[:, k], psi)
            vectors[k * 4 + i * 2 + j] = np.kron(pa, pb) @ qk
        matrices[(sa, sb)] = vectors.conj() @ vectors.T
    return matrices


class TestEprb:
    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    @pytest.mark.parametrize("flip_b", [False, True])
    def test_matrices_match_the_kron_loop(self, seed, flip_b):
        cfg = EprbConfig(flip_b=flip_b)
        if seed is not None:
            rng = np.random.default_rng(seed)
            basis, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            state = rng.normal(size=4) + 1j * rng.normal(size=4)
            cfg = EprbConfig(
                angles=tuple(rng.uniform(0.0, np.pi, size=4)),
                resolution_basis=basis,
                initial_state=state / np.linalg.norm(state),
                flip_b=flip_b,
            )
        sc = gen_eprb(cfg)
        for key, m in kron_loop_matrices(cfg).items():
            assert np.abs(sc.theory(*key).dcf.matrix - m).max() < 1e-14

    def test_matched_analyzers_anticorrelate(self):
        cfg = EprbConfig(angles=(0.3, 0.9, 0.3, 1.7))
        sc = gen_eprb(cfg)
        table = correlation_table(sc).tables[(0, 0)]
        assert table[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert table[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert table[0, 1] + table[1, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("field", ["initial_state", "resolution_basis", "angles"])
    def test_non_finite_config_refused(self, field):
        cfg = EprbConfig()
        value = np.array(getattr(cfg, field), dtype=complex if field != "angles" else float)
        value.flat[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            EprbConfig(**{field: value})

    @pytest.mark.parametrize("angles", [(0.1,), (0.1, 0.2, 0.3, 0.4, 0.5)])
    def test_angle_count_refused(self, angles):
        with pytest.raises(ValueError, match="four numbers"):
            EprbConfig(angles=angles)

    def test_flip_b_gives_correlation(self):
        cfg = EprbConfig(angles=(0.3, 0.9, 0.3, 1.7), flip_b=True)
        sc = gen_eprb(cfg)
        table = correlation_table(sc).tables[(0, 0)]
        assert table[0, 0] + table[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_tables_match_state_vector_oracle(self, eprb_scenario):
        angles = TSIRELSON_ANGLES
        tables = correlation_table(eprb_scenario).tables
        for sa in (0, 1):
            for sb in (0, 1):
                for i in (0, 1):
                    for j in (0, 1):
                        want = singlet_probability(
                            angles[sa], i, angles[2 + sb], j
                        )
                        assert tables[(sa, sb)][i, j] == pytest.approx(
                            want, abs=1e-12
                        )

    def test_chsh_at_stock_angles(self, eprb_scenario):
        assert chsh_value(correlation_table(eprb_scenario)) == pytest.approx(
            2 * np.sqrt(2), abs=1e-6
        )

    def test_axioms_all_theories(self, eprb_scenario):
        for key, t in eprb_scenario.theories.items():
            rep = t.dcf.validate_axioms()
            assert rep.passed, key

    def test_scenario_clauses(self, eprb_scenario):
        assert eprb_scenario.validate().passed

    def test_no_signalling(self, eprb_scenario):
        assert no_signalling_residual(eprb_scenario.beam_dcfs()) < 1e-9

    def test_orthogonal_resolution_refused(self):
        with pytest.raises(ValueError):
            gen_eprb(EprbConfig(resolution_basis=np.eye(4, dtype=complex)))

    def test_named_failing_fixture_builds(self, eprb_computational_basis):
        assert eprb_computational_basis.validate().passed  # clauses hold; only novelty fails

    def test_bad_basis_rejected(self):
        with pytest.raises(ValueError):
            EprbConfig(resolution_basis=np.ones((4, 4)))

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            EprbConfig(initial_state=np.array([1.0, 1.0, 0.0, 0.0]))


class TestPrBox:
    def test_chsh_is_four(self):
        _, table = gen_pr_box()
        assert chsh_value(table) == 4.0

    def test_no_signalling_exact(self):
        model, table = gen_pr_box()
        assert no_signalling_residual(table.beam_dcfs()) == 0.0
        assert no_signalling_residual(model.beam_dcfs) == 0.0

    def test_beam_dcfs_diagonal(self):
        model, _ = gen_pr_box()
        for arr in model.beam_dcfs.values():
            flat = arr.reshape(4, 4)
            assert np.abs(flat - np.diag(np.diag(flat))).max() == 0.0

    def test_joint_model_classical_and_normalized(self):
        model, _ = gen_pr_box()
        assert model.dcf.is_classical()
        assert model.dcf.validate_axioms().passed

    def test_box_event_certain(self):
        model, _ = gen_pr_box()
        assert model.dcf.measure(model.pr_event()) == pytest.approx(1.0, abs=1e-12)

    def test_box_event_not_full_space(self):
        model, _ = gen_pr_box()
        assert len(model.pr_event()) == 8


GHZ = np.zeros(8, dtype=complex)
GHZ[0] = GHZ[7] = 1 / np.sqrt(2)

X_EIG = {
    0: np.array([1, 1], dtype=complex) / np.sqrt(2),
    1: np.array([1, -1], dtype=complex) / np.sqrt(2),
}
Y_EIG = {
    0: np.array([1, 1j], dtype=complex) / np.sqrt(2),
    1: np.array([1, -1j], dtype=complex) / np.sqrt(2),
}


def ghz_probability(settings, outcomes):
    vecs = [
        (X_EIG if s == 0 else Y_EIG)[o] for s, o in zip(settings, outcomes)
    ]
    amp = np.vdot(np.kron(np.kron(vecs[0], vecs[1]), vecs[2]), GHZ)
    return float(abs(amp) ** 2)


class TestGhz:
    def test_event_certain(self):
        model, event = gen_ghz()
        assert model.dcf.measure(event) == pytest.approx(1.0, abs=1e-12)
        assert model.dcf.measure(~event) == pytest.approx(0.0, abs=1e-12)

    def test_axioms(self):
        model, _ = gen_ghz()
        assert model.dcf.validate_axioms().passed

    def test_all_x_uuu_has_measure_one_thirtysecond(self):
        # oracle: |<+++|ghz>|^2 / 8 settings
        model, _ = gen_ghz()
        ev = setting_event(model, 0, 0, 0) & outcome_event(model, 0, 0, 0)
        want = ghz_probability((0, 0, 0), (0, 0, 0)) / 8.0
        assert want == pytest.approx(1 / 32, abs=1e-12)
        assert model.dcf.measure(ev) == pytest.approx(want, abs=1e-12)

    def test_measures_match_oracle(self):
        model, _ = gen_ghz()
        rng = np.random.default_rng(5)
        for _ in range(20):
            settings = tuple(rng.integers(0, 2, size=3))
            outcomes = tuple(rng.integers(0, 2, size=3))
            sel = model.space.full_event()
            for wing, (s, o) in enumerate(zip(settings, outcomes)):
                sel = sel & model.space.value_event(f"w{wing+1}", 2 * s + o)
            want = ghz_probability(settings, outcomes) / 8.0
            assert model.dcf.measure(sel) == pytest.approx(want, abs=1e-12)


def union_of_value_events(space, wings, per_wing):
    """Reference event from value events alone: per wing, the union over
    the values in `per_wing`, then the intersection over wings."""
    ev = space.full_event()
    for wing, values in zip(wings, per_wing):
        hit = space.empty_event()
        for v in values:
            hit = hit | space.value_event(wing, v)
        ev = ev & hit
    return ev


@pytest.mark.parametrize("gen", [gen_pr_box, gen_ghz], ids=["pr", "ghz"])
class TestRecordEvents:
    def test_setting_and_outcome_events_match_value_unions(self, gen):
        model, _ = gen()
        n = len(model.wings)
        for word in itertools.product((0, 1), repeat=n):
            settings = [(2 * s, 2 * s + 1) for s in word]
            outcomes = [(o, 2 + o) for o in word]
            assert setting_event(model, *word) == union_of_value_events(
                model.space, model.wings, settings
            )
            assert outcome_event(model, *word) == union_of_value_events(
                model.space, model.wings, outcomes
            )

    def test_wrong_tuple_length_refused(self, gen):
        model, _ = gen()
        n = len(model.wings)
        for bad in ((0,) * (n - 1), (0,) * (n + 1)):
            with pytest.raises(ValueError, match="one value per wing"):
                setting_event(model, *bad)
            with pytest.raises(ValueError, match="one value per wing"):
                outcome_event(model, *bad)


class TestDefaultResolutionBasis:
    def test_overlaps_comfortably_nonzero(self):
        cfg = EprbConfig()
        assert cfg.overlaps().min() >= 0.1


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"resolution_basis": np.eye(3)}, "resolution basis must be 4x4"),
        ({"initial_state": [1.0, 0.0]}, "initial state must have four components"),
    ],
    ids=["basis shape", "state length"],
)
def test_input_refusals(kwargs, message):
    with pytest.raises(ValueError, match=message):
        EprbConfig(**kwargs)
