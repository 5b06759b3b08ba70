import json
import os

import numpy as np
import pytest

from qmeasure import serialization as io
from qmeasure import (
    HistorySpace,
    SkCircuitConfig,
    Tolerance,
    gen_pr_box,
    gen_sk_circuit,
    quantum_patch,
)
from qmeasure.patching import SETTING_KEYS
from qmeasure.sk_model import decoupled_demo_config


class TestSpaceRoundTrip:
    def test_double_slit(self, double_slit):
        space, _, _ = double_slit
        from_array = HistorySpace(
            points=space.points,
            histories=np.array(space.value_matrix.tolist(), dtype=np.uint16),
            labels=space.labels,
        )
        assert np.array_equal(from_array.value_matrix, space.value_matrix)
        assert from_array.alphabets == space.alphabets
        for sp in (space, from_array):
            back = io.space_from_json(json.loads(json.dumps(io.space_to_json(sp))))
            assert back.points == sp.points
            assert back.value_matrix.tolist() == sp.value_matrix.tolist()
            assert back.labels == sp.labels
            assert back.alphabets == sp.alphabets

    @pytest.mark.parametrize("labels", ["", 0, False, None, []])
    def test_present_labels_must_name_every_history(self, double_slit, labels):
        doc = io.space_to_json(double_slit[0])
        doc["labels"] = labels
        with pytest.raises((TypeError, ValueError), match="labels"):
            io.space_from_json(doc)
        del doc["labels"]
        assert io.space_from_json(doc).labels is None

    def test_events(self, double_slit):
        space, _, _ = double_slit
        ev = space.event_from_indices([0, 2])
        back = io.event_from_json(space, io.event_to_json(ev))
        assert back == ev


class TestOrderRoundTrip:
    def test_covers_regenerate_relation(self, double_slit):
        _, order, _ = double_slit
        back = io.order_from_json(io.order_to_json(order))
        assert back.points == order.points
        assert np.array_equal(back.leq, order.leq)

    def test_diamond(self):
        from qmeasure import CausalOrder

        o = CausalOrder.from_covers(
            ("a", "b", "c", "d"),
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        )
        back = io.order_from_json(io.order_to_json(o))
        assert np.array_equal(back.leq, o.leq)


class TestDcfRoundTrip:
    def test_dense(self, double_slit):
        _, _, dcf = double_slit
        back = io.dcf_from_json(io.dcf_to_json(dcf))
        assert np.allclose(back.matrix, dcf.matrix)
        assert back.space.value_matrix.tolist() == dcf.space.value_matrix.tolist()

    def test_lazy_serializes_as_circuit(self):
        cfg = decoupled_demo_config(steps=2)
        model = gen_sk_circuit(cfg)
        with pytest.raises(ValueError):
            io.dcf_to_json(model.dcf)
        doc = {"skmodel": io.sk_config_to_json(cfg)}
        back = io.dcf_from_json(doc)
        omega = back.space.full_event()
        assert back.evaluate(omega, omega) == pytest.approx(1.0, abs=1e-12)


class TestSkConfigRoundTrip:
    def test_pure(self):
        cfg = decoupled_demo_config(steps=2)
        back = io.sk_config_from_json(io.sk_config_to_json(cfg))
        assert back.sites == cfg.sites and back.steps == cfg.steps
        assert back.t_f == cfg.t_f
        assert len(back.gates) == len(cfg.gates)
        for g1, g2 in zip(back.gates, cfg.gates):
            assert g1.layer == g2.layer and g1.sites == g2.sites
            assert np.allclose(g1.matrix, g2.matrix)
        assert dict(back.regions) == dict(cfg.regions)

    def test_mixed(self):
        from qmeasure import SkCircuitConfig

        rho = np.zeros((2, 4), dtype=complex)
        rho[0, 0] = np.sqrt(0.6)
        rho[1, 3] = np.sqrt(0.4) * 1j
        cfg = SkCircuitConfig(sites=2, steps=0, psi=rho)
        back = io.sk_config_from_json(io.sk_config_to_json(cfg))
        assert np.allclose(back.psi, cfg.psi)


class TestScenarioRoundTrip:
    def test_eprb(self, eprb_scenario):
        doc = io.scenario_to_json(eprb_scenario)
        back = io.scenario_from_json(doc)
        assert back.z_points == eprb_scenario.z_points
        for key in SETTING_KEYS:
            t1 = eprb_scenario.theory(*key)
            t2 = back.theory(*key)
            assert np.allclose(t1.dcf.matrix, t2.dcf.matrix)
            assert [e.indices() for e in t1.beam_a] == [e.indices() for e in t2.beam_a]
        assert back.validate().passed

    def test_path_reference(self, tmp_path, eprb_scenario):
        doc = io.scenario_to_json(eprb_scenario)
        ab = doc["theories"]["ab"]
        io.dump_json(ab["dcf"], str(tmp_path / "ab_dcf.json"))
        ab["dcf"] = "ab_dcf.json"
        io.dump_json(doc, str(tmp_path / "scenario.json"))
        back = io.scenario_from_json(
            io.load_json(str(tmp_path / "scenario.json")), str(tmp_path)
        )
        assert back.validate().passed


class TestReadInputTolerance:
    """`read_input(path, tol)` builds every functional at `tol`, dense or
    lazy, of a model, a lone functional or each scenario theory."""

    @pytest.fixture
    def inputs(self, tmp_path, double_slit, eprb_scenario):
        _, order, dcf = double_slit
        (tmp_path / "ds").mkdir()
        io.dump_json(io.dcf_to_json(dcf), str(tmp_path / "ds" / "dcf.json"))
        io.dump_json(io.order_to_json(order), str(tmp_path / "ds" / "order.json"))
        io.dump_json({"dcf": "ds/dcf.json", "order": "ds/order.json"}, str(tmp_path / "model.json"))
        cfg = decoupled_demo_config(steps=2)
        io.dump_json(io.sk_config_to_json(cfg), str(tmp_path / "sk.json"))
        io.dump_json({"skmodel": "sk.json"}, str(tmp_path / "lazy.json"))
        (tmp_path / "eprb").mkdir()
        io.dump_json(io.scenario_to_json(eprb_scenario), str(tmp_path / "eprb" / "scenario.json"))
        return tmp_path

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("ds", "model"),
            ("model.json", "model"),
            ("ds/dcf.json", "dcf"),
            ("lazy.json", "dcf"),
            ("eprb", "scenario"),
            ("eprb/scenario.json", "scenario"),
        ],
    )
    def test_every_functional_is_built_at_tol(self, inputs, name, kind):
        got, obj = io.read_input(str(inputs / name), Tolerance(1e-6))
        assert got == kind
        if kind == "model":
            functionals = [obj[0]]
        elif kind == "dcf":
            functionals = [obj]
        else:
            functionals = [obj.theory(*key).dcf for key in SETTING_KEYS]
        assert len(functionals) == (4 if kind == "scenario" else 1)
        assert all(f.tol.rel == 1e-6 for f in functionals)
        assert name != "lazy.json" or not obj.is_dense

    def test_circuit_document_is_still_its_config(self, inputs):
        kind, cfg = io.read_input(str(inputs / "sk.json"), Tolerance(1e-6))
        assert kind == "skmodel" and isinstance(cfg, SkCircuitConfig)
        assert gen_sk_circuit(cfg, Tolerance(1e-6)).dcf.tol.rel == 1e-6


class TestJointAndTables:
    def test_joint_dcf_round_trip(self, eprb_scenario):
        jd = quantum_patch(eprb_scenario)
        back = io.joint_dcf_from_json(io.joint_dcf_to_json(jd))
        assert np.allclose(back.values, jd.values)
        assert back.ordering == jd.ordering

    def test_table_round_trip(self):
        _, table = gen_pr_box()
        back = io.table_from_json(io.table_to_json(table))
        for key in SETTING_KEYS:
            assert np.allclose(back.tables[key], table.tables[key])

    def test_beam_dcfs_round_trip(self):
        model, _ = gen_pr_box()
        back = io.beam_dcfs_from_json(io.beam_dcfs_to_json(model.beam_dcfs))
        for key in SETTING_KEYS:
            assert np.allclose(back[key], model.beam_dcfs[key])


class TestMalformedInput:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_matrix_refuses_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            io.matrix_from_json([[[1.0, 0.0], [0.0, bad]]])

    @pytest.mark.parametrize(
        "rows",
        [[[1.0, 0.0]], [[[1.0, "x"]]], [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
         [[[1.0, 0.0, 0.0]]], [[[None, 0.0]]], 3, None],
    )
    def test_matrix_refuses_malformed_rows(self, rows):
        with pytest.raises(ValueError, match="pairs"):
            io.matrix_from_json(rows)

    def test_matrix_round_trip_is_exact(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        assert np.array_equal(io.matrix_from_json(io.matrix_to_json(m)), m)

    @staticmethod
    def _beam_doc():
        model, _ = gen_pr_box()
        return io.beam_dcfs_to_json(model.beam_dcfs)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_beam_dcfs_refuse_non_finite_entries(self, bad):
        doc = self._beam_doc()
        doc["a'b'"]["matrix"][1][2][1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            io.beam_dcfs_from_json(doc)

    @pytest.mark.parametrize(
        "slots", [2, [2], [2, 2, 1], [2, 0], [-2, -2], [2.0, 2.0], [True, 2], ["2", 2], None]
    )
    def test_beam_dcfs_refuse_malformed_slots(self, slots):
        doc = self._beam_doc()
        doc["ab'"]["slots"] = slots
        with pytest.raises(ValueError, match="ab': slots must be 2 positive integers"):
            io.beam_dcfs_from_json(doc)

    def test_beam_dcfs_refuse_non_square_matrix(self):
        doc = self._beam_doc()
        doc["ab"]["matrix"] = [row[:2] for row in doc["ab"]["matrix"]]
        with pytest.raises(ValueError, match="not square"):
            io.beam_dcfs_from_json(doc)

    @pytest.mark.parametrize("slots", [[1, 2], [2, 3], [4, 4]])
    def test_beam_dcfs_refuse_slots_that_do_not_fit(self, slots):
        doc = self._beam_doc()
        doc["ab"]["slots"] = slots
        with pytest.raises(ValueError, match="does not fit"):
            io.beam_dcfs_from_json(doc)

    def test_beam_dcfs_refuse_mixed_outcome_shapes(self):
        doc = self._beam_doc()
        doc["ab"]["slots"] = [4, 1]
        with pytest.raises(ValueError, match="one outcome shape"):
            io.beam_dcfs_from_json(doc)

    def test_joint_refuses_malformed_slots(self, eprb_scenario):
        doc = io.joint_dcf_to_json(quantum_patch(eprb_scenario))
        doc["slots"] = 2
        with pytest.raises(ValueError, match="slots must be 5 positive integers"):
            io.joint_dcf_from_json(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_dump_json_refuses_a_non_finite_number_and_writes_no_file(tmp_path, bad):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        io.dump_json({"rows": [[0.5, bad]]}, str(path))
    assert not path.exists()
