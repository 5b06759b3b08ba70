import numpy as np
import pytest

from conftest import atom_events, correlation_table, random_factorizable_scenario

from qmeasure import (
    CausalOrder,
    CheckViolation,
    CorrelationTable,
    DecoherenceFunctional,
    JointMeasure,
    SettingScenario,
    SettingTheory,
    Tolerance,
    chsh_value,
    classical_factorizability_residual,
    classical_patch,
    converse_model,
    gen_pr_box,
    joint_feasibility,
    no_signalling_residual,
    patch_marginal_residual,
    quantum_patch,
    region_algebra,
)
from qmeasure.causality import _Spans
from qmeasure.patching import (
    SETTING_KEYS,
    JointDcf,
    _wing_operators,
    classical_marginal_residual,
)


def span_tables(scenario):
    """One fresh span table per theory, as `quantum_patch` makes them."""
    return {key: _Spans(t.dcf) for key, t in scenario.theories.items()}


class TestClassicalFactorizability:
    def test_product_scenarios_factorize(self):
        rng = np.random.default_rng(1)
        sc = random_factorizable_scenario(rng)
        assert classical_factorizability_residual(sc) < 1e-12

    def test_correlated_measure_fails_screening_off(self):
        # single past event, perfectly correlated wings: mu(ab|k) does not
        # factor into mu(a|k) mu(b|k)
        rng = np.random.default_rng(2)
        sc = random_factorizable_scenario(rng, nk=1)
        t = sc.theory(0, 0)
        diag = np.zeros(4)
        diag[0] = diag[3] = 0.5  # uu and dd only
        m = np.diag(diag).astype(complex)
        from qmeasure import DecoherenceFunctional, SettingScenario, SettingTheory

        bad = SettingTheory(
            t.space, t.order,
            DecoherenceFunctional(t.space, matrix=m),
            t.beam_a, t.beam_b,
        )
        sc2 = SettingScenario(
            {**dict(sc.theories), (0, 0): bad}, sc.z_points, sc.a_points, sc.b_points
        )
        assert classical_factorizability_residual(sc2) > 0.1

    def test_quantum_theory_rejected(self, eprb_scenario):
        with pytest.raises(ValueError):
            classical_factorizability_residual(eprb_scenario)


class TestClassicalPatch:
    def test_deterministic_pushforward(self):
        # each past event fixes all four outcomes: the joint is supported
        # on consistent tuples with the past masses
        rng = np.random.default_rng(3)
        sc = random_factorizable_scenario(rng, nk=2)
        jm = classical_patch(sc)
        assert jm.total() == pytest.approx(1.0, abs=1e-12)

    def test_marginals_match_theories(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            sc = random_factorizable_scenario(rng, nk=int(rng.integers(1, 5)))
            jm = classical_patch(sc)
            assert classical_marginal_residual(jm, sc) < 1e-12

    def test_zero_mass_rule(self):
        rng = np.random.default_rng(7)
        sc = random_factorizable_scenario(rng, nk=3, zero_mass_k=True)
        jm = classical_patch(sc)
        assert np.abs(jm.values[..., 0]).max() == 0.0
        assert classical_marginal_residual(jm, sc) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        sc = random_factorizable_scenario(rng)
        jm = classical_patch(sc)
        assert jm.values.min() >= 0.0

    def test_beam_marginal_respects_chsh_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            sc = random_factorizable_scenario(rng, nk=int(rng.integers(1, 4)))
            jm = classical_patch(sc)
            assert chsh_value(jm.correlation_table()) <= 2.0 + 1e-9

    def test_non_factorizable_refused(self, eprb_scenario):
        with pytest.raises(ValueError):
            classical_patch(eprb_scenario)

    def test_cell_values_read_once_per_theory(self, monkeypatch):
        # the factorizability gate and the masses share one read per theory
        sc = random_factorizable_scenario(np.random.default_rng(13))
        calls = []
        read = SettingScenario.cell_values

        def counted(self, *key):
            calls.append(key)
            return read(self, *key)

        monkeypatch.setattr(SettingScenario, "cell_values", counted)
        classical_patch(sc)
        assert sorted(calls) == list(SETTING_KEYS)


# Per-event references: every value is one evaluate or measure call on an
# intersection of beam events and past atoms.

def past_atoms(sc, key):
    t = sc.theory(*key)
    return atom_events(region_algebra(t.space, sc.z_points))


def reference_beam_dcfs(sc):
    out = {}
    for key, t in sc.theories.items():
        cells = [ea & eb for ea in t.beam_a for eb in t.beam_b]
        vals = np.array([[t.dcf.evaluate(e, f) for f in cells] for e in cells])
        out[key] = vals.reshape(len(t.beam_a), len(t.beam_b), len(t.beam_a), len(t.beam_b))
    return out


def reference_tables(sc):
    return {
        key: np.array([[t.dcf.measure(ea & eb) for eb in t.beam_b] for ea in t.beam_a])
        for key, t in sc.theories.items()
    }


def reference_classical_residual(sc):
    worst = 0.0
    for key, t in sc.theories.items():
        mu = t.dcf.measure
        for g in past_atoms(sc, key):
            for ea in t.beam_a:
                for eb in t.beam_b:
                    gap = mu(ea & eb & g) * mu(g) - mu(ea & g) * mu(eb & g)
                    worst = max(worst, abs(gap))
    return worst


def reference_classical_marginal_residual(jm, sc):
    worst = 0.0
    for key in SETTING_KEYS:
        t, marg = sc.theory(*key), jm.setting_marginal(*key)
        for i, ea in enumerate(t.beam_a):
            for j, eb in enumerate(t.beam_b):
                for k, g in enumerate(past_atoms(sc, key)):
                    worst = max(worst, abs(marg[i, j, k] - t.dcf.measure(ea & eb & g)))
    return worst


def reference_patch_marginal_residual(jdcf, sc, key):
    t, marg = sc.theory(*key), jdcf.setting_marginal(*key)
    cells = [
        ((i, j, k), ea & eb & g)
        for i, ea in enumerate(t.beam_a)
        for j, eb in enumerate(t.beam_b)
        for k, g in enumerate(past_atoms(sc, key))
    ]
    return max(
        abs(marg[p + q] - t.dcf.evaluate(e, f)) for p, e in cells for q, f in cells
    )


def correlated_variant(sc):
    """The scenario with theory (0, 0) made perfectly correlated at every
    past atom, which breaks screening off."""
    t = sc.theory(0, 0)
    diag = np.zeros(t.space.size)
    same = t.space.value_matrix[:, 1] % 2 == t.space.value_matrix[:, 2] % 2
    diag[same] = 1.0 / same.sum()
    bad = SettingTheory(
        t.space, t.order, DecoherenceFunctional(t.space, matrix=np.diag(diag)),
        t.beam_a, t.beam_b,
    )
    return SettingScenario(
        {**dict(sc.theories), (0, 0): bad}, sc.z_points, sc.a_points, sc.b_points
    )


class TestCellValues:
    def test_beam_dcfs_and_tables_match_per_event_loops(self, eprb_scenario):
        rng = np.random.default_rng(23)
        scenarios = [eprb_scenario] + [
            random_factorizable_scenario(rng, nk=nk) for nk in (1, 3, 4)
        ]
        for sc in scenarios:
            beams, ref_beams = sc.beam_dcfs(), reference_beam_dcfs(sc)
            tables, ref_tables = correlation_table(sc).tables, reference_tables(sc)
            for key in SETTING_KEYS:
                assert np.abs(beams[key] - ref_beams[key]).max() <= 1e-14
                assert np.abs(tables[key] - ref_tables[key]).max() <= 1e-14

    def test_classical_residuals_match_per_event_loops(self):
        rng = np.random.default_rng(29)
        for nk in (1, 3, 4):
            sc = random_factorizable_scenario(rng, nk=nk, zero_mass_k=nk == 3)
            for s in (sc, correlated_variant(sc)):
                got = classical_factorizability_residual(s)
                assert abs(got - reference_classical_residual(s)) <= 1e-14
            jm = classical_patch(sc)
            noisy = JointMeasure(jm.values + rng.uniform(0, 1e-3, jm.values.shape))
            for j in (jm, noisy):
                got = classical_marginal_residual(j, sc)
                assert abs(got - reference_classical_marginal_residual(j, sc)) <= 1e-14
        assert reference_classical_residual(correlated_variant(sc)) > 0.01

    def test_patch_marginal_residual_matches_per_event_loop(self, eprb_scenario):
        rng = np.random.default_rng(31)
        jd = quantum_patch(eprb_scenario)
        noise = rng.normal(size=jd.values.shape) + 1j * rng.normal(size=jd.values.shape)
        for j in (jd, JointDcf(jd.values + 1e-3 * noise)):
            for key in SETTING_KEYS:
                got = patch_marginal_residual(j, eprb_scenario, *key)
                ref = reference_patch_marginal_residual(j, eprb_scenario, key)
                assert abs(got - ref) <= 1e-14

    @pytest.mark.parametrize("wing", ["a", "b"])
    def test_beam_events_must_partition(self, eprb_scenario, wing):
        t = eprb_scenario.theory(0, 1)
        events = t.beam_a if wing == "a" else t.beam_b
        for broken in ((events[0] | events[1], events[1]), (events[0],), ()):
            beams = (broken, t.beam_b) if wing == "a" else (t.beam_a, broken)
            with pytest.raises(
                ValueError, match="^beam events must partition the history space$"
            ):
                SettingTheory(t.space, t.order, t.dcf, *beams)

    def test_beam_event_of_another_space_refused(self, eprb_scenario):
        t, other = eprb_scenario.theory(0, 0), eprb_scenario.theory(0, 1)
        for beams in ((other.beam_a, t.beam_b), (t.beam_a, other.beam_b)):
            with pytest.raises(
                ValueError, match="^beam event belongs to a different history space$"
            ):
                SettingTheory(t.space, t.order, t.dcf, *beams)

    def test_functional_of_another_space_refused(self, eprb_scenario):
        # theories (0, 0) and (0, 1) have equal-sized spaces, so the
        # mixed theory would read one space's beams against the other's
        # functional
        t00, t01 = eprb_scenario.theory(0, 0), eprb_scenario.theory(0, 1)
        with pytest.raises(
            ValueError, match="^the functional belongs to a different history space$"
        ):
            SettingTheory(t01.space, t00.order, t00.dcf, t01.beam_a, t01.beam_b)

    def test_order_with_other_points_refused(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        wider = CausalOrder.from_covers((*t.order.points, "extra"), [("z", "wa"), ("z", "wb")])
        with pytest.raises(
            ValueError, match="^history space and causal order use different points$"
        ):
            SettingTheory(t.space, wider, t.dcf, t.beam_a, t.beam_b)

    def test_beam_pair_is_each_histories_beam_cell(self, eprb_scenario):
        for t in eprb_scenario.theories.values():
            nb = len(t.beam_b)
            for i, ea in enumerate(t.beam_a):
                for j, eb in enumerate(t.beam_b):
                    assert ((t.beam_pair == i * nb + j) == (ea & eb).flags).all()
            assert not t.beam_pair.flags.writeable

    def test_missing_setting_refused(self, eprb_scenario):
        theories = {k: t for k, t in eprb_scenario.theories.items() if k != (1, 1)}
        with pytest.raises(ValueError, match=r"^scenario lacks settings \[\(1, 1\)\]$"):
            SettingScenario(
                theories, eprb_scenario.z_points, eprb_scenario.a_points, eprb_scenario.b_points
            )


class TestScenarioConstruction:
    """A scenario's settings, point names and geometry are checked once,
    when it is built, one geometry check per distinct causal order."""

    @pytest.fixture
    def geometry_calls(self, monkeypatch):
        from qmeasure import patching

        calls = []
        check = patching.validate_scenario_geometry

        def counted(*args):
            calls.append(args[0])
            return check(*args)

        monkeypatch.setattr(patching, "validate_scenario_geometry", counted)
        return calls

    def test_geometry_checked_once_per_order(self, geometry_calls):
        from qmeasure import gen_eprb
        from qmeasure import serialization as io

        sc = gen_eprb()  # one order shared by the four theories
        assert len(geometry_calls) == 1
        doc = io.scenario_to_json(sc)
        back = io.scenario_from_json(doc)  # four equal order documents, one order
        assert len(geometry_calls) == 2
        assert {t.order for t in back.theories.values()} == {geometry_calls[1]}
        doc["theories"]["a'b'"]["order"]["covers"].reverse()  # the same order, spelt apart
        apart = io.scenario_from_json(doc)
        assert len(geometry_calls) == 4
        assert apart.theory(1, 1).order is geometry_calls[3] is not geometry_calls[2]
        quantum_patch(back)
        classical_patch(random_factorizable_scenario(np.random.default_rng(5)))
        assert len(geometry_calls) == 5  # the classical scenario's build alone

    def test_one_bad_order_refused(self, eprb_scenario):
        # wings in causal contact under theory (1, 1)'s order alone
        t = eprb_scenario.theory(1, 1)
        chain = CausalOrder.from_covers(("z", "wa", "wb"), [("z", "wa"), ("wa", "wb")])
        theories = {
            **dict(eprb_scenario.theories),
            (1, 1): SettingTheory(t.space, chain, t.dcf, t.beam_a, t.beam_b),
        }
        with pytest.raises(ValueError, match="^scenario geometry invalid: ") as refused:
            SettingScenario(theories, ("z",), ("wa",), ("wb",))
        assert "'wings_spacelike': False" in str(refused.value)

    def test_past_swapped_with_a_wing_refused(self, eprb_scenario):
        with pytest.raises(ValueError, match="^scenario geometry invalid: "):
            SettingScenario(eprb_scenario.theories, ("wa",), ("z",), ("wb",))

    def test_unknown_point_refused(self, eprb_scenario):
        with pytest.raises(ValueError, match="^unknown point 'q'$"):
            SettingScenario(eprb_scenario.theories, ("z",), ("wa",), ("q",))

    def test_extra_setting_refused(self, eprb_scenario):
        theories = {**dict(eprb_scenario.theories), (2, 0): eprb_scenario.theory(0, 0)}
        with pytest.raises(ValueError, match=r"^scenario has settings \[\(2, 0\)\] beyond "):
            SettingScenario(theories, ("z",), ("wa",), ("wb",))

    def test_theories_read_only_and_names_tuples(self, eprb_scenario):
        sc = SettingScenario(dict(eprb_scenario.theories), ["z"], ["wa"], ["wb"])
        with pytest.raises(TypeError):
            sc.theories[(0, 0)] = "junk"
        assert sc.theory(0, 0) is eprb_scenario.theory(0, 0)
        assert (sc.z_points, sc.a_points, sc.b_points) == (("z",), ("wa",), ("wb",))


class TestMarginalize:
    def test_sum_over_everything(self):
        rng = np.random.default_rng(13)
        sc = random_factorizable_scenario(rng)
        jm = classical_patch(sc)
        assert float(jm.values.sum()) == pytest.approx(1.0, abs=1e-12)


class TestChsh:
    def test_pr_box_reaches_four(self):
        _, table = gen_pr_box()
        assert chsh_value(table) == 4.0

    def test_quantum_scenario_reaches_tsirelson(self, eprb_scenario):
        value = chsh_value(correlation_table(eprb_scenario))
        assert value == pytest.approx(2 * np.sqrt(2), abs=1e-6)

    def test_malformed_table_rejected(self):
        with pytest.raises(ValueError):
            CorrelationTable({k: np.full((2, 2), 0.3) for k in SETTING_KEYS})
        # NaN passes both the sign and the sum test
        nan = np.array([[np.nan, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError):
            CorrelationTable({k: nan for k in SETTING_KEYS})


class TestQuantumPatch:
    def test_hermitian_and_psd(self, eprb_scenario):
        jd = quantum_patch(eprb_scenario)
        assert jd.hermiticity_residual() < 1e-12
        assert jd.min_eigenvalue() >= -1e-9
        assert jd.normalization_residual() < 1e-9

    def test_setting_marginals(self, eprb_scenario):
        jd = quantum_patch(eprb_scenario)
        for key in SETTING_KEYS:
            assert patch_marginal_residual(jd, eprb_scenario, *key) < 1e-9

    def test_ordering_changes_array_but_not_marginals(self, eprb_scenario):
        jd1 = quantum_patch(eprb_scenario)
        jd2 = quantum_patch(eprb_scenario, ordering=("ap", "a", "bp", "b"))
        assert np.abs(jd1.values - jd2.values).max() > 1e-6
        for key in SETTING_KEYS:
            assert patch_marginal_residual(jd2, eprb_scenario, *key) < 1e-9

    def test_beam_joint_marginals(self, eprb_scenario):
        jd = quantum_patch(eprb_scenario)
        beam = jd.beam_joint()
        dcfs = eprb_scenario.beam_dcfs()
        # eg setting ab: sum over primed labels on both sides
        got = beam.sum(axis=(1, 3, 5, 7))
        assert np.abs(got - dcfs[(0, 0)]).max() < 1e-9

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_wing_operators_match_per_event_operators(self, eprb_scenario, seed):
        # one past span per theory gives the frames of one span per event
        from qmeasure import EprbConfig, event_operator, gen_eprb

        sc = eprb_scenario
        if seed is not None:
            rng = np.random.default_rng(seed)
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            angles = tuple(float(a) for a in rng.uniform(0.0, np.pi, size=4))
            sc = gen_eprb(EprbConfig(angles=angles, resolution_basis=np.linalg.qr(raw)[0]))
        ops = _wing_operators(sc, span_tables(sc))
        for sym, key in {"a": (0, 0), "ap": (1, 0), "b": (0, 0), "bp": (0, 1)}.items():
            t = sc.theory(*key)
            points, events = (
                (sc.a_points, t.beam_a) if sym[0] == "a" else (sc.b_points, t.beam_b)
            )
            frames = [
                event_operator(t.dcf, t.order, points, e, sc.z_points).frame_matrix
                for e in events
            ]
            assert len(ops[sym]) == len(frames) == 2
            assert all(np.array_equal(x, y) for x, y in zip(ops[sym], frames))

    def test_wing_operators_build_three_spans_and_four_algebras(
        self, eprb_scenario, monkeypatch
    ):
        import qmeasure.causality as causality

        calls = dict.fromkeys(("region_span", "region_algebra"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(causality, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(causality, name, counted)
        _wing_operators(eprb_scenario, span_tables(eprb_scenario))
        assert calls == {"region_span": 3, "region_algebra": 4}

    def test_one_span_table_per_theory_per_call(self, eprb_scenario, monkeypatch):
        # five point sets per theory, shared by PoZ, LoN and the wing operators
        import qmeasure.causality as causality
        import qmeasure.patching as patching

        calls = dict.fromkeys(("svd", "region_span", "down_sets"), 0)

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        for module, name in ((causality, "region_span"), (patching, "down_sets")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        first = quantum_patch(eprb_scenario)
        assert calls == {"svd": 20, "region_span": 20, "down_sets": 1}
        # nothing outlives the call: the functionals keep only their own
        # cached factor and live histories, and a second call builds every
        # span again
        fields = {k: set(vars(t.dcf)) for k, t in eprb_scenario.theories.items()}
        assert np.array_equal(quantum_patch(eprb_scenario).values, first.values)
        assert calls == {"svd": 40, "region_span": 40, "down_sets": 2}
        assert fields == {k: set(vars(t.dcf)) for k, t in eprb_scenario.theories.items()}

    def test_ket_axes_must_match_bra_axes(self):
        with pytest.raises(ValueError, match="^joint functional's ket axes must match"):
            JointDcf(np.zeros((2, 2, 2, 2, 4, 2, 2, 2, 2, 3)))

    def test_lon_failure_refused(self, eprb_computational_basis):
        with pytest.raises(ValueError):
            quantum_patch(eprb_computational_basis)

    @pytest.mark.parametrize("ordering", [("zz",), ("a", "ap", "b"), ("a", "a", "b", "bp")])
    def test_ordering_must_permute_the_operators(self, eprb_scenario, ordering):
        values = quantum_patch(eprb_scenario).values
        message = r"^ordering must permute \('a', 'ap', 'b', 'bp'\)$"
        with pytest.raises(ValueError, match=message):
            JointDcf(values, ordering)
        with pytest.raises(ValueError, match=message):
            quantum_patch(eprb_scenario, ordering)


class TestConverse:
    def test_stock_converse_fails_persistence_of_zero_in_quantum_patch(self, eprb_scenario):
        conv = converse_model(quantum_patch(eprb_scenario).beam_joint())
        with pytest.raises(
            CheckViolation,
            match=r"^theory \(0, 1\) fails persistence of zero \(violation 6\.250e-02\)$",
        ):
            quantum_patch(conv)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda flat: np.eye(15) / 15, r"flat beam joint must be \(n\^4, n\^4\)"),
            (lambda flat: flat.reshape(4, 8, 8), "beam joint must have eight axes"),
            (lambda flat: flat + 0.1 * (np.arange(256).reshape(16, 16) == 1),
             "beam joint is not Hermitian"),
            (lambda flat: 2 * flat, "beam joint is not normalized"),
        ],
    )
    def test_malformed_joint_refused(self, eprb_scenario, mutate, message):
        flat = quantum_patch(eprb_scenario).beam_joint().reshape(16, 16)
        with pytest.raises(ValueError, match=f"^{message}$"):
            converse_model(mutate(flat))

    def test_round_trip_marginals_exact(self, eprb_scenario):
        jd = quantum_patch(eprb_scenario)
        conv = converse_model(jd.beam_joint())
        got = conv.beam_dcfs()
        want = {k: jd.setting_marginal(*k).sum(axis=(2, 5)) for k in SETTING_KEYS}
        for key in SETTING_KEYS:
            assert np.abs(got[key] - want[key]).max() < 1e-12

    def test_output_is_factorizable_exactly(self, eprb_scenario):
        from qmeasure import check_quantum_factorizability

        jd = quantum_patch(eprb_scenario)
        conv = converse_model(jd.beam_joint())
        t = conv.theory(0, 0)
        rep = check_quantum_factorizability(
            t.dcf,
            t.order,
            t.order.region(["z"]),
            t.order.region(["wa"]),
            t.order.region(["wb"]),
        )
        assert rep.exhaustive and rep.max_residual < 1e-12

    def test_output_clauses(self, eprb_scenario):
        from qmeasure import check_lon

        jd = quantum_patch(eprb_scenario)
        conv = converse_model(jd.beam_joint())
        assert conv.validate().passed
        for key, t in conv.theories.items():
            assert check_lon(t.dcf, t.order).passed

    def test_product_joint_gives_product_model(self):
        da = np.diag([0.6, 0.4]).astype(complex)
        db = np.diag([0.5, 0.5]).astype(complex)
        joint = np.einsum("iI,xX,jJ,yY->ixjyIXJY", da, da, db, db)
        joint /= joint.reshape(16, 16).sum()
        conv = converse_model(joint)
        assert classical_factorizability_residual(conv) < 1e-12

    def test_diagonal_joint_is_classical(self, eprb_scenario):
        rng = np.random.default_rng(17)
        diag = rng.dirichlet(np.ones(16))
        joint = np.diag(diag).astype(complex).reshape((2,) * 8)
        conv = converse_model(joint)
        for key, t in conv.theories.items():
            assert t.dcf.is_classical()

    def test_matrices_equal_the_per_history_loop(self, eprb_scenario):
        rng = np.random.default_rng(37)
        vecs = rng.normal(size=(36, 5)) + 1j * rng.normal(size=(36, 5))
        gram = vecs.conj() @ vecs.T
        joints = [quantum_patch(eprb_scenario).beam_joint(), gram / gram.sum()]
        for joint, (na, nb) in zip(joints, [(2, 2), (2, 3)]):
            nkey = na * na * nb * nb
            flat = np.asarray(joint).reshape(nkey, nkey)
            conv = converse_model(flat.reshape((na, na, nb, nb) * 2))

            def bits(key):
                jp, j = key % nb, (key // nb) % nb
                return key // (nb * nb * na), (key // (nb * nb)) % na, j, jp

            for (sa, sb), t in conv.theories.items():
                # one history per key, its wing values the key's outcomes
                histories = [
                    (k, bits(k)[sa] + sa * na, bits(k)[2 + sb] + sb * nb) for k in range(nkey)
                ]
                assert t.space.value_matrix.tolist() == [list(h) for h in histories]
                assert np.array_equal(t.dcf.matrix, flat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_entry_refused(self, eprb_scenario, bad):
        joint = quantum_patch(eprb_scenario).beam_joint().reshape(16, 16)
        joint[3, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            converse_model(joint)

    @pytest.mark.parametrize(
        "ordering, passing",
        [
            (("a", "ap", "b", "bp"), (0, 0)),
            (("ap", "a", "bp", "b"), (1, 1)),
            (("a", "ap", "bp", "b"), (0, 1)),
            (("ap", "a", "b", "bp"), (1, 0)),
        ],
    )
    def test_poz_holds_where_the_operators_apply_last(self, eprb_scenario, ordering, passing):
        # the theory of the settings listed first on each wing (applied
        # last) keeps persistence of zero; the other three lose it
        from qmeasure import check_poz

        conv = converse_model(quantum_patch(eprb_scenario, ordering).beam_joint())
        for key, t in conv.theories.items():
            report = check_poz(t.dcf, t.order)
            if key == passing:
                assert report.passed and report.max_violation < 1e-12
            else:
                assert not report.passed
                assert report.max_violation == pytest.approx(0.0625, abs=1e-9)

    def test_non_psd_rejected(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1] + [0.0] * 12).astype(complex)
        with pytest.raises(ValueError):
            converse_model(m.reshape((2,) * 8))

    def test_non_psd_below_unit_scale_rejected(self):
        # largest eigenvalue below 1: the PSD floor is -1e-9 * 0.5, so an
        # eigenvalue of -7e-10 is negative at the tolerance, and every
        # theory built from it would fail strong positivity
        m = np.diag([0.5, 0.5 + 7e-10, -7e-10] + [0.0] * 13).astype(complex)
        with pytest.raises(CheckViolation, match="not positive semi-definite"):
            converse_model(m.reshape((2,) * 8))


class TestNoSignalling:
    def test_pr_box_exact(self):
        _, table = gen_pr_box()
        assert no_signalling_residual(table.beam_dcfs()) == 0.0

    def test_eprb_tiny(self, eprb_scenario):
        assert no_signalling_residual(eprb_scenario.beam_dcfs()) < 1e-9

    def test_signalling_table_flagged(self):
        tables = {k: np.full((2, 2), 0.25) for k in SETTING_KEYS}
        # wing A outcome distribution depends on wing B's setting
        tables[(0, 1)] = np.array([[0.5, 0.25], [0.0, 0.25]])
        resid = no_signalling_residual(CorrelationTable(tables).beam_dcfs())
        assert resid == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("key", SETTING_KEYS)
    @pytest.mark.parametrize("index", [(0, 0, 0, 0), (1, 1, 0, 1), (1, 0, 1, 1)])
    def test_nan_entry_is_never_skipped(self, key, index):
        # a NaN in any entry of any setting must reach the residual, whichever
        # of the four marginal comparisons it enters and in whichever order
        model, _ = gen_pr_box()
        beam = {k: v.copy() for k, v in model.beam_dcfs.items()}
        beam[key][index] = np.nan
        assert np.isnan(no_signalling_residual(beam))
        with pytest.raises(ValueError, match="no-signalling"):
            joint_feasibility(beam)


def _noisy_box(p):
    """p * box + (1 - p) * uniform, as diagonal beam functionals."""
    model, _ = gen_pr_box()
    uniform = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            uniform[i, j, i, j] = 0.25
    return {k: p * model.beam_dcfs[k] + (1 - p) * uniform for k in SETTING_KEYS}


def _diagonal_table(beam):
    return CorrelationTable(
        {k: np.array([[v[i, j, i, j].real for j in range(2)] for i in range(2)])
         for k, v in beam.items()}
    )


def _to_vec(m):
    """Real coordinates of a Hermitian matrix: the diagonal, then sqrt(2)
    times the real and imaginary parts of the upper triangle."""
    iu = np.triu_indices(m.shape[0], 1)
    off = np.sqrt(2) * m[iu]
    return np.concatenate([np.diag(m).real, off.real, off.imag])


def _setting_marginals(m, na, nb):
    """The four flattened setting marginals of an n x n joint matrix."""
    out = []
    for sa, sb in SETTING_KEYS:
        keep = (sa, 2 + sb, 4 + sa, 6 + sb)
        drop = tuple(ax for ax in range(8) if ax not in keep)
        out.append(m.reshape(na, na, nb, nb, na, na, nb, nb).sum(axis=drop).ravel())
    return out


def _marginal_map_by_columns(na, nb):
    """The four setting marginals (real then imaginary parts) as a matrix
    over real Hermitian coordinates, one coordinate column at a time."""
    n = na * na * nb * nb
    iu = np.triu_indices(n, 1)
    k = iu[0].size
    cols = []
    for c in range(n * n):
        v = np.zeros(n * n)
        v[c] = 1.0
        m = np.zeros((n, n), dtype=complex)
        np.fill_diagonal(m, v[:n])
        m[iu] = (v[n:n + k] + 1j * v[n + k:]) / np.sqrt(2)
        m[(iu[1], iu[0])] = m[iu].conj()
        col = []
        for marg in _setting_marginals(m, na, nb):
            col += [marg.real, marg.imag]
        cols.append(np.concatenate(col))
    return np.array(cols).T


def _marginal_matrix_by_columns(na, nb):
    """The four stacked setting marginals as a matrix on flattened n x n
    matrices, one basis matrix E_kl at a time."""
    n = na * na * nb * nb
    cols = []
    for c in range(n * n):
        e = np.zeros(n * n)
        e[c] = 1.0
        cols.append(np.concatenate(_setting_marginals(e.reshape(n, n), na, nb)))
    return np.array(cols).T


def _check_certificate(beam, report):
    """Re-check a Farkas certificate from its definition, for 2 x 2 outcomes."""
    cert = report.certificate
    assert cert.step == report.iterations
    witness = cert.witness
    assert np.abs(witness - witness.conj().T).max() < 1e-15
    amat = _marginal_map_by_columns(2, 2)
    bvec = np.concatenate(
        [np.concatenate([beam[k].ravel().real, beam[k].ravel().imag])
         for k in SETTING_KEYS]
    )
    # the witness lies in the row space of the marginal map ...
    s_vec = _to_vec(witness)
    coef = np.linalg.lstsq(amat.T, s_vec, rcond=None)[0]
    assert np.linalg.norm(amat.T @ coef - s_vec) < 1e-12 * np.linalg.norm(s_vec)
    # ... so it takes the certified value on every point of the plane
    x_plane = np.linalg.lstsq(amat, bvec, rcond=None)[0]
    assert np.linalg.norm(amat @ x_plane - bvec) < 1e-12
    assert s_vec @ x_plane == pytest.approx(cert.value, rel=1e-9)
    # C = sum over cells of c c^T: how many settings put two labels in one cell
    labels = np.indices((2, 2, 2, 2)).reshape(4, -1)
    cells = np.zeros((16, 16))
    for sa, sb in SETTING_KEYS:
        a, b = labels[sa], labels[2 + sb]
        cells += (a[:, None] == a[None, :]) & (b[:, None] == b[None, :])
    trace = sum(np.trace(beam[k].reshape(4, 4)).real for k in SETTING_KEYS)
    assert cert.slack_term == pytest.approx(cert.delta * trace, rel=1e-12)
    assert np.linalg.eigvalsh(witness + cert.delta * cells).min() > -1e-12
    assert cert.value + cert.delta * trace < 0


def _check_witness(beam, report):
    """Re-check the witness of a feasible verdict from its definition: a
    Hermitian joint with the input marginals, PSD at the floor `validate`
    and `psd_factor` apply."""
    tol, x = report.tol, report.witness
    na, nb = beam[(0, 0)].shape[:2]
    assert np.abs(x - x.conj().T).max() <= tol.matrix_floor(x)
    for key, marg in zip(SETTING_KEYS, _setting_marginals(x, na, nb)):
        assert np.abs(marg - beam[key].ravel()).max() <= tol.matrix_floor(beam[key])
    w = np.linalg.eigvalsh(x)
    assert w[0] >= tol.psd_floor(w[-1])


class TestFeasibility:
    def test_quantum_joint_feasible(self, eprb_scenario):
        beam = eprb_scenario.beam_dcfs()
        report = joint_feasibility(beam)
        assert report.feasible
        assert report.gap < 1e-6
        assert report.iterations < 20000
        _check_witness(beam, report)

    def test_box_certified_infeasible(self):
        model, _ = gen_pr_box()
        report = joint_feasibility(model.beam_dcfs, budget=2000)
        assert report.verdict == "infeasible"
        assert report.gap > 1e-3
        assert report.iterations < 100
        _check_certificate(model.beam_dcfs, report)

    def test_newton_jacobian_is_the_derivative_of_the_gradient(self):
        # theta's gradient z -> Re<E_k, Pi+(X0 + A*z)> is differentiable
        # where no eigenvalue is 0; there V d is its directional derivative
        from qmeasure.patching import _constraint_maps, _generalized_jacobian

        basis = _constraint_maps(2, 2)[3]
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        z, d = rng.normal(size=(2, len(basis)))

        def point(zz):
            w, u = np.linalg.eigh(x0 + x0.conj().T + np.einsum("k,kij->ij", zz, basis))
            grad = np.einsum("kij,ij->k", basis.conj(), (u * np.maximum(w, 0.0)) @ u.conj().T)
            return w, u, grad.real

        w, u, _ = point(z)
        assert np.abs(w).min() > 1e-3
        h = 1e-5
        slope = (point(z + h * d)[2] - point(z - h * d)[2]) / (2 * h)
        jac = _generalized_jacobian(basis, w, u)
        assert np.abs(jac - jac.T).max() < 1e-12
        assert np.abs(jac @ d - slope).max() < 1e-7 * np.abs(slope).max()

    def test_box_undecided_below_certifying_step(self):
        # 1e-8 above Tsirelson's line the gap, 1.25e-9, is of the size of
        # the tolerance, and no certificate comes within 200 steps
        report = joint_feasibility(_noisy_box(2 ** -0.5 + 1e-8), budget=200)
        assert report.verdict == "undecided-infeasible"
        assert report.iterations == 200
        assert report.certificate is None
        assert "certificate" not in report.as_dict()

    @pytest.mark.parametrize("budget", [8, 200, 1000])
    def test_box_refuted_just_above_tsirelson(self, budget):
        # the unit-norm correction certifies v = 0.7072 whatever the budget
        beam = _noisy_box(0.7072)
        report = joint_feasibility(beam, budget=budget)
        assert (report.verdict, report.iterations) == ("infeasible", 7)
        _check_certificate(beam, report)

    def test_scaled_box_refuted_as_fast(self):
        # the candidates' unit norm makes the certificate scale-free
        beam = {k: 1e-3 * v for k, v in _noisy_box(0.71).items()}
        report = joint_feasibility(beam)
        assert report.verdict == "infeasible" and report.iterations <= 10
        _check_certificate(beam, report)

    @pytest.mark.parametrize("p", [0.6, 0.7])
    def test_noisy_box_below_tsirelson_feasible(self, p):
        beam = _noisy_box(p)
        assert chsh_value(_diagonal_table(beam)) == pytest.approx(4 * p)
        report = joint_feasibility(beam)
        assert report.verdict == "feasible"
        assert report.gap < 1e-6
        assert report.certificate is None
        _check_witness(beam, report)

    def test_product_table_feasible(self):
        # product tables are local, so a joint exists; 3 x 2 outcomes
        rng = np.random.default_rng(4)
        pa = rng.dirichlet(np.ones(3), size=2)
        pb = rng.dirichlet(np.ones(2), size=2)
        table = CorrelationTable(
            {(sa, sb): np.outer(pa[sa], pb[sb]) for sa, sb in SETTING_KEYS}
        )
        beam = table.beam_dcfs()
        report = joint_feasibility(beam)
        assert report.verdict == "feasible"
        _check_witness(beam, report)

    @pytest.mark.parametrize("p", [0.75, 0.9])
    def test_noisy_box_above_tsirelson_certified(self, p):
        beam = _noisy_box(p)
        assert chsh_value(_diagonal_table(beam)) == pytest.approx(4 * p)
        report = joint_feasibility(beam)
        assert report.verdict == "infeasible"
        assert report.as_dict()["certificate"] == {
            "value": report.certificate.value,
            "slack_term": report.certificate.slack_term,
            "step": report.iterations,
        }
        _check_certificate(beam, report)

    @pytest.mark.parametrize(
        "v, verdict", [(2 ** -0.5 - 1e-3, "feasible"), (2 ** -0.5 + 3e-3, "infeasible")]
    )
    def test_noisy_box_decided_at_tsirelson_line(self, v, verdict):
        # strong positivity of the noisy box switches at v = 1/sqrt(2), CHSH
        # 2 sqrt(2) (Craig et al., J. Phys. A 40 (2007) 501); both sides of
        # the line are decided within the default budget
        beam = _noisy_box(v)
        report = joint_feasibility(beam)
        assert report.verdict == verdict
        if verdict == "feasible":
            _check_witness(beam, report)
        else:
            _check_certificate(beam, report)

    @pytest.mark.parametrize("na, nb", [(2, 2), (3, 2)])
    def test_constraint_map_matches_column_build(self, na, nb):
        from qmeasure.patching import _constraint_maps

        amat = _constraint_maps(na, nb)[0]
        assert np.array_equal(amat, _marginal_matrix_by_columns(na, nb))

    @pytest.mark.parametrize("na, nb", [(2, 2), (3, 2)])
    def test_newton_basis_spans_the_hermitian_row_space(self, na, nb):
        # the dual variables of the Newton steps: an orthonormal basis of the
        # Hermitian matrices in the row space of the marginal map
        from qmeasure.patching import _constraint_maps

        amat, apinv, _, basis = _constraint_maps(na, nb)
        flat = basis.reshape(len(basis), -1)
        assert np.array_equal(basis, basis.conj().swapaxes(1, 2))
        assert len(basis) == np.linalg.matrix_rank(amat)
        assert np.abs(flat.conj() @ flat.T - np.eye(len(basis))).max() < 1e-13
        assert np.abs(flat.T @ flat.conj() - apinv @ amat).max() < 1e-13

    @pytest.mark.parametrize(
        "source, verdict, iterations",
        [
            ("stock", "feasible", 7),
            ("box", "infeasible", 2),
            (0.6, "feasible", 6),
            (0.7, "feasible", 7),
            (0.75, "infeasible", 5),
            (0.9, "infeasible", 2),
        ],
    )
    def test_pinned_verdicts_and_iterations(self, eprb_scenario, source, verdict, iterations):
        if source == "stock":
            beam = eprb_scenario.beam_dcfs()
        elif source == "box":
            beam = gen_pr_box()[0].beam_dcfs
        else:
            beam = _noisy_box(source)
        report = joint_feasibility(beam)
        assert (report.verdict, report.iterations) == (verdict, iterations)

    def test_generic_spin_pairs_feasible(self):
        # draws 1 and 2 of this family stalled at the budget while the
        # affine projection weighed off-diagonal entries half as much as
        # the Frobenius metric of the PSD projection
        from qmeasure import EprbConfig, gen_eprb

        rng = np.random.default_rng(1)
        draws = []
        for _ in range(3):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            basis, _ = np.linalg.qr(raw)
            angles = tuple(float(a) for a in rng.uniform(0.0, np.pi, size=4))
            draws.append(EprbConfig(angles=angles, resolution_basis=basis))
        for cfg in draws[1:]:
            beam = gen_eprb(cfg).beam_dcfs()
            report = joint_feasibility(beam)
            assert report.verdict == "feasible"
            assert report.gap < 1e-6
            _check_witness(beam, report)

    def test_deterministic(self, eprb_scenario):
        r1 = joint_feasibility(eprb_scenario.beam_dcfs())
        r2 = joint_feasibility(eprb_scenario.beam_dcfs())
        assert r1.gap == r2.gap and r1.iterations == r2.iterations

    def test_signalling_input_rejected(self):
        model, _ = gen_pr_box()
        beam = {k: v.copy() for k, v in model.beam_dcfs.items()}
        beam[(0, 0)][0, 0, 0, 0] += 0.2
        with pytest.raises(ValueError):
            joint_feasibility(beam)

    def test_non_hermitian_input_refused(self):
        # the same entry added to every setting keeps the inputs
        # no-signalling, but no Hermitian joint has these marginals
        beam = _noisy_box(0.6)
        for key in SETTING_KEYS:
            beam[key][0, 0, 0, 1] += 1e-3j
        assert no_signalling_residual(beam) == 0.0
        with pytest.raises(ValueError, match="not Hermitian"):
            joint_feasibility(beam)

    @pytest.mark.parametrize("factor", [1e-3, 1e3])
    def test_scaled_inputs_take_the_same_steps(self, eprb_scenario, factor):
        # the regularization is relative, so the iterates scale with the inputs
        for beam in (eprb_scenario.beam_dcfs(), _noisy_box(0.7)):
            report = joint_feasibility(beam)
            scaled = {k: factor * v for k, v in beam.items()}
            rescaled = joint_feasibility(scaled)
            assert (rescaled.verdict, rescaled.iterations) == ("feasible", report.iterations)
            _check_witness(scaled, rescaled)

    def test_signalling_refused_at_the_tolerance(self):
        # move 1e-7 of mass between outcomes of wing A under setting (0, 0):
        # no marginal plane holds these inputs at the default tolerance
        beam = _noisy_box(0.6)
        beam[(0, 0)][0, 0, 0, 0] -= 1e-7
        beam[(0, 0)][1, 0, 1, 0] += 1e-7
        assert no_signalling_residual(beam) == pytest.approx(1e-7, rel=1e-6)
        with pytest.raises(ValueError, match="no-signalling"):
            joint_feasibility(beam)
        report = joint_feasibility(beam, tol=Tolerance(1e-6))
        assert report.verdict == "feasible"
        _check_witness(beam, report)


class TestJointMeasureValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            JointMeasure(-np.ones((2, 2, 2, 2, 1)))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            JointMeasure(np.ones((2, 2, 2, 2)))


class TestDegenerateScenario:
    def test_duplicated_settings_collapse(self):
        # both wing settings equal: the patched joint must reproduce one
        # single-setting functional in every setting marginal
        from qmeasure import EprbConfig, gen_eprb

        sc = gen_eprb(EprbConfig(angles=(0.4, 0.4, 1.1, 1.1)))
        jd = quantum_patch(sc)
        margs = [jd.setting_marginal(*k) for k in SETTING_KEYS]
        for m in margs[1:]:
            assert np.abs(m - margs[0]).max() < 1e-9
        for key in SETTING_KEYS:
            assert patch_marginal_residual(jd, sc, *key) < 1e-9


class TestRandomStateScenarios:
    @pytest.mark.parametrize("seed", [2, 5, 11])
    def test_pipeline_for_generic_states(self, seed):
        # the machinery is state-agnostic: any pure state with a
        # non-degenerate resolution basis must clear every clause and patch
        from qmeasure import EprbConfig, check_lon, check_poz, gen_eprb

        rng = np.random.default_rng(seed)
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        state /= np.linalg.norm(state)
        basis, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        overlaps = np.abs(basis.conj().T @ state)
        if overlaps.min() < 1e-3:
            pytest.skip("degenerate draw")
        angles = tuple(rng.uniform(0, np.pi, size=4))
        sc = gen_eprb(
            EprbConfig(angles=angles, resolution_basis=basis, initial_state=state)
        )
        assert sc.validate().passed
        for key, t in sc.theories.items():
            assert t.dcf.validate_axioms().passed
            assert check_poz(t.dcf, t.order).passed
            assert check_lon(t.dcf, t.order).passed
        jd = quantum_patch(sc)
        assert jd.min_eigenvalue() >= -1e-9
        for key in SETTING_KEYS:
            assert patch_marginal_residual(jd, sc, *key) < 1e-9
        assert chsh_value(correlation_table(sc)) <= 2 * np.sqrt(2) + 1e-9

    def test_flipped_labels_patch_identically_well(self):
        from qmeasure import EprbConfig, gen_eprb

        sc = gen_eprb(EprbConfig(flip_b=True))
        jd = quantum_patch(sc)
        for key in SETTING_KEYS:
            assert patch_marginal_residual(jd, sc, *key) < 1e-9
        assert chsh_value(correlation_table(sc)) == pytest.approx(
            2 * np.sqrt(2), abs=1e-6
        )
