import dataclasses
import json

import numpy as np
import pytest

from conftest import full_width_factor, random_events, random_psd_dcf, random_space

from qmeasure import (
    DecoherenceFunctional,
    HistorySpace,
    check_agreement,
    decoupled_demo_config,
    gen_sk_circuit,
    region_algebra,
)
from qmeasure._linalg import scatter_columns
from qmeasure.decoherence import DENSE_ATOM_CAP, BranchRep


def two_path_oracle():
    """Expected two-slit matrix by direct amplitude enumeration: entry
    (g, h) is conj(a_g) a_h when both histories end on the same screen
    outcome, else zero."""
    amps = [0.5, 0.5, 0.5, -0.5]  # Lb, Ld, Rb, Rd
    screen = [0, 1, 0, 1]
    m = np.zeros((4, 4), dtype=complex)
    for g in range(4):
        for h in range(4):
            if screen[g] == screen[h]:
                m[g, h] = np.conj(amps[g]) * amps[h]
    return m


class TestBranchRep:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_amplitude_refused(self, bad):
        amps = np.array([0.6, 0.8, 0.0], dtype=complex)
        amps[2] = bad
        with pytest.raises(ValueError, match="finite"):
            BranchRep(amps, np.zeros(3, dtype=int), 1)


class TestDenseMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_entry_refused(self, bad):
        space = HistorySpace(points=("p",), histories=((0,), (1,)))
        m = np.diag([0.0, 1.0]).astype(complex)
        m[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            DecoherenceFunctional(space, matrix=m)


class TestEvaluate:
    def test_double_slit_matches_oracle(self, double_slit):
        space, _, dcf = double_slit
        expected = two_path_oracle()
        for g in range(4):
            for h in range(4):
                got = dcf.evaluate(
                    space.event_from_indices([g]), space.event_from_indices([h])
                )
                assert got == pytest.approx(expected[g, h], abs=1e-15)

    def test_full_space_is_normalized(self, double_slit):
        _, _, dcf = double_slit
        omega = dcf.space.full_event()
        assert dcf.evaluate(omega, omega) == pytest.approx(1.0, abs=1e-12)

    def test_empty_event_gives_zero(self, double_slit):
        _, _, dcf = double_slit
        assert dcf.evaluate(dcf.space.empty_event(), dcf.space.full_event()) == 0

    def test_cross_term(self, double_slit):
        space, _, dcf = double_slit
        ld = space.event_from_indices([1])
        rd = space.event_from_indices([3])
        assert dcf.evaluate(ld, rd) == pytest.approx(-0.25, abs=1e-15)

    def test_mismatched_space_rejected(self, double_slit):
        _, _, dcf = double_slit
        other = HistorySpace(points=("x",), histories=((0,), (1,)))
        with pytest.raises(ValueError):
            dcf.evaluate(other.full_event(), other.full_event())


class TestMeasure:
    def test_omega_unit(self, double_slit):
        _, _, dcf = double_slit
        assert dcf.measure(dcf.space.full_event()) == pytest.approx(1.0, abs=1e-12)

    def test_dark_fringe_vanishes(self, double_slit):
        space, _, dcf = double_slit
        dark = space.value_event("screen", 1)
        assert dcf.measure(dark) == pytest.approx(0.0, abs=1e-15)

    def test_single_slit_dark_quarter(self, double_slit):
        space, _, dcf = double_slit
        dark = space.value_event("screen", 1)
        left = space.value_event("slit", 0)
        assert dcf.measure(left & dark) == pytest.approx(0.25, abs=1e-15)

    def test_measure_is_exactly_the_diagonal_value(self):
        from qmeasure import decoupled_demo_config, gen_sk_circuit

        rng = np.random.default_rng(37)
        space = random_space(rng)
        lazy = gen_sk_circuit(decoupled_demo_config(steps=2)).dcf
        for dcf in (random_psd_dcf(rng, space), lazy):
            for e in random_events(rng, dcf.space, count=6):
                assert dcf.measure(e) == dcf.evaluate(e, e).real

    def test_non_hermitian_measure_raises(self):
        space = HistorySpace(points=("p",), histories=((0,), (1,)))
        m = np.array([[0.5, 0.6], [0.1, 0.5]], dtype=complex) * 1j
        dcf = DecoherenceFunctional(space, matrix=m)
        with pytest.raises(ValueError):
            dcf.measure(space.full_event())


class TestAxioms:
    def test_double_slit_passes(self, double_slit):
        _, _, dcf = double_slit
        rep = dcf.validate_axioms()
        assert rep.passed
        assert rep.min_eigenvalue >= -1e-12

    def test_indefinite_matrix_flagged(self):
        space = HistorySpace(points=("p",), histories=((0,), (1,)))
        m = np.array([[0.2, 0.6], [0.6, -0.4]], dtype=complex)
        rep = DecoherenceFunctional(space, matrix=m).validate_axioms()
        assert rep.hermitian and rep.normalized
        assert not rep.strongly_positive
        assert rep.min_eigenvalue < -0.1

    def test_non_hermitian_matrix_gets_a_report(self):
        # measure would refuse this matrix; the report must still say why
        space = HistorySpace(points=("p",), histories=((0,), (1,)))
        m = np.array([[0.5, 0.1j], [0.1j, 0.5]])
        rep = DecoherenceFunctional(space, matrix=m).validate_axioms()
        assert rep.hermitian is False and rep.passed is False
        assert rep.hermiticity_residual == pytest.approx(0.2, abs=1e-12)

    def test_scaled_matrix_fails_normalization(self, double_slit):
        _, _, dcf = double_slit
        rep = DecoherenceFunctional(dcf.space, matrix=2 * dcf.matrix).validate_axioms()
        assert not rep.normalized
        assert rep.normalization_residual == pytest.approx(1.0, abs=1e-12)


def full_width_sampled_gram(dcf, seed):
    """The lazy positivity family built over every history: each
    single-point atom's flags from `region_algebra`, then each random
    event's full-width flags, whose live entries are `_sampled_gram`'s
    draws and whose dead entries are random; each vector is the event's
    own `_flags_vector`."""
    flags = []
    for p in dcf.space.points:
        alg = region_algebra(dcf.space, (p,))
        flags.extend(alg.atom_index == a for a in range(alg.n_atoms))
        if len(flags) >= DENSE_ATOM_CAP:
            break
    k = max(0, min(100, DENSE_ATOM_CAP - len(flags)))
    member = np.random.default_rng(seed).random((k, dcf.live.size)) < 0.5
    events = np.random.default_rng(seed + 1).random((k, dcf.space.size)) < 0.5
    events[:, dcf.live] = member
    flags.extend(events)
    vecs = np.stack([dcf._flags_vector(f) for f in flags])
    return vecs.conj() @ vecs.T


@pytest.fixture(scope="module")
def sparse_lazy():
    """A lazy functional on a space that is not a grid, some of whose
    histories are dead: `atom_ids` takes its counting route."""
    rng = np.random.default_rng(29)
    dcf = random_lazy_dcf(rng, random_space(rng, n_points=4))
    assert not dcf.space.is_grid and dcf.live.size < dcf.space.size
    return dcf


class TestSampledGram:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("name", ["stock circuit", "mixed rank", "truncated"])
    def test_matches_full_width_family(self, route_models, name, seed):
        dcf = route_models[name][0]
        assert np.array_equal(dcf._sampled_gram(seed), full_width_sampled_gram(dcf, seed))

    def test_matches_full_width_family_off_grid(self, sparse_lazy):
        for seed in (0, 3):
            gram = sparse_lazy._sampled_gram(seed)
            assert np.array_equal(gram, full_width_sampled_gram(sparse_lazy, seed))

    def test_wide_point_leaves_no_random_events(self):
        # 1030 atoms from one point: past the cap, so no random event
        rng = np.random.default_rng(31)
        space = HistorySpace(("p",), np.arange(1030)[:, None])
        dcf = random_lazy_dcf(rng, space)
        gram = dcf._sampled_gram(0)
        assert gram.shape == (1030, 1030)
        assert np.array_equal(gram, full_width_sampled_gram(dcf, 0))
        assert dcf.validate_axioms().strongly_positive

    def test_seed_fixes_the_report(self, route_models):
        dcf = route_models["stock circuit"][0]

        def report(seed):
            return json.dumps(dcf.validate_axioms(seed=seed).as_dict())

        assert report(3) == report(3)
        assert report(3) != report(4)


def sum_rule_residual(dcf, e, f, g):
    """|mu(EFG) - mu(EF) - mu(FG) - mu(GE) + mu(E) + mu(F) + mu(G)| on a
    pairwise disjoint triple, from seven `measure` calls."""
    mu = dcf.measure
    return abs(
        mu(e | f | g) - mu(e | f) - mu(f | g) - mu(g | e) + mu(e) + mu(f) + mu(g)
    )


class TestSumRule:
    """The quadratic sum rule holds identically, so the axiom report does
    not check it; these tests pin the identity through `measure`."""

    def test_double_slit_triples(self, double_slit):
        space, _, dcf = double_slit
        e = space.event_from_indices([0])
        f = space.event_from_indices([1, 2])
        g = space.event_from_indices([3])
        assert sum_rule_residual(dcf, e, f, g) < 1e-12

    def test_empty_triple(self, double_slit):
        _, _, dcf = double_slit
        e = dcf.space.empty_event()
        assert sum_rule_residual(dcf, e, e, e) == 0.0

    def test_random_psd_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            space = random_space(rng)
            dcf = random_psd_dcf(rng, space)
            e, f, g = random_events(rng, space, count=3, disjoint=True)
            assert sum_rule_residual(dcf, e, f, g) < 1e-12

    def test_lazy_circuit_triples(self):
        dcf = gen_sk_circuit(decoupled_demo_config(steps=2)).dcf
        assert not dcf.is_dense
        rng = np.random.default_rng(4)
        for _ in range(5):
            e, f, g = random_events(rng, dcf.space, count=3, disjoint=True)
            assert sum_rule_residual(dcf, e, f, g) < 1e-12


class TestClassical:
    def test_diagonal_is_classical(self):
        space = HistorySpace(points=("p",), histories=((0,), (1,)))
        dcf = DecoherenceFunctional(space, matrix=np.diag([0.3, 0.7]).astype(complex))
        assert dcf.is_classical()

    def test_double_slit_is_not(self, double_slit):
        _, _, dcf = double_slit
        assert not dcf.is_classical()

    def test_classical_measure_is_additive(self):
        rng = np.random.default_rng(11)
        space = random_space(rng)
        diag = rng.dirichlet(np.ones(space.size))
        dcf = DecoherenceFunctional(space, matrix=np.diag(diag).astype(complex))
        e, f = random_events(rng, space, count=2, disjoint=True)
        assert dcf.measure(e | f) == pytest.approx(
            dcf.measure(e) + dcf.measure(f), abs=1e-12
        )


def region_values(dcf, points):
    """The functional restricted to a region: its values on the region's
    atoms, as `check_agreement` reads them."""
    alg = region_algebra(dcf.space, points)
    return dcf.grouped(alg.atom_index[dcf.live], alg.n_atoms)


class TestRestrict:
    def test_full_region_is_identity(self, double_slit):
        space, _, dcf = double_slit
        assert np.allclose(region_values(dcf, ("slit", "screen")), dcf.matrix)

    def test_empty_region_is_scalar_one(self, double_slit):
        _, _, dcf = double_slit
        r = region_values(dcf, ())
        assert r.shape == (1, 1)
        assert r[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_double_slit_screen(self, double_slit):
        _, _, dcf = double_slit
        r = region_values(dcf, ("screen",))
        assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-12)

    def test_repeated_point_rejected(self, double_slit):
        _, _, dcf = double_slit
        with pytest.raises(ValueError, match="'slit' is listed twice"):
            check_agreement(dcf, dcf, ("slit", "slit"))

    def test_tower_property(self):
        # coarse-graining the middle region's values onto the small
        # region's atoms gives the small region's values
        rng = np.random.default_rng(5)
        space = random_space(rng)
        dcf = random_psd_dcf(rng, space)
        small = region_algebra(space, space.points[:1])
        mid = region_algebra(space, space.points[:2])
        coarse = np.zeros((small.n_atoms, mid.n_atoms))
        coarse[small.atom_index, mid.atom_index] = 1.0
        via_mid = coarse @ region_values(dcf, space.points[:2]) @ coarse.T
        assert np.allclose(region_values(dcf, space.points[:1]), via_mid, atol=1e-12)


def random_lazy_dcf(rng, space, dim=3):
    """Lazy functional of unit-norm random amplitudes, about a fifth of them
    zero, on `dim` final configurations."""
    amp = rng.normal(size=space.size) + 1j * rng.normal(size=space.size)
    amp[rng.random(space.size) < 0.2] = 0.0
    amp /= np.linalg.norm(amp)
    final = rng.integers(0, dim, size=space.size)
    return DecoherenceFunctional.from_amplitudes(space, amp, final, dim)


class TestGrouped:
    @pytest.mark.parametrize("lazy", [False, True])
    def test_matches_per_event_evaluate(self, lazy):
        rng = np.random.default_rng(41)
        for _ in range(6):
            space = random_space(rng, n_points=3, max_alpha=3)
            dcf = random_lazy_dcf(rng, space) if lazy else random_psd_dcf(rng, space)
            m = space.size // 2 + 2
            labels = rng.integers(0, m - 1, size=space.size)  # group m - 1 is empty
            events = [
                space.event_from_indices(np.flatnonzero(labels == p)) for p in range(m)
            ]
            expected = np.array([[dcf.evaluate(e, f) for f in events] for e in events])
            got = dcf.grouped(labels[dcf.live], m)
            assert got.shape == (m, m)
            assert np.abs(got - expected).max() <= 1e-14
            assert not got[m - 1].any() and not got[:, m - 1].any()

    def test_grouped_runs_the_two_formulas(self):
        # the dense indicator product, and the Gram of the lazy scatter over
        # label * dim + final_index on live histories, bit for bit
        rng = np.random.default_rng(55)
        for _ in range(6):
            space = random_space(rng, n_points=3, max_alpha=3)
            m = space.size // 2 + 2
            labels = rng.integers(0, m - 1, size=space.size)  # group m - 1 is empty
            for dcf in (random_psd_dcf(rng, space), random_lazy_dcf(rng, space)):
                if dcf.is_dense:
                    ind = np.zeros((m, space.size))
                    ind[labels, np.arange(space.size)] = 1.0
                    expected = ind @ dcf.matrix @ ind.T
                else:
                    b = dcf.branch
                    vecs = scatter_columns(
                        b.amplitudes[None, b.live],
                        labels[b.live] * b.dim + b.final_index[b.live],
                        m * b.dim,
                    ).reshape(m, b.dim)
                    expected = vecs.conj() @ vecs.T
                assert np.array_equal(dcf.grouped(labels[dcf.live], m), expected)


class TestVectors:
    """`vectors` sums exactly what a scatter over the full-width factor
    sums, with zero columns and unflagged histories left out."""

    @staticmethod
    def _reference(dcf, labels, m, flags):
        full = full_width_factor(dcf)
        keep = np.ones(dcf.space.size, dtype=bool) if flags is None else flags
        return scatter_columns(full[:, keep], labels[keep], m)

    @staticmethod
    def _functionals(rng, space):
        yield random_psd_dcf(rng, space)
        yield random_lazy_dcf(rng, space, dim=int(rng.integers(2, 5)))
        vecs = rng.normal(size=(space.size, 3)) + 1j * rng.normal(size=(space.size, 3))
        vecs[::3] = 0.0  # dense, with zero factor columns
        yield DecoherenceFunctional.from_history_vectors(space, vecs)

    def test_match_full_width_scatter(self):
        rng = np.random.default_rng(47)
        for _ in range(8):
            space = random_space(rng, n_points=3, max_alpha=3)
            for dcf in self._functionals(rng, space):
                for m in (1, 2, space.size // 2 + 2):
                    labels = rng.integers(0, max(1, m - 1), size=space.size)
                    for flags in (None, rng.random(space.size) < 0.5,
                                  np.zeros(space.size, dtype=bool)):
                        live_flags = None if flags is None else flags[dcf.live]
                        got = dcf.vectors(labels[dcf.live], m, live_flags)
                        want = self._reference(dcf, labels, m, flags)
                        assert got.shape == want.shape
                        assert np.array_equal(got, want)
                        if m > 1:  # group m - 1 is empty
                            assert not got[:, m - 1].any()

    def test_empty_support(self):
        rng = np.random.default_rng(49)
        space = random_space(rng, n_points=3, max_alpha=3)
        dcf = DecoherenceFunctional.from_amplitudes(
            space, np.zeros(space.size), rng.integers(0, 3, size=space.size), 3
        )
        labels = rng.integers(0, 4, size=space.size)
        for flags in (None, rng.random(space.size) < 0.5):
            got = dcf.vectors(labels[dcf.live], 4, None if flags is None else flags[dcf.live])
            assert got.shape == (3, 4) and not got.any()
            assert np.array_equal(got, self._reference(dcf, labels, 4, flags))
        assert dcf.factor.shape == (3, 0)

    def test_lazy_result_is_c_contiguous(self):
        rng = np.random.default_rng(51)
        space = random_space(rng, n_points=3, max_alpha=3)
        dcf = random_lazy_dcf(rng, space, dim=4)
        labels = rng.integers(0, 5, size=space.size)
        for flags in (None, rng.random(space.size) < 0.5):
            got = dcf.vectors(labels[dcf.live], 5, None if flags is None else flags[dcf.live])
            assert got.shape == (4, 5)
            assert got.flags.c_contiguous

    def test_zero_matrix_columns_are_dead(self, eprb_scenario):
        """The patched spin-pair beam joint (16 x 16) embedded in 64
        histories, one per key and wing-value pair, with zero rows and
        columns wherever the wing values do not repeat the key's outcomes:
        exactly the 16 histories with nonzero columns are live, though
        `eigh` leaves rounding dust in some other factor columns."""
        from qmeasure import quantum_patch

        flat = np.asarray(quantum_patch(eprb_scenario).beam_joint()).reshape(16, 16)
        key, wa, wb = np.indices((16, 2, 2)).reshape(3, -1)
        outcomes = np.unravel_index(np.arange(16), (2, 2, 2, 2))
        ok = (wa == outcomes[0][key]) & (wb == outcomes[2][key])
        space = HistorySpace(("z", "wa", "wb"), np.stack([key, wa, wb], axis=1))
        matrix = np.where(np.outer(ok, ok), flat[np.ix_(key, key)], 0)
        dcf = DecoherenceFunctional(space, matrix=matrix)
        live, fac = dcf.live, dcf.factor
        assert np.array_equal(live, np.flatnonzero(ok))
        assert fac.shape[1] == 16

    def test_factor_is_cached(self):
        rng = np.random.default_rng(53)
        space = random_space(rng, n_points=3, max_alpha=3)
        for dcf in self._functionals(rng, space):
            live, fac = dcf.live, dcf.factor
            assert dcf.factor is dcf.factor
            assert np.array_equal(fac, full_width_factor(dcf)[:, live])
            # a copy with another tolerance builds its own factor
            other = dataclasses.replace(dcf, tol=dataclasses.replace(dcf.tol, rel=1e-6))
            assert other.factor is not dcf.factor


class TestAgreement:
    def test_self_agreement(self, double_slit):
        _, _, dcf = double_slit
        assert check_agreement(dcf, dcf, ("slit",))

    def test_eprb_shared_wing(self, eprb_scenario):
        d1 = eprb_scenario.theory(0, 0).dcf
        d2 = eprb_scenario.theory(0, 1).dcf
        assert check_agreement(d1, d2, ("z", "wa"))

    def test_eprb_different_wing_setting(self, eprb_scenario):
        d1 = eprb_scenario.theory(0, 0).dcf
        d2 = eprb_scenario.theory(1, 0).dcf
        assert not check_agreement(d1, d2, ("z", "wa"))

    def test_differing_history_sets(self, double_slit):
        # without history Rd the slit-and-screen atoms differ, the screen's
        # atoms do not
        _, _, dcf = double_slit
        space = HistorySpace(points=("slit", "screen"), histories=((0, 0), (0, 1), (1, 0)))
        three = DecoherenceFunctional(space, matrix=np.diag([0.5, 0.0, 0.5]))
        assert not check_agreement(dcf, three, ("slit", "screen"))
        assert check_agreement(dcf, three, ("screen",))

    @pytest.mark.parametrize("delta, agree", [(1e-12, True), (1e-6, False)])
    def test_difference_against_the_floor(self, double_slit, delta, agree):
        # D(Lb, Rb) moves by delta, and with it the slit atoms' cross value
        space, _, dcf = double_slit
        m = dcf.matrix.copy()
        m[0, 2] += delta
        m[2, 0] += delta
        moved = DecoherenceFunctional(space, matrix=m)
        assert check_agreement(dcf, moved, ("slit",)) is agree

    def test_non_finite_values_refused(self):
        # finite amplitudes whose products overflow
        space = HistorySpace(points=("p",), histories=((0,), (1,)))
        huge = DecoherenceFunctional.from_amplitudes(space, [1e200, 1e200], [0, 0], 1)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite entry"):
            check_agreement(huge, huge, ("p",))


class TestGramProperty:
    def test_event_family_gram_is_psd(self):
        rng = np.random.default_rng(13)
        space = random_space(rng)
        dcf = random_psd_dcf(rng, space)
        events = random_events(rng, space, count=6)
        gram = np.array(
            [[dcf.evaluate(e, f) for f in events] for e in events]
        )
        eig = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        assert eig.min() >= -1e-9 * max(eig.max(), 1.0)

    def test_weak_positivity_from_strong(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            space = random_space(rng)
            dcf = random_psd_dcf(rng, space)
            (e,) = random_events(rng, space, count=1)
            assert dcf.measure(e) >= -1e-9
