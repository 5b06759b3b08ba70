import json

import numpy as np
import pytest

from conftest import (
    ROUTE_MODELS,
    atom_events,
    event_vector,
    full_width_factor,
    random_events,
    random_psd_dcf,
    random_space,
    route_regions,
    span_rank,
    svd_rank,
)

from qmeasure import region_algebra
from qmeasure._linalg import scatter_columns
from qmeasure.causal_order import down_sets
from qmeasure.cli import event_space_report, main
from qmeasure.decoherence import DecoherenceFunctional
from qmeasure.hilbert import live_atoms, region_span
from qmeasure.sk_model import SkCircuitConfig, SkGate, decoupled_demo_config, gen_sk_circuit


def norm2(v):
    return float(np.vdot(v, v).real)


class TestComboNorm:
    def test_single_term_is_measure(self, double_slit):
        space, _, dcf = double_slit
        e = space.value_event("slit", 0)
        assert norm2(event_vector(dcf, e)) == pytest.approx(dcf.measure(e), abs=1e-12)

    def test_disjoint_sum_is_union_measure(self, double_slit):
        space, _, dcf = double_slit
        e = space.event_from_indices([0])
        f = space.event_from_indices([3])
        v = event_vector(dcf, e) + event_vector(dcf, f)
        assert norm2(v) == pytest.approx(dcf.measure(e | f), abs=1e-12)

    def test_dark_fringe_combination_vanishes(self, double_slit):
        space, _, dcf = double_slit
        v = event_vector(dcf, space.event_from_indices([1]))
        v = v + event_vector(dcf, space.event_from_indices([3]))
        assert norm2(v) == pytest.approx(0.0, abs=1e-15)


class TestIsNull:
    def test_dark_combo_null(self, double_slit):
        space, _, dcf = double_slit
        assert dcf.measure(space.event_from_indices([1, 3])) == pytest.approx(0.0, abs=1e-15)

    def test_universal_not_null(self, double_slit):
        _, _, dcf = double_slit
        assert dcf.measure(dcf.space.full_event()) == pytest.approx(1.0, abs=1e-12)


class TestSubspaceDim:
    def test_empty_region_dim_one(self, double_slit):
        _, _, dcf = double_slit
        assert span_rank(dcf, ()) == 1

    def test_full_space_rank_two(self, double_slit):
        _, _, dcf = double_slit
        assert span_rank(dcf, ("slit", "screen")) == 2

    def test_screen_dim_one(self, double_slit):
        _, _, dcf = double_slit
        assert span_rank(dcf, ("screen",)) == 1

    def test_eprb_past_rank_four(self, eprb_scenario):
        dcf = eprb_scenario.theory(0, 0).dcf
        assert span_rank(dcf, ("z",)) == 4

    def test_eprb_full_rank_at_most_four(self, eprb_scenario):
        dcf = eprb_scenario.theory(0, 0).dcf
        assert span_rank(dcf, ("z", "wa", "wb")) <= 4


def in_span(dcf, vector, points):
    return span_rank(dcf, points, vector) == span_rank(dcf, points)


class TestInSubspace:
    def test_region_combination_is_member(self, double_slit):
        space, _, dcf = double_slit
        atoms = atom_events(region_algebra(space, ("slit",)))
        v = (0.3 + 0.1j) * event_vector(dcf, atoms[0]) - 2.0 * event_vector(dcf, atoms[1])
        assert in_span(dcf, v, ("slit",))

    def test_universal_in_every_region(self, double_slit):
        _, _, dcf = double_slit
        omega = event_vector(dcf, dcf.space.full_event())
        for pts in ((), ("slit",), ("screen",), ("slit", "screen")):
            assert in_span(dcf, omega, pts), pts

    def test_eprb_wing_event_spanned_by_past(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        assert in_span(t.dcf, event_vector(t.dcf, t.beam_a[0]), ("z",))

    def test_non_member_flagged(self, double_slit):
        # the left-dark history vector has a dark-branch component, but the
        # screen algebra's dark atom vector vanishes: not in the span
        space, _, dcf = double_slit
        left_dark = event_vector(dcf, space.event_from_indices([1]))
        assert not in_span(dcf, left_dark, ("screen",))


@pytest.fixture
def ds_path(tmp_path, capsys):
    """The stock double slit, written by `qmeasure gen`."""
    assert main(["gen", "double-slit", "--out", str(tmp_path / "ds")]) == 0
    capsys.readouterr()
    return str(tmp_path / "ds")


def hilbert_report(capsys, path, *argv):
    assert main(["hilbert", path, *argv]) == 0
    return json.loads(capsys.readouterr().out)


class TestEventSpace:
    """`qmeasure hilbert`: the atom count, rank and Gram spectrum of the
    event Hilbert space of every history or of a region's atoms."""

    def test_universal_vector_unit(self, ds_path, capsys):
        report = hilbert_report(capsys, ds_path)
        assert report["universal_norm2"] == pytest.approx(1.0, abs=1e-12)
        assert (report["atoms"], report["rank"], report["region"]) == (4, 2, "all")

    def test_empty_region_spanned_by_universal(self, ds_path, capsys):
        report = hilbert_report(capsys, ds_path, "--region", "")
        assert (report["atoms"], report["rank"]) == (1, 1)

    def test_repeated_point_rejected(self, ds_path, capsys):
        assert main(["hilbert", ds_path, "--region", "slit,slit"]) == 2
        assert "'slit' is listed twice" in capsys.readouterr().err

    def test_gram_matches_functional(self, double_slit, ds_path, capsys):
        space, _, dcf = double_slit
        report = hilbert_report(capsys, ds_path, "--region", "slit")
        atoms = atom_events(region_algebra(space, ("slit",)))
        gram = np.array([[dcf.evaluate(p, q) for q in atoms] for p in atoms])
        eig = np.linalg.eigvalsh(gram)
        assert report["atoms"] == len(atoms)
        assert report["rank"] == span_rank(dcf, ("slit",))
        assert report["min_eigenvalue"] == pytest.approx(eig.min(), abs=1e-12)
        assert report["max_eigenvalue"] == pytest.approx(eig.max(), abs=1e-12)


class TestEventSpaceAgainstFullWidth:
    """The `hilbert` report of every route model, on each route region and
    the whole space, against the full-width atom vectors: `atoms` and
    `rank` from the rank rule on their SVD, the spectrum from `eigvalsh`
    of their Gram."""

    @pytest.mark.parametrize("name", ROUTE_MODELS)
    def test_report_matches_the_full_width_gram(self, route_models, name):
        dcf = route_models[name][0]
        full = full_width_factor(dcf)
        for points in [None, *route_regions(dcf, len(name) + 1)]:
            alg = region_algebra(dcf.space, dcf.space.points if points is None else points)
            wide = scatter_columns(full, alg.atom_index, alg.n_atoms)
            d, n = wide.shape
            # the atoms x atoms Gram has the spectrum of the d x d one,
            # padded with n - d zeros; eigvalsh reads the smaller of the two
            small = wide @ wide.conj().T if n > d else wide.conj().T @ wide
            eig = np.linalg.eigvalsh(small)
            report = event_space_report(dcf, points)
            assert report["region"] == ("all" if points is None else list(points))
            assert (report["atoms"], report["rank"]) == (n, svd_rank(wide, dcf.tol))
            assert report["universal_norm2"] == pytest.approx(norm2(wide.sum(axis=1)), abs=1e-12)
            assert report["max_eigenvalue"] == pytest.approx(eig.max(initial=0.0), abs=1e-12)
            want_min = eig.min() if n <= d else 0.0
            assert report["min_eigenvalue"] == pytest.approx(want_min, abs=1e-12)


class TestPartitionSum:
    def test_partition_vectors_sum_to_universal(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            space = random_space(rng)
            dcf = random_psd_dcf(rng, space)
            parts = [e for e in random_events(rng, space, 4, disjoint=True)]
            rest = space.full_event()
            for e in parts:
                rest = rest & ~e
            parts.append(rest)
            total = sum(event_vector(dcf, e) for e in parts)
            assert norm2(total - event_vector(dcf, space.full_event())) < 1e-12


class TestMonotonicity:
    def test_nested_regions(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            space = random_space(rng)
            dcf = random_psd_dcf(rng, space)
            k = rng.integers(0, len(space.points))
            small = space.points[:k]
            big = space.points[: k + 1]
            assert span_rank(dcf, small) <= span_rank(dcf, big)
            for atom in atom_events(region_algebra(space, small)):
                assert in_span(dcf, event_vector(dcf, atom), big)


def _full_support_model():
    """The 12-point circuit with a superposed initial state and a generic
    first-layer unitary: every history carries amplitude."""
    rng = np.random.default_rng(13)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    u, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    stock = decoupled_demo_config(steps=2)
    cfg = SkCircuitConfig(
        sites=4, steps=2, psi=psi / np.linalg.norm(psi),
        gates=(SkGate(1, (0, 1, 2, 3), u),) + tuple(g for g in stock.gates if g.layer > 1),
        regions=stock.regions,
    )
    return gen_sk_circuit(cfg)


class TestLiveColumns:
    """Kernels that run over the live columns give exactly the sums of a
    full-width factor, for sparse, full and empty amplitude support."""

    @pytest.fixture(scope="class")
    def circuit(self):
        return gen_sk_circuit(decoupled_demo_config(steps=2))

    @staticmethod
    def _assert_region_vectors_exact(dcf, regions):
        full = full_width_factor(dcf)
        for points in regions:
            alg = region_algebra(dcf.space, points)
            want = scatter_columns(full, alg.atom_index, alg.n_atoms)
            assert np.array_equal(dcf.vectors(alg.atom_index[dcf.live], alg.n_atoms), want)
            # the live columns are the atoms that hold a live history; the
            # rest are exactly zero
            live = region_span(dcf, points)[3]
            ids = np.unique(alg.atom_index[dcf.live])
            assert np.array_equal(live, want[:, ids])
            assert not np.delete(want, ids, axis=1).any()

    @staticmethod
    def _assert_event_vectors_exact(dcf, seed, count=12):
        full = full_width_factor(dcf)
        rng = np.random.default_rng(seed)
        n = dcf.space.size
        for density in (0.0, 0.02, 0.5, 1.0):
            for _ in range(count // 4):
                flags = rng.random(n) < density
                event = dcf.space.event_from_indices(np.flatnonzero(flags))
                want = scatter_columns(full[:, flags], np.zeros(flags.sum(), dtype=int), 1)[:, 0]
                assert np.array_equal(dcf.vectors(flags[dcf.live].astype(int), 2)[:, 1], want)
                one_group = np.zeros(dcf.live.size, dtype=int)
                got = dcf.vectors(one_group, 1, event.flags[dcf.live])
                assert np.array_equal(got[:, 0], want)

    @staticmethod
    def _small_regions(order):
        """Every 1- and 2-point region of an order or history space."""
        names = order.points
        return [(p,) for p in names] + [
            (p, q) for i, p in enumerate(names) for q in names[i + 1:]
        ]

    def test_scatter_columns_matches_per_row_sums(self):
        rng = np.random.default_rng(19)
        for d, k, m in [(16, 32, 8), (3, 40, 5), (1, 7, 3), (5, 0, 2), (0, 6, 2)]:
            fac = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
            fac[rng.random((d, k)) < 0.4] = 0.0
            labels = rng.integers(0, m, k)
            want = np.zeros((d, m), dtype=complex)
            for r in range(d):
                want[r].real = np.bincount(labels, weights=fac[r].real, minlength=m)
                want[r].imag = np.bincount(labels, weights=fac[r].imag, minlength=m)
            got = scatter_columns(fac, labels, m)
            assert np.array_equal(got, want)
            assert np.array_equal(scatter_columns(fac.real, labels, m), want.real + 0j)

    def test_live_columns_are_the_amplitude_carrying_histories(self, circuit):
        dcf = circuit.dcf
        live, fac = dcf.live, dcf.factor
        assert np.array_equal(live, np.flatnonzero(dcf.branch.amplitudes))
        assert 0 < live.size < dcf.space.size
        assert fac.shape == (dcf.branch.dim, live.size)
        assert np.array_equal(fac, full_width_factor(dcf)[:, live])
        assert dcf.factor is fac  # cached

    def test_region_vectors_match_full_width_on_circuit(self, circuit):
        regions = [z.point_names() for z in down_sets(circuit.order)]
        regions += self._small_regions(circuit.order)
        self._assert_region_vectors_exact(circuit.dcf, regions)

    def test_event_vectors_match_full_width_on_circuit(self, circuit):
        self._assert_event_vectors_exact(circuit.dcf, 3)

    def test_restrict_matches_full_width(self, circuit):
        dcf, b = circuit.dcf, circuit.dcf.branch
        for points in self._small_regions(circuit.order)[:30]:
            alg = region_algebra(dcf.space, points)
            vecs = scatter_columns(
                b.amplitudes[None, :], alg.atom_index * b.dim + b.final_index,
                alg.n_atoms * b.dim,
            ).reshape(alg.n_atoms, b.dim)
            got = dcf.grouped(alg.atom_index[dcf.live], alg.n_atoms)
            assert np.array_equal(got, vecs.conj() @ vecs.T)

    def test_full_support(self):
        model = _full_support_model()
        live = model.dcf.live
        assert live.size == model.space.size
        regions = [z.point_names() for z in down_sets(model.order)]
        self._assert_region_vectors_exact(model.dcf, regions + self._small_regions(model.order))
        self._assert_event_vectors_exact(model.dcf, 4)

    def test_empty_support(self, circuit):
        b = circuit.dcf.branch
        dcf = DecoherenceFunctional.from_amplitudes(
            circuit.space, np.zeros(circuit.space.size), b.final_index, b.dim
        )
        live, fac = dcf.live, dcf.factor
        assert live.size == 0 and fac.shape == (b.dim, 0)
        regions = [z.point_names() for z in down_sets(circuit.order)]
        self._assert_region_vectors_exact(dcf, regions + self._small_regions(circuit.order))
        self._assert_event_vectors_exact(dcf, 5)
        assert dcf.measure(circuit.space.full_event()) == 0.0

    def test_dense_factor_drops_only_zero_columns(self):
        rng = np.random.default_rng(17)
        space = random_space(rng, n_points=3)
        vecs = rng.normal(size=(space.size, 3)) + 1j * rng.normal(size=(space.size, 3))
        vecs[::3] = 0.0  # every third history carries nothing
        dcf = DecoherenceFunctional.from_history_vectors(space, vecs)
        live, fac = dcf.live, dcf.factor
        full = full_width_factor(dcf)
        assert np.array_equal(live, np.flatnonzero(full.any(axis=0)))
        assert 0 < live.size < space.size
        assert np.array_equal(fac, full[:, live])
        vecs = dcf.vectors(live, space.size)
        assert np.array_equal(vecs[:, live], fac)
        assert not np.delete(vecs, live, axis=1).any()
        self._assert_region_vectors_exact(dcf, [(), *self._small_regions(space), space.points])


def old_live_positions(dcf, alg):
    """The full-length position table the live-atom route replaces: which
    atoms hold a live history, and every history's position among them."""
    live = np.bincount(alg.atom_index[dcf.live], minlength=alg.n_atoms) > 0
    return np.flatnonzero(live), (np.cumsum(live) - live)[alg.atom_index]


class TestLiveAtomRoute:
    """`live_atoms` reads positions at the live histories only, on grids
    and on every other space, and gives what the full-length table gave."""

    @staticmethod
    def check(dcf, points):
        alg = region_algebra(dcf.space, points)
        want_live, table = old_live_positions(dcf, alg)
        n_atoms, live, position = live_atoms(dcf, points)
        assert n_atoms == alg.n_atoms
        assert np.array_equal(live, want_live)
        assert np.array_equal(position, table[dcf.live])

    @pytest.mark.parametrize("name", ROUTE_MODELS)
    def test_matches_full_length_table(self, route_models, name):
        dcf = route_models[name][0]
        for points in route_regions(dcf, len(name) + 1):
            self.check(dcf, points)

    def test_region_with_no_points(self, route_models):
        for name in ROUTE_MODELS:
            dcf = route_models[name][0]
            n_atoms, live, position = live_atoms(dcf, ())
            assert (n_atoms, live.tolist()) == (1, [0])
            assert position.shape == dcf.live.shape and not position.any()

    @pytest.mark.parametrize("name", ["stock circuit", "eprb theory"])
    def test_one_live_history(self, route_models, name):
        base = route_models[name][0]
        space = base.space
        pick = int(base.live[len(base.live) // 2])
        if base.is_dense:
            matrix = np.zeros((space.size, space.size), dtype=complex)
            matrix[pick, pick] = 1.0
            dcf = DecoherenceFunctional(space, matrix=matrix)
        else:
            b = base.branch
            amp = np.zeros(space.size, dtype=complex)
            amp[pick] = 1.0
            dcf = DecoherenceFunctional.from_amplitudes(space, amp, b.final_index, b.dim)
        assert dcf.live.tolist() == [pick]
        for points in [(), *((p,) for p in space.points), space.points]:
            self.check(dcf, points)
            n_atoms, live, position = live_atoms(dcf, points)
            assert position.tolist() == [0]
            assert live.tolist() == [region_algebra(space, points).atom_index[pick]]

    def test_vectors_refuse_full_length_input(self, route_models):
        rng = np.random.default_rng(59)
        space = random_space(rng, n_points=3)
        vecs = rng.normal(size=(space.size, 2)) + 0j
        vecs[::2] = 0.0  # dead histories in a dense functional
        dense = DecoherenceFunctional.from_history_vectors(space, vecs)
        lazy = route_models["stock circuit"][0]
        for dcf in (lazy, dense):
            n = dcf.space.size
            assert dcf.live.size < n
            with pytest.raises(ValueError, match="one entry per live history"):
                dcf.vectors(np.zeros(n, dtype=int), 1)
            with pytest.raises(ValueError, match="one entry per live history"):
                dcf.vectors(np.zeros(dcf.live.size, dtype=int), 1, np.ones(n, dtype=bool))
            with pytest.raises(ValueError, match="one entry per live history"):
                dcf.grouped(np.zeros(n, dtype=int), 1)
