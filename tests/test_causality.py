import dataclasses

import numpy as np
import pytest

from conftest import (
    ROUTE_MODELS,
    atom_events,
    full_region,
    full_width_factor,
    partition_gap,
    random_psd_dcf,
    random_space,
)

import qmeasure.causality as causality
from qmeasure import (
    CheckViolation,
    DecoherenceFunctional,
    EprbConfig,
    HistorySpace,
    Tolerance,
    check_lon,
    check_poz,
    check_quantum_factorizability,
    check_spacelike_commutation,
    event_operator,
    decoupled_demo_config,
    gen_double_slit,
    gen_eprb,
    gen_sk_circuit,
    region_algebra,
    shadow,
)
from qmeasure._linalg import rank_from_singular_values, selection_violation
from qmeasure.causal_order import CausalOrder, down_sets, future_domain, future_set


def every_region(order):
    """All 2^n point subsets of the order."""
    return [
        order.region(p for i, p in enumerate(order.points) if m >> i & 1)
        for m in range(1 << order.size)
    ]


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
        # the exhaustive family is the up-sets; only the full one shadows nothing
        assert rep.skipped_vacuous == 1
        upsets = {
            r.point_names()
            for r in every_region(order)
            if future_set(order, r) == r and not shadow(order, r).is_empty()
        }
        tested = [r.region_points for r in rep.results]
        assert len(tested) == len(upsets) and set(tested) == upsets

    @pytest.mark.parametrize("shape", ["antichain", "cover", "branch"])
    def test_up_sets_decide_like_a_full_scan(self, shape):
        # viol(R) <= k^2 viol(J+(R)), k the most J+(R)-atoms in one R-atom
        covers = {
            "antichain": [],
            "cover": [("p0", "p1")],
            "branch": [("p0", "p1"), ("p1", "p2"), ("p1", "p3")],
        }[shape]
        rng = np.random.default_rng(29)
        for _ in range(14):
            space = random_space(rng, n_points=4, max_alpha=3)
            order = CausalOrder.from_covers(space.points, covers)
            lazy = random_branch_dcf(rng, space, dim=int(rng.integers(2, 4)))
            for dcf in (lazy, random_psd_dcf(rng, space)):
                full = check_poz(dcf, order, every_region(order))
                assert check_poz(dcf, order).passed == full.passed
                viol = {r.region_points: r.violation for r in full.results}
                for region in every_region(order):
                    if shadow(order, region).is_empty():
                        continue
                    up = future_set(order, region)
                    r_idx = region_algebra(space, region.point_names()).atom_index
                    f_idx = region_algebra(space, up.point_names()).atom_index
                    k = max(len(set(f_idx[r_idx == a])) for a in set(r_idx))
                    bound = k * k * viol[up.point_names()] + 1e-12
                    assert viol[region.point_names()] <= bound

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
        for g in atom_events(alg):
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

    def test_foreign_event_rejected(self, eprb_scenario):
        # theory (0, 1) shares its wing-a setting with (0, 0), but not its
        # history space
        t00, t01 = eprb_scenario.theory(0, 0), eprb_scenario.theory(0, 1)
        with pytest.raises(ValueError, match="event belongs to a different history space"):
            event_operator(t01.dcf, t01.order, ("wa",), t00.beam_a[0], ("z",), force=True)

    def test_bad_event_refused_before_the_span(self, eprb_scenario, monkeypatch):
        import qmeasure.causality as causality

        def no_span(*args):
            raise AssertionError("the domain span was built")

        monkeypatch.setattr(causality, "region_span", no_span)
        t00, t01 = eprb_scenario.theory(0, 0), eprb_scenario.theory(0, 1)
        bad = t01.space.event_from_indices([0])
        z, a, b = (t01.order.region([p]) for p in ("z", "wa", "wb"))
        with pytest.raises(ValueError, match="different history space"):
            event_operator(t01.dcf, t01.order, ("wa",), t00.beam_a[0], ("z",))
        with pytest.raises(ValueError, match="not in the region's algebra"):
            event_operator(t01.dcf, t01.order, ("wa",), bad, ("z",))
        with pytest.raises(ValueError, match="not in the region's algebra"):
            check_spacelike_commutation(t01.dcf, t01.order, z, a, b, t01.beam_a, [bad])

    def test_image_outside_the_domain_span_refused(self, eprb_computational_basis):
        # two intermediate branches die, so the past span misses the beam images
        sc = eprb_computational_basis
        t = sc.theory(0, 0)
        for e in t.beam_a:
            with pytest.raises(
                CheckViolation,
                match=r"^event image leaves the domain span \(residual 3\.536e-01\)$",
            ):
                event_operator(t.dcf, t.order, sc.a_points, e, ("z",))

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


class TestRefusals:
    @pytest.mark.parametrize("check", [check_poz, check_lon])
    def test_region_of_another_order_refused(self, eprb_scenario, check):
        t = eprb_scenario.theory(0, 0)
        other = CausalOrder.from_covers(t.order.points, [("z", "wa"), ("z", "wb")])
        with pytest.raises(ValueError, match="^region belongs to a different causal order$"):
            check(t.dcf, t.order, [other.region(["z"])])

    @pytest.mark.parametrize("check", [check_poz, check_lon])
    def test_order_of_other_points_refused(self, eprb_scenario, check):
        t = eprb_scenario.theory(0, 0)
        other = CausalOrder.from_covers(("x", "y"), [("x", "y")])
        with pytest.raises(
            ValueError, match="^history space and causal order use different points$"
        ):
            check(t.dcf, other)


class TestLon:
    def test_eprb_passes(self, eprb_scenario):
        for key, t in eprb_scenario.theories.items():
            rep = check_lon(t.dcf, t.order)
            assert rep.passed, (key, rep.max_residual)
            for row in rep.results:
                assert row.dim_z == row.dim_domain

    def test_full_region_trivial(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        rep = check_lon(t.dcf, t.order, [full_region(t.order)])
        assert rep.passed and rep.max_residual == 0.0

    def test_non_past_set_refused(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        with pytest.raises(ValueError, match="^future domain of dependence requires a past set$"):
            check_lon(t.dcf, t.order, [t.order.region(["z"]), t.order.region(["wa"])])

    def test_degenerate_resolution_fails(self, eprb_computational_basis):
        t = eprb_computational_basis.theory(0, 0)
        rep = check_lon(t.dcf, t.order)
        assert not rep.passed
        z_row = next(r for r in rep.results if r.z_points == ("z",))
        assert z_row.dim_z == 2  # two singlet components survive
        assert z_row.dim_domain == 4

    def test_degenerate_resolution_still_satisfies_poz(self, eprb_computational_basis):
        t = eprb_computational_basis.theory(0, 0)
        assert check_poz(t.dcf, t.order).passed


class TestCommutation:
    def test_eprb_beam_pairs(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        z = t.order.region(["z"])
        a = t.order.region(["wa"])
        b = t.order.region(["wb"])
        rep = check_spacelike_commutation(t.dcf, t.order, z, a, b, t.beam_a, t.beam_b)
        assert rep.commutator_norm < 1e-9
        assert rep.action_residual < 1e-9

    def test_full_event_commutes_trivially(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        z = t.order.region(["z"])
        a = t.order.region(["wa"])
        b = t.order.region(["wb"])
        rep = check_spacelike_commutation(
            t.dcf, t.order, z, a, b, [t.space.full_event()], [t.beam_b[0]]
        )
        assert rep.commutator_norm < 1e-12

    def test_foreign_event_rejected(self, eprb_scenario):
        t00, t01 = eprb_scenario.theory(0, 0), eprb_scenario.theory(0, 1)
        z, a, b = (t01.order.region([p]) for p in ("z", "wa", "wb"))
        with pytest.raises(ValueError, match="event belongs to a different history space"):
            check_spacelike_commutation(
                t01.dcf, t01.order, z, a, b, t01.beam_a, t00.beam_b
            )

    def test_invalid_geometry_rejected(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        z = t.order.region(["z"])
        a = t.order.region(["wa"])
        with pytest.raises(ValueError):
            check_spacelike_commutation(
                t.dcf, t.order, z, a, a, [t.beam_a[0]], [t.beam_a[1]]
            )


class TestPartitionIdentity:
    def test_trivial_partition(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        resid = partition_gap(t, ("wa",), [t.space.full_event()])
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_event_and_complement(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        e = t.beam_a[0]
        resid = partition_gap(t, ("wa",), [e, ~e])
        assert resid < 1e-9

    def test_beam_partition(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        resid = partition_gap(t, ("wa",), t.beam_a)
        assert resid < 1e-9


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


def per_atom_poz(dcf, order, region):
    """Reference PoZ of one region: one pinv of the shadow atom matrix per
    region atom, with every atom vector summed by a one-hot matmul.
    Returns (kernel_dim, violation), or None when the shadow is empty."""
    bar = shadow(order, region)
    if bar.is_empty():
        return None
    fac = full_width_factor(dcf)
    bar_idx = region_algebra(dcf.space, bar.point_names()).atom_index
    r_idx = region_algebra(dcf.space, region.point_names()).atom_index
    onehot = np.eye(bar_idx.max() + 1)[bar_idx]
    v = fac @ onehot
    s = np.linalg.svd(v, compute_uv=False)
    rank = int((s ** 2 > dcf.tol.rel * s[0] ** 2).sum()) if s[0] > 0 else 0
    kernel_dim = v.shape[1] - rank
    if kernel_dim == 0:
        return 0, 0.0
    worst = 0.0
    for a in range(r_idx.max() + 1):
        cols = r_idx == a
        w = fac[:, cols] @ onehot[cols]
        p = w - (w @ np.linalg.pinv(v, rcond=np.sqrt(dcf.tol.rel))) @ v
        worst = max(worst, float(np.linalg.eigvalsh(p @ p.conj().T).max()))
    return kernel_dim, worst


def n_blocks(dcf, order, region):
    """Blocks the batched route splits the region's atoms into: at most
    n // max(d, n_bar) atoms each, for a d x n history factor.  Counts
    every atom, so it holds for functionals whose atoms are all live."""
    d, n = full_width_factor(dcf).shape
    n_bar = region_algebra(dcf.space, shadow(order, region).point_names()).n_atoms
    n_r = region_algebra(dcf.space, region.point_names()).n_atoms
    return -(-n_r // max(1, n // max(d, n_bar)))


def assert_matches_per_atom(dcf, order, regions):
    rep = check_poz(dcf, order, regions)
    rows = iter(rep.results)
    for region in regions:
        ref = per_atom_poz(dcf, order, region)
        if ref is None:
            continue
        row = next(rows)
        assert row.region_points == region.point_names()
        assert row.kernel_dim == ref[0]
        assert row.violation == pytest.approx(ref[1], abs=1e-12)
    assert next(rows, None) is None


def random_branch_dcf(rng, space, dim):
    """Lazy functional with random amplitudes on `dim` final configurations,
    so the history factor has few rows and the region blocks hold many atoms."""
    amp = rng.normal(size=space.size) + 1j * rng.normal(size=space.size)
    final = rng.integers(0, dim, size=space.size)
    fac = np.zeros((dim, space.size), dtype=complex)
    fac[final, np.arange(space.size)] = amp
    amp /= np.linalg.norm(fac.sum(axis=1))
    return DecoherenceFunctional.from_amplitudes(space, amp, final, dim)


class TestBatchedPoz:
    def test_random_sparse_spaces_match_per_atom_loop(self):
        rng = np.random.default_rng(17)
        split = 0
        for trial in range(6):
            space = random_space(rng, n_points=4, max_alpha=4)
            points = space.points
            order = (
                CausalOrder.antichain(points)
                if trial % 2 == 0
                else CausalOrder.from_covers(points, [(points[0], points[1])])
            )
            regions = every_region(order)
            lazy = random_branch_dcf(rng, space, dim=int(rng.integers(2, 4)))
            for dcf in (lazy, random_psd_dcf(rng, space)):
                assert_matches_per_atom(dcf, order, regions)
            split += sum(
                n_blocks(lazy, order, r) > 1
                for r in regions
                if not shadow(order, r).is_empty()
            )
        # the few factor rows of a lazy functional give blocks of many
        # atoms, and some region still spans several of them
        assert split > 0

    def test_stacked_temporaries_within_factor_size(self, monkeypatch):
        # the blocks cover the live region atoms x live shadow atoms, and
        # a lazy functional with two factor rows still needs several of
        # them: the stacked temporaries stay within a full-width factor
        import qmeasure.causality as causality

        shapes = []

        def recording(vh, w):
            shapes.append((w.shape, vh.shape[1]))
            return selection_violation(vh, w)

        monkeypatch.setattr(causality, "selection_violation", recording)
        rng = np.random.default_rng(11)
        split = 0
        for trial in range(3):
            space = random_space(rng, n_points=4, max_alpha=4)
            dcf = random_branch_dcf(rng, space, dim=2)
            if trial:  # dead histories, and with them some dead atoms
                b = dcf.branch
                amp = b.amplitudes * (rng.random(space.size) < 0.6)
                dcf = DecoherenceFunctional.from_amplitudes(space, amp, b.final_index, 2)
            live = dcf.branch.amplitudes != 0
            size = full_width_factor(dcf).size
            order = CausalOrder.antichain(space.points)

            def n_live(points):
                return np.unique(region_algebra(space, points).atom_index[live]).size

            for region in every_region(order):
                bar = shadow(order, region)
                if bar.is_empty():
                    continue
                shapes.clear()
                check_poz(dcf, order, [region])
                for (atoms, d, n_bar), n_v in shapes:
                    assert n_bar == n_v == n_live(bar.point_names())
                    assert atoms * d * max(d, n_bar) <= size
                if shapes:
                    assert sum(s[0][0] for s in shapes) == n_live(region.point_names())
                split += len(shapes) > 1
        assert split > 0  # some region took several blocks

    def test_circuit_regions_match_per_atom_loop(self):
        model = gen_sk_circuit(decoupled_demo_config(steps=2))
        order = model.order
        by_size = {}
        for region in every_region(order):
            if not shadow(order, region).is_empty():
                by_size.setdefault(len(region.point_names()), []).append(region)
        rng = np.random.default_rng(5)
        regions = [
            by_size[size][i]
            for size in (1, 6, 11)
            for i in rng.choice(len(by_size[size]), size=2, replace=False)
        ]
        assert_matches_per_atom(model.dcf, order, regions)

    def test_reversed_double_slit_matches_per_atom_loop(self):
        _, order, dcf = gen_double_slit(time_reversed=True)
        regions = every_region(order)
        assert_matches_per_atom(dcf, order, regions)
        row = check_poz(dcf, order, [order.region(["slit"])]).results[0]
        assert row.violation == pytest.approx(0.25, abs=1e-12)

    def test_stacked_selection_violation_is_max_over_slices(self):
        rng = np.random.default_rng(3)
        tol = Tolerance()
        v = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        w = rng.normal(size=(5, 4, 6)) + 1j * rng.normal(size=(5, 4, 6))
        _, s, vh = np.linalg.svd(v, full_matrices=False)
        vh = vh[: rank_from_singular_values(s, tol)]
        per_slice = [selection_violation(vh, w[i]) for i in range(5)]
        assert selection_violation(vh, w) == max(per_slice)
        # a stack whose slices are strided views, as the PoZ blocks are
        flat = np.ascontiguousarray(w.transpose(1, 0, 2)).reshape(4, 30)
        view = flat.reshape(4, 5, 6).swapaxes(0, 1)
        assert selection_violation(vh, view) == max(per_slice)


def full_width_lon(dcf, order, z):
    """Reference LoN row of one past set: dims by the rank rule and the
    residual of lstsq(rcond=None) on the full-width atom matrices, dead
    atoms' zero columns included."""
    fac = full_width_factor(dcf)

    def atom_vectors(region):
        index = region_algebra(dcf.space, region.point_names()).atom_index
        return fac @ np.eye(index.max() + 1)[index]

    def rank(v):
        s = np.linalg.svd(v, compute_uv=False)
        return int((s ** 2 > dcf.tol.rel * s[0] ** 2).sum()) if s[0] > 0 else 0

    vz, vd = atom_vectors(z), atom_vectors(future_domain(order, z))
    resid = np.linalg.norm(vd - vz @ np.linalg.lstsq(vz, vd, rcond=None)[0], axis=0)
    resid /= np.maximum(1.0, np.linalg.norm(vd, axis=0))
    return rank(vz), rank(vd), float(resid.max(initial=0.0))


def two_point_space(alpha_a, alpha_b):
    return HistorySpace(
        points=("a", "b"),
        histories=tuple(np.ndindex(alpha_a, alpha_b)),
        alphabets={"a": alpha_a, "b": alpha_b},
    )


class TestLiveAtoms:
    """PoZ and LoN span only the atoms that hold a live history; their
    reports equal the full-width computation."""

    @staticmethod
    def sparse_pair(rng, space):
        """A lazy and a dense functional whose histories with a[0] == 0 and
        about a third of the rest carry nothing, so some atoms are dead."""
        dead = (space.value_matrix[:, 0] == 0) | (rng.random(space.size) < 0.3)
        lazy = random_branch_dcf(rng, space, dim=int(rng.integers(2, 4)))
        b = lazy.branch
        lazy = DecoherenceFunctional.from_amplitudes(
            space, np.where(dead, 0.0, b.amplitudes), b.final_index, b.dim
        )
        vecs = rng.normal(size=(space.size, 3)) + 1j * rng.normal(size=(space.size, 3))
        vecs[dead] = 0.0
        return lazy, DecoherenceFunctional.from_history_vectors(space, vecs)

    def test_random_sparse_functionals_match_full_width(self):
        rng = np.random.default_rng(41)
        dead_shadows = 0
        for trial in range(6):
            space = random_space(rng, n_points=4, max_alpha=3)
            points = space.points
            covers = [] if trial % 2 == 0 else [(points[0], points[1]), (points[0], points[2])]
            order = CausalOrder.from_covers(points, covers)
            for dcf in self.sparse_pair(rng, space):
                live = full_width_factor(dcf).any(axis=0)
                assert_matches_per_atom(dcf, order, every_region(order))
                for region in every_region(order):
                    bar = shadow(order, region).point_names()
                    if bar:
                        index = region_algebra(space, bar).atom_index
                        dead_shadows += np.unique(index[live]).size < index.max() + 1
                for z, row in zip(down_sets(order), check_lon(dcf, order).results):
                    dim_z, dim_d, resid = full_width_lon(dcf, order, z)
                    assert (row.dim_z, row.dim_domain) == (dim_z, dim_d)
                    assert row.max_residual == pytest.approx(resid, abs=1e-12)
        # kernel_dim matched the full width on shadows with dead atoms
        assert dead_shadows > 0

    @pytest.mark.parametrize("dense", [False, True])
    def test_cancelling_live_histories_keep_their_atom(self, dense):
        # shadow atom a=0 holds two live histories whose vectors cancel;
        # the region {b} splits them apart, a persistence-of-zero failure
        space = two_point_space(2, 2)
        amp = np.array([1.0, -1.0, 1.0, 0.0])  # histories (0,0) (0,1) (1,0) (1,1)
        final = np.array([0, 0, 1, 1])
        if dense:
            vecs = np.zeros((4, 2), dtype=complex)
            vecs[np.arange(4), final] = amp
            dcf = DecoherenceFunctional.from_history_vectors(space, vecs)
        else:
            dcf = DecoherenceFunctional.from_amplitudes(space, amp, final, 2)
        order = CausalOrder.antichain(space.points)
        region = order.region(["b"])
        assert_matches_per_atom(dcf, order, [region])
        row = check_poz(dcf, order, [region]).results[0]
        assert row.kernel_dim == 1
        assert row.violation == pytest.approx(1.0, abs=1e-12)

    def test_dead_atoms_count_in_the_kernel(self):
        # only a in {0, 1} carries amplitude, on orthogonal final
        # configurations: a's six other atoms are the whole kernel
        space = two_point_space(8, 2)
        amp = np.zeros(space.size)
        amp[[0, 2]] = 0.6, 0.8  # histories (0,0) and (1,0)
        final = np.arange(space.size) // 2 % 2  # a mod 2
        dcf = DecoherenceFunctional.from_amplitudes(space, amp, final, 2)
        order = CausalOrder.antichain(space.points)
        row = check_poz(dcf, order, [order.region(["b"])]).results[0]
        assert (row.kernel_dim, row.violation) == (6, 0.0)
        assert_matches_per_atom(dcf, order, [order.region(["b"])])

    def test_lon_cut_reads_the_full_atom_count(self):
        # z's atom matrix is 2 x 64 with 62 dead columns; its second
        # singular value, 5e-15, lies below lstsq's cut eps * 64 but above
        # eps * 2, so the domain vector along it counts as novelty
        space = two_point_space(64, 2)
        order = CausalOrder.from_covers(space.points, [("a", "b")])
        amp = np.zeros(space.size)
        amp[[0, 2, 3]] = 1.0, 0.5, -0.5 + 5e-15  # histories (0,0) (1,0) (1,1)
        final = np.minimum(np.arange(space.size), 1)
        dcf = DecoherenceFunctional.from_amplitudes(space, amp, final, 2)
        z = order.region(["a"])
        row = check_lon(dcf, order, [z]).results[0]
        assert row.domain_points == ("a", "b")
        dim_z, dim_d, resid = full_width_lon(dcf, order, z)
        assert (row.dim_z, row.dim_domain) == (dim_z, dim_d) == (1, 2)
        assert resid == pytest.approx(0.5, abs=1e-12)
        assert row.max_residual == pytest.approx(resid, abs=1e-12)


def reference_operator(dcf, event, domain):
    """The operator of `event` on the span of the domain atom vectors by
    the normal equations: the frame pinv(v†v) v†w, and on an orthonormal
    basis of the span coords_w pinv(coords_v).  v and w sum the columns of
    a full-width factor with a one-hot matmul."""
    rel = dcf.tol.rel
    fac = full_width_factor(dcf)
    index = region_algebra(dcf.space, domain).atom_index
    onehot = np.eye(index.max() + 1)[index]
    v = fac @ onehot
    w = fac @ (event.flags[:, None] * onehot)
    frame = np.linalg.pinv(v.conj().T @ v, rcond=rel) @ (v.conj().T @ w)
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    basis = u[:, s > np.sqrt(rel) * s[0]]
    x = (basis.conj().T @ w) @ np.linalg.pinv(basis.conj().T @ v, rcond=np.sqrt(rel))
    return frame, x


class TestOperatorMatchesNormalEquations:
    def check(self, dcf, order, region, event, domain):
        op = event_operator(dcf, order, region, event, domain, force=True)
        frame, x = reference_operator(dcf, event, domain)
        assert np.abs(op.frame_matrix - frame).max() <= 1e-12
        # matrix depends on the factor's coordinates up to a unitary
        assert op.matrix.shape == x.shape
        sv = np.linalg.svd(op.matrix, compute_uv=False)
        assert np.abs(sv - np.linalg.svd(x, compute_uv=False)).max() <= 1e-12

    def test_eprb_theories(self, eprb_scenario):
        for t in eprb_scenario.theories.values():
            for events, points in ((t.beam_a, ("wa",)), (t.beam_b, ("wb",))):
                for e in events:
                    self.check(t.dcf, t.order, points, e, ("z",))

    def test_random_dense_and_lazy_families(self):
        rng = np.random.default_rng(29)
        for _ in range(6):
            space = random_space(rng, n_points=3, max_alpha=3)
            order = CausalOrder.antichain(space.points)
            p = space.points[0]
            lazy = random_branch_dcf(rng, space, dim=3)
            for dcf in (random_psd_dcf(rng, space), lazy):
                for value in range(space.alphabets[p]):
                    for domain in (space.points[1:], space.points[2:], ()):
                        self.check(dcf, order, (p,), space.value_event(p, value), domain)


    def test_circuit_past_with_dead_atoms(self):
        # the 2-step circuit's past: 256 atoms, of which only 2 carry
        # amplitude, so the live block sits among dead rows and columns
        model = gen_sk_circuit(decoupled_demo_config(steps=2))
        z = model.region("Z")
        alg = region_algebra(model.space, z)
        n_live = np.unique(alg.atom_index[model.dcf.live]).size
        assert (model.space.size, alg.n_atoms, n_live) == (4096, 256, 2)
        for cell in model.region("A").point_names():
            for value in range(2):
                event = model.space.value_event(cell, value)
                self.check(model.dcf, model.order, (cell,), event, z.point_names())


class TestFunctionalTolerance:
    """A check reads the tolerance of the functional it is given."""

    def test_checks_follow_the_functional_tolerance(self, eprb_scenario):
        t = eprb_scenario.theory(0, 0)
        _, q = np.linalg.eigh(t.dcf.matrix)
        # push one null direction to eigenvalue -1e-8
        dcf = DecoherenceFunctional(
            t.space, matrix=t.dcf.matrix - 1e-8 * np.outer(q[:, 0], q[:, 0].conj())
        )
        z, a, b = (t.order.region([p]) for p in ("z", "wa", "wb"))
        calls = {
            "poz": lambda d: check_poz(d, t.order),
            "lon": lambda d: check_lon(d, t.order),
            "factorizability": lambda d: check_quantum_factorizability(d, t.order, z, a, b),
            "commutation": lambda d: check_spacelike_commutation(
                d, t.order, z, a, b, [t.beam_a[0]], [t.beam_b[0]]
            ),
            "operator": lambda d: event_operator(
                d, t.order, ("wa",), t.beam_a[0], ("z",), force=True
            ),
        }
        for call in calls.values():
            with pytest.raises(CheckViolation):
                call(dcf)
        loose = dataclasses.replace(dcf, tol=Tolerance(1e-6))
        for name, call in calls.items():
            result = call(loose)
            if name != "operator":  # an operator carries no tolerance
                assert result.tol.rel == 1e-6, name


class TestSharedSpans:
    """Quantum patching runs PoZ, LoN and the wing operators of a theory on
    one span table; through it they give exactly what the standalone calls
    give, each of which builds its own."""

    def check(self, dcf, order, domain, families):
        spans = causality._Spans(dcf)
        past = down_sets(order)
        poz = causality._check_poz(dcf, order, [~z for z in past], spans)
        lon = causality._check_lon(dcf, order, past, spans)
        assert poz.as_dict() == check_poz(dcf, order).as_dict()
        assert lon.as_dict() == check_lon(dcf, order).as_dict()
        built = len(spans)
        assert domain.point_names() in spans  # the operators read a LoN span
        _, shared = causality._operator_families(dcf, order, domain, families, True, spans)
        assert len(spans) == built
        for (region, events), ops in zip(families, shared):
            for event, op in zip(events, ops):
                alone = event_operator(dcf, order, region, event, domain, force=True)
                for name in ("matrix", "frame_matrix", "basis"):
                    assert np.array_equal(getattr(op, name), getattr(alone, name)), name
                for name in ("consistency", "codomain", "universal"):
                    name += "_residual"
                    assert getattr(op, name) == getattr(alone, name), name

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_spin_pairs(self, eprb_scenario, seed):
        sc = eprb_scenario
        if seed is not None:
            rng = np.random.default_rng(seed)
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            angles = tuple(float(a) for a in rng.uniform(0.0, np.pi, size=4))
            sc = gen_eprb(EprbConfig(angles=angles, resolution_basis=np.linalg.qr(raw)[0]))
        for t in sc.theories.values():
            a, b, z = (t.order.region(p) for p in (sc.a_points, sc.b_points, sc.z_points))
            self.check(t.dcf, t.order, z, [(a, t.beam_a), (b, t.beam_b)])

    @pytest.mark.parametrize("name", ROUTE_MODELS)
    def test_route_models(self, route_models, name):
        # a chain through the space's points: its past sets are the prefixes
        dcf = route_models[name][0]
        points = dcf.space.points
        order = CausalOrder.from_covers(points, list(zip(points, points[1:])))
        last = order.region(points[-1:])
        events = atom_events(region_algebra(dcf.space, last))[:2]
        self.check(dcf, order, order.region(points[:1]), [(last, events)])
