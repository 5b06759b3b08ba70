import dataclasses
import json

import numpy as np
import pytest

from conftest import full_width_factor, span_rank

from qmeasure import (
    CausalOrder,
    DecoherenceFunctional,
    HistorySpace,
    SkCircuitConfig,
    SkGate,
    check_agreement,
    check_lon,
    check_poz,
    check_quantum_factorizability,
    check_spacelike_commutation,
    check_truncation_independence,
    decoupled_demo_config,
    gen_sk_circuit,
    region_algebra,
)
from qmeasure._linalg import scatter_columns
from qmeasure.sk_model import CNOT, HADAMARD, bell_pair_gate


def ry(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


class TestGeneration:
    def test_hadamard_splits_evenly(self):
        cfg = SkCircuitConfig(sites=1, steps=1, gates=(SkGate(1, (0,), HADAMARD),))
        model = gen_sk_circuit(cfg)
        for v in (0, 1):
            ev = model.space.value_event("0,1", v)
            assert model.dcf.measure(ev) == pytest.approx(0.5, abs=1e-12)

    def test_identity_wires_propagate_point_mass(self):
        cfg = SkCircuitConfig(sites=2, steps=2)
        model = gen_sk_circuit(cfg)
        ev = model.space.full_event()
        for t in range(3):
            ev = ev & model.space.value_event(f"0,{t}", 0) & model.space.value_event(f"1,{t}", 0)
        assert model.dcf.measure(ev) == pytest.approx(1.0, abs=1e-12)

    def test_axioms_sampled(self):
        cfg = decoupled_demo_config(steps=2)
        model = gen_sk_circuit(cfg)
        rep = model.dcf.validate_axioms()
        assert rep.sampled and rep.passed

    def test_induced_order_follows_gates(self):
        cfg = SkCircuitConfig(
            sites=2, steps=1, gates=(SkGate(1, (0, 1), bell_pair_gate()),)
        )
        model = gen_sk_circuit(cfg)
        o = model.order
        assert o.leq[o.point_index("1,0"), o.point_index("0,1")]
        cfg2 = SkCircuitConfig(sites=2, steps=1)
        o2 = gen_sk_circuit(cfg2).order
        assert not o2.leq[o2.point_index("1,0"), o2.point_index("0,1")]

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            gen_sk_circuit(SkCircuitConfig(sites=5, steps=3))

    def test_overlapping_gates_rejected(self):
        with pytest.raises(ValueError):
            SkCircuitConfig(
                sites=2,
                steps=1,
                gates=(
                    SkGate(1, (0,), HADAMARD),
                    SkGate(1, (0, 1), bell_pair_gate()),
                ),
            )

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            SkCircuitConfig(sites=1, steps=1, psi=np.array([1.0, 1.0]))


def gathered_branch(cfg):
    """Reference amplitudes and final indices of `gen_sk_circuit`, built
    by gathering each history's gate entries from its value vector, in
    the same circuit order: (amplitudes, final_index, live)."""
    q, L, r = cfg.q, cfg.sites, cfg.mixed_rank
    offset = 1 if r > 1 else 0
    alpha = [r] * offset + [q] * (L * (cfg.t_f + 1))
    values = np.indices(alpha, dtype=np.uint16).reshape(len(alpha), -1).T

    def config_index(cells):
        idx = np.zeros(len(values), dtype=np.int64)
        for s, t in cells:
            idx = idx * q + values[:, offset + t * L + s]
        return idx

    rho = values[:, 0] if r > 1 else np.zeros(len(values), dtype=np.int64)
    amp = cfg.psi[rho, config_index([(s, 0) for s in range(L)])].copy()
    for t in range(1, cfg.t_f + 1):
        touched = set()
        for g in cfg.gates:
            if g.layer == t:
                touched |= set(g.sites)
                i_in = config_index([(s, t - 1) for s in g.sites])
                i_out = config_index([(s, t) for s in g.sites])
                amp *= g.matrix[i_out, i_in]
        for s in range(L):
            if s not in touched:
                amp *= values[:, offset + (t - 1) * L + s] == values[:, offset + t * L + s]
    final = config_index([(s, cfg.t_f) for s in range(L)])
    return amp, final, np.flatnonzero(amp)


def random_unitary(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]


class TestBroadcastAmplitudes:
    """`gen_sk_circuit` broadcasts each factor onto the history grid; the
    result must equal the per-history gather to the last bit."""

    def check(self, cfg):
        branch = gen_sk_circuit(cfg).dcf.branch
        amp, final, live = gathered_branch(cfg)
        assert branch.amplitudes.tobytes() == amp.tobytes()
        assert np.array_equal(branch.final_index, final)
        assert np.array_equal(branch.live, live)

    @pytest.mark.parametrize("steps", [2, 3])
    def test_stock_circuit(self, steps):
        self.check(decoupled_demo_config(steps))

    def test_truncated(self):
        self.check(dataclasses.replace(decoupled_demo_config(3), t_f=1))

    def test_mixed_rank_psi(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        gates = (SkGate(1, (1, 0), random_unitary(rng, 4)), SkGate(2, (1,), HADAMARD))
        self.check(SkCircuitConfig(
            sites=2, steps=2, psi=psi / np.linalg.norm(psi), gates=gates
        ))

    def test_qutrits_unsorted_sites(self):
        rng = np.random.default_rng(6)
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        gates = (
            SkGate(1, (1, 0), random_unitary(rng, 9)),
            SkGate(2, (0,), random_unitary(rng, 3)),
        )
        cfg = SkCircuitConfig(
            sites=2, steps=3, q=3, psi=psi / np.linalg.norm(psi), gates=gates
        )
        self.check(cfg)
        self.check(dataclasses.replace(cfg, t_f=2))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuits(self, seed):
        # random gate layouts on three qubits, sites in random order
        rng = np.random.default_rng(seed)
        steps = int(rng.integers(1, 4))
        gates = []
        for t in range(1, steps + 1):
            sites = [int(s) for s in rng.permutation(3)]
            while sites:
                k = int(rng.integers(1, len(sites) + 1))
                if rng.random() < 0.8:
                    gates.append(SkGate(t, tuple(sites[:k]), random_unitary(rng, 2 ** k)))
                sites = sites[k:]
        r = int(rng.integers(1, 3))
        psi = rng.normal(size=(r, 8)) + 1j * rng.normal(size=(r, 8))
        self.check(SkCircuitConfig(
            sites=3, steps=steps, psi=psi / np.linalg.norm(psi), gates=tuple(gates),
            t_f=int(rng.integers(0, steps + 1)),
        ))


class TestTruncation:
    def test_unitary_circuit_independent(self):
        cfg = decoupled_demo_config(steps=2)
        rep = check_truncation_independence(cfg, 1, 2)
        assert rep.passed
        assert rep.max_residual < 1e-12

    def test_broken_unitarity_detected(self):
        cfg = decoupled_demo_config(steps=2)
        gates = list(cfg.gates)
        last = gates[-1]
        gates[-1] = SkGate(last.layer, last.sites, last.matrix * 1.05)
        bad = SkCircuitConfig(
            sites=4, steps=2, gates=tuple(gates), regions=cfg.regions
        )
        rep = check_truncation_independence(bad, 1, 2)
        assert not rep.passed
        assert rep.max_residual > 1e-3

    def test_events_fixed_at_start_unaffected(self):
        cfg = SkCircuitConfig(
            sites=1, steps=2,
            gates=(SkGate(1, (0,), HADAMARD), SkGate(2, (0,), ry(0.4))),
        )
        rep = check_truncation_independence(cfg, 0, 2, regions=[("0,0",)])
        assert rep.max_residual < 1e-12

    def test_late_events_rejected(self):
        cfg = decoupled_demo_config(steps=2)
        with pytest.raises(ValueError):
            check_truncation_independence(cfg, 1, 2, regions=[("0,2",)])

    @pytest.mark.parametrize("slices", [(1, 3), (0, 3)])
    def test_reversed_slices_equal_reports(self, slices):
        cfg = decoupled_demo_config(steps=3)
        lo, hi = slices
        rep = check_truncation_independence(cfg, lo, hi, seed=5)
        assert check_truncation_independence(cfg, hi, lo, seed=5) == rep
        assert rep.t_f_low == lo and rep.passed

    def test_purification_point_accepted(self):
        rep = check_truncation_independence(
            mixed_config(), 0, 2, regions=[("rho",), ("rho", "1,0")]
        )
        assert rep.passed and rep.regions_tested == 2

    @pytest.mark.parametrize("name", ["rho", "bogus", "7,0"])
    def test_unknown_point_named(self, name):
        cfg = decoupled_demo_config(steps=2)
        with pytest.raises(ValueError, match=f"unknown point '{name}'"):
            check_truncation_independence(cfg, 1, 2, regions=[("0,0",), (name,)])

    def test_cell_above_lower_slice_still_refused(self):
        with pytest.raises(ValueError, match="lies above truncation slice 0"):
            check_truncation_independence(
                mixed_config(), 2, 0, regions=[("rho", "1,1")]
            )

    def test_lone_cell_below_the_slice(self):
        # one site, lower slice 0: one single-cell region and no pairs
        rep = check_truncation_independence(SkCircuitConfig(sites=1, steps=1), 0, 1)
        assert rep.passed and rep.regions_tested == 1

    def test_empty_region_list_refused(self):
        with pytest.raises(ValueError, match="certifies nothing"):
            check_truncation_independence(decoupled_demo_config(steps=2), 1, 2, regions=[])

    @pytest.mark.parametrize("slices", [(1, 3), (2, 3)])
    def test_overflowing_sums_refused(self, slices):
        """Finite amplitudes whose products overflow leave inf - inf = nan
        in the difference, which no `max` comparison flags."""
        gates = tuple(SkGate(t, (0,), HADAMARD * 1e80) for t in (1, 2, 3))
        cfg = SkCircuitConfig(sites=1, steps=3, gates=gates)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                check_truncation_independence(cfg, *slices)

    def test_region_above_dense_cap_refused(self):
        wide = tuple(f"{s},{t}" for t in (0, 1, 2) for s in range(4))[:11]
        with pytest.raises(ValueError, match="2048 atoms, above the dense cap"):
            check_truncation_independence(
                decoupled_demo_config(steps=3), 2, 3, regions=[wide]
            )


def mixed_config():
    """The two-step stock circuit from a rank-2 initial state."""
    rng = np.random.default_rng(8)
    psi = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
    return dataclasses.replace(
        decoupled_demo_config(steps=2), psi=psi / np.linalg.norm(psi)
    )


def restricted_check(cfg, t_f1, t_f2, regions=None, seed=0):
    """The comparison of both functionals on each region's atoms, each
    model's region algebra built on its own histories, the high model's
    scanned once per region; returns the largest entry difference and the
    number of regions."""
    lo = min(t_f1, t_f2)
    model1 = gen_sk_circuit(dataclasses.replace(cfg, t_f=t_f1))
    model2 = gen_sk_circuit(dataclasses.replace(cfg, t_f=t_f2))
    if regions is None:
        cells = [f"{s},{t}" for t in range(lo + 1) for s in range(cfg.sites)]
        regions = [(c,) for c in cells]
        rng = np.random.default_rng(seed)
        for _ in range(min(20, len(cells) ** 2)):
            pair = rng.choice(len(cells), size=2, replace=False)
            regions.append((cells[pair[0]], cells[pair[1]]))
    worst = 0.0
    for reg in regions:
        a1, a2 = (region_algebra(m.space, reg) for m in (model1, model2))
        assert np.array_equal(a1.representatives, a2.representatives)
        g1 = model1.dcf.grouped(a1.atom_index[model1.dcf.live], a1.n_atoms)
        g2 = model2.dcf.grouped(a2.atom_index[model2.dcf.live], a2.n_atoms)
        worst = max(worst, float(np.abs(g1 - g2).max()))
    return worst, len(regions)


class TestTruncationThroughFinestAlgebra:
    """Reading each region's atoms on the high model through the finest
    algebra below the lower slice gives the restricted comparison's
    residual to the last bit."""

    def check(self, cfg, t_f1, t_f2, regions=None, seed=0):
        rep = check_truncation_independence(cfg, t_f1, t_f2, regions=regions, seed=seed)
        assert (rep.max_residual, rep.regions_tested) == restricted_check(
            cfg, t_f1, t_f2, regions, seed
        )
        return rep

    @pytest.mark.parametrize("slices", [(2, 3), (1, 3), (0, 3)])
    def test_stock_circuit(self, slices):
        rep = self.check(decoupled_demo_config(steps=3), *slices, seed=3)
        assert rep.passed

    def test_equal_slices_refused(self):
        # a functional compared with itself, like an empty region list
        with pytest.raises(ValueError, match="certifies nothing"):
            check_truncation_independence(decoupled_demo_config(steps=3), 2, 2, seed=3)

    def test_scaled_last_gate(self):
        cfg = decoupled_demo_config(steps=3)
        last = cfg.gates[-1]
        gates = cfg.gates[:-1] + (SkGate(last.layer, last.sites, last.matrix * 1.03),)
        rep = self.check(dataclasses.replace(cfg, gates=gates), 2, 3, seed=1)
        assert not rep.passed and rep.regions_tested == 32

    @pytest.mark.parametrize("slices", [(1, 2), (2, 0)])
    def test_qutrits_random_unitaries(self, slices):
        rng = np.random.default_rng(17)
        gates = []
        for t in (1, 2):
            gates += [SkGate(t, (2, 0), random_unitary(rng, 9)), SkGate(t, (1,), random_unitary(rng, 3))]
        psi = rng.normal(size=27) + 1j * rng.normal(size=27)
        cfg = SkCircuitConfig(
            sites=3, steps=2, q=3, psi=psi / np.linalg.norm(psi), gates=tuple(gates)
        )
        self.check(cfg, *slices, seed=2)

    @pytest.mark.parametrize("slices", [(1, 2), (0, 2)])
    def test_mixed_rank_with_purification_region(self, slices):
        regions = [("rho",), ("rho", "0,0"), ("1,0", "2,0"), ()]
        rep = self.check(mixed_config(), *slices, regions=regions)
        assert rep.regions_tested == 4


def tagged_factorizability(cfg):
    """The screening-off check on a circuit's tagged Z, A and B regions."""
    model = gen_sk_circuit(cfg)
    return check_quantum_factorizability(
        model.dcf, model.order, *(model.region(tag) for tag in "ZAB")
    )


class TestFactorizabilityDemo:
    def test_small_fixture_exact(self):
        rep = tagged_factorizability(decoupled_demo_config(steps=2))
        assert rep.exhaustive
        assert rep.max_residual < 1e-9

    def test_coupling_gate_gets_its_verdict(self, tmp_path, capsys):
        """A second Bell gate on the middle sites at the last layer couples
        the wings but leaves them spacelike: well-formed input, so the
        check runs exhaustively and reports the violation (exit 3)."""
        from qmeasure.cli import main
        from qmeasure.serialization import dump_json, sk_config_to_json

        regions = decoupled_demo_config(steps=2).regions
        gates = (
            SkGate(1, (1, 2), bell_pair_gate()),
            SkGate(2, (1, 2), bell_pair_gate()),  # straddles the wing split
        )
        cfg = SkCircuitConfig(sites=4, steps=2, gates=gates, regions=regions)
        rep = tagged_factorizability(cfg)
        assert rep.exhaustive and rep.combinations_checked == 16777216
        assert not rep.passed
        assert rep.max_residual == pytest.approx(0.0625, abs=1e-12)
        path = str(tmp_path / "coupled.json")
        dump_json(sk_config_to_json(cfg), path)
        assert main(["sk", "factorizability", path]) == 3
        assert json.loads(capsys.readouterr().out)["passed"] is False

    def test_coupling_gate_in_causal_contact_refused(self):
        """One layer later the same gate puts an A cell below a B cell:
        the wings are not spacelike, so the arrangement is bad input."""
        cfg = decoupled_demo_config(steps=3)
        gates = tuple(g for g in cfg.gates if g.layer < 3) + (SkGate(3, (1, 2), bell_pair_gate()),)
        cfg = SkCircuitConfig(sites=4, steps=3, gates=gates, regions=cfg.regions)
        with pytest.raises(ValueError, match="'wings_spacelike': False"):
            tagged_factorizability(cfg)

    def test_non_finite_gate_refused(self):
        cfg = decoupled_demo_config(steps=2)
        u = cfg.gates[0].matrix.copy()
        u[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            SkGate(cfg.gates[0].layer, cfg.gates[0].sites, u)

    def test_non_finite_psi_refused(self):
        """A NaN amplitude has a NaN norm, which no `>` comparison flags."""
        for bad in (np.nan, np.inf):
            psi = np.zeros(4, dtype=complex)
            psi[0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                SkCircuitConfig(sites=2, steps=1, psi=psi)

    def test_missing_regions_rejected(self):
        cfg = SkCircuitConfig(sites=2, steps=1)
        with pytest.raises(ValueError, match="no region tagging"):
            tagged_factorizability(cfg)


class TestCausalChecks:
    def test_exhaustive_poz_small_circuit(self):
        cfg = SkCircuitConfig(
            sites=2, steps=2,
            gates=(
                SkGate(1, (0, 1), bell_pair_gate()),
                SkGate(2, (0, 1), CNOT @ np.kron(HADAMARD, ry(0.3))),
            ),
        )
        model = gen_sk_circuit(cfg)
        rep = check_poz(model.dcf, model.order, regions="exhaustive")
        assert rep.passed
        assert rep.max_violation < 1e-12

    def test_down_set_poz_on_demo(self):
        model = gen_sk_circuit(decoupled_demo_config(steps=2))
        from qmeasure import down_sets

        regions = down_sets(model.order)[::4]  # sampled, still dozens
        rep = check_poz(model.dcf, model.order, regions=regions)
        assert rep.passed

    def test_mixed_state_satisfies_novelty_and_commutation(self):
        # a full-rank initial condition makes the early slices span the
        # whole event Hilbert space, unlike a point-mass start
        rho = np.eye(4, dtype=complex) / 2.0
        cfg = SkCircuitConfig(
            sites=2, steps=2, psi=rho,
            gates=(
                SkGate(1, (0, 1), bell_pair_gate()),
                SkGate(2, (0,), HADAMARD),
                SkGate(2, (1,), ry(0.37)),
            ),
        )
        model = gen_sk_circuit(cfg)
        assert check_lon(model.dcf, model.order).passed
        z = model.order.region(
            ["rho"] + [f"{s},{t}" for t in (0, 1) for s in (0, 1)]
        )
        a = model.order.region(["0,2"])
        b = model.order.region(["1,2"])
        ea = model.space.value_event("0,2", 0)
        eb = model.space.value_event("1,2", 1)
        rep = check_spacelike_commutation(model.dcf, model.order, z, a, b, [ea], [eb])
        assert rep.commutator_norm < 1e-9
        assert rep.action_residual < 1e-9

    def test_pure_point_mass_breaks_novelty(self):
        cfg = SkCircuitConfig(
            sites=2, steps=1, gates=(SkGate(1, (0, 1), bell_pair_gate()),)
        )
        model = gen_sk_circuit(cfg)
        assert not check_lon(model.dcf, model.order).passed


class TestRankBounds:
    def test_pure_state_rank_at_most_qL(self):
        cfg = decoupled_demo_config(steps=2)
        model = gen_sk_circuit(cfg)
        assert span_rank(model.dcf, model.space.points) <= 2 ** 4

    def test_mixed_state_rank_bound(self):
        rho = np.eye(4, dtype=complex) / 2.0
        cfg = SkCircuitConfig(sites=2, steps=1, psi=rho,
                              gates=(SkGate(1, (0, 1), bell_pair_gate()),))
        model = gen_sk_circuit(cfg)
        assert span_rank(model.dcf, model.space.points) <= 4


class TestMixedState:
    def test_purification_point_added(self):
        rho = np.zeros((2, 4), dtype=complex)
        rho[0, 0] = np.sqrt(0.7)
        rho[1, 3] = np.sqrt(0.3)
        model = gen_sk_circuit(SkCircuitConfig(sites=2, steps=1, psi=rho))
        assert model.space.points[0] == "rho"
        assert model.dcf.validate_axioms().passed

    def test_branch_weights_add(self):
        rho = np.zeros((2, 4), dtype=complex)
        rho[0, 0] = np.sqrt(0.7)
        rho[1, 3] = np.sqrt(0.3)
        model = gen_sk_circuit(SkCircuitConfig(sites=2, steps=1, psi=rho))
        ev = model.space.value_event("0,0", 0) & model.space.value_event("1,0", 0)
        assert model.dcf.measure(ev) == pytest.approx(0.7, abs=1e-12)


class TestCaps:
    def test_restriction_above_dense_cap_rejected(self):
        # an 11-cell region of the lazy circuit has 2048 atoms
        model = gen_sk_circuit(decoupled_demo_config(steps=3))
        wide = [f"{s},{t}" for t in (0, 1, 2) for s in range(4)][:11]
        with pytest.raises(ValueError, match="dense cap"):
            check_agreement(model.dcf, model.dcf, tuple(wide))

    def test_event_space_needs_region_for_large_lazy(self, tmp_path, capsys):
        from qmeasure.cli import main

        path = str(tmp_path / "sk.json")
        assert main(["sk", "fixture", "--steps", "3", "--out", path]) == 0
        capsys.readouterr()
        assert main(["hilbert", path]) == 2
        assert "pass a region" in capsys.readouterr().err
        assert main(["hilbert", path, "--region", "0,3,1,3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["atoms"] == 4 and report["rank"] >= 1


def _brute_force_residual(dcf, z, a, b):
    """Doubled screening-off residual over every (past, wing, wing) atom
    combination, amplitude-free atoms included, from Gram matrices of the
    atom-triple, past-atom and wing-past atom vectors."""
    fac = full_width_factor(dcf)
    algs = [region_algebra(dcf.space, r.point_names()) for r in (z, a, b)]
    n_z, n_a, n_b = (alg.n_atoms for alg in algs)
    grid = n_z * n_a * n_b
    triple = (algs[0].atom_index * n_a + algs[1].atom_index) * n_b + algs[2].atom_index
    x = scatter_columns(fac, triple, grid).T
    gz, ga, gb = np.unravel_index(np.arange(grid), (n_z, n_a, n_b))
    za, zb = gz * n_a + ga, gz * n_b + gb
    vz = scatter_columns(fac, algs[0].atom_index, n_z).T
    va = scatter_columns(fac, algs[0].atom_index * n_a + algs[1].atom_index, n_z * n_a).T
    vb = scatter_columns(fac, algs[0].atom_index * n_b + algs[2].atom_index, n_z * n_b).T
    d_z, d_a, d_b = (v.conj() @ v.T for v in (vz, va, vb))
    worst = 0.0
    for rows in np.array_split(np.arange(grid), n_z):
        lhs = (x[rows].conj() @ x.T) * d_z[gz[rows]][:, gz]
        rhs = d_a[za[rows]][:, za] * d_b[zb[rows]][:, zb]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst, grid ** 2


def _coupled_config(cfg):
    """`cfg` with its last wing gates replaced by one gate that couples
    the wings through a CNOT across the middle sites."""
    last_a, last_b = [g for g in cfg.gates if g.layer == cfg.steps]
    coupling = np.kron(np.eye(2), np.kron(CNOT, np.eye(2))) @ np.kron(
        last_a.matrix, last_b.matrix
    )
    return SkCircuitConfig(
        sites=cfg.sites, steps=cfg.steps, q=cfg.q,
        gates=tuple(g for g in cfg.gates if g.layer < cfg.steps)
        + (SkGate(cfg.steps, (0, 1, 2, 3), coupling),),
        regions=cfg.regions,
    )


def _generic_amplitudes(model, seed, mix_final=False):
    """Same lattice, amplitudes with no product structure and none of them
    zero.  With `mix_final` the final configurations are drawn at random,
    so that every pair of wing atoms shares some final configuration."""
    rng = np.random.default_rng(seed)
    n = model.space.size
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    dim = model.dcf.branch.dim
    fin = rng.integers(0, dim, n) if mix_final else model.dcf.branch.final_index
    norm = np.zeros(dim, dtype=complex)
    np.add.at(norm, fin, amps)
    amps /= np.sqrt(np.vdot(norm, norm).real)
    return DecoherenceFunctional.from_amplitudes(model.space, amps, fin, dim)


class TestFactorizabilityBruteForce:
    def _compare(self, model, dcf):
        regions = [model.region(r) for r in "ZAB"]
        rep = check_quantum_factorizability(dcf, model.order, *regions)
        worst, total = _brute_force_residual(dcf, *regions)
        assert rep.exhaustive
        assert rep.combinations_checked == rep.combinations_total == total
        return rep, worst

    def test_decoupled_circuit_matches_brute_force(self):
        model = gen_sk_circuit(decoupled_demo_config(steps=2))
        rep, worst = self._compare(model, model.dcf)
        assert rep.passed
        assert rep.max_residual < 1e-12 and worst < 1e-12

    def test_coupled_circuit_matches_brute_force(self):
        cfg = decoupled_demo_config(steps=2)
        model = gen_sk_circuit(_coupled_config(cfg))
        live = full_width_factor(model.dcf).any(axis=0)
        alg_z = region_algebra(model.space, model.region("Z").point_names())
        assert len(np.unique(alg_z.atom_index[live])) < alg_z.n_atoms
        rep, worst = self._compare(model, model.dcf)
        assert not rep.passed and rep.max_residual > 1e-6
        assert rep.max_residual == pytest.approx(worst, rel=1e-9)

    def test_generic_amplitudes_match_brute_force(self):
        model = gen_sk_circuit(decoupled_demo_config(steps=2))
        rep, worst = self._compare(model, _generic_amplitudes(model, 71))
        assert rep.max_residual > 1e-6
        assert rep.max_residual == pytest.approx(worst, rel=1e-9)

    def test_mixed_final_configurations_match_brute_force(self):
        # every pair of wing atoms shares a final configuration, so the
        # scan runs as one block over all atoms
        model = gen_sk_circuit(decoupled_demo_config(steps=2))
        rep, worst = self._compare(model, _generic_amplitudes(model, 72, True))
        assert rep.max_residual > 1e-6
        assert rep.max_residual == pytest.approx(worst, rel=1e-9)

    @pytest.mark.parametrize(
        "histories, amps, finals, expected",
        [
            # A atom 1 and B atom 1 reach disjoint final configurations, so
            # no history carries both; the largest residual is there, at
            # |D(A1, A1)| |D(B1, B1)| = 1/2 * 3/4
            (
                ((0, 1, 0), (0, 0, 1), (0, 2, 1), (0, 2, 2)),
                [np.sqrt(0.5), 0.5, np.sqrt(0.5), -0.5],
                [1, 0, 2, 0],
                0.375,
            ),
            # B atoms 0 and 1 share final configuration 0; the largest
            # residual pairs them: |D(A1 B0, A1 B1) - D(A1, A1) D(B0, B1)|
            # = 0.3 * 0.6 * 0.55
            (
                ((0, 0, 1), (0, 1, 0), (0, 1, 1)),
                [np.sqrt(0.55), 0.3, 0.6j],
                [1, 0, 0],
                0.099,
            ),
        ],
    )
    def test_wing_components_by_hand(self, histories, amps, finals, expected):
        order = CausalOrder.from_covers(("z", "a", "b"), [("z", "a"), ("z", "b")])
        space = HistorySpace(points=("z", "a", "b"), histories=histories)
        dcf = DecoherenceFunctional.from_amplitudes(
            space, np.array(amps, dtype=complex), np.array(finals), max(finals) + 1
        )
        regions = [order.region([p]) for p in ("z", "a", "b")]
        rep = check_quantum_factorizability(dcf, order, *regions)
        worst, total = _brute_force_residual(dcf, *regions)
        assert rep.combinations_checked == total
        assert rep.max_residual == pytest.approx(expected, abs=1e-12)
        assert worst == pytest.approx(expected, abs=1e-12)

    def test_scan_over_limit_refused(self):
        # no atom is amplitude-free and every pair of wing atoms shares a
        # final configuration, so all 65536^2 combinations remain
        model = gen_sk_circuit(decoupled_demo_config(steps=3))
        dcf = _generic_amplitudes(model, 73, True)
        with pytest.raises(ValueError, match="factorizability limit"):
            check_quantum_factorizability(
                dcf, model.order, *(model.region(r) for r in "ZAB")
            )
