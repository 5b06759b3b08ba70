"""The four workloads: inputs, the timed check calls, and their checks.

Each workload has
  setup(seed, workdir)   -> state    inputs made from the seed (timed as setup_s)
  references(state, seed) -> refs    reference values, computed apart (untimed)
  ops(state)             -> [(name, call, verify)]
A round runs every call once and is timed as a whole; `verify(value,
refs)` then returns a list of disagreements (empty when the output is
right) and whether a disagreement is the known Dykstra stall.

qmeasure is reached through its modules (`causality.check_poz`), so the
spans that spans.install() puts in place are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from qmeasure import (
    causal_order,
    causality,
    cli,
    decoherence,
    histories,
    patching,
    scenarios,
    serialization,
    sk_model,
)

import reference as ref

TOL = 1e-9
SETTINGS = ((0, 0), (0, 1), (1, 0), (1, 1))
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

# desk-circuit: the broken-gate control scales the last gate by this factor
BROKEN_GATE_SCALE = 1.03
# causal-sweep: regions drawn per region size (sizes 1..11, non-vacuous only)
REGIONS_PER_SIZE = 5
# causal-sweep: regions recomputed by the reference (past sets: all of them)
REFERENCE_HANDFUL = 3
# patching: seeded spin pairs and seeded classical scenarios per round
PATCH_SPIN_PAIRS = 12
PATCH_CLASSICAL = 6
# feasibility: fixed spin-pair family (independent of the seed) and seeded tables
FIXED_FAMILY_SEED = 1
FIXED_FAMILY_SIZE = 4
FEASIBILITY_TABLES = 6
# local hidden-variable values per classical scenario
LHV_VALUES = 3


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    known_fault: bool = False

    def need(self, ok, message):
        if not ok:
            self.problems.append(message)


def run_cli(argv):
    """Run the command line in process; returns (exit code, report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def parse_cell(name):
    s, t = name.split(",")
    return int(s), int(t)


def random_spin_pair(rng):
    """Complex Gaussian -> QR resolution basis, then analyzer angles on [0, pi)."""
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    basis, _ = np.linalg.qr(raw)
    angles = tuple(float(a) for a in rng.uniform(0.0, np.pi, size=4))
    return scenarios.EprbConfig(angles=angles, resolution_basis=basis)


def random_lhv(rng):
    """(p_k, P(outcome 0 | setting, k) per wing) of a local hidden-variable model."""
    p = rng.dirichlet(np.ones(LHV_VALUES))
    return p, rng.uniform(size=(2, LHV_VALUES)), rng.uniform(size=(2, LHV_VALUES))


def classical_scenario(p, pa, pb):
    """Four dense classical theories realizing a local hidden-variable model;
    histories are (k, 2*setting_a + i, 2*setting_b + j)."""
    points = ("z", "wa", "wb")
    order = causal_order.CausalOrder.from_covers(points, [("z", "wa"), ("z", "wb")])
    tables = ref.lhv_setting_tables(p, pa, pb)
    theories = {}
    for sa, sb in SETTINGS:
        hist = tuple(
            (k, sa * 2 + i, sb * 2 + j)
            for k in range(len(p)) for i in range(2) for j in range(2)
        )
        space = histories.HistorySpace(
            points=points, histories=hist,
            alphabets={"z": len(p), "wa": 4, "wb": 4},
        )
        diag = [tables[(sa, sb)][i, j, k] for k in range(len(p)) for i in range(2) for j in range(2)]
        dcf = decoherence.DecoherenceFunctional(space, matrix=np.diag(diag).astype(complex))
        beam_a = tuple(space.value_event("wa", sa * 2 + i) for i in range(2))
        beam_b = tuple(space.value_event("wb", sb * 2 + j) for j in range(2))
        theories[(sa, sb)] = patching.SettingTheory(space, order, dcf, beam_a, beam_b)
    return patching.SettingScenario(theories, ("z",), ("wa",), ("wb",))


def table_beams(tables):
    """Diagonal beam functionals of probability tables (outcomes as records)."""
    beam = {}
    for key, t in tables.items():
        tab = t.sum(axis=2)
        arr = np.zeros((2, 2, 2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                arr[i, j, i, j] = tab[i, j]
        beam[key] = arr
    return beam


def gate_list(cfg):
    return [(g.layer, g.sites, g.matrix) for g in cfg.gates]


# ---------------------------------------------------------------------------
# desk-circuit: the stock 65536-history circuit through the CLI, plus two
# library negative controls


def desk_setup(seed, workdir):
    cfg = sk_model.decoupled_demo_config(steps=3)
    model = sk_model.gen_sk_circuit(cfg)
    last_a, last_b = [g for g in cfg.gates if g.layer == cfg.steps]
    coupling = np.kron(np.eye(2), np.kron(CNOT, np.eye(2))) @ np.kron(last_a.matrix, last_b.matrix)
    coupled_cfg = sk_model.SkCircuitConfig(
        sites=cfg.sites, steps=cfg.steps, q=cfg.q,
        gates=tuple(g for g in cfg.gates if g.layer < cfg.steps)
        + (sk_model.SkGate(cfg.steps, (0, 1, 2, 3), coupling),),
        regions=cfg.regions,
    )
    last = cfg.gates[-1]
    broken_cfg = sk_model.SkCircuitConfig(
        sites=cfg.sites, steps=cfg.steps, q=cfg.q,
        gates=cfg.gates[:-1]
        + (sk_model.SkGate(last.layer, last.sites, BROKEN_GATE_SCALE * last.matrix),),
        regions=cfg.regions,
    )
    path = os.path.join(workdir, "desk.json")
    serialization.dump_json(serialization.sk_config_to_json(cfg), path)
    return {
        "seed": seed, "cfg": cfg, "model": model, "path": path,
        "coupled": sk_model.gen_sk_circuit(coupled_cfg),
        "coupled_cfg": coupled_cfg, "broken_cfg": broken_cfg,
    }


def desk_references(state, seed):
    cfg = state["cfg"]
    axes = {"Z": [], "A": [], "B": []}
    for name, tag in cfg.regions.items():
        s, t = parse_cell(name)
        axes[tag].append(t * cfg.sites + s)
    dim = cfg.q ** cfg.sites
    out = {
        "combinations": (cfg.q ** (len(axes["Z"]) + len(axes["A"]) + len(axes["B"]))) ** 2,
    }
    for key, c in (("decoupled", cfg), ("coupled", state["coupled_cfg"])):
        amp = ref.path_sum(c.sites, c.q, c.psi, gate_list(c), c.t_f)
        fin = ref.final_index(amp.shape, c.sites, c.t_f, c.q)
        out[f"{key}_max_residual"] = ref.screening_off_max(
            amp, fin, dim, axes["Z"], axes["A"], axes["B"]
        )
        if key == "decoupled":
            total = ref.region_vectors(amp, fin, dim, []).sum(axis=1)
            out["norm_residual"] = abs(float(np.vdot(total, total).real) - 1.0)
    cells = [(s, t) for t in range(3) for s in range(cfg.sites)]
    for key, c in (("unitary", cfg), ("broken", state["broken_cfg"])):
        out[f"{key}_truncation"] = ref.truncation_residual(
            c.sites, c.q, c.psi, gate_list(c), 2, 3, [[cell] for cell in cells]
        )
    out["single_cells"] = len(cells)
    return out


def desk_ops(state):
    path, seed = state["path"], str(state["seed"])
    model, coupled = state["model"], state["coupled"]

    def verify_factorizability(value, refs):
        code, rep = value
        v = Verdict()
        v.need(code == 0, f"exit code {code}")
        v.need(rep["exhaustive"] and rep["passed"], "not an exhaustive pass")
        v.need(rep["combinations_checked"] == rep["combinations_total"] == refs["combinations"],
               f"combinations {rep['combinations_checked']} != {refs['combinations']}")
        v.need(rep["max_residual"] <= TOL, f"max_residual {rep['max_residual']:.3e}")
        v.need(refs["decoupled_max_residual"] <= TOL,
               f"path-sum residual {refs['decoupled_max_residual']:.3e}")
        return v

    def verify_truncation(value, refs):
        code, rep = value
        v = Verdict()
        v.need(code == 0, f"exit code {code}")
        v.need(rep["passed"] and rep["max_residual"] < TOL, f"max_residual {rep['max_residual']:.3e}")
        v.need(rep["regions_tested"] >= refs["single_cells"], "fewer regions than single cells")
        v.need(refs["unitary_truncation"] < TOL,
               f"path-sum truncation residual {refs['unitary_truncation']:.3e}")
        return v

    def verify_validate(value, refs):
        code, rep = value
        v = Verdict()
        v.need(code == 0, f"exit code {code}")
        v.need(rep["passed"] and rep["sampled"], "lazy axioms do not pass")
        v.need(abs(rep["normalization_residual"] - refs["norm_residual"]) <= 1e-12,
               f"normalization {rep['normalization_residual']:.3e} vs path sum {refs['norm_residual']:.3e}")
        return v

    def verify_coupled(rep, refs):
        v = Verdict()
        v.need(rep.exhaustive and not rep.passed and rep.max_residual > TOL,
               f"coupled circuit not reported as a violation ({rep.max_residual:.3e})")
        v.need(rep.combinations_checked == refs["combinations"], "combination count")
        v.need(abs(refs["coupled_max_residual"] - rep.max_residual) <= TOL,
               f"path-sum residual {refs['coupled_max_residual']:.6e} != "
               f"reported {rep.max_residual:.6e}")
        return v

    def verify_broken(rep, refs):
        v = Verdict()
        v.need(not rep.passed and rep.max_residual > 1e-6,
               f"broken gate residual {rep.max_residual:.3e}")
        v.need(refs["broken_truncation"] > 1e-6
               and refs["broken_truncation"] <= rep.max_residual + 1e-12,
               f"path-sum single-cell residual {refs['broken_truncation']:.3e} vs "
               f"{rep.max_residual:.3e}")
        return v

    return [
        ("cli sk factorizability", lambda: run_cli(["sk", "factorizability", path]),
         verify_factorizability),
        ("cli sk truncation", lambda: run_cli(
            ["sk", "truncation", path, "--tf1", "2", "--tf2", "3", "--seed", seed]),
         verify_truncation),
        ("cli validate", lambda: run_cli(["validate", path, "--seed", seed]), verify_validate),
        ("coupled factorizability", lambda: causality.check_quantum_factorizability(
            coupled.dcf, model.order, model.region("Z"), model.region("A"), model.region("B")),
         verify_coupled),
        ("broken-gate truncation", lambda: sk_model.check_truncation_independence(
            state["broken_cfg"], 2, 3, seed=state["seed"]), verify_broken),
    ]


# ---------------------------------------------------------------------------
# causal-sweep: PoZ over a size-stratified region list and LoN over every
# past set of the 12-point circuit, then the two-slit models


def sweep_setup(seed, workdir):
    cfg = sk_model.decoupled_demo_config(steps=2)
    model = sk_model.gen_sk_circuit(cfg)
    rel = ref.circuit_order(cfg.sites, cfg.t_f, gate_list(cfg))
    names = model.order.points
    axis = {p: parse_cell(p)[1] * cfg.sites + parse_cell(p)[0] for p in names}
    by_size = {}
    for mask in range(1, 1 << len(names)):
        pts = [p for i, p in enumerate(names) if mask >> i & 1]
        if not rel[[axis[p] for p in pts]].any(axis=0).all():  # shadow not empty
            by_size.setdefault(len(pts), []).append(pts)
    rng = np.random.default_rng(seed)
    chosen = []
    for size in sorted(by_size):
        pool = by_size[size]
        for i in rng.choice(len(pool), size=min(REGIONS_PER_SIZE, len(pool)), replace=False):
            chosen.append(pool[i])
    return {
        "cfg": cfg, "model": model, "rel": rel, "axis": axis,
        "regions": [model.order.region(pts) for pts in chosen],
        "past_sets": causal_order.down_sets(model.order),
        "slit": scenarios.gen_double_slit(),
        "slit_reversed": scenarios.gen_double_slit(time_reversed=True),
    }


def sweep_references(state, seed):
    cfg, rel, axis = state["cfg"], state["rel"], state["axis"]
    amp = ref.path_sum(cfg.sites, cfg.q, cfg.psi, gate_list(cfg), cfg.t_f)
    fin = ref.final_index(amp.shape, cfg.sites, cfg.t_f, cfg.q)
    dim = cfg.q ** cfg.sites
    rng = np.random.default_rng(seed)
    poz = {}
    for i in rng.choice(len(state["regions"]), size=REFERENCE_HANDFUL, replace=False):
        pts = state["regions"][i].point_names()
        poz[pts] = ref.poz_violation(amp, fin, dim, rel, sorted(axis[p] for p in pts))
    lon = {}
    for z in state["past_sets"]:
        z_axes = sorted(axis[p] for p in z.point_names())
        vz = ref.region_vectors(amp, fin, dim, z_axes)
        vd = ref.region_vectors(amp, fin, dim, ref.future_domain_axes(rel, z_axes))
        lon[z.point_names()] = (ref.span_dim(vz), ref.span_dim(vd), ref.lon_residual(vz, vd))
    return {"poz": poz, "lon": lon}


def sweep_ops(state):
    model = state["model"]
    regions, past_sets = state["regions"], state["past_sets"]

    def verify_poz(rep, refs):
        v = Verdict()
        v.need(len(rep.results) == len(regions) and rep.skipped_vacuous == 0,
               f"{len(rep.results)} results, {rep.skipped_vacuous} skipped for "
               f"{len(regions)} non-vacuous regions")
        v.need(rep.passed, f"forward circuit fails PoZ ({rep.max_violation:.3e})")
        found = {r.region_points: r for r in rep.results}
        for pts, expected in refs["poz"].items():
            got = found.get(pts)
            if got is None:
                v.need(False, f"no result for region {pts}")
                continue
            kdim, viol = expected
            v.need(got.kernel_dim == kdim, f"kernel dim {got.kernel_dim} != {kdim} at {pts}")
            v.need(abs(got.violation - viol) <= TOL,
                   f"violation {got.violation:.3e} != {viol:.3e} at {pts}")
        return v

    def verify_lon(rep, refs):
        v = Verdict()
        v.need(len(rep.results) == len(past_sets), "one result per past set")
        found = {r.z_points: r for r in rep.results}
        for pts, (dz, dd, resid) in refs["lon"].items():
            got = found.get(pts)
            if got is None:
                v.need(False, f"no result for past set {pts}")
                continue
            v.need((got.dim_z, got.dim_domain) == (dz, dd),
                   f"dims at {pts}: {(got.dim_z, got.dim_domain)} != {(dz, dd)}")
            v.need(abs(got.max_residual - resid) <= TOL,
                   f"residual {got.max_residual:.3e} != {resid:.3e} at {pts}")
            # the past set's span lies inside the domain's, so equal
            # dimensions and a zero residual say the same thing
            v.need((got.max_residual <= TOL) == (got.dim_z == got.dim_domain),
                   f"residual {got.max_residual:.3e} with dims {(got.dim_z, got.dim_domain)} at {pts}")
        holds = all(dz == dd and resid <= TOL for dz, dd, resid in refs["lon"].values())
        v.need(rep.passed == holds, f"LoN verdict {rep.passed}, reference {holds}")
        return v

    def verify_slit(rep, refs):
        v = Verdict()
        v.need(rep.passed and rep.max_violation <= TOL,
               f"forward two-slit violation {rep.max_violation:.3e}")
        return v

    def verify_slit_reversed(rep, refs):
        v = Verdict()
        worst = rep.worst()
        v.need(not rep.passed and abs(rep.max_violation - 0.25) <= TOL,
               f"reversed two-slit violation {rep.max_violation:.6f}")
        v.need(worst is not None and worst.region_points == ("slit",),
               f"worst region {worst and worst.region_points}")
        return v

    _, slit_order, slit_dcf = state["slit"]
    _, rev_order, rev_dcf = state["slit_reversed"]
    return [
        ("poz region sweep", lambda: causality.check_poz(model.dcf, model.order, regions),
         verify_poz),
        ("lon past sets", lambda: causality.check_lon(model.dcf, model.order, past_sets),
         verify_lon),
        ("two-slit poz", lambda: causality.check_poz(slit_dcf, slit_order), verify_slit),
        ("reversed two-slit poz", lambda: causality.check_poz(rev_dcf, rev_order),
         verify_slit_reversed),
    ]


# ---------------------------------------------------------------------------
# patching: seeded spin pairs through quantum patching and the converse
# model, seeded local hidden-variable scenarios through classical patching


def patching_setup(seed, workdir):
    rng = np.random.default_rng(seed)
    configs = [scenarios.EprbConfig()] + [random_spin_pair(rng) for _ in range(PATCH_SPIN_PAIRS)]
    lhv = [random_lhv(rng) for _ in range(PATCH_CLASSICAL)]
    return {
        "spin": [(c, scenarios.gen_eprb(c)) for c in configs],
        "classical": [(m, classical_scenario(*m)) for m in lhv],
    }


def patching_references(state, seed):
    spin = []
    for cfg, _ in state["spin"]:
        born = {
            k: ref.born_setting_values(cfg.angles, cfg.resolution_basis, cfg.initial_state, *k)
            for k in SETTINGS
        }
        spin.append((born, ref.singlet_chsh(cfg.angles)))
    classical = []
    for model, _ in state["classical"]:
        tables = ref.lhv_setting_tables(*model)
        classical.append((tables, ref.chsh_from_tables({k: t.sum(axis=2) for k, t in tables.items()})))
    return {"spin": spin, "classical": classical}


def quantum_pipeline(scenario):
    jdcf = patching.quantum_patch(scenario)
    marginal = max(patching.patch_marginal_residual(jdcf, scenario, *k) for k in SETTINGS)
    tables = {}
    for key in SETTINGS:
        m = jdcf.setting_marginal(*key).sum(axis=(2, 5))
        tables[key] = np.array([[m[i, j, i, j].real for j in range(2)] for i in range(2)])
    chsh = patching.chsh_value(patching.CorrelationTable(tables))
    conv = patching.converse_model(jdcf.beam_joint())
    reports = []
    for key in SETTINGS:
        t = conv.theory(*key)
        reports.append(causality.check_quantum_factorizability(
            t.dcf, t.order, t.order.region(conv.z_points),
            t.order.region(conv.a_points), t.order.region(conv.b_points),
        ))
    return jdcf, marginal, chsh, reports


def classical_pipeline(scenario):
    jm = patching.classical_patch(scenario)
    return jm, patching.chsh_value(jm.correlation_table())


def patching_ops(state):
    def verify_quantum(index):
        def verify(value, refs):
            jdcf, marginal, chsh, reports = value
            born, chsh_ref = refs["spin"][index]
            v = Verdict()
            v.need(jdcf.hermiticity_residual() <= TOL * max(1.0, float(np.abs(jdcf.flat()).max())),
                   f"joint not Hermitian ({jdcf.hermiticity_residual():.3e})")
            v.need(jdcf.min_eigenvalue() >= -TOL, f"min eigenvalue {jdcf.min_eigenvalue():.3e}")
            v.need(jdcf.normalization_residual() <= TOL, "joint not normalized")
            for key in SETTINGS:
                gap = float(np.abs(jdcf.setting_marginal(*key) - born[key]).max())
                v.need(gap <= TOL, f"setting {key} marginal off the Born rule by {gap:.3e}")
            v.need(marginal <= TOL, f"library marginal residual {marginal:.3e}")
            v.need(chsh <= 2 * np.sqrt(2) + TOL and abs(chsh - chsh_ref) <= TOL,
                   f"CHSH {chsh:.12f} vs closed form {chsh_ref:.12f}")
            for r in reports:
                v.need(r.exhaustive and r.max_residual < 1e-12,
                       f"converse theory residual {r.max_residual:.3e}")
            return v
        return verify

    def verify_classical(index):
        def verify(value, refs):
            jm, chsh = value
            tables, chsh_ref = refs["classical"][index]
            v = Verdict()
            v.need(jm.values.min() >= -1e-12 and abs(jm.total() - 1.0) <= TOL,
                   "joint measure not a probability")
            for key in SETTINGS:
                gap = float(np.abs(jm.setting_marginal(*key) - tables[key]).max())
                v.need(gap <= TOL, f"setting {key} marginal off by {gap:.3e}")
            v.need(chsh <= 2.0 + TOL and abs(chsh - chsh_ref) <= TOL,
                   f"classical CHSH {chsh:.12f} vs {chsh_ref:.12f}")
            return v
        return verify

    ops = []
    for n, (_, scenario) in enumerate(state["spin"]):
        ops.append((f"quantum patch {n}", lambda s=scenario: quantum_pipeline(s), verify_quantum(n)))
    for n, (_, scenario) in enumerate(state["classical"]):
        ops.append((f"classical patch {n}", lambda s=scenario: classical_pipeline(s),
                    verify_classical(n)))
    return ops


# ---------------------------------------------------------------------------
# feasibility: Dykstra on the box, the stock spin pair, a fixed spin-pair
# family and seeded local hidden-variable tables


def feasibility_setup(seed, workdir):
    box, _ = scenarios.gen_pr_box()
    family_rng = np.random.default_rng(FIXED_FAMILY_SEED)
    spins = [("stock", scenarios.EprbConfig())] + [
        (f"family {n}", random_spin_pair(family_rng)) for n in range(FIXED_FAMILY_SIZE)
    ]
    rng = np.random.default_rng(seed)
    inputs = [("box", "box", box.beam_dcfs, None)]
    for name, cfg in spins:
        inputs.append((name, "spin", scenarios.gen_eprb(cfg).beam_dcfs(), cfg))
    for n in range(FEASIBILITY_TABLES):
        model = random_lhv(rng)
        inputs.append((f"table {n}", "table", table_beams(ref.lhv_setting_tables(*model)), model))
    return {"inputs": inputs}


def feasibility_references(state, seed):
    witnesses = []
    for _, kind, beam, params in state["inputs"]:
        if kind == "spin":
            joint = ref.born_joint_witness(params.angles, params.initial_state)
        elif kind == "table":
            joint = ref.lhv_joint_witness(*params)
        else:
            witnesses.append(None)
            continue
        witnesses.append((ref.witness_marginal_gap(joint, beam), ref.min_eigenvalue(joint)))
    return {"witnesses": witnesses}


def feasibility_ops(state):
    def verify(index, kind):
        def check(rep, refs):
            v = Verdict()
            if kind == "box":
                v.need(rep.verdict != "feasible", "box reported feasible")
                v.need(rep.no_signalling_residual <= 1e-12, "box no-signalling residual")
                return v
            gap, min_eig = refs["witnesses"][index]
            witnessed = gap <= 1e-12 and min_eig >= -1e-12
            v.need(witnessed, f"reference witness invalid (gap {gap:.3e}, min eig {min_eig:.3e})")
            v.need(rep.verdict == "feasible" and rep.gap < 1e-6,
                   f"{rep.verdict} after {rep.iterations} steps (gap {rep.gap:.3e}) "
                   "although a PSD joint exists")
            # a stall on a witnessed spin pair is the Dykstra metric fault
            v.known_fault = kind == "spin" and witnessed and rep.verdict == "undecided-infeasible"
            return v
        return check

    return [
        (name, lambda b=beam: patching.joint_feasibility(b), verify(n, kind))
        for n, (name, kind, beam, _) in enumerate(state["inputs"])
    ]


WORKLOADS = {
    "desk-circuit": (desk_setup, desk_references, desk_ops),
    "causal-sweep": (sweep_setup, sweep_references, sweep_ops),
    "patching": (patching_setup, patching_references, patching_ops),
    "feasibility": (feasibility_setup, feasibility_references, feasibility_ops),
}
