"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to
see them live).  Tolerances are fixed here, not configurable."""

import time

import numpy as np
import pytest

from conftest import atom_events, correlation_table, random_factorizable_scenario

from qmeasure import (
    DecoherenceFunctional,
    HistorySpace,
    check_poz,
    check_quantum_factorizability,
    check_spacelike_commutation,
    check_truncation_independence,
    chsh_value,
    classical_patch,
    converse_model,
    event_operator,
    gen_double_slit,
    gen_eprb,
    gen_ghz,
    gen_pr_box,
    gen_sk_circuit,
    joint_feasibility,
    quantum_patch,
    region_algebra,
)
from qmeasure.patching import SETTING_KEYS, classical_marginal_residual, patch_marginal_residual
from qmeasure.sk_model import SkCircuitConfig, SkGate, decoupled_demo_config
from conftest import event_vector, partition_gap, random_psd_dcf, random_space, span_rank


def report(num, name, ok):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {name}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def eprb():
    return gen_eprb()


@pytest.fixture(scope="module")
def eprb_patch(eprb):
    return quantum_patch(eprb)


@pytest.fixture(scope="module")
def sk_large():
    return gen_sk_circuit(decoupled_demo_config(steps=3))


def test_criterion_1_axiom_suite(eprb, sk_large):
    start = time.monotonic()
    failures = []

    def check(dcf, label):
        rep = dcf.validate_axioms()
        if not (
            rep.hermiticity_residual < 1e-9
            and rep.normalization_residual < 1e-9
            and rep.min_eigenvalue >= -1e-9 * max(rep.eigenvalue_scale, 1.0)
        ):
            failures.append(label)

    _, _, ds = gen_double_slit()
    check(ds, "double slit")
    for key, t in eprb.theories.items():
        check(t.dcf, f"eprb {key}")
    pr_model, _ = gen_pr_box()
    check(pr_model.dcf, "pr joint model")
    for key, arr in pr_model.beam_dcfs.items():
        space = HistorySpace(
            points=("w1", "w2"),
            histories=tuple((i, j) for i in range(2) for j in range(2)),
        )
        check(
            DecoherenceFunctional(space, matrix=arr.reshape(4, 4)),
            f"pr beam {key}",
        )
    ghz_model, _ = gen_ghz()
    check(ghz_model.dcf, "ghz")
    check(gen_sk_circuit(decoupled_demo_config(steps=2)).dcf, "sk small")
    check(sk_large.dcf, "sk large")
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s")
    report(1, "axiom suite on every generator output", not failures)


def test_criterion_2_double_slit_poz_asymmetry():
    _, fwd_order, fwd = gen_double_slit()
    ok = check_poz(fwd, fwd_order).passed
    _, rev_order, rev = gen_double_slit(time_reversed=True)
    rep = check_poz(rev, rev_order)
    worst = rep.worst()
    ok = (
        ok
        and not rep.passed
        and abs(worst.violation - 0.25) <= 1e-12
        and worst.region_points == ("slit",)
    )
    report(2, "double-slit zero-persistence asymmetry", ok)


def test_criterion_3_event_operator_corollaries(eprb):
    ok = True
    t00 = eprb.theory(0, 0)
    # universal-vector corollary and partition identity per wing
    for e in t00.beam_a:
        op = event_operator(t00.dcf, t00.order, ("wa",), e, ("z",))
        ok = ok and op.universal_residual < 1e-9
    ok = ok and partition_gap(t00, ("wa",), t00.beam_a) < 1e-9
    ok = ok and partition_gap(t00, ("wb",), t00.beam_b) < 1e-9
    # spacelike commutators
    z = t00.order.region(["z"])
    a = t00.order.region(["wa"])
    b = t00.order.region(["wb"])
    rep = check_spacelike_commutation(t00.dcf, t00.order, z, a, b, t00.beam_a, t00.beam_b)
    ok = ok and rep.commutator_norm < 1e-9 and rep.action_residual < 1e-9
    # agreement independence: operator from the sibling theory coincides
    t01 = eprb.theory(0, 1)
    for e1, e2 in zip(t00.beam_a, t01.beam_a):
        op1 = event_operator(t00.dcf, t00.order, ("wa",), e1, ("z",))
        op2 = event_operator(t01.dcf, t01.order, ("wa",), e2, ("z",))
        ok = ok and np.abs(op1.frame_matrix - op2.frame_matrix).max() < 1e-9
    report(3, "event-operator corollaries on the spin-pair scenario", ok)


def test_criterion_4_classical_patching():
    start = time.monotonic()
    ok = True
    rng = np.random.default_rng(0)
    for trial in range(100):
        sc = random_factorizable_scenario(
            rng, nk=int(rng.integers(1, 5)), zero_mass_k=bool(trial % 7 == 0)
        )
        jm = classical_patch(sc)
        ok = ok and jm.values.min() >= 0.0
        ok = ok and abs(jm.total() - 1.0) < 1e-12
        ok = ok and classical_marginal_residual(jm, sc) < 1e-12
        ok = ok and chsh_value(jm.correlation_table()) <= 2.0 + 1e-9
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report(4, "classical patching on 100 seeded factorizable models", ok)


def test_criterion_5_quantum_patching(eprb, eprb_patch):
    jd = eprb_patch
    ok = jd.hermiticity_residual() < 1e-12
    ok = ok and jd.min_eigenvalue() >= -1e-9
    for key in SETTING_KEYS:
        ok = ok and patch_marginal_residual(jd, eprb, *key) < 1e-9
    jd2 = quantum_patch(eprb, ordering=("ap", "a", "bp", "b"))
    ok = ok and np.abs(jd.values - jd2.values).max() > 1e-9  # arrays may differ
    for key in SETTING_KEYS:
        ok = ok and patch_marginal_residual(jd2, eprb, *key) < 1e-9
    report(5, "quantum patching marginals and ordering invariance", ok)


def test_criterion_6_tsirelson_numbers(eprb):
    value = chsh_value(correlation_table(eprb))
    _, pr_table = gen_pr_box()
    ok = abs(value - 2 * np.sqrt(2)) < 1e-6 and chsh_value(pr_table) == 4.0
    report(6, "CHSH reaches 2*sqrt(2) quantum and 4 for the box", ok)


def test_criterion_7_converse_round_trip(eprb_patch):
    beam = eprb_patch.beam_joint()
    conv = converse_model(beam)
    got = conv.beam_dcfs()
    want = {
        k: eprb_patch.setting_marginal(*k).sum(axis=(2, 5)) for k in SETTING_KEYS
    }
    ok = all(np.abs(got[k] - want[k]).max() < 1e-12 for k in SETTING_KEYS)
    for key in SETTING_KEYS:
        t = conv.theory(*key)
        rep = check_quantum_factorizability(
            t.dcf,
            t.order,
            t.order.region(["z"]),
            t.order.region(["wa"]),
            t.order.region(["wb"]),
        )
        ok = ok and rep.exhaustive and rep.max_residual < 1e-12
    report(7, "converse construction round trip", ok)


def test_criterion_8_feasibility_contrast(eprb):
    rep_q = joint_feasibility(eprb.beam_dcfs(), budget=20000)
    ok = rep_q.feasible and rep_q.gap < 1e-6 and rep_q.iterations <= 20000
    pr_model, _ = gen_pr_box()
    rep_pr = joint_feasibility(pr_model.beam_dcfs, budget=20000)
    cert = rep_pr.certificate
    ok = ok and rep_pr.verdict == "infeasible" and rep_pr.gap > 1e-3
    ok = ok and rep_pr.iterations < 100 and cert.value + cert.slack_term < 0
    rep_q2 = joint_feasibility(eprb.beam_dcfs(), budget=20000)
    ok = ok and rep_q2.gap == rep_q.gap and rep_q2.iterations == rep_q.iterations
    report(8, "joint feasibility separates quantum from box correlations", ok)


def test_criterion_9_sk_desk_scale(sk_large):
    start = time.monotonic()
    rep = check_quantum_factorizability(
        sk_large.dcf,
        sk_large.order,
        sk_large.region("Z"),
        sk_large.region("A"),
        sk_large.region("B"),
    )
    ok = rep.exhaustive and rep.max_residual < 1e-9
    cfg = sk_large.config
    trunc = check_truncation_independence(cfg, 2, 3)
    ok = ok and trunc.max_residual < 1e-9
    gates = list(cfg.gates)
    last = gates[-1]
    gates[-1] = SkGate(last.layer, last.sites, last.matrix * 1.03)
    broken = SkCircuitConfig(
        sites=cfg.sites, steps=cfg.steps, gates=tuple(gates), regions=cfg.regions
    )
    ok = ok and check_truncation_independence(broken, 2, 3).max_residual > 1e-6
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(9, "decoupled-wing circuit identity at desk scale", ok)


def test_criterion_10_ghz():
    model, event = gen_ghz()
    ok = abs(model.dcf.measure(event) - 1.0) <= 1e-12
    ok = ok and model.dcf.measure(~event) < 1e-12
    report(10, "three-wing parity event has unit measure", ok)


def test_criterion_11_hilbert_bounds(eprb, sk_large):
    # ranks come from the region's atom vectors: the 12-point circuit has
    # more atoms than an event Hilbert space may hold
    ok = span_rank(eprb.theory(0, 0).dcf, ("z", "wa", "wb")) <= 4
    small = gen_sk_circuit(decoupled_demo_config(steps=2))
    ok = ok and span_rank(small.dcf, small.space.points) <= 2 ** 4
    ok = ok and span_rank(sk_large.dcf, ("0,3", "1,3", "2,3", "3,3")) <= 2 ** 4
    rng = np.random.default_rng(0)
    for _ in range(100):
        space = random_space(rng)
        dcf = random_psd_dcf(rng, space)
        k = int(rng.integers(0, len(space.points)))
        small_pts = space.points[:k]
        big_pts = space.points[: k + 1]
        big_rank = span_rank(dcf, big_pts)
        ok = ok and span_rank(dcf, small_pts) <= big_rank
        # every coarse atom vector lies in the fine region's span
        for atom in atom_events(region_algebra(space, small_pts)):
            ok = ok and span_rank(dcf, big_pts, event_vector(dcf, atom)) == big_rank
    report(11, "event Hilbert space rank bounds and monotonicity", ok)
