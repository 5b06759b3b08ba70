"""The rank rule and the two routines built on it: `hilbert.region_span`,
the one source of a span's basis, kernel projector and pseudo-inverse, and
`psd_factor`, the dense factor with one row per kept eigenvalue; and the
report protocol `Report`."""

import dataclasses

import numpy as np
import pytest

from conftest import ROUTE_MODELS, full_width_factor, route_regions

from qmeasure import Tolerance, converse_model, gen_eprb, quantum_patch, region_algebra
from qmeasure._linalg import Report, psd_factor, rank_from_singular_values, scatter_columns
from qmeasure.causal_order import GeometryReport
from qmeasure.causality import (
    CommutationReport,
    FactorizabilityReport,
    LonRegionResult,
    LonReport,
    PozRegionResult,
    PozReport,
)
from qmeasure.cli import ResidualReport
from qmeasure.decoherence import AxiomReport
from qmeasure.hilbert import region_span
from qmeasure.patching import FarkasCertificate, FeasibilityReport, ScenarioReport
from qmeasure.sk_model import TruncationReport


def svd_rank(a, tol):
    """The rank rule on a full SVD of the vector family a."""
    return rank_from_singular_values(np.linalg.svd(a, compute_uv=False), tol)


def cplx(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestRegionSpan:
    """`hilbert.region_span` on the regions of every route model, at the
    default tolerance and a coarse one."""

    @pytest.mark.parametrize("rel", [1e-9, 1e-6])
    @pytest.mark.parametrize("name", ROUTE_MODELS)
    def test_rank_basis_and_row_projector(self, route_models, name, rel):
        dcf = dataclasses.replace(route_models[name][0], tol=Tolerance(rel))
        full = full_width_factor(dcf)
        for points in route_regions(dcf, len(name) + 1):
            n_atoms, live, _, v, (u, _, vh), r = region_span(dcf, points)
            alg = region_algebra(dcf.space, points)
            wide = scatter_columns(full, alg.atom_index, alg.n_atoms)
            # the live columns of the full-width atom vectors; the rest are zero
            assert n_atoms == alg.n_atoms and np.array_equal(v, wide[:, live])
            assert r == svd_rank(wide, dcf.tol)
            basis, rows = u[:, :r], vh[:r]
            assert np.abs(basis.conj().T @ basis - np.eye(r)).max(initial=0.0) <= 1e-12
            # vh[:r]† vh[:r] projects onto the row space, as pinv(v) v does
            ref = np.linalg.pinv(v, rcond=np.sqrt(rel)) @ v
            assert np.abs(rows.conj().T @ rows - ref).max(initial=0.0) <= 1e-12

    def test_rank_rule_keeps_nothing_of_an_empty_or_zero_family(self):
        for v in (np.zeros((5, 0), dtype=complex), np.zeros((4, 7), dtype=complex)):
            assert svd_rank(v, Tolerance()) == 0


class TestPsdFactor:
    def test_random_psd_matrices(self):
        rng = np.random.default_rng(12)
        tol = Tolerance()
        for n, r in ((6, 6), (8, 3), (10, 1), (5, 0), (16, 4)):
            g = cplx(rng, n, r)
            m = g @ g.conj().T
            fac = psd_factor(m, tol)
            assert fac.shape == (r, n)
            assert fac.shape[0] == svd_rank(g.conj().T, tol)
            assert fac.any(axis=1).all()  # no zero row
            assert np.abs(fac.conj().T @ fac - m).max(initial=0.0) <= 1e-12

    def test_rows_follow_the_rank_rule_near_the_cut(self):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(cplx(rng, 6, 6))
        w = np.array([1.0, 1e-3, 2e-9, 5e-10, 1e-12, 0.0])
        m = (q * w) @ q.conj().T
        for rel, rows in ((1e-9, 3), (1e-6, 2), (1e-2, 1), (1e-11, 4)):
            tol = Tolerance(rel)
            fac = psd_factor(m, tol)
            assert fac.shape == (rows, 6)
            assert fac.shape[0] == svd_rank(np.sqrt(w)[:, None] * q.conj().T, tol)
            assert fac.any(axis=1).all()

    def test_stock_converse_theory_factor_has_rank_rows(self):
        conv = converse_model(quantum_patch(gen_eprb()).beam_joint())
        for t in conv.theories.values():
            assert t.dcf.factor.shape == (4, 16)


# each report and its JSON document: the fields in declaration order
# (renamed or left out by their metadata `key`, None values left out, rows
# and certificates as documents), then the derived properties, then passed
# where the report has it, then the tolerance where it holds one
REPORT_DOCUMENTS = [
    (
        CommutationReport(2e-7, 3e-8, Tolerance(1e-6)),
        {"commutator_norm": 2e-7, "action_residual": 3e-8, "passed": True, "tolerance": 1e-6},
    ),
    (
        FactorizabilityReport(0.25, 16, 36, True, Tolerance()),
        {
            "max_residual": 0.25,
            "combinations_checked": 16,
            "combinations_total": 36,
            "exhaustive": True,
            "passed": False,
            "tolerance": 1e-9,
        },
    ),
    (
        TruncationReport(1, 3, 0.0, 28, Tolerance(1e-7)),
        {
            "t_f_low": 1,
            "t_f_high": 3,
            "max_residual": 0.0,
            "regions_tested": 28,
            "passed": True,
            "tolerance": 1e-7,
        },
    ),
    (
        ScenarioReport({"a_shared": True}),
        {
            "agreement": {"a_shared": True},
            "passed": True,
        },
    ),
    (
        GeometryReport(True, True, True, True, True, True, True),
        {
            "z_is_past_set": True,
            "a_in_future_domain": True,
            "b_in_future_domain": True,
            "a_disjoint_from_z": True,
            "b_disjoint_from_z": True,
            "wings_spacelike": True,
            "union_is_past_set": True,
            "passed": True,
        },
    ),
    (
        PozReport((PozRegionResult(("a",), ("b", "c"), 1, 0.25),), 2, Tolerance()),
        {
            "results": [
                {"region": ["a"], "shadow": ["b", "c"], "kernel_dim": 1, "violation": 0.25}
            ],
            "skipped_vacuous": 2,
            "regions_tested": 1,
            "max_violation": 0.25,
            "passed": False,
            "tolerance": 1e-9,
        },
    ),
    (
        LonReport((LonRegionResult(("z",), ("z", "a"), 2, 2, 1e-12),), Tolerance(1e-8)),
        {
            "results": [
                {
                    "z": ["z"],
                    "future_domain": ["z", "a"],
                    "dim_z": 2,
                    "dim_future_domain": 2,
                    "max_residual": 1e-12,
                }
            ],
            "max_residual": 1e-12,
            "passed": True,
            "tolerance": 1e-8,
        },
    ),
    (
        AxiomReport(1e-17, 1e-3, -1e-12, 0.5, True, Tolerance(), 1e-9),
        {
            "hermiticity_residual": 1e-17,
            "normalization_residual": 1e-3,
            "min_eigenvalue": -1e-12,
            "eigenvalue_scale": 0.5,
            "sampled": True,
            "hermitian": True,
            "normalized": False,
            "strongly_positive": True,
            "passed": False,
            "tolerance": 1e-9,
        },
    ),
    (
        ResidualReport(2e-10, Tolerance()),
        {"max_residual": 2e-10, "passed": True, "tolerance": 1e-9},
    ),
    (
        FeasibilityReport(
            "infeasible", 0.05, 2, 0.0, Tolerance(),
            certificate=FarkasCertificate(np.eye(2), 0.1, -0.04, 0.012, 2),
        ),
        {
            "verdict": "infeasible",
            "gap": 0.05,
            "iterations": 2,
            "no_signalling_residual": 0.0,
            "certificate": {"value": -0.04, "slack_term": 0.012, "step": 2},
            "tolerance": 1e-9,
        },
    ),
    (
        FeasibilityReport("feasible", 1e-10, 7, 3e-17, Tolerance(), witness=np.eye(2)),
        {
            "verdict": "feasible",
            "gap": 1e-10,
            "iterations": 7,
            "no_signalling_residual": 3e-17,
            "tolerance": 1e-9,
        },
    ),
]


class TestReport:
    @pytest.mark.parametrize("report, doc", REPORT_DOCUMENTS)
    def test_document_keys_and_values(self, report, doc):
        assert isinstance(report, Report)
        assert list(report.as_dict().items()) == list(doc.items())

    @pytest.mark.parametrize(
        "report, doc", [(r, d) for r, d in REPORT_DOCUMENTS if "passed" in d]
    )
    def test_require(self, report, doc):
        if doc["passed"]:
            assert report.require("check fails") is None
        else:
            with pytest.raises(ValueError) as info:
                report.require("check fails")
            assert str(info.value) == f"check fails: {doc}"
