"""Classical and quantum patching for two-wing, two-setting scenarios.

A scenario holds four theories, one per global setting, over a shared
geometry (a past region and two spacelike wings).  The classical route
patches factorizable probability measures into one joint measure; the
quantum route composes event operators on the past's event Hilbert
space into a joint decoherence functional whose setting marginals are
the four theories.  A converse construction rebuilds a (formally
factorizable) scenario from any joint functional over the beam slots,
and a semismooth Newton method decides whether four beam functionals
admit any PSD joint at all: a checked witness proves "feasible" and a
Farkas certificate proves "infeasible".
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from ._linalg import DEFAULT_RTOL, CheckViolation, Report, Tolerance, hermitian_part
from .causal_order import CausalOrder, down_sets, validate_scenario_geometry
from .causality import _check_lon, _check_poz, _operator_families, _Spans
from .decoherence import DecoherenceFunctional, check_agreement
from .histories import Event, HistorySpace, region_algebra

SETTING_KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))
ZERO_MASS = 1e-12  # guards a division; classical_marginal_residual checks the joint
OPERATOR_ORDER = ("a", "ap", "b", "bp")


def _operator_ordering(ordering: Sequence[str]) -> tuple[str, ...]:
    """`ordering` as a tuple, refused unless it permutes OPERATOR_ORDER."""
    ordering = tuple(ordering)
    if sorted(ordering) != sorted(OPERATOR_ORDER):
        raise ValueError(f"ordering must permute {OPERATOR_ORDER}")
    return ordering


@dataclass(frozen=True, eq=False)
class SettingTheory:
    """One global setting: a history space, its causal order, the
    decoherence functional over that space, and each wing's beam-outcome
    events, a partition of the space.  `beam_pair` holds each history's
    (beam A i, beam B j) pair index i * len(beam_b) + j."""

    space: HistorySpace
    order: CausalOrder
    dcf: DecoherenceFunctional
    beam_a: tuple[Event, ...]
    beam_b: tuple[Event, ...]
    beam_pair: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.dcf.space is not self.space:
            raise ValueError("the functional belongs to a different history space")
        a, b = _beam_index(self.space, self.beam_a), _beam_index(self.space, self.beam_b)
        pair = a * len(self.beam_b) + b
        pair.flags.writeable = False
        object.__setattr__(self, "beam_pair", pair)


@dataclass(frozen=True, eq=False)
class SettingScenario:
    """Four theories, one per setting in SETTING_KEYS, held read-only; under
    each theory's order, z is a past set and a, b spacelike wings in its
    future domain of dependence (`validate_scenario_geometry`)."""

    theories: Mapping[tuple[int, int], SettingTheory]
    z_points: tuple[str, ...]
    a_points: tuple[str, ...]
    b_points: tuple[str, ...]

    def __post_init__(self):
        missing = [k for k in SETTING_KEYS if k not in self.theories]
        if missing:
            raise ValueError(f"scenario lacks settings {missing}")
        extra = [k for k in self.theories if k not in SETTING_KEYS]
        if extra:
            raise ValueError(f"scenario has settings {extra} beyond {list(SETTING_KEYS)}")
        object.__setattr__(self, "theories", MappingProxyType(dict(self.theories)))
        for name in ("z_points", "a_points", "b_points"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for order in dict.fromkeys(self.theories[k].order for k in SETTING_KEYS):
            z, a, b = (order.region(p) for p in (self.z_points, self.a_points, self.b_points))
            validate_scenario_geometry(order, z, a, b).require("scenario geometry invalid")

    def theory(self, sa: int, sb: int) -> SettingTheory:
        return self.theories[(sa, sb)]

    def _with_tol(self, tol: Tolerance) -> "SettingScenario":
        """A copy with every functional at `tol`; no check reruns, as tol moves no geometry."""
        theories = {k: replace(t, dcf=replace(t.dcf, tol=tol)) for k, t in self.theories.items()}
        new = copy.copy(self)
        object.__setattr__(new, "theories", MappingProxyType(theories))
        return new

    def cell_values(self, sa: int, sb: int) -> np.ndarray:
        """The theory's values on pairs of cells A_i B_j Z_k, where A_i, B_j
        are beam events and Z_k the past atoms: entry [i, j, k, i2, j2, k2]
        is D(A_i B_j Z_k, A_i2 B_j2 Z_k2), from one `grouped` call."""
        t = self.theory(sa, sb)
        na, nb = len(t.beam_a), len(t.beam_b)
        z = region_algebra(t.space, self.z_points)
        nk = z.n_atoms
        labels = (t.beam_pair * nk + z.atom_index)[t.dcf.live]
        return t.dcf.grouped(labels, na * nb * nk).reshape(na, nb, nk, na, nb, nk)

    def beam_dcfs(self) -> dict[tuple[int, int], np.ndarray]:
        """Beam-only functionals: entry [i, j, i2, j2] is the value on the
        pair of joint beam events, past summed out."""
        return {key: self.cell_values(*key).sum(axis=(2, 5)) for key in self.theories}

    def validate(self) -> "ScenarioReport":
        """The agreement clauses: theories sharing a wing's setting agree on
        z and that wing (a_shared, ap_shared; b_shared, bp_shared), and all
        four on z (z_all).  Settings, names and geometry hold when built."""
        d = {k: t.dcf for k, t in self.theories.items()}
        za, zb = self.z_points + self.a_points, self.z_points + self.b_points
        agreement = {
            "a_shared": check_agreement(d[0, 0], d[0, 1], za),
            "ap_shared": check_agreement(d[1, 0], d[1, 1], za),
            "b_shared": check_agreement(d[0, 0], d[1, 0], zb),
            "bp_shared": check_agreement(d[0, 1], d[1, 1], zb),
            "z_all": all(check_agreement(d[0, 0], d[k], self.z_points) for k in SETTING_KEYS[1:]),
        }
        return ScenarioReport(agreement)


def _beam_index(space: HistorySpace, events: Sequence[Event]) -> np.ndarray:
    """The index of the beam event holding each history of the space."""
    if any(e.space is not space for e in events):
        raise ValueError("beam event belongs to a different history space")
    flags = np.array([e.flags for e in events], dtype=bool).reshape(-1, space.size)
    if not (flags.sum(axis=0) == 1).all():
        raise ValueError("beam events must partition the history space")
    return flags.argmax(axis=0)


@dataclass(frozen=True)
class ScenarioReport(Report):
    agreement: dict

    @property
    def passed(self) -> bool:
        return all(self.agreement.values())


# ---------------------------------------------------------------------------
# Probability tables and CHSH

@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Four outcome-probability tables, one per global setting."""

    tables: Mapping[tuple[int, int], np.ndarray]

    def __post_init__(self):
        tabs = {k: np.asarray(v, dtype=float) for k, v in self.tables.items()}
        for k in SETTING_KEYS:
            if k not in tabs:
                raise ValueError(f"missing table for setting {k}")
            if not np.isfinite(tabs[k]).all():
                raise ValueError("non-finite probability entry")
            if tabs[k].min() < -1e-12:  # rounding only; tables carry no Tolerance
                raise ValueError("negative probability entry")
            if abs(tabs[k].sum() - 1.0) > DEFAULT_RTOL:
                raise ValueError("table does not sum to one")
        object.__setattr__(self, "tables", tabs)

    @classmethod
    def from_beam_dcfs(cls, beam: Mapping, tol: Tolerance) -> "CorrelationTable":
        """The measures on the diagonals, tab[i, j] = beam[i, j, i, j]; refuses
        a diagonal whose imaginary part clears the tolerance (hermiticity)."""
        tables = {}
        for key, b in beam.items():
            tab = np.einsum("ijij->ij", b)
            if np.abs(tab.imag).max() > tol.rel * max(1.0, float(np.abs(b).max())):
                raise ValueError(f"setting {key} has complex measures: hermiticity violated")
            tables[key] = tab.real
        return cls(tables)

    def beam_dcfs(self) -> dict[tuple[int, int], np.ndarray]:
        """The tables as diagonal beam functionals: beam[i, j, i, j] = tab[i, j]."""
        beam = {}
        for key, tab in self.tables.items():
            i, j = np.indices(tab.shape)
            beam[key] = np.zeros(tab.shape + tab.shape, dtype=complex)
            beam[key][i, j, i, j] = tab
        return beam


def chsh_value(table: CorrelationTable) -> float:
    """|<ab> + <ab'> + <a'b> - <a'b'>| with outcome signs +1 for the first
    outcome and -1 for the second; tables must be 2x2."""
    corr = {}
    for key, tab in table.tables.items():
        if tab.shape != (2, 2):
            raise ValueError("CHSH needs 2x2 outcome tables")
        s = np.array([1.0, -1.0])
        corr[key] = float(s @ tab @ s)
    return abs(corr[(0, 0)] + corr[(0, 1)] + corr[(1, 0)] - corr[(1, 1)])


# ---------------------------------------------------------------------------
# Classical patching (factorizable measures)

def _cell_masses(values: np.ndarray):
    """Masses of a classical theory from its cell values: mu(A_i B_j Z_k)
    as [i, j, k], mu(A_i Z_k) as [i, k], mu(B_j Z_k) as [j, k] and
    mu(Z_k) as [k]."""
    past = np.einsum("ijkIJk->ijIJk", values).real
    return (
        np.einsum("ijijk->ijk", past),
        np.einsum("ijiJk->ik", past),
        np.einsum("ijIjk->jk", past),
        past.sum(axis=(0, 1, 2, 3)),
    )


def classical_factorizability_residual(scenario: SettingScenario) -> float:
    """Worst violation of screening off over wing atoms and past
    history-events, across the four theories.

    Checking wing algebra atoms suffices: at fixed past event both sides
    are additive over disjoint unions in each wing slot.
    """
    return _theory_masses(scenario)[1]


def _theory_masses(scenario: SettingScenario) -> tuple[dict, float]:
    """Each classical theory's `_cell_masses`, and the factorizability residual."""
    masses = {}
    for key, t in scenario.theories.items():
        if not t.dcf.is_classical():
            raise ValueError(f"theory {key} is not classical")
        masses[key] = _cell_masses(scenario.cell_values(*key))
    return masses, _worst_gap([(ab * k, a[:, None] * b[None]) for ab, a, b, k in masses.values()])


@dataclass(frozen=True, eq=False)
class JointMeasure:
    """Joint probability measure over (i, i', j, j', k)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 5:
            raise ValueError("joint measure must have five slots")
        if v.min() < -1e-12:  # forgives rounding only, as in CorrelationTable
            raise ValueError("joint measure has negative entries")
        object.__setattr__(self, "values", v)

    def total(self) -> float:
        return float(self.values.sum())

    def setting_marginal(self, sa: int, sb: int) -> np.ndarray:
        """Marginal over the unused wing slots, as (i_used, j_used, k)."""
        drop = (1 if sa == 0 else 0, 3 if sb == 0 else 2)
        return self.values.sum(axis=drop)

    def correlation_table(self) -> CorrelationTable:
        return CorrelationTable(
            {k: self.setting_marginal(*k).sum(axis=2) for k in SETTING_KEYS}
        )


def classical_patch(scenario: SettingScenario) -> JointMeasure:
    """Joint measure with the four factorizable setting measures as
    marginals: the product of the per-wing conditional masses divided by
    the cubed past mass, with zero-mass past events mapped to zero.  The
    factorizability gate reads the tolerance of theory (0, 0)."""
    scenario.validate().require("scenario clauses fail")
    masses, resid = _theory_masses(scenario)
    if resid > scenario.theory(0, 0).dcf.tol.rel:
        raise CheckViolation(f"theories are not factorizable (residual {resid:.3e})")
    # wing-setting masses come from a fixed theory containing that setting;
    # agreement makes the choice immaterial
    mu_a = [masses[sa, 0][1] for sa in (0, 1)]
    mu_b = [masses[0, sb][2] for sb in (0, 1)]
    mu_k = masses[0, 0][3]
    prod = np.einsum("ik,Ik,jk,Jk->iIjJk", mu_a[0], mu_a[1], mu_b[0], mu_b[1])
    out = np.divide(prod, mu_k ** 3, out=np.zeros_like(prod), where=mu_k > ZERO_MASS)
    return JointMeasure(out)


def classical_marginal_residual(
    jm: JointMeasure, scenario: SettingScenario
) -> float:
    """Worst entrywise gap between the joint measure's setting marginals
    and the four theories' own measures on (beam, beam, past) atoms."""
    return _worst_gap(
        (jm.setting_marginal(*key), _cell_masses(scenario.cell_values(*key))[0])
        for key in SETTING_KEYS
    )


# ---------------------------------------------------------------------------
# Quantum patching

@dataclass(frozen=True, eq=False)
class JointDcf:
    """Joint decoherence functional over (i, i', j, j', k) on both sides,
    built with its wing operators in `ordering`, a permutation of
    OPERATOR_ORDER."""

    values: np.ndarray  # ten axes: five slots, bra then ket
    ordering: tuple[str, ...] = OPERATOR_ORDER

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 10:
            raise ValueError("joint functional must have ten axes")
        if v.shape[:5] != v.shape[5:]:
            raise ValueError("joint functional's ket axes must match its bra axes")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "ordering", _operator_ordering(self.ordering))

    def flat(self) -> np.ndarray:
        n = int(np.prod(self.values.shape[:5]))
        return self.values.reshape(n, n)

    def hermiticity_residual(self) -> float:
        f = self.flat()
        return float(np.abs(f - f.conj().T).max(initial=0.0))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(hermitian_part(self.flat())).min())

    def normalization_residual(self) -> float:
        return float(abs(self.flat().sum() - 1.0))

    def setting_marginal(self, sa: int, sb: int) -> np.ndarray:
        """Sum out the unused wing slots on both sides; axes become
        (i, j, k, i2, j2, k2) for the used settings."""
        drop_bra = (1 if sa == 0 else 0, 3 if sb == 0 else 2)
        drop = drop_bra + tuple(5 + d for d in drop_bra)
        return self.values.sum(axis=drop)

    def beam_dcfs(self) -> dict[tuple[int, int], np.ndarray]:
        """Beam-only functionals: each setting marginal, past summed out."""
        return {key: self.setting_marginal(*key).sum(axis=(2, 5)) for key in SETTING_KEYS}

    def beam_joint(self) -> np.ndarray:
        """Marginal over the past slot on both sides: the joint functional
        on the sixteen beam labels."""
        return self.values.sum(axis=(4, 9))


def _wing_operators(scenario: SettingScenario, tables=None):
    """Frame-coordinate event operators on the shared past algebra.

    Each wing setting is read from one fixed theory containing it; by the
    agreement clauses any other choice gives the same operator within
    rounding.  Each theory reads its past span once, for all the wing
    families it gives, from its `tables` entry (a `_Spans`) or a fresh one.
    """
    tables = tables or {key: _Spans(t.dcf) for key, t in scenario.theories.items()}
    ops = {}
    for key, syms in (((0, 0), ("a", "b")), ((1, 0), ("ap",)), ((0, 1), ("bp",))):
        t = scenario.theory(*key)
        wings = {"a": (scenario.a_points, t.beam_a), "b": (scenario.b_points, t.beam_b)}
        _, families = _operator_families(
            t.dcf, t.order, scenario.z_points, [wings[sym[0]] for sym in syms], False, tables[key]
        )
        for sym, family in zip(syms, families):
            ops[sym] = [op.frame_matrix for op in family]
    return ops


def quantum_patch(
    scenario: SettingScenario,
    ordering: Sequence[str] = OPERATOR_ORDER,
) -> JointDcf:
    """Joint decoherence functional from composed event operators.

    The vector for labels (i, i', j, j', k) applies the four wing-setting
    operators, in `ordering` (leftmost applied last), to the k-th past
    history-event vector; entries are inner products of those vectors.
    Different orderings may change the array but not its setting
    marginals, because wing-A operators commute with wing-B operators.
    Each theory is checked at its own tolerance; the commutation gate
    reads that of theory (0, 0), scaled by each pair's largest entries.
    PoZ, LoN and the wing operators of a theory share one span table
    (`causality._Spans`), dropped on return; past sets are enumerated once
    per distinct order.
    """
    ordering = _operator_ordering(ordering)
    scenario.validate().require("scenario clauses fail")
    past, tables = functools.cache(down_sets), {}  # an order hashes by identity
    for key, t in scenario.theories.items():
        tables[key] = spans = _Spans(t.dcf)
        poz = _check_poz(t.dcf, t.order, [~z for z in past(t.order)], spans)
        if not poz.passed:
            raise CheckViolation(
                f"theory {key} fails persistence of zero "
                f"(violation {poz.max_violation:.3e})"
            )
        lon = _check_lon(t.dcf, t.order, past(t.order), spans)
        if not lon.passed:
            raise CheckViolation(
                f"theory {key} fails lack of novelty "
                f"(residual {lon.max_residual:.3e})"
            )
    ops = _wing_operators(scenario, tables)
    # spacelike commutation of the frame operators, required for ordering
    # invariance of the marginals; each residual on the scale of x y
    comm_worst = max(
        float(np.abs(x @ y - y @ x).max(initial=0.0))
        / max(1.0, float(np.abs(x).max(initial=0.0) * np.abs(y).max(initial=0.0)))
        for xs in ("a", "ap")
        for ys in ("b", "bp")
        for x in ops[xs]
        for y in ops[ys]
    )
    if comm_worst > scenario.theory(0, 0).dcf.tol.rel:
        raise CheckViolation(
            f"wing operators do not commute (scaled residual {comm_worst:.3e})"
        )
    gz = scenario.cell_values(0, 0).sum(axis=(0, 1, 3, 4))
    nk = len(gz)
    # cf[i, i', j, j'] is the product of the four operators for those labels
    cf = np.eye(nk, dtype=complex)
    for sym in ordering:
        op = np.array(ops[sym])
        shape = [1, 1, 1, 1, nk, nk]
        shape[OPERATOR_ORDER.index(sym)] = len(op)
        cf = cf @ op.reshape(shape)
    values = np.einsum(
        "abcdpk,pq,ABCDqK->abcdkABCDK", cf.conj(), gz, cf, optimize=True
    )
    return JointDcf(values, ordering)


def patch_marginal_residual(
    jdcf: JointDcf, scenario: SettingScenario, sa: int, sb: int
) -> float:
    """Entrywise gap between a setting marginal of the joint functional
    and that theory's values on (beam, beam, past-event) conjunctions."""
    return _worst_gap([(jdcf.setting_marginal(sa, sb), scenario.cell_values(sa, sb))])


# ---------------------------------------------------------------------------
# Converse construction

def two_wing_scenario(
    past: np.ndarray,
    outcomes_a: Sequence[np.ndarray],
    outcomes_b: Sequence[np.ndarray],
    counts: tuple[int, int],
    matrices: Mapping[tuple[int, int], np.ndarray],
) -> SettingScenario:
    """The four theories of a past point z and wings wa, wb, z before both.

    History h has value `past[h]` at z; under setting (sa, sb) it has
    outcome `outcomes_a[sa][h]` on wing A and `outcomes_b[sb][h]` on wing
    B, stored as setting * n + outcome for the wing's outcome count n in
    `counts` = (na, nb).  `matrices[(sa, sb)]` is that theory's dense
    matrix, and the beam events are the wing values of its setting.
    """
    na, nb = counts
    points = ("z", "wa", "wb")
    order = CausalOrder.from_covers(points, [("z", "wa"), ("z", "wb")])
    alphabets = {"z": int(past.max()) + 1, "wa": 2 * na, "wb": 2 * nb}
    theories = {}
    for sa, sb in SETTING_KEYS:
        space = HistorySpace(
            points=points,
            histories=np.stack([past, outcomes_a[sa] + sa * na, outcomes_b[sb] + sb * nb], axis=1),
            alphabets=alphabets,
        )
        dcf = DecoherenceFunctional(space, matrix=matrices[(sa, sb)])
        beam_a = tuple(Event(space, outcomes_a[sa] == i) for i in range(na))
        beam_b = tuple(Event(space, outcomes_b[sb] == j) for j in range(nb))
        theories[(sa, sb)] = SettingTheory(space, order, dcf, beam_a, beam_b)
    return SettingScenario(theories, ("z",), ("wa",), ("wb",))


def converse_model(beam_joint: np.ndarray) -> SettingScenario:
    """Scenario whose past carries one history per beam-label word.

    `beam_joint` has axes (i, i', j, j', i2, i2', j2, j2') or is the
    equivalent flat Hermitian matrix.  The wing values of each history
    simply repeat the bits of its past label for the setting in force, so
    every theory's matrix is the flat joint itself: each is factorizable
    exactly and reproduces the input's setting marginals without error.
    Refuses non-PSD input.

    Persistence of zero is another matter.  For the joint of
    `quantum_patch(scenario, ordering)`, only the theory whose settings'
    operators `ordering` lists first on each wing (applied last) passes
    it in general: (0, 0) for the stock ordering (a, ap, b, bp), (1, 1)
    for (ap, a, bp, b).  The other three may fail it, as on the stock
    spin pair, where `quantum_patch` then refuses the converse scenario.
    """
    bj = np.asarray(beam_joint, dtype=complex)
    if bj.ndim == 2:
        side = bj.shape[0]
        na = nb = int(round(side ** 0.25))
        if (na * na * nb * nb) != side or bj.shape != (side, side):
            raise ValueError("flat beam joint must be (n^4, n^4)")
        bj = bj.reshape(na, na, nb, nb, na, na, nb, nb)
    if bj.ndim != 8:
        raise ValueError("beam joint must have eight axes")
    na, nb = bj.shape[0], bj.shape[2]
    nkey = na * na * nb * nb
    flat = bj.reshape(nkey, nkey)
    floor = Tolerance().matrix_floor(flat)
    if np.abs(flat - flat.conj().T).max() > floor:
        raise ValueError("beam joint is not Hermitian")
    if abs(flat.sum() - 1.0) > floor:
        raise ValueError("beam joint is not normalized")
    key = np.arange(nkey)
    i, ip, j, jp = np.unravel_index(key, (na, na, nb, nb))
    scenario = two_wing_scenario(key, (i, ip), (j, jp), (na, nb), dict.fromkeys(SETTING_KEYS, flat))
    # the four theories share one matrix, so one factor tests them all
    scenario.theory(0, 0).dcf.factor  # raises CheckViolation unless the joint is PSD
    return scenario


# ---------------------------------------------------------------------------
# No-signalling and joint feasibility

def _worst_gap(pairs) -> float:
    """Largest entry of |x - y| over the pairs; NaN if any entry is NaN."""
    return float(np.max([np.abs(x - y).max() for x, y in pairs]))


def no_signalling_residual(beam_dcfs: Mapping[tuple[int, int], np.ndarray]) -> float:
    """Worst mismatch between wing marginals that share a local setting."""
    d = {k: np.asarray(v) for k, v in beam_dcfs.items()}
    return _worst_gap(
        [(d[(sa, 0)].sum(axis=(1, 3)), d[(sa, 1)].sum(axis=(1, 3))) for sa in (0, 1)]
        + [(d[(0, sb)].sum(axis=(0, 2)), d[(1, sb)].sum(axis=(0, 2))) for sb in (0, 1)]
    )


@dataclass(frozen=True, eq=False)
class FarkasCertificate(Report):
    """Proof that no PSD joint functional has the given marginals.

    `witness` S lies in the row space of the marginal map, so <S, X> is
    `value` for every X with those marginals.  Let c run over the cell
    indicators (labels with a_sa = i, b_sb = j) of all four settings and
    C = sum c c^T.  C is in the row space too, with <C, X> the summed trace
    of the inputs, and S and C are carried by the span V of the c.  Since
    S + delta C is PSD on V, a PSD joint X would give
    value + slack_term = <S + delta C, X> >= 0; the certificate holds
    because that sum is negative by more than the rounding slack.
    """

    witness: np.ndarray = field(metadata={"key": None})
    delta: float = field(metadata={"key": None})
    value: float
    slack_term: float
    step: int


@dataclass(frozen=True, eq=False)
class FeasibilityReport(Report):
    verdict: str  # "feasible", "infeasible" or "undecided-infeasible"
    gap: float
    iterations: int
    no_signalling_residual: float
    tol: Tolerance
    witness: np.ndarray | None = field(default=None, metadata={"key": None})  # proves "feasible"
    certificate: FarkasCertificate | None = None  # proves "infeasible"

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


def _farkas(pencil, s, x, y, trace, tol, step) -> FarkasCertificate | None:
    """Try S, a matrix in the row space of A, as a certificate of
    infeasibility, with x a point of the marginal plane: the affine
    correction A+(Ay - b) of the step that moved the PSD point y to x, or
    the dual direction of `joint_feasibility` against X0.  The slack,
    tol.rel max(1, |y|) (|x| + trace), is the scale of the rounded
    products it absorbs, and value and slack term weigh S against x and
    against C.  Both candidates have unit Frobenius norm: at its own size,
    gap, the correction's value is of order gap^2 against a slack that
    does not shrink with it, so near Tsirelson's line none would clear it."""
    value = float(np.vdot(s, x).real)
    delta = max(0.0, -float(np.linalg.eigvalsh(pencil.T @ s @ pencil).min()))
    slack = tol.rel * max(1.0, float(np.linalg.norm(y))) * (
        float(np.linalg.norm(x)) + trace
    )
    if value + delta * trace < -slack:
        return FarkasCertificate(s, delta, value, delta * trace, step)
    return None


@functools.lru_cache(maxsize=4)
def _constraint_maps(na: int, nb: int) -> tuple[np.ndarray, ...]:
    """The marginal map A of joint functionals X over the n beam labels
    (i, i', j, j'), its pseudo-inverse, the pencil basis P of `_farkas`
    and an orthonormal basis E of the Hermitian matrices in A's row
    space, shared by every call with these outcome counts.  `A @
    X.ravel()` stacks the raveled setting marginals; A+ projects in X's
    Frobenius metric, and for Hermitian X, A+ A X = sum_k Re<E_k, X> E_k."""
    n = na * na * nb * nb
    labels = np.indices((na, na, nb, nb)).reshape(4, n)
    # cells[s, (i, j), label] = 1 where the label reads i on wing A and
    # j on wing B under setting s
    cells = np.stack([
        labels[sa] * nb + labels[2 + sb] == np.arange(na * nb)[:, None]
        for sa, sb in SETTING_KEYS
    ]).astype(float)
    # marginal entry [(i, j), (i2, j2)] is c_ij^T X c_i2j2, and
    # kron(f, f)[(a, b), (k, l)] = f[a, k] f[b, l] weighs X[k, l]
    amat = np.vstack([np.kron(f, f) for f in cells])
    # A and the cell indicators are 0/1 structures whose singular values
    # depend only on (na, nb), never on the input, so each 1e-12 cut
    # below separates rank from rounding; neither is a tolerance.
    apinv = np.linalg.pinv(amat, rcond=1e-12)
    # A is real and its rows come in transposed pairs, so its row space
    # splits into real symmetric and real antisymmetric matrices; the
    # symmetric ones and i times the antisymmetric ones are a real
    # orthonormal basis of its Hermitian matrices
    flip = amat.reshape(-1, n, n).swapaxes(1, 2).reshape(amat.shape)
    parts = []
    for sign, phase in ((1.0, 1.0), (-1.0, 1j)):
        _, sv, vt = np.linalg.svd(amat + sign * flip, full_matrices=False)
        rows = vt[: int((sv > 1e-12 * sv[0]).sum())].reshape(-1, n, n)
        parts.append(phase * (rows + sign * rows.swapaxes(1, 2)) / 2.0)
    basis = np.concatenate(parts)
    # V = span of the cell indicators, with orthonormal basis Q = vt[:r]^T;
    # Q^T C Q = diag(sv^2), so its Cholesky factor is diag(sv) and the
    # pencil (Q^T S Q, Q^T C Q) has the eigenvalues of P^T S P with
    # P = Q diag(sv)^-1
    _, sv, vt = np.linalg.svd(cells.reshape(-1, n), full_matrices=False)
    r = int((sv > 1e-12 * sv[0]).sum())
    maps = (amat, apinv, vt[:r].T / sv[:r], basis)
    for arr in maps:
        arr.flags.writeable = False
    return maps


# joint_feasibility's Newton step: the cap on the regularization, the
# Armijo fraction and the most step lengths one line search tries
NEWTON_EPS = 1e-2
ARMIJO_SIGMA = 1e-4
MAX_TRIES = 40
# theta is known only to a few ulps of its size: a decrease lost in that
# rounding still passes Armijo's test, so rounding cannot stall a search
# that is already at the witness's accuracy.  It certifies nothing.
THETA_ROUNDING = 16 * np.finfo(float).eps


def _dual_point(x0, flat, offset, z):
    """Eigendecomposition of X0 + A*z and the dual value theta(z)."""
    n = x0.shape[0]
    w, u = np.linalg.eigh(x0 + (z @ flat).reshape(n, n))
    return w, u, 0.5 * float(np.sum(np.maximum(w, 0.0) ** 2)) - float(offset @ z)


def _generalized_jacobian(basis, w, u) -> np.ndarray:
    """V_kl = Re<U^H E_k U, Omega o (U^H E_l U)> at X0 + A*z = U diag(w) U^H.

    Omega (Qi and Sun) holds the first divided differences of max(., 0)
    at w: 1 between positive eigenvalues, 0 between non-positive ones and
    w_i / (w_i - w_j) from a positive w_i to a non-positive w_j.  It is
    symmetric, so only the rows of U^H E_k U at positive w enter, their
    entries in non-positive columns twice (once for the mirrored entry).
    By Hermiticity those rows are (E_k U_+)^H U, U_+ the columns of U at
    positive w: the products scale with the rank of the PSD point.
    """
    pos = w > 0
    n = len(w)
    rows = (basis.reshape(-1, n) @ u[:, pos]).reshape(len(basis), n, -1)
    rows = (rows.conj().swapaxes(1, 2) @ u).reshape(len(basis), -1)
    wp = w[pos][:, None]
    weight = np.where(pos, 1.0, 2.0 * wp / (wp - np.minimum(w, 0.0)))
    return (rows.conj() @ (weight.ravel() * rows).T).real


def joint_feasibility(
    beam_dcfs: Mapping[tuple[int, int], np.ndarray],
    budget: int = 1000,
    tol: Tolerance = Tolerance(),
) -> FeasibilityReport:
    """Decide whether a PSD joint functional over the beam labels has the
    four inputs as setting marginals, by projecting X0 = A+b, the
    least-norm joint with those marginals, onto {X PSD, A X = b}.

    The projection is found on its dual (Malick, SIAM J. Matrix Anal.
    Appl. 26 (2004) 272): with E the orthonormal Hermitian basis of A's
    row space and A*z = sum_k z_k E_k, minimize the convex, once
    differentiable theta(z) = 1/2 |Pi+(X0 + A*z)|_F^2 - <X0, A*z>.  Its
    gradient g holds the coefficients of corr = A+(A y - b), where y =
    Pi+(X0 + A*z) is the PSD point of the step.  Each step is one step of
    Qi and Sun's semismooth Newton method with Armijo line search (SIAM J.
    Matrix Anal. Appl. 28 (2006) 360):
    - one `eigh` of X0 + A*z = U diag(w) U^H gives y and the generalized
      Jacobian V_kl = Re<U^H E_k U, Omega o (U^H E_l U)>, r x r with r =
      rank A (49 for two outcomes per wing), eigenvalues in [0, 1];
    - the Newton equation is regularized, (V + eps I) d = -g with eps =
      min(1e-2, gap / |X0|_F), so the step is defined where V is
      singular, eps = O(|g|) keeps the local convergence quadratic where
      V is not, and scaling the inputs scales every iterate.  At this
      size a dense solve is cheaper than conjugate gradients;
    - Armijo backtracking: the first t of 1, 1/2, 1/4, ... with
      theta(z + t d) <= theta(z) + 1e-4 t <g, d> (up to theta's
      rounding), or else the last of 40 tries, t = 2^-39.

    The stop and the witness are those of alternating projections: x = y
    - corr has the input marginals, `gap` = |corr|_F, and once gap <=
    tol.rel (lambda_max(y) - gap), x is the witness of "feasible": as y is
    PSD, Weyl gives lambda_min(x) >= -gap and lambda_max(x) >= lambda_max(y)
    - gap, so x clears tol.psd_floor(lambda_max(x)).

    When no PSD joint exists, theta is unbounded below and z runs off to
    infinity along a direction whose S = -A*z / |A*z| is PSD on the span
    of the cells and has <S, X0> < 0, which is a Farkas certificate.  So
    each step tries both corr / gap (against x) and S (against X0) as a
    `FarkasCertificate`: a try is one `eigvalsh` on the cell span, small
    next to a Newton step, and waiting for later steps only lets |z|
    grow.  Exhausting the budget first is reported as
    undecided-infeasible: the residual gap estimates the distance between
    cone and plane but is not a proof.  `iterations` and `budget` count
    Newton steps.  Inputs must be no-signalling at `tol.matrix_floor`,
    else the plane is empty.
    """
    d = {k: np.asarray(v, dtype=complex) for k, v in beam_dcfs.items()}
    na, nb = d[(0, 0)].shape[:2]
    b = np.concatenate([d[key].ravel() for key in SETTING_KEYS])
    mats = [d[k].reshape(na * nb, -1) for k in SETTING_KEYS]
    ns = no_signalling_residual(d)
    if not ns <= tol.matrix_floor(b):  # NaN too
        raise ValueError(f"inputs violate no-signalling (residual {ns:.3e})")
    herm = max(float(np.abs(m - m.conj().T).max()) for m in mats)
    if not herm <= tol.matrix_floor(b):
        raise ValueError(f"inputs are not Hermitian (residual {herm:.3e})")
    _, apinv, pencil, basis = _constraint_maps(na, nb)
    n = na * na * nb * nb
    trace = sum(float(np.trace(m).real) for m in mats)
    flat = basis.reshape(len(basis), -1)
    x0 = (apinv @ b).reshape(n, n)
    # Re<E_k, X> is Re sum E_k conj(X): no conjugate copy of the basis
    offset = (flat @ x0.conj().ravel()).real
    scale = float(np.linalg.norm(x0))
    z = np.zeros(len(basis))
    w, u, theta = _dual_point(x0, flat, offset, z)
    gap = float("inf")
    for it in range(1, budget + 1):
        y = (u * np.maximum(w, 0.0)) @ u.conj().T
        # A+(A y - b) = P y - X0 = sum_k Re<E_k, y - X0> E_k, as y and X0
        # are Hermitian; its coefficients are the gradient of theta
        grad = (flat @ y.conj().ravel()).real - offset
        corr = (grad @ flat).reshape(n, n)
        x = y - corr
        gap = float(np.linalg.norm(corr))
        if gap <= tol.rel * (w[-1] - gap):
            return FeasibilityReport("feasible", gap, it, ns, tol, witness=x)
        # gap > 0: at gap = 0, y = x is a PSD joint, which the test accepts
        tries = [(corr / gap, x)]
        if z.any():
            tries.append((-(z @ flat).reshape(n, n) / np.linalg.norm(z), x0))
        for s, at in tries:
            cert = _farkas(pencil, s, at, y, trace, tol, it)
            if cert is not None:
                return FeasibilityReport("infeasible", gap, it, ns, tol, certificate=cert)
        jac = _generalized_jacobian(basis, w, u)
        eps = min(NEWTON_EPS, gap / scale)
        step = np.linalg.solve(jac + eps * np.eye(len(z)), -grad)
        slope = float(grad @ step)
        for t in 0.5 ** np.arange(MAX_TRIES):
            z_t = z + t * step
            w_t, u_t, theta_t = _dual_point(x0, flat, offset, z_t)
            rounding = THETA_ROUNDING * (abs(theta) + abs(theta_t))
            if theta_t <= theta + ARMIJO_SIGMA * t * slope + rounding:
                break
        z, w, u, theta = z_t, w_t, u_t, theta_t
    return FeasibilityReport("undecided-infeasible", gap, budget, ns, tol)
