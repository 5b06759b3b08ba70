"""Double-path-sum decoherence functionals for unitary qudit circuits.

Histories assign one qudit value to every lattice cell (site, time
slice); the amplitude of a history is the initial amplitude of its first
slice times the product of gate matrix elements along the circuit, with
identity wires on untouched sites.  The functional pairs two histories
that agree on the truncation slice, so it is stored lazily as amplitudes
plus final-configuration indices: pairs of histories are never
materialized.

For unitary gates the functional does not depend on where the
truncation surface sits (any slice at or above the tested events),
which is checked numerically here; models whose wings decouple after
some step satisfy the doubled screening-off identity exactly, which
`causality.check_quantum_factorizability` checks on the tagged regions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from ._linalg import DEFAULT_RTOL, Report, Tolerance
from .causal_order import CausalOrder, Region
from .decoherence import DecoherenceFunctional, grouped_gap
from .histories import MAX_HISTORIES, HistorySpace, atom_ids, region_algebra

REGION_TAGS = ("Z", "A", "B", "-")


def cell_name(site: int, t: int) -> str:
    return f"{site},{t}"


def parse_cell(name: str) -> tuple[int, int]:
    site, t = name.split(",")
    return int(site), int(t)


@dataclass(frozen=True, eq=False)
class SkGate:
    """One unitary applied at `layer` (mapping slice layer-1 to slice
    layer) on the given disjoint sites; row/column index order is
    big-endian in the site list."""

    layer: int
    sites: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        sites = tuple(int(s) for s in self.sites)
        m = np.asarray(self.matrix, dtype=complex)
        if len(set(sites)) != len(sites):
            raise ValueError("gate sites must be distinct")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("gate matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("gate matrix has a non-finite entry")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class SkCircuitConfig:
    """Lattice of `sites` qudits over `steps` gate layers (slices
    0..steps), an initial amplitude vector over first-slice
    configurations, and an optional region tagging of cells.

    A two-dimensional `psi` of shape (r, q**sites) declares a rank-r
    mixed initial condition: rows are sqrt(weight)-scaled eigenvector
    amplitudes, recorded per history through an extra purification point.
    """

    sites: int
    steps: int
    q: int = 2
    psi: np.ndarray | None = None
    gates: tuple[SkGate, ...] = ()
    t_f: int | None = None
    regions: Mapping[str, str] | None = None

    def __post_init__(self):
        if self.sites < 1 or self.steps < 0:
            raise ValueError("need at least one site and a nonnegative step count")
        nconf = self.q ** self.sites
        psi = self.psi
        if psi is None:
            psi = np.zeros(nconf, dtype=complex)
            psi[0] = 1.0
        psi = np.asarray(psi, dtype=complex)
        if psi.ndim == 1:
            psi = psi.reshape(1, -1)
        if psi.ndim != 2 or psi.shape[1] != nconf:
            raise ValueError("psi must have q**sites amplitudes per branch")
        if not np.isfinite(psi).all():
            raise ValueError("psi has a non-finite amplitude")
        norm = float((np.abs(psi) ** 2).sum())
        if not abs(norm - 1.0) <= DEFAULT_RTOL:
            raise ValueError("initial amplitudes are not normalized")
        object.__setattr__(self, "psi", psi)
        gates = tuple(self.gates)
        for g in gates:
            if not 1 <= g.layer <= self.steps:
                raise ValueError(f"gate layer {g.layer} outside 1..{self.steps}")
            if any(not 0 <= s < self.sites for s in g.sites):
                raise ValueError("gate site out of range")
            if g.matrix.shape[0] != self.q ** len(g.sites):
                raise ValueError("gate matrix size does not match its sites")
        for layer in range(1, self.steps + 1):
            used: set[int] = set()
            for g in gates:
                if g.layer == layer:
                    if used & set(g.sites):
                        raise ValueError(f"overlapping gates at layer {layer}")
                    used |= set(g.sites)
        object.__setattr__(self, "gates", gates)
        t_f = self.steps if self.t_f is None else int(self.t_f)
        if not 0 <= t_f <= self.steps:
            raise ValueError("truncation slice outside the lattice")
        object.__setattr__(self, "t_f", t_f)
        if self.regions is not None:
            for cell, tag in self.regions.items():
                parse_cell(cell)
                if tag not in REGION_TAGS:
                    raise ValueError(f"unknown region tag {tag!r}")

    @property
    def mixed_rank(self) -> int:
        return self.psi.shape[0]


@dataclass(frozen=True, eq=False)
class SkCircuitModel:
    config: SkCircuitConfig
    space: HistorySpace
    order: CausalOrder
    dcf: DecoherenceFunctional

    def region(self, tag: str) -> Region:
        if self.config.regions is None:
            raise ValueError("the configuration carries no region tagging")
        cells = [c for c, t in self.config.regions.items() if t == tag]
        for c in cells:
            _, t = parse_cell(c)
            if t > self.config.t_f:
                raise ValueError(f"region cell {c} lies beyond the truncation")
        return self.order.region(cells)


def gen_sk_circuit(cfg: SkCircuitConfig, tol: Tolerance = Tolerance()) -> SkCircuitModel:
    """Build the lazy functional at `tol`, the history space over lattice
    cells up to the truncation slice, and the gate-induced causal order.

    History h is the C-order multi-index of the grid `alpha` (purification
    label, then cells slice by slice, site by site).  Each amplitude
    factor is broadcast onto that grid from an axis per cell it reads:
    `psi`, each gate matrix as a (q,)*2k tensor and the identity on each
    untouched wire, multiplied in circuit order."""
    q, L = cfg.q, cfg.sites
    t_f = cfg.t_f
    r = cfg.mixed_rank
    ncell = L * (t_f + 1)
    nhist = r * q ** ncell
    if nhist > MAX_HISTORIES:
        raise ValueError(
            f"{nhist} histories exceed the cap of {MAX_HISTORIES}; "
            "shrink the lattice or truncate earlier"
        )
    points = []
    if r > 1:
        points.append("rho")
    points += [cell_name(s, t) for t in range(t_f + 1) for s in range(L)]
    offset = 1 if r > 1 else 0
    alpha = [r] * offset + [q] * ncell
    values = np.indices(alpha, dtype=np.uint16).reshape(len(alpha), nhist).T

    def on_grid(factor: np.ndarray, cells: list[tuple[int, int]]) -> np.ndarray:
        """`factor`, one axis per (site, slice) cell, on the grid's axes."""
        axes = [offset + t * L + s for s, t in cells]
        shape = [q if a in axes else 1 for a in range(len(alpha))]
        return factor.reshape((q,) * len(axes)).transpose(np.argsort(axes)).reshape(shape)

    psi = cfg.psi.reshape(alpha[: offset + L] + [1] * (ncell - L))
    amp = np.broadcast_to(psi, alpha).copy()
    covers = []
    if r > 1:
        covers += [("rho", cell_name(s, 0)) for s in range(L)]
    for t in range(1, t_f + 1):
        touched: set[int] = set()
        for g in cfg.gates:
            if g.layer != t:
                continue
            touched |= set(g.sites)
            # row index: output sites at slice t; column: inputs at t - 1
            cells = [(s, t) for s in g.sites] + [(s, t - 1) for s in g.sites]
            amp *= on_grid(g.matrix, cells)
            covers += [
                (cell_name(si, t - 1), cell_name(so, t))
                for si in g.sites
                for so in g.sites
            ]
        for s in range(L):
            if s not in touched:
                amp *= on_grid(np.eye(q, dtype=bool), [(s, t - 1), (s, t)])
                covers.append((cell_name(s, t - 1), cell_name(s, t)))
    space = HistorySpace(
        points=tuple(points),
        histories=values,
        alphabets={p: a for p, a in zip(points, alpha)},
    )
    order = CausalOrder.from_covers(tuple(points), covers)
    final = on_grid(np.arange(q ** L), [(s, t_f) for s in range(L)])
    dcf = DecoherenceFunctional.from_amplitudes(
        space, amp.ravel(), np.broadcast_to(final, alpha).ravel(), q ** L, tol
    )
    return SkCircuitModel(cfg, space, order, dcf)


# ---------------------------------------------------------------------------
# Truncation independence

@dataclass(frozen=True)
class TruncationReport(Report):
    t_f_low: int
    t_f_high: int
    max_residual: float
    regions_tested: int
    tol: Tolerance

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol.rel


def check_truncation_independence(
    cfg: SkCircuitConfig,
    t_f1: int,
    t_f2: int,
    regions: Sequence[Sequence[str]] | None = None,
    seed: int = 0,
    tol: Tolerance = Tolerance(),
) -> TruncationReport:
    """Compare the functional built with two truncation slices on the
    atoms of event regions below the lower slice: by default every
    single-cell region plus up to 20 seeded two-cell regions, or the
    given `regions`, each naming points of the lower-slice model.  Equal
    slices, like an empty region list, are refused: such a comparison
    certifies nothing.

    The lower model's histories are the atoms of the finest algebra
    below its slice, `fine`, on the higher model, and every tested region
    coarse-grains it: a high history's atom is the atom of the low history
    it restricts to.  So each region's atoms are found on the low model
    alone (`atom_ids`, at the low live histories and at the low history
    below each high live one), and the high histories are scanned once,
    for `fine`, not once per region.  The labels equal those of the high
    model's own region algebra, so the residuals are those of restricting
    both functionals.
    """
    if t_f1 == t_f2:
        raise ValueError(
            f"equal truncation slices {t_f1}: comparing a functional with itself "
            "certifies nothing"
        )
    lo, hi = min(t_f1, t_f2), max(t_f1, t_f2)
    low = gen_sk_circuit(replace(cfg, t_f=lo))
    high = gen_sk_circuit(replace(cfg, t_f=hi))
    cells = [
        cell_name(s, t) for t in range(lo + 1) for s in range(cfg.sites)
    ]
    if regions is None:
        chosen: list[tuple[str, ...]] = [(c,) for c in cells]
        rng = np.random.default_rng(seed)
        if len(cells) > 1:  # a lone cell makes no pair
            for _ in range(min(20, len(cells) ** 2)):
                pair = rng.choice(len(cells), size=2, replace=False)
                chosen.append((cells[pair[0]], cells[pair[1]]))
    else:
        chosen = [tuple(r) for r in regions]
        if not chosen:
            raise ValueError("no regions to compare: an empty comparison certifies nothing")
        # region_algebra refuses every other name as an unknown point
        for c in [c for reg in chosen for c in reg if c not in low.space.points]:
            site, _, t = c.partition(",")
            if site.isdigit() and t.isdigit() and int(t) > lo:
                raise ValueError(f"tested cell {c} lies above truncation slice {lo}")
    fine = region_algebra(high.space, low.space.points)
    if not np.array_equal(fine.representatives, low.space.value_matrix):
        raise RuntimeError("restricted history sets differ between truncations")
    # the low live histories, then the low history below each high live one
    rows = np.concatenate([low.dcf.live, fine.atom_index[high.dcf.live]])
    split = low.dcf.live.size
    worst = 0.0
    for reg in chosen:
        n_atoms, ids = atom_ids(low.space, reg, rows)
        gap, _ = grouped_gap(low.dcf, ids[:split], high.dcf, ids[split:], n_atoms)
        worst = max(worst, gap)
    return TruncationReport(lo, hi, worst, len(chosen), tol)


# ---------------------------------------------------------------------------
# Stock circuits

def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def bell_pair_gate() -> np.ndarray:
    return CNOT @ np.kron(HADAMARD, np.eye(2))


def decoupled_demo_config(steps: int = 3) -> SkCircuitConfig:
    """The stock decoupled-wing fixture on four sites: a middle-pair
    entangler on the first layer, then wing-internal two-site unitaries;
    past = slices 0..1, wings = the two site pairs on the later slices."""
    if steps < 2:
        raise ValueError("the stock fixture uses at least two steps")
    gates = [SkGate(1, (1, 2), bell_pair_gate())]
    wing_units = [
        (CNOT @ np.kron(_ry(0.3), _ry(1.1)), np.kron(_ry(0.7), HADAMARD) @ CNOT),
        (np.kron(HADAMARD, _ry(0.43)) @ CNOT, CNOT @ np.kron(_ry(1.9), _ry(0.2))),
        (np.kron(_ry(0.9), _ry(0.15)) @ CNOT, CNOT @ np.kron(HADAMARD, _ry(0.6))),
    ]
    for t in range(2, steps + 1):
        ua, ub = wing_units[(t - 2) % len(wing_units)]
        gates.append(SkGate(t, (0, 1), ua))
        gates.append(SkGate(t, (2, 3), ub))
    regions = {}
    for t in range(steps + 1):
        for s in range(4):
            if t <= 1:
                regions[cell_name(s, t)] = "Z"
            else:
                regions[cell_name(s, t)] = "A" if s < 2 else "B"
    return SkCircuitConfig(
        sites=4, steps=steps, q=2, gates=tuple(gates), regions=regions
    )
