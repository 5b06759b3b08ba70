"""Causality machinery over a background causal order.

The central check, persistence of zero (PoZ), demands that a null
combination of event vectors located outside the causal future of a
region stays null after conjunction with any event in that region.
When it holds, events acquire well-defined linear operators on the
event Hilbert space of the past, and those operators commute across
spacelike wings; both facts are checked numerically here.

All checks reduce universally quantified statements to region-algebra
atoms; the reductions are sound because the vector measure is additive
over disjoint unions, making every condition (bi)linear in the atom
decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (
    CheckViolation,
    Report,
    Tolerance,
    rank_from_singular_values,
    selection_violation,
)
from .causal_order import (
    CausalOrder,
    Region,
    down_sets,
    future_domains,
    shadow,
    validate_scenario_geometry,
)
from .decoherence import DecoherenceFunctional
from .hilbert import live_atoms, live_region_vectors
from .histories import Event, RegionAlgebra, _as_point_names, region_algebra

# residual evaluations one screening-off scan may run
FACTORIZABILITY_LIMIT = 1_000_000_000


def _check_alignment(dcf: DecoherenceFunctional, order: CausalOrder) -> None:
    if set(dcf.space.points) != set(order.points):
        raise ValueError("history space and causal order use different points")


class _Spans(dict):
    """One call's spans of a functional, built on first read: point names ->
    `live_region_vectors`, the thin SVD (u, s, vh) of the vectors, and that
    SVD cut by the rank rule.  Every reader reads the one SVD, so every read
    gives the same numbers; the table is dropped when its call returns."""

    def __init__(self, dcf: DecoherenceFunctional):
        self.dcf = dcf

    def __missing__(self, names: tuple[str, ...]) -> tuple:
        n_atoms, live, index, v = live_region_vectors(self.dcf, names)
        u, s, vh = np.linalg.svd(v, full_matrices=False)
        r = rank_from_singular_values(s, self.dcf.tol)  # as `truncated_svd` cuts
        self[names] = span = n_atoms, live, index, v, (u, s, vh), (u[:, :r], s[:r], vh[:r])
        return span


# ---------------------------------------------------------------------------
# Persistence of zero

@dataclass(frozen=True)
class PozRegionResult(Report):
    region_points: tuple[str, ...] = field(metadata={"key": "region"})
    shadow_points: tuple[str, ...] = field(metadata={"key": "shadow"})
    kernel_dim: int
    violation: float  # largest squared norm of a conjuncted null combination


@dataclass(frozen=True)
class PozReport(Report):
    results: tuple[PozRegionResult, ...]
    skipped_vacuous: int
    tol: Tolerance

    derived = ("regions_tested", "max_violation")

    @property
    def regions_tested(self) -> int:
        return len(self.results)

    @property
    def max_violation(self) -> float:
        return max((r.violation for r in self.results), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol.rel

    def worst(self) -> PozRegionResult | None:
        return max(self.results, key=lambda r: r.violation, default=None)


def _poz_region(dcf, order, region: Region, spans: _Spans) -> PozRegionResult | None:
    bar = shadow(order, region)
    if bar.is_empty():
        return None
    n_bar_atoms, _, bar_index, v, _, (_, s, vh) = spans[bar.point_names()]
    n_bar = v.shape[1]
    # dead shadow atoms are kernel directions that every split maps to zero
    kernel_dim = n_bar_atoms - len(s)
    if len(s) == n_bar:
        return PozRegionResult(region.point_names(), bar.point_names(), kernel_dim, 0.0)
    _, r_live, r_index = live_atoms(dcf, region.point_names())
    n_r = r_live.size
    labels = r_index * n_bar + bar_index
    # live region atoms per block: the stacked (block, d, max(d, n_bar))
    # temporaries hold no more entries than a full-width factor
    d, n = v.shape[0], dcf.space.size
    block = max(1, n // max(d, n_bar))
    worst = 0.0
    for a0 in range(0, n_r, block):
        a1 = min(a0 + block, n_r)
        w = dcf.vectors(
            labels - a0 * n_bar, (a1 - a0) * n_bar, (r_index >= a0) & (r_index < a1)
        )
        w = w.reshape(d, a1 - a0, n_bar).swapaxes(0, 1)
        worst = max(worst, selection_violation(vh, w))
    return PozRegionResult(region.point_names(), bar.point_names(), kernel_dim, worst)


def check_poz(
    dcf: DecoherenceFunctional,
    order: CausalOrder,
    regions="exhaustive",
) -> PozReport:
    """Test persistence of zero for each region (skipping those whose
    shadow is empty, where the condition is vacuous).

    Checking the kernel of the shadow algebra's atom Gram against every
    atom of the region algebra suffices: both sides of the condition are
    linear in atom decompositions.

    `regions="exhaustive"` tests the up-sets (complements of the past
    sets), which covers every region of any order size: a region R and
    its causal future F = J+(R) have the same shadow, and R is contained
    in the up-set F, so every event of R's algebra lies in F's algebra.
    Hence PoZ on F implies PoZ on R, and each atom vector of R is a sum of
    at most k atom vectors of F, where k is the largest number of F-atoms
    in one R-atom, so viol(R) <= k^2 viol(F).  Each shadow span is built
    once per call (`_Spans`); quantum patching shares one table with
    `check_lon` and the wing operators.
    """
    return _check_poz(dcf, order, regions, _Spans(dcf))


def _check_poz(dcf, order, regions, spans: _Spans) -> PozReport:
    _check_alignment(dcf, order)
    if regions == "exhaustive":
        regions = [~z for z in down_sets(order)]
    results = []
    skipped = 0
    for region in regions:
        if region.order is not order:
            raise ValueError("region belongs to a different causal order")
        res = _poz_region(dcf, order, region, spans)
        if res is None:
            skipped += 1
        else:
            results.append(res)
    return PozReport(tuple(results), skipped, dcf.tol)


# ---------------------------------------------------------------------------
# Event operators

@dataclass(frozen=True, eq=False)
class EventOperator:
    """Linear action of an event on the sub-Hilbert space of a domain
    region: domain atom vectors map to their conjunctions with the event.

    `matrix` lives on an orthonormal basis of the domain span, `basis`,
    whose columns are in factor coordinates: both depend on the
    functional's factorization, up to a unitary change of coordinates.
    `frame_matrix` expresses the same operator in the domain-atom frame
    (minimum-norm coordinates) and is directly comparable across theories
    that agree on the domain region.
    """

    event: Event
    region_points: tuple[str, ...]
    domain_points: tuple[str, ...]
    matrix: np.ndarray
    frame_matrix: np.ndarray
    basis: np.ndarray
    consistency_residual: float
    codomain_residual: float
    universal_residual: float


def event_operator(
    dcf: DecoherenceFunctional,
    order: CausalOrder,
    region,
    event: Event,
    domain,
    force: bool = False,
) -> EventOperator:
    """Build the operator of `event` (in region `region`) on the event
    Hilbert space spanned by the atoms of `domain`.

    Refuses when the least-squares construction is inconsistent (the
    persistence-of-zero prerequisite fails on this domain) or when an
    image sticks out of the domain span; `force=True` returns the best
    least-squares operator with the residuals recorded instead.

    The span is read from the domain's live atoms (`live_region_vectors`):
    a dead atom's vector and its conjunction with the event are exactly
    zero, so its row and column of `frame_matrix` are zero too.
    """
    _, ((op,),) = _operator_families(dcf, order, domain, [(region, [event])], force, _Spans(dcf))
    return op


def _operator_families(dcf, order, domain, families, force: bool, spans: _Spans) -> tuple:
    """The span of `domain` (its point names and its `spans` entry), read
    once, and the operators of each `(region, events)` family on it.  A
    foreign event, or one outside its region's algebra, is refused before
    the span is read."""
    _check_alignment(dcf, order)
    algebras = [region_algebra(dcf.space, region) for region, _ in families]
    for alg, (_, events) in zip(algebras, families):
        for e in events:
            dcf._own(e)
            # in the algebra iff no atom has histories on both sides of it
            inside = np.zeros(alg.n_atoms, dtype=bool)
            inside[alg.atom_index[e.flags]] = True
            if inside[alg.atom_index[~e.flags]].any():
                raise ValueError("event is not in the region's algebra")
    names = _as_point_names(dcf.space, domain)
    span = names, *spans[names]
    return span, [
        [_event_operator(dcf, alg, e, span, force) for e in events]
        for alg, (_, events) in zip(algebras, families)
    ]


def _event_operator(
    dcf: DecoherenceFunctional, alg_r: RegionAlgebra, event: Event, span: tuple, force: bool
) -> EventOperator:
    """`event_operator` on a checked event and a built domain span
    (`_operator_families`)."""
    domain_points, n_atoms, live, index, v, _, (basis, s, vh) = span
    # everything is read off one truncated SVD v = basis diag(s) vh
    w = dcf.vectors(index, v.shape[1], event.flags[dcf.live])
    coords_w = basis.conj().T @ w
    codomain = float(np.linalg.norm(w - basis @ coords_w, axis=0).max(initial=0.0))
    # inconsistency = largest image norm over null combinations of the
    # domain atoms, the ambient-space statement of zero persistence
    consistency = float(np.sqrt(selection_violation(vh, w)))
    if not force:
        floor = dcf.tol.rel * max(1.0, float(np.linalg.norm(v)))
        if consistency > floor:
            raise CheckViolation(
                f"event operator inconsistent (residual {consistency:.3e}); "
                "persistence of zero fails on this domain"
            )
        if codomain > floor:
            raise CheckViolation(
                f"event image leaves the domain span (residual {codomain:.3e})"
            )
    x = (coords_w @ vh.conj().T) / s  # coords_w pinv(basis† v)
    # universal vector = sum of domain atom vectors; its image must be the
    # event's own vector, the sum of its conjunctions with the atoms
    uni = v.sum(axis=1)
    image_uni = basis @ (x @ (basis.conj().T @ uni))
    universal_residual = float(np.linalg.norm(image_uni - w.sum(axis=1)))
    frame = np.zeros((n_atoms, n_atoms), dtype=complex)
    frame[np.ix_(live, live)] = vh.conj().T @ (coords_w / s[:, None])  # pinv(v) w
    return EventOperator(
        event=event,
        region_points=alg_r.points,
        domain_points=domain_points,
        matrix=x,
        frame_matrix=frame,
        basis=basis,
        consistency_residual=consistency,
        codomain_residual=codomain,
        universal_residual=universal_residual,
    )


# ---------------------------------------------------------------------------
# Lack of novelty

@dataclass(frozen=True)
class LonRegionResult(Report):
    z_points: tuple[str, ...] = field(metadata={"key": "z"})
    domain_points: tuple[str, ...] = field(metadata={"key": "future_domain"})
    dim_z: int
    dim_domain: int = field(metadata={"key": "dim_future_domain"})
    max_residual: float


@dataclass(frozen=True)
class LonReport(Report):
    results: tuple[LonRegionResult, ...]
    tol: Tolerance

    derived = ("max_residual",)

    @property
    def max_residual(self) -> float:
        return max((r.max_residual for r in self.results), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol.rel and all(
            r.dim_z == r.dim_domain for r in self.results
        )


def check_lon(
    dcf: DecoherenceFunctional,
    order: CausalOrder,
    past_sets="exhaustive",
) -> LonReport:
    """For every past set, the event Hilbert space of its future domain of
    dependence must already be spanned by the past set's own atoms.

    The dimensions follow the rank rule, but the residual projects onto
    the past set's span with lstsq's eps cut: a direction below the rank
    cut still lies in that span, and dropping it would count the part of
    a domain vector along it as novelty.  Each span is built once per call
    (`_Spans`); quantum patching shares one table with `check_poz`."""
    return _check_lon(dcf, order, past_sets, _Spans(dcf))


def _check_lon(dcf, order, past_sets, spans: _Spans) -> LonReport:
    _check_alignment(dcf, order)
    if past_sets == "exhaustive":
        past_sets = down_sets(order)
    past_sets = list(past_sets)
    if any(z.order is not order for z in past_sets):
        raise ValueError("region belongs to a different causal order")

    def span(names):
        n_atoms, _, _, v, (u, s, _), (_, kept, _) = spans[names]
        # the singular value cut of lstsq(rcond=None) on the full-width
        # atom matrix, whose dead columns are zero
        cut = np.finfo(float).eps * max(v.shape[0], n_atoms) * s.max(initial=0.0)
        return v, u[:, s > cut], len(kept)

    results = []
    for z, dom in zip(past_sets, future_domains(order, past_sets)):
        z_names, dom_names = z.point_names(), dom.point_names()
        _, u, dim_z = span(z_names)
        vd, _, dim_d = span(dom_names)
        max_resid = 0.0
        if dom_names != z_names:
            # residual of projecting vd onto the span of vz
            resid = np.linalg.norm(vd - u @ (u.conj().T @ vd), axis=0)
            scale = np.maximum(1.0, np.linalg.norm(vd, axis=0))
            max_resid = float((resid / scale).max(initial=0.0))
        results.append(LonRegionResult(z_names, dom_names, dim_z, dim_d, max_resid))
    return LonReport(tuple(results), dcf.tol)


# ---------------------------------------------------------------------------
# Spacelike commutation and partition identities

@dataclass(frozen=True)
class CommutationReport(Report):
    commutator_norm: float
    action_residual: float
    tol: Tolerance

    @property
    def passed(self) -> bool:
        return max(self.commutator_norm, self.action_residual) <= self.tol.rel


def check_spacelike_commutation(
    dcf: DecoherenceFunctional,
    order: CausalOrder,
    z: Region,
    a: Region,
    b: Region,
    events_a,
    events_b,
) -> CommutationReport:
    """Operators of spacelike events on the past's event Hilbert space
    must commute; also checks the composed action against the direct
    conjunction vectors on every past atom.  Runs over every pair of an
    event of `events_a` (in `a`) and one of `events_b` (in `b`), building
    each operator once on one span of the past, and reports the largest
    residuals."""
    _check_alignment(dcf, order)
    validate_scenario_geometry(order, z, a, b).require("scenario geometry invalid")
    span, (ops_a, ops_b) = _operator_families(
        dcf, order, z, [(a, events_a), (b, events_b)], True, _Spans(dcf)
    )
    # direct action: B-hat A-hat |G> = |E_B E_A G| for each past atom G;
    # dead past atoms are zero on both sides
    _, _, _, index, vz, _, _ = span
    comm_norm = action = 0.0
    for op_a in ops_a:
        basis = op_a.basis
        coords = basis.conj().T @ vz
        for op_b in ops_b:
            comm = op_a.matrix @ op_b.matrix - op_b.matrix @ op_a.matrix
            comm_norm = max(
                comm_norm, float(np.linalg.svd(comm, compute_uv=False).max(initial=0.0))
            )
            composed = basis @ (op_b.matrix @ op_a.matrix @ coords)
            direct = dcf.vectors(
                index, vz.shape[1], (op_a.event & op_b.event).flags[dcf.live]
            )
            action = max(
                action, float(np.linalg.norm(composed - direct, axis=0).max(initial=0.0))
            )
    return CommutationReport(comm_norm, action, dcf.tol)


# ---------------------------------------------------------------------------
# Quantum factorizability

@dataclass(frozen=True)
class FactorizabilityReport(Report):
    max_residual: float
    combinations_checked: int
    combinations_total: int
    exhaustive: bool
    tol: Tolerance

    @property
    def passed(self) -> bool:
        return self.exhaustive and self.max_residual <= self.tol.rel


def _shared_row_components(fac: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """Label the n atoms (column j of `fac` lies in atom index[j]) by the
    connected components of the relation "share a nonzero row of fac"."""
    d = fac.shape[0]
    rows, cols = np.nonzero(fac)
    atom, row = np.divmod(np.unique(index[cols] * d + rows), d)
    label = np.arange(n)
    while True:
        row_min = np.full(d, n)
        np.minimum.at(row_min, row, label[atom])
        new = label.copy()
        np.minimum.at(new, atom, row_min[row])
        if (new == label).all():
            return np.unique(label, return_inverse=True)[1]
        label = new


def check_quantum_factorizability(
    dcf: DecoherenceFunctional,
    order: CausalOrder,
    z: Region,
    a: Region,
    b: Region,
) -> FactorizabilityReport:
    """Residual of the doubled screening-off identity

        D(EA EB G, EA' EB' G') D(G, G') = D(EA G, EA' G') D(EB G, EB' G')

    over atoms of the wing algebras and past history-events.  Atom-level
    coverage suffices: both sides are separately additive in each of the
    four wing slots.  Both sides vanish when an atom carries no amplitude,
    and when the two A atoms (or the two B atoms) lie in different
    components of the relation "share a final configuration": their
    vectors are then orthogonal.  The scan therefore runs exhaustively over
    the amplitude-carrying atoms within each pair of an A and a B component,
    and counts the rest as checked.  Raises when that scan exceeds
    FACTORIZABILITY_LIMIT residual evaluations.
    """
    _check_alignment(dcf, order)
    validate_scenario_geometry(order, z, a, b).require("scenario geometry invalid")
    fac = dcf.factor
    rows = fac.any(axis=1)  # the final configurations any live history reaches
    fac = fac[rows]
    total = 1
    local = []
    for region in (z, a, b):
        n_atoms, live, index = live_atoms(dcf, region.point_names())
        total *= n_atoms
        local.append((live.size, index))
    total **= 2
    (n_z, iz), (n_a, ia), (n_b, ib) = local
    comp_a = _shared_row_components(fac, ia, n_a)
    comp_b = _shared_row_components(fac, ib, n_b)
    size_a, size_b = np.bincount(comp_a), np.bincount(comp_b)
    evaluations = int(((n_z * np.outer(size_a, size_b)) ** 2).sum())
    if evaluations > FACTORIZABILITY_LIMIT:
        raise ValueError(
            f"{evaluations} screening-off residuals exceed the factorizability "
            f"limit {FACTORIZABILITY_LIMIT}"
        )
    zv = dcf.vectors(iz, n_z)[rows]
    s_z = zv.conj().T @ zv

    def vectors(labels, n, sel):
        """`dcf.vectors` of the selected live histories, on the final
        configurations that any of them reaches."""
        v = dcf.vectors(labels, n, sel)
        return v[v.any(axis=1)]

    def wing(comp, iw, c):
        """Histories in wing component c, the position of each wing atom
        within c, and the past-wing atom vectors of c, ordered (g, p)."""
        members = comp == c
        pos = np.cumsum(members) - 1
        sel = members[iw]
        n_c = int(members.sum())
        return sel, pos, vectors(iz * n_c + pos[iw], n_z * n_c, sel)

    wings_b = [wing(comp_b, ib, c) for c in range(len(size_b))]
    worst = 0.0
    for alpha, na in enumerate(size_a):
        sel_a, pos_a, av = wing(comp_a, ia, alpha)
        for (sel_b, pos_b, bv), nb in zip(wings_b, size_b):
            sel = sel_a & sel_b
            m = na * nb
            x = vectors((iz * na + pos_a[ia]) * nb + pos_b[ib], n_z * m, sel)
            # rows i = (g, p, q) of the residual, in blocks; it is symmetric
            # under swapping the primed and unprimed slots, so each block
            # meets only the columns (h, r, s) with h at or after its first g
            step = max(1, 2 ** 16 // (n_z * m))
            for i0 in range(0, n_z * m, step):
                i = np.arange(i0, min(i0 + step, n_z * m))
                g, gp, q = i // m, i // nb, i % nb
                h0 = g[0]
                lhs = np.einsum("fi,fj->ij", x[:, i].conj(), x[:, h0 * m:])
                lhs = lhs.reshape(len(i), -1, m) * s_z[g, h0:][:, :, None]
                da = np.einsum(
                    "fi,fj->ij", av[:, gp[0]: gp[-1] + 1].conj(), av[:, h0 * na:]
                )[gp - gp[0]]
                db = np.einsum(
                    "fi,fj->ij", bv[:, h0 * nb: (g[-1] + 1) * nb].conj(), bv[:, h0 * nb:]
                )[(g - h0) * nb + q]
                lhs -= (
                    da.reshape(len(i), -1, na, 1) * db.reshape(len(i), -1, 1, nb)
                ).reshape(lhs.shape)
                worst = max(worst, float(np.abs(lhs).max(initial=0.0)))
    return FactorizabilityReport(worst, total, total, True, dcf.tol)
