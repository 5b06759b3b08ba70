"""Event Hilbert space machinery.

Every event gets a concrete coordinate vector: for a dense functional
through a PSD factorization of the atom matrix, for a lazy one directly
through its branch vectors.  Inner products of event vectors reproduce
the functional, so span or membership questions become ordinary least
squares in the factor coordinates.

A history whose factor column is identically zero adds nothing to any
event vector.  The factor therefore keeps only its live columns, the
histories that carry amplitude, and every kernel gathers the atom labels
and event flags of those histories alone.  Sums over the live columns add
the same nonzero terms in the same order as sums over all histories, so
the results are bit-identical to the full-width computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import Tolerance, numerical_rank, psd_factor, scatter_columns
from .decoherence import DENSE_ATOM_CAP, DecoherenceFunctional
from .histories import Event, RegionAlgebra, region_algebra


@dataclass(frozen=True, eq=False)
class LinearCombination:
    """A formal complex combination of events over one history space."""

    terms: tuple[tuple[Event, complex], ...]

    def __post_init__(self):
        terms = tuple((e, complex(c)) for e, c in self.terms)
        if terms:
            space = terms[0][0].space
            for e, _ in terms:
                if e.space is not space:
                    raise ValueError("terms belong to different history spaces")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def of(cls, *pairs) -> "LinearCombination":
        return cls(tuple(pairs))


def history_factor(dcf: DecoherenceFunctional) -> tuple[np.ndarray, np.ndarray]:
    """The functional's live columns and its factor on them, cached on the
    functional after first use.

    Returns `(live, fac)`: `live` holds, in history order, the histories
    whose factor column is not identically zero, and column k of the
    `d x len(live)` matrix `fac` is the vector of history `live[k]`.  Inner
    products of the columns give the functional; the omitted columns are
    zero.  A lazy functional's live histories are those with nonzero
    amplitude, and its factor is built from them alone, never at full
    width.

    Raises when a dense matrix fails positive semi-definiteness at the
    tolerance (a strong-positivity violation).
    """
    cached = getattr(dcf, "_factor", None)
    if cached is not None:
        return cached
    if dcf.is_dense:
        fac = psd_factor(dcf.matrix, dcf.tol)
        live = np.flatnonzero(fac.any(axis=0))
        fac = fac[:, live]
    else:
        b = dcf.branch
        live = b.live
        fac = np.zeros((b.dim, live.size), dtype=complex)
        fac[b.final_index[live], np.arange(live.size)] = b.amplitudes[live]
    object.__setattr__(dcf, "_factor", (live, fac))
    return live, fac


def scatter_live(
    dcf: DecoherenceFunctional,
    labels: np.ndarray,
    m: int,
    flags: np.ndarray | None = None,
) -> np.ndarray:
    """Sums of the history vectors into m groups by the per-history
    `labels`, over the live histories (those with `flags` set, if given)."""
    live, fac = history_factor(dcf)
    labels = labels[live]
    if flags is not None:
        keep = flags[live]
        fac, labels = fac[:, keep], labels[keep]
    return scatter_columns(fac, labels, m)


def event_vector(dcf: DecoherenceFunctional, event: Event) -> np.ndarray:
    if event.space is not dcf.space:
        raise ValueError("event belongs to a different history space")
    one_group = np.zeros(dcf.space.size, dtype=np.int64)
    return scatter_live(dcf, one_group, 1, event.to_bool())[:, 0]


def combo_vector(dcf: DecoherenceFunctional, combo: LinearCombination) -> np.ndarray:
    _, fac = history_factor(dcf)
    out = np.zeros(fac.shape[0], dtype=complex)
    for e, c in combo.terms:
        out += c * event_vector(dcf, e)
    return out


def combo_norm2(dcf: DecoherenceFunctional, combo: LinearCombination) -> float:
    """Squared norm of the combination's vector; nonnegative by the factor
    representation, so numerical noise cannot make it indefinite."""
    v = combo_vector(dcf, combo)
    return float(np.vdot(v, v).real)


def _combo_scale(dcf: DecoherenceFunctional, combo: LinearCombination) -> float:
    s = 0.0
    for e, c in combo.terms:
        s += abs(c) ** 2 * dcf.measure(e)
    return max(1.0, s)


def is_null(dcf: DecoherenceFunctional, combo: LinearCombination) -> bool:
    """An event combination is null iff its vector measure vanishes."""
    return combo_norm2(dcf, combo) <= dcf.tol.rel * _combo_scale(dcf, combo)


def region_vectors(dcf: DecoherenceFunctional, points) -> tuple[RegionAlgebra, np.ndarray]:
    """Atom vectors of the region algebra, as factor-space columns."""
    alg = region_algebra(dcf.space, points)
    return alg, scatter_live(dcf, alg.atom_index, alg.n_atoms)


def subspace_dim(dcf: DecoherenceFunctional, points) -> int:
    """Dimension of the span of the region's event vectors (its atoms
    suffice: every region event vector is a sum of atom vectors)."""
    _, vecs = region_vectors(dcf, points)
    return numerical_rank(vecs, dcf.tol)


def in_subspace(
    dcf: DecoherenceFunctional, combo: LinearCombination, points
) -> tuple[bool, float]:
    """Least-squares membership of the combination in the region span.

    Returns (member, residual-norm)."""
    _, vecs = region_vectors(dcf, points)
    target = combo_vector(dcf, combo)
    if vecs.shape[1] == 0:
        resid = float(np.linalg.norm(target))
    else:
        sol, _, _, _ = np.linalg.lstsq(vecs, target, rcond=None)
        resid = float(np.linalg.norm(vecs @ sol - target))
    ok = resid <= dcf.tol.rel * max(1.0, float(np.linalg.norm(target)))
    return ok, resid


@dataclass(frozen=True, eq=False)
class EventHilbertSpace:
    """Gram-matrix presentation of the span of a family of atom vectors.

    The basis is either every atomic history or the atoms of one region
    algebra.  `factor` holds the atom vectors as columns and satisfies
    factor† factor = gram; `universal` is the coefficient vector of the
    full-space event (all ones, since the atoms partition the space).
    """

    dcf: DecoherenceFunctional
    atoms: tuple[Event, ...]
    gram: np.ndarray
    factor: np.ndarray
    rank: int
    universal: np.ndarray
    tol: Tolerance

    @property
    def universal_norm2(self) -> float:
        v = self.factor @ self.universal
        return float(np.vdot(v, v).real)


def build_event_space(dcf: DecoherenceFunctional, points=None) -> EventHilbertSpace:
    """Event Hilbert space over all atoms, or over a region's atoms."""
    if points is None:
        if dcf.space.size > DENSE_ATOM_CAP:
            raise ValueError(
                f"full event space needs at most {DENSE_ATOM_CAP} histories; "
                "pass a region"
            )
        live, fac = history_factor(dcf)
        atoms = tuple(Event(dcf.space, 1 << i) for i in range(dcf.space.size))
        vecs = np.zeros((fac.shape[0], dcf.space.size), dtype=complex)
        vecs[:, live] = fac
    else:
        alg, vecs = region_vectors(dcf, points)
        if alg.n_atoms > DENSE_ATOM_CAP:
            raise ValueError("region algebra exceeds the dense atom cap")
        atoms = alg.atoms
    gram = vecs.conj().T @ vecs
    return EventHilbertSpace(
        dcf=dcf,
        atoms=atoms,
        gram=gram,
        factor=vecs,
        rank=numerical_rank(vecs, dcf.tol),
        universal=np.ones(len(atoms), dtype=complex),
        tol=dcf.tol,
    )
