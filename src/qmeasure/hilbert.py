"""Event Hilbert space machinery.

Every event gets a concrete coordinate vector from
`DecoherenceFunctional.vectors`: for a dense functional through a PSD
factorization of the atom matrix, for a lazy one directly through its
branch amplitudes.  Inner products of event vectors reproduce the
functional, so span or membership questions become ordinary least squares
in the factor coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import numerical_rank
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


def event_vector(dcf: DecoherenceFunctional, event: Event) -> np.ndarray:
    if event.space is not dcf.space:
        raise ValueError("event belongs to a different history space")
    return dcf.vectors(np.zeros(dcf.space.size, dtype=np.int64), 1, event.flags)[:, 0]


def combo_vector(dcf: DecoherenceFunctional, combo: LinearCombination) -> np.ndarray:
    out = event_vector(dcf, dcf.space.empty_event())  # zeros, one per factor row
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
    return alg, dcf.vectors(alg.atom_index, alg.n_atoms)


def live_atoms(dcf: DecoherenceFunctional, alg: RegionAlgebra) -> tuple[int, np.ndarray]:
    """The number of the algebra's live atoms and each history's position
    among them.

    An atom is live when it holds a live history (`dcf.factor[0]`).  Every
    other atom's vector, and the vector of every event inside it, is
    exactly zero: spans and ranks need only the live columns, and each
    dead atom adds a kernel direction that every split maps to zero.
    Liveness goes by histories, not by nonzero columns, because live
    histories may cancel in an atom's vector but not in its splits.
    """
    live = np.unique(alg.atom_index[dcf.factor[0]])
    # a dead history's position is meaningless, but `vectors` reads none
    return live.size, np.searchsorted(live, alg.atom_index)


def live_region_vectors(
    dcf: DecoherenceFunctional, points
) -> tuple[RegionAlgebra, np.ndarray, np.ndarray]:
    """The region algebra, each history's live-atom position (`live_atoms`)
    and the live atom vectors, as factor-space columns."""
    alg = region_algebra(dcf.space, points)
    n_live, index = live_atoms(dcf, alg)
    return alg, index, dcf.vectors(index, n_live)


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
    factor† factor = gram.
    """

    dcf: DecoherenceFunctional
    atoms: tuple[Event, ...]
    gram: np.ndarray
    factor: np.ndarray
    rank: int

    @property
    def universal_norm2(self) -> float:
        """Squared norm of the full-space event, whose coefficient vector
        is all ones since the atoms partition the space."""
        v = self.factor @ np.ones(len(self.atoms), dtype=complex)
        return float(np.vdot(v, v).real)


def build_event_space(dcf: DecoherenceFunctional, points=None) -> EventHilbertSpace:
    """Event Hilbert space over all atoms, or over a region's atoms."""
    if points is None:
        if dcf.space.size > DENSE_ATOM_CAP:
            raise ValueError(
                f"full event space needs at most {DENSE_ATOM_CAP} histories; "
                "pass a region"
            )
        atoms = tuple(Event(dcf.space, row) for row in np.eye(dcf.space.size, dtype=bool))
        vecs = dcf.vectors(np.arange(dcf.space.size), dcf.space.size)
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
    )
