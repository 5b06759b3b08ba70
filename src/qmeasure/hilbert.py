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


def event_vector(dcf: DecoherenceFunctional, event: Event) -> np.ndarray:
    dcf._own(event)
    return dcf._event_vector(event.flags)


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
    live = np.bincount(alg.atom_index[dcf.factor[0]], minlength=alg.n_atoms) > 0
    # a dead history's position is meaningless, but `vectors` reads none
    return int(live.sum()), (np.cumsum(live) - live)[alg.atom_index]


def live_region_vectors(
    dcf: DecoherenceFunctional, points
) -> tuple[RegionAlgebra, np.ndarray, np.ndarray]:
    """The region algebra, each history's live-atom position (`live_atoms`)
    and the live atom vectors, as factor-space columns."""
    alg = region_algebra(dcf.space, points)
    n_live, index = live_atoms(dcf, alg)
    return alg, index, dcf.vectors(index, n_live)


@dataclass(frozen=True, eq=False)
class EventHilbertSpace:
    """Gram-matrix presentation of the span of a family of atom vectors.

    The basis is either every atomic history or the atoms of one region
    algebra.  `factor` holds the atom vectors as columns and satisfies
    factor† factor = gram.
    """

    dcf: DecoherenceFunctional
    n_atoms: int
    gram: np.ndarray
    factor: np.ndarray
    rank: int

    @property
    def universal_norm2(self) -> float:
        """Squared norm of the full-space event, whose coefficient vector
        is all ones since the atoms partition the space."""
        v = self.factor @ np.ones(self.n_atoms, dtype=complex)
        return float(np.vdot(v, v).real)


def build_event_space(dcf: DecoherenceFunctional, points=None) -> EventHilbertSpace:
    """Event Hilbert space over all atoms, or over a region's atoms."""
    if points is None:
        if dcf.space.size > DENSE_ATOM_CAP:
            raise ValueError(
                f"full event space needs at most {DENSE_ATOM_CAP} histories; "
                "pass a region"
            )
        vecs = dcf.vectors(np.arange(dcf.space.size), dcf.space.size)
    else:
        alg, vecs = region_vectors(dcf, points)
        if alg.n_atoms > DENSE_ATOM_CAP:
            raise ValueError("region algebra exceeds the dense atom cap")
    gram = vecs.conj().T @ vecs
    return EventHilbertSpace(
        dcf=dcf,
        n_atoms=vecs.shape[1],
        gram=gram,
        factor=vecs,
        rank=numerical_rank(vecs, dcf.tol),
    )
