"""Event Hilbert space machinery: the live atom vectors of a region.

Every event gets a concrete coordinate vector from
`DecoherenceFunctional.vectors`: for a dense functional through a PSD
factorization of the atom matrix, for a lazy one directly through its
branch amplitudes.  Inner products of event vectors reproduce the
functional, so span or membership questions become ordinary least squares
in the factor coordinates.  Persistence of zero, lack of novelty, event
operators and spacelike commutation all read a region's span from its
live atom vectors (`live_region_vectors`): every other atom's vector is
exactly zero.
"""

from __future__ import annotations

import numpy as np

from .decoherence import DecoherenceFunctional
from .histories import RegionAlgebra, region_algebra


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
