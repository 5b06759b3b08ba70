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
from .histories import atom_ids


def live_atoms(dcf: DecoherenceFunctional, points) -> tuple[int, np.ndarray, np.ndarray]:
    """The region's atom count, the ids of its live atoms, and each live
    history's position among them, one entry per `dcf.live`.

    An atom is live when it holds a live history.  Every other atom's
    vector, and the vector of every event inside it, is exactly zero:
    spans and ranks need only the live columns, and each dead atom adds a
    kernel direction that every split maps to zero.  Liveness goes by
    histories, not by nonzero columns, because live histories may cancel
    in an atom's vector but not in its splits.  The ids come from
    `atom_ids` at the live histories: on a grid only those rows are read.
    """
    n_atoms, ids = atom_ids(dcf.space, points, dcf.live)
    live, position = np.unique(ids, return_inverse=True)
    return n_atoms, live, position


def live_region_vectors(
    dcf: DecoherenceFunctional, points
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """`live_atoms` and the live atom vectors, as factor-space columns."""
    n_atoms, live, position = live_atoms(dcf, points)
    return n_atoms, live, position, dcf.vectors(position, live.size)
