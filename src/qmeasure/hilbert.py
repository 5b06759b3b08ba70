"""Event Hilbert space machinery: the live atom vectors of a region.

Every event gets a concrete coordinate vector from
`DecoherenceFunctional.vectors`: for a dense functional through a PSD
factorization of the atom matrix, for a lazy one directly through its
branch amplitudes.  Inner products of event vectors reproduce the
functional, so span or membership questions become ordinary least squares
in the factor coordinates.  Persistence of zero, lack of novelty, event
operators and spacelike commutation all read a region's span from its
live atom vectors (`region_span`): every other atom's vector is exactly
zero.
"""

from __future__ import annotations

import numpy as np

from ._linalg import rank_from_singular_values
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


def region_span(dcf: DecoherenceFunctional, points) -> tuple:
    """The span of a region's live atom vectors: `live_atoms`, the vectors
    v as factor-space columns, one thin SVD (u, s, vh) of v, and the rank
    r that the rank rule keeps.

    The one place a span is decomposed and cut: u[:, :r] is an orthonormal
    basis of the span, vh[:r] spans the row space (so I - vh[:r]† vh[:r]
    projects onto the kernel), and vh[:r]† diag(1/s[:r]) u[:, :r]† is the
    pseudo-inverse of v.  Each reader cuts at r itself.
    """
    n_atoms, live, index = live_atoms(dcf, points)
    v = dcf.vectors(index, live.size)
    u, s, vh = np.linalg.svd(v, full_matrices=False)
    return n_atoms, live, index, v, (u, s, vh), rank_from_singular_values(s, dcf.tol)
