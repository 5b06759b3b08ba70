"""Finite history spaces and their event algebra.

A history space is a finite list of value assignments over named points;
an event is a subset of histories, stored as one bool flag per history.
The Boolean operations are the Event operators `|`, `&`, `^`, `~` and
`<=`, shared with regions through `_linalg.FlagSet`.
The full event algebra (2^n sets) is never materialized: a region algebra
is an atom id per history, and only user-constructed events exist as
Event objects.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ._linalg import FlagSet

MAX_HISTORIES = 65536
MAX_VALUE = 65535  # history values are stored as uint16
KEY_TABLE_FLOOR = 1024  # row keys may reach this bound before rank compression


def _as_point_names(space: "HistorySpace", points) -> tuple[str, ...]:
    """Accept point names, each given once, or a region-like object
    carrying point names."""
    if hasattr(points, "point_names"):
        points = points.point_names()
    names = tuple(points)
    for i, p in enumerate(names):
        if p not in space._point_index:
            raise ValueError(f"unknown point {p!r}")
        if p in names[:i]:
            raise ValueError(f"point {p!r} is listed twice")
    return names


@dataclass(frozen=True, eq=False)
class HistorySpace:
    """Ordered points plus one value vector per history.

    `histories` is any (n_histories, n_points) integer array-like, stored
    only as the uint16 `value_matrix` (values lie in 0..65535).
    Alphabet sizes are declared (or inferred as max value + 1).  Immutable.

    The rows are checked to be pairwise distinct, even where they are
    distinct by construction (a circuit's grid): the check is what makes
    `is_grid` sound.  Distinct rows as many as the product of the
    alphabets are every value combination once, so a region's atoms are
    its value combinations and an atom's id is its mixed-radix key, read
    from any histories alone (`atom_ids`).
    """

    points: tuple[str, ...]
    histories: InitVar[object]
    labels: tuple[str, ...] | None = None
    alphabets: Mapping[str, int] | None = None
    value_matrix: np.ndarray = field(init=False, repr=False)
    is_grid: bool = field(init=False, repr=False)

    def __post_init__(self, histories):
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        if len(set(points)) != len(points):
            raise ValueError("duplicate point names")
        values = np.asarray(histories)
        if values.shape[:1] == (0,):
            raise ValueError("history space must contain at least one history")
        if values.ndim != 2 or values.shape[1] != len(points):
            raise ValueError("history length does not match number of points")
        if len(values) > MAX_HISTORIES:
            raise ValueError(f"too many histories ({len(values)} > {MAX_HISTORIES})")
        if values.size and (
            values.dtype.kind not in "iu" or values.min() < 0 or values.max() > MAX_VALUE
        ):
            raise ValueError(f"history values must be integers in 0..{MAX_VALUE}")
        values = values.astype(np.uint16)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != len(values):
                raise ValueError("labels length does not match number of histories")
            object.__setattr__(self, "labels", labels)
        top = dict(zip(points, values.max(axis=0).tolist()))
        if self.alphabets is None:
            alphabets = {p: top[p] + 1 for p in points}
        else:
            alphabets = {p: int(self.alphabets[p]) for p in points}
            for p in points:
                if not top[p] < alphabets[p] <= MAX_VALUE + 1:
                    raise ValueError(
                        f"alphabet at point {p!r} must exceed its values and be "
                        f"at most {MAX_VALUE + 1}"
                    )
        object.__setattr__(self, "alphabets", alphabets)
        object.__setattr__(self, "value_matrix", values)
        object.__setattr__(self, "_point_index", {p: i for i, p in enumerate(points)})
        if np.bincount(_row_keys(values, alphabets.values())[0]).max() > 1:
            raise ValueError("histories must be pairwise distinct")
        object.__setattr__(self, "is_grid", len(values) == math.prod(alphabets.values()))

    @property
    def size(self) -> int:
        return len(self.value_matrix)

    def point_index(self, point: str) -> int:
        try:
            return self._point_index[point]
        except KeyError:
            raise ValueError(f"unknown point {point!r}") from None

    def columns(self, points) -> list[int]:
        return [self.point_index(p) for p in _as_point_names(self, points)]

    # -- event constructors ------------------------------------------------

    def empty_event(self) -> "Event":
        return Event(self, np.zeros(self.size, dtype=bool))

    def full_event(self) -> "Event":
        return Event(self, np.ones(self.size, dtype=bool))

    def event_from_indices(self, indices: Iterable[int]) -> "Event":
        flags = np.zeros(self.size, dtype=bool)
        for i in indices:
            i = int(i)
            if not 0 <= i < self.size:
                raise ValueError(f"history index {i} out of range")
            flags[i] = True
        return Event(self, flags)

    def value_event(self, point: str, value: int) -> "Event":
        """All histories whose value at `point` equals `value`."""
        col = self.point_index(point)
        return Event(self, self.value_matrix[:, col] == value)


@dataclass(frozen=True, eq=False)
class Event(FlagSet):
    """A set of histories of one HistorySpace: one bool flag per history."""

    space: HistorySpace
    flags: np.ndarray
    needs = "an event"
    foreign = "events belong to different history spaces"

    @property
    def _owner(self) -> HistorySpace:
        return self.space

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.space.size and bool(self.flags[index])

    def indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.flags).tolist())


# -- Region-restricted algebras --------------------------------------------

@dataclass(frozen=True, eq=False)
class RegionAlgebra:
    """Atoms of the subalgebra of events visible inside a point region.

    Atoms are the fibers of the restriction map: two histories share an
    atom iff their value vectors agree on the region's points.  Atoms are
    ordered canonically by restricted value vector; `representatives`
    holds those vectors, one uint16 row per atom, and `atom_index` the
    atom id of each history.
    """

    space: HistorySpace
    points: tuple[str, ...]
    representatives: np.ndarray = field(repr=False)
    atom_index: np.ndarray = field(repr=False)  # atom id per history

    @property
    def n_atoms(self) -> int:
        return len(self.representatives)


def _row_keys(values: np.ndarray, radices) -> tuple[np.ndarray, int]:
    """One int64 key per row that orders and equates rows as their value
    vectors do lexicographically, and a bound all keys lie below: the
    mixed-radix number with digit j below radices[j].  Whenever the bound
    passes max(rows, KEY_TABLE_FLOOR), the key is replaced by its rank
    among the distinct keys, so a table indexed by key stays O(rows)."""
    cap = max(len(values), KEY_TABLE_FLOOR)
    key = np.zeros(len(values), dtype=np.int64)
    bound = 1
    for col, radix in zip(values.T, radices):
        key = key * radix + col  # below cap * radix <= 2**32: no overflow
        bound *= radix
        if bound > cap:
            distinct, key = np.unique(key, return_inverse=True)
            bound = len(distinct)
    return key, bound


def region_algebra(space: HistorySpace, points) -> RegionAlgebra:
    """Atoms by counting, over every history, on every space: a history's
    atom id is the number of present keys below its own in a table of the
    key bound, which is the canonical (lexicographic) order; each
    representative is one history's row.  `atom_ids` reads a grid's ids
    at given histories alone."""
    names = _as_point_names(space, points)
    radices = [space.alphabets[p] for p in names]
    values = space.value_matrix[:, space.columns(names)]
    keys, bound = _row_keys(values, radices)
    row = np.full(bound, -1)
    row[keys] = np.arange(len(keys))  # some history per present key
    present = row >= 0
    index = (np.cumsum(present) - 1)[keys]
    return RegionAlgebra(space, names, values[row[present]], index)


def atom_ids(space: HistorySpace, points, rows: np.ndarray) -> tuple[int, np.ndarray]:
    """The region's atom count and the atom id (as in `region_algebra`) of
    each history in `rows`.  On a grid the count is the product of the
    region's radices and an id is a mixed-radix key, one dot product of a
    history's values with the region's place values, so only `rows` are
    read; any other space counts its atoms over every history."""
    if not space.is_grid:
        alg = region_algebra(space, points)
        return alg.n_atoms, alg.atom_index[rows]
    names = _as_point_names(space, points)
    radices = [space.alphabets[p] for p in names]
    place = np.zeros(len(space.points), dtype=np.int64)  # keys < size: no overflow
    place[[space._point_index[p] for p in names]] = np.cumprod([1, *radices[::-1]])[-2::-1]
    return math.prod(radices), space.value_matrix[rows] @ place
