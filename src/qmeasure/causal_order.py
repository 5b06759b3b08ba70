"""Finite causal orders standing in for background spacetime.

Regions are point subsets; the operations here (causal future, shadow,
past sets, future domain of dependence) feed the causality checks.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass
from typing import Iterable, Sequence

import numpy as np

from ._linalg import FlagSet

DOWN_SET_LIMIT = 4096


@dataclass(frozen=True, eq=False)
class CausalOrder:
    """A finite partial order: reflexive, antisymmetric, transitive."""

    points: tuple[str, ...]
    leq: np.ndarray  # bool matrix, leq[i, j] <=> point i precedes point j

    def __post_init__(self):
        points = tuple(self.points)
        leq = np.asarray(self.leq, dtype=bool)
        n = len(points)
        if len(set(points)) != n:
            raise ValueError("duplicate point names")
        if leq.shape != (n, n):
            raise ValueError("relation matrix shape does not match points")
        if not leq.diagonal().all():
            raise ValueError("relation is not reflexive")
        if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
            raise ValueError("relation is not antisymmetric")
        closure = leq | (leq @ leq)
        if (closure != leq).any():
            raise ValueError("relation is not transitive")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "leq", leq)
        object.__setattr__(self, "_point_index", {p: i for i, p in enumerate(points)})

    @classmethod
    def from_covers(cls, points: Sequence[str], covers: Iterable[tuple[str, str]]) -> "CausalOrder":
        """Build from covering pairs (lower, upper); transitively closed."""
        points = tuple(points)
        index = {p: i for i, p in enumerate(points)}
        n = len(points)
        rel = np.eye(n, dtype=bool)
        for lo, hi in covers:
            if lo not in index or hi not in index:
                raise ValueError(f"cover ({lo!r}, {hi!r}) uses unknown point")
            rel[index[lo], index[hi]] = True
        while True:
            closure = rel | (rel @ rel)
            if (closure == rel).all():
                break
            rel = closure
        return cls(points, rel)

    @classmethod
    def antichain(cls, points: Sequence[str]) -> "CausalOrder":
        points = tuple(points)
        return cls(points, np.eye(len(points), dtype=bool))

    @property
    def size(self) -> int:
        return len(self.points)

    def point_index(self, point: str) -> int:
        try:
            return self._point_index[point]
        except KeyError:
            raise ValueError(f"unknown point {point!r}") from None

    def region(self, points: Iterable[str]) -> "Region":
        flags = np.zeros(self.size, dtype=bool)
        for p in points:
            flags[self.point_index(p)] = True
        return Region(self, flags)


@dataclass(frozen=True, eq=False)
class Region(FlagSet):
    """A set of points of one causal order: one bool flag per point."""

    order: CausalOrder
    flags: np.ndarray
    needs = "a region"
    foreign = "regions belong to different causal orders"

    @property
    def _owner(self) -> CausalOrder:
        return self.order

    def point_names(self) -> tuple[str, ...]:
        return tuple(p for p, f in zip(self.order.points, self.flags) if f)


def future_set(order: CausalOrder, region: Region) -> Region:
    """Causal future J+ of the region; contains the region (reflexivity)."""
    return Region(order, order.leq[region.flags].any(axis=0))


def past_set_of(order: CausalOrder, region: Region) -> Region:
    """Causal past J- of the region."""
    return Region(order, order.leq[:, region.flags].any(axis=1))


def shadow(order: CausalOrder, region: Region) -> Region:
    """Points not to the causal future of any point of the region."""
    return ~future_set(order, region)


def is_past_set(order: CausalOrder, region: Region) -> bool:
    """True iff the region contains its own causal past (a down-set)."""
    return past_set_of(order, region) <= region


def future_domain(order: CausalOrder, region: Region) -> Region:
    """Future domain of dependence of a past set (`future_domains`)."""
    return future_domains(order, [region])[0]


def future_domains(order: CausalOrder, regions: Sequence[Region]) -> list[Region]:
    """Future domains of dependence of past sets, all in one pass.

    Convention for finite orders: a point belongs iff every minimal
    element of its causal past lies in the given past set.  Contains the
    past set itself.
    """
    if any(r.order is not order for r in regions):
        raise ValueError(Region.foreign)
    n = order.size
    leq = order.leq
    z = np.array([r.flags for r in regions], dtype=bool).reshape(-1, n)
    # a point below a member of z but outside it
    if (z[:, None, :] & ~z[:, :, None] & leq[None]).any():
        raise ValueError("future domain of dependence requires a past set")
    strict = leq & ~np.eye(n, dtype=bool)
    # by transitivity the minimal elements of J-(p) are exactly the
    # globally minimal points below p
    minimal_pts = ~strict.any(axis=0)
    bad = minimal_pts & ~z
    return [Region(order, flags) for flags in ~(bad @ leq) | z]


def are_spacelike(order: CausalOrder, r1: Region, r2: Region) -> bool:
    """True iff no point of one region is related to a point of the other."""
    r1._check(r2)
    f1, f2 = r1.flags, r2.flags
    return not (order.leq[np.ix_(f1, f2)].any() or order.leq[np.ix_(f2, f1)].any())


@dataclass(frozen=True)
class GeometryReport:
    """Clause-by-clause verdict for the past-set / wings arrangement."""

    z_is_past_set: bool
    a_in_future_domain: bool
    b_in_future_domain: bool
    a_disjoint_from_z: bool
    b_disjoint_from_z: bool
    wings_spacelike: bool
    union_is_past_set: bool

    @property
    def passed(self) -> bool:
        return all(astuple(self))

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def validate_scenario_geometry(
    order: CausalOrder, z: Region, a: Region, b: Region
) -> GeometryReport:
    """Check the arrangement: z a past set, wings in its future domain of
    dependence, disjoint from it, mutually spacelike, and all three
    together a past set."""
    z_past = is_past_set(order, z)
    dom = future_domain(order, z) if z_past else None
    return GeometryReport(
        z_is_past_set=z_past,
        a_in_future_domain=bool(dom is not None and a <= dom),
        b_in_future_domain=bool(dom is not None and b <= dom),
        a_disjoint_from_z=(a & z).is_empty(),
        b_disjoint_from_z=(b & z).is_empty(),
        wings_spacelike=are_spacelike(order, a, b),
        union_is_past_set=is_past_set(order, z | a | b),
    )


def down_sets(order: CausalOrder) -> list[Region]:
    """All past sets of the order, smallest first and, among sets of one
    size, in the order of their flags read as binary numbers with the
    last point most significant; errors above DOWN_SET_LIMIT."""
    n = order.size
    strict = order.leq & ~np.eye(n, dtype=bool)
    sets = np.zeros((1, n), dtype=bool)
    # visit points in a topological order; a set grows by a point once it
    # holds the point's strict past
    for p in np.argsort(order.leq.sum(axis=0), kind="stable"):
        grown = sets[(sets | ~strict[:, p]).all(axis=1)]
        grown[:, p] = True
        sets = np.concatenate([sets, grown])
        if len(sets) > DOWN_SET_LIMIT:
            raise ValueError(f"more than {DOWN_SET_LIMIT} past sets; supply a region list")
    sets = sets[np.lexsort((*sets.T, sets.sum(axis=1)))]
    return [Region(order, flags) for flags in sets]
