import dataclasses
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROUTE_MODELS, atom_events, outcome_event, setting_event

from qmeasure import (
    CausalOrder,
    Event,
    HistorySpace,
    Region,
    gen_ghz,
    gen_pr_box,
    region_algebra,
)
from qmeasure.histories import MAX_HISTORIES, atom_ids
from qmeasure.patching import SETTING_KEYS


@pytest.fixture
def four_space():
    return HistorySpace(
        points=("p",), histories=((0,), (1,), (2,), (3,)),
    )


def ev(space, *idx):
    return space.event_from_indices(idx)


class FourSets:
    """Subsets of one four-member owner, of one flag-set type, built from
    member indices."""

    def __init__(self, cls, owner):
        self.cls, self.owner = cls, owner

    def __call__(self, *idx):
        flags = np.zeros(4, dtype=bool)
        flags[list(idx)] = True
        return self.cls(self.owner, flags)


def four_member_sets():
    """One maker per flag-set type, each on a fresh owner: events of a
    four-history space and regions of a four-point antichain."""
    return [
        FourSets(Event, HistorySpace(points=("p",), histories=((0,), (1,), (2,), (3,)))),
        FourSets(Region, CausalOrder.antichain(("p0", "p1", "p2", "p3"))),
    ]


NEEDS = {Event: "an event", Region: "a region"}
FOREIGN = {
    Event: "events belong to different history spaces",
    Region: "regions belong to different causal orders",
}


class TestBooleanOps:
    """Events and regions share one flag-set algebra; each test runs on
    both types."""

    def test_symmetric_difference(self):
        for s in four_member_sets():
            assert (s(0, 1) ^ s(1, 2)) == s(0, 2)

    def test_complement_of_full_is_empty(self):
        for s in four_member_sets():
            assert (~s(0, 1, 2, 3)).is_empty()

    def test_disjoint_sum_is_union(self):
        for s in four_member_sets():
            e, f = s(0), s(2, 3)
            assert (e & f).is_empty()
            assert (e ^ f) == (e | f)

    def test_operators_by_index(self):
        for s in four_member_sets():
            e, f = s(0, 1), s(1, 2)
            assert (e | f) == s(0, 1, 2)
            assert (e & f) == s(1)
            assert ~e == s(2, 3)

    def test_inclusion(self):
        """`<=`, which events share with regions."""
        for s in four_member_sets():
            assert s(1) <= s(1, 2) and s() <= s(3) and s(0, 3) <= s(0, 3)
            assert not s(1, 2) <= s(1) and not s(0) <= s(1)

    def test_mismatched_spaces_rejected(self):
        """Each binary operator refuses a set of another owner, with its
        type's own message."""
        for s, t in zip(four_member_sets(), four_member_sets()):
            assert s(0) != t(0)
            for op in (operator.or_, operator.and_, operator.xor, operator.le):
                with pytest.raises(ValueError, match=FOREIGN[s.cls]):
                    op(s(0), t(1))

    def test_event_and_region_never_mix(self):
        e, r = four_member_sets()
        assert e(0) != r(0)
        with pytest.raises(ValueError, match=FOREIGN[Event]):
            e(0) | r(1)
        with pytest.raises(ValueError, match=FOREIGN[Region]):
            r(0) <= e(1)


class TestFlagVectors:
    def test_int_mask_refused(self):
        for s in four_member_sets():
            with pytest.raises(ValueError, match=f"{NEEDS[s.cls]} needs a bool vector of 4"):
                s.cls(s.owner, 5)

    @pytest.mark.parametrize(
        "flags", [[True, False, True], [1, 0, 1, 0], np.zeros((2, 2), dtype=bool)]
    )
    def test_wrong_shape_or_dtype_refused(self, flags):
        for s in four_member_sets():
            with pytest.raises(ValueError, match=NEEDS[s.cls]):
                s.cls(s.owner, np.asarray(flags))

    def test_flags_are_a_read_only_copy(self):
        for s in four_member_sets():
            flags = np.array([True, False, True, False])
            e = s.cls(s.owner, flags)
            flags[1] = True
            assert np.flatnonzero(e.flags).tolist() == [0, 2]
            with pytest.raises(ValueError):
                e.flags[1] = True

    def test_equal_events_hash_alike(self, four_space):
        for s in four_member_sets():
            e = s.cls(s.owner, np.array([False, True, True, False]))
            assert e == s(1, 2) and hash(e) == hash(s(1, 2))
            assert len(e) == 2 and len({e, s(2, 1), s(1)}) == 2
        e = Event(four_space, np.array([False, True, True, False]))
        assert 1 in e and 0 not in e and 7 not in e and e.indices() == (1, 2)

    def test_out_of_range_index_refused(self, four_space):
        with pytest.raises(ValueError, match="out of range"):
            four_space.event_from_indices([1, 4])


class TestMaterialImplication:
    """'e implies f' is the event ~e | f."""

    def test_full_antecedent_gives_consequent(self, four_space):
        f = ev(four_space, 1, 2)
        assert (~four_space.full_event() | f) == f

    def test_empty_antecedent_gives_full(self, four_space):
        assert (~four_space.empty_event() | ev(four_space, 1)) == four_space.full_event()

    def test_direct_evaluation(self, four_space):
        e = ev(four_space, 0, 1)
        f = ev(four_space, 1, 2)
        assert (~e | f) == ev(four_space, 1, 2, 3)


event_flags = st.lists(st.booleans(), min_size=8, max_size=8)


@st.composite
def three_events(draw):
    """Three events of an eight-history space, or three regions of an
    eight-point antichain: the laws hold for both flag-set types."""
    cls, owner = draw(st.sampled_from([
        (Event, HistorySpace(points=("p",), histories=tuple((i,) for i in range(8)))),
        (Region, CausalOrder.antichain(tuple(f"p{i}" for i in range(8)))),
    ]))
    return tuple(cls(owner, np.array(draw(event_flags))) for _ in range(3))


class TestBooleanLaws:
    @given(three_events())
    def test_de_morgan(self, evs):
        e, f, _ = evs
        assert ~(e | f) == (~e) & (~f)
        assert ~(e & f) == (~e) | (~f)

    @given(three_events())
    def test_distributivity(self, evs):
        e, f, g = evs
        assert (e & (f | g)) == ((e & f) | (e & g))
        assert (e | (f & g)) == ((e | f) & (e | g))

    @given(three_events())
    def test_boolean_ring(self, evs):
        e, _, _ = evs
        assert (e ^ e).is_empty()
        assert (e & e) == e


class TestRegionAlgebra:
    def test_double_slit_slit_region(self, double_slit):
        space, _, _ = double_slit
        alg = region_algebra(space, ("slit",))
        assert [a.indices() for a in atom_events(alg)] == [(0, 1), (2, 3)]

    def test_empty_region_single_atom(self, four_space):
        alg = region_algebra(four_space, ())
        assert alg.n_atoms == 1
        assert atom_events(alg)[0] == four_space.full_event()

    def test_full_region_singletons(self, four_space):
        alg = region_algebra(four_space, ("p",))
        assert alg.n_atoms == 4
        assert all(len(a) == 1 for a in atom_events(alg))

    def test_unknown_point_rejected(self, four_space):
        with pytest.raises(ValueError):
            region_algebra(four_space, ("nope",))

    def test_repeated_point_rejected(self, double_slit):
        space, _, _ = double_slit
        with pytest.raises(ValueError, match="'slit' is listed twice"):
            region_algebra(space, ("slit", "screen", "slit"))

    def test_refinement(self):
        rng = np.random.default_rng(7)
        from conftest import random_space

        space = random_space(rng)
        coarse = region_algebra(space, space.points[:1])
        fine = region_algebra(space, space.points[:2])
        for atom in atom_events(fine):
            parents = [c for c in atom_events(coarse) if not (atom & c).is_empty()]
            assert len(parents) == 1
            assert (atom & parents[0]) == atom


class TestCylinderEvents:
    """The histories taking given values on a region: an intersection of
    value events."""

    def test_double_slit_left(self, double_slit):
        space, _, _ = double_slit
        assert space.value_event("slit", 0).indices() == (0, 1)

    def test_empty_region_gives_full(self, four_space):
        assert atom_events(region_algebra(four_space, ())) == (four_space.full_event(),)

    def test_unmatched_rep_gives_empty(self):
        space = HistorySpace(
            points=("a", "b"),
            histories=((0, 0), (1, 1)),
            alphabets={"a": 2, "b": 2},
        )
        assert (space.value_event("a", 0) & space.value_event("b", 1)).is_empty()

    def test_repeated_point_rejected(self, double_slit):
        space, _, _ = double_slit
        with pytest.raises(ValueError, match="'slit' is listed twice"):
            region_algebra(space, ("slit", "slit"))

    def test_contains_own_restriction(self, four_space):
        for h in range(4):
            assert h in four_space.value_event("p", four_space.value_matrix[h, 0])


class TestCaps:
    def test_history_cap(self):
        with pytest.raises(ValueError):
            HistorySpace(
                points=("p",),
                histories=tuple((i,) for i in range(MAX_HISTORIES + 1)),
            )

    def test_duplicate_history_rejected(self):
        with pytest.raises(ValueError):
            HistorySpace(points=("p",), histories=((0,), (0,)))

    def test_values_outside_uint16_rejected(self):
        # stored as uint16: 70000 must not wrap onto 4464
        for bad in (
            ((0,), (70000,), (4464,)),
            np.array([[0], [70000]]),
            ((0,), (-1,)),
            ((0,), (1.5,)),
        ):
            with pytest.raises(ValueError):
                HistorySpace(points=("p",), histories=bad)
        with pytest.raises(ValueError):
            HistorySpace(points=("p",), histories=((0,),), alphabets={"p": 70000})
        top = HistorySpace(points=("p",), histories=((0,), (65535,)))
        assert top.value_matrix.tolist() == [[0], [65535]]
        assert top.alphabets == {"p": 65536}


def unique_rows(rows):
    """Reference grouping: (atom id per row, distinct rows in sorted order)."""
    if rows.shape[1] == 0:
        return np.zeros(len(rows), dtype=np.int64), rows[:1]
    reps, index = np.unique(rows, axis=0, return_inverse=True)
    return index.reshape(-1), reps


class TestAtomGrouping:
    def check(self, space, points):
        alg = region_algebra(space, points)
        cols = [space.point_index(p) for p in points]
        index, reps = unique_rows(space.value_matrix[:, cols])
        assert np.array_equal(alg.atom_index, index)
        assert alg.atom_index.dtype == index.dtype
        assert alg.representatives.dtype == np.uint16
        assert np.array_equal(alg.representatives, reps)
        assert alg.n_atoms == len(reps)

    @staticmethod
    def wide_space(rng, alphabets, n):
        """n distinct random rows over the given alphabets, shuffled."""
        rows = np.stack([rng.integers(0, a, size=2 * n) for a in alphabets], axis=1)
        rows = rng.permutation(np.unique(rows, axis=0))[:n]
        points = tuple(f"p{i}" for i in range(len(alphabets)))
        return HistorySpace(
            points=points, histories=rows, alphabets=dict(zip(points, alphabets))
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_wide_spaces(self, seed):
        # 65536-letter columns among small ones: key tables past the row
        # count force rank compression at varying depths
        rng = np.random.default_rng(100 + seed)
        alphabets = [int(rng.choice([2, 3, 40, 65536])) for _ in range(5)]
        space = self.wide_space(rng, alphabets, int(rng.integers(2, 3000)))
        for size in range(6):
            region = tuple(rng.permutation(space.points)[:size])
            self.check(space, region)
            self.check(space, region[::-1])

    @pytest.mark.parametrize("alphabets", [[65536, 65536, 2], [40, 40, 40], [2] * 16])
    def test_duplicate_rows_refused(self, alphabets):
        rng = np.random.default_rng(len(alphabets))
        space = self.wide_space(rng, alphabets, 1500)
        self.check(space, space.points)
        rows = space.value_matrix[rng.permutation(np.r_[np.arange(space.size), 7])]
        with pytest.raises(ValueError, match="pairwise distinct"):
            HistorySpace(points=space.points, histories=rows, alphabets=space.alphabets)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_spaces(self, seed):
        from conftest import random_space

        rng = np.random.default_rng(seed)
        space = random_space(rng, n_points=5, max_alpha=4)
        for size in range(6):
            self.check(space, tuple(rng.permutation(space.points)[:size]))

    def test_zero_point_region(self, four_space):
        self.check(four_space, ())

    def test_alphabet_product_beyond_int64(self):
        # six points of alphabet 65536 (product 2^96): the key must be
        # re-ranked before it overflows; many rows agree on the last four
        # points and differ only on the first two
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 65536, size=(500, 6))
        rows[:, 2:] = rng.choice([0, 65535], size=(500, 4))
        rows = rng.permutation(np.unique(rows, axis=0))
        points = tuple(f"p{i}" for i in range(6))
        space = HistorySpace(
            points=points, histories=rows, alphabets={p: 65536 for p in points}
        )
        for region in (points, points[::-1], points[2:], points[:2]):
            self.check(space, region)


class TestAtomIds:
    """`atom_ids` against a full `region_algebra`: on a grid it reads the
    given rows alone, elsewhere it counts over every history."""

    @staticmethod
    def regions(space, rng, count=12):
        names = space.points
        chosen = [(), names, names[::-1], *((p,) for p in names)]
        for _ in range(count):
            size = int(rng.integers(1, len(names) + 1))
            chosen.append(tuple(rng.permutation(names)[:size]))
        return chosen

    @pytest.mark.parametrize("name", ROUTE_MODELS)
    def test_grid_decision(self, route_models, name):
        dcf, grid = route_models[name]
        space = dcf.space
        assert space.is_grid == grid
        assert space.is_grid == (space.size == math.prod(space.alphabets.values()))

    @pytest.mark.parametrize("name", ROUTE_MODELS)
    def test_ids_match_region_algebra(self, route_models, name):
        space = route_models[name][0].space
        rng = np.random.default_rng(len(name))
        row_sets = [
            np.arange(space.size),
            rng.permutation(space.size)[: space.size // 3],
            np.sort(rng.choice(space.size, size=1)),
            np.zeros(0, dtype=np.int64),
        ]
        for points in self.regions(space, rng):
            alg = region_algebra(space, points)
            if space.is_grid:
                # every combination is present, in C order
                cols = [space.point_index(p) for p in points]
                index, reps = unique_rows(space.value_matrix[:, cols])
                radices = [space.alphabets[p] for p in points]
                assert alg.n_atoms == math.prod(radices)
                assert np.array_equal(alg.atom_index, index)
                assert np.array_equal(alg.representatives, reps)
                assert alg.representatives.dtype == np.uint16
            for rows in row_sets:
                n, ids = atom_ids(space, points, rows)
                assert n == alg.n_atoms
                assert ids.dtype == np.int64
                assert np.array_equal(ids, alg.atom_index[rows])

    def test_declared_alphabet_is_not_an_atom(self, route_models):
        # the counting route counts the values that occur, not the letters
        space = route_models["wide alphabet"][0].space
        assert atom_ids(space, ("a",), np.arange(space.size))[0] == 2
        assert atom_ids(space, ("a", "b"), np.arange(space.size))[0] == 4

    def test_refusals_on_both_routes(self, route_models):
        for name in ("stock circuit", "eprb theory"):
            space = route_models[name][0].space
            rows = np.arange(3)
            with pytest.raises(ValueError, match="unknown point"):
                atom_ids(space, ("nope",), rows)
            p = space.points[1]
            with pytest.raises(ValueError, match="listed twice"):
                atom_ids(space, (p, p), rows)

    def test_grid_size_with_a_repeated_row_is_refused(self):
        # as many rows as combinations, but one repeated: not a grid, and
        # the distinctness check is what tells
        with pytest.raises(ValueError, match="pairwise distinct"):
            HistorySpace(points=("p", "q"), histories=((0, 0), (0, 1), (1, 0), (0, 0)))


def implies(e, f):
    return ~e | f


def box_event_from_implications(model):
    """The box event as eight setting and outcome events combine it:
    correlated beams under three joint settings, anti-correlated under
    the fourth."""
    s00, s01, s10, s11 = (setting_event(model, *key) for key in SETTING_KEYS)
    uu, ud, du, dd = (outcome_event(model, *key) for key in SETTING_KEYS)
    return implies(s00 | s01 | s10, uu | dd) & implies(s11, ud | du)


def parity_event_from_implications(model):
    """The parity event as twelve setting and outcome events combine it:
    the mixed settings force odd beam parity, the all-x setting even."""
    words = {w: outcome_event(model, *w) for w in itertools.product((0, 1), repeat=3)}
    odd = words[0, 0, 1] | words[0, 1, 0] | words[1, 0, 0] | words[1, 1, 1]
    even = words[1, 1, 0] | words[1, 0, 1] | words[0, 1, 1] | words[0, 0, 0]
    mixed = setting_event(model, 0, 1, 1) | setting_event(model, 1, 0, 1)
    mixed = mixed | setting_event(model, 1, 1, 0)
    return implies(mixed, odd) & implies(setting_event(model, 0, 0, 0), even)


class TestPrEvent:
    def setup_method(self):
        # wing value = 2 * setting + outcome
        self.model, _ = gen_pr_box()
        self.space = self.model.space

    def test_rule_matches_implications(self):
        assert self.model.pr_event() == box_event_from_implications(self.model)
        assert len(self.model.pr_event()) == 8

    def test_membership_by_enumeration(self):
        # independent oracle: walk all 16 histories and apply the rule
        epr = self.model.pr_event()
        for h, (a, b) in enumerate(self.space.value_matrix.tolist()):
            s1, i = divmod(a, 2)
            s2, j = divmod(b, 2)
            if (s1, s2) == (1, 1):
                expected = i != j
            else:
                expected = i == j
            assert (h in epr) == expected

    def test_s2s2_uu_excluded(self):
        h = self.space.value_matrix.tolist().index([2, 2])  # both primed setting, both up
        assert h not in self.model.pr_event()

    def test_s1s1_uu_included(self):
        h = self.space.value_matrix.tolist().index([0, 0])
        assert h in self.model.pr_event()

    def test_pr_consistent_subspace_gives_full(self):
        # keep only the box-consistent histories: the event becomes the
        # whole space, by the rule and by the implications alike
        keep = []
        for a, b in self.space.value_matrix.tolist():
            s1, i = divmod(a, 2)
            s2, j = divmod(b, 2)
            ok = (i != j) if (s1, s2) == (1, 1) else (i == j)
            if ok:
                keep.append((a, b))
        sub = HistorySpace(points=("w1", "w2"), histories=tuple(keep))
        small = dataclasses.replace(self.model, space=sub)
        assert small.pr_event() == sub.full_event()
        assert box_event_from_implications(small) == sub.full_event()


class TestGhzEvent:
    def test_rule_matches_implications(self):
        model, event = gen_ghz()
        assert event == parity_event_from_implications(model)
        assert len(event) == 48

    def test_membership(self):
        model, event = gen_ghz()
        sp = model.space

        def hist_index(settings, outcomes):
            vals = tuple(
                2 * s + o for s, o in zip(settings, outcomes)
            )
            return sp.value_matrix.tolist().index([0, *vals])

        # all-x setting with even beam parity is included
        assert hist_index((0, 0, 0), (0, 0, 0)) in event
        # mixed setting with even parity (uuu) is excluded
        assert hist_index((0, 1, 1), (0, 0, 0)) not in event
        # settings outside both antecedents are vacuously included
        assert hist_index((1, 1, 1), (0, 0, 0)) in event


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: HistorySpace(points=("p", "p"), histories=[[0, 0]]), "duplicate point names"),
        (
            lambda: HistorySpace(points=("p",), histories=np.zeros((0, 1), dtype=int)),
            "history space must contain at least one history",
        ),
        (
            lambda: HistorySpace(points=("p",), histories=[[0]]).point_index("q"),
            "unknown point 'q'",
        ),
    ],
    ids=["duplicate point", "no history", "unknown point"],
)
def test_input_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()
