import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_region, full_region

from qmeasure import (
    CausalOrder,
    are_spacelike,
    down_sets,
    future_domain,
    future_set,
    is_past_set,
    shadow,
    validate_scenario_geometry,
)
from qmeasure.causal_order import Region, future_domains, past_set_of


@pytest.fixture
def chain():
    return CausalOrder.from_covers(("s", "p"), [("s", "p")])


@pytest.fixture
def diamond():
    return CausalOrder.from_covers(
        ("bottom", "left", "right", "top"),
        [("bottom", "left"), ("bottom", "right"), ("left", "top"), ("right", "top")],
    )


class TestConstruction:
    def test_transitive_closure_from_covers(self):
        o = CausalOrder.from_covers(("a", "b", "c"), [("a", "b"), ("b", "c")])
        assert o.leq[o.point_index("a"), o.point_index("c")]

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            CausalOrder.from_covers(("a", "b"), [("a", "b"), ("b", "a")])

    def test_non_transitive_matrix_rejected(self):
        m = np.eye(3, dtype=bool)
        m[0, 1] = m[1, 2] = True
        with pytest.raises(ValueError):
            CausalOrder(("a", "b", "c"), m)


class TestRegionFlags:
    def test_int_mask_refused(self, diamond):
        with pytest.raises(ValueError):
            Region(diamond, 3)

    def test_wrong_length_refused(self, diamond):
        with pytest.raises(ValueError):
            Region(diamond, np.ones(3, dtype=bool))

    def test_set_operations_on_flags(self, diamond):
        lr = diamond.region(["left", "right"])
        assert lr == Region(diamond, np.array([False, True, True, False]))
        assert len(lr) == 2 and not lr.is_empty()
        assert (~lr).point_names() == ("bottom", "top")
        assert diamond.region(["left"]) <= lr and not lr <= diamond.region(["left"])
        assert len({lr, diamond.region(["right", "left"])}) == 1


class TestFutureSet:
    def test_chain(self, chain):
        assert future_set(chain, chain.region(["s"])).point_names() == ("s", "p")

    def test_empty(self, chain):
        assert future_set(chain, empty_region(chain)).is_empty()

    def test_diamond_left(self, diamond):
        r = future_set(diamond, diamond.region(["left"]))
        assert r.point_names() == ("left", "top")


class TestShadow:
    def test_chain_bottom(self, chain):
        assert shadow(chain, chain.region(["s"])).is_empty()

    def test_chain_top(self, chain):
        assert shadow(chain, chain.region(["p"])).point_names() == ("s",)

    def test_diamond_left(self, diamond):
        assert shadow(diamond, diamond.region(["left"])).point_names() == (
            "bottom",
            "right",
        )


class TestPastSet:
    def test_empty_is_past_set(self, chain):
        assert is_past_set(chain, empty_region(chain))

    def test_top_alone_is_not(self, chain):
        assert not is_past_set(chain, chain.region(["p"]))

    def test_diamond_lower_wedge(self, diamond):
        assert is_past_set(diamond, diamond.region(["bottom", "left"]))


class TestFutureDomain:
    def test_chain(self, chain):
        assert future_domain(chain, chain.region(["s"])).point_names() == ("s", "p")

    def test_diamond_bottom_controls_all(self, diamond):
        assert len(future_domain(diamond, diamond.region(["bottom"]))) == 4

    def test_antichain_stays_put(self):
        o = CausalOrder.antichain(("x", "y"))
        assert future_domain(o, o.region(["x"])).point_names() == ("x",)

    def test_requires_past_set(self, chain):
        with pytest.raises(ValueError):
            future_domain(chain, chain.region(["p"]))


class TestSpacelike:
    def test_antichain(self):
        o = CausalOrder.antichain(("x", "y"))
        assert are_spacelike(o, o.region(["x"]), o.region(["y"]))

    def test_chain_related(self, chain):
        assert not are_spacelike(chain, chain.region(["s"]), chain.region(["p"]))

    def test_overlap_not_spacelike(self, diamond):
        r = diamond.region(["left"])
        assert not are_spacelike(diamond, r, r)

    def test_symmetry(self, diamond):
        r1 = diamond.region(["left"])
        r2 = diamond.region(["right"])
        assert are_spacelike(diamond, r1, r2) == are_spacelike(diamond, r2, r1)


class TestGeometry:
    def test_wing_arrangement_passes(self):
        o = CausalOrder.from_covers(
            ("z", "wa", "wb"), [("z", "wa"), ("z", "wb")]
        )
        rep = validate_scenario_geometry(
            o, o.region(["z"]), o.region(["wa"]), o.region(["wb"])
        )
        assert rep.passed

    def test_wing_intersecting_past_fails_that_clause(self):
        o = CausalOrder.from_covers(
            ("z", "wa", "wb"), [("z", "wa"), ("z", "wb")]
        )
        rep = validate_scenario_geometry(
            o, o.region(["z"]), o.region(["z", "wa"]), o.region(["wb"])
        )
        assert not rep.a_disjoint_from_z
        assert rep.b_disjoint_from_z
        assert not rep.passed
        assert rep.as_dict() == {
            "z_is_past_set": True,
            "a_in_future_domain": True,
            "b_in_future_domain": True,
            "a_disjoint_from_z": False,
            "b_disjoint_from_z": True,
            "wings_spacelike": False,
            "union_is_past_set": True,
            "passed": False,
        }
        assert list(rep.as_dict()) == [f.name for f in dataclasses.fields(rep)] + ["passed"]

    def test_related_wings_fail_spacelike_clause(self, diamond):
        rep = validate_scenario_geometry(
            diamond,
            diamond.region(["bottom"]),
            diamond.region(["left"]),
            diamond.region(["top"]),
        )
        assert not rep.wings_spacelike


class TestEnumeration:
    def test_down_sets_diamond(self, diamond):
        names = [r.point_names() for r in down_sets(diamond)]
        assert ("bottom",) in names
        assert ("left",) not in names
        assert len(names) == 6

    def test_all_down_sets_are_past_sets(self, diamond):
        assert all(is_past_set(diamond, r) for r in down_sets(diamond))


def reference_down_sets(order):
    """Every point subset closed under the order, by brute force over
    bitmasks (point i is bit i), sorted by size and then by bitmask."""
    n = order.size
    below = [sum(1 << q for q in range(n) if order.leq[q, p]) for p in range(n)]
    closed = [m for m in range(2 ** n) if all(below[p] & ~m == 0 for p in range(n) if m >> p & 1)]
    closed.sort(key=lambda m: (bin(m).count("1"), m))
    return [[bool(m >> i & 1) for i in range(n)] for m in closed]


def seeded_order(seed):
    """A random order on up to 8 points whose names do not follow it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    points = tuple(f"q{i}" for i in range(n))
    rank = rng.permutation(n)  # point rank[i] is the i-th in a linear extension
    covers = [
        (points[rank[i]], points[rank[j]])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    ]
    return CausalOrder.from_covers(points, covers)


class TestPastSetOrder:
    """`down_sets` lists past sets by size, then by the bitmask of their
    flags, as a brute-force scan does."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_orders(self, seed):
        order = seeded_order(seed)
        assert [r.flags.tolist() for r in down_sets(order)] == reference_down_sets(order)

    @pytest.mark.parametrize(
        "order",
        [
            CausalOrder.antichain(("only",)),
            CausalOrder.antichain(tuple(f"n{i}" for i in range(6))),
            CausalOrder.from_covers(
                ("top", "left", "right", "bottom"),
                [("bottom", "left"), ("bottom", "right"), ("left", "top"), ("right", "top")],
            ),
        ],
        ids=["one-point", "antichain", "reversed-diamond"],
    )
    def test_small_orders(self, order):
        assert [r.flags.tolist() for r in down_sets(order)] == reference_down_sets(order)


@st.composite
def random_orders(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    points = tuple(f"q{i}" for i in range(n))
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                covers.append((points[i], points[j]))
    return CausalOrder.from_covers(points, covers), draw(
        st.integers(min_value=0, max_value=2 ** n - 1)
    )


class TestOrderProperties:
    @given(random_orders())
    @settings(max_examples=60, deadline=None)
    def test_shadow_partitions_against_future(self, case):
        order, mask = case
        r = order.region(p for i, p in enumerate(order.points) if mask >> i & 1)
        sh = shadow(order, r)
        fu = future_set(order, r)
        assert (sh & fu).is_empty()
        assert (sh | fu) == full_region(order)

    @given(random_orders())
    @settings(max_examples=60, deadline=None)
    def test_past_sets_sit_inside_future_domain(self, case):
        order, mask = case
        z = order.region(p for i, p in enumerate(order.points) if mask >> i & 1)
        pz = past_set_of(order, z)
        assert is_past_set(order, pz | z)
        if is_past_set(order, z):
            assert z <= future_domain(order, z)


def reference_future_domain(order, z):
    """Point by point: z's own points, and each point none of whose
    minimal points below lies outside z."""
    n, leq = order.size, order.leq
    minimal = [not any(leq[q, p] for q in range(n) if q != p) for p in range(n)]
    return [
        bool(z.flags[p]) or all(z.flags[q] for q in range(n) if minimal[q] and leq[q, p])
        for p in range(n)
    ]


@pytest.fixture(scope="module")
def model_orders():
    """The causal orders of the models in `conftest.route_models` that
    have one."""
    from qmeasure import gen_double_slit, gen_eprb, gen_ghz, gen_sk_circuit
    from qmeasure.sk_model import decoupled_demo_config

    stock = decoupled_demo_config(steps=2)
    return [
        gen_sk_circuit(stock).order,
        gen_sk_circuit(dataclasses.replace(stock, t_f=1)).order,
        gen_eprb().theory(0, 1).order,
        gen_double_slit()[1],
        gen_ghz()[0].order,
    ]


class TestFutureDomains:
    def check(self, order):
        zs = down_sets(order)
        doms = future_domains(order, zs)
        assert doms == [future_domain(order, z) for z in zs]
        assert [d.flags.tolist() for d in doms] == [
            reference_future_domain(order, z) for z in zs
        ]

    def test_model_orders(self, model_orders):
        for order in model_orders:
            self.check(order)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_orders(self, seed):
        self.check(seeded_order(seed))

    def test_no_regions(self, diamond):
        assert future_domains(diamond, []) == []

    def test_one_non_past_set_refuses_all(self, diamond):
        regions = [diamond.region(["bottom"]), diamond.region(["top"])]
        with pytest.raises(ValueError, match="requires a past set"):
            future_domains(diamond, regions)

    def test_foreign_region_refused(self, chain, diamond):
        with pytest.raises(ValueError, match="different causal orders"):
            future_domains(diamond, [chain.region(["s"])])


class TestEnumerationCaps:
    def test_down_sets_capped(self):
        big = CausalOrder.antichain(tuple(f"n{i}" for i in range(13)))
        with pytest.raises(ValueError):
            down_sets(big)


class TestGeometryClauseFalsifiability:
    def _order(self):
        return CausalOrder.from_covers(
            ("z0", "z1", "wa", "wb"),
            [("z0", "z1"), ("z1", "wa"), ("z1", "wb")],
        )

    def test_non_past_set_z_fails_that_clause(self):
        o = self._order()
        rep = validate_scenario_geometry(
            o, o.region(["z1"]), o.region(["wa"]), o.region(["wb"])
        )
        assert not rep.z_is_past_set
        assert not rep.passed

    def test_wing_outside_future_domain_fails_that_clause(self):
        o = CausalOrder.from_covers(
            ("z", "wa", "loose", "wb"), [("z", "wa"), ("loose", "wb")]
        )
        rep = validate_scenario_geometry(
            o, o.region(["z"]), o.region(["wa"]), o.region(["wb"])
        )
        assert rep.z_is_past_set
        assert rep.a_in_future_domain
        assert not rep.b_in_future_domain

    def test_union_not_past_set_fails_that_clause(self):
        o = CausalOrder.from_covers(
            ("bot", "mid", "wa", "wb"),
            [("bot", "mid"), ("mid", "wa"), ("bot", "wb")],
        )
        rep = validate_scenario_geometry(
            o, o.region(["bot"]), o.region(["wa"]), o.region(["wb"])
        )
        assert not rep.passed
        assert not (rep.union_is_past_set and rep.a_in_future_domain)
