"""Shared test fixtures: random spaces, random strongly positive
functionals, and random factorizable classical scenarios."""

import numpy as np
import pytest

from qmeasure import (
    CausalOrder,
    DecoherenceFunctional,
    Event,
    HistorySpace,
    Region,
    SettingScenario,
    SettingTheory,
)


def random_space(rng, n_points=3, max_alpha=3):
    alphas = rng.integers(2, max_alpha + 1, size=n_points)
    points = tuple(f"p{i}" for i in range(n_points))
    grid = [tuple(int(v) for v in idx) for idx in np.ndindex(*alphas)]
    keep = sorted(
        rng.choice(len(grid), size=max(2, int(0.7 * len(grid))), replace=False)
    )
    histories = tuple(grid[i] for i in keep)
    return HistorySpace(
        points=points,
        histories=histories,
        alphabets={p: int(a) for p, a in zip(points, alphas)},
    )


def random_psd_dcf(rng, space, dim=None):
    """Normalized Gram-form functional from random history vectors."""
    n = space.size
    dim = dim or max(2, n // 2)
    for _ in range(50):
        vecs = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
        total = np.abs(vecs.sum(axis=0)) ** 2
        scale = total.sum()
        if scale > 1e-3:
            vecs /= np.sqrt(scale)
            return DecoherenceFunctional.from_history_vectors(space, vecs)
    raise RuntimeError("failed to draw a normalizable vector family")


def full_width_factor(dcf):
    """The d x n history factor with a column for every history, zero
    columns included, built from the functional's own data: the branch
    amplitudes at their final configurations for a lazy functional, the
    PSD factor of the matrix for a dense one, with the column of each
    history whose matrix column is zero set to zero."""
    from qmeasure._linalg import psd_factor

    if dcf.is_dense:
        return psd_factor(dcf.matrix, dcf.tol) * dcf.matrix.any(axis=0)
    b = dcf.branch
    fac = np.zeros((b.dim, dcf.space.size), dtype=complex)
    fac[b.final_index, np.arange(dcf.space.size)] = b.amplitudes
    return fac


def empty_region(order):
    """The region of no point of the order."""
    return Region(order, np.zeros(order.size, dtype=bool))


def full_region(order):
    """The region of every point of the order."""
    return Region(order, np.ones(order.size, dtype=bool))


def atom_events(alg):
    """The atoms of a region algebra as Events, in atom id order."""
    return tuple(Event(alg.space, alg.atom_index == a) for a in range(alg.n_atoms))


def _wing_event(model, wanted, part):
    """The histories of a record model whose wing values v have
    part(v, 2) == wanted; a wrong-length `wanted` would broadcast, so it
    is refused."""
    if len(wanted) != len(model.wings):
        raise ValueError(f"need one value per wing of {model.wings}, got {wanted}")
    values = model.space.value_matrix[:, model.space.columns(model.wings)]
    return Event(model.space, (part(values, 2) == wanted).all(axis=1))


def setting_event(model, *settings):
    """The histories of a record model (wing value 2 * setting + outcome)
    whose wings ran these settings, one per wing."""
    return _wing_event(model, settings, np.floor_divide)


def outcome_event(model, *outcomes):
    """The histories of a record model whose wings saw these outcomes,
    one per wing."""
    return _wing_event(model, outcomes, np.mod)


def event_vector(dcf, event):
    """The factor-space vector of one event: its histories summed as one
    group."""
    return dcf.vectors(np.zeros(dcf.live.size, dtype=int), 1, event.flags[dcf.live])[:, 0]


def svd_rank(a, tol):
    """The rank rule on a full SVD of the vector family a."""
    from qmeasure._linalg import rank_from_singular_values

    return rank_from_singular_values(np.linalg.svd(a, compute_uv=False), tol)


def span_rank(dcf, points, *extra):
    """Numerical rank of the region's atom vectors, with any `extra`
    factor-space vectors appended as columns: a vector lies in the
    region's span when appending it leaves the rank unchanged."""
    from qmeasure import region_algebra

    alg = region_algebra(dcf.space, points)
    vecs = np.column_stack([dcf.vectors(alg.atom_index[dcf.live], alg.n_atoms), *extra])
    return svd_rank(vecs, dcf.tol)


def partition_gap(t, region, events):
    """Spectral-norm distance from the identity of the summed operators
    of a theory's `events` (in `region`) on the past z's basis."""
    from qmeasure import event_operator

    ops = [event_operator(t.dcf, t.order, region, e, ("z",), force=True) for e in events]
    total = sum(op.matrix for op in ops)
    return float(np.linalg.norm(total - np.eye(len(total)), 2))


def random_events(rng, space, count=3, disjoint=False):
    n = space.size
    if disjoint:
        group = rng.integers(0, count + 1, size=n)
        return [
            space.event_from_indices(np.nonzero(group == g)[0]) for g in range(count)
        ]
    return [
        space.event_from_indices(np.nonzero(rng.random(n) < 0.5)[0])
        for _ in range(count)
    ]


def correlation_table(scenario):
    """The beam measures of a scenario's four theories, as `qmeasure chsh`
    reads them."""
    from qmeasure import CorrelationTable, Tolerance

    return CorrelationTable.from_beam_dcfs(scenario.beam_dcfs(), Tolerance())


SCENARIO_POINTS = ("z", "wa", "wb")


def random_factorizable_scenario(rng, nk=3, zero_mass_k=False):
    """Four classical diagonal theories sharing past masses and per-wing
    conditionals, hence factorizable and agreeing by construction."""
    order = CausalOrder.from_covers(SCENARIO_POINTS, [("z", "wa"), ("z", "wb")])
    p = rng.dirichlet(np.ones(nk))
    if zero_mass_k and nk > 1:
        p[0] = 0.0
        p /= p.sum()
    cond_a = rng.dirichlet(np.ones(2), size=(2, nk))  # [setting, k, outcome]
    cond_b = rng.dirichlet(np.ones(2), size=(2, nk))
    theories = {}
    for sa in (0, 1):
        for sb in (0, 1):
            histories = tuple(
                (k, 2 * sa + i, 2 * sb + j)
                for k in range(nk)
                for i in range(2)
                for j in range(2)
            )
            space = HistorySpace(
                points=SCENARIO_POINTS,
                histories=histories,
                alphabets={"z": nk, "wa": 4, "wb": 4},
            )
            diag = np.array(
                [
                    p[k] * cond_a[sa, k, i] * cond_b[sb, k, j]
                    for k in range(nk)
                    for i in range(2)
                    for j in range(2)
                ]
            )
            dcf = DecoherenceFunctional(
                space, matrix=np.diag(diag).astype(complex)
            )
            beam_a = tuple(space.value_event("wa", 2 * sa + i) for i in range(2))
            beam_b = tuple(space.value_event("wb", 2 * sb + j) for j in range(2))
            theories[(sa, sb)] = SettingTheory(space, order, dcf, beam_a, beam_b)
    return SettingScenario(theories, ("z",), ("wa",), ("wb",))


@pytest.fixture(scope="session")
def eprb_scenario():
    from qmeasure import gen_eprb

    return gen_eprb()


@pytest.fixture(scope="session")
def eprb_computational_basis():
    """The spin pair resolved in the product basis: two intermediate
    branches die, so the past spans only half of the event Hilbert space
    and lack of novelty fails.  `gen_eprb` refuses this basis, so the
    theories are built here, at the stock angles, from the vectors
    (P_a,i x P_b,j) e_k psi_k of history (k, i, j)."""
    from qmeasure.patching import SETTING_KEYS, two_wing_scenario
    from qmeasure.scenarios import SINGLET, TSIRELSON_ANGLES

    theta = np.array(TSIRELSON_ANGLES)[:, None] + np.array([0.0, np.pi / 2])
    axes = np.stack([np.cos(theta), np.sin(theta)], axis=-1)  # [a a' b b', outcome]
    matrices = {}
    for sa, sb in SETTING_KEYS:
        # P_a,i x P_b,j = w w^T with w = u_a,i x u_b,j, so the vector is w w_k psi_k
        w = np.einsum("ia,jb->ijab", axes[sa], axes[2 + sb]).reshape(2, 2, 4)
        vectors = np.einsum("ijc,ijk,k->kijc", w, w, SINGLET).reshape(16, 4)
        matrices[(sa, sb)] = vectors.conj() @ vectors.T
    past, out_a, out_b = np.indices((4, 2, 2)).reshape(3, 16)
    return two_wing_scenario(past, (out_a, out_a), (out_b, out_b), (2, 2), matrices)


@pytest.fixture(scope="session")
def double_slit():
    from qmeasure import gen_double_slit

    return gen_double_slit()


@pytest.fixture(scope="session")
def route_models():
    """Functionals on which the grid route and the counting route of
    `atom_ids` must agree with a full `region_algebra`, by name, each with
    whether its space is a grid (one history per value combination)."""
    import dataclasses

    from qmeasure import gen_double_slit, gen_eprb, gen_ghz, gen_sk_circuit
    from qmeasure.sk_model import SkCircuitConfig, SkGate, bell_pair_gate, decoupled_demo_config

    rng = np.random.default_rng(23)
    stock = decoupled_demo_config(steps=2)
    psi = np.zeros((2, 4), dtype=complex)  # rank 2: a `rho` point
    psi[0, 0], psi[1, 3] = np.sqrt(0.7), np.sqrt(0.3)
    mixed = SkCircuitConfig(
        sites=2, steps=2, psi=psi, gates=(SkGate(1, (0, 1), bell_pair_gate()),)
    )
    combos = np.indices((3, 2, 4)).reshape(3, -1).T
    shuffled = HistorySpace(("a", "b", "c"), rng.permutation(combos))
    amp = rng.normal(size=shuffled.size) + 1j * rng.normal(size=shuffled.size)
    amp[rng.random(shuffled.size) < 0.4] = 0.0
    amp /= np.linalg.norm(amp)
    final = rng.integers(0, 3, size=shuffled.size)
    # every combination of the values that occur, but `a` is declared with
    # three letters where two occur: 4 histories against 3 x 2 combinations
    wide = HistorySpace(
        ("a", "b"), np.indices((2, 2)).reshape(2, -1).T, alphabets={"a": 3, "b": 2}
    )
    return {
        "stock circuit": (gen_sk_circuit(stock).dcf, True),
        "mixed rank": (gen_sk_circuit(mixed).dcf, True),
        "truncated": (gen_sk_circuit(dataclasses.replace(stock, t_f=1)).dcf, True),
        "shuffled grid": (DecoherenceFunctional.from_amplitudes(shuffled, amp, final, 3), True),
        "eprb theory": (gen_eprb().theory(0, 1).dcf, False),
        "double slit": (gen_double_slit()[2], True),
        "ghz": (gen_ghz()[0].dcf, True),
        "wide alphabet": (random_psd_dcf(rng, wide), False),
    }


ROUTE_MODELS = (
    "stock circuit", "mixed rank", "truncated", "shuffled grid",
    "eprb theory", "double slit", "ghz", "wide alphabet",
)


def route_regions(dcf, seed):
    """Point tuples to read a route model through: no point, every point,
    each single point and ten seeded random point sets."""
    rng = np.random.default_rng(seed)
    names = dcf.space.points
    regions = [(), names, *((p,) for p in names)]
    return regions + [
        tuple(rng.permutation(names)[: rng.integers(1, len(names) + 1)]) for _ in range(10)
    ]
