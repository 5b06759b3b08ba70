"""Built-in model generators.

Each generator emits a fully validated system: the two-slit interference
model, a spin-pair scenario with four analyzer settings resolved through
an intermediate basis, the nonlocal-box correlation tables, and the
three-wing parity model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import DEFAULT_RTOL
from .causal_order import CausalOrder
from .decoherence import DecoherenceFunctional
from .histories import Event, HistorySpace
from .patching import SETTING_KEYS, CorrelationTable, SettingScenario, two_wing_scenario


# ---------------------------------------------------------------------------
# Two-slit interference

def gen_double_slit(time_reversed: bool = False):
    """Four histories (slit choice x screen outcome) with amplitudes
    1/2, 1/2, 1/2, -1/2: the dark outcome interferes away while each
    single-slit dark history keeps measure 1/4.

    `time_reversed` flips the causal order (screen before slit), the
    stock counterexample to past-directed zero persistence.
    """
    space = HistorySpace(
        points=("slit", "screen"),
        histories=((0, 0), (0, 1), (1, 0), (1, 1)),
        labels=("Lb", "Ld", "Rb", "Rd"),
    )
    covers = [("screen", "slit")] if time_reversed else [("slit", "screen")]
    order = CausalOrder.from_covers(("slit", "screen"), covers)
    amps = np.array([0.5, 0.5, 0.5, -0.5], dtype=complex)
    vectors = np.zeros((4, 2), dtype=complex)
    for h in range(4):
        vectors[h, space.value_matrix[h, 1]] = amps[h]
    dcf = DecoherenceFunctional.from_history_vectors(space, vectors)
    return space, order, dcf


# ---------------------------------------------------------------------------
# Spin-pair scenario

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)

# analyzer angles realizing the quantum CHSH maximum for the singlet
TSIRELSON_ANGLES = (np.pi / 4, 0.0, np.pi / 8, 3 * np.pi / 8)


def _generic_resolution_basis() -> np.ndarray:
    """A fixed rotated orthonormal basis of the two-spin space whose
    overlaps with the singlet all exceed 0.1 (columns are basis vectors)."""
    rng = np.random.default_rng(12345)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(raw)
    return q


@dataclass(frozen=True, eq=False)
class EprbConfig:
    """Angles in radians for the two settings per wing; the intermediate
    resolution basis (columns orthonormal); the initial two-spin state.

    `flip_b` swaps the beam labels on the second wing, turning the
    singlet's anticorrelation at matched angles into correlation.
    """

    angles: tuple[float, float, float, float] = TSIRELSON_ANGLES
    resolution_basis: np.ndarray = field(default_factory=_generic_resolution_basis)
    initial_state: np.ndarray = field(default_factory=lambda: SINGLET.copy())
    flip_b: bool = False

    def __post_init__(self):
        basis = np.asarray(self.resolution_basis, dtype=complex)
        state = np.asarray(self.initial_state, dtype=complex)
        angles = tuple(float(a) for a in self.angles)
        if basis.shape != (4, 4):
            raise ValueError("resolution basis must be 4x4")
        if state.shape != (4,):
            raise ValueError("initial state must have four components")
        if len(angles) != 4:
            raise ValueError("angles must be four numbers: a, a', b, b'")
        if not all(np.isfinite(x).all() for x in (basis, state, angles)):
            raise ValueError("spin-pair configuration has a non-finite entry")
        if not np.abs(basis.conj().T @ basis - np.eye(4)).max() <= DEFAULT_RTOL:
            raise ValueError("resolution basis is not orthonormal")
        if not abs(np.vdot(state, state).real - 1.0) <= DEFAULT_RTOL:
            raise ValueError("initial state is not normalized")
        object.__setattr__(self, "resolution_basis", basis)
        object.__setattr__(self, "initial_state", state)
        object.__setattr__(self, "angles", angles)

    def overlaps(self) -> np.ndarray:
        return np.abs(self.resolution_basis.conj().T @ self.initial_state)


def _spin_projectors(angles) -> np.ndarray:
    """The projectors [setting, outcome] of one wing's two analyzers;
    outcome 1 is the analyzer turned by a right angle."""
    theta = np.asarray(angles)[:, None] + np.array([0.0, np.pi / 2])
    v = np.stack([np.cos(theta), np.sin(theta)], axis=-1).astype(complex)
    return v[..., :, None] * v[..., None, :]


def gen_eprb(cfg: EprbConfig | None = None) -> SettingScenario:
    """Four-theory scenario for the two-wing spin pair.

    Histories are (intermediate label, beam at A, beam at B); the value
    at a wing point encodes setting and outcome together, so restricted
    history sets distinguish which analyzer was in force.  The functional
    entries are inner products of the vectors (P_i x P_j) Q_k psi, hence
    Hermitian, normalized, and strongly positive by construction.

    Refuses a resolution basis with a vector orthogonal to the state:
    such a model fails the lack-of-novelty check.
    """
    cfg = cfg or EprbConfig()
    # refuses degenerate input, not a check: check_lon decides at `tol`
    if cfg.overlaps().min() < 1e-6:
        raise ValueError(
            "resolution basis has a vector orthogonal to the initial state; "
            "the past algebra cannot span the full event Hilbert space"
        )
    pa = _spin_projectors(cfg.angles[0:2])
    pb = _spin_projectors(cfg.angles[2:4])
    if cfg.flip_b:
        pb = pb[:, ::-1]
    q = cfg.resolution_basis
    # branch k of the state, q_k <q_k, psi>, with its index split per spin
    branches = (q * (q.conj().T @ cfg.initial_state)).T.reshape(4, 2, 2)
    # vectors[sa, sb, (k, i, j)] = (P_a,i x P_b,j) q_k <q_k, psi>
    vectors = np.einsum("xiac,yjbd,kcd->xykijab", pa, pb, branches).reshape(2, 2, 16, 4)
    matrices = {key: vectors[key].conj() @ vectors[key].T for key in SETTING_KEYS}
    past, out_a, out_b = np.indices((4, 2, 2)).reshape(3, 16)
    return two_wing_scenario(past, (out_a, out_a), (out_b, out_b), (2, 2), matrices)


# ---------------------------------------------------------------------------
# Classical records: the nonlocal box and the three-wing parity model

@dataclass(frozen=True, eq=False)
class RecordModel:
    """Classical record of local measurements under uniformly random
    settings: the value at each wing point is 2 * setting + outcome."""

    space: HistorySpace
    order: CausalOrder
    dcf: DecoherenceFunctional
    wings: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class PrBoxModel(RecordModel):
    """The box record, with the beam functionals of its four settings."""

    beam_dcfs: dict

    def pr_event(self) -> Event:
        """The box correlation event: the outcomes differ exactly when
        both wings ran setting 1."""
        s, o = divmod(self.space.value_matrix[:, self.space.columns(self.wings)], 2)
        return Event(self.space, (o[:, 0] ^ o[:, 1]) == (s[:, 0] & s[:, 1]))


def gen_pr_box() -> tuple[PrBoxModel, CorrelationTable]:
    """Box correlations: perfectly correlated beams under three joint
    settings, anti-correlated under the fourth; marginals uniform, so
    no-signalling holds with zero residual.  The record has sixteen
    histories, settings uniformly random."""
    tables = {
        (sa, sb): 0.5 * (np.eye(2, dtype=bool) != (sa == sb == 1))
        for sa, sb in SETTING_KEYS
    }
    sa, i, sb, j = np.indices((2, 2, 2, 2)).reshape(4, 16)
    space = HistorySpace(points=("w1", "w2"), histories=np.stack([2 * sa + i, 2 * sb + j], axis=1))
    order = CausalOrder.antichain(("w1", "w2"))
    diag = 0.25 * np.stack([tables[key] for key in SETTING_KEYS])[2 * sa + sb, i, j]
    dcf = DecoherenceFunctional(space, matrix=np.diag(diag).astype(complex))
    table = CorrelationTable(tables)
    return PrBoxModel(space, order, dcf, ("w1", "w2"), table.beam_dcfs()), table


GHZ_STATE = np.zeros(8, dtype=complex)
GHZ_STATE[0] = GHZ_STATE[7] = 1.0 / np.sqrt(2.0)

# eigenvectors [setting, outcome]: setting 0 measures x, setting 1 y
_XY_VECTORS = np.array([[[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0j], [1.0, -1.0j]]]) / np.sqrt(2.0)


def gen_ghz() -> tuple[RecordModel, Event]:
    """Classical record of x/y measurements on the three-spin parity
    state, settings uniformly random: the parity correlation event has
    unit measure."""
    points = ("src", "w1", "w2", "w3")
    settings, outcomes = np.indices((2,) * 6).reshape(2, 3, 64).transpose(0, 2, 1)
    diag = [
        abs(np.vdot(np.kron(np.kron(v[0], v[1]), v[2]), GHZ_STATE)) ** 2 / 8.0
        for v in _XY_VECTORS[settings, outcomes]
    ]
    space = HistorySpace(
        points=points,
        histories=np.pad(2 * settings + outcomes, ((0, 0), (1, 0))),
        alphabets={"src": 1, "w1": 4, "w2": 4, "w3": 4},
    )
    order = CausalOrder.from_covers(
        points, [("src", "w1"), ("src", "w2"), ("src", "w3")]
    )
    dcf = DecoherenceFunctional(
        space, matrix=np.diag(np.array(diag)).astype(complex)
    )
    model = RecordModel(space, order, dcf, ("w1", "w2", "w3"))
    # settings summing to 2 (two y, one x) force odd outcome parity, all-x
    # settings even parity; odd setting sums leave the outcomes free
    s, o = settings.sum(axis=1), outcomes.sum(axis=1)
    return model, Event(space, (s % 2 == 1) | (o % 2 == s // 2))
