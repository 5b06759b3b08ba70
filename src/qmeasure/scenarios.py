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
from .histories import (
    Event,
    HistorySpace,
    build_ghz_event,
    build_pr_event,
)
from .patching import CorrelationTable, SettingScenario, SettingTheory


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


def _spin_projector(theta: float) -> np.ndarray:
    v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    return np.outer(v, v)


EPRB_POINTS = ("z", "wa", "wb")


def gen_eprb(cfg: EprbConfig | None = None, check_lon_prereq: bool = True) -> SettingScenario:
    """Four-theory scenario for the two-wing spin pair.

    Histories are (intermediate label, beam at A, beam at B); the value
    at a wing point encodes setting and outcome together, so restricted
    history sets distinguish which analyzer was in force.  The functional
    entries are inner products of the vectors (P_i x P_j) Q_k psi, hence
    Hermitian, normalized, and strongly positive by construction.

    Refuses a resolution basis with a vector orthogonal to the state
    (`check_lon_prereq=False` builds the model anyway; such models fail
    the lack-of-novelty check and ship as a test fixture).
    """
    cfg = cfg or EprbConfig()
    # refuses degenerate input, not a check: check_lon decides at `tol`
    if check_lon_prereq and cfg.overlaps().min() < 1e-6:
        raise ValueError(
            "resolution basis has a vector orthogonal to the initial state; "
            "the past algebra cannot span the full event Hilbert space"
        )
    order = CausalOrder.from_covers(EPRB_POINTS, [("z", "wa"), ("z", "wb")])
    angles_a = cfg.angles[0:2]
    angles_b = cfg.angles[2:4]
    q = cfg.resolution_basis
    psi = cfg.initial_state
    theories = {}
    for sa in (0, 1):
        for sb in (0, 1):
            space = HistorySpace(
                points=EPRB_POINTS,
                histories=np.indices((4, 2, 2)).reshape(3, 16).T + (0, sa * 2, sb * 2),
                alphabets={"z": 4, "wa": 4, "wb": 4},
            )
            vectors = np.zeros((16, 4), dtype=complex)
            for k in range(4):
                qk = q[:, k] * np.vdot(q[:, k], psi)
                for i in range(2):
                    pa = _spin_projector(angles_a[sa] + i * np.pi / 2)
                    for j in range(2):
                        jj = 1 - j if cfg.flip_b else j
                        pb = _spin_projector(angles_b[sb] + jj * np.pi / 2)
                        vectors[k * 4 + i * 2 + j] = np.kron(pa, pb) @ qk
            dcf = DecoherenceFunctional.from_history_vectors(space, vectors)
            beam_a = tuple(space.value_event("wa", sa * 2 + i) for i in range(2))
            beam_b = tuple(space.value_event("wb", sb * 2 + j) for j in range(2))
            theories[(sa, sb)] = SettingTheory(space, order, dcf, beam_a, beam_b)
    return SettingScenario(theories, ("z",), ("wa",), ("wb",))


def eprb_computational_basis_fixture() -> SettingScenario:
    """The named failing fixture: resolving the singlet in the product
    basis kills two intermediate branches, so the past spans only half of
    the event Hilbert space and lack of novelty fails."""
    cfg = EprbConfig(resolution_basis=np.eye(4, dtype=complex))
    return gen_eprb(cfg, check_lon_prereq=False)


# ---------------------------------------------------------------------------
# Nonlocal box

@dataclass(frozen=True, eq=False)
class PrBoxModel:
    """Beam functionals and the sixteen-history classical realization of
    the box statistics under uniformly random joint settings."""

    beam_dcfs: dict
    space: HistorySpace
    order: CausalOrder
    dcf: DecoherenceFunctional

    def setting_event(self, sa: int, sb: int) -> Event:
        a_set = self.space.value_event("w1", 2 * sa) | self.space.value_event(
            "w1", 2 * sa + 1
        )
        b_set = self.space.value_event("w2", 2 * sb) | self.space.value_event(
            "w2", 2 * sb + 1
        )
        return a_set & b_set

    def outcome_event(self, i: int, j: int) -> Event:
        out = self.space.empty_event()
        for sa in (0, 1):
            for sb in (0, 1):
                out = out | (
                    self.space.value_event("w1", 2 * sa + i)
                    & self.space.value_event("w2", 2 * sb + j)
                )
        return out

    def pr_event(self) -> Event:
        return build_pr_event(
            self.setting_event(0, 0),
            self.setting_event(0, 1),
            self.setting_event(1, 0),
            self.setting_event(1, 1),
            self.outcome_event(0, 0),
            self.outcome_event(0, 1),
            self.outcome_event(1, 0),
            self.outcome_event(1, 1),
        )


def gen_pr_box() -> tuple[PrBoxModel, CorrelationTable]:
    """Box correlations: perfectly correlated beams under three joint
    settings, anti-correlated under the fourth; marginals uniform, so
    no-signalling holds with zero residual."""
    tables = {}
    for sa in (0, 1):
        for sb in (0, 1):
            anti = sa == 1 and sb == 1
            tab = np.zeros((2, 2))
            for i in range(2):
                for j in range(2):
                    tab[i, j] = 0.5 if (i == j) != anti else 0.0
            tables[(sa, sb)] = tab
    # classical joint model: value = 2*setting + outcome per wing,
    # settings uniformly random
    histories = tuple((a, b) for a in range(4) for b in range(4))
    space = HistorySpace(points=("w1", "w2"), histories=histories)
    order = CausalOrder.antichain(("w1", "w2"))
    diag = np.zeros(16)
    for h, (a, b) in enumerate(histories):
        sa, i = divmod(a, 2)
        sb, j = divmod(b, 2)
        diag[h] = 0.25 * tables[(sa, sb)][i, j]
    dcf = DecoherenceFunctional(space, matrix=np.diag(diag).astype(complex))
    table = CorrelationTable(tables)
    return PrBoxModel(table.beam_dcfs(), space, order, dcf), table


# ---------------------------------------------------------------------------
# Three-wing parity model

GHZ_STATE = np.zeros(8, dtype=complex)
GHZ_STATE[0] = GHZ_STATE[7] = 1.0 / np.sqrt(2.0)

_X_VECTORS = (
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
)
_Y_VECTORS = (
    np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
)


@dataclass(frozen=True, eq=False)
class GhzModel:
    space: HistorySpace
    order: CausalOrder
    dcf: DecoherenceFunctional

    def setting_event(self, word: str) -> Event:
        ev = self.space.full_event()
        for wing, ch in enumerate(word):
            s = 0 if ch == "x" else 1
            point = f"w{wing + 1}"
            ev = ev & (
                self.space.value_event(point, 2 * s)
                | self.space.value_event(point, 2 * s + 1)
            )
        return ev

    def outcome_event(self, word: str) -> Event:
        ev = self.space.empty_event()
        for s1 in (0, 1):
            for s2 in (0, 1):
                for s3 in (0, 1):
                    cur = self.space.full_event()
                    for wing, (ch, s) in enumerate(zip(word, (s1, s2, s3))):
                        o = 0 if ch == "u" else 1
                        cur = cur & self.space.value_event(f"w{wing + 1}", 2 * s + o)
                    ev = ev | cur
        return ev

    def ghz_event(self) -> Event:
        outcomes = {
            w: self.outcome_event(w)
            for w in ("uud", "udu", "duu", "ddd", "ddu", "dud", "udd", "uuu")
        }
        return build_ghz_event(
            self.setting_event("xyy"),
            self.setting_event("yxy"),
            self.setting_event("yyx"),
            self.setting_event("xxx"),
            outcomes,
        )


def gen_ghz() -> tuple[GhzModel, Event]:
    """Classical record of x/y measurements on the three-spin parity
    state, settings uniformly random: the parity correlation event has
    unit measure."""
    points = ("src", "w1", "w2", "w3")
    histories = []
    diag = []
    for s1 in (0, 1):
        for s2 in (0, 1):
            for s3 in (0, 1):
                for o1 in (0, 1):
                    for o2 in (0, 1):
                        for o3 in (0, 1):
                            vecs = [
                                (_X_VECTORS, _Y_VECTORS)[s][o]
                                for s, o in zip((s1, s2, s3), (o1, o2, o3))
                            ]
                            basis_vec = np.kron(np.kron(vecs[0], vecs[1]), vecs[2])
                            p = abs(np.vdot(basis_vec, GHZ_STATE)) ** 2
                            histories.append(
                                (0, 2 * s1 + o1, 2 * s2 + o2, 2 * s3 + o3)
                            )
                            diag.append(p / 8.0)
    space = HistorySpace(
        points=points,
        histories=tuple(histories),
        alphabets={"src": 1, "w1": 4, "w2": 4, "w3": 4},
    )
    order = CausalOrder.from_covers(
        points, [("src", "w1"), ("src", "w2"), ("src", "w3")]
    )
    dcf = DecoherenceFunctional(
        space, matrix=np.diag(np.array(diag)).astype(complex)
    )
    model = GhzModel(space, order, dcf)
    return model, model.ghz_event()
