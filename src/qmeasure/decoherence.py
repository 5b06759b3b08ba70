"""Decoherence functionals on finite history spaces.

A decoherence functional is stored either densely, as the Hermitian
matrix of its values on atomic histories, or lazily through per-history
amplitudes grouped on a final "truncation" surface (the double-path-sum
form).  In the lazy form D(E, F) is the inner product of branch vectors
and hermiticity plus positive semi-definiteness hold by construction.

Convention: D(E, F) is antilinear in the first argument, so the dense
matrix entry [g, h] is the conjugated-g value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._linalg import Report, Tolerance, hermitian_part, psd_factor, scatter_columns
from .histories import Event, HistorySpace, atom_ids, region_algebra

DENSE_ATOM_CAP = 1024


@dataclass(frozen=True, eq=False)
class BranchRep:
    """Lazy double-path-sum data: per-history amplitude plus the index of
    its configuration on the truncation surface.

    `live` lists, in history order, the histories whose amplitude is not
    zero; only they add to an event vector, so every sum runs over them.
    """

    amplitudes: np.ndarray  # complex, one per history
    final_index: np.ndarray  # int, one per history
    dim: int  # number of distinct truncation-surface configurations
    live: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        fin = np.asarray(self.final_index, dtype=np.int64)
        if amps.shape != fin.shape or amps.ndim != 1:
            raise ValueError("amplitudes and final_index must be equal-length vectors")
        if fin.size and (fin.min() < 0 or fin.max() >= self.dim):
            raise ValueError("final_index out of range")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "final_index", fin)
        object.__setattr__(self, "live", np.flatnonzero(amps))


@dataclass(frozen=True, eq=False)
class DecoherenceFunctional:
    """Hermitian, additive, normalized bi-functional over one history space.

    The quadratic sum rule needs no check.  Both storage modes give
    D(E, F) = sum over g in E, h in F of D({g}, {h}): the dense mode sums
    matrix entries, the lazy mode takes the inner product of sums of
    history vectors.  So for pairwise disjoint E, F, G the seven measures
    of mu(EFG) - mu(EF) - mu(FG) - mu(GE) + mu(E) + mu(F) + mu(G) expand
    into the same block sums, which cancel for any matrix, Hermitian or
    not (Sorkin, Mod. Phys. Lett. A 9 (1994) 3119).
    """

    space: HistorySpace
    matrix: np.ndarray | None = None
    branch: BranchRep | None = None
    tol: Tolerance = Tolerance()

    def __post_init__(self):
        n = self.space.size
        if (self.matrix is None) == (self.branch is None):
            raise ValueError("exactly one of matrix / branch must be given")
        if self.matrix is not None:
            if n > DENSE_ATOM_CAP:
                raise ValueError(f"dense mode capped at {DENSE_ATOM_CAP} histories")
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (n, n):
                raise ValueError("matrix shape does not match history count")
            if not np.isfinite(m).all():
                raise ValueError("matrix has a non-finite entry")
            object.__setattr__(self, "matrix", m)
        else:
            if self.branch.amplitudes.shape[0] != n:
                raise ValueError("branch data length does not match history count")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_history_vectors(cls, space, vectors) -> "DecoherenceFunctional":
        """Dense functional from one complex vector per history; the matrix
        is the Gram matrix, hence strongly positive by construction."""
        v = np.asarray(vectors, dtype=complex)
        if v.shape[0] != space.size:
            raise ValueError("need one vector per history")
        return cls(space, matrix=v.conj() @ v.T)

    @classmethod
    def from_amplitudes(cls, space, amplitudes, final_index, dim, tol=Tolerance()):
        return cls(space, branch=BranchRep(amplitudes, final_index, dim), tol=tol)

    @property
    def is_dense(self) -> bool:
        return self.matrix is not None

    # -- event vectors ---------------------------------------------------------

    @functools.cached_property
    def live(self) -> np.ndarray:
        """The histories, in order, whose vector is not identically zero.

        A lazy history is live when its amplitude is not zero.  A dense one
        is live when its matrix row or column is nonzero: a PSD matrix's
        zero column has a zero vector, which `eigh` would leave as rounding
        dust in the factor, and a dead history's entries are all zero, so
        `grouped` skips none.
        """
        if self.is_dense:
            return np.flatnonzero(self.matrix.any(axis=0) | self.matrix.any(axis=1))
        return self.branch.live

    @functools.cached_property
    def factor(self) -> np.ndarray:
        """The factor on the live histories, built once.

        Column k of the `d x len(live)` matrix is the vector of history
        `live[k]`, and inner products of the columns give the functional.
        A dense factor has one row per direction the rank rule keeps (d is
        the numerical rank), a lazy one a row per final configuration.
        Raises when a dense matrix fails positive semi-definiteness at the
        tolerance (a strong-positivity violation).
        """
        live = self.live
        if self.is_dense:
            return psd_factor(self.matrix, self.tol)[:, live]
        b = self.branch
        fac = np.zeros((b.dim, live.size), dtype=complex)
        fac[b.final_index[live], np.arange(live.size)] = b.amplitudes[live]
        return fac

    def vectors(self, labels: np.ndarray, m: int, flags: np.ndarray | None = None) -> np.ndarray:
        """The `d x m` vectors of the events "histories labelled p".

        `labels` holds one label in 0..m-1 per live history (`live`), and
        `flags`, when given, one flag per live history: only the flagged
        ones count.  A dead history's vector is identically zero, so no
        other history is read.  A dense functional scatters its factor's
        columns; a lazy one has a single nonzero per column, its amplitude
        at row `final_index`, so it sums the live amplitudes into the bins
        `final_index * m + label`, which reshape straight to `(d, m)`.
        Either way each entry adds the same nonzero terms in the same order
        as a sum over a full-width factor, so the results are bit-identical
        to it.
        """
        self._check_live_length(labels, flags)
        if self.is_dense:
            fac = self.factor
            if flags is not None:
                fac, labels = fac[:, flags], labels[flags]
            return scatter_columns(fac, labels, m)
        b = self.branch
        amps, final = b.amplitudes[self.live], b.final_index[self.live]
        if flags is not None:
            amps, final, labels = amps[flags], final[flags], labels[flags]
        return scatter_columns(amps[None], final * m + labels, b.dim * m).reshape(b.dim, m)

    def _check_live_length(self, labels: np.ndarray, flags: np.ndarray | None = None) -> None:
        n = self.live.size
        if len(labels) != n or (flags is not None and len(flags) != n):
            raise ValueError("labels and flags need one entry per live history")

    def _flags_vector(self, flags: np.ndarray | None) -> np.ndarray:
        """The vector of the event with these per-history flags."""
        zeros = np.broadcast_to(np.int64(0), self.live.size)  # allocates nothing
        return self.vectors(zeros, 1, None if flags is None else flags[self.live])[:, 0]

    # -- evaluation ----------------------------------------------------------

    def _own(self, e: Event) -> None:
        if e.space is not self.space:
            raise ValueError("event belongs to a different history space")

    def evaluate(self, e: Event, f: Event) -> complex:
        """D(E, F): additive in each slot over disjoint unions, so the
        value is the sum of the atom-pair entries."""
        self._own(e)
        self._own(f)
        if self.is_dense:
            return complex(self.matrix[np.ix_(e.flags, f.flags)].sum())
        be, bf = (self._flags_vector(x.flags) for x in (e, f))
        return complex(np.vdot(be, bf))

    def measure(self, e: Event) -> float:
        """The quantum measure mu(E) = D(E, E), refused when its imaginary
        part clears the tolerance."""
        val = self.evaluate(e, e)
        floor = self.tol.matrix_floor(self.matrix) if self.is_dense else self.tol.rel
        if abs(val.imag) > floor:
            raise ValueError(
                f"mu(E) has imaginary part {val.imag:.3e}: hermiticity violated"
            )
        return float(val.real)

    # -- axioms ---------------------------------------------------------------

    def validate_axioms(self, seed: int = 0) -> "AxiomReport":
        """Residuals of hermiticity, normalization and strong positivity.

        A dense functional is checked on its whole matrix.  A lazy one is
        Hermitian by construction, its normalization is |F 1|^2 - 1, and
        its positivity is sampled: the spectrum of the Gram of a seeded
        event family read at the live histories (`_sampled_gram`), so
        `seed` picks the random events and the report says `sampled`.
        """
        if self.is_dense:
            m = self.matrix
            herm = float(np.abs(m - m.conj().T).max())
            norm = float(abs(m.sum() - 1.0))
        else:
            herm = 0.0  # inner-product form is Hermitian identically
            bvec = self._flags_vector(None)
            norm = float(abs(np.vdot(bvec, bvec).real - 1.0))
            m = self._sampled_gram(seed)
        eig = np.linalg.eigvalsh(hermitian_part(m))
        min_eig, eig_max = float(eig.min()), float(eig.max(initial=0.0))
        floor = self.tol.matrix_floor(
            self.matrix if self.is_dense else np.array([eig_max])
        )
        return AxiomReport(
            hermiticity_residual=herm,
            normalization_residual=norm,
            min_eigenvalue=min_eig,
            eigenvalue_scale=eig_max,
            sampled=not self.is_dense,
            tol=self.tol,
            residual_floor=floor,
        )

    def _sampled_gram(self, seed: int) -> np.ndarray:
        """Gram of a seeded event family, read at the live histories alone:
        every single-point atom, points taken in order until there are
        DENSE_ATOM_CAP atoms, then up to 100 random events, each holding
        every live history with probability 1/2 (a dead history adds
        nothing to a vector, so none is drawn).  Each vector's entries add
        the same terms in the same order as the event's own `vectors`
        call.  Used for the lazy-mode positivity check."""
        live, b = self.live, self.branch
        blocks, atoms = [], 0
        for p in self.space.points:
            n_atoms, ids = atom_ids(self.space, (p,), live)
            blocks.append(self.vectors(ids, n_atoms).T)
            atoms += n_atoms
            if atoms >= DENSE_ATOM_CAP:
                break
        k = max(0, min(100, DENSE_ATOM_CAP - atoms))
        member = np.random.default_rng(seed).random((k, live.size)) < 0.5
        event, col = np.nonzero(member)  # event-major, history order within
        rows = live[col]
        amps, final = b.amplitudes[rows], b.final_index[rows]
        events = scatter_columns(amps[None], final * k + event, b.dim * k)
        blocks.append(events.reshape(b.dim, k).T)
        vecs = np.concatenate(blocks)
        return vecs.conj() @ vecs.T

    def is_classical(self) -> bool:
        """True iff D(E, F) = D(EF, EF) for all events.

        Bilinearity reduces this to the atom level: the matrix must be
        diagonal (off-diagonal entries are D({g},{h}) with gh empty) with
        nonnegative real diagonal.
        """
        if not self.is_dense:
            raise ValueError("classicality check requires dense mode")
        m = self.matrix
        floor = self.tol.matrix_floor(m)
        off = m - np.diag(np.diag(m))
        diag = np.diag(m)
        return bool(
            np.abs(off).max(initial=0.0) <= floor
            and np.abs(diag.imag).max(initial=0.0) <= floor
            and diag.real.min(initial=0.0) >= -floor
        )

    # -- values on a partition ------------------------------------------------

    def grouped(self, labels: np.ndarray, m: int) -> np.ndarray:
        """The m x m matrix of D(E_p, E_q), where E_p holds the histories
        labelled p; `labels` gives each live history one label in 0..m-1,
        as in `vectors`.  A dead history's values are all zero, so it
        belongs to no E_p."""
        self._check_live_length(labels)
        if self.is_dense:
            ind = np.zeros((m, self.space.size))
            ind[labels, self.live] = 1.0
            return ind @ self.matrix @ ind.T
        v = self.vectors(labels, m)
        return v.conj().T @ v


def grouped_gap(
    d1: DecoherenceFunctional, l1: np.ndarray, d2: DecoherenceFunctional, l2: np.ndarray, m: int
) -> tuple[float, np.ndarray]:
    """The largest entry gap between two functionals' values on m events,
    each side's given by its live histories' labels (`grouped`), and the
    first side's matrix.  More than DENSE_ATOM_CAP events are refused: a lazy
    functional's atom count is bounded only by its history count."""
    if m > DENSE_ATOM_CAP:
        raise ValueError(f"restriction has {m} atoms, above the dense cap")
    g1, g2 = d1.grouped(l1, m), d2.grouped(l2, m)
    if not (np.isfinite(g1).all() and np.isfinite(g2).all()):
        raise ValueError("matrix has a non-finite entry")
    return float(np.abs(g1 - g2).max(initial=0.0)), g1


def check_agreement(
    d1: DecoherenceFunctional, d2: DecoherenceFunctional, points
) -> bool:
    """Two theories agree in a region iff their restricted history sets are
    equal and their values on the region's atoms coincide under that
    matching (`grouped_gap` on their region algebras), at the floor of the
    first side's values."""
    a1, a2 = region_algebra(d1.space, points), region_algebra(d2.space, points)
    if not np.array_equal(a1.representatives, a2.representatives):
        return False
    gap, g1 = grouped_gap(
        d1, a1.atom_index[d1.live], d2, a2.atom_index[d2.live], a1.n_atoms
    )
    return gap <= d1.tol.matrix_floor(g1)


@dataclass(frozen=True)
class AxiomReport(Report):
    """Numeric residuals for the decoherence-functional axioms."""

    hermiticity_residual: float
    normalization_residual: float
    min_eigenvalue: float
    eigenvalue_scale: float
    sampled: bool
    tol: Tolerance
    residual_floor: float = field(metadata={"key": None})

    derived = ("hermitian", "normalized", "strongly_positive")

    @property
    def hermitian(self) -> bool:
        return self.hermiticity_residual <= self.residual_floor

    @property
    def normalized(self) -> bool:
        return self.normalization_residual <= self.residual_floor

    @property
    def strongly_positive(self) -> bool:
        return self.min_eigenvalue >= self.tol.psd_floor(self.eigenvalue_scale)

    @property
    def passed(self) -> bool:
        return self.hermitian and self.normalized and self.strongly_positive
