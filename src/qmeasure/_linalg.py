"""Shared numeric policy (tolerances, PSD factorization, numerical rank),
the flag-set algebra of events and regions, and the report protocol of
the checks."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

DEFAULT_RTOL = 1e-9


class CheckViolation(ValueError):
    """A physics check failed on well-formed input (strong positivity,
    persistence of zero, lack of novelty, factorizability)."""


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance policy for all matrix-level checks.

    Residual thresholds scale with the matrix: hermiticity/normalization
    use rel * max(1, max|entry|), PSD uses -rel * largest eigenvalue and
    rank counts singular values above rel * largest singular value.
    """

    rel: float = DEFAULT_RTOL

    def matrix_floor(self, m) -> float:
        return self.rel * max(1.0, float(np.abs(m).max()) if m.size else 1.0)

    def psd_floor(self, eig_max: float) -> float:
        return -self.rel * max(eig_max, 1e-300)

    def rank_cut(self, s_max: float) -> float:
        return self.rel * s_max


class Report:
    """The one report protocol of the checks, for a frozen dataclass.

    `as_dict` writes the report's JSON document: its fields in declaration
    order, then the properties named in the class's `derived` tuple, then
    `passed` where the class has it, then `tolerance = tol.rel` where it
    has a `tol` field.  A field's metadata `key` renames its JSON key, or
    leaves the field out when it is None; a None value is left out, and a
    nested report or a tuple is written as a document or a list.  The
    perfbench workloads read the reports' field names, so a key that
    differs from its field is renamed here, never the field.  `require`
    refuses a report that did not pass.
    """

    derived: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            key, value = f.metadata.get("key", f.name), getattr(self, f.name)
            if isinstance(value, tuple):
                value = [v.as_dict() if isinstance(v, Report) else v for v in value]
            if key is not None and f.name != "tol" and value is not None:
                out[key] = value.as_dict() if isinstance(value, Report) else value
        out.update((name, getattr(self, name)) for name in self.derived)
        if hasattr(self, "passed"):
            out["passed"] = self.passed
        if hasattr(self, "tol"):
            out["tolerance"] = self.tol.rel
        return out

    def require(self, what: str) -> None:
        if not self.passed:
            raise ValueError(f"{what}: {self.as_dict()}")


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def psd_factor(m: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Factor a PSD Hermitian matrix as L†L with L of shape r x n.

    L has a row for each eigenvalue the Gram-scale rank rule
    (`Tolerance.rank_cut`) keeps, so no row is zero; the rest are rounding
    dust of order eps * scale, which would leak sqrt(eps)-sized spurious
    directions into the factor.  Anything below the PSD floor raises: the matrix is then
    not positive semi-definite at this tolerance.
    """
    w, v = np.linalg.eigh(hermitian_part(m))
    eig_max = float(w.max(initial=0.0))
    if w.min(initial=0.0) < tol.psd_floor(eig_max):
        raise CheckViolation(
            f"matrix is not positive semi-definite: min eigenvalue {w.min():.3e} "
            f"below floor {tol.psd_floor(eig_max):.3e}"
        )
    keep = w > tol.rank_cut(eig_max)
    return (v[:, keep] * np.sqrt(w[keep])).conj().T


def rank_from_singular_values(s: np.ndarray, tol: Tolerance) -> int:
    """Rank of a vector family on the Gram scale, from its singular values
    (descending): directions count when their squared singular value
    clears rel times the largest."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s ** 2 > tol.rank_cut(float(s[0]) ** 2)).sum())


def truncated_svd(a: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD `(u, s, vh)` of a vector family (columns of a), cut to the
    directions the rank rule keeps.

    The one source of a span's numerics: `u` is an orthonormal basis of
    the span, `vh` spans the row space (so I - vh† vh projects onto the
    kernel), and vh† diag(1/s) u† is the pseudo-inverse of a.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    r = rank_from_singular_values(s, tol)
    return u[:, :r], s[:r], vh[:r]


def selection_violation(vh: np.ndarray, w: np.ndarray) -> float:
    """Largest squared norm that a kernel vector of `v` attains under `w`.

    `vh` holds the kept right singular vectors of `v` (from
    `truncated_svd`), and `w` one column vector per column of `v`.
    Returns sigma_max(w restricted to ker v)^2, which is zero exactly when
    ker v is contained in ker w, i.e. when x -> w x is a consistent linear
    image of x -> v x.  `w` may also be a stack of such matrices, shape
    (..., d, n); the result is then the largest value over the stack.
    """
    p = w - (w @ vh.conj().T) @ vh
    if p.size == 0:
        return 0.0
    # the Gram on the smaller side; eigvalsh reads one triangle of it
    ph = p.conj().swapaxes(-1, -2)
    g = ph @ p if p.shape[-1] < p.shape[-2] else p @ ph
    return float(np.linalg.eigvalsh(g).max(initial=0.0))


def scatter_columns(fac: np.ndarray, labels: np.ndarray, m: int) -> np.ndarray:
    """Sum the columns of `fac` (d x n) into m groups given by `labels`.

    One `bincount` over the interleaved real and imaginary parts: bin
    (row, group, part) adds its terms in column order, as a per-row sum
    would.
    """
    d = fac.shape[0]
    parts = np.ascontiguousarray(fac, dtype=complex).view(float)
    bins = ((np.arange(d)[:, None] * m + labels) * 2)[:, :, None] + (0, 1)
    sums = np.bincount(bins.ravel(), weights=parts.ravel(), minlength=2 * d * m)
    return sums.view(complex).reshape(d, m)


class FlagSet:
    """A subset of a finite owner as a read-only bool vector, one flag per
    member: the one set algebra of events and regions.  A subclass is a
    frozen dataclass with fields (owner, flags); it names the owner through
    `_owner` and its refusals through the class attributes `needs` and
    `foreign`."""

    def __post_init__(self):
        n = self._owner.size
        flags = np.asarray(self.flags)
        if flags.dtype != bool or flags.shape != (n,):
            raise ValueError(f"{self.needs} needs a bool vector of {n} flags")
        flags = flags.copy()
        flags.flags.writeable = False
        object.__setattr__(self, "flags", flags)

    def _check(self, other) -> None:
        if self._owner is not other._owner:
            raise ValueError(self.foreign)

    def __eq__(self, other):
        if not isinstance(other, FlagSet):
            return NotImplemented
        return self._owner is other._owner and bool((self.flags == other.flags).all())

    def __hash__(self):
        return hash((id(self._owner), self.flags.tobytes()))

    def __or__(self, other):
        self._check(other)
        return type(self)(self._owner, self.flags | other.flags)

    def __and__(self, other):
        self._check(other)
        return type(self)(self._owner, self.flags & other.flags)

    def __xor__(self, other):
        self._check(other)
        return type(self)(self._owner, self.flags ^ other.flags)

    def __invert__(self):
        return type(self)(self._owner, ~self.flags)

    def __le__(self, other) -> bool:
        self._check(other)
        return not (self.flags & ~other.flags).any()

    def __len__(self) -> int:
        return int(self.flags.sum())

    def is_empty(self) -> bool:
        return not self.flags.any()
