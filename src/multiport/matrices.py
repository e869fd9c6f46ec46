"""Small dense square matrices over either scalar mode, plus eigensystems.

Matrices here are tiny (n <= 8), so everything is plain tuples of
scalars; numpy is only brought in for the eigendecomposition.
"""

from __future__ import annotations

import operator
from typing import Iterable, List, Tuple

import numpy as np

from . import exact
from .errors import DimensionMismatchError, NumericError, SpecError
from .states import PortStateVector


class Matrix:
    """Immutable square matrix of exact or float-complex entries."""

    __slots__ = ("rows", "mode")

    def __init__(self, rows: Iterable[Iterable], mode: str | None = None):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise SpecError("matrix must be square")
        if mode is None:
            mode = "exact" if rows and isinstance(rows[0][0], exact.ExactComplex) else "float"
        if mode == "float":
            rows = tuple(tuple(complex(v) for v in r) for r in rows)
        self.rows = rows
        self.mode = mode

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int, mode: str = "float") -> "Matrix":
        F = exact.field(mode)
        return cls(
            tuple(tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n)), mode
        )

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "Matrix":
        return cls(np.asarray(arr).tolist(), "float")

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def to_numpy(self) -> np.ndarray:
        return np.array([[complex(v) for v in r] for r in self.rows], dtype=complex)

    def scaled(self, factor) -> "Matrix":
        return Matrix(tuple(tuple(v * factor for v in r) for r in self.rows), self.mode)

    def dagger(self) -> "Matrix":
        n = self.dim
        return Matrix(
            tuple(tuple(self.rows[j][i].conjugate() for j in range(n)) for i in range(n)),
            self.mode,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.dim != other.dim:
            raise DimensionMismatchError("matrix dimensions differ")
        if self.mode != other.mode:
            raise SpecError("cannot mix exact and float matrices")
        zero = exact.field(self.mode).zero
        columns = [other.column(j) for j in range(other.dim)]
        return Matrix(
            tuple(
                tuple(sum(map(operator.mul, row, column), zero) for column in columns)
                for row in self.rows
            ),
            self.mode,
        )

    def apply(self, vector: Iterable) -> tuple:
        vec = tuple(vector)
        if len(vec) != self.dim:
            raise DimensionMismatchError("vector length differs from matrix dimension")
        zero = exact.field(self.mode).zero
        return tuple(sum(map(operator.mul, row, vec), zero) for row in self.rows)

    def max_abs_dev(self, other: "Matrix") -> float:
        a = self.to_numpy()
        b = other.to_numpy()
        if a.shape != b.shape:
            raise DimensionMismatchError("matrix dimensions differ")
        return float(np.max(np.abs(a - b)))

    def unitarity_dev(self) -> float:
        a = self.to_numpy()
        return float(np.max(np.abs(a @ a.conj().T - np.eye(self.dim))))

    def is_unitary(self, tol: float = 1e-12) -> bool:
        """U U^H == I: exactly for an exact matrix, to ``tol`` for a float one."""
        if self.mode == "exact":
            return self @ self.dagger() == Matrix.identity(self.dim, "exact")
        return self.unitarity_dev() <= tol

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.mode == other.mode and self.rows == other.rows

    def __hash__(self):
        return hash((self.mode, self.rows))

    def __str__(self):
        return "\n".join("[" + ", ".join(str(v) for v in r) + "]" for r in self.rows)

    __repr__ = __str__


def eigensystem_small(
    matrix: Matrix,
    residual_tol: float = 1e-9,
    degeneracy_tol: float = 1e-8,
) -> List[Tuple[complex, PortStateVector]]:
    """Eigenpairs of a small matrix, degenerate subspaces orthonormalized.

    Eigenvalues within ``degeneracy_tol`` of each other are treated as one
    cluster and their eigenvectors replaced by an orthonormal basis of the
    span.  Raises NumericError with the worst residual if any pair fails
    ||Mv - lambda v|| < residual_tol.
    """
    if matrix.dim > 8:
        raise SpecError("eigensystem_small is limited to dimension <= 8")
    arr = matrix.to_numpy()
    try:
        values, vectors = np.linalg.eig(arr)
    except np.linalg.LinAlgError as err:  # pragma: no cover - numpy rarely fails here
        raise NumericError(f"eigendecomposition failed: {err}") from err

    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]

    pairs: List[Tuple[complex, PortStateVector]] = []
    i = 0
    n = matrix.dim
    while i < n:
        j = i + 1
        while j < n and abs(values[j] - values[i]) <= degeneracy_tol:
            j += 1
        block = vectors[:, i:j]
        q, _ = np.linalg.qr(block)
        lam = complex(np.mean(values[i:j]))
        for k in range(j - i):
            vec = q[:, k]
            pairs.append((lam, PortStateVector(tuple(complex(v) for v in vec), "float")))
        i = j

    worst = 0.0
    for lam, vec in pairs:
        v = np.array(vec.as_complex_list())
        worst = max(worst, float(np.linalg.norm(arr @ v - lam * v)))
    if worst > residual_tol:
        raise NumericError(f"eigenpair residual {worst:.3e} exceeds {residual_tol:.3e}")
    return pairs
