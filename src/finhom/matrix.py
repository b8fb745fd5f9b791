"""Dense exact matrices over a base ring.

Entries are normalized ring elements stored row-major as a tuple of row
tuples, so matrices are immutable, hashable values.  Dimensions zero in
either direction are legal everywhere; empty matrices show up constantly
as presentations of free and zero modules.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimensionMismatchError
from .rings import Ring


class Matrix:
    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, rows: int, cols: int, entries: Iterable[Iterable[int]]):
        n = ring.modulus
        if n is None:
            data = tuple(tuple(row) for row in entries)
        else:
            data = tuple(tuple(x % n for x in row) for row in entries)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatchError(
                f"expected {rows}x{cols} entries, got {[len(r) for r in data]}"
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_rows(ring: Ring, rows: Sequence[Sequence[int]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return Matrix(ring, r, c, rows)

    @staticmethod
    def zero(ring: Ring, rows: int, cols: int) -> "Matrix":
        return Matrix(ring, rows, cols, [[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(ring: Ring, n: int) -> "Matrix":
        one = ring.one
        return Matrix(ring, n, n, [[one if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def column(ring: Ring, values: Sequence[int]) -> "Matrix":
        return Matrix(ring, len(values), 1, [[v] for v in values])

    @staticmethod
    def diagonal(ring: Ring, rows: int, cols: int, diag: Sequence[int]) -> "Matrix":
        m = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(diag):
            m[i][i] = d
        return Matrix(ring, rows, cols, m)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.ring}, {self.rows}x{self.cols})"
        body = "; ".join(",".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.ring}, [{body}])"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    # -- shape helpers ----------------------------------------------------

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, self.cols, self.rows,
                      [self.col(i) for i in range(self.cols)])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix(
            self.ring, len(row_idx), len(col_idx),
            [[self.entries[i][j] for j in col_idx] for i in row_idx],
        )

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "Matrix"):
        if self.ring != other.ring:
            raise DimensionMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix addition shape mismatch")
        rng = self.ring
        return Matrix(rng, self.rows, self.cols,
                      [[rng.add(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "Matrix":
        rng = self.ring
        return Matrix(rng, self.rows, self.cols,
                      [[rng.mul(c, x) for x in row] for row in self.entries])

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        rng = self.ring
        ot = other.transpose().entries
        out = []
        for ra in self.entries:
            out.append([rng.normalize(sum(a * b for a, b in zip(ra, rc))) for rc in ot])
        return Matrix(rng, self.rows, other.cols, out)

    def apply(self, vector: Sequence[int]) -> tuple:
        """Matrix times a column vector, returned as a tuple."""
        if self.cols != len(vector):
            raise DimensionMismatchError("vector length mismatch")
        rng = self.ring
        return tuple(rng.normalize(sum(a * v for a, v in zip(row, vector)))
                     for row in self.entries)

    # -- block operations ----------------------------------------------------

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if self.rows != other.rows:
            raise DimensionMismatchError("hstack row mismatch")
        return Matrix(self.ring, self.rows, self.cols + other.cols,
                      [ra + rb for ra, rb in zip(self.entries, other.entries)])

    def vstack(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if self.cols != other.cols:
            raise DimensionMismatchError("vstack column mismatch")
        return Matrix(self.ring, self.rows + other.rows, self.cols,
                      self.entries + other.entries)

    @staticmethod
    def hstack_all(ring: Ring, rows: int, blocks: Sequence["Matrix"]) -> "Matrix":
        out = Matrix.zero(ring, rows, 0)
        for b in blocks:
            out = out.hstack(b)
        return out

    @staticmethod
    def block_diagonal(ring: Ring, blocks: Sequence["Matrix"]) -> "Matrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        m = [[0] * cols for _ in range(rows)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    m[r0 + i][c0 + j] = b.entries[i][j]
            r0 += b.rows
            c0 += b.cols
        return Matrix(ring, rows, cols, m)

    @staticmethod
    def from_blocks(ring: Ring, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a matrix from a 2-d grid of compatible blocks."""
        out = None
        for brow in grid:
            row = None
            for b in brow:
                row = b if row is None else row.hstack(b)
            out = row if out is None else out.vstack(row)
        if out is None:
            return Matrix.zero(ring, 0, 0)
        return out

    def kronecker(self, other: "Matrix") -> "Matrix":
        """Tensor (Kronecker) product; row-major pairing of indices."""
        self._check_ring(other)
        rng = self.ring
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        m = [[0] * cols for _ in range(rows)]
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.entries[i][j]
                if a == 0:
                    continue
                for k in range(other.rows):
                    for l in range(other.cols):
                        m[i * other.rows + k][j * other.cols + l] = rng.mul(a, other.entries[k][l])
        return Matrix(rng, rows, cols, m)

    def vec(self) -> tuple:
        """Column-stacking vectorization: columns concatenated top to bottom."""
        return tuple(self.entries[i][j] for j in range(self.cols) for i in range(self.rows))

    @staticmethod
    def unvec(ring: Ring, rows: int, cols: int, v: Sequence[int]) -> "Matrix":
        m = [[0] * cols for _ in range(rows)]
        for j in range(cols):
            for i in range(rows):
                m[i][j] = v[j * rows + i]
        return Matrix(ring, rows, cols, m)

    def lift_to_integers(self) -> "Matrix":
        from .rings import Integers
        return Matrix(Integers(), self.rows, self.cols, self.entries)

    def change_ring(self, ring: Ring) -> "Matrix":
        return Matrix(ring, self.rows, self.cols, self.entries)
