"""Dense exact matrices over a base ring.

Entries are normalized ring elements stored row-major as a tuple of row
tuples, so matrices are immutable, hashable values.  Dimensions zero in
either direction are legal everywhere; empty matrices show up constantly
as presentations of free and zero modules.

Invariant: every entry of a Matrix is in normal form for its ring (an
int in [0, n) over Z/n and F_n, any int over Z).  The public constructor
establishes it by reducing every entry and checks the shape; operations
whose results are reduced by construction (slices, sums and products
through the ring's arithmetic, stacking and block assembly of matrices
over the same ring) build their results through the trusted ``_reduced``
constructor, which copies and reduces nothing and checks only the shape:
as many rows as declared, each as long as the declared column count.
Since values are immutable, a stack with an empty block (no columns for
``hstack``, no rows for ``vstack``) returns the other operand, and a
slice on every row and column returns the matrix itself, so no entries
are copied and a cached hash is kept.

Products are row-sparse: row i of A * B is the sum of a_ik times row k
of B over the nonzero a_ik of row i of A; B is never transposed.  A zero
row gives one shared zero row, a row whose only nonzero entry is 1 gives
row k of B itself, and any other sum is reduced once per entry (mod n
over Z/n and F_n, not at all over Z).
"""

from __future__ import annotations

from itertools import chain
from operator import add as _plus, itemgetter, mul as _times
from typing import Iterable, Sequence

from .errors import DimensionMismatchError
from .rings import Ring


class Matrix:
    __slots__ = ("ring", "rows", "cols", "entries", "_hash")

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
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def _reduced(ring: Ring, rows: int, cols: int, data: tuple) -> "Matrix":
        """Trusted constructor: ``data`` is a tuple of row tuples whose
        entries are already in normal form for ``ring``.  Nothing is
        copied or reduced; only the shape is checked."""
        if len(data) != rows or (rows and set(map(len, data)) != {cols}):
            raise DimensionMismatchError(
                f"expected {rows}x{cols} entries, got {[len(r) for r in data]}"
            )
        m = _new(Matrix)
        _set_ring(m, ring)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_entries(m, data)
        _set_hash(m, None)
        return m

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
        return Matrix._reduced(ring, rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    def identity(ring: Ring, n: int, above: int = 0, below: int = 0) -> "Matrix":
        """The n x n identity, under ``above`` and over ``below`` zero rows:
        the inclusion of a summand into a direct sum."""
        one, zero = ring.one, (0,) * n
        return Matrix._reduced(ring, above + n + below, n, (zero,) * above + tuple(
            (0,) * i + (one,) + (0,) * (n - i - 1) for i in range(n)) + (zero,) * below)

    @staticmethod
    def column(ring: Ring, values: Sequence[int]) -> "Matrix":
        return Matrix(ring, 1, len(values), [values]).transpose()

    @staticmethod
    def diagonal(ring: Ring, rows: int, cols: int, diag: Sequence[int]) -> "Matrix":
        m = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(diag):
            m[i][i] = d
        return Matrix(ring, rows, cols, m)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, self.rows, self.cols, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.ring}, {self.rows}x{self.cols})"
        body = "; ".join(",".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.ring}, [{body}])"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    # -- shape helpers ----------------------------------------------------

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "Matrix":
        data = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Matrix._reduced(self.ring, self.cols, self.rows, data)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        if row_idx == range(self.rows) and col_idx == range(self.cols):
            return self
        e, k = self.entries, len(col_idx)
        pick = itemgetter(*col_idx) if k > 1 else lambda row: tuple([row[j] for j in col_idx])
        return Matrix._reduced(self.ring, len(row_idx), k, tuple([pick(e[i]) for i in row_idx]))

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "Matrix"):
        if self.ring != other.ring:
            raise DimensionMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix addition shape mismatch")
        add = self.ring.add
        return Matrix._reduced(self.ring, self.rows, self.cols,
                               tuple(tuple(add(a, b) for a, b in zip(ra, rb))
                                     for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "Matrix":
        mul = self.ring.mul
        return Matrix._reduced(self.ring, self.rows, self.cols,
                               tuple(tuple(mul(c, x) for x in row) for row in self.entries))

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n = self.ring.modulus
        rows, zero = other.entries, (0,) * other.cols
        out = []
        for ra in self.entries:
            acc = kept = None
            for k, a in enumerate(ra):
                if a:
                    if acc is None:
                        kept = a == 1
                        acc = rows[k] if kept else tuple(map(a.__mul__, rows[k]))
                    else:
                        kept, acc = False, tuple(map(_plus, acc, map(a.__mul__, rows[k])))
            out.append(zero if acc is None else acc if kept or not n
                       else tuple([x % n for x in acc]))
        return Matrix._reduced(self.ring, self.rows, other.cols, tuple(out))

    def apply(self, vector: Sequence[int]) -> tuple:
        """Matrix times a column vector, returned as a tuple."""
        if self.cols != len(vector):
            raise DimensionMismatchError("vector length mismatch")
        norm = self.ring.normalize
        return tuple(norm(sum(map(_times, row, vector))) for row in self.entries)

    # -- block operations ----------------------------------------------------

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if self.rows != other.rows:
            raise DimensionMismatchError("hstack row mismatch")
        if not other.cols:
            return self
        if not self.cols:
            return other
        return Matrix._reduced(self.ring, self.rows, self.cols + other.cols,
                               tuple(ra + rb for ra, rb in zip(self.entries, other.entries)))

    def vstack(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if self.cols != other.cols:
            raise DimensionMismatchError("vstack column mismatch")
        if not other.rows:
            return self
        if not self.rows:
            return other
        return Matrix._reduced(self.ring, self.rows + other.rows, self.cols,
                               self.entries + other.entries)

    @staticmethod
    def hstack_all(ring: Ring, rows: int, blocks: Sequence["Matrix"]) -> "Matrix":
        for b in blocks:
            if b.ring != ring:
                raise DimensionMismatchError(f"ring mismatch: {ring} vs {b.ring}")
            if b.rows != rows:
                raise DimensionMismatchError("hstack row mismatch")
        data = tuple(tuple(chain.from_iterable(parts)) for parts in
                     zip(*(b.entries for b in blocks))) if blocks else ((),) * rows
        return Matrix._reduced(ring, rows, sum(b.cols for b in blocks), data)

    @staticmethod
    def block_diagonal(ring: Ring, blocks: Sequence["Matrix"]) -> "Matrix":
        cols = sum(b.cols for b in blocks)
        data = []
        c0 = 0
        for b in blocks:
            if b.ring != ring:
                raise DimensionMismatchError(f"ring mismatch: {ring} vs {b.ring}")
            left, right = (0,) * c0, (0,) * (cols - c0 - b.cols)
            data.extend(left + row + right for row in b.entries)
            c0 += b.cols
        return Matrix._reduced(ring, len(data), cols, tuple(data))

    def kronecker(self, other: "Matrix") -> "Matrix":
        """Tensor (Kronecker) product; row-major pairing of indices."""
        self._check_ring(other)
        mul = self.ring.mul
        zero = (0,) * other.cols
        data = tuple(
            tuple(chain.from_iterable(
                (mul(a, x) for x in orow) if a else zero for a in srow))
            for srow in self.entries for orow in other.entries)
        return Matrix._reduced(self.ring, self.rows * other.rows,
                               self.cols * other.cols, data)

    def vec(self) -> tuple:
        """Column-stacking vectorization: columns concatenated top to bottom."""
        return tuple(self.entries[i][j] for j in range(self.cols) for i in range(self.rows))

    def lift_to_integers(self) -> "Matrix":
        from .rings import Integers
        return Matrix(Integers(), self.rows, self.cols, self.entries)

    def change_ring(self, ring: Ring) -> "Matrix":
        return Matrix(ring, self.rows, self.cols, self.entries)


# the trusted constructor fills a record through its slot descriptors, bound
# once, since Matrix.__setattr__ refuses every assignment
_new = object.__new__
_set_ring, _set_rows, _set_cols, _set_entries, _set_hash = (
    getattr(Matrix, name).__set__ for name in Matrix.__slots__)
