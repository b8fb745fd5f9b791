"""Smith normal form and the linear-algebra kernels built on it.

Everything else in the library reduces to the operations implemented
here: ``snf`` (diagonalization U A V = D with invertible U, V and a
divisibility chain on D), ``inverse``, ``solve_linear`` (one
deterministic solution of A X = B, column by column, or None),
``kernel_basis`` (generators of {x : A x = 0}) and
``invariant_factors_of``.

Each ring family has one Smith routine.  Over Z, ``_snf_integer`` works
with arbitrary precision; its pivot is the entry of smallest nonzero
absolute value, ties broken by row then column order.  Over Z/n and F_p,
``_snf_modular`` eliminates over the local parts Z/p^k of n with all
arithmetic reduced, so entries never grow; its pivot is the first entry,
in row-major order, of least p-valuation.  Its systems are large and
sparse, so its work follows the nonzero entries: the pivot search skips
zeros, and each elimination pass updates only the positions where the
pivot row (of A and U) or the pivot column (of V) is nonzero.  The CRT
join of the parts runs only when n has two or more prime factors, and
U, D and V, whose entries are already reduced, are built by the trusted
``Matrix._reduced``.

One rule reads the diagonal everywhere (``SmithForm.pivots``): a zero or
missing pivot counts as n over Z/n, and as 0 over Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import itemgetter

from .errors import DimensionMismatchError, PreconditionFailedError
from .matrix import Matrix
from .rings import Integers, Ring


@dataclass(frozen=True)
class SmithForm:
    """U A V = D with U, V invertible over the ring and D diagonal, d_i | d_{i+1}."""

    U: Matrix
    D: Matrix
    V: Matrix

    @property
    def diagonal(self) -> tuple:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.entries[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def pivots(self, count: int) -> tuple:
        """The first ``count`` pivots; a zero or missing one counts as n
        over Z/n and as 0 over Z."""
        D = self.D
        n = D.ring.modulus or 0
        k = min(D.rows, D.cols)
        return tuple((D.entries[i][i] if i < k else 0) or n for i in range(count))


@lru_cache(maxsize=1 << 15)
def _snf_integer(A: Matrix) -> SmithForm:
    """Smith normal form over Z by elementary row/column operations.

    Matrices are immutable values, so forms are memoized; the linear
    solvers below hit the same system matrix over and over."""
    rows, cols = A.rows, A.cols
    a = [list(r) for r in A.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        ad, as_ = a[dst], a[src]
        for k in range(cols):
            ad[k] += c * as_[k]
        ud, us = u[dst], u[src]
        for k in range(rows):
            ud[k] += c * us[k]

    def add_col(dst, src, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(best[0])):
                    best = (x, i, j)
        return best

    t = 0
    while t < min(rows, cols):
        found = find_pivot(t)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)

        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        # remainder smaller than pivot: promote it
                        swap_rows(t, i)
                        if a[t][t] < 0:
                            negate_row(t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block; if not, fold the
            # offending row into row t and run the reduction again
            offender = None
            p = a[t][t]
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1

    # final pass: the block pivots already divide each other by
    # construction, but assert the chain and positivity defensively
    diag = [a[i][i] for i in range(min(rows, cols))]
    for i in range(len(diag) - 1):
        if diag[i] != 0 and diag[i + 1] % diag[i] != 0:
            raise AssertionError("smith normal form divisibility chain broken")

    zz = Integers()
    return SmithForm(
        U=Matrix(zz, rows, rows, u),
        D=Matrix(zz, rows, cols, a),
        V=Matrix(zz, cols, cols, v),
    )


def snf(A: Matrix) -> SmithForm:
    """Smith normal form over the matrix's own ring: ``_snf_integer``
    over Z, ``_snf_modular`` over Z/n and F_p."""
    if A.ring.kind == Ring.INTEGERS:
        return _snf_integer(A)
    return _snf_modular(A)


@lru_cache(maxsize=1 << 15)
def _snf_modular(A: Matrix) -> SmithForm:
    """Smith form over Z/n (F_p is the case n = p) by elimination over
    local rings.

    n splits by CRT into parts Z/q with q = p^k.  Over Z/q every residue
    is a unit times a power of p, so the pivot -- the first entry, in
    row-major order, of least gcd with q -- divides its whole block.
    Scaled by a unit to exactly p^e, it clears its column and its row in
    one pass each.  The systems met here are large and sparse, so the
    work follows the nonzero entries: the pivot search skips zeros at C
    speed, and each pass reads the nonzero entries of the pivot row of
    A and of U (row pass) or of the pivot column of V (column pass) once
    and updates only those positions.

    For n = p^k the one part is the answer.  Otherwise the parts are
    joined by the CRT idempotents, each pivot row scaled by a unit so
    that the diagonal holds the divisors of n in a chain
    d_1 | d_2 | ... | n (n itself is stored as 0); over Z/1 there is no
    part and U, D and V are zero.  Every entry ends in [0, n), so the
    results are built by the trusted ``Matrix._reduced``.
    """
    ring = A.ring
    n = ring.modulus
    rows, cols = A.rows, A.cols
    m = min(rows, cols)
    parts = []
    for p in ring._prime_factors():
        q = p
        while n % (q * p) == 0:
            q *= p
        # for n = p^k the entries are already residues mod q
        a = [list(r) if q == n else [x % q for x in r] for r in A.entries]
        u = [[0] * rows for _ in range(rows)]
        for i, r in enumerate(u):
            r[i] = 1
        vt = [[0] * cols for _ in range(cols)]  # columns of V
        for j, r in enumerate(vt):
            r[j] = 1
        diag = [q] * m
        for t in range(m):
            g, pi, pj = q, -1, -1
            for i in range(t, rows):
                row = a[i]
                # only the nonzero entries of the row can be the pivot
                for j in compress(range(t, cols), row[t:]):
                    if row[j] % g:  # gcd(row[j], q) < g
                        g, pi, pj = math.gcd(row[j], q), i, j
                        if g == 1:
                            break
                if g == 1:
                    break
            if pi < 0:
                break
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
            if pj != t:
                # rows above t are zero in every column from t on
                for r in a[t:]:
                    r[t], r[pj] = r[pj], r[t]
                vt[t], vt[pj] = vt[pj], vt[t]
            at, ut, vtt = a[t], u[t], vt[t]
            w = pow(at[t] // g, -1, q)
            # nonzero (index, value) pairs of the pivot rows, scaled by w
            arow = [(j, at[j] * w % q) for j in compress(range(t, cols), at[t:])]
            urow = [(k, ut[k] * w % q) for k in compress(range(rows), ut)]
            for k, y in urow:
                ut[k] = y
            for i in compress(range(t + 1, rows), map(itemgetter(t), a[t + 1:])):
                ai, ui = a[i], u[i]
                f = ai[t] // g
                for j, y in arow:
                    ai[j] = (ai[j] - f * y) % q
                for k, y in urow:
                    ui[k] = (ui[k] - f * y) % q
            # rows below t are now zero in column t, so a column pass
            # changes only row t, whose entries are multiples of g; row t
            # of a is not read again, so only V is updated
            vrow = [(k, vtt[k]) for k in compress(range(cols), vtt)]
            for j, y in arow[1:]:
                f = y // g
                vj = vt[j]
                for k, z in vrow:
                    vj[k] = (vj[k] - f * z) % q
            diag[t] = g
        parts.append((q, u, vt, diag))

    if len(parts) == 1:
        # n = p^k: the CRT idempotent is 1 and every row scale is 1
        _, U, Vt, diag = parts[0]
        d = [x % n for x in diag]
    else:  # two or more primes, or none (Z/1, where everything is 0)
        d = [math.prod(part[3][t] for part in parts) for t in range(m)]
        U = [[0] * rows for _ in range(rows)]
        Vt = [[0] * cols for _ in range(cols)]
        for q, u, vt, diag in parts:
            e = n // q * pow(n // q, -1, q)  # 1 mod q, 0 mod the other parts
            for t in range(rows):
                s = e * (d[t] // diag[t]) if t < m else e
                U[t] = [x + s * y for x, y in zip(U[t], u[t])]
            for j in range(cols):
                Vt[j] = [x + e * y for x, y in zip(Vt[j], vt[j])]
        U = [[x % n for x in r] for r in U]
        Vt = [[x % n for x in r] for r in Vt]
        d = [x % n for x in d]
    zero = (0,) * cols
    return SmithForm(
        U=Matrix._reduced(ring, rows, rows, tuple(map(tuple, U))),
        D=Matrix._reduced(ring, rows, cols, tuple(
            zero[:t] + (d[t],) + zero[t + 1:] if t < m else zero for t in range(rows))),
        V=Matrix._reduced(ring, cols, cols, tuple(zip(*Vt))),
    )


def inverse(U: Matrix) -> Matrix:
    """Two-sided inverse of a square matrix over its ring.

    If U' U V' = I is the Smith form of U, then U^{-1} = V' U'.  Raises
    PreconditionFailedError when U is not invertible (D is not I).
    """
    if U.rows != U.cols:
        raise DimensionMismatchError("inverse needs a square matrix")
    form = snf(U)
    if form.D != Matrix.identity(U.ring, U.rows):
        raise PreconditionFailedError(f"matrix is not invertible over {U.ring}")
    return form.V * form.U


def solve_linear(A: Matrix, B: Matrix) -> Matrix | None:
    """One exact solution X of A X = B, or None if some column of B has
    none.

    Deterministic choice, column by column: in Smith coordinates, bound
    coordinates take the canonical quotient and free coordinates are
    zero.  So column j of X is the solution for column j of B alone; the
    Smith form of A is taken once for all of them.
    """
    if B.rows != A.rows:
        raise DimensionMismatchError(f"rhs must have {A.rows} rows")
    if A.ring != B.ring:
        raise DimensionMismatchError("matrix/rhs ring mismatch")
    form = snf(A)
    Y = [(0,) * B.cols] * A.cols
    for i, (row, d) in enumerate(zip((form.U * B).entries, form.pivots(A.rows))):
        if d == 0:
            if any(row):
                return None
        elif any(c % d for c in row):
            return None
        elif i < A.cols:
            Y[i] = tuple(c // d for c in row)
    return form.V * Matrix._reduced(A.ring, A.cols, B.cols, tuple(Y))


def kernel_basis(A: Matrix) -> Matrix:
    """Columns generating {x : A x = 0} over A's ring.

    Smith coordinate j contributes column j of V times the annihilator
    of its pivot d_j: n / d_j over Z/n, which generates the torsion
    directions too; over Z, 1 for a zero pivot and 0 otherwise, which
    leaves a lattice basis of the kernel.  Zero contributions are dropped.
    """
    ring = A.ring
    n = ring.modulus or 0
    form = snf(A)
    vcols = form.V.transpose().entries
    cols = []
    for j, d in enumerate(form.pivots(A.cols)):
        ann = ring.normalize(n // d if d else 1)
        if ann:
            cols.append([ring.normalize(ann * x) for x in vcols[j]])
    if not cols:
        return Matrix.zero(ring, A.cols, 0)
    return Matrix._reduced(ring, A.cols, len(cols), tuple(zip(*cols)))


def invariant_factors_of(A: Matrix) -> tuple:
    """Invariant factors of the cokernel of A as an abelian group, with
    the relation n = 0 adjoined for residue rings: the Smith pivots with
    the 1s dropped, each 0 standing for a free summand over Z.

    This is the canonical presentation-independent fingerprint used for
    module isomorphism tests.
    """
    return tuple(d for d in snf(A).pivots(A.rows) if d != 1)
