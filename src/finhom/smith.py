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
in row-major order, of least p-valuation.  The systems of both are
large and sparse, so their work follows the nonzero entries: the pivot
search skips zeros, and each elimination pass updates only the positions
where the pivot row (of A and U) or the pivot column (of V, and over Z
of A) is nonzero.  The CRT join of the parts runs only when n has two or
more prime factors, and U, whose entries are already reduced, is built
by the trusted ``Matrix._reduced``.

A form keeps U, the columns of V as the eliminations build them, and
the diagonal of D; V and D are built only when asked for.  One rule
reads a solution (``SmithForm.read``): from U B and the pivots, the
combination of the columns of V by the Smith coordinates that are not
zero.  ``snf`` memoizes forms, for the matrices the library reads again
and again: relation matrices, and the kernel, cokernel and coordinate
systems.  ``eliminate`` computes a form afresh, for systems that are
built once and read once, such as those of the linear solvers in
``linsolve``.  It applies the row operations to a carried matrix in
place of the identity: a solver carries its right-hand side b, so U
itself is never formed, or a matrix with no columns when it reads only
the kernel.

One rule reads the diagonal everywhere (``SmithForm.pivots``): a zero or
missing pivot counts as n over Z/n, and as 0 over Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import itemgetter

from .errors import DimensionMismatchError, PreconditionFailedError, ValidationError
from .matrix import Matrix
from .rings import Ring


@dataclass(frozen=True, slots=True)
class SmithForm:
    """U A V = D with U, V invertible over the ring and D diagonal, d_i | d_{i+1}.

    Kept: ``U``, or U C when the elimination carried a matrix C in place
    of the identity (``eliminate``); ``vcols``, the columns of V; and
    ``pivot_row``, the diagonal of D with each zero read as n over Z/n
    (0 over Z).  ``V``, ``D`` and ``diagonal`` are built from them when
    asked for.
    """

    U: Matrix
    vcols: tuple
    pivot_row: tuple

    @property
    def V(self) -> Matrix:
        cols = len(self.vcols)
        return Matrix._reduced(self.U.ring, cols, cols, tuple(zip(*self.vcols)))

    @property
    def diagonal(self) -> tuple:
        n = self.U.ring.modulus
        return tuple(d % n for d in self.pivot_row) if n else self.pivot_row

    @property
    def D(self) -> Matrix:
        rows, cols = self.U.rows, len(self.vcols)
        zero = (0,) * cols
        diag = self.diagonal
        return Matrix._reduced(self.U.ring, rows, cols, tuple(
            zero[:t] + (diag[t],) + zero[t + 1:] if t < len(diag) else zero
            for t in range(rows)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def pivots(self, count: int) -> tuple:
        """The first ``count`` pivots; a zero or missing one counts as n
        over Z/n and as 0 over Z."""
        row = self.pivot_row
        if count <= len(row):
            return row[:count]
        return row + (self.U.ring.modulus or 0,) * (count - len(row))

    def solve(self, B: Matrix) -> Matrix | None:
        """One exact solution X of A X = B, for the A of this form, or
        None if some column of B has none: ``read`` of U B."""
        U = self.U
        if B.rows != U.rows:
            raise DimensionMismatchError(f"rhs must have {U.rows} rows")
        if U.ring != B.ring:
            raise DimensionMismatchError("matrix/rhs ring mismatch")
        return self.read(U * B)

    def read(self, UB: Matrix) -> Matrix | None:
        """The solution X of A X = B read from UB = U B, or None if some
        column of B has none.

        Deterministic choice, column by column: the Smith coordinates
        Y = V^-1 X are the rows of UB divided by their pivots, the
        canonical quotient, and a row with a zero pivot or past the pivots
        must be zero, so free coordinates are zero.  X = V Y is the
        combination of the columns of V by the nonzero coordinates, and
        column j of X is the solution for column j of B alone.
        """
        ring = UB.ring
        n = ring.modulus
        cols, k = len(self.vcols), UB.cols
        x = [[0] * k for _ in range(cols)]
        entries = UB.entries
        for row, d, vcol in zip(entries, self.pivot_row, self.vcols):
            if not any(row):
                continue
            if d == 0 or any(c % d for c in row):
                return None
            y = [(j, c // d) for j, c in enumerate(row) if c]
            for r in compress(range(cols), vcol):
                v, xr = vcol[r], x[r]
                for j, c in y:
                    xr[j] += v * c
        if any(map(any, entries[len(self.pivot_row):])):
            return None
        data = tuple(tuple(c % n for c in r) for r in x) if n else tuple(map(tuple, x))
        return Matrix._reduced(ring, cols, k, data)

    def kernel_columns(self) -> list:
        """Column tuples generating {x : A x = 0} over the ring, for the
        A of this form.

        Smith coordinate j contributes column j of V times the annihilator
        of its pivot d_j: n / d_j over Z/n, which generates the torsion
        directions too; over Z, 1 for a zero pivot and 0 otherwise, which
        leaves a lattice basis of the kernel.  Zero contributions are
        dropped.
        """
        ring = self.U.ring
        n = ring.modulus or 0
        out = []
        for d, vcol in zip(self.pivots(len(self.vcols)), self.vcols):
            ann = ring.normalize(n // d if d else 1)
            if ann == 1:
                out.append(vcol)
            elif ann:
                out.append(tuple(ring.normalize(ann * x) for x in vcol))
        return out

    def kernel(self) -> Matrix:
        """``kernel_columns`` as the columns of a matrix."""
        ring, cols = self.U.ring, len(self.vcols)
        out = self.kernel_columns()
        if not out:
            return Matrix.zero(ring, cols, 0)
        return Matrix._reduced(ring, cols, len(out), tuple(zip(*out)))


def _snf_integer(A: Matrix, carry: Matrix | None = None) -> SmithForm:
    """Smith normal form over Z by elementary row/column operations.

    The pivot is the entry of least nonzero absolute value in the
    trailing block, ties broken by row, then column.  It clears its
    column by row operations and its row by column operations; a nonzero
    remainder takes over as pivot and the passes run again, and a pivot
    that does not divide the rest of the block has the first offending
    row added to its own.  The work follows the nonzero entries, as in
    ``_snf_modular``: the pivot search skips zeros and stops at the first
    entry of absolute value 1, a row pass reads the nonzero entries of
    the pivot rows of A and U once, a column pass updates only the rows
    with a nonzero in the pivot column (rows above the pivot are zero in
    every column from it on) and the nonzero positions of the pivot
    column of V, which is kept as its columns, and the offender scan is
    skipped for a unit pivot.  The order of operations, and so U, D and
    V, is that of the dense elimination kept as the reference in the
    tests.  The row operations act on ``carry``, the identity unless one
    is given (``eliminate``), and the form holds the result as U.

    Entries grow without bound (no size reduction of U and V).  Not
    memoized: ``snf`` memoizes the matrices read again, and the systems
    of the linear solvers, each built and read once, come through
    ``eliminate``."""
    rows, cols = A.rows, A.cols
    a = [list(r) for r in A.entries]
    if carry is None:
        carry = Matrix.identity(A.ring, rows)
    width = carry.cols
    u = [list(r) for r in carry.entries]
    vt = [[0] * cols for _ in range(cols)]  # columns of V
    for j, r in enumerate(vt):
        r[j] = 1

    for t in range(min(rows, cols)):
        best, pi, pj = 0, -1, -1
        for i in range(t, rows):
            row = a[i]
            for j in compress(range(t, cols), row[t:]):
                x = abs(row[j])
                if x < best or not best:
                    best, pi, pj = x, i, j
                    if x == 1:
                        break
            if best == 1:
                break
        if pi < 0:
            break
        a[t], a[pi] = a[pi], a[t]
        u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for r in a[t:]:
                r[t], r[pj] = r[pj], r[t]
            vt[t], vt[pj] = vt[pj], vt[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

        while True:
            # clear column t below the pivot; a nonzero remainder lies
            # strictly between 0 and the (positive) pivot and takes its place
            dirty = False
            below = list(compress(range(t + 1, rows), map(itemgetter(t), a[t + 1:])))
            if below:
                at, ut = a[t], u[t]
                arow = [(k, at[k]) for k in compress(range(t, cols), at[t:])]
                urow = [(k, ut[k]) for k in compress(range(width), ut)]
                for i in below:
                    ai, ui = a[i], u[i]
                    q = ai[t] // a[t][t]
                    for k, y in arow:
                        ai[k] -= q * y
                    for k, y in urow:
                        ui[k] -= q * y
                    if ai[t]:
                        a[t], a[i] = ai, a[t]
                        u[t], u[i] = ui, u[t]
                        arow = [(k, ai[k]) for k in compress(range(t, cols), ai[t:])]
                        urow = [(k, ui[k]) for k in compress(range(width), ui)]
                        dirty = True
                if dirty:
                    continue
            # clear row t right of the pivot; column t is zero below it
            # until a remainder is swapped in
            at = a[t]
            right = list(compress(range(t + 1, cols), at[t + 1:]))
            if right:
                colrows = [at]
                vtt = vt[t]
                vcol = [(k, vtt[k]) for k in compress(range(cols), vtt)]
                for j in right:
                    q = at[j] // at[t]
                    for r in colrows:
                        r[j] -= q * r[t]
                    vj = vt[j]
                    for k, y in vcol:
                        vj[k] -= q * y
                    if at[j]:
                        for r in a[t:]:
                            r[t], r[j] = r[j], r[t]
                        vt[t], vt[j] = vj, vt[t]
                        colrows = [r for r in a[t:] if r[t]]
                        vcol = [(k, vj[k]) for k in compress(range(cols), vj)]
                        dirty = True
                if dirty:
                    continue
            # the pivot must divide the rest of the block; if not, fold
            # the first offending row into row t and run the passes again
            p = at[t]
            if p == 1:
                break
            offender = next((i for i in range(t + 1, rows)
                             if any(x % p for x in filter(None, a[i][t + 1:]))), None)
            if offender is None:
                break
            ao, uo, ut = a[offender], u[offender], u[t]
            for k in compress(range(t + 1, cols), ao[t + 1:]):
                at[k] += ao[k]
            for k in compress(range(width), uo):
                ut[k] += uo[k]

    diag = [a[i][i] for i in range(min(rows, cols))]
    for x, y in zip(diag, diag[1:]):
        if x and y % x:
            raise ValidationError(
                "certificate failed: _snf_integer: the diagonal is a divisor chain")
    return SmithForm(Matrix._reduced(A.ring, rows, width, tuple(map(tuple, u))),
                     tuple(map(tuple, vt)), tuple(diag))


def eliminate(A: Matrix, carry: Matrix | None = None) -> SmithForm:
    """Smith normal form over the matrix's own ring, computed afresh:
    ``_snf_integer`` over Z, ``_snf_modular`` over Z/n and F_p.  For a
    matrix built once and read once; ``snf`` is the memoized form.

    Every row operation is applied to ``carry``, a matrix with the rows
    of A, so the form holds U carry in place of U; None carries the
    identity.  A solver carries its right-hand side b and reads the
    solution from U b (``SmithForm.read``), or carries a matrix with no
    columns when it reads only the kernel."""
    if carry is not None and (carry.rows != A.rows or carry.ring != A.ring):
        raise DimensionMismatchError("the carried matrix must share A's rows and ring")
    if A.ring.kind == Ring.INTEGERS:
        return _snf_integer(A, carry)
    return _snf_modular(A, carry)


@lru_cache(maxsize=1 << 15)
def snf(A: Matrix) -> SmithForm:
    """Smith normal form over the matrix's own ring, memoized: matrices
    are immutable values, and relation matrices and the kernel, cokernel
    and coordinate systems of the library recur."""
    return eliminate(A)


def _snf_modular(A: Matrix, carry: Matrix | None = None) -> SmithForm:
    """Smith form over Z/n (F_p is the case n = p) by elimination over
    local rings.

    n splits by CRT into parts Z/q with q = p^k.  Over Z/q every residue
    is a unit times a power of p, so the pivot -- the first entry, in
    row-major order, of least gcd with q -- divides its whole block.
    Scaled by a unit to exactly p^e, it clears its column and its row in
    one pass each.  The systems met here are large and sparse, so the
    work follows the nonzero entries: the pivot search skips zeros at C
    speed, and rows found zero from the pivot column on, which no pass
    writes to again, are not searched again; each pass reads the nonzero
    entries of the pivot row of A and of U (row pass) or of the pivot
    column of V (column pass) once and updates only those positions.

    For n = p^k the one part is the answer.  Otherwise the parts are
    joined by the CRT idempotents, each pivot row scaled by a unit so
    that the diagonal holds the divisors of n in a chain
    d_1 | d_2 | ... | n (n itself is stored as 0); over Z/1 there is no
    part and U, D and V are zero.  The row operations act on ``carry``,
    the identity unless one is given (``eliminate``), and the join
    combines its rows into the form's U.  Every entry ends in
    [0, n), so U is built by the trusted ``Matrix._reduced``.  Not
    memoized, like ``_snf_integer``.
    """
    ring = A.ring
    n = ring.modulus
    rows, cols = A.rows, A.cols
    m = min(rows, cols)
    if carry is None:
        carry = Matrix.identity(ring, rows)
    width = carry.cols
    parts = []
    for q in ring._prime_power_parts():
        # for n = p^k the entries are already residues mod q
        a = [list(r) if q == n else [x % q for x in r] for r in A.entries]
        u = [list(r) if q == n else [x % q for x in r] for r in carry.entries]
        vt = [[0] * cols for _ in range(cols)]  # columns of V
        for j, r in enumerate(vt):
            r[j] = 1
        diag = [q] * m
        # live[i]: row i may be nonzero from column t on.  A row that is
        # zero there has a zero in every pivot column to come, so no row
        # pass touches it, and column swaps only permute its zeros.
        live = [True] * rows
        for t in range(m):
            g, pi, pj = q, -1, -1
            for i in compress(range(t, rows), live[t:]):
                row = a[i]
                tail = row[t:]
                if not any(tail):
                    live[i] = False
                    continue
                # only the nonzero entries of the row can be the pivot
                for j in compress(range(t, cols), tail):
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
            live[t], live[pi] = live[pi], live[t]
            if pj != t:
                # rows above t are zero in every column from t on
                for r in a[t:]:
                    r[t], r[pj] = r[pj], r[t]
                vt[t], vt[pj] = vt[pj], vt[t]
            at, ut, vtt = a[t], u[t], vt[t]
            w = pow(at[t] // g, -1, q)
            # nonzero (index, value) pairs of the pivot rows, scaled by w
            arow = [(j, at[j] * w % q) for j in compress(range(t, cols), at[t:])]
            urow = [(k, ut[k] * w % q) for k in compress(range(width), ut)]
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
        _, U, Vt, d = parts[0]
    else:  # two or more primes, or none (Z/1, where everything is 0)
        d = [math.prod(part[3][t] for part in parts) for t in range(m)]
        U = [[0] * width for _ in range(rows)]
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
    # d holds the pivots in [1, n]: n is the zero of D
    return SmithForm(Matrix._reduced(ring, rows, width, tuple(map(tuple, U))),
                     tuple(map(tuple, Vt)), tuple(d))


def inverse(U: Matrix) -> Matrix:
    """Two-sided inverse of a square matrix over its ring.

    If U' U V' = I is the Smith form of U, then U^{-1} = V' U'.  Raises
    PreconditionFailedError when U is not invertible (a pivot is not 1).
    """
    if U.rows != U.cols:
        raise DimensionMismatchError("inverse needs a square matrix")
    form = snf(U)
    if any(d != 1 for d in form.pivots(U.rows)):
        raise PreconditionFailedError(f"matrix is not invertible over {U.ring}")
    return form.V * form.U


def solve_linear(A: Matrix, B: Matrix) -> Matrix | None:
    """One exact solution X of A X = B, or None if some column of B has
    none (``SmithForm.solve`` on the memoized form of A)."""
    return snf(A).solve(B)


def kernel_basis(A: Matrix) -> Matrix:
    """Columns generating {x : A x = 0} over A's ring
    (``SmithForm.kernel`` on the memoized form of A)."""
    return snf(A).kernel()


def invariant_factors_of(A: Matrix) -> tuple:
    """Invariant factors of the cokernel of A as an abelian group, with
    the relation n = 0 adjoined for residue rings: the Smith pivots with
    the 1s dropped, each 0 standing for a free summand over Z.

    This is the canonical presentation-independent fingerprint used for
    module isomorphism tests.
    """
    return tuple(d for d in snf(A).pivots(A.rows) if d != 1)
