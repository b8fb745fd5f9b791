"""Smith normal form and the linear-algebra kernels built on it.

Everything else in the library reduces to the operations implemented
here: ``snf`` (diagonalization U A V = D with invertible U, V and a
divisibility chain on D), ``inverse``, ``solve_linear`` (one
deterministic solution of A X = B, column by column, or None),
``kernel_basis`` (generators of {x : A x = 0}) and
``invariant_factors_of``.

Each ring family has one elimination.  Over Z, ``_snf_integer`` works
with arbitrary precision; its pivot is the entry of smallest nonzero
absolute value, ties broken by row then column order.  Its work follows
the nonzero entries: the pivot search skips zeros, and each pass updates
only the positions where the pivot row (of A and U) or the pivot column
(of A and V) is nonzero.  Over Z/n and F_p, ``eliminate_modular``
eliminates over the local parts Z/p^k of n with all arithmetic reduced,
so entries never grow; its pivot is the first entry, in row-major order,
of least p-valuation.  It is sparse throughout: a row is a dict of its
nonzero entries, an index from each column to its rows finds the rows a
pivot clears, the order of rows and columns is kept as permutations,
and each scaled pivot row is kept (``Echelon``) instead of being
cleared, so V is never formed while it runs.  ``_snf_modular`` runs it
on a Matrix and builds V from the kept rows; a linear solver hands it
its sparse rows and reads V y by back-substitution through the same
rows, with no V at all.  The CRT join of the parts runs only when n has
two or more prime factors, and U, whose entries are already reduced, is
built by the trusted ``Matrix._reduced``.

A form keeps U, the columns of V and the diagonal of D; the row-major V
and D are built only when asked for.  One rule reads a solution
(``SmithForm.read``): from U B and the pivots, the combination of the
columns of V by the Smith coordinates that are not zero; over Z/n the
solvers apply the same rule by back-substitution (``Echelon.read``).
``snf`` memoizes forms, for the matrices the library reads again and
again: relation matrices, and the kernel, cokernel and coordinate
systems.  ``eliminate`` computes a form afresh, for matrices that are
built once and read once.  Both eliminations apply the row operations
to a carried matrix in place of the identity: a solver carries its
right-hand side b, so U itself is never formed, or a matrix with no
columns when it reads only the kernel.

One rule reads the diagonal everywhere (``SmithForm.pivots``): a zero or
missing pivot counts as n over Z/n, and as 0 over Z.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd
from operator import add, itemgetter
from typing import NamedTuple

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
    matrix built once and read once; ``snf`` is the memoized form, and
    the linear solvers over Z/n run ``eliminate_modular`` on their
    sparse rows directly.

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


class Echelon(NamedTuple):
    """The row half of a modular elimination (``eliminate_modular``).

    ``UC`` holds the rows of U C for the carried matrix C, reduced, and
    ``pivot_row`` the diagonal of D, as in ``SmithForm``.  ``parts`` holds,
    for each part q = p^k of n, the CRT idempotent e (1 when n = q), the
    column order ``col_at`` of its elimination (``col_at[j]`` is the column
    of A at position j), and one step (pc, mult) per pivot: the pivot
    column, and a dict from the column c of every other nonzero entry a_c
    of the pivot row, scaled so that the pivot is g = p^e, to a_c / g.

    V is the product of the column passes, column c minus a_c / g times
    column pc, and V^-1 is the unit upper triangular matrix whose row pc
    is the scaled pivot row divided by g, and whose other rows are those
    of the identity.  So V y is read by back-substitution (``times_v``),
    and V itself is built only when asked for (``vcols``).
    """

    ring: Ring
    cols: int
    UC: tuple
    pivot_row: tuple
    parts: tuple

    def times_v(self, ys) -> list:
        """V y for each y in ``ys``, a dict from position to coordinate.

        In each part, by back-substitution on all of them at once: x at
        the column of every position j past the pivots is y_j, and then
        x[pc_t] = y_t minus the sum of (a_c / g_t) x[c], for t = r-1, ...,
        0.  Row c of the solutions is kept as a dict from the index of y
        to its nonzero entry, so the work follows the nonzero entries.
        The parts are joined by their idempotents."""
        n, cols = self.ring.modulus, self.cols
        out = [[0] * cols for _ in ys]
        for q, e, col_at, steps in self.parts:
            at = {}  # position -> {index of y: y at that position mod q}
            for k, y in enumerate(ys):
                for t, v in y.items():
                    if v % q:
                        at.setdefault(t, {})[k] = v % q
            r = len(steps)
            x = [None] * cols  # x[c]: row c of the solutions
            for t, row in at.items():
                if t >= r:
                    x[col_at[t]] = row
            for t in range(r - 1, -1, -1):
                pc, mult = steps[t]
                s = at.get(t)
                s = dict(s) if s else {}
                for c, f in mult.items():
                    xc = x[c]
                    if xc:
                        for k, v in xc.items():
                            s[k] = s.get(k, 0) - f * v
                if s:
                    x[pc] = {k: w for k, v in s.items() if (w := v % q)}
            for c, row in enumerate(x):
                if row:
                    for k, v in row.items():
                        out[k][c] += e * v
        if len(self.parts) == 1:
            return list(map(tuple, out))
        return [tuple(v % n for v in r) for r in out]

    def read(self):
        """The solution x of A x = c for the one carried column c, as a
        tuple, or None: the rule of ``SmithForm.read``, with V y formed by
        ``times_v``."""
        y = {}
        for t, ((c,), d) in enumerate(zip(self.UC, self.pivot_row)):
            if c % d:
                return None
            if c:
                y[t] = c // d
        if any(c for (c,) in self.UC[len(self.pivot_row):]):
            return None
        return self.times_v([y])[0]

    def kernel_columns(self) -> list:
        """The rule of ``SmithForm.kernel_columns``: column j of V, formed
        by ``times_v``, times n / d_j, for every position j where that is
        not 0."""
        n, cols = self.ring.modulus, self.cols
        d = self.pivot_row + (n,) * (cols - len(self.pivot_row))
        ys = [{j: ann} for j in range(cols) if (ann := n // d[j] % n)]
        return self.times_v(ys)

    def vcols(self) -> tuple:
        """The columns of V, in position order, built by the column passes
        themselves: at each step, column c minus a_c / g times column pc."""
        n, cols = self.ring.modulus, self.cols
        out = None
        for q, e, col_at, steps in self.parts:
            vt = [[0] * cols for _ in range(cols)]
            for j, r in enumerate(vt):
                r[j] = 1
            for pc, mult in steps:
                if not mult:
                    continue
                vp = vt[pc]
                vrow = [(k, vp[k]) for k in compress(range(cols), vp)]
                for c, f in mult.items():
                    vc = vt[c]
                    for k, z in vrow:
                        vc[k] = (vc[k] - f * z) % q
            vt = [vt[c] for c in col_at]
            if e == 1:
                return tuple(map(tuple, vt))
            vt = [[e * v for v in r] for r in vt]
            out = vt if out is None else [list(map(add, x, y)) for x, y in zip(out, vt)]
        if out is None:  # Z/1
            return ((0,) * cols,) * cols
        return tuple(tuple(v % n for v in r) for r in out)


def eliminate_modular(ring: Ring, rows: list, cols: int, carry: Matrix | None = None) -> Echelon:
    """Smith elimination over Z/n (F_p is the case n = p) of the matrix
    whose row i has the nonzero entries ``rows[i]``, a dict from column to
    residue.  The dicts are handed over: for n = p^k the elimination
    works in them.

    n splits by CRT into parts Z/q with q = p^k.  Over Z/q every residue
    is a unit times a power of p, so the pivot -- the entry of least gcd
    with q, first in row-major order -- divides its whole block.  Scaled
    by a unit to exactly p^e, it clears its column by one row pass; its
    row needs no pass, because the row is kept (``Echelon``) and V is
    read from the kept rows.  The work follows the nonzero entries: a
    row emptied is searched no more, the rows a pivot clears are found by
    an index from each column to the rows that may hold it, and the order
    of rows and columns is kept as two permutations, so a swap moves no
    entry.  The pivots and the operations are those of the dense
    elimination kept as the reference in the tests, so U C, D and V are
    bit-identical to it.

    The row operations act on ``carry``, a matrix with one row per row of
    A, or the identity if it is None.  For n = p^k the one part is the
    answer.  Otherwise the parts are joined by the CRT idempotents, each
    pivot row scaled by a unit so that the diagonal holds the divisors of
    n in a chain d_1 | d_2 | ... | n (n itself is the zero of D); over
    Z/1 there is no part and everything is 0.
    """
    n = ring.modulus
    nrows = len(rows)
    m = min(nrows, cols)
    width = nrows if carry is None else carry.cols
    parts, joined = [], []
    for q in ring._prime_power_parts():
        # for n = p^k the entries are already residues mod q
        a = rows if q == n else [{c: x % q for c, x in r.items() if x % q} for r in rows]
        if carry is None:
            u = [[0] * nrows for _ in range(nrows)]
            for i, r in enumerate(u):
                r[i] = 1
        else:
            u = [list(r) if q == n else [x % q for x in r] for r in carry.entries]
        order = list(range(nrows))   # the row at each position
        col_at = list(range(cols))   # the column at each position
        pos = col_at[:]              # the position of each column
        # the rows that may be nonzero, by position: a row once zero is
        # never written to again, and is dropped when the search meets it
        live = [i for i in range(nrows) if a[i]]
        index = defaultdict(list)  # column -> rows that may hold it
        for i in live:
            for c in a[i]:
                index[c].append(i)
        done = {}  # the row of a pivot, once taken out
        steps, diag = [], []
        for t in range(m):
            # least gcd with q, then first row, then first column; a row
            # with a unit ends the search at its first unit
            g, k, pc = q, -1, -1
            dead = []
            for s, i in enumerate(live):
                r = a[i]
                if not r:
                    dead.append(s)
                    continue
                units = [c for c, x in r.items() if gcd(x, q) == 1]
                if units:
                    g, k = 1, s
                    pc = col_at[min(map(pos.__getitem__, units))] if len(units) > 1 else units[0]
                    break
                for c, x in r.items():
                    if x % g:
                        g, k, pc = gcd(x, q), s, c
                    elif k == s and pos[c] < pos[pc] and gcd(x, q) == g:
                        pc = c
            if dead:
                for s in reversed(dead):
                    del live[s]
                k -= sum(1 for s in dead if s < k)
            if k < 0:
                break
            pr, old = live[k], order[t]
            pi = order.index(pr, t)
            order[t], order[pi] = pr, old
            # the row that was at t, if not zero, now sits where pr sat
            if k and live[0] == old:
                live[k] = old
                del live[0]
            else:
                del live[k]
            pj, ct = pos[pc], col_at[t]
            col_at[t], col_at[pj], pos[pc], pos[ct] = pc, ct, t, pj
            prow, a[pr] = a[pr], done
            x = prow[pc]
            ut = u[pr]
            if x == g:
                urow = [(j, ut[j]) for j in compress(range(width), ut)]
            else:  # scale the pivot row by a unit to make the pivot g
                w = pow(x // g, -1, q)
                prow = {c: x * w % q for c, x in prow.items()}
                urow = [(j, ut[j] * w % q) for j in compress(range(width), ut)]
                for j, y in urow:
                    ut[j] = y
            del prow[pc]
            for i in index.pop(pc):
                ai = a[i]
                x = ai.pop(pc, None)
                if x is None:  # no longer there, or a pivot row
                    continue
                f = x // g
                for c, y in prow.items():
                    z = ai.get(c)
                    if z is None:
                        z = -f * y % q
                        if z:
                            ai[c] = z
                            index[c].append(i)
                    else:
                        z = (z - f * y) % q
                        if z:
                            ai[c] = z
                        else:
                            del ai[c]
                ui = u[i]
                for j, y in urow:
                    ui[j] = (ui[j] - f * y) % q
            steps.append((pc, prow if g == 1 else {c: y // g for c, y in prow.items()}))
            diag.append(g)
        diag += [q] * (m - len(diag))  # q is the zero of Z/q
        e = n // q * pow(n // q, -1, q) if q != n else 1  # 1 mod q, 0 mod the others
        parts.append((q, e, col_at, steps))
        joined.append((u, order, diag))

    if len(parts) == 1:
        u, order, d = joined[0]
        UC = tuple(map(tuple, map(u.__getitem__, order)))
    else:  # two or more primes, or none (Z/1, where everything is 0)
        d = [math.prod(diag[t] for _, _, diag in joined) for t in range(m)]
        UC = [[0] * width for _ in range(nrows)]
        for (_, e, _, _), (u, order, diag) in zip(parts, joined):
            for t, i in enumerate(order):
                s = e * (d[t] // diag[t]) if t < m else e
                UC[t] = [x + s * y for x, y in zip(UC[t], u[i])]
        UC = tuple(tuple(x % n for x in r) for r in UC)
    # d holds the pivots in [1, n]: n is the zero of D
    return Echelon(ring, cols, UC, tuple(d), tuple(parts))


def _snf_modular(A: Matrix, carry: Matrix | None = None) -> SmithForm:
    """Smith form over Z/n and F_p: ``eliminate_modular`` on the nonzero
    entries of A's rows, with V built from the kept pivot rows.  The row
    operations act on ``carry``, the identity unless one is given
    (``eliminate``).  Every entry ends in [0, n), so U is built by the
    trusted ``Matrix._reduced``.  Not memoized, like ``_snf_integer``."""
    rows = [dict(compress(enumerate(r), r)) for r in A.entries]
    e = eliminate_modular(A.ring, rows, A.cols, carry)
    width = A.rows if carry is None else carry.cols
    return SmithForm(Matrix._reduced(A.ring, A.rows, width, e.UC), e.vcols(), e.pivot_row)


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
