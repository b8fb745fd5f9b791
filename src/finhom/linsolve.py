"""Solving for unknown module maps under linear side conditions.

Sections, retractions, homotopies, lifts: all of them are matrices
constrained by equations of the shape

    sum_k  coef_k * (A_k · U_{h_k} · B_k)  =  rhs   (mod relation span)

which vectorize to one exact linear system over the base ring via
vec(A U B) = (B^T kron A) vec(U).  The system is written directly from
the nonzero entries of A and B, with no identity, transpose or
Kronecker matrix formed, and only its nonzero entries are reduced and
kept, row by row (``SparseRows``).  Working modulo a relation span adds
a slack unknown per equation.  Each call builds a fresh system that is
eliminated once, and its Smith form is not memoized.

Over Z/n and F_p the rows go to the sparse elimination as they are
(``smith.eliminate_modular``), which applies its row operations to the
right-hand side b instead of building U and never forms V: one
deterministic solution is read from U b by back-substitution through
the kept pivot rows (``Echelon.read``, the rule of ``solve_linear``),
and the full solution module of the homogeneous problem, with nothing
carried, from the same rows (``Echelon.kernel_columns``, the rule of
``kernel_basis``).  Over Z the rows are made dense for ``eliminate``
and read by ``SmithForm.read`` and ``SmithForm.kernel_columns``.

Solutions are flat vectors over all unknowns, slack included, each
unknown stacked column by column at its handle's offset.  A caller reads
only the unknowns it wants, with ``value``, so no slack unknown is ever
built as a matrix, and kernel vectors can be combined before any map is
built from them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import Matrix
from .rings import Ring
from .smith import eliminate, eliminate_modular


def _nonzero(M: Matrix) -> list:
    """(row, column, entry) for every nonzero entry of M."""
    return [(i, k, a) for i, row in enumerate(M.entries) for k, a in enumerate(row) if a]


@dataclass(frozen=True, slots=True)
class SparseRows:
    """A system's matrix kept by rows: ``entries[i]`` maps the column of
    each nonzero entry of row i to that entry, in normal form.  The
    elimination over Z/n works in the dicts, so a system is read once."""

    ring: Ring
    rows: int
    cols: int
    entries: list

    def matrix(self) -> Matrix:
        """The same matrix, dense."""
        data = []
        for r in self.entries:
            row = [0] * self.cols
            for k, x in r.items():
                row[k] = x
            data.append(tuple(row))
        return Matrix._reduced(self.ring, self.rows, self.cols, tuple(data))


@dataclass(frozen=True)
class Handle:
    """An unknown: its rows x cols entries sit column by column from
    ``offset`` on in every solution vector."""

    rows: int
    cols: int
    offset: int


class MatrixEquationSolver:
    def __init__(self, ring: Ring):
        self.ring = ring
        self._unknowns: list[Handle] = []
        self._equations: list = []  # (terms, rhs Matrix) with exact equality
        self._total = 0  # entries of all unknowns, the length of a solution

    # -- unknowns ----------------------------------------------------------

    def add_unknown_matrix(self, rows: int, cols: int) -> Handle:
        h = Handle(rows, cols, self._total)
        self._unknowns.append(h)
        self._total += rows * cols
        return h

    def add_unknown_map(self, source, target) -> Handle:
        """Unknown matrix of a map source -> target; well-definedness on
        the source relations is added automatically."""
        h = self.add_unknown_matrix(target.gens, source.gens)
        if source.relations.cols > 0:
            self.add_equation(
                [(1, None, h, source.relations)],
                Matrix.zero(self.ring, target.gens, source.relations.cols),
                mod_relations=target.relations,
            )
        return h

    # -- equations ------------------------------------------------------------

    def add_equation(self, terms, rhs: Matrix, mod_relations: Matrix | None = None):
        """terms: list of (coef, left Matrix|None, Handle, right Matrix|None)."""
        if mod_relations is not None and mod_relations.cols > 0:
            slack = self.add_unknown_matrix(mod_relations.cols, rhs.cols)
            terms = list(terms) + [(-1, mod_relations, slack, None)]
        self._equations.append((list(terms), rhs))

    def require_composite_equals(self, outer, inner, result):
        """outer o inner = result (as morphisms), one factor an unknown."""
        if isinstance(outer, Handle) and not isinstance(inner, Handle):
            terms = [(1, None, outer, inner.matrix)]
        elif isinstance(inner, Handle) and not isinstance(outer, Handle):
            terms = [(1, outer.matrix, inner, None)]
        else:
            raise TypeError("exactly one factor must be an unknown handle")
        self.add_equation(terms, result.matrix, mod_relations=result.target.relations)

    # -- assembly -----------------------------------------------------------------

    def _build(self):
        """The system A x = b of all equations, written entry by entry:
        (A by rows, b, the offsets of the unknowns, their total size).

        Row i + m*j of an equation (m = rhs.rows) is entry (i, j) of its
        vectorized left side; column h.offset + k + h.rows*l is entry (k, l)
        of unknown h.  By vec(L U R) = (R^T kron L) vec(U), a term adds
        coef * L[i][k] * R[l][j] there; a missing L or R is the identity,
        so only k = i or l = j occurs.  Each row collects its sums by
        column, and only those are reduced; A keeps them as sparse rows
        (``SparseRows``), and b is a column Matrix.
        """
        ring = self.ring
        n = ring.modulus
        rows = []
        rhs_entries = []
        for terms, rhs in self._equations:
            m = rhs.rows
            block = [{} for _ in range(m * rhs.cols)]
            for coef, left, h, right in terms:
                hr = h.rows
                lpairs = (_nonzero(left) if left is not None
                          else [(i, i, 1) for i in range(hr)])
                rpairs = (_nonzero(right) if right is not None
                          else [(j, j, 1) for j in range(h.cols)])
                off = h.offset
                for l, j, r in rpairs:
                    c = coef * r
                    col0 = off + hr * l
                    for i, k, a in lpairs:
                        sums = block[i + m * j]
                        sums[col0 + k] = sums.get(col0 + k, 0) + c * a
            if n:
                rows.extend({k: y for k, x in sums.items() if (y := x % n)} for sums in block)
            else:
                rows.extend({k: x for k, x in sums.items() if x} for sums in block)
            rhs_entries.extend(rhs.vec())
        A = SparseRows(ring, len(rows), self._total, rows)
        b = Matrix._reduced(ring, len(rhs_entries), 1, tuple((x,) for x in rhs_entries))
        return A, b, [h.offset for h in self._unknowns], self._total

    # -- solving ---------------------------------------------------------------------

    def solve(self):
        """One deterministic solution vector, or None."""
        A, b, _, _ = self._build()
        if self.ring.kind == Ring.INTEGERS:
            form = eliminate(A.matrix(), b)
            x = form.read(form.U)
            return None if x is None else x.col(0)
        return eliminate_modular(self.ring, A.entries, A.cols, b).read()

    def solution_basis(self):
        """Vectors generating the homogeneous solution module (rhs forced
        to 0), as column tuples."""
        A, _, _, _ = self._build()
        nothing = Matrix.zero(self.ring, A.rows, 0)
        if self.ring.kind == Ring.INTEGERS:
            return eliminate(A.matrix(), nothing).kernel_columns()
        return eliminate_modular(self.ring, A.entries, A.cols, nothing).kernel_columns()

    def value(self, vec, h: Handle) -> Matrix:
        """The matrix a solution vector gives the unknown h.  vec holds
        reduced entries, column by column, so row i of h is every
        h.rows-th entry of its slice from i on; nothing is read outside
        the slice."""
        part = vec[h.offset: h.offset + h.rows * h.cols]
        return Matrix._reduced(self.ring, h.rows, h.cols,
                               tuple(part[i::h.rows] for i in range(h.rows)))
