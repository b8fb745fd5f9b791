"""Solving for unknown module maps under linear side conditions.

Sections, retractions, homotopies, lifts: all of them are matrices
constrained by equations of the shape

    sum_k  coef_k * (A_k · U_{h_k} · B_k)  =  rhs   (mod relation span)

which vectorize to one exact linear system over the base ring via
vec(A U B) = (B^T kron A) vec(U).  The system is written directly from
the entries of A and B, with no identity, transpose or Kronecker matrix
formed.  Working modulo a relation span adds a slack unknown per
equation.  The combined system is eliminated once, by ``eliminate``,
for one deterministic solution (``SmithForm.solve``, the rule of
``solve_linear``) or the full solution module of the homogeneous problem
(``SmithForm.kernel``, the rule of ``kernel_basis``).  Each call builds
a fresh system that is read once, so its Smith form is not memoized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import Matrix
from .rings import Ring
from .smith import eliminate


def _nonzero(M: Matrix) -> list:
    """(row, column, entry) for every nonzero entry of M."""
    return [(i, k, a) for i, row in enumerate(M.entries) for k, a in enumerate(row) if a]


@dataclass(frozen=True)
class Handle:
    index: int
    rows: int
    cols: int


class MatrixEquationSolver:
    def __init__(self, ring: Ring):
        self.ring = ring
        self._unknowns: list[Handle] = []
        self._unknown_meta: list = []  # (source, target) for map unknowns, else None
        self._equations: list = []  # (terms, rhs Matrix) with exact equality

    # -- unknowns ----------------------------------------------------------

    def add_unknown_matrix(self, rows: int, cols: int) -> Handle:
        h = Handle(len(self._unknowns), rows, cols)
        self._unknowns.append(h)
        self._unknown_meta.append(None)
        return h

    def add_unknown_map(self, source, target) -> Handle:
        """Unknown ModuleMap source -> target; well-definedness on the
        source relations is added automatically."""
        h = Handle(len(self._unknowns), target.gens, source.gens)
        self._unknowns.append(h)
        self._unknown_meta.append((source, target))
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

    def _offsets(self):
        offs = []
        total = 0
        for h in self._unknowns:
            offs.append(total)
            total += h.rows * h.cols
        return offs, total

    def _build(self):
        """The system A x = b of all equations, written entry by entry.

        Row i + m*j of an equation (m = rhs.rows) is entry (i, j) of its
        vectorized left side; column off + k + h.rows*l is entry (k, l) of
        unknown h.  By vec(L U R) = (R^T kron L) vec(U), a term adds
        coef * L[i][k] * R[l][j] there; a missing L or R is the identity,
        so only k = i or l = j occurs.  Sums are reduced once, by Matrix.
        """
        ring = self.ring
        offs, total = self._offsets()
        rows_blocks = []
        rhs_entries = []
        for terms, rhs in self._equations:
            m = rhs.rows
            block = [[0] * total for _ in range(m * rhs.cols)]
            for coef, left, h, right in terms:
                hr = h.rows
                lpairs = (_nonzero(left) if left is not None
                          else [(i, i, 1) for i in range(hr)])
                rpairs = (_nonzero(right) if right is not None
                          else [(j, j, 1) for j in range(h.cols)])
                off = offs[h.index]
                for l, j, r in rpairs:
                    c = coef * r
                    col0 = off + hr * l
                    for i, k, a in lpairs:
                        block[i + m * j][col0 + k] += c * a
            rows_blocks.extend(block)
            rhs_entries.extend(rhs.vec())
        A = Matrix(ring, len(rows_blocks), total, rows_blocks)
        b = Matrix.column(ring, rhs_entries)
        return A, b, offs, total

    def _extract(self, vec, offs):
        from .modules import ModuleMap

        out = {}
        for h, meta, off in zip(self._unknowns, self._unknown_meta, offs):
            # vec holds reduced entries, column by column: row i of the
            # unknown is every h.rows-th entry of its slice from i on
            part = vec[off: off + h.rows * h.cols]
            m = Matrix._reduced(self.ring, h.rows, h.cols,
                                tuple(part[i::h.rows] for i in range(h.rows)))
            if meta is not None:
                out[h] = ModuleMap(meta[0], meta[1], m, check=False)
            else:
                out[h] = m
        return out

    # -- solving ---------------------------------------------------------------------

    def solve(self):
        """One deterministic solution as {handle: ModuleMap|Matrix}, or None."""
        A, b, offs, _ = self._build()
        x = eliminate(A).solve(b)
        if x is None:
            return None
        return self._extract(x.col(0), offs)

    def solution_basis(self):
        """Generators of the homogeneous solution module (rhs forced to 0)."""
        A, _, offs, _ = self._build()
        return [self._extract(col, offs) for col in eliminate(A).kernel().transpose().entries]
