"""Solving for unknown module maps under linear side conditions.

Sections, retractions, homotopies, lifts: all of them are matrices
constrained by equations of the shape

    sum_k  coef_k * (A_k · U_{h_k} · B_k)  =  rhs   (mod relation span)

which vectorize to one exact linear system over the base ring via
vec(A U B) = (B^T kron A) vec(U).  Working modulo a relation span adds a
slack unknown per equation.  The combined system is handed to
``solve_linear`` (one deterministic solution) or ``kernel_basis`` (the
full solution module of the homogeneous problem).
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import Matrix
from .rings import Ring
from .smith import kernel_basis, solve_linear


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
        ring = self.ring
        offs, total = self._offsets()
        rows_blocks = []
        rhs_entries = []
        for terms, rhs in self._equations:
            m = rhs.rows * rhs.cols
            block = [[0] * total for _ in range(m)]
            for coef, left, h, right in terms:
                left_m = left if left is not None else Matrix.identity(ring, h.rows)
                right_m = right if right is not None else Matrix.identity(ring, h.cols)
                kron = right_m.transpose().kronecker(left_m).scale(coef)
                off = offs[h.index]
                for i in range(kron.rows):
                    row = block[i]
                    ke = kron.entries[i]
                    for j in range(kron.cols):
                        if ke[j]:
                            row[off + j] = ring.add(row[off + j], ke[j])
            rows_blocks.extend(block)
            rhs_entries.extend(rhs.vec())
        A = Matrix(ring, len(rows_blocks), total, rows_blocks)
        b = Matrix.column(ring, rhs_entries)
        return A, b, offs, total

    def _extract(self, vec, offs):
        from .modules import ModuleMap

        out = {}
        for h, meta, off in zip(self._unknowns, self._unknown_meta, offs):
            m = Matrix.unvec(self.ring, h.rows, h.cols, vec[off: off + h.rows * h.cols])
            if meta is not None:
                out[h] = ModuleMap(meta[0], meta[1], m, check=False)
            else:
                out[h] = m
        return out

    # -- solving ---------------------------------------------------------------------

    def solve(self):
        """One deterministic solution as {handle: ModuleMap|Matrix}, or None."""
        A, b, offs, total = self._build()
        x = solve_linear(A, b)
        if x is None:
            return None
        return self._extract([x.entries[i][0] for i in range(total)], offs)

    def solution_basis(self):
        """Generators of the homogeneous solution module (rhs forced to 0)."""
        A, _, offs, total = self._build()
        K = kernel_basis(A)
        out = []
        for j in range(K.cols):
            col = [K.entries[i][j] for i in range(total)]
            out.append(self._extract(col, offs))
        return out
