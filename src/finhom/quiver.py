"""Quasi-coherent modules over ring-valued quiver representations.

A representation assigns one of the supported rings to each vertex of a
finite directed graph and a unital ring map to each edge; since every
supported ring is generated by 1, an edge map exists exactly when the
target modulus divides the source's (with Z allowed as a source), and
is then unique.

A module over a representation carries a finitely presented module per
vertex and an additive, source-linear map per edge.  Quasi-coherence is
the condition that every edge's base-change map

    R(w) tensor_{R(v)} M(v)  ->  M(w)

is an isomorphism; the first failing edge is returned as a witness.
Flatness is tested vertexwise.  The cardinality of a module is the sum
of its vertex module sizes (the size of the disjoint union).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import (
    BudgetExceededError,
    NotInClassError,
    UnsupportedRingError,
    ValidationError,
)
from .functors import is_flat
from .kaplansky import KaplanskyConfig
from .matrix import Matrix
from .modules import FpModule, ModuleMap, element_in_submodule, quotient, submodule
from .rings import Ring


def ring_map_exists(src: Ring, tgt: Ring) -> bool:
    """A unital ring map src -> tgt exists iff 1 keeps its additive
    order: always from Z, and from Z/n exactly onto Z/m with m | n."""
    if src.modulus is None:
        return True
    if tgt.modulus is None:
        return False
    return src.modulus % tgt.modulus == 0


@dataclass(frozen=True)
class QuiverEdge:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class QuiverRep:
    """A functor from a finite quiver to the supported commutative rings."""

    vertices: Tuple[str, ...]
    vertex_rings: Dict[str, Ring]
    edges: Tuple[QuiverEdge, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex names")
        for v in self.vertices:
            if v not in self.vertex_rings:
                raise ValidationError(f"vertex {v} has no ring")
        names = set()
        for e in self.edges:
            if e.name in names:
                raise ValidationError(f"duplicate edge name {e.name}")
            names.add(e.name)
            if e.source not in self.vertex_rings or e.target not in self.vertex_rings:
                raise ValidationError(f"edge {e.name} touches an unknown vertex")
            if not ring_map_exists(self.ring_at(e.source), self.ring_at(e.target)):
                raise ValidationError(
                    f"edge {e.name}: no unital ring map "
                    f"{self.ring_at(e.source)} -> {self.ring_at(e.target)}")

    def ring_at(self, v: str) -> Ring:
        return self.vertex_rings[v]

    def edge_is_flat(self, e: QuiverEdge) -> bool:
        """Whether the target ring is flat as a module over the source."""
        src, tgt = self.ring_at(e.source), self.ring_at(e.target)
        as_module = _ring_as_module_over(tgt, src)
        return is_flat(as_module)


def _ring_as_module_over(tgt: Ring, src: Ring) -> FpModule:
    """The target ring as a cyclic module over the source ring."""
    if tgt.modulus is None:
        return FpModule.free(src, 1)
    return FpModule.cyclic(src, tgt.modulus)


def base_change(M: FpModule, tgt_ring: Ring) -> FpModule:
    """tgt tensor_{src} M for the unique ring map: reduce the relation
    matrix into the target ring (right exactness of tensor)."""
    rel = M.relations.change_ring(tgt_ring)
    return FpModule(tgt_ring, M.gens, rel)


@dataclass
class QuiverRepModule:
    rep: QuiverRep
    vertex_modules: Dict[str, FpModule]
    edge_maps: Dict[str, Matrix]  # generator-coordinate matrices, additive maps

    def __post_init__(self):
        for v in self.rep.vertices:
            M = self.vertex_modules.get(v)
            if M is None or M.ring != self.rep.ring_at(v):
                raise ValidationError(f"vertex {v}: missing or wrong-ring module")
        for e in self.rep.edges:
            m = self.edge_maps.get(e.name)
            Mv = self.vertex_modules[e.source]
            Mw = self.vertex_modules[e.target]
            if m is None:
                raise ValidationError(f"edge {e.name} has no map")
            if (m.rows, m.cols) != (Mw.gens, Mv.gens):
                raise ValidationError(f"edge {e.name}: map has the wrong shape")
            # source-linearity on generators: relations of M(v) must die,
            # which also forces n x = 0 compatibility for Z/n sources
            lifted = m.lift_to_integers()
            rel = Mv.relations.lift_to_integers()
            moved = lifted * rel
            for j in range(moved.cols):
                if not Mw.element_is_zero(moved.col(j)):
                    raise ValidationError(
                        f"edge {e.name}: map does not kill source relations")
            src_ring = self.rep.ring_at(e.source)
            if src_ring.modulus is not None:
                scaled = lifted.scale(src_ring.modulus)
                for j in range(scaled.cols):
                    if not Mw.element_is_zero(scaled.col(j)):
                        raise ValidationError(
                            f"edge {e.name}: map is not linear over {src_ring}")

    def module_at(self, v: str) -> FpModule:
        return self.vertex_modules[v]

    def edge_matrix(self, e: QuiverEdge) -> Matrix:
        return self.edge_maps[e.name]


def is_quasi_coherent(M: QuiverRepModule) -> Tuple[bool, Optional[str]]:
    """Whether every edge base-change map is an isomorphism; returns the
    first failing edge name as witness."""
    for e in M.rep.edges:
        tgt_ring = M.rep.ring_at(e.target)
        Mv = M.module_at(e.source)
        Mw = M.module_at(e.target)
        B = base_change(Mv, tgt_ring)
        canonical = ModuleMap(B, Mw, M.edge_matrix(e).change_ring(tgt_ring),
                              check=False)
        if not canonical.is_iso():
            return False, e.name
    return True, None


def quasi_coherence_bruteforce(M: QuiverRepModule) -> Tuple[bool, Optional[str]]:
    """Independent oracle: check bijectivity of each canonical map by
    enumerating elements (finite vertex rings only)."""
    for e in M.rep.edges:
        tgt_ring = M.rep.ring_at(e.target)
        if not tgt_ring.is_finite:
            raise UnsupportedRingError("brute-force check needs finite vertex rings")
        Mv = M.module_at(e.source)
        Mw = M.module_at(e.target)
        B = base_change(Mv, tgt_ring)
        mat = M.edge_matrix(e).change_ring(tgt_ring)
        images = {Mw.canonical_element(mat.apply(x)) for x in B.elements()}
        all_elements = set(Mw.elements())
        injective = len({B.canonical_element(x) for x in B.elements()}) == len(images)
        surjective = images == all_elements
        if not (injective and surjective):
            return False, e.name
    return True, None


def is_flat_rep_module(M: QuiverRepModule) -> bool:
    return all(is_flat(M.module_at(v)) for v in M.rep.vertices)


def rep_cardinality(M: QuiverRepModule) -> Optional[int]:
    """Sum of the vertex module sizes; None stands for infinite.

    The zero representation module reports 0 rather than the number of
    vertices (each contributing its singleton zero)."""
    if all(M.module_at(v).is_zero_module() for v in M.rep.vertices):
        return 0
    total = 0
    for v in M.rep.vertices:
        s = M.module_at(v).size()
        if s is None:
            return None
        total += s
    return total


def sub_rep_module(M: QuiverRepModule, gens: Dict[str, Matrix]) -> QuiverRepModule:
    """The sub-representation-module generated degreewise; requires the
    generator spans to be closed under the edge maps."""
    mods = {}
    incls = {}
    for v in M.rep.vertices:
        S, incl = submodule(M.module_at(v), gens[v])
        mods[v] = S
        incls[v] = incl
    emaps = {}
    for e in M.rep.edges:
        Mw = M.module_at(e.target)
        moved = M.edge_matrix(e).change_ring(Mw.ring) * \
            incls[e.source].matrix.lift_to_integers().change_ring(Mw.ring)
        cols = []
        for j in range(moved.cols):
            c = element_in_submodule(Mw, incls[e.target].matrix, moved.col(j))
            if c is None:
                raise ValidationError("sub-module generators are not edge-closed")
            cols.append(tuple(c.col(0)))
        emaps[e.name] = (Matrix(Mw.ring, mods[e.target].gens, len(cols),
                                [list(r) for r in zip(*cols)])
                         if cols else Matrix.zero(Mw.ring, mods[e.target].gens, 0))
    return QuiverRepModule(M.rep, mods, emaps)


def quotient_rep_module(M: QuiverRepModule, gens: Dict[str, Matrix]) -> QuiverRepModule:
    mods = {}
    for v in M.rep.vertices:
        Q, _ = quotient(M.module_at(v), gens[v])
        mods[v] = Q
    emaps = {e.name: M.edge_maps[e.name] for e in M.rep.edges}
    return QuiverRepModule(M.rep, mods, emaps)


@dataclass
class QuiverWitness:
    sub: QuiverRepModule
    quotient: QuiverRepModule
    gens: Dict[str, Matrix]
    cardinality: Optional[int]

    def revalidate(self, ambient: QuiverRepModule) -> bool:
        ok_sub = is_flat_rep_module(self.sub) and is_quasi_coherent(self.sub)[0]
        ok_quot = is_flat_rep_module(self.quotient) and \
            is_quasi_coherent(self.quotient)[0]
        return ok_sub and ok_quot


def quiver_kaplansky_witness(M: QuiverRepModule, seeds: Dict[str, Matrix],
                             cfg: KaplanskyConfig) -> QuiverWitness:
    """Grow a per-vertex seed into a flat quasi-coherent submodule with
    flat quasi-coherent quotient, by a deterministic greedy closure.

    Finite vertex rings only; the ambient must itself be flat and
    quasi-coherent.  The result is nonzero whenever the ambient is.
    """
    rep = M.rep
    for v in rep.vertices:
        if not rep.ring_at(v).is_finite:
            raise UnsupportedRingError("witness search needs finite vertex rings")
    if not is_flat_rep_module(M):
        raise NotInClassError("ambient representation module is not flat")
    qc, bad = is_quasi_coherent(M)
    if not qc:
        raise NotInClassError(f"ambient is not quasi-coherent (edge {bad})")

    gens = {v: seeds.get(v, Matrix.zero(rep.ring_at(v), M.module_at(v).gens, 0))
            for v in rep.vertices}
    if all(_all_zero(M.module_at(v), gens[v]) for v in rep.vertices):
        for v in rep.vertices:
            Mv = M.module_at(v)
            if not Mv.is_zero_module():
                first = next(x for x in Mv.elements() if any(c != 0 for c in x))
                gens[v] = gens[v].hstack(Matrix.column(Mv.ring, list(first)))
                break

    for _ in range(cfg.step_budget):
        _edge_closure(M, gens)
        problem = _witness_defect(M, gens)
        if problem is None:
            sub = sub_rep_module(M, gens)
            quot = quotient_rep_module(M, gens)
            return QuiverWitness(sub, quot, dict(gens), rep_cardinality(sub))
        v = problem
        Mv = M.module_at(v)
        enlarged = False
        for x in Mv.elements():
            if element_in_submodule(Mv, gens[v], x) is None:
                gens[v] = gens[v].hstack(Matrix.column(Mv.ring, list(x)))
                enlarged = True
                break
        if not enlarged:
            # vertex is saturated; move on by enlarging the next vertex
            for w in rep.vertices:
                Mw = M.module_at(w)
                for x in Mw.elements():
                    if element_in_submodule(Mw, gens[w], x) is None:
                        gens[w] = gens[w].hstack(Matrix.column(Mw.ring, list(x)))
                        enlarged = True
                        break
                if enlarged:
                    break
        if not enlarged:
            sub = sub_rep_module(M, gens)
            quot = quotient_rep_module(M, gens)
            return QuiverWitness(sub, quot, dict(gens), rep_cardinality(sub))
    raise BudgetExceededError("quiver witness search exceeded its budget")


def _all_zero(M: FpModule, gens: Matrix) -> bool:
    return all(M.element_is_zero(gens.col(j)) for j in range(gens.cols))


def _edge_closure(M: QuiverRepModule, gens: Dict[str, Matrix]):
    """Close the generator spans under the edge maps (deterministic:
    vertices in representation order)."""
    changed = True
    while changed:
        changed = False
        for e in M.rep.edges:
            Mw = M.module_at(e.target)
            moved = M.edge_matrix(e).change_ring(Mw.ring) * \
                gens[e.source].lift_to_integers().change_ring(Mw.ring)
            for j in range(moved.cols):
                if element_in_submodule(Mw, gens[e.target], moved.col(j)) is None:
                    gens[e.target] = gens[e.target].hstack(
                        Matrix.column(Mw.ring, list(moved.col(j))))
                    changed = True


def _witness_defect(M: QuiverRepModule, gens: Dict[str, Matrix]) -> Optional[str]:
    """The first vertex witnessing a failure of the four requirements,
    or None when the current spans give a valid witness."""
    for v in M.rep.vertices:
        S, _ = submodule(M.module_at(v), gens[v])
        if not is_flat(S):
            return v
        Q, _ = quotient(M.module_at(v), gens[v])
        if not is_flat(Q):
            return v
    try:
        sub = sub_rep_module(M, gens)
    except ValidationError:
        return M.rep.vertices[0]
    ok, bad_edge = is_quasi_coherent(sub)
    if not ok:
        return _edge_source(M, bad_edge)
    quot = quotient_rep_module(M, gens)
    ok, bad_edge = is_quasi_coherent(quot)
    if not ok:
        return _edge_source(M, bad_edge)
    return None


def _edge_source(M: QuiverRepModule, edge_name: str) -> str:
    for e in M.rep.edges:
        if e.name == edge_name:
            return e.source
    return M.rep.vertices[0]
