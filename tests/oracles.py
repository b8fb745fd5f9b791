"""Oracles kept outside the library: they check finhom from outside and
cannot drift with the code they check.

* ``pushout_oracle``: a cell square is a pushout when the canonical map
  from the pushout built by ``pushout_chainmaps`` to the next stage is an
  isomorphism of complexes.  ``Cell.verify_pushout`` decides the same
  question degree by degree without building the pushout.
* ``soa_factor_map``: the budgeted literal small object argument, which
  glues cells from the generating families round by round; its
  factorizations are compared with ``model.factor_map``.
* ``all_module_maps``: every module map between two modules over a
  finite ring, by brute force; lifts found by the library are compared
  with the ones it enumerates.
* ``exact_oracle``: exactness as every homology module built by
  ``homology`` and found zero; ``is_exact`` decides it by one membership
  test per degree without building the homology.
* ``dg_family_oracle``: dg-class membership as the degreewise test
  followed by null-homotopy tests against a finite family of disks; the
  library decides the dg classes by the degreewise test alone.
* ``dense_product_oracle``: the matrix product as a dot product of every
  row of A with every column of B, read from B's transpose; ``Matrix``
  multiplies row-sparsely, without the transpose.
* ``greedy_witness``: a Kaplansky witness over a finite ring by walking
  every element of F in canonical order, adding the first one outside S
  until S and F/S lie in the class; ``kaplansky_witness`` saturates the
  seed by one Smith form instead.
* ``greedy_quiver_witness``: the same walk for a module over a quiver
  representation with finite vertex rings, element by element at the
  first vertex that fails, each step closed under the edge maps;
  ``quiver_kaplansky_witness`` saturates, pushes and lifts vertex spans
  to a fixed point instead.
* ``split_epi_projective``: M is projective when the canonical epi from
  the free module on its generators splits, a section found by the
  linear solver; ``is_projective`` reads the invariant factors instead.
* ``chain_hom_gens_oracle``: the generators of the chain-map module as
  one chain map per solution basis vector, every unknown of the vector
  read, slack included, and zero maps dropped by ``is_zero_map``;
  ``chain_hom_gens`` tests the vectors for zero and builds maps only for
  the ones it keeps.
* ``ext_oracle`` and ``tor_oracle``: Ext^n(M, N) and Tor_n(M, N) as the
  (co)homology of Hom(F, N) and F (x) N, F a syzygy resolution of M's own
  presentation and each induced map a Kronecker product;
  ``ext_n``/``tor_n`` read both modules as sums of cyclic modules on
  their invariant factors instead.
"""

from dataclasses import dataclass
from itertools import product
from operator import mul as _times

from finhom.complexes import (
    ChainComplex,
    ChainMap,
    _stacked_map,
    chain_hom_gens,
    disk,
    disk_cover,
    graded_map_solver,
    homology,
    is_null_homotopic,
    pushout_chainmaps,
)
from finhom.cotorsion import CTILDE, DG_C_RIGHT, DG_F_LEFT, complex_class_member
from finhom.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    FactorizationObstructedError,
    NotInClassError,
    PreconditionFailedError,
    UnsupportedRingError,
    ValidationError,
)
from finhom.functors import free_resolution, is_flat
from finhom.kaplansky import Cell, Witness
from finhom.matrix import Matrix
from finhom.model import TRIVCOF_THEN_FIB, ModelStructureSpec
from finhom.modules import (
    FpModule,
    ModuleMap,
    find_section,
    hom_module,
    quotient,
    submodule,
    subquotient,
)
from finhom.quiver import (
    QuiverRepModule,
    QuiverWitness,
    is_flat_rep_module,
    is_quasi_coherent,
    quotient_rep_module,
    rep_cardinality,
    sub_rep_module,
)
from helpers import element_in_submodule, zero_map


def pushout_oracle(cell: Cell) -> bool:
    """Universal-property check: the square commutes and the canonical
    map from the computed pushout to the next stage is an isomorphism."""
    if not cell.step_inclusion.compose(cell.attaching).equals(
            cell.image.compose(cell.generating_mono)):
        return False
    P, inj_src, inj_new, universal = pushout_chainmaps(
        cell.generating_mono, cell.attaching)
    theta = universal(cell.image, cell.step_inclusion)
    return theta.is_iso()


@dataclass
class SOAFactorization:
    """Output of the budgeted literal small-object-argument mode: the
    same contract as the deterministic path, plus the round count."""

    original: ChainMap
    i: ChainMap
    p: ChainMap
    mode: str
    rounds: int
    cells_attached: int


def soa_factor_map(f: ChainMap, mode: str, spec: ModelStructureSpec,
                   round_budget: int = 16) -> SOAFactorization:
    """Factor f by literally gluing cells from the windowed generating
    families, one round at a time, until the right-hand certificate
    holds.

    Kept for demonstration and cross-validation against the deterministic
    path (the i-parts have isomorphic cokernel homology, not necessarily
    equal complexes).  Termination is a budget, not a theorem: over
    rings without finite free resolutions the rounds can provably never
    close and the budget surfaces as an error.
    """
    X, Y = f.source, f.target
    ring = spec.ring
    Q = X
    i = ChainMap.identity(X)
    p = f
    cells = 0
    for rnd in range(1, round_budget + 1):
        if not p.is_epi():
            # glue one disk cell per target generator: the canonical
            # squares of the generating (trivial) cofibrations 0 -> D^n
            D, sigma = disk_cover(Y)
            Q2 = ChainComplex.direct_sum(Q, D)
            step = _stacked_map(Q, Q2, [ChainMap.identity(Q), ChainMap.zero_map(Q, D)],
                                into_sum=True, check=False)
            i = step.compose(i)
            p = _stacked_map(Q2, Y, [p, sigma], into_sum=False)
            Q = Q2
            cells += sum(1 for n in Y.support if Y.module_at(n).gens)
            continue
        K, kincl = p.kernel_subcomplex()
        if mode == TRIVCOF_THEN_FIB:
            ok, _ = complex_class_member(K, DG_C_RIGHT, spec.pair)
            if ok:
                return SOAFactorization(f, i, p, mode, rnd, cells)
            raise FactorizationObstructedError(
                "SOA rounds cannot repair a degreewise kernel class failure")
        # CofThenTrivFib: the kernel must become exact with right-class
        # cycles; kill the lowest nonvanishing kernel homology
        defect = None
        for n in range(K.lo, K.hi + 1):
            H = homology(K, n)
            if not H.is_zero_module():
                defect = n
                break
        if defect is None:
            ok, _ = complex_class_member(K, CTILDE, spec.pair)
            if ok:
                return SOAFactorization(f, i, p, mode, rnd, cells)
            raise FactorizationObstructedError(
                "SOA rounds cannot repair a kernel cycle class failure")
        n = defect
        zgens = K.diff(n).kernel_gens()
        H = homology(K, n)
        canonH, _, fro = H.canonical_form()
        reps = []
        for j in range(canonH.gens):
            coeff = fro.matrix.submatrix(range(H.gens), [j])
            in_k = zgens * coeff     # a cycle of K at degree n
            in_q = kincl.component_at(n).matrix * in_k
            reps.append(tuple(in_q.col(0)))
        if not reps:
            continue
        z = Matrix(ring, Q.module_at(n).gens, len(reps),
                   [list(r) for r in zip(*reps)])
        # glue S^n(R^k) -> D^{n+1}(R^k) along the cycle representatives
        objs = dict(Q.objects)
        free_k = FpModule.free(ring, z.cols)
        top = FpModule.direct_sum(Q.module_at(n + 1), free_k)
        objs[n + 1] = top
        diffs = dict(Q.differentials)
        diffs[n + 1] = Q.diff(n + 1).matrix.hstack(z)
        if (n + 2) in Q.differentials:
            up = Q.diff(n + 2)
            diffs[n + 2] = up.matrix.vstack(Matrix.zero(ring, z.cols, up.source.gens))
        Q2 = ChainComplex(ring, objs, diffs)
        icomps = {}
        for m in Q.support:
            qm = Q.module_at(m)
            if m == n + 1:
                icomps[m] = Matrix.identity(ring, qm.gens).vstack(
                    Matrix.zero(ring, z.cols, qm.gens))
            elif qm.gens:
                icomps[m] = Matrix.identity(ring, qm.gens)
        step = ChainMap(Q, Q2, icomps, check=False)
        pcomps = {}
        for m in Q2.support:
            pm = p.component_at(m).matrix
            if m == n + 1 and Y.module_at(m).gens:
                pm = pm.hstack(Matrix.zero(ring, Y.module_at(m).gens, z.cols))
            if Y.module_at(m).gens:
                pcomps[m] = pm
        i = step.compose(i)
        p = ChainMap(Q2, Y, pcomps)
        Q = Q2
        cells += z.cols
    raise BudgetExceededError(
        f"small object argument did not close within {round_budget} rounds")


def exact_oracle(X: ChainComplex) -> bool:
    """Whether every homology module of X is zero, each one built as a
    subquotient; raises ValidationError where the boundaries of a
    non-complex leave the cycles."""
    return all(homology(X, n).is_zero_module() for n in X.support)


def all_module_maps(M: FpModule, N: FpModule):
    """Every module map M -> N, by brute force.  Finite rings only.

    Enumerates all coefficient combinations of the Hom generators; used
    as the independent oracle for lift existence.
    """
    ring = M.ring
    if not ring.is_finite:
        raise UnsupportedRingError("cannot enumerate maps over Z")
    H, gens = hom_module(M, N)
    if not gens:
        yield zero_map(M, N)
        return
    n = ring.modulus
    seen = set()
    for coeffs in product(range(n), repeat=len(gens)):
        m = Matrix.zero(ring, N.gens, M.gens)
        for c, g in zip(coeffs, gens):
            if c:
                m = m + g.matrix.scale(c)
        key = tuple(N.canonical_element(m.col(j)) for j in range(m.cols))
        if key in seen:
            continue
        seen.add(key)
        yield ModuleMap(M, N, m, check=False)


def dg_family_oracle(X: ChainComplex, cls: str, pair):
    """(verdict, homotopy tests) of X in DgFLeft or DgCRight, decided by
    the degreewise test and then, for a degreewise member, by testing
    that every chain map X -> E (DgFLeft) or E -> X (DgCRight) is
    null-homotopic, for E running over the disks on the other side's
    sample modules across X's support widened by one degree each way.

    For DgFLeft the family consists of CTilde members (disks on right
    class modules); for DgCRight of FTilde members (disks on left class
    modules).  Each homotopy test is recorded as (repr(E), all null)."""
    pred = pair.left.contains if cls == DG_F_LEFT else pair.right_member
    member = True
    for n in X.support:
        ok = pred(X.module_at(n))
        member = member and ok
    homotopy_tests = []
    if member:
        mods = pair.right_samples() if cls == DG_F_LEFT else pair.left_samples()
        test_family = []
        for n in range(X.lo - 1, X.hi + 2):
            for M in mods:
                D = disk(n, M)
                if not D.is_zero_complex():
                    test_family.append(D)
        for E in test_family:
            if cls == DG_F_LEFT:
                gens = chain_hom_gens(X, E)
            else:
                gens = chain_hom_gens(E, X)
            all_null = all(is_null_homotopic(g) is not None for g in gens)
            homotopy_tests.append((repr(E), all_null))
            member = member and all_null
    return member, homotopy_tests


def dense_product_oracle(self: Matrix, other: Matrix) -> Matrix:
    """self * other, each entry a dot product with a column of other."""
    self._check_ring(other)
    if self.cols != other.rows:
        raise DimensionMismatchError(
            f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
        )
    norm = self.ring.normalize
    ot = other.transpose().entries
    return Matrix._reduced(self.ring, self.rows, other.cols, tuple(
        tuple(norm(sum(map(_times, ra, rc))) for rc in ot)
        for ra in self.entries))


def greedy_witness(F: FpModule, cls, seed: Matrix, steps: int) -> Witness:
    """A witness for ``cls`` around the seed, grown one element of F at a
    time in canonical element order, within ``steps`` additions.  Finite
    rings only."""
    ring = F.ring
    size = F.size()
    if size is None:
        raise BudgetExceededError("greedy witness needs a finite module")
    elements = list(F.elements())
    gens = seed
    if F.columns_vanish(gens) and not F.is_zero_module():
        first = next(e for e in elements if any(x != 0 for x in e))
        gens = _append_col(ring, F.gens, gens, first)
    taken = 0
    while True:
        S, incl = submodule(F, gens)
        Q = quotient(F, gens)
        if cls.contains(S) and cls.contains(Q):
            return Witness(S, incl, Q, True, True, S.gens)
        taken += 1
        if taken > steps:
            raise BudgetExceededError("witness search exceeded its step bound")
        added = False
        for e in elements:
            if element_in_submodule(F, gens, e) is None:
                gens = _append_col(ring, F.gens, gens, e)
                added = True
                break
        if not added:
            # S = F: quotient is zero, which every class contains
            return Witness(S, incl, Q, cls.contains(S), cls.contains(Q), S.gens)


def _append_col(ring, rows, m: Matrix, col) -> Matrix:
    return m.hstack(Matrix.column(ring, list(col)))


def greedy_quiver_witness(M: QuiverRepModule, seeds, steps: int) -> QuiverWitness:
    """Grow a per-vertex seed into a flat quasi-coherent submodule with
    flat quasi-coherent quotient, by a deterministic greedy closure of
    at most ``steps`` enlargements.

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
    if all(M.module_at(v).columns_vanish(gens[v]) for v in rep.vertices):
        for v in rep.vertices:
            Mv = M.module_at(v)
            if not Mv.is_zero_module():
                first = next(x for x in Mv.elements() if any(c != 0 for c in x))
                gens[v] = gens[v].hstack(Matrix.column(Mv.ring, list(first)))
                break

    for _ in range(steps):
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


def _edge_closure(M: QuiverRepModule, gens):
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


def _witness_defect(M: QuiverRepModule, gens):
    """The first vertex witnessing a failure of the four requirements,
    or None when the current spans give a valid witness."""
    for v in M.rep.vertices:
        S, _ = submodule(M.module_at(v), gens[v])
        if not is_flat(S):
            return v
        if not is_flat(quotient(M.module_at(v), gens[v])):
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


def split_epi_projective(M: FpModule) -> bool:
    """Whether the canonical epi (free of rank gens) ->> M splits."""
    if M.relations.cols == 0:
        return True  # literally free
    p = ModuleMap(FpModule.free(M.ring, M.gens), M,
                  Matrix.identity(M.ring, M.gens), check=False)
    return find_section(p) is not None


def chain_hom_gens_oracle(X: ChainComplex, Y: ChainComplex) -> list:
    """The nonzero chain maps X -> Y of the solution basis of the
    commuting squares, each read unknown by unknown into a ChainMap."""
    solver, handles = graded_map_solver(X, Y, 0)
    gens = []
    for vec in solver.solution_basis():
        values = {h: solver.value(vec, h) for h in solver._unknowns}
        gens.append(ChainMap(X, Y, {n: values[h] for n, h in handles.items()}, check=False))
    return [g for g in gens if not g.is_zero_map()]


def _hom_into(N: FpModule, rank: int) -> FpModule:
    """Hom(R^rank, N) = N^rank."""
    if rank == 0:
        return FpModule.zero(N.ring)
    return FpModule.direct_sum(*[N] * rank)


def _hom_induced(d: ModuleMap, N: FpModule) -> ModuleMap:
    """Precomposition Hom(target(d), N) -> Hom(source(d), N)."""
    r_tgt = d.target.gens
    r_src = d.source.gens
    m = d.matrix.transpose().kronecker(Matrix.identity(N.ring, N.gens))
    return ModuleMap(_hom_into(N, r_tgt), _hom_into(N, r_src), m, check=False)


def _tensor_induced(d: ModuleMap, N: FpModule) -> ModuleMap:
    """d tensor id_N on free modules."""
    m = d.matrix.kronecker(Matrix.identity(N.ring, N.gens))
    return ModuleMap(_hom_into(N, d.source.gens), _hom_into(N, d.target.gens), m, check=False)


def _ext_data(M: FpModule, N: FpModule, n: int):
    """(Hom(F_n, N), cycle generators, boundary generators) of the
    cochain complex Hom(F, N) at degree n, F a free resolution of M."""
    if n < 0:
        raise PreconditionFailedError("ext degree must be >= 0")
    if M.ring != N.ring:
        raise PreconditionFailedError("modules must share a ring")
    res = free_resolution(M, n + 1)
    delta_next = _hom_induced(res[n + 1], N)  # Hom(F_n,N) -> Hom(F_{n+1},N)
    ambient = delta_next.source
    zgens = delta_next.kernel_gens()
    if n == 0:
        bgens = Matrix.zero(M.ring, ambient.gens, 0)
    else:
        bgens = _hom_induced(res[n], N).matrix
    return ambient, zgens, bgens


def ext_oracle(M: FpModule, N: FpModule, n: int) -> FpModule:
    """Ext^n(M, N) from a free resolution of M."""
    return subquotient(*_ext_data(M, N, n))


def _tor_data(M: FpModule, N: FpModule, n: int):
    """(F_n ox N, cycle generators, boundary generators) of the complex
    F ox N at degree n, F a free resolution of M."""
    if n < 0:
        raise PreconditionFailedError("tor degree must be >= 0")
    if M.ring != N.ring:
        raise PreconditionFailedError("modules must share a ring")
    res = free_resolution(M, n + 1)
    incoming = _tensor_induced(res[n + 1], N)  # F_{n+1} ox N -> F_n ox N
    ambient = incoming.target
    if n == 0:
        zgens = Matrix.identity(M.ring, ambient.gens)
    else:
        outgoing = _tensor_induced(res[n], N)
        zgens = outgoing.kernel_gens()
    return ambient, zgens, incoming.matrix


def tor_oracle(M: FpModule, N: FpModule, n: int) -> FpModule:
    """Tor_n(M, N) from a free resolution of M."""
    return subquotient(*_tor_data(M, N, n))
