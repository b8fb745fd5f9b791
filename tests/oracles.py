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
* ``split_epi_projective``: M is projective when the canonical epi from
  the free module on its generators splits, a section found by the
  linear solver; ``is_projective`` reads the invariant factors instead.
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
    homology,
    is_null_homotopic,
    pushout_chainmaps,
)
from finhom.cotorsion import CTILDE, DG_C_RIGHT, DG_F_LEFT, complex_class_member
from finhom.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    FactorizationObstructedError,
    UnsupportedRingError,
)
from finhom.kaplansky import Cell, KaplanskyConfig, Witness
from finhom.matrix import Matrix
from finhom.model import TRIVCOF_THEN_FIB, ModelStructureSpec
from finhom.modules import (
    FpModule,
    ModuleMap,
    element_in_submodule,
    find_section,
    hom_module,
    quotient,
    submodule,
)


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
        diffs[n + 1] = ModuleMap(top, Q.module_at(n),
                                 Q.diff(n + 1).matrix.hstack(z), check=False)
        if (n + 2) in Q.differentials:
            up = Q.diff(n + 2)
            diffs[n + 2] = ModuleMap(up.source, top, up.matrix.vstack(
                Matrix.zero(ring, z.cols, up.source.gens)), check=False)
        Q2 = ChainComplex(ring, objs, diffs)
        icomps = {}
        for m in Q.support:
            qm = Q.module_at(m)
            if m == n + 1:
                icomps[m] = ModuleMap(qm, top, Matrix.identity(ring, qm.gens).vstack(
                    Matrix.zero(ring, z.cols, qm.gens)), check=False)
            elif qm.gens:
                icomps[m] = ModuleMap(qm, Q2.module_at(m),
                                      Matrix.identity(ring, qm.gens), check=False)
        step = ChainMap(Q, Q2, icomps, check=False)
        pcomps = {}
        for m in Q2.support:
            pm = p.component_at(m).matrix
            if m == n + 1 and Y.module_at(m).gens:
                pm = pm.hstack(Matrix.zero(ring, Y.module_at(m).gens, z.cols))
            if Y.module_at(m).gens:
                pcomps[m] = ModuleMap(Q2.module_at(m), Y.module_at(m), pm,
                                      check=False)
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
        yield ModuleMap.zero_map(M, N)
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


def greedy_witness(F: FpModule, cls, seed: Matrix, cfg: KaplanskyConfig) -> Witness:
    """A witness for ``cls`` around the seed, grown one element of F at a
    time in canonical element order.  Finite rings only."""
    ring = F.ring
    size = F.size()
    if size is None:
        raise BudgetExceededError("greedy witness needs a finite module")
    elements = list(F.elements())
    gens = seed
    if F.columns_vanish(gens) and not F.is_zero_module():
        first = next(e for e in elements if any(x != 0 for x in e))
        gens = _append_col(ring, F.gens, gens, first)
    steps = 0
    while True:
        S, incl = submodule(F, gens)
        Q = quotient(F, gens)
        if cls.contains(S) and cls.contains(Q):
            return Witness(S, incl, Q, True, True, S.gens)
        steps += 1
        if steps > cfg.step_budget:
            raise BudgetExceededError("witness search exceeded the step budget",
                                      partial=(S, Q))
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


def split_epi_projective(M: FpModule) -> bool:
    """Whether the canonical epi (free of rank gens) ->> M splits."""
    if M.relations.cols == 0:
        return True  # literally free
    p = ModuleMap(FpModule.free(M.ring, M.gens), M,
                  Matrix.identity(M.ring, M.gens), check=False)
    return find_section(p) is not None
