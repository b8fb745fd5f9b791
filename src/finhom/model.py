"""Model-structure specifications on bounded complexes and their
factorization, lifting and verification machinery.

A structure is assembled from a cotorsion pair: weak equivalences are
the homology isomorphisms, (trivial) cofibrations the monos with
cokernel in the dg-left (left-exact) class, (trivial) fibrations the
epis with kernel in the dg-right (right-exact) class.

Factorizations are built deterministically rather than by the literal
small object argument:

* trivial-cofibration/fibration: pad with a disk cover of the target
  (the disks are cells for the generating trivial cofibrations);
* cofibration/trivial-fibration: the mapping cylinder when every entry
  of the cone is already in the left class, otherwise the cylinder is
  corrected by pulling back a Cartan-Eilenberg resolution of the cone.

Over rings where a needed free resolution does not terminate (Z/4 and
friends, for complexes with non-free homology) the second factorization
provably cannot exist within bounded finitely presented data: the
multiplicative Euler characteristic of a bounded free complex over Z/4
is a power of 4, while the certificates would force it to equal the
characteristic of the target.  Those cases raise
``FactorizationObstructedError`` instead of pretending.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .complexes import (
    ChainComplex,
    ChainMap,
    cone,
    cycles,
    cylinder,
    disk,
    disk_cover,
    homology,
    homology_table,
    is_exact,
    is_quasi_iso,
    pullback_chainmaps,
    pushout_chainmaps,
    subcomplex_from_gens,
    tensor_chain_maps,
    tensor_complexes,
)
from .cotorsion import (
    CTILDE,
    DG_C_RIGHT,
    DG_F_LEFT,
    FTILDE,
    ClassCertificate,
    CotorsionPairData,
    complex_class_member,
    flat_pair,
    induced_generating_monos,
    injective_pair,
    projective_pair,
)
from .errors import (
    BudgetExceededError,
    FactorizationObstructedError,
    PreconditionFailedError,
    UnsupportedRingError,
    ValidationError,
)
from .functors import free_resolution
from .kaplansky import Cell, CellChain, KaplanskyConfig, icell_decompose
from .linsolve import MatrixEquationSolver
from .matrix import Matrix
from .modules import FpModule, ModuleMap, element_in_submodule, submodule
from .rings import Ring
from .smith import kernel_basis

INJECTIVE_STRUCTURE = "InjectiveStructure"
PROJECTIVE_STRUCTURE = "ProjectiveStructure"
FLAT_STRUCTURE = "FlatStructure"


@dataclass(frozen=True)
class ModelStructureSpec:
    ring: Ring
    structure_id: str
    pair: CotorsionPairData
    cfg: KaplanskyConfig = KaplanskyConfig()

    def __post_init__(self):
        if self.structure_id == INJECTIVE_STRUCTURE and not self.ring.is_quasi_frobenius:
            raise UnsupportedRingError(
                "the injective structure needs a quasi-Frobenius ring")

    def generating_cofibrations(self, window) -> List[ChainMap]:
        return induced_generating_monos(self.pair, window)


def model_structure(structure_id: str, ring: Ring,
                    cfg: KaplanskyConfig = KaplanskyConfig()) -> ModelStructureSpec:
    if structure_id == PROJECTIVE_STRUCTURE:
        pair = projective_pair(ring)
    elif structure_id == FLAT_STRUCTURE:
        pair = flat_pair(ring)
    elif structure_id == INJECTIVE_STRUCTURE:
        pair = injective_pair(ring)
    else:
        raise PreconditionFailedError(f"unknown structure {structure_id}")
    return ModelStructureSpec(ring, structure_id, pair, cfg)


# -- classification ---------------------------------------------------------------------


@dataclass
class MapFlags:
    weq: bool
    cof: bool
    fib: bool
    triv_cof: bool
    triv_fib: bool
    certificates: Dict[str, ClassCertificate] = field(default_factory=dict)

    def as_dict(self):
        return {"weq": self.weq, "cof": self.cof, "fib": self.fib,
                "trivCof": self.triv_cof, "trivFib": self.triv_fib}


def classify_map(f: ChainMap, spec: ModelStructureSpec,
                 dg_tests: bool = True) -> MapFlags:
    """All five structure flags of a chain map, with class certificates.

    The identities trivial-cof = cof and weq, trivial-fib = fib and weq
    are recomputed from the definitions and cross-checked."""
    weq = is_quasi_iso(f)
    certs: Dict[str, ClassCertificate] = {}
    mono = f.is_mono()
    cof = triv_cof = False
    if mono:
        coker, _ = f.cokernel_complex()
        family = None if dg_tests else []
        cof, certs["cokernel-dg-left"] = complex_class_member(
            coker, DG_F_LEFT, spec.pair, test_family=family, gamma=spec.cfg.gamma)
        triv_cof, certs["cokernel-left-exact"] = complex_class_member(
            coker, FTILDE, spec.pair, gamma=spec.cfg.gamma)
    epi = f.is_epi()
    fib = triv_fib = False
    if epi:
        ker, _ = f.kernel_subcomplex()
        family = None if dg_tests else []
        fib, certs["kernel-dg-right"] = complex_class_member(
            ker, DG_C_RIGHT, spec.pair, test_family=family, gamma=spec.cfg.gamma)
        triv_fib, certs["kernel-right-exact"] = complex_class_member(
            ker, CTILDE, spec.pair, gamma=spec.cfg.gamma)
    assert triv_cof == (cof and weq), "trivial cofibration cross-check failed"
    assert triv_fib == (fib and weq), "trivial fibration cross-check failed"
    return MapFlags(weq, cof, fib, triv_cof, triv_fib, certs)


# -- factorization -----------------------------------------------------------------------


COF_THEN_TRIVFIB = "CofThenTrivFib"
TRIVCOF_THEN_FIB = "TrivCofThenFib"


@dataclass
class Factorization:
    original: ChainMap
    i: ChainMap
    p: ChainMap
    mode: str
    coker_certificate: ClassCertificate
    ker_certificate: ClassCertificate
    cell_chain: CellChain
    window: Tuple[int, int]

    def revalidate(self, spec: ModelStructureSpec) -> bool:
        if not self.p.compose(self.i).equals(self.original):
            return False
        coker, _ = self.i.cokernel_complex()
        ker, _ = self.p.kernel_subcomplex()
        if self.mode == COF_THEN_TRIVFIB:
            ok1, _ = complex_class_member(coker, DG_F_LEFT, spec.pair, test_family=[])
            ok2, _ = complex_class_member(ker, CTILDE, spec.pair)
            ok2 = ok2 and is_quasi_iso(self.p)
        else:
            ok1, _ = complex_class_member(coker, FTILDE, spec.pair)
            ok2, _ = complex_class_member(ker, DG_C_RIGHT, spec.pair, test_family=[])
        return ok1 and ok2 and self.i.is_mono() and self.p.is_epi()


def factor_map(f: ChainMap, mode: str, spec: ModelStructureSpec) -> Factorization:
    if mode == COF_THEN_TRIVFIB:
        return _factor_cof_trivfib(f, spec)
    if mode == TRIVCOF_THEN_FIB:
        return _factor_trivcof_fib(f, spec)
    raise PreconditionFailedError(f"unknown factorization mode {mode}")


def _factor_trivcof_fib(f: ChainMap, spec: ModelStructureSpec) -> Factorization:
    """f = (X -> X (+) D) then ((f, cover): X (+) D ->> Y) where D is the
    disk cover of Y: the first map's cokernel is a sum of disks on frees
    (exact with free cycles), the second is a degreewise epi."""
    X, Y = f.source, f.target
    ring = spec.ring
    D, sigma = disk_cover(Y)
    Q = ChainComplex.direct_sum(X, D)
    icomps = {}
    pcomps = {}
    for n in Q.support:
        xn, dn, qn = X.module_at(n), D.module_at(n), Q.module_at(n)
        im = Matrix.identity(ring, xn.gens).vstack(Matrix.zero(ring, dn.gens, xn.gens))
        if xn.gens:
            icomps[n] = ModuleMap(xn, qn, im, check=False)
        pm = f.component_at(n).matrix.hstack(sigma.component_at(n).matrix)
        if Y.module_at(n).gens:
            pcomps[n] = ModuleMap(qn, Y.module_at(n), pm, check=False)
    i = ChainMap(X, Q, icomps)
    p = ChainMap(Q, Y, pcomps)
    assert p.compose(i).equals(f)

    coker, _ = i.cokernel_complex()
    ok_coker, coker_cert = complex_class_member(coker, FTILDE, spec.pair,
                                                gamma=spec.cfg.gamma)
    ker, _ = p.kernel_subcomplex()
    ok_ker, ker_cert = complex_class_member(ker, DG_C_RIGHT, spec.pair,
                                            test_family=[], gamma=spec.cfg.gamma)
    if not ok_coker or not ok_ker:
        raise FactorizationObstructedError(
            "disk padding failed its certificates: "
            + coker_cert.describe() + " / " + ker_cert.describe())
    chain = _disk_padding_cells(i, X, Y, Q)
    window = (min(Q.lo, Y.lo), max(Q.hi, Y.hi))
    return Factorization(f, i, p, TRIVCOF_THEN_FIB, coker_cert, ker_cert, chain, window)


def _disk_padding_cells(i: ChainMap, X: ChainComplex, Y: ChainComplex,
                        Q: ChainComplex) -> CellChain:
    """Cells 0 -> D^m(R^{r_m}) for the direct-sum inclusion X -> X (+) D.

    The disk cover D is the sum over m of D^m(free^{r_m}) with r_m the
    generator count of Y_m; each stage glues one whole disk summand
    (both of its degrees) along the zero map, so every square is a
    genuine pushout of a generating trivial cofibration."""
    ring = Q.ring
    gens = {n: i.component_at(n).matrix for n in Q.support}
    stages = [X]
    cells: List[Cell] = []
    prev = X
    rank = {m: Y.module_at(m).gens for m in Y.support}

    def top_cols(m, r):
        # degree-m block of Q: [X_m | tops r_m | bottoms r_{m+1}]
        xn = X.module_at(m).gens
        width = Q.module_at(m).gens
        rows = [[0] * r for _ in range(width)]
        for k in range(r):
            rows[xn + k][k] = ring.one
        return Matrix(ring, width, r, rows)

    def bottom_cols(m, r):
        # bottoms of D^m sit after the tops of D^{m-1} in degree m-1
        offset = X.module_at(m - 1).gens + rank.get(m - 1, 0)
        width = Q.module_at(m - 1).gens
        rows = [[0] * r for _ in range(width)]
        for k in range(r):
            rows[offset + k][k] = ring.one
        return Matrix(ring, width, r, rows)

    for m in sorted(rank):
        r = rank[m]
        if r == 0:
            continue
        Dm = disk(m, FpModule.free(ring, r))
        new_gens = dict(gens)
        tc = top_cols(m, r)
        bc = bottom_cols(m, r)
        new_gens[m] = gens[m].hstack(tc)
        new_gens[m - 1] = gens.get(m - 1, Matrix.zero(
            ring, Q.module_at(m - 1).gens, 0)).hstack(bc)
        Snew, _ = subcomplex_from_gens(Q, new_gens)
        comps = {}
        for deg in prev.support:
            old = gens[deg].cols
            width = new_gens[deg].cols
            mm = Matrix.identity(ring, old).vstack(Matrix.zero(ring, width - old, old))
            comps[deg] = ModuleMap(prev.module_at(deg), Snew.module_at(deg), mm,
                                   check=False)
        step = ChainMap(prev, Snew, comps, check=False)
        gen_mono = ChainMap.zero_map(ChainComplex.zero(ring), Dm)
        attach = ChainMap.zero_map(ChainComplex.zero(ring), prev)
        # image: disk tops and bottoms onto the appended generators
        wm = Snew.module_at(m).gens
        wm1 = Snew.module_at(m - 1).gens
        image = ChainMap(Dm, Snew, {
            m: ModuleMap(Dm.module_at(m), Snew.module_at(m),
                         Matrix.zero(ring, wm - r, r).vstack(
                             Matrix.identity(ring, r)), check=False),
            m - 1: ModuleMap(Dm.module_at(m - 1), Snew.module_at(m - 1),
                             Matrix.zero(ring, wm1 - r, r).vstack(
                                 Matrix.identity(ring, r)), check=False),
        }, check=False)
        cells.append(Cell(gen_mono, attach, step, image, f"0 -> D^{m}(R^{r})"))
        stages.append(Snew)
        gens = new_gens
        prev = Snew
    last = stages[-1]
    if cells:
        final = ChainMap(last, Q,
                         {n: ModuleMap(last.module_at(n), Q.module_at(n), gens[n],
                                       check=False) for n in last.support},
                         check=False)
        assert final.is_iso()
    else:
        final = i
    return CellChain(i, stages, cells, final)


def _factor_cof_trivfib(f: ChainMap, spec: ModelStructureSpec) -> Factorization:
    """Cylinder factorization, corrected through a Cartan-Eilenberg
    resolution of the cone when the cone has entries outside the left
    class."""
    X, Y = f.source, f.target
    data = cylinder(f)
    C, quot = data.front.cokernel_complex()  # the cone, as a quotient of Cyl
    if _degreewise_in_left(C, spec):
        Q, i, p = data.complex, data.front, data.projection
    else:
        T, t = ce_trivial_fibration(C, spec)
        P, proj_cyl, proj_t, universal = pullback_chainmaps(quot, t)
        # X lands in the pullback via (front, 0): quot kills the front copy
        zero_to_t = ChainMap.zero_map(X, T)
        i = universal(data.front, zero_to_t)
        p = data.projection.compose(proj_cyl)
        Q = P
    assert p.compose(i).equals(f)

    coker, _ = i.cokernel_complex()
    ok_coker, coker_cert = complex_class_member(coker, DG_F_LEFT, spec.pair,
                                                test_family=[], gamma=spec.cfg.gamma)
    ker, _ = p.kernel_subcomplex()
    ok_ker, ker_cert = complex_class_member(ker, CTILDE, spec.pair,
                                            gamma=spec.cfg.gamma)
    if not ok_coker or not ok_ker:
        raise FactorizationObstructedError(
            "cylinder factorization failed its certificates: "
            + coker_cert.describe() + " / " + ker_cert.describe())
    assert is_quasi_iso(p)
    chain = icell_decompose(i, spec.cfg)
    window = (min(Q.lo, Y.lo), max(Q.hi, Y.hi))
    return Factorization(f, i, p, COF_THEN_TRIVFIB, coker_cert, ker_cert, chain, window)


def _degreewise_in_left(C: ChainComplex, spec: ModelStructureSpec) -> bool:
    return all(spec.pair.left.contains(C.module_at(n)) for n in C.support)


# -- literal small object argument (demonstration mode) -----------------------------------


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
            icomps = {}
            pcomps = {}
            for n in Q2.support:
                qn, dn = Q.module_at(n), D.module_at(n)
                im = Matrix.identity(ring, qn.gens).vstack(
                    Matrix.zero(ring, dn.gens, qn.gens))
                if qn.gens:
                    icomps[n] = ModuleMap(qn, Q2.module_at(n), im, check=False)
                pm = p.component_at(n).matrix.hstack(sigma.component_at(n).matrix)
                if Y.module_at(n).gens:
                    pcomps[n] = ModuleMap(Q2.module_at(n), Y.module_at(n), pm,
                                          check=False)
            step = ChainMap(Q, Q2, icomps, check=False)
            i = step.compose(i)
            p = ChainMap(Q2, Y, pcomps)
            Q = Q2
            cells += sum(1 for n in Y.support if Y.module_at(n).gens)
            continue
        K, kincl = p.kernel_subcomplex()
        if mode == TRIVCOF_THEN_FIB:
            ok, _ = complex_class_member(K, DG_C_RIGHT, spec.pair, test_family=[])
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


# -- Cartan-Eilenberg resolutions ---------------------------------------------------------


def _short_free_resolution(M: FpModule):
    """(P0, P1, eps, delta) with P1 -> P0 -> M exact, P robustly free and
    the resolution stopping after one step; obstructed rings raise."""
    res = free_resolution(M, 2)
    if res[2].source.gens != 0:
        leftover = kernel_basis(res[1].matrix)
        if leftover.cols:
            raise FactorizationObstructedError(
                f"{M!r} has no length-1 free resolution over {M.ring}; "
                "a bounded factorization with free entries cannot exist "
                "(multiplicative Euler characteristic obstruction)")
    return res[0].source, res[1].source, res[0], res[1]


def ce_trivial_fibration(Y: ChainComplex, spec: ModelStructureSpec):
    """(T, t) with T bounded and degreewise free and t: T ->> Y an epi
    quasi-isomorphism: the total complex of a two-row Cartan-Eilenberg
    resolution, spliced from resolutions of boundaries and homology."""
    ring = Y.ring
    if Y.is_zero_complex():
        Z = ChainComplex.zero(ring)
        return Z, ChainMap.zero_map(Z, Y)

    # per-degree short exact data
    datums = {}
    for n in Y.support:
        Yn = Y.module_at(n)
        Zm, zincl = cycles(Y, n)
        bgens = Y.diff(n + 1).matrix
        # boundaries as a submodule of the cycles
        bz_cols = []
        for j in range(bgens.cols):
            c = element_in_submodule(Yn, zincl.matrix, bgens.col(j))
            assert c is not None
            bz_cols.append(tuple(c.col(0)))
        b_in_z = (Matrix(ring, Zm.gens, len(bz_cols), [list(r) for r in zip(*bz_cols)])
                  if bz_cols else Matrix.zero(ring, Zm.gens, 0))
        Bm, bincl_z = submodule(Zm, b_in_z)
        Hm = FpModule(ring, Zm.gens, Zm.relations.hstack(b_in_z))
        datums[n] = {
            "Z": Zm, "zincl": zincl, "B": Bm, "binclz": bincl_z, "H": Hm,
        }

    # corestrictions Y_n ->> B_{n-1}
    for n in Y.support:
        if (n - 1) in datums:
            d = Y.diff(n)
            Bprev = datums[n - 1]["B"]
            prev_gens = datums[n - 1]["zincl"].matrix * datums[n - 1]["binclz"].matrix
            cols = []
            for j in range(d.matrix.cols):
                c = element_in_submodule(Y.module_at(n - 1), prev_gens, d.matrix.col(j))
                assert c is not None, "differentials land in boundaries"
                cols.append(tuple(c.col(0)))
            cor = (Matrix(ring, Bprev.gens, len(cols), [list(r) for r in zip(*cols)])
                   if cols else Matrix.zero(ring, Bprev.gens, 0))
            datums[n]["cor"] = ModuleMap(Y.module_at(n), Bprev, cor, check=False)

    # free resolutions and horseshoe splices per degree
    for n in Y.support:
        dat = datums[n]
        PB0, PB1, epsB, deltaB = _short_free_resolution(dat["B"])
        PH0, PH1, epsH, deltaH = _short_free_resolution(dat["H"])
        Zm = dat["Z"]
        # H shares generators with Z: epsH columns are Z-coordinates
        lift_h = epsH.matrix
        z0 = FpModule.free(ring, PB0.gens + PH0.gens)
        epsZ_m = (dat["binclz"].matrix * epsB.matrix).hstack(lift_h)
        epsZ = ModuleMap(z0, Zm, epsZ_m, check=False)
        # tau: PH1 -> PB0 correcting the splice
        tau_cols = []
        for j in range(PH1.gens):
            v = lift_h * deltaH.matrix.submatrix(range(PH0.gens), [j])
            cb = element_in_submodule(Zm, dat["binclz"].matrix, v.col(0))
            assert cb is not None, "splice correction lands in the boundaries"
            pre = element_in_submodule(dat["B"], epsB.matrix, cb.col(0))
            assert pre is not None
            tau_cols.append(tuple(ring.neg(x) for x in pre.col(0)))
        tau = (Matrix(ring, PB0.gens, len(tau_cols), [list(r) for r in zip(*tau_cols)])
               if tau_cols else Matrix.zero(ring, PB0.gens, 0))
        z1 = FpModule.free(ring, PB1.gens + PH1.gens)
        deltaZ_m = Matrix.from_blocks(ring, [
            [deltaB.matrix, tau],
            [Matrix.zero(ring, PH0.gens, PB1.gens), deltaH.matrix],
        ])
        dat.update(PB0=PB0, PB1=PB1, epsB=epsB, deltaB=deltaB,
                   PZ0=z0, PZ1=z1, epsZ=epsZ, deltaZ=deltaZ_m)

    # second horseshoe: PY = PZ (+) PB(n-1)
    for n in Y.support:
        dat = datums[n]
        prev = datums.get(n - 1)
        Yn = Y.module_at(n)
        z_in_y = dat["zincl"].matrix
        if prev is None:
            py0 = dat["PZ0"]
            epsY_m = z_in_y * dat["epsZ"].matrix
            py1 = dat["PZ1"]
            deltaY_m = dat["deltaZ"]
            bprev0 = bprev1 = 0
        else:
            PB0p, PB1p = prev["PB0"], prev["PB1"]
            bprev0, bprev1 = PB0p.gens, PB1p.gens
            py0 = FpModule.free(ring, dat["PZ0"].gens + bprev0)
            # lift PB0(n-1) generators through the corestriction
            cor = dat["cor"]
            lift_cols = []
            for j in range(bprev0):
                target = prev["epsB"].matrix.submatrix(range(prev["B"].gens), [j])
                sol = _solve_onto(cor, target)
                lift_cols.append(tuple(sol.col(0)))
            liftB = (Matrix(ring, Yn.gens, bprev0, [list(r) for r in zip(*lift_cols)])
                     if lift_cols else Matrix.zero(ring, Yn.gens, 0))
            epsY_m = (z_in_y * dat["epsZ"].matrix).hstack(liftB)
            py1 = FpModule.free(ring, dat["PZ1"].gens + bprev1)
            # tau2: PB1(n-1) -> PZ0(n)
            tau2_cols = []
            for j in range(bprev1):
                w = liftB * prev["deltaB"].matrix.submatrix(range(bprev0), [j])
                cz = element_in_submodule(Yn, z_in_y, w.col(0))
                assert cz is not None, "horseshoe correction lands in cycles"
                pre = element_in_submodule(dat["Z"], dat["epsZ"].matrix, cz.col(0))
                assert pre is not None
                tau2_cols.append(tuple(ring.neg(x) for x in pre.col(0)))
            tau2 = (Matrix(ring, dat["PZ0"].gens, bprev1,
                           [list(r) for r in zip(*tau2_cols)])
                    if tau2_cols else Matrix.zero(ring, dat["PZ0"].gens, 0))
            deltaY_m = Matrix.from_blocks(ring, [
                [dat["deltaZ"], tau2],
                [Matrix.zero(ring, bprev0, dat["PZ1"].gens), prev["deltaB"].matrix],
            ])
        dat.update(PY0=py0, PY1=py1, epsY=ModuleMap(py0, Yn, epsY_m, check=False),
                   deltaY=deltaY_m, bprev0=bprev0, bprev1=bprev1)

    # horizontal differentials: identity of PB(n-1) into its slot in PZ0/PZ1
    # assemble the total complex T_m = PY0(m) (+) PY1(m-1)
    objs = {}
    for m in range(Y.lo, Y.hi + 2):
        w0 = datums[m]["PY0"].gens if m in datums else 0
        w1 = datums[m - 1]["PY1"].gens if (m - 1) in datums else 0
        if w0 + w1:
            objs[m] = FpModule.free(ring, w0 + w1)
    diffs = {}
    for m in sorted(objs):
        if (m - 1) not in objs:
            continue
        w0 = datums[m]["PY0"].gens if m in datums else 0
        w1 = datums[m - 1]["PY1"].gens if (m - 1) in datums else 0
        v0 = datums[m - 1]["PY0"].gens if (m - 1) in datums else 0
        v1 = datums[m - 2]["PY1"].gens if (m - 2) in datums else 0
        blocks = [[Matrix.zero(ring, v0, w0), Matrix.zero(ring, v0, w1)],
                  [Matrix.zero(ring, v1, w0), Matrix.zero(ring, v1, w1)]]
        if m in datums and (m - 1) in datums:
            blocks[0][0] = _horizontal_block(datums, m, 0)
        if (m - 1) in datums:
            # vertical: deltaY(m-1): PY1(m-1) -> PY0(m-1)
            blocks[0][1] = datums[m - 1]["deltaY"]
        if (m - 1) in datums and (m - 2) in datums:
            blocks[1][1] = _horizontal_block(datums, m - 1, 1).scale(-1)
        diffs[m] = ModuleMap(objs[m], objs[m - 1],
                             Matrix.from_blocks(ring, blocks), check=False)
    T = ChainComplex(ring, objs, diffs)

    tcomps = {}
    for m in T.support:
        if m not in datums:
            continue
        Ym = Y.module_at(m)
        if Ym.gens == 0:
            continue
        w1 = datums[m - 1]["PY1"].gens if (m - 1) in datums else 0
        mat = datums[m]["epsY"].matrix.hstack(Matrix.zero(ring, Ym.gens, w1))
        tcomps[m] = ModuleMap(T.module_at(m), Ym, mat, check=False)
    t = ChainMap(T, Y, tcomps)
    assert t.is_epi()
    K, _ = t.kernel_subcomplex()
    assert is_exact(K), "Cartan-Eilenberg kernel must be exact"
    return T, t


def _horizontal_block(datums, m, j):
    """PY_j(m) -> PY_j(m-1): the PB(m-1) block mapped identically into
    its slot inside PZ_j(m-1)."""
    ring = datums[m]["Z"].ring
    src = datums[m]["PY0"].gens if j == 0 else datums[m]["PY1"].gens
    tgt = datums[m - 1]["PY0"].gens if j == 0 else datums[m - 1]["PY1"].gens
    if j == 0:
        bcols = datums[m]["bprev0"]
        zpart = datums[m]["PZ0"].gens
        bslot = datums[m - 1]["PB0"].gens
    else:
        bcols = datums[m]["bprev1"]
        zpart = datums[m]["PZ1"].gens
        bslot = datums[m - 1]["PB1"].gens
    out = [[0] * src for _ in range(tgt)]
    for k in range(bcols):
        # column zpart + k maps to row k (the PB slot leads PZ's blocks)
        out[k][zpart + k] = ring.one
    assert bcols == bslot or bcols == 0
    return Matrix(ring, tgt, src, out)


def _solve_onto(g: ModuleMap, target_col: Matrix) -> Matrix:
    sol = element_in_submodule(g.target, g.matrix, target_col.col(0))
    assert sol is not None, "epimorphism must reach the target element"
    return sol


# -- replacements --------------------------------------------------------------------------


def cofibrant_replacement(X: ChainComplex, spec: ModelStructureSpec):
    """(Q, p, factorization) with p: Q -> X a trivial fibration and
    0 -> Q a cofibration."""
    f = ChainMap.zero_map(ChainComplex.zero(spec.ring), X)
    fact = factor_map(f, COF_THEN_TRIVFIB, spec)
    return fact.i.target, fact.p, fact


def fibrant_replacement(X: ChainComplex, spec: ModelStructureSpec):
    """(R, i, factorization) with i: X -> R a trivial cofibration and
    R -> 0 a fibration."""
    f = ChainMap.zero_map(X, ChainComplex.zero(spec.ring))
    fact = factor_map(f, TRIVCOF_THEN_FIB, spec)
    return fact.i.target, fact.i, fact


# -- lifting -----------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftProblem:
    i: ChainMap
    p: ChainMap
    top: ChainMap      # source(i) -> source(p)
    bottom: ChainMap   # target(i) -> target(p)

    def __post_init__(self):
        if self.top.source != self.i.source or self.top.target != self.p.source:
            raise ValidationError("top map endpoints do not match the square")
        if self.bottom.source != self.i.target or self.bottom.target != self.p.target:
            raise ValidationError("bottom map endpoints do not match the square")
        if not self.p.compose(self.top).equals(self.bottom.compose(self.i)):
            raise ValidationError("lifting square does not commute")


def solve_lifting(prob: LiftProblem, spec: ModelStructureSpec) -> ChainMap:
    """A diagonal h with h i = top and p h = bottom, found by one global
    linear solve; preconditions per the lifting axiom are enforced."""
    flags_i = classify_map(prob.i, spec, dg_tests=False)
    flags_p = classify_map(prob.p, spec, dg_tests=False)
    ok = (flags_i.triv_cof and flags_p.fib) or (flags_i.cof and flags_p.triv_fib)
    if not ok:
        raise PreconditionFailedError(
            "lifting needs (trivial cofibration, fibration) or "
            "(cofibration, trivial fibration)")
    B, Xc = prob.i.target, prob.p.source
    ring = spec.ring
    solver = MatrixEquationSolver(ring)
    handles = {}
    degrees = sorted(set(B.support) | set(Xc.support))
    for n in degrees:
        if B.module_at(n).gens and Xc.module_at(n).gens:
            handles[n] = solver.add_unknown_map(B.module_at(n), Xc.module_at(n))
    for n in degrees:
        # h i = top
        src = prob.i.source.module_at(n)
        if src.gens and Xc.module_at(n).gens:
            terms = []
            if n in handles:
                terms.append((1, None, handles[n], prob.i.component_at(n).matrix))
            solver.add_equation(terms, prob.top.component_at(n).matrix,
                                mod_relations=Xc.module_at(n).relations)
        elif src.gens and not prob.top.component_at(n).is_zero_map():
            raise AssertionError("no unknown available for a nonzero constraint")
        # p h = bottom
        if B.module_at(n).gens and prob.p.target.module_at(n).gens:
            terms = []
            if n in handles:
                terms.append((1, prob.p.component_at(n).matrix, handles[n], None))
            solver.add_equation(terms, prob.bottom.component_at(n).matrix,
                                mod_relations=prob.p.target.module_at(n).relations)
        # chain map condition d h = h d
        if B.module_at(n).gens and Xc.module_at(n - 1).gens:
            terms = []
            if n in handles:
                terms.append((1, Xc.diff(n).matrix, handles[n], None))
            if (n - 1) in handles:
                terms.append((-1, None, handles[n - 1], B.diff(n).matrix))
            if terms:
                solver.add_equation(terms,
                                    Matrix.zero(ring, Xc.module_at(n - 1).gens,
                                                B.module_at(n).gens),
                                    mod_relations=Xc.module_at(n - 1).relations)
    sol = solver.solve()
    assert sol is not None, "a lift must exist when the preconditions hold"
    h = ChainMap(B, Xc, {n: sol[hdl] for n, hdl in handles.items()})
    assert h.compose(prob.i).equals(prob.top)
    assert prob.p.compose(h).equals(prob.bottom)
    return h


# -- derived tensor product ---------------------------------------------------------------


def derived_tensor(X: ChainComplex, Y: ChainComplex, spec: ModelStructureSpec):
    """Homology table of Q(X) tensor Y for a cofibrant replacement Q(X),
    plus the factorization that produced the replacement."""
    if spec.structure_id not in (PROJECTIVE_STRUCTURE, FLAT_STRUCTURE):
        raise PreconditionFailedError(
            "derived tensor needs the projective or flat structure")
    Q, p, fact = cofibrant_replacement(X, spec)
    table = homology_table(tensor_complexes(Q, Y))
    return table, fact


def pushout_product(f: ChainMap, g: ChainMap) -> ChainMap:
    """The induced map from the pushout of (f ox 1, 1 ox g) to the
    tensor product of the targets."""
    f_id = tensor_chain_maps(f, ChainMap.identity(g.source))
    id_g = tensor_chain_maps(ChainMap.identity(f.source), g)
    P, inj1, inj2, universal = pushout_chainmaps(f_id, id_g)
    u = tensor_chain_maps(ChainMap.identity(f.target), g)
    v = tensor_chain_maps(f, ChainMap.identity(g.target))
    return universal(u, v)
