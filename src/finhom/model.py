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
from typing import Dict, List, Optional, Tuple

from .complexes import (
    ChainComplex,
    ChainMap,
    _blockwise_chain_map,
    _check_complex,
    _place_blocks,
    _stacked_map,
    _sum_complex,
    cycles,
    cylinder,
    disk,
    disk_cover,
    graded_map_solver,
    homology_table,
    is_exact,
    is_quasi_iso,
    pullback_chainmaps,
    pushout_chainmaps,
    sphere,
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
    FactorizationObstructedError,
    PreconditionFailedError,
    UnsupportedRingError,
    ValidationError,
)
from .functors import free_resolution
from .kaplansky import CellChain, disk_cell, grow_cell_chain, icell_decompose
from .matrix import Matrix
from .modules import FpModule, _certify, submodule, submodule_coordinates
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

    def __post_init__(self):
        if self.structure_id == INJECTIVE_STRUCTURE and not self.ring.is_quasi_frobenius:
            raise UnsupportedRingError(
                "the injective structure needs a quasi-Frobenius ring")

    def generating_cofibrations(self, window) -> List[ChainMap]:
        return induced_generating_monos(self.pair, window)


def model_structure(structure_id: str, ring: Ring) -> ModelStructureSpec:
    if structure_id == PROJECTIVE_STRUCTURE:
        pair = projective_pair(ring)
    elif structure_id == FLAT_STRUCTURE:
        pair = flat_pair(ring)
    elif structure_id == INJECTIVE_STRUCTURE:
        pair = injective_pair(ring)
    else:
        raise PreconditionFailedError(f"unknown structure {structure_id}")
    return ModelStructureSpec(ring, structure_id, pair)


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


def classify_map(f: ChainMap, spec: ModelStructureSpec) -> MapFlags:
    """All five structure flags of a chain map, with class certificates.

    The identities trivial-cof = cof and weq, trivial-fib = fib and weq
    are recomputed from the definitions and cross-checked."""
    weq = is_quasi_iso(f)
    certs: Dict[str, ClassCertificate] = {}
    mono = f.is_mono()
    cof = triv_cof = False
    if mono:
        coker = f.cokernel_complex()
        cof, certs["cokernel-dg-left"] = complex_class_member(coker, DG_F_LEFT, spec.pair)
        triv_cof, certs["cokernel-left-exact"] = complex_class_member(coker, FTILDE, spec.pair)
    epi = f.is_epi()
    fib = triv_fib = False
    if epi:
        ker, _ = f.kernel_subcomplex()
        fib, certs["kernel-dg-right"] = complex_class_member(ker, DG_C_RIGHT, spec.pair)
        triv_fib, certs["kernel-right-exact"] = complex_class_member(ker, CTILDE, spec.pair)
    _certify(triv_cof == (cof and weq),
             "classify_map: trivial cofibration = cofibration and weak equivalence")
    _certify(triv_fib == (fib and weq),
             "classify_map: trivial fibration = fibration and weak equivalence")
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
        ok, _, _ = _factor_certificates(self.i, self.p, self.mode, spec)
        if self.mode == COF_THEN_TRIVFIB:
            ok = ok and is_quasi_iso(self.p)
        return ok and self.i.is_mono() and self.p.is_epi()


def factor_map(f: ChainMap, mode: str, spec: ModelStructureSpec) -> Factorization:
    """Factor f in the given mode, with class and cell certificates.

    Raises ``FactorizationObstructedError`` when no such factorization
    exists within bounded finitely presented data, and
    ``CertificateMissingError`` when its cofibration has no cell
    certificate."""
    if mode == COF_THEN_TRIVFIB:
        return _factor_cof_trivfib(f, spec)
    if mode == TRIVCOF_THEN_FIB:
        return _factor_trivcof_fib(f, spec)
    raise PreconditionFailedError(f"unknown factorization mode {mode}")


def _factor_certificates(i: ChainMap, p: ChainMap, mode: str, spec: ModelStructureSpec):
    """(ok, cokernel certificate, kernel certificate) of factor maps i, p.

    A cofibration then trivial fibration needs a dg-left cokernel and a
    right-exact kernel; a trivial cofibration then fibration a
    left-exact cokernel and a dg-right kernel."""
    coker_cls, ker_cls = ((DG_F_LEFT, CTILDE) if mode == COF_THEN_TRIVFIB
                          else (FTILDE, DG_C_RIGHT))
    coker = i.cokernel_complex()
    ok_coker, coker_cert = complex_class_member(coker, coker_cls, spec.pair)
    ker, _ = p.kernel_subcomplex()
    ok_ker, ker_cert = complex_class_member(ker, ker_cls, spec.pair)
    return ok_coker and ok_ker, coker_cert, ker_cert


def _factor_trivcof_fib(f: ChainMap, spec: ModelStructureSpec) -> Factorization:
    """f = (X -> X (+) D) then ((f, cover): X (+) D ->> Y) where D is the
    disk cover of Y: the first map's cokernel is a sum of disks on frees
    (exact with free cycles), the second is a degreewise epi."""
    X, Y = f.source, f.target
    D, sigma = disk_cover(Y)
    Q = ChainComplex.direct_sum(X, D)
    i = _stacked_map(X, Q, [ChainMap.identity(X), ChainMap.zero_map(X, D)], into_sum=True)
    p = _stacked_map(Q, Y, [f, sigma], into_sum=False)
    _certify(p.compose(i).equals(f), "factor_map (trivial cofibration): p o i = f")

    ok, coker_cert, ker_cert = _factor_certificates(i, p, TRIVCOF_THEN_FIB, spec)
    if not ok:
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
    cells = []
    for m in Y.support:
        r = Y.module_at(m).gens
        if r == 0:
            continue
        # degree-m block of Q: [X_m | tops r_m | bottoms r_{m+1}]; d of Q
        # sends the tops of D^m onto its bottoms
        w, x = Q.module_at(m).gens, X.module_at(m).gens
        tops = Matrix.identity(Q.ring, r, above=x, below=w - x - r)
        cells.append(disk_cell(m, tops, Q.diff_matrix(m) * tops))
    return grow_cell_chain(i, cells)


def _factor_cof_trivfib(f: ChainMap, spec: ModelStructureSpec) -> Factorization:
    """Cylinder factorization, corrected through a Cartan-Eilenberg
    resolution of the cone when the cone has entries outside the left
    class."""
    X, Y = f.source, f.target
    data = cylinder(f)
    C = data.front.cokernel_complex()  # the cone, as a quotient of Cyl
    if _degreewise_in_left(C, spec):
        Q, i, p = data.complex, data.front, data.projection
    else:
        # Cyl ->> C is the identity matrix in every degree
        quot = ChainMap(data.complex, C, {
            n: Matrix.identity(C.ring, M.gens) for n, M in C.objects.items()}, check=False)
        T, t = ce_trivial_fibration(C, spec)
        P, proj_cyl, proj_t, universal = pullback_chainmaps(quot, t)
        # X lands in the pullback via (front, 0): quot kills the front copy
        zero_to_t = ChainMap.zero_map(X, T)
        i = universal(data.front, zero_to_t)
        p = data.projection.compose(proj_cyl)
        Q = P
    _certify(p.compose(i).equals(f), "factor_map (cofibration): p o i = f")

    ok, coker_cert, ker_cert = _factor_certificates(i, p, COF_THEN_TRIVFIB, spec)
    if not ok:
        raise FactorizationObstructedError(
            "cylinder factorization failed its certificates: "
            + coker_cert.describe() + " / " + ker_cert.describe())
    _certify(is_quasi_iso(p), "factor_map (cofibration): p is a quasi-isomorphism")
    chain = icell_decompose(i)
    window = (min(Q.lo, Y.lo), max(Q.hi, Y.hi))
    return Factorization(f, i, p, COF_THEN_TRIVFIB, coker_cert, ker_cert, chain, window)


def _degreewise_in_left(C: ChainComplex, spec: ModelStructureSpec) -> bool:
    return all(spec.pair.left.contains(C.module_at(n)) for n in C.support)


# -- Cartan-Eilenberg resolutions ---------------------------------------------------------


def _short_free_resolution(M: FpModule):
    """(P0, P1, eps, delta) with P1 -> P0 -> M exact, P robustly free and
    the resolution stopping after one step; obstructed rings raise."""
    if M.gens == 0:
        # the relations of a module without generators are vacuous
        M = FpModule.zero(M.ring)
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
    resolution, spliced from resolutions of boundaries and homology.

    Each row PY_j is a sum of disks and spheres on free modules: the disk
    D^{n+1}(PB_j(n)) on the resolution PB of the boundaries B_n and the
    sphere S^n(PH_j(n)) on the resolution PH of the homology H_n, top
    degree first, so PY_j(m) = [PB_j(m) | PH_j(m) | PB_j(m-1)].  The
    total complex T = PY0 (+) PY1[1] has the vertical maps
    deltaY: PY1 -> PY0 as its link (``complexes._sum_complex``)."""
    ring = Y.ring
    if Y.is_zero_complex():
        Z = ChainComplex.zero(ring)
        return Z, ChainMap.zero_map(Z, Y)

    # per-degree short exact data
    datums = {}
    for n in Y.support:
        Yn = Y.module_at(n)
        Zm, zincl = cycles(Y, n)
        # boundaries as a submodule of the cycles
        b_in_z = submodule_coordinates(Yn, zincl.matrix, Y.diff_matrix(n + 1))
        _certify(b_in_z is not None, "ce_trivial_fibration: boundaries are cycles")
        Bm, bincl_z = submodule(Zm, b_in_z)
        Hm = FpModule(ring, Zm.gens, Zm.relations.hstack(b_in_z))
        datums[n] = {
            "Z": Zm, "zincl": zincl, "B": Bm, "binclz": bincl_z, "H": Hm,
        }

    # corestrictions Y_n ->> B_{n-1}
    for n in Y.support:
        if (n - 1) in datums:
            prev_gens = datums[n - 1]["zincl"].matrix * datums[n - 1]["binclz"].matrix
            cor = submodule_coordinates(Y.module_at(n - 1), prev_gens, Y.diff_matrix(n))
            _certify(cor is not None, "ce_trivial_fibration: differentials land in boundaries")
            datums[n]["cor"] = cor

    # free resolutions and horseshoe splices per degree
    for n in Y.support:
        dat = datums[n]
        PB0, PB1, epsB, deltaB = _short_free_resolution(dat["B"])
        PH0, PH1, epsH, deltaH = _short_free_resolution(dat["H"])
        Zm = dat["Z"]
        # H shares generators with Z: epsH columns are Z-coordinates
        lift_h = epsH.matrix
        epsZ = (dat["binclz"].matrix * epsB.matrix).hstack(lift_h)
        # tau: PH1 -> PB0 correcting the splice
        cb = submodule_coordinates(Zm, dat["binclz"].matrix, lift_h * deltaH.matrix)
        _certify(cb is not None,
                 "ce_trivial_fibration: the splice correction lands in the boundaries")
        pre = submodule_coordinates(dat["B"], epsB.matrix, cb)
        _certify(pre is not None, "ce_trivial_fibration: epsB reaches the correction")
        tau = pre.scale(-1)
        deltaZ = _place_blocks(ring, PB0.gens + PH0.gens, PB1.gens + PH1.gens, [
            (0, 0, deltaB.matrix), (0, PB1.gens, tau), (PB0.gens, PB1.gens, deltaH.matrix)])
        dat.update(PB0=PB0, PB1=PB1, PH0=PH0, PH1=PH1, epsB=epsB, deltaB=deltaB,
                   epsZ=epsZ, deltaZ=deltaZ)

    # second horseshoe: PY_j(n) = PZ_j(n) (+) PB_j(n-1), with
    # epsY: PY0(n) -> Y_n and deltaY: PY1(n) -> PY0(n)
    for n in Y.support:
        dat = datums[n]
        prev = datums.get(n - 1)
        z_in_y = dat["zincl"].matrix
        epsY = z_in_y * dat["epsZ"]
        deltaY = dat["deltaZ"]
        if prev is not None:
            # lift PB0(n-1) generators through the corestriction
            liftB = submodule_coordinates(prev["B"], dat["cor"], prev["epsB"].matrix)
            _certify(liftB is not None,
                     "ce_trivial_fibration: the corestriction reaches every generator")
            epsY = epsY.hstack(liftB)
            # tau2: PB1(n-1) -> PZ0(n)
            cz = submodule_coordinates(Y.module_at(n), z_in_y, liftB * prev["deltaB"].matrix)
            _certify(cz is not None,
                     "ce_trivial_fibration: the horseshoe correction lands in cycles")
            pre = submodule_coordinates(dat["Z"], dat["epsZ"], cz)
            _certify(pre is not None, "ce_trivial_fibration: epsZ reaches the correction")
            r, c = deltaY.rows, deltaY.cols
            deltaY = _place_blocks(ring, r + prev["PB0"].gens, c + prev["PB1"].gens, [
                (0, 0, deltaY), (0, c, pre.scale(-1)), (r, c, prev["deltaB"].matrix)])
        dat.update(epsY=epsY, deltaY=deltaY)

    PY0, PY1 = (ChainComplex.direct_sum(*[
        C for n in reversed(Y.support)
        for C in (disk(n + 1, datums[n][f"PB{j}"]), sphere(n, datums[n][f"PH{j}"]))])
        for j in (0, 1))
    delta = ChainMap(PY1, PY0, {n: datums[n]["deltaY"] for n in Y.support}, check=False)
    T = _sum_complex(ring, [(PY0, 0, 1), (PY1, 1, -1)], [(1, 0, delta, 1)])
    _check_complex(ring, T.objects, T.differentials, T.support)
    t = _blockwise_chain_map(T, Y, lambda m: [(0, 0, datums[m]["epsY"])])
    _certify(t.is_epi(), "ce_trivial_fibration: t is epi")
    K, _ = t.kernel_subcomplex()
    _certify(is_exact(K), "ce_trivial_fibration: the kernel of t is exact")
    return T, t


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


def solve_lifting(prob: LiftProblem, spec: ModelStructureSpec,
                  flags: Optional[Tuple[MapFlags, MapFlags]] = None) -> ChainMap:
    """A diagonal h with h i = top and p h = bottom, found by one global
    linear solve; preconditions per the lifting axiom are enforced.

    ``flags`` are the flags of i and p as ``classify_map`` gives them,
    for a caller that already holds them; by default they are computed
    here."""
    if flags is None:
        flags = (classify_map(prob.i, spec), classify_map(prob.p, spec))
    flags_i, flags_p = flags
    ok = (flags_i.triv_cof and flags_p.fib) or (flags_i.cof and flags_p.triv_fib)
    if not ok:
        raise PreconditionFailedError(
            "lifting needs (trivial cofibration, fibration) or "
            "(cofibration, trivial fibration)")
    B, Xc = prob.i.target, prob.p.source
    solver, handles = graded_map_solver(B, Xc, 0)
    for n in sorted(set(B.support) | set(Xc.support)):
        # h i = top
        src = prob.i.source.module_at(n)
        if src.gens and Xc.module_at(n).gens:
            terms = []
            if n in handles:
                terms.append((1, None, handles[n], prob.i.matrix_at(n)))
            solver.add_equation(terms, prob.top.matrix_at(n),
                                mod_relations=Xc.module_at(n).relations)
        elif src.gens:
            _certify(Xc.module_at(n).columns_vanish(prob.top.matrix_at(n)),
                     "solve_lifting: a constraint without unknowns is zero")
        # p h = bottom
        if B.module_at(n).gens and prob.p.target.module_at(n).gens:
            terms = []
            if n in handles:
                terms.append((1, prob.p.matrix_at(n), handles[n], None))
            solver.add_equation(terms, prob.bottom.matrix_at(n),
                                mod_relations=prob.p.target.module_at(n).relations)
    sol = solver.solve()
    _certify(sol is not None, "solve_lifting: a lift exists when the preconditions hold")
    h = ChainMap(B, Xc, {n: solver.value(sol, hdl) for n, hdl in handles.items()})
    _certify(h.compose(prob.i).equals(prob.top), "solve_lifting: h o i = top")
    _certify(prob.p.compose(h).equals(prob.bottom), "solve_lifting: p o h = bottom")
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
