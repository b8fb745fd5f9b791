"""Small subobjects, filtrations and cell decompositions.

The constructions here replace transfinite induction by budgeted loops
over finite data:

* ``find_small_surjecting_sub``: a small subobject of the source of an
  epi whose restriction is still epi (preimages of target generators).
* ``kaplansky_witness``: given X inside a class member F, a small class
  member S with X <= S <= F and F/S still in the class.  Over Z and the
  projective/flat classes this is lattice saturation (a free summand);
  over finite rings a deterministic greedy closure.
* ``kaplansky_filtration``: writes a mono A -> B with class quotient as
  a finite chain of inclusions with small class quotients.
* ``flat_subcomplex_envelope``: the degreewise induction producing a
  nonzero exact subcomplex with class cycles and class cycle-quotients
  around a given seed subcomplex.
* ``icell_decompose``: exhibits a mono of complexes with suitable
  cokernel as a finite chain of pushouts of generating monomorphisms
  (cells), each square carrying a verified universal-property witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .complexes import (
    ChainComplex,
    ChainMap,
    cycles,
    disk,
    is_exact,
    pushout_chainmaps,
    subcomplex_from_gens,
)
from .cotorsion import ObjectClass
from .errors import (
    BudgetExceededError,
    CertificateMissingError,
    NotInClassError,
    PreconditionFailedError,
)
from .matrix import Matrix
from .modules import (
    FpModule,
    ModuleMap,
    element_in_submodule,
    intersection_gens,
    preimage_gens,
    quotient,
    submodule,
)
from .rings import Ring
from .smith import inverse, snf


@dataclass(frozen=True)
class KaplanskyConfig:
    gamma: int = 3
    step_budget: int = 64

    def __post_init__(self):
        if self.gamma < 1 or self.step_budget < 1:
            raise PreconditionFailedError("gamma and step budget must be >= 1")


# -- small surjecting subobjects ----------------------------------------------------


def find_small_surjecting_sub(g: ModuleMap, gamma: int):
    """(S, incl) with S <= source(g), at most gamma generators, and the
    restriction of g to S still epi.

    Deterministic: one preimage per target generator, in order.  The
    budget cannot be exhausted when the target needs at most gamma
    generators; that case raises so the caller sees a real failure.
    """
    if not g.is_epi():
        raise PreconditionFailedError("map must be an epimorphism")
    Y = g.target
    if Y.gens <= gamma:
        target_cols = Matrix.identity(g.ring, Y.gens)
    else:
        canon, to, fro = Y.canonical_form()
        if canon.gens > gamma:
            raise BudgetExceededError(
                f"target needs {canon.gens} generators, budget {gamma}")
        target_cols = fro.matrix
    pre_cols = []
    for j in range(target_cols.cols):
        x = element_in_submodule(Y, g.matrix, target_cols.col(j))
        assert x is not None, "epimorphism must hit every target generator"
        pre_cols.append(tuple(x.col(0)))
    gens = (Matrix(g.ring, g.source.gens, len(pre_cols),
                   [list(r) for r in zip(*pre_cols)])
            if pre_cols else Matrix.zero(g.ring, g.source.gens, 0))
    S, incl = submodule(g.source, gens)
    restricted = g.compose(incl)
    assert restricted.is_epi(), "restriction to generator preimages is epi"
    return S, incl


# -- witness subobjects -------------------------------------------------------------


@dataclass
class Witness:
    """A class member S with X <= S <= F and F/S in the class."""

    sub: FpModule
    inclusion: ModuleMap         # S -> F
    quotient_module: FpModule    # F / S
    class_ok: bool
    quotient_ok: bool
    generator_count: int

    def revalidate(self, cls: ObjectClass) -> bool:
        return (self.inclusion.is_mono() and self.class_ok and self.quotient_ok
                and cls.contains(self.sub) and cls.contains(self.quotient_module))


def kaplansky_witness(F: FpModule, cls: ObjectClass, seed_gens: Matrix,
                      cfg: KaplanskyConfig) -> Witness:
    """Grow the seed submodule of F to a witness for the class.

    Over Z with the projective or flat class the witness is the
    saturation of the seed lattice: a free direct summand with free
    quotient.  Over finite rings a greedy closure walks the canonical
    element order until both S and F/S satisfy the class predicate.
    """
    ring = F.ring
    if not cls.contains(F):
        raise NotInClassError(f"ambient module {F!r} is not in {cls!r}")
    if seed_gens.rows != F.gens:
        raise PreconditionFailedError("seed generators must live in F")

    if ring.kind == Ring.INTEGERS:
        if cls.class_id not in (ObjectClass.PROJECTIVE, ObjectClass.FLAT,
                                ObjectClass.ALL):
            raise NotInClassError(f"no witness procedure for {cls!r} over Z")
        return _saturation_witness(F, cls, seed_gens)
    return _greedy_witness(F, cls, seed_gens, cfg)


def _saturation_witness(F: FpModule, cls: ObjectClass, seed: Matrix) -> Witness:
    """Free-summand witness over Z: saturate the seed inside the free
    ambient (f.g. projective = flat = free there)."""
    ring = F.ring
    canon, to, fro = F.canonical_form()
    assert all(d == 0 for d in canon.invariant_factors()), \
        "class members over Z are free at f.p. scale"
    seed_in_canon = to.matrix * seed
    nonzero = not all(
        all(x == 0 for x in seed_in_canon.col(j)) for j in range(seed_in_canon.cols))
    if not nonzero and canon.gens > 0:
        # the witness must be nonzero: seed with the first basis vector
        seed_in_canon = Matrix.column(
            ring, [1] + [0] * (canon.gens - 1))
    form = snf(seed_in_canon)
    rank = form.rank
    # saturation basis: the first `rank` columns of (seed * V) scaled down
    # to primitive vectors, i.e. U^{-1} restricted to the pivot rows
    uinv = inverse(form.U)
    sat_cols = [uinv.col(i) for i in range(rank)]
    sat = (Matrix(ring, canon.gens, rank, [list(r) for r in zip(*sat_cols)])
           if sat_cols else Matrix.zero(ring, canon.gens, 0))
    gens_in_f = fro.matrix * sat
    S, incl = submodule(F, gens_in_f)
    Q, _ = quotient(F, gens_in_f)
    w = Witness(S, incl, Q, cls.contains(S), cls.contains(Q), S.gens)
    assert w.class_ok and w.quotient_ok
    # the seed must be inside the witness
    for j in range(seed.cols):
        assert element_in_submodule(F, gens_in_f, seed.col(j)) is not None
    return w


def _greedy_witness(F: FpModule, cls: ObjectClass, seed: Matrix,
                    cfg: KaplanskyConfig) -> Witness:
    ring = F.ring
    size = F.size()
    if size is None:
        raise BudgetExceededError("greedy witness needs a finite module")
    elements = list(F.elements())
    gens = seed
    if _span_is_zero(F, gens) and not F.is_zero_module():
        first = next(e for e in elements if any(x != 0 for x in e))
        gens = _append_col(ring, F.gens, gens, first)
    steps = 0
    while True:
        S, incl = submodule(F, gens)
        Q, _ = quotient(F, gens)
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


def _span_is_zero(F: FpModule, gens: Matrix) -> bool:
    return all(F.element_is_zero(gens.col(j)) for j in range(gens.cols))


def _append_col(ring, rows, m: Matrix, col) -> Matrix:
    return m.hstack(Matrix.column(ring, list(col)))


# -- filtrations ----------------------------------------------------------------------


@dataclass
class FiltrationStep:
    stage_gens: Matrix          # generators (in the ambient) after this step
    quotient_witness: FpModule  # the step quotient
    class_ok: bool
    generator_count: int


@dataclass
class FiltrationChain:
    """A chain of submodule inclusions with small class quotients."""

    ambient: FpModule
    cls: ObjectClass
    base_gens: Matrix
    steps: List[FiltrationStep]
    complete: bool

    def revalidate(self, gamma: int) -> bool:
        gens = self.base_gens
        for step in self.steps:
            # monotone growth: previous generators remain inside
            for j in range(gens.cols):
                if element_in_submodule(self.ambient, step.stage_gens, gens.col(j)) is None:
                    return False
            if not step.class_ok or step.generator_count > gamma:
                return False
            if not self.cls.contains(step.quotient_witness):
                return False
            gens = step.stage_gens
        if self.complete:
            Q, _ = quotient(self.ambient, gens)
            if not Q.is_zero_module():
                return False
        return True


def kaplansky_filtration(incl: ModuleMap, cls: ObjectClass,
                         cfg: KaplanskyConfig) -> FiltrationChain:
    """Write the target of a mono as a finite extension of its source by
    small class members, one witness per step."""
    if not incl.is_mono():
        raise PreconditionFailedError("filtration needs a monomorphism")
    B = incl.target
    Q0, _ = quotient(B, incl.matrix)
    if not cls.contains(Q0):
        raise NotInClassError("the quotient B/A is not in the class")
    gens = incl.matrix
    steps: List[FiltrationStep] = []
    for _ in range(cfg.step_budget):
        Q, _ = quotient(B, gens)
        if Q.is_zero_module():
            return FiltrationChain(B, cls, incl.matrix, steps, complete=True)
        w = kaplansky_witness(Q, cls, Matrix.zero(B.ring, B.gens, 0), cfg)
        # witness generators are already B-coordinate vectors (the quotient
        # shares its generators with B)
        new_gens = gens.hstack(w.inclusion.matrix)
        steps.append(FiltrationStep(new_gens, w.sub,
                                    w.class_ok and w.quotient_ok, w.generator_count))
        gens = new_gens
    Q, _ = quotient(B, gens)
    if Q.is_zero_module():
        return FiltrationChain(B, cls, incl.matrix, steps, complete=True)
    raise BudgetExceededError(
        "filtration did not reach the top within the step budget",
        partial=FiltrationChain(B, cls, incl.matrix, steps, complete=False))


# -- flat subcomplex envelopes ----------------------------------------------------------


@dataclass
class EnvelopeResult:
    subcomplex: ChainComplex
    inclusion: ChainMap
    cycle_witnesses: Dict[int, Witness]
    generator_counts: Dict[int, int]


def flat_subcomplex_envelope(F: ChainComplex, seed_gens: Dict[int, Matrix],
                             cls: ObjectClass, cfg: KaplanskyConfig) -> EnvelopeResult:
    """Grow a seed subcomplex of an exact complex with class cycles into
    an exact subcomplex S with X <= S <= F, every Z_n S in the class and
    every Z_n F / Z_n S in the class.

    Degree-by-degree from the bottom: witness around the required cycles,
    pull a small surjecting subobject one degree up, absorb its kernel
    into the next witness.
    """
    if not is_exact(F):
        raise PreconditionFailedError("ambient complex must be exact")
    ring = F.ring
    if F.is_zero_complex():
        Z = ChainComplex.zero(ring)
        return EnvelopeResult(Z, ChainMap.zero_map(Z, F), {}, {})

    seed = {n: seed_gens.get(n, Matrix.zero(ring, F.module_at(n).gens, 0))
            for n in F.support}
    if all(_span_is_zero(F.module_at(n), g) for n, g in seed.items()):
        # the result must be nonzero: seed the lowest degree with cycles
        for n in F.support:
            Zm, zincl = cycles(F, n)
            if not Zm.is_zero_module():
                canon, _, fro = Zm.canonical_form()
                first = zincl.matrix * fro.matrix.submatrix(range(Zm.gens), [0])
                seed[n] = seed[n].hstack(first)
                break

    s_prime: Dict[int, Matrix] = {}       # cycle witnesses, F_n coordinates
    v_part: Dict[int, Matrix] = {}        # seed + surjecting parts
    witnesses: Dict[int, Witness] = {}
    prev_sprime: Optional[Matrix] = None
    for n in F.support:
        Fn = F.module_at(n)
        V = seed[n]
        if prev_sprime is not None and prev_sprime.cols > 0:
            # a small subobject of d^{-1}(S'_{n-1}) surjecting onto it
            d = F.diff(n)
            pre = preimage_gens(d, prev_sprime)
            P, pincl = submodule(Fn, pre)
            Sp_mod, _ = submodule(F.module_at(n - 1), prev_sprime)
            rcols = []
            moved = d.matrix * pincl.matrix
            for j in range(moved.cols):
                c = element_in_submodule(F.module_at(n - 1), prev_sprime, moved.col(j))
                assert c is not None
                rcols.append(tuple(c.col(0)))
            rmat = (Matrix(ring, prev_sprime.cols, len(rcols),
                           [list(r) for r in zip(*rcols)])
                    if rcols else Matrix.zero(ring, prev_sprime.cols, 0))
            restricted = ModuleMap(P, Sp_mod, rmat, check=False)
            U, uincl = find_small_surjecting_sub(restricted, cfg.gamma)
            u_in_f = pincl.matrix * uincl.matrix
            V = V.hstack(u_in_f)
        v_part[n] = V

        # cycle seed: (span V meet Z_n F) + d(seed at n+1)
        Zm, zincl = cycles(F, n)
        c_gens = intersection_gens(Fn, V, zincl.matrix)
        up = seed.get(n + 1)
        if up is not None and up.cols > 0:
            c_gens = c_gens.hstack(F.diff(n + 1).matrix * up)
        # express the seed inside the cycle module
        seed_in_z = []
        for j in range(c_gens.cols):
            c = element_in_submodule(Fn, zincl.matrix, c_gens.col(j))
            assert c is not None, "cycle seed must consist of cycles"
            seed_in_z.append(tuple(c.col(0)))
        seed_z = (Matrix(ring, Zm.gens, len(seed_in_z), [list(r) for r in zip(*seed_in_z)])
                  if seed_in_z else Matrix.zero(ring, Zm.gens, 0))
        if Zm.is_zero_module():
            s_prime[n] = Matrix.zero(ring, Fn.gens, 0)
            prev_sprime = s_prime[n]
            continue
        w = kaplansky_witness(Zm, cls, seed_z, cfg)
        witnesses[n] = w
        s_prime[n] = zincl.matrix * w.inclusion.matrix
        prev_sprime = s_prime[n]

    total = {n: v_part[n].hstack(s_prime[n]) for n in F.support}
    S, incl = subcomplex_from_gens(F, total)
    assert is_exact(S), "envelope must be exact"
    counts = {n: total[n].cols for n in F.support}
    return EnvelopeResult(S, incl, witnesses, counts)


# -- cell decompositions ------------------------------------------------------------------


@dataclass
class Cell:
    """One pushout square: a generating mono glued along an attaching map."""

    generating_mono: ChainMap
    attaching: ChainMap          # source of the mono -> current stage
    step_inclusion: ChainMap     # current stage -> next stage
    image: ChainMap              # target of the mono -> next stage
    label: str

    def verify_pushout(self) -> bool:
        """Universal-property check: the square commutes and the
        canonical map from the computed pushout to the next stage is an
        isomorphism."""
        if not self.step_inclusion.compose(self.attaching).equals(
                self.image.compose(self.generating_mono)):
            return False
        P, inj_src, inj_new, universal = pushout_chainmaps(
            self.generating_mono, self.attaching)
        theta = universal(self.image, self.step_inclusion)
        return theta.is_iso()


@dataclass
class CellChain:
    """Stages X = Q_0 <= Q_1 <= ... <= Q_k = target with one cell each."""

    source_map: ChainMap                 # the certified mono f: X -> Q
    stages: List[ChainComplex]
    cells: List[Cell]
    final_iso: ChainMap                  # Q_k -> Q, verified iso

    def compose(self) -> ChainMap:
        out = None
        for cell in self.cells:
            out = cell.step_inclusion if out is None else cell.step_inclusion.compose(out)
        if out is None:
            return self.final_iso
        return self.final_iso.compose(out)

    def verify(self) -> bool:
        composite = self.compose()
        f = self.source_map
        same = composite.source == f.source and composite.target == f.target and all(
            composite.component_at(n).matrix == f.component_at(n).matrix
            for n in f.source.support)
        if not same:
            return False
        return all(cell.verify_pushout() for cell in self.cells)


def icell_decompose(f: ChainMap, cfg: KaplanskyConfig = KaplanskyConfig()) -> CellChain:
    """Exhibit a mono of bounded complexes as a finite composition of
    pushouts of generating monomorphisms.

    The cokernel entries must be free (after canonicalization); the cells
    are rank-one disk attachments S^{k-1}(R) -> D^k(R) glued along the
    boundaries of lifted cokernel basis vectors, from the bottom degree
    up.  When the cokernel is a literal sum of disks the decomposition
    collapses to one 0 -> D^n cell per disk summand.
    """
    if not f.is_mono():
        raise PreconditionFailedError("cell decomposition needs a monomorphism")
    Q = f.target
    ring = f.ring
    coker, _ = f.cokernel_complex()
    for n in coker.support:
        facs = coker.module_at(n).invariant_factors()
        free_val = 0 if ring.modulus is None else ring.modulus
        if any(d != free_val for d in facs):
            raise CertificateMissingError(
                f"cokernel entry at degree {n} is not free; no cell certificate"
            )

    disk_layout = _literal_disk_sum(f, coker)
    base_gens = {n: f.component_at(n).matrix for n in Q.support}
    stages = [f.source]
    gens = dict(base_gens)
    cells: List[Cell] = []
    prev_stage = f.source
    prev_is_source = True

    def push_stage(new_gens, label, gen_mono, attach_builder):
        nonlocal prev_stage, prev_is_source, gens
        Snew, incl_new = subcomplex_from_gens(Q, new_gens)
        # step inclusion: previous generators sit first in the new lists
        comps = {}
        for n in prev_stage.support:
            old = gens[n].cols if not prev_is_source else \
                f.component_at(n).matrix.cols
            width = new_gens[n].cols
            m = Matrix.identity(ring, old).vstack(Matrix.zero(ring, width - old, old)) \
                if old else Matrix.zero(ring, width, 0)
            comps[n] = ModuleMap(prev_stage.module_at(n), Snew.module_at(n), m,
                                 check=False)
        step = ChainMap(prev_stage, Snew, comps, check=False)
        attach, image = attach_builder(prev_stage, Snew, step)
        cells.append(Cell(gen_mono, attach, step, image, label))
        stages.append(Snew)
        gens = new_gens
        prev_stage = Snew
        prev_is_source = False

    if disk_layout is not None:
        for n, top_idx in disk_layout:
            r = len(top_idx)
            D = disk(n, FpModule.free(ring, r))
            zero_cx = ChainComplex.zero(ring)
            gen_mono = ChainMap.zero_map(zero_cx, D)
            new_gens = dict(gens)
            top_cols = Matrix.identity(ring, Q.module_at(n).gens).submatrix(
                range(Q.module_at(n).gens), top_idx)
            bot_cols = Q.diff(n).matrix * top_cols
            new_gens[n] = gens[n].hstack(top_cols)
            new_gens[n - 1] = gens.get(
                n - 1, Matrix.zero(ring, Q.module_at(n - 1).gens, 0)).hstack(bot_cols)

            def builder(prev, Snew, step, D=D, n=n, r=r, zero_cx=zero_cx):
                attach = ChainMap.zero_map(zero_cx, prev)
                # the cell image sends the disk onto the appended generators
                comps = {}
                wn = Snew.module_at(n).gens
                comps[n] = ModuleMap(D.module_at(n), Snew.module_at(n),
                                     Matrix.zero(ring, wn - r, r).vstack(
                                         Matrix.identity(ring, r)), check=False)
                wn1 = Snew.module_at(n - 1).gens
                comps[n - 1] = ModuleMap(D.module_at(n - 1), Snew.module_at(n - 1),
                                         Matrix.zero(ring, wn1 - r, r).vstack(
                                             Matrix.identity(ring, r)), check=False)
                image = ChainMap(D, Snew, comps, check=False)
                return attach, image

            push_stage(new_gens, f"0 -> D^{n}(R^{r})", gen_mono, builder)
    else:
        for n in coker.support:
            C = coker.module_at(n)
            canon, to, fro = C.canonical_form()
            for j in range(canon.gens):
                # lift the j-th canonical basis vector of the cokernel slice
                target_elt = fro.matrix.submatrix(range(C.gens), [j])
                v = target_elt  # cokernel shares generators with Q_n
                dv = Q.diff(n).matrix * v
                R1 = FpModule.free(ring, 1)
                gen_mono, _ = _sphere_into_disk(n, R1)
                new_gens = dict(gens)
                new_gens[n] = gens[n].hstack(v)

                def builder(prev, Snew, step, v=v, dv=dv, n=n, R1=R1,
                            gen_mono=gen_mono):
                    # attaching map S^{n-1}(R) -> prev sends 1 to dv
                    below = gens.get(n - 1)
                    if below is None or Q.module_at(n - 1).gens == 0:
                        coords = None
                    else:
                        coords = element_in_submodule(Q.module_at(n - 1), below,
                                                      dv.col(0))
                        assert coords is not None, \
                            "boundary must lie in the lower stage"
                    attach_comps = {}
                    if coords is not None and not prev.module_at(n - 1).is_zero_module():
                        attach_comps[n - 1] = ModuleMap(R1, prev.module_at(n - 1),
                                                        coords, check=False)
                    attach = ChainMap(gen_mono.source, prev, attach_comps, check=False)
                    wn = Snew.module_at(n).gens
                    D = gen_mono.target
                    comps = {
                        n: ModuleMap(D.module_at(n), Snew.module_at(n),
                                     Matrix.zero(ring, wn - 1, 1).vstack(
                                         Matrix.identity(ring, 1)), check=False)
                    }
                    if coords is not None and not Snew.module_at(n - 1).is_zero_module():
                        boundary = step.component_at(n - 1).matrix * coords
                        comps[n - 1] = ModuleMap(D.module_at(n - 1),
                                                 Snew.module_at(n - 1), boundary,
                                                 check=False)
                    image = ChainMap(D, Snew, comps, check=False)
                    return attach, image

                push_stage(new_gens, f"S^{n-1}(R) -> D^{n}(R) cell", gen_mono, builder)

    last_stage = stages[-1]
    if cells:
        final = ChainMap(last_stage, Q,
                         {n: ModuleMap(last_stage.module_at(n), Q.module_at(n),
                                       gens[n], check=False)
                          for n in last_stage.support}, check=False)
        assert final.is_iso(), "stages must exhaust the target"
    else:
        # zero cokernel: f itself is the identification
        final = f
    return CellChain(f, stages, cells, final)


def _sphere_into_disk(n: int, M: FpModule):
    from .complexes import disk_sphere_sequence

    i, p = disk_sphere_sequence(n, M)
    return i, p


def _literal_disk_sum(f: ChainMap, coker: ChainComplex) -> Optional[List[Tuple[int, list]]]:
    """Detect a zero-source mono onto a literal direct sum of disks on
    free modules; returns [(degree, top generator indices)] or None."""
    if not f.source.is_zero_complex():
        return None
    Q = f.target
    ring = f.ring
    tops: Dict[int, list] = {}
    bottoms: Dict[int, set] = {}
    for n in Q.support:
        if Q.module_at(n).relations.cols != 0:
            return None
    for n in Q.support:
        d = Q.diff(n).matrix
        for j in range(d.cols):
            col = d.col(j)
            nz = [i for i, x in enumerate(col) if x != 0]
            if not nz:
                continue
            if len(nz) != 1 or col[nz[0]] != ring.one:
                return None
            tops.setdefault(n, []).append(j)
            bottoms.setdefault(n - 1, set()).add(nz[0])
    # every generator must be a top or an image bottom
    for n in Q.support:
        g = Q.module_at(n).gens
        t = set(tops.get(n, []))
        b = bottoms.get(n, set())
        if t & b or (t | b) != set(range(g)):
            return None
        if len(bottoms.get(n, set())) != len(tops.get(n + 1, [])):
            return None
    return sorted((n, sorted(idx)) for n, idx in tops.items())
