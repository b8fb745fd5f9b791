"""Small subobjects, filtrations and cell decompositions.

The constructions here replace transfinite induction by budgeted loops
over finite data:

* ``find_small_surjecting_sub``: a small subobject of the source of an
  epi whose restriction is still epi (preimages of target generators).
* ``kaplansky_witness``: given X inside a class member F, a small class
  member S with X <= S <= F and F/S still in the class, by one rule
  for Z, Z/n and F_p: the span of X for the class of all modules, and
  otherwise the saturation of X, a summand read off one Smith form.
* ``kaplansky_filtration``: writes a mono A -> B with class quotient as
  a finite chain of inclusions with small class quotients.
* ``flat_subcomplex_envelope``: the degreewise induction producing a
  nonzero exact subcomplex with class cycles and class cycle-quotients
  around a given seed subcomplex.
* ``icell_decompose``: exhibits a mono of complexes with suitable
  cokernel as a finite chain of pushouts of generating monomorphisms
  (cells), each square checked to be a pushout degree by degree from two
  Smith forms (``Cell.verify_pushout``).
  A cell is plain data, (label, generating mono, where the generators
  land), and ``grow_cell_chain`` builds every square by one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .complexes import (
    ChainComplex,
    ChainMap,
    cycles,
    disk,
    is_exact,
    sphere_into_disk,
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
    _certify,
    intersection_gens,
    preimage_gens,
    quotient,
    submodule,
    submodule_coordinates,
)
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
    gens = submodule_coordinates(Y, g.matrix, target_cols)
    _certify(gens is not None,
             "find_small_surjecting_sub: the epimorphism hits every target generator")
    S, incl = submodule(g.source, gens)
    _certify(g.compose(incl).is_epi(),
             "find_small_surjecting_sub: the restriction to the preimages is epi")
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


def kaplansky_witness(F: FpModule, cls: ObjectClass, seed_gens: Matrix) -> Witness:
    """Grow the seed submodule of F to a witness for the class.

    One rule for Z, Z/n and F_p, in the canonical coordinates of F,
    where F = R^g / <canonical relations>.  A seed that vanishes in F is
    replaced by the first canonical generator, so the witness is nonzero.
    For ALL the witness is the span of the seed.  Every other class is,
    at finitely presented scale over these rings, the projective class
    (Z/n is quasi-Frobenius), and the witness is the saturation of the
    seed (``_saturation`` of [seed | relations]): a summand of R^g that
    contains the relations, so S and F/S are projective, also where F is
    not free.  S is presented on the canonical generators of the span,
    so it needs no more generators than the seed has columns (one for a
    vanishing seed): its size is bounded by the seed, not by F.
    """
    if not cls.contains(F):
        raise NotInClassError(f"ambient module {F!r} is not in {cls!r}")
    if seed_gens.rows != F.gens:
        raise PreconditionFailedError("seed generators must live in F")
    ring = F.ring
    canon, to, fro = F.canonical_form()
    seed = to.matrix * seed_gens
    if canon.gens and canon.columns_vanish(seed):
        # the witness must be nonzero: seed with the first canonical generator
        seed = Matrix.column(ring, [1] + [0] * (canon.gens - 1))
    if cls.class_id != ObjectClass.ALL:
        seed = _saturation(seed.hstack(canon.relations))
    span = fro.matrix * seed
    span_module, _ = submodule(F, span)
    gens = span * span_module.canonical_form()[2].matrix
    S, incl = submodule(F, gens)
    Q = quotient(F, gens)
    w = Witness(S, incl, Q, cls.contains(S), cls.contains(Q), S.gens)
    _certify(w.class_ok and w.quotient_ok,
             "kaplansky_witness: the witness and its quotient are in the class")
    _certify(submodule_coordinates(F, gens, seed_gens) is not None,
             "kaplansky_witness: the seed lies inside the witness")
    return w


def _saturation(A: Matrix) -> Matrix:
    """Columns spanning a summand of R^g that contains the columns of A.

    With U A V = D the Smith form, column t of U^{-1} is kept where its
    pivot d_t is nonzero, times m_t: the product of the prime-power
    parts q of n that divide d_t (1 over Z and Z/p^k).  m_t is a unit
    mod the parts where d_t is nonzero and zero mod the others, so in
    each local part Z/q the kept columns are those of a basis whose
    pivots are nonzero there, and they span every column of A.
    """
    ring = A.ring
    form = snf(A)
    parts = ring._prime_power_parts()
    kept, scale = [], []
    for t, d in enumerate(form.pivots(A.rows)):
        if ring.normalize(d):
            kept.append(t)
            scale.append(math.prod(q for q in parts if d % q == 0))
    return (inverse(form.U).submatrix(range(A.rows), kept)
            * Matrix.diagonal(ring, len(kept), len(kept), scale))


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
            if submodule_coordinates(self.ambient, step.stage_gens, gens) is None:
                return False
            if not step.class_ok or step.generator_count > gamma:
                return False
            if not self.cls.contains(step.quotient_witness):
                return False
            gens = step.stage_gens
        return not self.complete or quotient(self.ambient, gens).is_zero_module()


def kaplansky_filtration(incl: ModuleMap, cls: ObjectClass,
                         cfg: KaplanskyConfig) -> FiltrationChain:
    """Write the target of a mono as a finite extension of its source by
    small class members, one witness per step."""
    if not incl.is_mono():
        raise PreconditionFailedError("filtration needs a monomorphism")
    B = incl.target
    if not cls.contains(quotient(B, incl.matrix)):
        raise NotInClassError("the quotient B/A is not in the class")
    gens = incl.matrix
    steps: List[FiltrationStep] = []
    for _ in range(cfg.step_budget):
        Q = quotient(B, gens)
        if Q.is_zero_module():
            return FiltrationChain(B, cls, incl.matrix, steps, complete=True)
        w = kaplansky_witness(Q, cls, Matrix.zero(B.ring, B.gens, 0))
        # witness generators are already B-coordinate vectors (the quotient
        # shares its generators with B)
        new_gens = gens.hstack(w.inclusion.matrix)
        steps.append(FiltrationStep(new_gens, w.sub,
                                    w.class_ok and w.quotient_ok, w.generator_count))
        gens = new_gens
    if quotient(B, gens).is_zero_module():
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
    if all(F.module_at(n).columns_vanish(g) for n, g in seed.items()):
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
            rmat = submodule_coordinates(F.module_at(n - 1), prev_sprime,
                                         d.matrix * pincl.matrix)
            _certify(rmat is not None,
                     "flat_subcomplex_envelope: d maps the preimage into S'")
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
            c_gens = c_gens.hstack(F.diff_matrix(n + 1) * up)
        # express the seed inside the cycle module
        seed_z = submodule_coordinates(Fn, zincl.matrix, c_gens)
        _certify(seed_z is not None,
                 "flat_subcomplex_envelope: the cycle seed consists of cycles")
        if Zm.is_zero_module():
            s_prime[n] = Matrix.zero(ring, Fn.gens, 0)
            prev_sprime = s_prime[n]
            continue
        w = kaplansky_witness(Zm, cls, seed_z)
        witnesses[n] = w
        s_prime[n] = zincl.matrix * w.inclusion.matrix
        prev_sprime = s_prime[n]

    total = {n: v_part[n].hstack(s_prime[n]) for n in F.support}
    S, incl = subcomplex_from_gens(F, total)
    _certify(is_exact(S), "flat_subcomplex_envelope: the envelope is exact")
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
        """Whether the square is a pushout, checked degree by degree.

        The square must commute.  Pushouts of complexes are computed
        degreewise, so it is a pushout exactly when, in every degree n,
        the canonical map theta_n: P_n -> E_n is an isomorphism, where E
        is the next stage and P_n = (D_n (+) B_n)/<R_D (+) R_B, (i_n; -a_n)>
        with B the current stage, i the generating mono and a the
        attaching map.  theta_n is [image_n | step_n].  Finitely generated
        modules over Z and Z/n are Hopfian: a surjective endomorphism is
        an isomorphism (Vasconcelos, 1969).  So theta_n is an isomorphism
        exactly when it is onto E_n and P_n has the invariant factors of
        E_n: composed with any isomorphism E_n -> P_n it is then a
        surjective endomorphism of P_n.  No pushout is built; each degree
        costs two Smith forms.
        """
        if not self.step_inclusion.compose(self.attaching).equals(
                self.image.compose(self.generating_mono)):
            return False
        D, E = self.image.source, self.image.target
        B = self.step_inclusion.source
        ring = E.ring
        for n in sorted(set(D.objects) | set(B.objects) | set(E.objects)):
            Dn, Bn, En = D.module_at(n), B.module_at(n), E.module_at(n)
            onto = FpModule(ring, En.gens, Matrix.hstack_all(
                ring, En.gens, [En.relations, self.image.matrix_at(n),
                                self.step_inclusion.matrix_at(n)]))
            if not onto.is_zero_module():
                return False
            glue = self.generating_mono.matrix_at(n).vstack(
                self.attaching.matrix_at(n).scale(-1))
            P = FpModule(ring, Dn.gens + Bn.gens, Matrix.block_diagonal(
                ring, [Dn.relations, Bn.relations]).hstack(glue))
            if P.invariant_factors() != En.invariant_factors():
                return False
        return True


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
            composite.matrix_at(n) == f.matrix_at(n)
            for n in f.source.support)
        if not same:
            return False
        return all(cell.verify_pushout() for cell in self.cells)


def icell_decompose(f: ChainMap) -> CellChain:
    """Exhibit a mono of bounded complexes as a finite composition of
    pushouts of generating monomorphisms.

    The cokernel entries must be free (after canonicalization); the cells
    are rank-one disk attachments S^{k-1}(R) -> D^k(R) glued along the
    boundaries of lifted cokernel basis vectors, from the bottom degree
    up.  When the cokernel is a literal sum of disks the decomposition
    collapses to one 0 -> D^n cell per disk summand.  The chain is grown
    by ``grow_cell_chain``: each stage extends the one before it.
    """
    if not f.is_mono():
        raise PreconditionFailedError("cell decomposition needs a monomorphism")
    Q = f.target
    ring = f.ring
    coker = f.cokernel_complex()
    for n in coker.support:
        facs = coker.module_at(n).invariant_factors()
        free_val = 0 if ring.modulus is None else ring.modulus
        if any(d != free_val for d in facs):
            raise CertificateMissingError(
                f"cokernel entry at degree {n} is not free; no cell certificate"
            )

    disk_layout = _literal_disk_sum(f, coker)
    if disk_layout is not None:
        cells = []
        for n, top_idx in disk_layout:
            top_cols = Matrix.identity(ring, Q.module_at(n).gens).submatrix(
                range(Q.module_at(n).gens), top_idx)
            cells.append(disk_cell(n, top_cols, Q.diff_matrix(n) * top_cols))
    else:
        cells = _sphere_cells(Q, coker)
    return grow_cell_chain(f, cells)


def _sphere_cells(Q: ChainComplex, coker: ChainComplex):
    """One S^{n-1}(R) -> D^n(R) cell per canonical basis vector of each
    cokernel slice, lowest degree first; the mono is built once per
    degree."""
    R1 = FpModule.free(Q.ring, 1)
    for n in coker.support:
        C = coker.module_at(n)
        canon, _, fro = C.canonical_form()
        if not canon.gens:
            continue
        gen_mono = sphere_into_disk(n, R1)
        for j in range(canon.gens):
            # lift the j-th canonical basis vector; the cokernel shares
            # its generators with Q_n
            v = fro.matrix.submatrix(range(C.gens), [j])
            yield (f"S^{n-1}(R) -> D^{n}(R) cell", gen_mono,
                   {n: v, n - 1: Q.diff_matrix(n) * v})


def disk_cell(n: int, top_cols: Matrix, bottom_cols: Matrix):
    """A 0 -> D^n(R^r) cell for ``grow_cell_chain``: the r columns
    ``top_cols`` of the target in degree n and ``bottom_cols`` in degree
    n-1 (their images under d) are glued on along the zero map."""
    ring = top_cols.ring
    D = disk(n, FpModule.free(ring, top_cols.cols))
    return (f"0 -> D^{n}(R^{top_cols.cols})", ChainMap.zero_map(ChainComplex.zero(ring), D),
            {n: top_cols, n - 1: bottom_cols})


def grow_cell_chain(f: ChainMap, cells) -> CellChain:
    """The cell chain of a mono f: X -> Q, one pushout stage per cell.

    Each cell is (label, generating mono S -> D, gen_cols): ``gen_cols``
    maps each degree k of D to the columns of Q that the generators of
    D_k land on.  The previous stage's generators start as the columns
    of f.  One rule builds every square: where S_k is zero the columns
    are new generators, appended after the previous ones, and the image
    is [0; I]; elsewhere the mono is the identity of S_k = D_k, the
    columns must lie in the previous stage, their coordinates there are
    the attaching map, and the image is the step inclusion times them.
    The stage is the subcomplex of Q on the grown generators, built as
    an extension of the previous stage (``subcomplex_from_gens(...,
    extends=...)``), so only the degrees a cell touches are recomputed.
    The last stage's inclusion into Q must be an isomorphism, and it is
    the chain's final map.
    """
    Q = f.target
    ring = f.ring
    gens = {n: f.matrix_at(n) for n in Q.support}
    stages = [f.source]
    chain_cells: List[Cell] = []
    incl = None
    for label, gen_mono, gen_cols in cells:
        prev = stages[-1]
        S, D = gen_mono.source, gen_mono.target
        new_gens = dict(gens)
        coords = {}
        for k, cols in gen_cols.items():
            if not S.module_at(k).gens:
                new_gens[k] = gens.get(k, Matrix.zero(ring, Q.module_at(k).gens, 0)).hstack(cols)
            elif Q.module_at(k).gens:
                coords[k] = submodule_coordinates(Q.module_at(k), gens[k], cols)
                _certify(coords[k] is not None,
                         "grow_cell_chain: the attaching columns lie in the previous stage")
        stage, incl = subcomplex_from_gens(Q, new_gens, extends=incl)
        # step inclusion: previous generators sit first in the new lists
        comps = {}
        for n in prev.support:
            old = gens[n].cols
            m = Matrix.identity(ring, old, below=new_gens[n].cols - old)
            comps[n] = ModuleMap(prev.module_at(n), stage.module_at(n), m, check=False)
        step = ChainMap(prev, stage, comps, check=False)
        attach_comps, image_comps = {}, {}
        for k, cols in gen_cols.items():
            if not S.module_at(k).gens:
                m = Matrix.identity(ring, cols.cols, above=stage.module_at(k).gens - cols.cols)
            elif k in coords and not prev.module_at(k).is_zero_module():
                attach_comps[k] = ModuleMap(S.module_at(k), prev.module_at(k), coords[k],
                                            check=False)
                m = step.matrix_at(k) * coords[k]
            else:
                continue
            image_comps[k] = ModuleMap(D.module_at(k), stage.module_at(k), m, check=False)
        attaching = ChainMap(S, prev, attach_comps, check=False)
        image = ChainMap(D, stage, image_comps, check=False)
        chain_cells.append(Cell(gen_mono, attaching, step, image, label))
        stages.append(stage)
        gens = new_gens
    if incl is None:
        # zero cokernel: f itself is the identification
        return CellChain(f, stages, chain_cells, f)
    _certify(incl.is_iso(), "grow_cell_chain: the stages exhaust the target")
    return CellChain(f, stages, chain_cells, incl)


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
        d = Q.diff_matrix(n)
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
