"""Object classes, cotorsion-pair data and induced complex classes.

A cotorsion pair is carried around as data: a membership predicate for
the left class, a finite list of cogenerators (whose Ext-orthogonal
defines the right class), and a finite list of generating monomorphisms
including 0 -> R.  From this the four induced classes of bounded
complexes are decided:

* FTilde:   exact complexes whose cycle modules lie in the left class,
* CTilde:   exact complexes whose cycle modules lie in the right class,
* DgFLeft:  degreewise left class, every map into a CTilde complex
            null-homotopic,
* DgCRight: degreewise right class, every map from an FTilde complex
            null-homotopic.

Every complex here is bounded, and a bounded complex is dg-left (dg-right)
exactly when each of its entries lies in the left (right) class
(Gillespie, *The flat model structure on Ch(R)*, 2004).  So the dg
classes are decided degree by degree.  Null-homotopy tests against a
family of disks D^n(M) would add nothing: a disk is contractible, so
every map into or out of one is null-homotopic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .complexes import (
    ChainComplex,
    ChainMap,
    cycles,
    disk,
    is_exact,
    sphere,
    sphere_into_disk,
)
from .errors import PreconditionFailedError, ValidationError
from .functors import ext_vanishes, is_flat, is_injective, is_projective
from .matrix import Matrix
from .modules import FpModule, ModuleMap, hom_module, quotient
from .rings import Ring


def right_perp_member(X: FpModule, family) -> bool:
    """Whether Ext^1(F, X) vanishes for every F in the family."""
    return all(ext_vanishes(F, X, 1) for F in family)


@dataclass(frozen=True)
class ObjectClass:
    """A decidable class of finitely presented modules."""

    ALL = "AllObjects"
    PROJECTIVE = "Projective"
    FLAT = "Flat"
    INJECTIVE = "Injective"

    class_id: str

    def __post_init__(self):
        if self.class_id not in _MEMBERSHIP:
            raise PreconditionFailedError(f"unknown object class {self.class_id}")

    def __repr__(self):
        return f"ObjectClass({self.class_id})"

    def contains(self, M: FpModule) -> bool:
        return _MEMBERSHIP[self.class_id](M)

    def sample_members(self, ring: Ring) -> List[FpModule]:
        """A deterministic list of small members used by the checkers.

        Torsion cyclics come first so failure witnesses are small."""
        candidates = canonical_test_modules(ring)
        return [M for M in candidates if self.contains(M)]


_MEMBERSHIP = {
    ObjectClass.ALL: lambda M: True,
    ObjectClass.PROJECTIVE: is_projective,
    ObjectClass.FLAT: is_flat,
    ObjectClass.INJECTIVE: is_injective,
}


def canonical_test_modules(ring: Ring) -> List[FpModule]:
    """Small probe modules in a fixed order: torsion cyclics, frees, a sum."""
    out = []
    if ring.modulus is None:
        torsion = [2, 3, 4, 6]
    else:
        torsion = [d for d in ring.divisors() if 1 < d < ring.modulus]
    for d in torsion:
        out.append(FpModule.cyclic(ring, d))
    out.append(FpModule.free(ring, 1))
    out.append(FpModule.free(ring, 2))
    if torsion:
        out.append(FpModule.direct_sum(FpModule.free(ring, 1),
                                       FpModule.cyclic(ring, torsion[0])))
    return out


@dataclass(frozen=True)
class CotorsionPairData:
    """Left class, cogenerating set and generating monomorphisms.

    Invariants checked at construction: every cogenerator lies in the
    left class, 0 -> R is among the generating monos, and each
    generating mono is a mono whose cokernel is a cogenerator or the
    rank-one free generator.
    """

    ring: Ring
    left: ObjectClass
    cogenerators: Tuple[FpModule, ...]
    generating_monos: Tuple[ModuleMap, ...]
    name: str = "pair"

    def __post_init__(self):
        R1 = FpModule.free(self.ring, 1)
        for S in self.cogenerators:
            if not self.left.contains(S):
                raise ValidationError(f"cogenerator {S} is not in the left class")
        has_zero_to_r = False
        for i in self.generating_monos:
            if not i.is_mono():
                raise ValidationError("generating monomorphism is not mono")
            C = quotient(i.target, i.matrix)
            ok = C.is_isomorphic_to(R1) or any(
                C.is_isomorphic_to(S) for S in self.cogenerators)
            if not ok:
                raise ValidationError("generating mono cokernel is not a cogenerator")
            if i.source.is_zero_module() and C.is_isomorphic_to(R1):
                has_zero_to_r = True
        if not has_zero_to_r:
            raise ValidationError("the mono 0 -> R must be among the generating monos")

    def right_member(self, X: FpModule) -> bool:
        return right_perp_member(X, self.cogenerators)

    def right_samples(self) -> List[FpModule]:
        return [M for M in canonical_test_modules(self.ring) if self.right_member(M)]

    def left_samples(self) -> List[FpModule]:
        return self.left.sample_members(self.ring)


def _zero_to_r(ring: Ring) -> ModuleMap:
    return ModuleMap(FpModule.zero(ring), FpModule.free(ring, 1),
                     Matrix.zero(ring, 1, 0), check=False)


def projective_pair(ring: Ring) -> CotorsionPairData:
    """(projectives, everything), cogenerated by R."""
    return CotorsionPairData(
        ring=ring,
        left=ObjectClass(ObjectClass.PROJECTIVE),
        cogenerators=(FpModule.free(ring, 1),),
        generating_monos=(_zero_to_r(ring),),
        name="projective",
    )


def flat_pair(ring: Ring) -> CotorsionPairData:
    """(flats, flat-cotorsion) at finitely presented scale.

    Over Z the finitely generated flats are the frees, so the data
    coincides with the projective pair's; over Z/n the flat cyclic
    summands R/(d) with gcd(d, n/d) = 1 join the cogenerators, each with
    the generating mono (n/d)R -> R exhibiting it as a cokernel.
    """
    import math

    R1 = FpModule.free(ring, 1)
    cogens = [R1]
    monos = [_zero_to_r(ring)]
    if ring.modulus is not None:
        n = ring.modulus
        for d in ring.divisors():
            if 1 < d < n and math.gcd(d, n // d) == 1:
                cogens.append(FpModule.cyclic(ring, d))
                monos.append(ModuleMap(FpModule.cyclic(ring, n // d), R1,
                                       Matrix.from_rows(ring, [[d]])))
    return CotorsionPairData(
        ring=ring,
        left=ObjectClass(ObjectClass.FLAT),
        cogenerators=tuple(cogens),
        generating_monos=tuple(monos),
        name="flat",
    )


def injective_pair(ring: Ring) -> CotorsionPairData:
    """(everything, injectives) over a quasi-Frobenius ring, cogenerated
    by the cyclic modules R/(d)."""
    if not ring.is_quasi_frobenius:
        raise PreconditionFailedError(
            "the injective pair needs a quasi-Frobenius ring (Z/n, F_p)")
    R1 = FpModule.free(ring, 1)
    n = ring.modulus
    cogens = [R1]
    monos = [_zero_to_r(ring)]
    for d in ring.divisors():
        if 1 < d < n:
            cogens.append(FpModule.cyclic(ring, d))
            monos.append(ModuleMap(FpModule.cyclic(ring, n // d), R1,
                                   Matrix.from_rows(ring, [[d]])))
    return CotorsionPairData(
        ring=ring,
        left=ObjectClass(ObjectClass.ALL),
        cogenerators=tuple(cogens),
        generating_monos=tuple(monos),
        name="injective",
    )


def deliberately_wrong_pair(ring: Ring) -> CotorsionPairData:
    """A non-pair used as a negative fixture: it claims all modules lift
    against the free generator alone, so its Ext-orthogonality fails as
    soon as the ring has any torsion cyclic (witness R/(2), R/(2))."""
    return CotorsionPairData(
        ring=ring,
        left=ObjectClass(ObjectClass.ALL),
        cogenerators=(FpModule.free(ring, 1),),
        generating_monos=(_zero_to_r(ring),),
        name="wrong",
    )


# -- induced complex classes ------------------------------------------------------


FTILDE = "FTilde"
DG_F_LEFT = "DgFLeft"
CTILDE = "CTilde"
DG_C_RIGHT = "DgCRight"


@dataclass
class ClassCertificate:
    """Record of exactly which tests decided a complex-class membership."""

    class_id: str
    verdict: bool
    exactness: Optional[bool] = None
    degree_results: Dict[int, bool] = field(default_factory=dict)
    failure: Optional[str] = None

    def describe(self) -> str:
        bits = [f"{self.class_id}: {'member' if self.verdict else 'non-member'}"]
        if self.exactness is not None:
            bits.append(f"exact={self.exactness}")
        if self.degree_results:
            bad = [n for n, ok in sorted(self.degree_results.items()) if not ok]
            bits.append(f"degree tests={'all pass' if not bad else f'fail at {bad}'}")
        if self.failure:
            bits.append(self.failure)
        return "; ".join(bits)


def complex_class_member(X: ChainComplex, cls: str, pair: CotorsionPairData):
    """Decide membership of X in one of the four induced classes.

    Returns (bool, ClassCertificate).  FTilde and CTilde hold the exact
    complexes whose cycle modules lie in the left and right class.  The
    dg classes are decided by the degreewise test alone, which is
    decisive for bounded complexes: DgFLeft holds the complexes whose
    entries lie in the left class, DgCRight those whose entries lie in
    the right class.  Null-homotopy tests against disks D^n(M) are not
    run: a disk is contractible, so every map into or out of one is
    null-homotopic and such a test cannot fail.
    """
    if cls not in (FTILDE, CTILDE, DG_F_LEFT, DG_C_RIGHT):
        raise PreconditionFailedError(f"unknown complex class {cls}")
    cert = ClassCertificate(class_id=cls, verdict=True)
    pred = pair.left.contains if cls in (FTILDE, DG_F_LEFT) else pair.right_member
    exact_class = cls in (FTILDE, CTILDE)
    if exact_class:
        cert.exactness = is_exact(X)
    for n in X.support:
        cert.degree_results[n] = pred(cycles(X, n)[0] if exact_class else X.module_at(n))
    cert.verdict = cert.exactness is not False and all(cert.degree_results.values())
    if not cert.verdict:
        if not exact_class:
            cert.failure = "degreewise class fails"
        else:
            cert.failure = "not exact" if not cert.exactness else "cycle class fails"
    return cert.verdict, cert


def induced_generating_monos(pair: CotorsionPairData, window) -> List[ChainMap]:
    """The generating monomorphisms of the induced pair on complexes,
    instantiated over a finite degree window.

    Three families, in order: 0 -> D^n(R), S^{n-1}(R) -> D^n(R), and the
    sphere-stretched module-level generating monos S^n(Y) -> S^n(Z)."""
    ring = pair.ring
    R1 = FpModule.free(ring, 1)
    out = []
    for n in window:
        out.append(ChainMap.zero_map(ChainComplex.zero(ring), disk(n, R1)))
    for n in window:
        out.append(sphere_into_disk(n, R1))
    for k in pair.generating_monos:
        for n in window:
            src = sphere(n, k.source)
            tgt = sphere(n, k.target)
            out.append(ChainMap(src, tgt, {n: k.matrix}, check=False))
    return out


# -- compatibility report --------------------------------------------------------


@dataclass
class CompatVerdict:
    name: str
    passed: bool
    counterexamples: List[str] = field(default_factory=list)


@dataclass
class CompatReport:
    pair_name: str
    verdicts: List[CompatVerdict]

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def lines(self) -> List[str]:
        out = []
        for v in self.verdicts:
            status = "pass" if v.passed else "FAIL"
            line = f"{v.name}: {status}"
            if v.counterexamples:
                line += f" [{'; '.join(v.counterexamples)}]"
            out.append(line)
        return out


def check_compatibility(pair: CotorsionPairData, sample_budget: int = 20,
                        seed: int = 0) -> CompatReport:
    """Run the three equivalent-compatibility verdicts on samples.

    (resolving) kernels of sampled epis between left-class objects stay
    in the left class; (ext-vanishing) Ext^n(A, B) = 0 for n = 1, 2, 3
    over sampled left/right members; (intersection) sampled exact members
    of the dg-left class have left-class cycles.
    """
    import random as _random

    if sample_budget < 1:
        raise PreconditionFailedError("sample budget must be positive")
    rng = _random.Random(seed)
    ring = pair.ring
    left_samples = pair.left_samples()
    right_samples = pair.right_samples()

    resolving = CompatVerdict("resolving", True)
    used = 0
    for F1 in left_samples:
        for F2 in left_samples:
            if used >= sample_budget:
                break
            p = _sample_epi(ring, F1, F2, rng)
            if p is None:
                continue
            used += 1
            K, _ = p.kernel()
            if not pair.left.contains(K):
                resolving.passed = False
                resolving.counterexamples.append(
                    f"kernel {K!r} of epi {F1!r} ->> {F2!r} left the class")

    extv = CompatVerdict("ext-vanishing", True)
    for A in left_samples:
        for B in right_samples:
            for n in (1, 2, 3):
                if not ext_vanishes(A, B, n):
                    extv.passed = False
                    extv.counterexamples.append(f"Ext^{n}({A!r}, {B!r}) != 0")
                    break
            if not extv.passed:
                break
        if not extv.passed:
            break

    inter = CompatVerdict("intersection", True)
    for _ in range(min(sample_budget, 8)):
        E = _sample_exact_left_complex(pair, rng)
        member, _ = complex_class_member(E, DG_F_LEFT, pair)
        if not member:
            continue
        ok, fcert = complex_class_member(E, FTILDE, pair)
        if not ok:
            inter.passed = False
            inter.counterexamples.append(
                f"exact dg-left complex not in FTilde: {fcert.describe()}")

    return CompatReport(pair.name, [resolving, extv, inter])


def _sample_epi(ring, F1, F2, rng):
    """A random epi F1 ->> F2 drawn from the hom module, or None."""
    H, gens = hom_module(F1, F2)
    if not gens:
        return None
    hi = 5 if ring.modulus is None else ring.modulus
    for _ in range(8):
        m = Matrix.zero(ring, F2.gens, F1.gens)
        for g in gens:
            c = rng.randrange(hi)
            if c:
                m = m + g.matrix.scale(c)
        f = ModuleMap(F1, F2, m, check=False)
        if f.is_epi():
            return f
    return None


def _sample_exact_left_complex(pair, rng):
    """cone(id) of a small random complex with left-class entries:
    contractible, hence exact, with entries still in the class."""
    from .complexes import cone

    ring = pair.ring
    lo = rng.randint(-1, 1)
    r1, r2 = rng.randint(1, 2), rng.randint(1, 2)
    F1 = FpModule.free(ring, r1)
    F2 = FpModule.free(ring, r2)
    hi = 3 if ring.modulus is None else ring.modulus
    m = Matrix(ring, r1, r2, [[rng.randrange(hi) for _ in range(r2)] for _ in range(r1)])
    X = ChainComplex(ring, {lo + 1: F2, lo: F1}, {lo + 1: m})
    return cone(ChainMap.identity(X))
