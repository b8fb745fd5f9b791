"""The acceptance gate: one test per criterion, each printing a
pass/fail line.  Tolerances and budgets are pinned here, not deferred.

Run with `python3 -m pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from functools import lru_cache

import pytest

from finhom import Integers, IntegersModN, Matrix, PrimeField, functors, smith
from finhom.checks import check_model_axioms, check_monoidal
from finhom.complexes import (
    ChainComplex,
    ChainMap,
    cone,
    cycles,
    is_exact,
    sphere,
)
from finhom.cotorsion import (
    ObjectClass,
    check_compatibility,
    deliberately_wrong_pair,
    flat_pair,
    projective_pair,
)
from finhom.functors import lift_through, tor_n
from finhom.kaplansky import flat_subcomplex_envelope
from finhom.linsolve import MatrixEquationSolver
from finhom.model import (
    COF_THEN_TRIVFIB,
    FLAT_STRUCTURE,
    PROJECTIVE_STRUCTURE,
    TRIVCOF_THEN_FIB,
    ModelStructureSpec,
    derived_tensor,
    factor_map,
    model_structure,
)
from finhom.modules import FpModule, ModuleMap, ShortExactSeq
from finhom.quiver import (
    QuiverEdge,
    QuiverRep,
    QuiverRepModule,
    is_quasi_coherent,
    quasi_coherence_bruteforce,
    quiver_kaplansky_witness,
)
from finhom.report import Report
from finhom.sampling import DeterministicSampler
from helpers import (
    ModuleSampler,
    cokernel_presentation,
    element_in_submodule,
    element_is_zero,
    zero_map,
)
from oracles import all_module_maps

ZZ = Integers()
Z4 = IntegersModN(4)
Z6 = IntegersModN(6)
F3 = PrimeField(3)


def _line(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}" + (f" -- {detail}" if detail else ""))


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_tor_oracle():
    """derived_tensor of torsion spheres matches Tor in degrees 0 and 1."""
    spec = model_structure(FLAT_STRUCTURE, ZZ)
    start = time.monotonic()
    failures = []
    for a in range(1, 13):
        for b in range(1, 13):
            A = FpModule.cyclic(ZZ, a)
            B = FpModule.cyclic(ZZ, b)
            table, _ = derived_tensor(sphere(0, A), sphere(0, B), spec)
            g = math.gcd(a, b)
            expected = {} if g == 1 else {0: (g,), 1: (g,)}
            if table != expected:
                failures.append((a, b, table, expected))
            for n in (0, 1):
                if table.get(n, ()) != tor_n(A, B, n).invariant_factors():
                    failures.append((a, b, n, "tor mismatch"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5.0
    _line("criterion 1 (Tor oracle, 144 pairs)", ok,
          f"{elapsed:.2f}s" + (f", failures: {failures[:3]}" if failures else ""))
    assert not failures, failures[:5]
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


# ---------------------------------------------------------------- criterion 2


def _random_lift_instance(sampler):
    """A valid lifting instance over Z/6 with all modules of <= 36 elements."""
    while True:
        B = sampler.small_module(Z6, max_gens=2, max_size=36)
        if B.is_zero_module():
            continue
        top = sampler.short_exact_seq(B)
        L = sampler.small_module(Z6, max_gens=2, max_size=36)
        if L.is_zero_module():
            continue
        bottom = sampler.short_exact_seq(L)
        # draw a commuting square (f, g) from the joint solution module
        solver = MatrixEquationSolver(Z6)
        hf = solver.add_unknown_map(top.sub, L)
        hg = solver.add_unknown_map(B, bottom.quotient_module)
        # q f - g i = 0
        solver.add_equation(
            [(1, bottom.p.matrix, hf, None), (-1, None, hg, top.i.matrix)],
            Matrix.zero(Z6, bottom.quotient_module.gens, top.sub.gens),
            mod_relations=bottom.quotient_module.relations)
        basis = solver.solution_basis()
        if not basis:
            f = zero_map(top.sub, L)
            g = zero_map(B, bottom.quotient_module)
        else:
            f = zero_map(top.sub, L)
            g = zero_map(B, bottom.quotient_module)
            for sol in basis:
                c = sampler.randint(0, 5)
                if c:
                    f = f + ModuleMap(top.sub, L, solver.value(sol, hf), check=False).scale(c)
                    g = g + ModuleMap(B, bottom.quotient_module, solver.value(sol, hg),
                                      check=False).scale(c)
        return f, g, top, bottom


def test_criterion_2_lift_oracle():
    sampler = ModuleSampler(2)
    failures = []
    for k in range(100):
        f, g, top, bottom = _random_lift_instance(sampler)
        h = lift_through(f, g, top, bottom)
        if not (h.compose(top.i).equals(f) and bottom.p.compose(h).equals(g)):
            failures.append((k, "identities"))
            continue
        brute = any(
            cand.compose(top.i).equals(f) and bottom.p.compose(cand).equals(g)
            for cand in all_module_maps(top.middle, bottom.middle))
        if not brute:
            failures.append((k, "exhaustive search disagrees"))
    _line("criterion 2 (lift oracle, 100 instances over Z/6)", not failures,
          f"failures: {failures[:3]}" if failures else "100/100 agree")
    assert not failures, failures[:5]


# ---------------------------------------------------------------- criterion 3


FACTOR_RINGS = ((ZZ, FLAT_STRUCTURE), (Z4, PROJECTIVE_STRUCTURE),
                (F3, PROJECTIVE_STRUCTURE))


@lru_cache(maxsize=None)
def _factor_suite(ring_key: str):
    """200 seeded factorizations in both modes; returns (report, chains,
    elapsed seconds)."""
    ring, structure = {
        "Z": (ZZ, FLAT_STRUCTURE),
        "Zmod4": (Z4, PROJECTIVE_STRUCTURE),
        "Fp3": (F3, PROJECTIVE_STRUCTURE),
    }[ring_key]
    spec = model_structure(structure, ring)
    sampler = DeterministicSampler(3)
    report = Report(command=f"factor-suite --ring {ring_key} --seed 3 --samples 200",
                    seed=3)
    chains = []
    start = time.monotonic()
    for k in range(200):
        X = sampler.free_complex(ring, max_support=4, max_rank=3)
        Y = sampler.free_complex(ring, max_support=4, max_rank=3)
        f = sampler.chain_map(X, Y)
        for mode in (COF_THEN_TRIVFIB, TRIVCOF_THEN_FIB):
            tag = f"factor-{mode}-{k:03d}"
            try:
                fact = factor_map(f, mode, spec)
                ok = (fact.p.compose(fact.i).equals(f)
                      and fact.i.is_mono() and fact.p.is_epi()
                      and fact.revalidate(spec))
                report.add(tag, ok, "" if ok else "certificates failed")
                chains.append((fact.i, fact.cell_chain))
            except Exception as exc:
                report.add(tag, False, f"{type(exc).__name__}: {exc}")
    return report, chains, time.monotonic() - start


@pytest.mark.parametrize("ring_key", ["Z", "Zmod4", "Fp3"])
def test_criterion_3_factor_suite(ring_key):
    report, chains, elapsed = _factor_suite(ring_key)
    ok = report.all_pass and elapsed < 60.0
    _line(f"criterion 3 (factor suite over {ring_key}, 200 samples x 2 modes)",
          ok, f"{elapsed:.1f}s, {report.fail_count} failures")
    assert report.all_pass, [c for c in report.sorted_checks() if not c.passed][:3]
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


# ---------------------------------------------------------------- criterion 4


@lru_cache(maxsize=None)
def _model_axiom_report(which: str) -> Report:
    if which == "proj-Z4":
        spec = model_structure(PROJECTIVE_STRUCTURE, Z4)
    else:
        spec = model_structure(FLAT_STRUCTURE, ZZ)
    return check_model_axioms(spec, seed=1, samples=50)


@pytest.mark.parametrize("which", ["proj-Z4", "flat-Z"])
def test_criterion_4_model_axioms(which):
    report = _model_axiom_report(which)
    _line(f"criterion 4 (model axioms, {which}, 50 samples)", report.all_pass,
          f"{report.fail_count} violations of {len(report.checks)} checks")
    assert report.all_pass, [c for c in report.sorted_checks() if not c.passed][:3]


# ---------------------------------------------------------------- criterion 5


@lru_cache(maxsize=None)
def _monoidal_report(which: str) -> Report:
    if which == "proj-Z4":
        spec = model_structure(PROJECTIVE_STRUCTURE, Z4)
    elif which == "flat-Z":
        spec = model_structure(FLAT_STRUCTURE, ZZ)
    else:  # sabotage: all objects as the left class over Z
        spec = ModelStructureSpec(ZZ, FLAT_STRUCTURE, deliberately_wrong_pair(ZZ))
    return check_monoidal(spec, seed=1, samples=50)


@pytest.mark.parametrize("which", ["proj-Z4", "flat-Z"])
def test_criterion_5_monoidal(which):
    report = _monoidal_report(which)
    _line(f"criterion 5 (monoidal axioms, {which}, 50 samples)", report.all_pass,
          f"{report.fail_count} violations")
    assert report.all_pass, [c for c in report.sorted_checks() if not c.passed][:3]


def test_criterion_5_sabotage_fixture():
    report = _monoidal_report("sabotage")
    failing = [c for c in report.sorted_checks() if not c.passed]
    cond1 = [c for c in failing if c.name.startswith("cond1-flat")]
    ok = bool(cond1) and any("Z/2" in c.witness for c in cond1)
    _line("criterion 5 (sabotage fixture fails condition (1) with witness Z/2)",
          ok, cond1[0].witness if cond1 else "no failure observed")
    assert ok


@pytest.fixture
def fresh_flatness_caches():
    functors.is_flat.cache_clear()
    functors.is_projective.cache_clear()
    yield
    functors.is_flat.cache_clear()
    functors.is_projective.cache_clear()


def test_criterion_5_failed_flatness_certificate_is_a_violation(monkeypatch,
                                                                fresh_flatness_caches):
    # Tor_1 of every cyclic module against M is forced nonzero, so the flat
    # and projective tests disagree and is_flat's certificate fails
    monkeypatch.setattr(functors, "_tor1_cyclic_vanishes", lambda M, d: False)
    report = check_monoidal(model_structure(PROJECTIVE_STRUCTURE, Z4), seed=1, samples=1)
    cond1 = [c for c in report.sorted_checks() if c.name.startswith("cond1-flat")]
    assert cond1 and not any(c.passed for c in cond1)
    assert all("is_flat: the flat and projective tests agree" in c.witness for c in cond1)


# ---------------------------------------------------------------- criterion 6


def _sample_exact_fx_pair(sampler):
    """(F, X): F a finite extension of disks on free modules over Z (a
    contractible bounded free complex), X a small subcomplex seed."""
    base = sampler.free_complex(ZZ, max_support=3, max_rank=2)
    F = cone(ChainMap.identity(base))
    seeds = {}
    for n in F.support:
        g = F.module_at(n).gens
        if g and sampler.randint(0, 1):
            v = [sampler.randint(-2, 2) for _ in range(g)]
            seeds[n] = Matrix.column(ZZ, v)
            dv = F.diff(n).matrix * seeds[n]
            below = seeds.get(n - 1, Matrix.zero(ZZ, F.module_at(n - 1).gens, 0))
            seeds[n - 1] = below.hstack(dv)
    return F, seeds


def test_criterion_6_flat_subcomplex_envelope():
    sampler = DeterministicSampler(6)
    cls = ObjectClass(ObjectClass.PROJECTIVE)
    failures = []
    for k in range(50):
        F, seeds = _sample_exact_fx_pair(sampler)
        res = flat_subcomplex_envelope(F, seeds, cls, gamma=6)
        S = res.subcomplex
        if not is_exact(S):
            failures.append((k, "not exact"))
            continue
        if not res.inclusion.is_mono():
            failures.append((k, "inclusion not mono"))
            continue
        # X <= S
        contained = True
        for n, g in seeds.items():
            incl = res.inclusion.component_at(n).matrix
            for j in range(g.cols):
                if element_in_submodule(F.module_at(n), incl, g.col(j)) is None:
                    contained = False
        if not contained:
            failures.append((k, "seed not contained"))
            continue
        for n in F.support:
            Zs, zincl_s = cycles(S, n)
            if Zs.invariant_factors() and any(d != 0 for d in Zs.invariant_factors()):
                failures.append((k, f"cycles at {n} not free"))
                break
            # quotient of ambient cycles by witness cycles must be torsion-free
            ZF, zincl = cycles(F, n)
            sub_in_f = res.inclusion.component_at(n).matrix * zincl_s.matrix
            cols = []
            for j in range(sub_in_f.cols):
                c = element_in_submodule(F.module_at(n), zincl.matrix, sub_in_f.col(j))
                assert c is not None
                cols.append(tuple(c.col(0)))
            mat = (Matrix(ZZ, ZF.gens, len(cols), [list(r) for r in zip(*cols)])
                   if cols else Matrix.zero(ZZ, ZF.gens, 0))
            Q = FpModule(ZZ, ZF.gens, ZF.relations.hstack(mat))
            if any(d != 0 for d in Q.invariant_factors()):
                failures.append((k, f"cycle quotient at {n} has torsion"))
                break
    _line("criterion 6 (flat subcomplex envelope, 50 pairs)", not failures,
          f"failures: {failures[:3]}" if failures else "all witnesses validate")
    assert not failures, failures[:5]


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_icell_certificates():
    total = 0
    bad = []
    for ring_key in ("Z", "Zmod4", "Fp3"):
        _, chains, _ = _factor_suite(ring_key)
        # composing every chain from criterion 3 must reproduce the mono
        # bit-exactly, and every cell square must pass the pushout check
        for idx, (i_map, chain) in enumerate(chains):
            total += 1
            comp = chain.compose()
            exact = all(
                comp.component_at(n).matrix == i_map.component_at(n).matrix
                for n in i_map.source.support)
            if not exact:
                bad.append((ring_key, idx, "composite not bit-exact"))
                continue
            if not all(cell.verify_pushout() for cell in chain.cells):
                bad.append((ring_key, idx, "pushout square failed"))
    # chains from criterion 4 are verified inside check_model_axioms; spot
    # re-verify a fresh batch here
    spec = model_structure(PROJECTIVE_STRUCTURE, Z4)
    sampler = DeterministicSampler(1)
    for k in range(5):
        X = sampler.free_complex(Z4)
        Y = sampler.free_complex(Z4)
        f = sampler.chain_map(X, Y)
        for mode in (COF_THEN_TRIVFIB, TRIVCOF_THEN_FIB):
            fact = factor_map(f, mode, spec)
            total += 1
            if not fact.cell_chain.verify():
                bad.append(("Zmod4-mc5", k, mode))
    _line("criterion 7 (cell certificates recompose and re-verify)", not bad,
          f"{total} chains checked" + (f"; failures {bad[:3]}" if bad else ""))
    assert not bad, bad[:5]


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_compatibility():
    rep1 = check_compatibility(projective_pair(Z4), sample_budget=20, seed=1)
    rep2 = check_compatibility(flat_pair(ZZ), sample_budget=20, seed=1)
    wrong = check_compatibility(deliberately_wrong_pair(ZZ), sample_budget=20, seed=1)
    extv = [v for v in wrong.verdicts if v.name == "ext-vanishing"][0]
    witness_ok = (not extv.passed and extv.counterexamples
                  and "Ext^1(FpModule(Z/2), FpModule(Z/2))" in extv.counterexamples[0])
    ok = rep1.all_pass and rep2.all_pass and witness_ok
    _line("criterion 8 (compatibility verdicts)", ok,
          f"projective/Z4: {rep1.all_pass}, flat/Z: {rep2.all_pass}, "
          f"wrong-pair witness: {extv.counterexamples[:1]}")
    assert rep1.all_pass, rep1.lines()
    assert rep2.all_pass, rep2.lines()
    assert witness_ok, extv.counterexamples


# ---------------------------------------------------------------- criterion 9


def _enumerate_finite_modules(ring, max_size=36):
    """Small deterministic family of modules over a finite ring."""
    out = [FpModule.free(ring, 1)]
    for d in ring.divisors():
        if 1 < d < ring.modulus:
            out.append(FpModule.cyclic(ring, d))
    two_gen = FpModule.direct_sum(FpModule.free(ring, 1), FpModule.free(ring, 1))
    if (two_gen.size() or 10 ** 9) <= max_size:
        out.append(two_gen)
    return [M for M in out if (M.size() or 10 ** 9) <= max_size]


def _enumerate_torsion_z_modules(max_size=36):
    sizes = [(2,), (3,), (4,), (6,), (2, 2), (2, 6), (6, 6), (4, 4)]
    out = []
    for tup in sizes:
        total = 1
        for d in tup:
            total *= d
        if total <= max_size:
            out.append(cokernel_presentation(
                Matrix.diagonal(ZZ, len(tup), len(tup), list(tup))))
    return out


def _all_additive_maps(Mv, Mw):
    """All additive maps between finite modules over possibly different
    rings (columns = images of the source generators)."""
    from itertools import product as iproduct

    elements = list(Mw.elements())
    for cols in iproduct(elements, repeat=Mv.gens):
        m = (Matrix(ZZ, Mw.gens, Mv.gens, [list(r) for r in zip(*cols)])
             if Mv.gens else Matrix.zero(ZZ, Mw.gens, 0))
        lifted = m
        rel = Mv.relations.lift_to_integers()
        moved = lifted * rel
        if all(element_is_zero(Mw, moved.col(j)) for j in range(moved.cols)):
            src_ring = Mv.ring
            if src_ring.modulus is not None:
                scaled = lifted.scale(src_ring.modulus)
                if not all(element_is_zero(Mw, scaled.col(j))
                           for j in range(scaled.cols)):
                    continue
            yield m


def test_criterion_9_quiver():
    edges = [(ZZ, Z6), (Z6, IntegersModN(2)), (Z4, IntegersModN(2))]
    mismatches = []
    instances = 0
    for src_ring, tgt_ring in edges:
        rep = QuiverRep(("v", "w"), {"v": src_ring, "w": tgt_ring},
                        (QuiverEdge("e", "v", "w"),))
        if src_ring.modulus is None:
            sources = _enumerate_torsion_z_modules(36)
        else:
            sources = _enumerate_finite_modules(src_ring)
        targets = _enumerate_finite_modules(tgt_ring)
        for Mv in sources:
            for Mw in targets:
                for emap in _all_additive_maps(Mv, Mw):
                    instances += 1
                    M = QuiverRepModule(rep, {"v": Mv, "w": Mw},
                                        {"e": emap.change_ring(ZZ)})
                    algebraic = is_quasi_coherent(M)[0]
                    brute = quasi_coherence_bruteforce(M)[0]
                    if algebraic != brute:
                        mismatches.append((src_ring, tgt_ring,
                                           Mv.invariant_factors(),
                                           Mw.invariant_factors()))
    # witness revalidation on 50 seeded finite instances
    sampler = DeterministicSampler(9)
    witness_failures = []
    for k in range(50):
        ring = (Z6, Z4, IntegersModN(2))[sampler.randint(0, 2)]
        rank = sampler.randint(1, 2)
        rep = QuiverRep(("v",), {"v": ring}, ())
        M = QuiverRepModule(rep, {"v": FpModule.free(ring, rank)}, {})
        seeds = {}
        if sampler.randint(0, 1):
            seeds["v"] = Matrix.column(ring, [sampler.entry(ring)
                                              for _ in range(rank)])
        w = quiver_kaplansky_witness(M, seeds)
        if not w.revalidate(M):
            witness_failures.append(k)
    ok = not mismatches and not witness_failures
    _line("criterion 9 (quiver quasi-coherence + witnesses)", ok,
          f"{instances} instances, {len(mismatches)} mismatches, "
          f"{len(witness_failures)} witness failures")
    assert not mismatches, mismatches[:5]
    assert not witness_failures, witness_failures[:5]


# ---------------------------------------------------------------- criterion 10


def test_criterion_10_determinism():
    pairs = []
    # full 50-sample model and monoidal suites: the first run is the one
    # cached for criteria 4 and 5, the second is fresh and starts from cold
    # Smith caches, so an answer that depends on cache state would show
    def clear_smith_caches():
        smith.snf.cache_clear()

    for which in ("proj-Z4", "flat-Z"):
        first = _model_axiom_report(which).to_machine()
        spec = model_structure(PROJECTIVE_STRUCTURE, Z4) if which == "proj-Z4" \
            else model_structure(FLAT_STRUCTURE, ZZ)
        clear_smith_caches()
        second = check_model_axioms(spec, seed=1, samples=50).to_machine()
        pairs.append((f"model-check {which} x50", first, second))
        firstm = _monoidal_report(which).to_machine()
        clear_smith_caches()
        secondm = check_monoidal(spec, seed=1, samples=50).to_machine()
        pairs.append((f"monoidal-check {which} x50", firstm, secondm))
    from finhom.cli import run_command

    c1, r1 = run_command(["compat-check", "--pair", "flat", "--ring", "Z",
                          "--samples", "8", "--seed", "1"])
    c2, r2 = run_command(["compat-check", "--pair", "flat", "--ring", "Z",
                          "--samples", "8", "--seed", "1"])
    pairs.append(("compat-check flat/Z", r1.to_machine(), r2.to_machine()))
    rep_a, _, _ = _factor_suite("Zmod4")
    # rebuild the factor suite from scratch (bypassing the cache)
    _factor_suite.cache_clear()
    rep_b, _, _ = _factor_suite("Zmod4")
    pairs.append(("factor-suite Zmod4 x200", rep_a.to_machine(), rep_b.to_machine()))
    bad = [name for name, x, y in pairs if x != y]
    _line("criterion 10 (byte-identical machine reports)", not bad,
          f"{len(pairs)} suites compared" + (f"; unstable: {bad}" if bad else ""))
    assert not bad, bad
