"""Executable verifiers for the model and monoidal axioms.

Both checkers pre-generate their sample inputs from the seed and then
evaluate them one by one, so the resulting reports are deterministic
for a fixed seed regardless of evaluation order.

``check_model_axioms`` verifies, on seeded random bounded complexes of
free modules and random chain maps between them:

* two-of-three for weak equivalences on composable pairs,
* retract closure of all five flags (a map is a retract of its direct
  sum with anything),
* both lifting axioms, through the global lifting solver,
* both factorization axioms, by factoring and re-classifying, with the
  cell certificates recomposed and their pushout squares re-verified.

Each sampled map is factored once per mode, and its factor maps are
classified once: the lifting and the factorization axioms read the
same factorization and the same flags.  A factorization or
classification that raised is raised again wherever it is read, so
each axiom records the same witness, and the sampler draws the same
maps, as it would factoring on its own.  A library error
(``FinhomError``) is recorded as a failed axiom; any other exception is
a bug, and propagates.

``check_monoidal`` verifies the tensor conditions: flatness of class
members, closure of the class under tensor, the unit, degreewise purity
of sampled cofibrations, tensor-closure of the two left-hand complex
classes, the unit complex being cofibrant, and the pushout-product of
sampled cofibrations being a cofibration.  Only this cofibration half of
the pushout-product axiom is checked: no trivial cofibration enters the
pushout products, so that f□g is trivial when f or g is stays unchecked.
The unit axiom follows from the unit complex being cofibrant
(``condiv-unit-cofibrant``).
"""

from __future__ import annotations

import time

from .complexes import (
    ChainComplex,
    ChainMap,
    is_quasi_iso,
    tensor_complexes,
)
from .cotorsion import DG_F_LEFT, FTILDE, complex_class_member
from .errors import (
    CertificateMissingError,
    FactorizationObstructedError,
    FinhomError,
    PreconditionFailedError,
    ValidationError,
)
from .functors import is_flat, tensor_modules
from .matrix import Matrix
from .model import (
    COF_THEN_TRIVFIB,
    FLAT_STRUCTURE,
    PROJECTIVE_STRUCTURE,
    TRIVCOF_THEN_FIB,
    LiftProblem,
    ModelStructureSpec,
    classify_map,
    factor_map,
    pushout_product,
    solve_lifting,
)
from .modules import FpModule, kernel_columns
from .report import Report
from .sampling import DeterministicSampler


def _direct_sum_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    src = ChainComplex.direct_sum(f.source, g.source)
    tgt = ChainComplex.direct_sum(f.target, g.target)
    comps = {n: Matrix.block_diagonal(f.ring, [f.matrix_at(n), g.matrix_at(n)])
             for n in src.objects if n in tgt.objects}
    return ChainMap(src, tgt, comps, check=False)


def _outcome(fn, *args):
    """fn(*args), or the library error it raised; any other exception
    is a bug and propagates."""
    try:
        return fn(*args)
    except FinhomError as exc:
        return exc


def _value(outcome):
    """The value an ``_outcome`` holds; a held exception is raised."""
    if isinstance(outcome, FinhomError):
        raise outcome
    return outcome


def _factor_flags(fact, spec: ModelStructureSpec):
    """The flags of both factor maps, as ``solve_lifting`` reads them."""
    return classify_map(fact.i, spec), classify_map(fact.p, spec)


def check_model_axioms(spec: ModelStructureSpec, seed: int, samples: int) -> Report:
    if samples < 1:
        raise PreconditionFailedError("samples must be >= 1")
    start = time.monotonic()
    sampler = DeterministicSampler(seed)
    ring = spec.ring
    report = Report(
        command=f"model-check --structure {spec.structure_id} --ring {ring} "
                f"--seed {seed} --samples {samples}",
        seed=seed)

    # pre-generate every sample before evaluating anything
    triples = []
    retracts = []
    factor_inputs = []
    for _ in range(samples):
        X = sampler.free_complex(ring)
        Y = sampler.free_complex(ring)
        Z = sampler.free_complex(ring)
        f = sampler.chain_map(X, Y)
        g = sampler.chain_map(Y, Z)
        triples.append((f, g))
        A = sampler.free_complex(ring)
        B = sampler.free_complex(ring)
        h = sampler.chain_map(A, B)
        retracts.append((f, h))
        factor_inputs.append(f)

    width = len(str(samples - 1))

    for k, (f, g) in enumerate(triples):
        tag = f"mc2of3-{k:0{width}d}"
        w = [is_quasi_iso(f), is_quasi_iso(g), is_quasi_iso(g.compose(f))]
        ok = sum(w) != 2
        report.add(tag, ok, "" if ok else f"flags {w} violate two-of-three")

    for k, (f, h) in enumerate(retracts):
        tag = f"mc3retract-{k:0{width}d}"
        big = _direct_sum_maps(f, h)
        flags_big = classify_map(big, spec)
        flags_f = classify_map(f, spec)
        bad = []
        for name, val in flags_big.as_dict().items():
            if val and not flags_f.as_dict()[name]:
                bad.append(name)
        report.add(tag, not bad,
                   "" if not bad else f"retract lost flags {bad}")

    for k, f in enumerate(factor_inputs):
        # read by both axioms; a held exception is raised at each read
        facts = {mode: _outcome(factor_map, f, mode, spec)
                 for mode in (TRIVCOF_THEN_FIB, COF_THEN_TRIVFIB)}
        flags = {mode: _outcome(_factor_flags, fact, spec)
                 for mode, fact in facts.items() if not isinstance(fact, FinhomError)}

        tag = f"mc4lift-{k:0{width}d}"
        try:
            fact_tc = _value(facts[TRIVCOF_THEN_FIB])
            fact_cf = _value(facts[COF_THEN_TRIVFIB])
            # square 1: trivial cofibration against a fibration
            i1 = fact_tc.i
            p1 = fact_tc.p
            h = sampler.chain_map(i1.target, p1.source)
            prob = LiftProblem(i1, p1, h.compose(i1), p1.compose(h))
            lift = solve_lifting(prob, spec, _value(flags[TRIVCOF_THEN_FIB]))
            ok1 = lift.compose(i1).equals(prob.top) and p1.compose(lift).equals(prob.bottom)
            # square 2: cofibration against a trivial fibration
            i2 = fact_cf.i
            p2 = fact_cf.p
            h2 = sampler.chain_map(i2.target, p2.source)
            prob2 = LiftProblem(i2, p2, h2.compose(i2), p2.compose(h2))
            lift2 = solve_lifting(prob2, spec, _value(flags[COF_THEN_TRIVFIB]))
            ok2 = lift2.compose(i2).equals(prob2.top) and p2.compose(lift2).equals(prob2.bottom)
            report.add(tag, ok1 and ok2, "" if ok1 and ok2 else "lift identities failed")
        except FinhomError as exc:  # a failed lift is a violation, not a crash
            report.add(tag, False, f"{type(exc).__name__}: {exc}")

        tag = f"mc5factor-{k:0{width}d}"
        try:
            problems = []
            for mode in (COF_THEN_TRIVFIB, TRIVCOF_THEN_FIB):
                fact = _value(facts[mode])
                if not fact.p.compose(fact.i).equals(f):
                    problems.append(f"{mode}: composite differs from f")
                    continue
                fi, fp = _value(flags[mode])
                if mode == COF_THEN_TRIVFIB and not (fi.cof and fp.triv_fib):
                    problems.append(f"{mode}: reclassification failed")
                if mode == TRIVCOF_THEN_FIB and not (fi.triv_cof and fp.fib):
                    problems.append(f"{mode}: reclassification failed")
                if not fact.revalidate(spec):
                    problems.append(f"{mode}: certificates did not revalidate")
                if not fact.cell_chain.verify():
                    problems.append(f"{mode}: cell chain failed verification")
            report.add(tag, not problems, "; ".join(problems))
        except FinhomError as exc:
            report.add(tag, False, f"{type(exc).__name__}: {exc}")

    report.wall_time = time.monotonic() - start
    return report


def check_monoidal(spec: ModelStructureSpec, seed: int, samples: int) -> Report:
    if spec.structure_id not in (PROJECTIVE_STRUCTURE, FLAT_STRUCTURE):
        raise PreconditionFailedError(
            "monoidal checks run on the projective or flat structure")
    start = time.monotonic()
    sampler = DeterministicSampler(seed)
    ring = spec.ring
    report = Report(
        command=f"monoidal-check --structure {spec.structure_id} --ring {ring} "
                f"--seed {seed} --samples {samples}",
        seed=seed)

    members = spec.pair.left_samples()
    width = len(str(max(samples, len(members)) - 1)) if samples > 1 else 1

    # (1) every class member is flat
    for k, M in enumerate(members):
        ok = False
        witness = ""
        try:
            ok = is_flat(M)
        except ValidationError as exc:  # a failed certificate is a violation
            witness = str(exc)
        if not ok and not witness:
            witness = f"{M!r} is not flat"
        report.add(f"cond1-flat-{k:0{width}d}", ok, witness)

    # (2) the class is closed under tensor products
    for k, M in enumerate(members):
        N = members[(k + 1) % len(members)]
        T = tensor_modules(M, N)
        ok = spec.pair.left.contains(T)
        report.add(f"cond2-tensor-closed-{k:0{width}d}", ok,
                   "" if ok else f"{M!r} ox {N!r} left the class")

    # (3) the unit is in the class
    unit_ok = spec.pair.left.contains(FpModule.free(ring, 1))
    report.add("cond3-unit", unit_ok, "" if unit_ok else "R is not in the class")

    # sampled cofibrations: generating monos plus i-parts of factorizations
    cofibs = list(spec.generating_cofibrations(range(0, 2)))
    sample_maps = []
    for _ in range(max(1, samples // 10)):
        X = sampler.free_complex(ring, max_support=3, max_rank=2)
        Y = sampler.free_complex(ring, max_support=3, max_rank=2)
        sample_maps.append(sampler.chain_map(X, Y))
    for f in sample_maps:
        try:
            cofibs.append(factor_map(f, COF_THEN_TRIVFIB, spec).i)
        except (FactorizationObstructedError, CertificateMissingError):
            pass  # a map without this factorization adds no cofibration

    # (i) degreewise purity: tensoring with cyclic modules keeps monos
    divisors = [d for d in ([2, 3, 4, 5] if ring.modulus is None
                            else [d for d in ring.divisors() if d > 1])]
    # f_n tensor R/(d) is f_n's matrix kronecker the 1 x 1 identity between
    # the tensor presentations; it is mono when its kernel vanishes
    cyclics = [(d, FpModule.cyclic(ring, d)) for d in divisors]
    for k, c in enumerate(cofibs):
        bad = ""
        for n in c.source.support:
            A = c.matrix_at(n)
            for d, cyc in cyclics:
                t = A.kronecker(Matrix.identity(ring, cyc.gens))
                source = tensor_modules(c.source.module_at(n), cyc)
                if not source.columns_vanish(
                        kernel_columns(t, tensor_modules(c.target.module_at(n), cyc))):
                    bad = f"degree {n} not pure against R/({d})"
                    break
            if bad:
                break
        report.add(f"condi-purity-{k:0{width}d}", not bad, bad)

    # (ii)/(iii): tensor closure of the dg-left and left-exact classes
    for k in range(max(1, samples // 10)):
        X = sampler.free_complex(ring, max_support=3, max_rank=2)
        Y = sampler.free_complex(ring, max_support=3, max_rank=2)
        T = tensor_complexes(X, Y)
        ok, cert = complex_class_member(T, DG_F_LEFT, spec.pair)
        report.add(f"condii-dg-tensor-{k:0{width}d}", ok,
                   "" if ok else cert.describe())
        # an exact member: cone of the identity
        from .complexes import cone

        E = cone(ChainMap.identity(X))
        TE = tensor_complexes(E, Y)
        ok2, cert2 = complex_class_member(TE, FTILDE, spec.pair)
        report.add(f"condiii-exact-tensor-{k:0{width}d}", ok2,
                   "" if ok2 else cert2.describe())

    # (iv) the unit complex is cofibrant
    from .complexes import sphere

    unit_map = ChainMap.zero_map(ChainComplex.zero(ring),
                                 sphere(0, FpModule.free(ring, 1)))
    flags = classify_map(unit_map, spec)
    report.add("condiv-unit-cofibrant", flags.cof,
               "" if flags.cof else "0 -> S^0(R) is not a cofibration")

    # pushout-product of sampled cofibrations
    pp_pairs = [(cofibs[a % len(cofibs)], cofibs[(a + 1) % len(cofibs)])
                for a in range(min(samples, 6))]
    for k, (a, b) in enumerate(pp_pairs):
        try:
            pp = pushout_product(a, b)
            okm = pp.is_mono()
            coker = pp.cokernel_complex()
            okc, cert = complex_class_member(coker, DG_F_LEFT, spec.pair)
            ok = okm and okc
            report.add(f"pushout-product-{k:0{width}d}", ok,
                       "" if ok else ("not mono" if not okm else cert.describe()))
        except FinhomError as exc:
            report.add(f"pushout-product-{k:0{width}d}", False,
                       f"{type(exc).__name__}: {exc}")

    report.wall_time = time.monotonic() - start
    return report

