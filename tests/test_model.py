import hashlib

import pytest

from finhom import Integers, IntegersModN, Matrix, PrimeField
from finhom.complexes import (
    ChainComplex,
    ChainMap,
    disk,
    homology,
    homology_table,
    is_exact,
    is_quasi_iso,
    sphere,
)
from finhom.errors import FactorizationObstructedError, PreconditionFailedError, ValidationError
from finhom.functors import tor_n
from finhom.model import (
    COF_THEN_TRIVFIB,
    FLAT_STRUCTURE,
    INJECTIVE_STRUCTURE,
    PROJECTIVE_STRUCTURE,
    TRIVCOF_THEN_FIB,
    LiftProblem,
    ce_trivial_fibration,
    classify_map,
    cofibrant_replacement,
    derived_tensor,
    factor_map,
    fibrant_replacement,
    model_structure,
    pushout_product,
    solve_lifting,
)
from finhom import checks, model
from finhom.checks import check_model_axioms
from finhom.modules import FpModule
from finhom.sampling import DeterministicSampler

ZZ = Integers()
Z4 = IntegersModN(4)


def zmod(d):
    return FpModule.cyclic(ZZ, d)


def two_step(a=2):
    Z1 = FpModule.free(ZZ, 1)
    return ChainComplex(ZZ, {1: Z1, 0: Z1},
                        {1: Matrix.from_rows(ZZ, [[a]])})


def test_classify_identity_and_disk():
    spec = model_structure(PROJECTIVE_STRUCTURE, ZZ)
    X = two_step()
    flags = classify_map(ChainMap.identity(X), spec)
    assert all(flags.as_dict().values())

    d = ChainMap.zero_map(ChainComplex.zero(ZZ), disk(1, FpModule.free(ZZ, 1)))
    fl = classify_map(d, spec)
    assert fl.triv_cof and fl.cof and fl.weq

    s = ChainMap.zero_map(ChainComplex.zero(ZZ), sphere(0, zmod(2)))
    fl2 = classify_map(s, spec)
    assert not fl2.cof and not fl2.weq  # S^0(Z/2) is not degreewise projective


def test_ce_trivial_fibration_over_z():
    Y = sphere(0, zmod(2))
    spec = model_structure(PROJECTIVE_STRUCTURE, ZZ)
    T, t = ce_trivial_fibration(Y, spec)
    assert t.is_epi()
    assert is_quasi_iso(t)
    for n in T.support:
        assert T.module_at(n).relations.cols == 0
    # the classical resolution: Z --2--> Z
    assert homology(T, 0).invariant_factors() == (2,)
    assert homology(T, 1).is_zero_module()


def test_ce_trivial_fibration_mixed_torsion():
    # a two-degree complex with torsion in entries and in homology
    Za, Zb = zmod(4), zmod(6)
    d = Matrix.from_rows(ZZ, [[3]])
    Y = ChainComplex(ZZ, {1: Za, 0: Zb}, {1: d})
    spec = model_structure(PROJECTIVE_STRUCTURE, ZZ)
    T, t = ce_trivial_fibration(Y, spec)
    assert t.is_epi() and is_quasi_iso(t)
    for n in T.support:
        assert T.module_at(n).relations.cols == 0
    assert homology_table(T) == homology_table(Y)

    # factoring into such a target exercises the pullback correction
    X = two_step(3)
    f = ChainMap(X, Y, {0: Matrix.from_rows(ZZ, [[2]])})
    fact = factor_map(f, COF_THEN_TRIVFIB, spec)
    assert fact.p.compose(fact.i).equals(f)
    assert fact.revalidate(spec)
    assert fact.cell_chain.verify()


def test_cofibrant_replacement_matches_spec_example():
    spec = model_structure(PROJECTIVE_STRUCTURE, ZZ)
    Q, p, fact = cofibrant_replacement(sphere(0, zmod(2)), spec)
    assert is_quasi_iso(p)
    assert p.is_epi()
    table = homology_table(Q)
    assert table == {0: (2,)}
    for n in Q.support:
        assert spec.pair.left.contains(Q.module_at(n))
    assert fact.cell_chain.verify()


def test_factor_both_modes_small():
    spec = model_structure(PROJECTIVE_STRUCTURE, ZZ)
    X = two_step(2)
    Y = sphere(0, zmod(2))
    f = ChainMap(X, Y, {0: Matrix.from_rows(ZZ, [[1]])})
    for mode in (COF_THEN_TRIVFIB, TRIVCOF_THEN_FIB):
        fact = factor_map(f, mode, spec)
        assert fact.p.compose(fact.i).equals(f)
        assert fact.revalidate(spec)
        assert fact.cell_chain.verify()


def test_factor_already_cofibration():
    spec = model_structure(PROJECTIVE_STRUCTURE, ZZ)
    f = ChainMap.zero_map(ChainComplex.zero(ZZ), two_step(2))
    fact = factor_map(f, COF_THEN_TRIVFIB, spec)
    assert fact.p.compose(fact.i).equals(f)
    assert is_quasi_iso(fact.p)


def test_factor_d1z_to_zero_trivcof_mode():
    spec = model_structure(PROJECTIVE_STRUCTURE, ZZ)
    D = disk(1, FpModule.free(ZZ, 1))
    f = ChainMap.zero_map(D, ChainComplex.zero(ZZ))
    fact = factor_map(f, TRIVCOF_THEN_FIB, spec)
    assert fact.p.compose(fact.i).equals(f)
    ker, _ = fact.p.kernel_subcomplex()
    assert is_exact(ker)


def test_fibrant_replacement_projective_structure_is_identity_like():
    spec = model_structure(PROJECTIVE_STRUCTURE, ZZ)
    X = sphere(0, zmod(2))
    R, i, fact = fibrant_replacement(X, spec)
    assert i.is_mono()
    # everything is fibrant in the projective structure
    assert R == X or all(R.module_at(n).is_isomorphic_to(X.module_at(n))
                         for n in R.support)


def test_solve_lifting_disk_case():
    spec = model_structure(PROJECTIVE_STRUCTURE, Z4)
    # i: 0 -> D^1(R) trivial cofibration, p: the disk cover of S^0(Z/2)
    R1 = FpModule.free(Z4, 1)
    i = ChainMap.zero_map(ChainComplex.zero(Z4), disk(1, R1))
    Y = sphere(0, FpModule.cyclic(Z4, 2))
    f0 = ChainMap.zero_map(ChainComplex.zero(Z4), Y)
    fact = factor_map(f0, TRIVCOF_THEN_FIB, spec)
    p = fact.p
    top = ChainMap.zero_map(i.source, p.source)
    bottom = sphere_map_zero = ChainMap.zero_map(i.target, p.target)
    prob = LiftProblem(i, p, top, bottom)
    h = solve_lifting(prob, spec)
    assert p.compose(h).equals(bottom)

    with pytest.raises(PreconditionFailedError):
        # identity on S^0(Z/2) over Z/4 is not a trivial cofibration source
        bad_i = ChainMap.zero_map(ChainComplex.zero(Z4), Y)
        solve_lifting(LiftProblem(bad_i, p, ChainMap.zero_map(bad_i.source, p.source),
                                  ChainMap.zero_map(Y, Y)), spec)


def test_derived_tensor_matches_tor():
    spec = model_structure(FLAT_STRUCTURE, ZZ)
    for a, b in ((4, 6), (2, 3), (6, 9)):
        table, fact = derived_tensor(sphere(0, zmod(a)), sphere(0, zmod(b)), spec)
        import math

        g = math.gcd(a, b)
        expected = {}
        if g > 1:
            expected = {0: (g,), 1: (g,)}
        assert table == expected
        for n in (0, 1, 2):
            t = tor_n(zmod(a), zmod(b), n)
            assert table.get(n, ()) == t.invariant_factors()


def test_derived_tensor_free_and_exact():
    spec = model_structure(PROJECTIVE_STRUCTURE, ZZ)
    Y = two_step(3)
    table, _ = derived_tensor(sphere(0, FpModule.free(ZZ, 1)), Y, spec)
    assert table == homology_table(Y)


def test_pushout_product_unit():
    R1 = FpModule.free(ZZ, 1)
    f = ChainMap.zero_map(ChainComplex.zero(ZZ), sphere(0, R1))
    pp = pushout_product(f, f)
    assert pp.is_mono()
    assert pp.target.module_at(0).is_isomorphic_to(R1)

    spec = model_structure(PROJECTIVE_STRUCTURE, ZZ)
    ident = ChainMap.identity(sphere(0, R1))
    pp2 = pushout_product(ident, f)
    assert pp2.is_iso()


def test_factorization_obstruction_over_z4():
    # S^0(Z/2) over Z/4 has no bounded free quasi-isomorphic cover:
    # the Euler characteristic obstruction must surface as an error
    spec = model_structure(PROJECTIVE_STRUCTURE, Z4)
    f = ChainMap.zero_map(ChainComplex.zero(Z4),
                          sphere(0, FpModule.cyclic(Z4, 2)))
    # the module named is the homology Z/2, not the boundaries B_0 = 0
    with pytest.raises(FactorizationObstructedError, match="Z/4/2"):
        factor_map(f, COF_THEN_TRIVFIB, spec)


def test_injective_structure_requires_qf_ring():
    with pytest.raises(Exception):
        model_structure(INJECTIVE_STRUCTURE, ZZ)
    spec = model_structure(INJECTIVE_STRUCTURE, Z4)
    # everything is cofibrant: 0 -> X is a cofibration for torsion X too
    s = ChainMap.zero_map(ChainComplex.zero(Z4), sphere(0, FpModule.cyclic(Z4, 2)))
    flags = classify_map(s, spec)
    assert flags.cof and not flags.weq


def test_model_check_factors_and_classifies_each_sample_once(monkeypatch):
    # per sample: one factorization per mode, read by both the lifting and
    # the factorization axiom; the flags of its factor maps, read by
    # solve_lifting and the reclassification; and the two retract flags
    calls = {"factor_map": 0, "classify_map": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(checks, "factor_map", counted("factor_map", factor_map))
    classify = counted("classify_map", classify_map)
    monkeypatch.setattr(checks, "classify_map", classify)
    monkeypatch.setattr(model, "classify_map", classify)
    report = check_model_axioms(model_structure(PROJECTIVE_STRUCTURE, Z4), seed=3, samples=2)
    assert report.all_pass
    assert calls == {"factor_map": 2 * 2, "classify_map": 6 * 2}


@pytest.mark.parametrize("refused", [COF_THEN_TRIVFIB, TRIVCOF_THEN_FIB])
def test_model_check_reports_a_refused_factorization_in_both_axioms(monkeypatch, refused):
    # the factorization of the first sample (the only one with a source in
    # degree -1) is refused in one mode; both axioms report it for that
    # sample, and the later samples draw the same lifting squares
    def refusing(f, mode, spec):
        if mode == refused and f.source.lo < 0:
            raise FactorizationObstructedError(f"{mode} refused on a sampled map")
        return factor_map(f, mode, spec)

    drawn = []
    chain_map = DeterministicSampler.chain_map

    def recorded(self, X, Y):
        g = chain_map(self, X, Y)
        drawn.append(sorted((n, c.entries) for n, c in g.components.items()))
        return g

    monkeypatch.setattr(checks, "factor_map", refusing)
    monkeypatch.setattr(DeterministicSampler, "chain_map", recorded)
    report = check_model_axioms(model_structure(PROJECTIVE_STRUCTURE, Z4), seed=3, samples=3)
    witness = f"FactorizationObstructedError: {refused} refused on a sampled map"
    got = {c.name: (c.passed, c.witness) for c in report.sorted_checks()
           if c.name.startswith(("mc4lift", "mc5factor"))}
    # recorded with the separate lifting and factorization loops
    assert got == {"mc4lift-0": (False, witness), "mc4lift-1": (True, ""),
                   "mc4lift-2": (True, ""), "mc5factor-0": (False, witness),
                   "mc5factor-1": (True, ""), "mc5factor-2": (True, "")}
    assert hashlib.sha256(report.to_machine().encode()).hexdigest() == {
        COF_THEN_TRIVFIB: "45ca9e01978d8d14b0363dec657d1fc99a9e9bf187f1df454860c28d9df85d16",
        TRIVCOF_THEN_FIB: "f98188e8dac8df73ca76afb14b0bab52fb17d8b9bc5a7ec7107136f9cd16fea6",
    }[refused]
    # 9 maps sampled up front, then two lifting squares for each of samples 1 and 2
    assert len(drawn) == 13
    assert hashlib.sha256(repr(drawn).encode()).hexdigest() == \
        "29b35b745e351c78a7dce05a5e0f50011dcab9d877c583d73ddef86c1f4914d7"


def test_model_check_lets_a_bug_propagate(monkeypatch):
    # only the library's typed errors are recorded as failed axioms; any
    # other exception is a bug, and crashes the check
    def broken(f, mode, spec):
        raise TypeError("planted bug")

    monkeypatch.setattr(checks, "factor_map", broken)
    with pytest.raises(TypeError, match="planted bug"):
        check_model_axioms(model_structure(PROJECTIVE_STRUCTURE, Z4), seed=3, samples=2)


def test_solve_lifting_enforces_its_precondition_on_given_flags():
    # flags handed in are held to the same precondition as computed ones
    spec = model_structure(PROJECTIVE_STRUCTURE, Z4)
    R1 = FpModule.free(Z4, 1)
    i = ChainMap.zero_map(ChainComplex.zero(Z4), disk(1, R1))
    p = ChainMap.identity(disk(1, R1))
    prob = LiftProblem(i, p, ChainMap.zero_map(i.source, p.source),
                       ChainMap.zero_map(i.target, p.target))
    flags = (classify_map(i, spec), classify_map(p, spec))
    assert solve_lifting(prob, spec, flags).equals(solve_lifting(prob, spec))
    no_flags = model.MapFlags(weq=False, cof=False, fib=False, triv_cof=False, triv_fib=False)
    with pytest.raises(PreconditionFailedError):
        solve_lifting(prob, spec, (no_flags, flags[1]))
    with pytest.raises(PreconditionFailedError):
        solve_lifting(prob, spec, (flags[0], no_flags))


def test_check_monoidal_skips_only_refused_factorizations(monkeypatch):
    spec = model_structure(PROJECTIVE_STRUCTURE, ZZ)

    def refuse(*args):
        raise FactorizationObstructedError("no factorization")

    monkeypatch.setattr(checks, "factor_map", refuse)
    report = checks.check_monoidal(spec, seed=1, samples=10)
    assert report.all_pass
    tags = {c.name.rsplit("-", 1)[0] for c in report.checks}
    assert tags == {"cond1-flat", "cond2-tensor-closed", "cond3", "condi-purity",
                    "condii-dg-tensor", "condiii-exact-tensor", "condiv-unit",
                    "pushout-product"}

    def fail(*args):
        raise ValidationError("certificate failed: planted")

    monkeypatch.setattr(checks, "factor_map", fail)
    with pytest.raises(ValidationError, match="planted"):
        checks.check_monoidal(spec, seed=1, samples=10)
