import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finhom import (Integers, IntegersModN, Matrix, PrimeField, complexes, functors, kaplansky,
                    model, modules, sampling)
from finhom.errors import ValidationError
from finhom.modules import (
    FpModule,
    ModuleMap,
    ShortExactSeq,
    find_section,
    hom_module,
    quotient,
    submodule,
    subquotient,
)
from helpers import (
    cokernel_presentation,
    columns,
    element_in_submodule,
    element_is_zero,
    find_retraction,
    map_factorization,
    zero_map,
)

ZZ = Integers()
Z4 = IntegersModN(4)
Z6 = IntegersModN(6)


def zmod(d):
    return FpModule.cyclic(ZZ, d)


def test_invariant_factors_and_canonical_form():
    M = cokernel_presentation(Matrix.from_rows(ZZ, [[1, 0], [0, 6]]))
    assert M.invariant_factors() == (6,)
    assert M.is_isomorphic_to(zmod(6))
    free2 = FpModule.free(ZZ, 2)
    assert free2.invariant_factors() == (0, 0)
    assert cokernel_presentation(Matrix.zero(ZZ, 0, 2)).gens == 0

    canon, to, fro = M.canonical_form()
    assert canon.invariant_factors() == (6,)
    assert to.compose(fro).is_identity()
    assert fro.compose(to).is_identity()


def test_element_canonical_forms_mod6():
    M = FpModule.cyclic(Z6, 2)  # Z/2 presented over Z/6
    seen = {M.canonical_element([v]) for v in range(6)}
    assert len(seen) == 2
    assert M.size() == 2
    assert sorted(M.elements()) == sorted(seen)


@pytest.mark.parametrize("ring", [ZZ, IntegersModN(1), Z4, IntegersModN(12), IntegersModN(30),
                                  PrimeField(3)], ids=str)
def test_columns_vanish_matches_canonical_elements(ring):
    rng = random.Random(f"columns-vanish-{ring}")
    n = ring.modulus

    def entry():
        return rng.randint(-3, 3) if n is None else rng.randrange(n)

    def random_matrix(r, c):
        return Matrix(ring, r, c, [[entry() for _ in range(c)] for _ in range(r)])

    for _ in range(80):
        g, r, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        M = cokernel_presentation(random_matrix(g, r))
        # some columns from the relation span, some random
        A = (M.relations * random_matrix(r, k) if rng.random() < 0.5
             else random_matrix(g, k))
        if k and rng.random() < 0.3:
            A = A.hstack(random_matrix(g, 1))
        per_column = all(not any(M.canonical_element(col)) for col in columns(A))
        assert M.columns_vanish(A) == per_column
        for col in columns(A):
            assert element_is_zero(M, col) == (not any(M.canonical_element(col)))


@st.composite
def _free_module_columns(draw):
    """A ring, a rank g from 0 to 5 and a g x k matrix, k from 0 to 4:
    zero, or with entries in [-3, 3] (over Z some of 60 bits) that are
    zero half the time."""
    ring = draw(st.sampled_from([ZZ, IntegersModN(1), Z4, IntegersModN(12), PrimeField(3)]))
    g, k = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        return ring, g, Matrix.zero(ring, g, k)
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    if ring.modulus is None:
        entry = st.one_of(entry, st.integers(-(1 << 60), 1 << 60))
    return ring, g, Matrix(ring, g, k, [[draw(entry) for _ in range(k)] for _ in range(g)])


@given(_free_module_columns())
def test_free_module_short_paths_match_the_smith_rule(case):
    # R^g with no relations is read without a Smith form; the same module
    # presented by one zero relation takes the general Smith rule
    ring, g, A = case
    free = FpModule.free(ring, g)
    general = FpModule(ring, g, Matrix.zero(ring, g, 1))
    assert free.columns_vanish(A) == general.columns_vanish(A)
    assert free.invariant_factors() == general.invariant_factors()


def test_module_map_validation():
    # Z/4 -> Z/2 reduction is fine; Z/2 -> Z/4 by 1 is not
    A = zmod(4)
    B = zmod(2)
    ModuleMap(A, B, Matrix.from_rows(ZZ, [[1]]))
    with pytest.raises(ValidationError):
        ModuleMap(B, A, Matrix.from_rows(ZZ, [[1]]))
    # but Z/2 -> Z/4 by 2 is a genuine mono
    i = ModuleMap(B, A, Matrix.from_rows(ZZ, [[2]]))
    assert i.is_mono() and not i.is_epi()


def test_map_factorization_mult2():
    Z1 = FpModule.free(ZZ, 1)
    f = ModuleMap(Z1, Z1, Matrix.from_rows(ZZ, [[2]]))
    kincl, image, cproj = map_factorization(f)
    assert kincl.source.is_zero_module()
    assert image.is_isomorphic_to(Z1)
    assert cproj.target.is_isomorphic_to(zmod(2))


def test_map_factorization_zero_and_projection():
    M = zmod(4)
    N = zmod(6)
    z = zero_map(M, N)
    kincl, image, cproj = map_factorization(z)
    assert kincl.source.is_isomorphic_to(M)
    assert image.is_zero_module()
    assert cproj.target.is_isomorphic_to(N)

    Z1 = FpModule.free(ZZ, 1)
    p = ModuleMap(Z1, zmod(4), Matrix.from_rows(ZZ, [[1]]))
    kincl, image, cproj = map_factorization(p)
    assert kincl.source.is_isomorphic_to(Z1)  # kernel 4Z is free of rank 1
    assert cproj.target.is_zero_module()


def test_submodule_quotient_subquotient():
    M = FpModule.free(ZZ, 2)
    gens = Matrix.from_rows(ZZ, [[2], [0]])
    S, incl = submodule(M, gens)
    assert S.is_isomorphic_to(FpModule.free(ZZ, 1))
    assert incl.is_mono()
    Q = quotient(M, gens)
    assert Q.invariant_factors() == (2, 0)

    # subquotient: (2Z x Z) / (4Z x 0) inside Z^2
    z = Matrix.from_rows(ZZ, [[2, 0], [0, 1]])
    b = Matrix.from_rows(ZZ, [[4], [0]])
    H = subquotient(M, z, b)
    assert H.invariant_factors() == (2, 0)


def test_short_exact_sequence_validation():
    B = zmod(4)
    sub_gens = Matrix.from_rows(ZZ, [[2]])
    ses = ShortExactSeq.from_submodule(B, sub_gens)
    assert ses.sub.is_isomorphic_to(zmod(2))
    assert ses.quotient_module.is_isomorphic_to(zmod(2))

    # a non-exact pair must be rejected: use p with kernel bigger than image
    Z1 = FpModule.free(ZZ, 1)
    i = ModuleMap(Z1, Z1, Matrix.from_rows(ZZ, [[4]]))
    p = ModuleMap(Z1, zmod(2), Matrix.from_rows(ZZ, [[1]]))
    with pytest.raises(ValidationError):
        ShortExactSeq(i, p)


def test_find_section_and_retraction():
    # Z/6 = Z/2 x Z/3: the projection Z/6 -> Z/2 splits
    M = FpModule.cyclic(Z6, 1)  # Z/6 as a module over Z/6 (free rank 1)... d=1 kills it
    R6 = FpModule.free(Z6, 1)
    B = FpModule.cyclic(Z6, 2)  # Z/2 over Z/6
    p = ModuleMap(R6, B, Matrix.from_rows(Z6, [[1]]))
    s = find_section(p)
    assert s is not None
    assert p.compose(s).is_identity()

    # over Z the projection Z -> Z/2 does not split
    Z1 = FpModule.free(ZZ, 1)
    q = ModuleMap(Z1, zmod(2), Matrix.from_rows(ZZ, [[1]]))
    assert find_section(q) is None

    i = ModuleMap(Z1, FpModule.free(ZZ, 2), Matrix.from_rows(ZZ, [[1], [0]]))
    r = find_retraction(i)
    assert r is not None and r.compose(i).is_identity()


def test_hom_module():
    H, gens = hom_module(zmod(4), zmod(6))
    assert H.invariant_factors() == (2,)
    H2, _ = hom_module(FpModule.free(ZZ, 2), zmod(3))
    assert H2.invariant_factors() == (3, 3)
    H3, _ = hom_module(zmod(2), FpModule.free(ZZ, 1))
    assert H3.is_zero_module()


def test_epi_detection_matches_generator_criterion():
    # f epi iff Hom(R, -) applied to f is surjective; on finite rings check
    # surjectivity by element enumeration
    rng = random.Random(2)
    for ring in (Z6, Z4, PrimeField(3)):
        n = ring.modulus
        for _ in range(10):
            g1, g2 = rng.randint(1, 2), rng.randint(1, 2)
            M = cokernel_presentation(
                Matrix(ring, g1, 1, [[rng.randrange(n)] for _ in range(g1)])
            )
            N = cokernel_presentation(
                Matrix(ring, g2, 1, [[rng.randrange(n)] for _ in range(g2)])
            )
            Hm, gens = hom_module(M, N)
            if not gens:
                continue
            coeffs = [rng.randrange(n) for _ in gens]
            mat = Matrix.zero(ring, N.gens, M.gens)
            for c, g in zip(coeffs, gens):
                mat = mat + g.matrix.scale(c)
            f = ModuleMap(M, N, mat)
            # enumeration of images of all elements
            image = {N.canonical_element(f.apply(v)) for v in M.elements()}
            all_elts = set(N.elements())
            assert f.is_epi() == (image == all_elts)


def test_element_in_submodule():
    M = FpModule.free(ZZ, 2)
    gens = Matrix.from_rows(ZZ, [[2, 0], [0, 3]])
    assert element_in_submodule(M, gens, [4, 3]) is not None
    assert element_in_submodule(M, gens, [1, 0]) is None


@pytest.mark.parametrize("module", [modules, kaplansky, model, complexes, functors, sampling],
                         ids=["modules", "kaplansky", "model", "complexes", "functors",
                              "sampling"])
def test_module_certificates_are_not_asserts(module):
    # bare asserts vanish under python -O; certificates must not
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]



def _imported_names(tree) -> dict:
    """{bound name: line} for every import of a module, __future__ aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported_names(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(Path(modules.__file__).parent.glob("*.py")),
                         ids=lambda p: p.stem)
def test_module_imports_only_names_it_uses(path):
    # a name re-exported through __all__ counts as used
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(_imported_names(tree)) - used - _exported_names(tree)
    assert not unused, sorted(unused)

CERTIFICATES_UNDER_O = """
import sys
from finhom import Integers, Matrix, complexes
from finhom.complexes import ChainComplex, ChainMap, disk, disk_cover, sphere, sphere_into_disk
from finhom.errors import ValidationError
from finhom.kaplansky import disk_cell, grow_cell_chain
from finhom.model import PROJECTIVE_STRUCTURE, ce_trivial_fibration, model_structure
from finhom.modules import FpModule, ModuleMap

def expect_certificate(label, thunk):
    try:
        thunk()
    except ValidationError as exc:
        print(label, exc)
    else:
        print(label, "returned")

ZZ = Integers()
R1 = FpModule.free(ZZ, 1)
print("optimize", sys.flags.optimize)
# a chain that glues only the first of two disks: its stages miss the target
Q = ChainComplex.direct_sum(disk(1, R1), disk(0, R1))
f = ChainMap.zero_map(ChainComplex.zero(ZZ), Q)
one_cell = [disk_cell(1, Matrix.identity(ZZ, 1), Q.diff(1).matrix)]
expect_certificate("cell-chain", lambda: grow_cell_chain(f, one_cell))
# a sphere cell whose boundary is not in the empty previous stage
off_stage = [("S^0(R) -> D^1(R) cell", sphere_into_disk(1, R1),
              {1: Matrix.identity(ZZ, 1), 0: Q.diff(1).matrix})]
expect_certificate("sphere-cell", lambda: grow_cell_chain(f, off_stage))
# a sphere cell lifted as 2e, not e, glued onto 0 -> S^0(Z): its stages
# miss half the target (this certificate carries the lifts of icell_decompose)
S0, twice = sphere(0, R1), Matrix.from_rows(ZZ, [[2]])
half_lift = [("S^-1(R) -> D^0(R) cell", sphere_into_disk(0, R1),
              {0: twice, -1: S0.diff_matrix(0) * twice})]
expect_certificate("sphere-lift", lambda: grow_cell_chain(
    ChainMap.zero_map(ChainComplex.zero(ZZ), S0), half_lift))
# an inverse whose certificate is forced to fail
ModuleMap.is_identity = lambda self: False
expect_certificate("inverse", lambda: ModuleMap.identity(R1).inverse())
# a disk cover whose epi certificate is forced to fail
real_is_epi = ChainMap.is_epi
ChainMap.is_epi = lambda self: False
expect_certificate("disk-cover", lambda: disk_cover(disk(1, R1)))
# and so is the epi certificate of a Cartan-Eilenberg cover
spec = model_structure(PROJECTIVE_STRUCTURE, ZZ)
ce_input = sphere(0, FpModule.cyclic(ZZ, 2))
expect_certificate("ce", lambda: ce_trivial_fibration(ce_input, spec))
# with t epi again, the membership test behind the exactness of its kernel
# is forced to fail
ChainMap.is_epi = real_is_epi
complexes.subquotient_vanishes = lambda M, zgens, bgens: False
expect_certificate("ce-kernel", lambda: ce_trivial_fibration(ce_input, spec))
"""


def test_certificates_survive_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", CERTIFICATES_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1].startswith(
        "cell-chain certificate failed: grow_cell_chain: the stages exhaust the target")
    assert lines[2] == ("sphere-cell certificate failed: grow_cell_chain: the attaching "
                        "columns lie in the previous stage")
    assert lines[3] == ("sphere-lift certificate failed: grow_cell_chain: the stages "
                        "exhaust the target")
    assert lines[4].startswith("inverse certificate failed: ModuleMap.inverse")
    assert lines[5].startswith("disk-cover certificate failed: disk_cover")
    assert lines[6] == "ce certificate failed: ce_trivial_fibration: t is epi"
    assert lines[7] == ("ce-kernel certificate failed: "
                        "ce_trivial_fibration: the kernel of t is exact")


def test_failed_certificate_raises_validation_error(monkeypatch):
    M = cokernel_presentation(Matrix.from_rows(ZZ, [[2, 0], [0, 3]]))
    monkeypatch.setattr(ModuleMap, "is_identity", lambda self: False)
    with pytest.raises(ValidationError, match="canonical_form"):
        M.canonical_form()
