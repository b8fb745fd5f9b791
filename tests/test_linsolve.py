"""The solver writes its system entry by entry, as sparse rows; the
Kronecker assembly it replaced is kept here as the reference."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from finhom import Integers, IntegersModN, Matrix, smith
from finhom.linsolve import MatrixEquationSolver
from finhom.modules import FpModule, ModuleMap
from finhom.smith import eliminate, eliminate_modular, kernel_basis, solve_linear
from helpers import columns, element_is_zero, unvec

ZZ = Integers()


def kronecker_build(solver):
    """A and b of the solver's system via vec(L U R) = (R^T kron L) vec(U),
    with a missing L or R formed as an identity matrix."""
    ring = solver.ring
    total = solver._total
    rows, rhs_entries = [], []
    for terms, rhs in solver._equations:
        block = [[0] * total for _ in range(rhs.rows * rhs.cols)]
        for coef, left, h, right in terms:
            left_m = left if left is not None else Matrix.identity(ring, h.rows)
            right_m = right if right is not None else Matrix.identity(ring, h.cols)
            kron = right_m.transpose().kronecker(left_m).scale(coef)
            off = h.offset
            for i, ke in enumerate(kron.entries):
                for j, x in enumerate(ke):
                    block[i][off + j] = ring.add(block[i][off + j], x)
        rows.extend(block)
        rhs_entries.extend(rhs.vec())
    return Matrix(ring, len(rows), total, rows), Matrix.column(ring, rhs_entries)


def rand_matrix(rng, ring, rows, cols):
    return Matrix(ring, rows, cols,
                  [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])


def random_solver(rng, ring):
    solver = MatrixEquationSolver(ring)
    handles = [solver.add_unknown_matrix(rng.randint(0, 3), rng.randint(0, 3))
               for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(1, 3)):
        m, p = rng.randint(0, 3), rng.randint(0, 3)
        terms = []
        for _ in range(rng.randint(1, 3)):
            h = rng.choice(handles)
            coef = rng.choice((1, -1, 2))
            left = None if h.rows == m and rng.random() < 0.5 else rand_matrix(rng, ring, m, h.rows)
            right = None if h.cols == p and rng.random() < 0.5 else rand_matrix(rng, ring, h.cols, p)
            terms.append((coef, left, h, right))
        slack = rand_matrix(rng, ring, m, rng.randint(0, 2)) if rng.random() < 0.5 else None
        solver.add_equation(terms, rand_matrix(rng, ring, m, p), mod_relations=slack)
    return solver


@pytest.mark.parametrize("ring", [Integers(), IntegersModN(4)], ids=str)
def test_build_matches_kronecker_assembly(ring):
    rng = random.Random(f"linsolve-{ring}")
    for _ in range(300):
        solver = random_solver(rng, ring)
        A, b, _, total = solver._build()
        A_ref, b_ref = kronecker_build(solver)
        # each row holds exactly the nonzero entries of the reference row,
        # and densified the rows are the reference matrix
        assert A.entries == [{j: x for j, x in enumerate(r) if x} for r in A_ref.entries]
        assert A.matrix() == A_ref and (A.rows, A.cols) == (A_ref.rows, total)
        assert b.entries == b_ref.entries and b.rows == b_ref.rows


@pytest.mark.parametrize("ring", [Integers(), IntegersModN(4)], ids=str)
def test_unknowns_are_read_from_their_solution_slices(ring):
    # solve() is the vector solve_linear finds and solution_basis() the
    # columns of kernel_basis, on the densified system; value(vec, h) of
    # every unknown, slack included, is unvec of its slice of the vector
    # (column-stacked)
    rng = random.Random(f"linsolve-extract-{ring}")
    for _ in range(200):
        solver = random_solver(rng, ring)
        A, b, offs, _ = solver._build()
        A = A.matrix()
        x = solve_linear(A, b)
        sol = solver.solve()
        assert (sol is None) == (x is None)
        found = [] if x is None else [(sol, x.col(0))]
        found += zip(solver.solution_basis(), columns(kernel_basis(A)))
        for got, vec in found:
            assert got == vec
            for h, off in zip(solver._unknowns, offs):
                want = unvec(ring, h.rows, h.cols, vec[off: off + h.rows * h.cols])
                assert solver.value(got, h) == want


def eliminate_and_read(ring, A, b):
    """What solve() does with the system it built: over Z, the dense form
    carrying b, read by SmithForm.read; over Z/n, the sparse elimination
    carrying b, read by back-substitution."""
    if ring == ZZ:
        form = eliminate(A.matrix(), b)
        return form.read(form.U)
    return eliminate_modular(ring, A.entries, A.cols, b).read()


def test_solve_builds_no_slack_unknown(monkeypatch):
    # h: N -> N with h o id = id, N = R^2 / (2, 0) over Z and over Z/4:
    # the well-definedness and the composite equation each add a slack
    # unknown modulo N's relation.  solve() builds the matrices of its
    # elimination and no more (over Z/4, where the system stays sparse,
    # only b), and reading h builds one Matrix.
    for ring in (ZZ, IntegersModN(4)):
        N = FpModule(ring, 2, Matrix.from_rows(ring, [[2], [0]]))
        solver = MatrixEquationSolver(ring)
        h = solver.add_unknown_map(N, N)
        solver.require_composite_equals(h, ModuleMap.identity(N), ModuleMap.identity(N))
        assert len(solver._unknowns) == 3

        built = []
        init, reduced = Matrix.__init__, Matrix._reduced

        def counting_init(self, *args):
            built.append(args[1:3])
            init(self, *args)

        def counting_reduced(*args):
            built.append(args[1:3])
            return reduced(*args)

        monkeypatch.setattr(Matrix, "__init__", counting_init)
        monkeypatch.setattr(Matrix, "_reduced", staticmethod(counting_reduced))
        A, b, _, _ = solver._build()
        assert eliminate_and_read(ring, A, b) is not None
        elimination = list(built)
        if ring != ZZ:
            assert elimination == [(b.rows, 1)]
        del built[:]
        vec = solver.solve()
        assert built == elimination
        del built[:]
        found = solver.value(vec, h)
        assert built == [(2, 2)]
        monkeypatch.undo()
        assert ModuleMap(N, N, found).compose(ModuleMap.identity(N)).equals(ModuleMap.identity(N))


@pytest.mark.parametrize("ring", [Integers(), IntegersModN(4)], ids=str)
def test_solver_systems_stay_out_of_the_smith_memo(ring):
    # each solve() and solution_basis() builds a fresh system and reads
    # its Smith form once, so the form is not memoized
    rng = random.Random(f"linsolve-memo-{ring}")
    smith.snf.cache_clear()
    for _ in range(50):
        solver = random_solver(rng, ring)
        solver.solve()
        solver.solution_basis()
        assert smith.snf.cache_info().currsize == 0
    # relation matrices are still memoized: an equal one is a hit
    rows = [[2, 0, 1], [0, 0, 2]]
    assert not element_is_zero(FpModule(ring, 2, Matrix.from_rows(ring, rows)), [1, 0])
    info = smith.snf.cache_info()
    assert info.currsize == 1
    assert not element_is_zero(FpModule(ring, 2, Matrix.from_rows(ring, rows)), [1, 0])
    after = smith.snf.cache_info()
    assert (after.hits, after.misses, after.currsize) == (info.hits + 1, info.misses, 1)


SOLVER_CERTIFICATES_UNDER_O = """
import sys
from finhom import IntegersModN, Matrix
from finhom.complexes import ChainMap, disk
from finhom.errors import ValidationError
from finhom.functors import lift_through
from finhom.model import PROJECTIVE_STRUCTURE, LiftProblem, classify_map, model_structure, solve_lifting
from finhom.modules import FpModule, ModuleMap, ShortExactSeq, find_map_with
from finhom.smith import Echelon

def expect_certificate(label, thunk):
    try:
        thunk()
    except ValidationError as exc:
        print(label, exc)
    else:
        print(label, "returned")

Z6 = IntegersModN(6)
print("optimize", sys.flags.optimize)
R = FpModule.free(Z6, 1)
row = ShortExactSeq.from_submodule(FpModule.cyclic(Z6, 6), Matrix.from_rows(Z6, [[2]]))
spec = model_structure(PROJECTIVE_STRUCTURE, Z6)
idD = ChainMap.identity(disk(1, R))
flags = (classify_map(idD, spec), classify_map(idD, spec))
# every solve over Z/n is forced to find nothing
read = Echelon.read
Echelon.read = lambda self: None
expect_certificate("lift-through", lambda: lift_through(row.i, row.p, row, row))
expect_certificate("solve-lifting", lambda: solve_lifting(LiftProblem(idD, idD, idD, idD), spec, flags))
# a solution is found, but its composite is forced to differ
Echelon.read = read
ModuleMap.equals = lambda self, other: False
idR = ModuleMap.identity(R)
expect_certificate("find-map", lambda: find_map_with(R, R, post_compose=(idR, idR)))
"""


def test_solver_certificates_survive_python_O():
    # the certificates of lift_through, solve_lifting and find_map_with
    # check what the sparse Z/n solve returns, under python -O too
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", SOLVER_CERTIFICATES_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "optimize 1",
        "lift-through certificate failed: lift_through: vanishing Ext splits the middle sequence",
        "solve-lifting certificate failed: solve_lifting: a lift exists when the preconditions hold",
        "find-map certificate failed: find_map_with: g o h = c",
    ]
