"""Helpers only the tests use: draws of small modules and short exact
sequences, the parser that reads a machine report back, two matrix
views, two single-element tests, and three constructions the library
itself never needs.

* ``ModuleSampler`` is a ``DeterministicSampler`` that can also draw a
  small finitely presented module and a short exact sequence through it,
  for the lifting instances of the acceptance suite.
* ``report_from_machine`` parses the text ``Report.to_machine`` writes,
  so a round trip can be checked.
* ``columns`` lists a matrix's columns as tuples, and ``unvec`` undoes
  ``Matrix.vec``, the column-stacking vectorization.
* ``element_in_submodule`` gives the coordinates of one element in a
  span, and ``element_is_zero`` whether one element vanishes; the
  library asks both questions of whole matrices at once.
* ``boundaries`` builds B_n of a complex as a submodule,
  ``map_factorization`` the kernel, image and cokernel of a module map
  with exactness certified, and ``find_retraction`` a retraction of a
  module map when one exists.
* ``cokernel_presentation`` is the module a relation matrix presents,
  ``is_field`` whether a ring is a field, ``tensor_unit_iso`` the
  canonical isomorphism M (x) R -> M, and ``zero_map`` the zero module
  map between two modules.
"""

from typing import Optional, Sequence

from finhom.complexes import ChainComplex
from finhom.errors import ParseError, UnsupportedRingError
from finhom.functors import tensor_modules
from finhom.matrix import Matrix
from finhom.modules import (
    FpModule,
    ModuleMap,
    ShortExactSeq,
    _certify,
    find_map_with,
    submodule,
    submodule_coordinates,
)
from finhom.report import FORMAT_HEADER, Report
from finhom.rings import Ring, _is_prime
from finhom.sampling import DeterministicSampler


class ModuleSampler(DeterministicSampler):
    """A ``DeterministicSampler`` that also draws small modules and short
    exact sequences, from the same random stream."""

    def small_module(self, ring: Ring, max_gens: int = 2,
                     max_size: Optional[int] = 36) -> FpModule:
        """A random finitely presented module, resampled until its
        element count fits the bound."""
        if not ring.is_finite:
            raise UnsupportedRingError(f"cannot sample bounded-size modules over {ring}")
        for _ in range(64):
            g = self.rng.randint(1, max_gens)
            r = self.rng.randint(0, max_gens)
            M = cokernel_presentation(
                Matrix(ring, g, r, [[self.entry(ring) for _ in range(r)]
                                    for _ in range(g)]))
            if max_size is None or (M.size() or 0) <= max_size:
                return M
        return FpModule.cyclic(ring, ring.modulus)

    def short_exact_seq(self, M: FpModule) -> ShortExactSeq:
        """A short exact sequence with middle M, from a random submodule."""
        ring = M.ring
        cols = []
        for _ in range(self.rng.randint(1, 2)):
            cols.append([self.entry(ring) for _ in range(M.gens)])
        gens = (Matrix(ring, M.gens, len(cols), [list(r) for r in zip(*cols)])
                if cols else Matrix.zero(ring, M.gens, 0))
        return ShortExactSeq.from_submodule(M, gens)


def _unescape(s: str) -> str:
    out = []
    i = 0
    while i < len(s):
        c = s[i]
        if c == "\\" and i + 1 < len(s):
            nxt = s[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def report_from_machine(text: str) -> Report:
    """The report a machine-readable text describes: the inverse of
    ``Report.to_machine``, raising ParseError on malformed input."""
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise ParseError("not a machine-readable report", line=1)
    report = Report(command="", seed=0)
    summary_seen = False
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        key = parts[0]
        if key == "command":
            report.command = _unescape(parts[1]) if len(parts) > 1 else ""
        elif key == "seed":
            report.seed = int(parts[1])
        elif key == "check":
            if len(parts) != 4:
                raise ParseError("malformed check record", line=idx)
            report.add(_unescape(parts[1]), parts[2] == "pass", _unescape(parts[3]))
        elif key == "summary":
            summary_seen = True
            declared_pass = int(parts[1].split("=")[1])
            declared_fail = int(parts[2].split("=")[1])
            if (declared_pass, declared_fail) != (report.pass_count, report.fail_count):
                raise ParseError("summary counts disagree with records", line=idx)
        else:
            raise ParseError(f"unknown report line {key!r}", line=idx)
    if not summary_seen:
        raise ParseError("report missing its summary line")
    return report


def columns(self: Matrix) -> list:
    return [self.col(j) for j in range(self.cols)]


def unvec(ring: Ring, rows: int, cols: int, v: Sequence[int]) -> Matrix:
    m = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        for i in range(rows):
            m[i][j] = v[j * rows + i]
    return Matrix(ring, rows, cols, m)


def element_in_submodule(M: FpModule, gens: Matrix, v: Sequence[int]) -> Optional[Matrix]:
    """Coordinates of v in span(gens) modulo M's relations, or None."""
    return submodule_coordinates(M, gens, Matrix.column(M.ring, list(v)))


def element_is_zero(M: FpModule, v: Sequence[int]) -> bool:
    return M.columns_vanish(Matrix.column(M.ring, list(v)))


def boundaries(X: ChainComplex, n: int):
    """(B_n, inclusion into X_n)."""
    return submodule(X.module_at(n), X.diff_matrix(n + 1))


def map_factorization(f: ModuleMap):
    """Kernel, image and cokernel of f with exactness verified.

    Returns (kernel_incl, image_module, cokernel_proj); the composite
    source -> image -> target equals f and source -> image is epi.
    """
    K, kincl = f.kernel()
    I, iincl = f.image()
    C, cproj = f.cokernel()
    # corestriction source -> image is the tautological map on generators
    corestr = ModuleMap(
        f.source, I, Matrix.identity(f.ring, f.source.gens), check=False
    )
    _certify(iincl.compose(corestr).equals(f), "map_factorization: image factors f")
    _certify(corestr.is_epi(), "map_factorization: source -> image is epi")
    _certify(kincl.is_mono(), "map_factorization: kernel inclusion is mono")
    _certify(cproj.is_epi(), "map_factorization: cokernel projection is epi")
    _certify(f.compose(kincl).is_zero_map(), "map_factorization: f o kernel = 0")
    _certify(cproj.compose(f).is_zero_map(), "map_factorization: cokernel o f = 0")
    return kincl, I, cproj


def find_retraction(i: ModuleMap) -> Optional[ModuleMap]:
    """r with r o i = id on the source, or None."""
    return find_map_with(i.target, i.source,
                         pre_compose=(i, ModuleMap.identity(i.source)))


def cokernel_presentation(A: Matrix) -> FpModule:
    """The module presented by relation matrix A (one relation per column)."""
    return FpModule(A.ring, A.rows, A)


def is_field(ring: Ring) -> bool:
    return ring.kind == Ring.PRIME_FIELD or (
        ring.kind == Ring.MOD_N and _is_prime(ring.modulus))


def tensor_unit_iso(M: FpModule) -> ModuleMap:
    """The canonical isomorphism M tensor R -> M."""
    src = tensor_modules(M, FpModule.free(M.ring, 1))
    return ModuleMap(src, M, Matrix.identity(M.ring, M.gens), check=False)


def zero_map(source: FpModule, target: FpModule) -> ModuleMap:
    """The zero map source -> target."""
    return ModuleMap(source, target, Matrix.zero(source.ring, target.gens, source.gens),
                     check=False)
