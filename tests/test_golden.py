"""Golden machine reports: the sha256 of a few machine reports, pinned.

Acceptance criterion 10 asks for byte-identical machine reports; the
determinism test compares two runs of the same code, while these digests
compare against the reports recorded before the sparse modular Smith
kernel replaced the dense one.  A change that legitimately alters a
report (a different solution basis, say) updates the digest here and
says why in CHANGES.md.
"""

import hashlib

import pytest

from finhom import Integers, IntegersModN, PrimeField
from finhom.checks import check_model_axioms, check_monoidal
from finhom.cli import run_command
from finhom.complexes import (
    ChainComplex,
    ChainMap,
    chain_hom_gens,
    chain_hom_module,
    chain_map_coords,
    cone,
    cylinder,
    disk,
    disk_cover,
    is_null_homotopic,
    pullback_chainmaps,
    pushout_chainmaps,
    sphere,
    tensor_assoc_iso,
    tensor_chain_maps,
    tensor_complexes,
    tensor_symmetry_iso,
    tensor_unit_iso_complex,
)
from finhom.cotorsion import ObjectClass
from finhom.errors import FactorizationObstructedError, NotInClassError
from finhom.kaplansky import (
    flat_subcomplex_envelope,
    icell_decompose,
    kaplansky_filtration,
    kaplansky_witness,
)
from finhom.matrix import Matrix
from finhom.model import (
    COF_THEN_TRIVFIB,
    FLAT_STRUCTURE,
    PROJECTIVE_STRUCTURE,
    TRIVCOF_THEN_FIB,
    ce_trivial_fibration,
    factor_map,
    model_structure,
)
from finhom.modules import FpModule, ModuleMap, submodule
from finhom.sampling import DeterministicSampler

# modules over Z/12, so the queries go through both CRT parts of the
# modular Smith form; Ext and Tor are nonzero in every degree shown
WORKSPACE = """\
ring R12 Zmod 12
module M over R12 gens 2 rels [[2, 4], [0, 6]]
module N over R12 gens 2 rels [[6, 3], [0, 9]]
"""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_model_check_projective_z4():
    spec = model_structure(PROJECTIVE_STRUCTURE, IntegersModN(4))
    report = check_model_axioms(spec, seed=3, samples=2)
    assert report.all_pass
    assert sha256(report.to_machine()) == \
        "807118d1e6719a2577a6fa33f9a43ea213d1687ab3bc22e2ff428134b5bbf6dc"


def test_golden_monoidal_flat_z():
    report = check_monoidal(model_structure(FLAT_STRUCTURE, Integers()), seed=1, samples=50)
    assert report.all_pass
    assert sha256(report.to_machine()) == \
        "a5758c1ecbde4704c4c99ddc4b2654defbb74a44f8ddf4b6f9e5396443ad7ccc"


@pytest.mark.parametrize("command, digest", [
    ("ext", "e5f34b9562680d672aedb324ea5797a1f8d060001207c50761894dc50e6a41e7"),
    ("tor", "80f73cc3d95056c7f4e4ec76ad8129a2cdd96916f4ed93510e15fc5ac24d6bf7"),
])
def test_golden_cli_query(command, digest, tmp_path, monkeypatch):
    # the report echoes the command line, so the workspace path is relative
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ws.cl").write_text(WORKSPACE, encoding="utf-8")
    code, report = run_command([command, "--workspace", "ws.cl", "--a", "M", "--b", "N",
                                "--max-degree", "3"])
    assert code == 0
    assert sha256(report.to_machine()) == digest


# -- Hom and tensor of complexes -------------------------------------------------

def _mat(M) -> str:
    return f"{M.rows}x{M.cols}{M.entries}"


def _cx(X) -> str:
    return ";".join(f"{n}:{_mat(X.module_at(n).relations)}{_mat(X.diff(n).matrix)}"
                    for n in X.support)


def _cm(f) -> str:
    degrees = sorted(set(f.source.support) | set(f.target.support))
    return (f"{_cx(f.source)}->{_cx(f.target)}|"
            + ";".join(f"{n}:{_mat(f.component_at(n).matrix)}" for n in degrees))


def _hom_and_tensor_lines(ring, torsion):
    """One line per output of the Hom and tensor layers on sampled complexes."""
    sampler = DeterministicSampler(8)
    lines = []
    for _ in range(6):
        X = sampler.free_complex(ring, max_support=3, max_rank=3)
        Y = sampler.free_complex(ring, max_support=3, max_rank=2)
        Z = sampler.free_complex(ring, max_support=2, max_rank=2)
        # a summand with relations, so equations are taken modulo them
        Xr = ChainComplex.direct_sum(X, disk(1, FpModule.cyclic(ring, torsion)))
        Yr = ChainComplex.direct_sum(Y, sphere(0, FpModule.cyclic(ring, torsion)))
        for A, B in ((X, Y), (Xr, Yr), (Yr, Xr)):
            gens = chain_hom_gens(A, B)
            lines.append("hom " + " ".join(_cm(g) for g in gens))
            H, _ = chain_hom_module(A, B)
            lines.append("hom-module " + _mat(H.relations))
            f = sampler.chain_map(A, B)
            coords = chain_map_coords(gens, A.support, f)
            lines.append("coords " + ("None" if coords is None else _mat(coords)))
            # maps into the contractible cone of an identity are null-homotopic
            C = cone(ChainMap.identity(B))
            for phi in (f, sampler.chain_map(A, C)):
                s = is_null_homotopic(phi)
                lines.append("null " + ("None" if s is None else
                                        ";".join(f"{n}:{_mat(m)}"
                                                 for n, m in sorted(s.maps.items()))))
            g = sampler.chain_map(B, A)
            lines.append("tensor " + _cx(tensor_complexes(A, B)))
            lines.append("tensor-maps " + _cm(tensor_chain_maps(f, g)))
            lines.append("symmetry " + _cm(tensor_symmetry_iso(A, B)))
            lines.append("unit " + _cm(tensor_unit_iso_complex(A)))
        lines.append("assoc " + _cm(tensor_assoc_iso(Xr, Y, Z)))
    return lines


@pytest.mark.parametrize("ring, torsion, digest", [
    (Integers(), 4,
     "89f28cf960530b24a0312145d4a2c687a2c3cf409992f5607a7ebb7cd8d35eab"),
    (IntegersModN(4), 2,
     "3441ee94a693cbcc6ec33ece8c2dded1c569e23024196b62d1821f0788fc3ea2"),
    (IntegersModN(12), 6,
     "023dd8272b7398da712dad8a881d962079c0aa11ce1fd211a3d2e8db80cebc7e"),
    (PrimeField(3), 0,
     "d766375309512856ecc2395964a4149953656f02535ce0f674579b0f0d9105fc"),
], ids=["Z", "Z4", "Z12", "F3"])
def test_golden_hom_and_tensor_of_complexes(ring, torsion, digest):
    # recorded before Hom and tensor of complexes each moved into one builder
    assert sha256("\n".join(_hom_and_tensor_lines(ring, torsion))) == digest


# -- pushouts and pullbacks of complexes -------------------------------------------

def _pushout_and_pullback_lines(ring, torsion):
    """One line per output of the pushout and pullback builders: the
    complex P, its two injections or projections, and universal maps."""
    sampler = DeterministicSampler(11)
    T = FpModule.cyclic(ring, torsion)
    lines = []
    for _ in range(6):
        A = sampler.free_complex(ring, max_support=3, max_rank=2)
        # summands with relations, so P carries torsion on both sides
        B = ChainComplex.direct_sum(sampler.free_complex(ring, max_support=3, max_rank=2),
                                    disk(1, T))
        C = ChainComplex.direct_sum(sampler.free_complex(ring, max_support=3, max_rank=2),
                                    sphere(0, T))
        f, g = sampler.chain_map(A, B), sampler.chain_map(A, C)
        P, ib, ic, universal = pushout_chainmaps(f, g)
        lines.append(f"pushout {_cx(P)} {_cm(ib)} {_cm(ic)}")
        lines.append("universal " + _cm(universal(ib, ic)))
        # a sampled map out of P is what its cocone induces
        w = sampler.chain_map(P, C)
        lines.append("universal " + _cm(universal(w.compose(ib), w.compose(ic))))

        D = ChainComplex.direct_sum(sampler.free_complex(ring, max_support=3, max_rank=2),
                                    sphere(1, T))
        f = sampler.chain_map(B, D)
        for g in (sampler.chain_map(C, D), sampler.chain_map(B, D)):
            P, pb, pc, universal = pullback_chainmaps(f, g)
            lines.append(f"pullback {_cx(P)} {_cm(pb)} {_cm(pc)}")
            lines.append("universal " + _cm(universal(pb, pc)))
            # a sampled map into P is what its cone induces
            w = sampler.chain_map(A, P)
            lines.append("universal " + _cm(universal(pb.compose(w), pc.compose(w))))

    # the pushout squares of the cells that factorizations glue
    spec = model_structure(PROJECTIVE_STRUCTURE, ring)
    for _ in range(4):
        X = sampler.free_complex(ring, max_support=3, max_rank=2)
        Y = sampler.free_complex(ring, max_support=3, max_rank=2)
        f = sampler.chain_map(X, Y)
        for mode in (COF_THEN_TRIVFIB, TRIVCOF_THEN_FIB):
            try:
                fact = factor_map(f, mode, spec)
            except FactorizationObstructedError:
                lines.append("obstructed")
                continue
            for cell in fact.cell_chain.cells:
                P, ib, ic, universal = pushout_chainmaps(cell.generating_mono, cell.attaching)
                lines.append(f"cell {_cx(P)} {_cm(ib)} {_cm(ic)}")
                lines.append("universal " + _cm(universal(cell.image, cell.step_inclusion)))
    return lines


@pytest.mark.parametrize("ring, torsion, digest", [
    (Integers(), 4,
     "aac25c61a961866b0390ff76fab4a8e3c3f5d7a58119937a3b6f91c61f3a290e"),
    (IntegersModN(4), 2,
     "bdb702e77c247577ae0d54f2efcac05b8a912c3e593a73ba94b64034035421b7"),
    (IntegersModN(12), 6,
     "7270c8acb1fc7e828227335ad690fb2c691ea0e00d3e790972eb9641f79fcaff"),
    (PrimeField(3), 0,
     "50ee5852d9e4f2210581007c2b6c2e0c394fa2b90fac99ba94d214da529c8c48"),
], ids=["Z", "Z4", "Z12", "F3"])
def test_golden_pushout_and_pullback(ring, torsion, digest):
    # recorded before pushouts and pullbacks became a cokernel and a kernel
    assert sha256("\n".join(_pushout_and_pullback_lines(ring, torsion))) == digest


# -- cell chains -------------------------------------------------------------------

def _cell_chain_lines(ring):
    """One line per cell square of the chains that icell_decompose and
    factor_map build: its label, attaching map, image and step inclusion."""
    lines = []

    def cells(chain):
        for cell in chain.cells:
            lines.append(f"cell {cell.label} {_cm(cell.attaching)} {_cm(cell.image)} "
                         f"{_cm(cell.step_inclusion)}")

    zero = ChainComplex.zero(ring)
    R1, R2 = FpModule.free(ring, 1), FpModule.free(ring, 2)
    # zero-source maps onto literal disk sums, then onto twisted complexes
    twisted = ChainComplex(ring, {1: R1, 0: R1},
                           {1: Matrix.from_rows(ring, [[2]])})
    sampler = DeterministicSampler(23)
    targets = [ChainComplex.direct_sum(disk(1, R2), disk(0, R1)),
               ChainComplex.direct_sum(disk(2, R1), disk(-1, R2)),
               twisted, ChainComplex.direct_sum(twisted, sphere(0, R1))]
    targets += [sampler.free_complex(ring, max_support=4, max_rank=3) for _ in range(4)]
    for Q in targets:
        lines.append("zero-source")
        cells(icell_decompose(ChainMap.zero_map(zero, Q)))

    # both factorizations in the flat structure, as the factor suite runs them
    spec = model_structure(FLAT_STRUCTURE, ring)
    for _ in range(6):
        X = sampler.free_complex(ring, max_support=4, max_rank=3)
        Y = sampler.free_complex(ring, max_support=4, max_rank=3)
        f = sampler.chain_map(X, Y)
        for mode in (COF_THEN_TRIVFIB, TRIVCOF_THEN_FIB):
            try:
                fact = factor_map(f, mode, spec)
            except FactorizationObstructedError:
                lines.append("obstructed")
                continue
            lines.append(mode)
            cells(fact.cell_chain)
    return lines


@pytest.mark.parametrize("ring, digest", [
    (Integers(),
     "0b35244d820894be2e9ff88069bb7ea50a2dd2749218ad6ff598103ba8e34971"),
    (IntegersModN(4),
     "1f42df7ce81224b582715e96bef6bf8c78cbc089091d146450674ac66dc46c02"),
    (PrimeField(3),
     "55ee62185fe1834b9e265514b3a8bd5013b7027c7b2144e85cf31db33fd2ab0b"),
], ids=["Z", "Z4", "F3"])
def test_golden_cell_chains(ring, digest):
    # recorded before each cell became (label, mono, columns)
    assert sha256("\n".join(_cell_chain_lines(ring))) == digest


# -- complexes built as direct sums ------------------------------------------------

def _sum_complex_lines(ring, torsion):
    """One line per output of the constructions whose degree-n module is
    a direct sum: cones, cylinders, direct sums and disk covers, and over
    Z the Cartan-Eilenberg trivial fibration and the factorizations that
    pull it back."""
    sampler = DeterministicSampler(31)
    T = FpModule.cyclic(ring, torsion)
    lines = []
    for _ in range(6):
        X = sampler.free_complex(ring, max_support=3, max_rank=3)
        Y = sampler.free_complex(ring, max_support=3, max_rank=2)
        # summands with relations, so every block carries them
        Xr = ChainComplex.direct_sum(X, disk(1, T))
        Yr = ChainComplex.direct_sum(Y, sphere(0, T), disk(2, T))
        for A, B in ((X, Y), (Xr, Yr), (Yr, Xr)):
            f = sampler.chain_map(A, B)
            lines.append("cone " + _cx(cone(f)))
            data = cylinder(f)
            lines.append(f"cylinder {_cx(data.complex)} {_cm(data.front)} "
                         f"{_cm(data.projection)}")
            lines.append("sum " + _cx(ChainComplex.direct_sum(A, B, A)))
            # a kernel subcomplex, whose modules have relations of their own
            K, _ = f.kernel_subcomplex()
            for Z in (A, B, K):
                P, c = disk_cover(Z)
                lines.append(f"disk-cover {_cx(P)} {_cm(c)}")
    if ring.modulus is None:
        spec = model_structure(PROJECTIVE_STRUCTURE, ring)
        for k in range(4):
            X = sampler.free_complex(ring, max_support=3, max_rank=2)
            Y = ChainComplex.direct_sum(sampler.free_complex(ring, max_support=3, max_rank=2),
                                        sphere(k % 2, T))
            Tc, t = ce_trivial_fibration(Y, spec)
            lines.append(f"ce {_cm(t)}")
            fact = factor_map(sampler.chain_map(X, Y), COF_THEN_TRIVFIB, spec)
            lines.append(f"factor {_cm(fact.i)} {_cm(fact.p)}")
    return lines


@pytest.mark.parametrize("ring, torsion, digest", [
    (Integers(), 4,
     "a107aa9e7117e62c2272fba314b06b46f1bc2af2b3e37045ed018bf83c54bf0f"),
    (IntegersModN(4), 2,
     "43a49d1d2addf9e47c4171162958efc21b3ea4bf03fc6b6d90becb7b3960d5a3"),
    (IntegersModN(12), 6,
     "7092453afe0553a6e381f526f520350208806304c81f8f573d74c1fbdc2cb7bf"),
    (PrimeField(3), 0,
     "057670faf15831e80fff262ce3bad68cc51d0d3afbf4a707fbdab433365c600b"),
], ids=["Z", "Z4", "Z12", "F3"])
def test_golden_sum_complexes(ring, torsion, digest):
    # recorded before these complexes were built by one block rule
    assert sha256("\n".join(_sum_complex_lines(ring, torsion))) == digest


# -- Kaplansky witnesses, filtrations and envelopes --------------------------------

def _kaplansky_classes(ring):
    """Over Z injective membership is not decided and the witness of
    ALL is left to test_kaplansky, so Z pins projective and flat only."""
    ids = [ObjectClass.PROJECTIVE, ObjectClass.FLAT]
    if ring.modulus is not None:
        ids = [ObjectClass.ALL] + ids + [ObjectClass.INJECTIVE]
    return [ObjectClass(c) for c in ids]


def _kaplansky_lines(ring, torsion):
    """One line per witness, filtration and envelope on small ambients:
    free, torsion, redundantly presented and (over Z/12) non-free
    projective modules, with seeds of 0-2 columns."""
    sampler = DeterministicSampler(41)
    free = lambda k: FpModule.free(ring, k)  # noqa: E731
    ambients = [free(1), free(2), free(3),
                FpModule.direct_sum(free(1), FpModule.cyclic(ring, torsion)),
                FpModule(ring, 3, Matrix.from_rows(ring, [[1], [2], [0]]))]
    if ring.modulus == 12:
        ambients += [FpModule.cyclic(ring, 4),
                     FpModule.direct_sum(FpModule.cyclic(ring, 3), free(1))]
    lines = []
    for cls in _kaplansky_classes(ring):
        for F in ambients:
            for width in range(3):
                seed = Matrix(ring, F.gens, width,
                              [[sampler.entry(ring) for _ in range(width)]
                               for _ in range(F.gens)])
                head = f"witness {cls} {_mat(F.relations)} {_mat(seed)}"
                try:
                    w = kaplansky_witness(F, cls, seed)
                except NotInClassError:
                    lines.append(head + " not in class")
                    continue
                lines.append(f"{head} {_mat(w.sub.relations)} {_mat(w.inclusion.matrix)} "
                             f"{_mat(w.quotient_module.relations)} {w.generator_count}")

        monos = [ModuleMap(FpModule.zero(ring), free(2), Matrix.zero(ring, 2, 0), check=False),
                 submodule(free(3), Matrix.from_rows(ring, [[1], [1], [0]]))[1],
                 submodule(free(2), Matrix.from_rows(ring, [[2], [0]]))[1]]
        for incl in monos:
            head = f"filtration {cls} {_mat(incl.matrix)}"
            try:
                chain = kaplansky_filtration(incl, cls)
            except NotInClassError:
                lines.append(head + " not in class")
                continue
            lines.append(f"{head} " + " ".join(
                f"{_mat(s.stage_gens)}/{_mat(s.quotient_witness.relations)}/"
                f"{s.generator_count}" for s in chain.steps))

    # exact complexes with projective cycles: cones of identities
    proj = ObjectClass(ObjectClass.PROJECTIVE)
    for _ in range(4):
        F = cone(ChainMap.identity(sampler.free_complex(ring, max_support=3, max_rank=2)))
        seeds = {}
        for n in F.support:
            g = F.module_at(n).gens
            if g and sampler.randint(0, 1):
                seeds[n] = Matrix.column(ring, [sampler.entry(ring) for _ in range(g)])
        res = flat_subcomplex_envelope(F, seeds, proj, gamma=3)
        lines.append(f"envelope {_cx(F)} {_cm(res.inclusion)} "
                     f"{sorted(res.generator_counts.items())} " + " ".join(
                         f"{n}:{_mat(w.inclusion.matrix)}"
                         for n, w in sorted(res.cycle_witnesses.items())))
    return lines


@pytest.mark.parametrize("ring, torsion, digest", [
    (Integers(), 4,
     "770e62e2bf61faf210596d284ee8d807b30cd89666285092da5917be1f048c48"),
    (IntegersModN(4), 2,
     "00e61a7487788d7189033bedc4be1c40754b8fb78aa02621e344a71694a7c52f"),
    (IntegersModN(12), 6,
     "532fceca7bcb301fe80b6ab168a4b84015e6529498bde1d4799f13359b75bbcf"),
    (PrimeField(3), 0,
     "34377cc9054830adb350e097bca91a05d0538d43ff4f8b9d906c2d7d44914362"),
], ids=["Z", "Z4", "Z12", "F3"])
def test_golden_kaplansky(ring, torsion, digest):
    # the Z digest was recorded before the witness became one Smith
    # saturation for every ring; the finite-ring witnesses shrank with it
    assert sha256("\n".join(_kaplansky_lines(ring, torsion))) == digest


# a mono with free cokernel and an exact complex seeded in degree 0, over
# Z and over Z/12
KAPLANSKY_WORKSPACE = """\
ring Z Z
ring R12 Zmod 12
module A over Z gens 1 rels []
module B over Z gens 3 rels []
module F over Z gens 2 rels []
map i : A -> B matrix [[1], [1], [0]]
map one : F -> F matrix [[1, 0], [0, 1]]
map e : A -> F matrix [[1], [0]]
complex D over Z degrees 0..1 object 0 F object 1 F diff 1 one
complex S over Z degrees 0..0 object 0 A
chainmap s : S -> D comp 0 e
module A12 over R12 gens 1 rels []
module B12 over R12 gens 3 rels []
module F12 over R12 gens 2 rels []
map i12 : A12 -> B12 matrix [[4], [3], [0]]
map one12 : F12 -> F12 matrix [[1, 0], [0, 1]]
map e12 : A12 -> F12 matrix [[3], [0]]
complex D12 over R12 degrees 0..1 object 0 F12 object 1 F12 diff 1 one12
complex S12 over R12 degrees 0..0 object 0 A12
chainmap s12 : S12 -> D12 comp 0 e12
"""


@pytest.mark.parametrize("argv, digest", [
    (["kaplansky-filtrate", "--inclusion", "i"],
     "db098375f43a10f6bebe34d4585b21876d0eb39a3f30b5379d9f8d91e1ebd89a"),
    (["kaplansky-filtrate", "--inclusion", "i12", "--class", "injective"],
     "de856432ef092839c55a339b568032fe646179480f2211d7d3f409526034b141"),
    (["envelope", "--ambient", "D", "--sub", "s"],
     "de3105f523aa3b30d119008c233e43e6180baed211228059a0d13fb17f97119e"),
    (["envelope", "--ambient", "D12", "--sub", "s12", "--class", "flat"],
     "d60a63f000ceae724d9f03e91ecf1c1a779edc8e2342d6839526155c241d6ad4"),
], ids=["filtrate-Z", "filtrate-Z12", "envelope-Z", "envelope-Z12"])
def test_golden_cli_kaplansky(argv, digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ws.cl").write_text(KAPLANSKY_WORKSPACE, encoding="utf-8")
    code, report = run_command(argv[:1] + ["--workspace", "ws.cl"] + argv[1:])
    assert code == 0
    assert sha256(report.to_machine()) == digest


# a line Z/12 -> Z/4 with the identity edge map, and a self-loop over Z/4
# whose edge map is a shear
QUIVER_WORKSPACE = """\
ring R12 Zmod 12
ring R4 Zmod 4
quiver L vertices v:R12 w:R4 edges e: v -> w ringmap [[1]]
module V over R12 gens 2 rels []
module W over R4 gens 2 rels []
map one : V -> V matrix [[1, 0], [0, 1]]
repmodule M over L at v V at w W edge e one
quiver C vertices v:R4 edges s: v -> v ringmap [[1]]
module V4 over R4 gens 2 rels []
map shear : V4 -> V4 matrix [[1, 1], [0, 1]]
repmodule T over C at v V4 edge s shear
"""


@pytest.mark.parametrize("repmodule, digest", [
    ("M",
     "948c883a7132aad97fc095cbcca6e40e4a43c311c2840a36a90ec04b7eef6f0f"),
    ("T",
     "da7957e524466db2a98d18ec360372c5797afb015c2916a7a8ba2e1ba8395faf"),
], ids=["line-Z12-Z4", "loop-Z4"])
def test_golden_cli_quiver_witness(repmodule, digest, tmp_path, monkeypatch):
    # recorded before the witness became a saturation fixed point; the
    # loop's witness shrank with it from all of M (cardinality 16) to the
    # line the shear fixes (cardinality 4)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ws.cl").write_text(QUIVER_WORKSPACE, encoding="utf-8")
    code, report = run_command(["quiver-check", "--workspace", "ws.cl",
                                "--repmodule", repmodule, "--witness"])
    assert code == 0
    assert sha256(report.to_machine()) == digest
