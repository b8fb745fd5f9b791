"""Command-line surface.

Subcommands: resolve, ext, tor, tensor, factor, lift, replace,
derived-tensor, model-check, monoidal-check, compat-check,
kaplansky-filtrate, envelope, quiver-check.

Exit codes: 0 when the run succeeds with no violations, 1 when checks
report violations, 2 on usage, parse or validation errors.  Reports go
to standard output, human-readable by default (--emit machine for the
byte-stable form); --out writes the machine-readable report to a file.
Every flag also accepts argparse's unique prefixes (--ou for --out).

The parser is built once per process, on the first call, so in-process
callers of ``run_command`` pay for its set-up once; each argv is parsed
once, and ``main`` reads --emit and --out from that parse.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .checks import check_model_axioms, check_monoidal
from .cotorsion import (
    ObjectClass,
    check_compatibility,
    deliberately_wrong_pair,
    flat_pair,
    injective_pair,
    projective_pair,
)
from .errors import FinhomError
from .functors import ext_n, free_resolution, tensor_modules, tor_n
from .kaplansky import flat_subcomplex_envelope, kaplansky_filtration
from .model import (
    COF_THEN_TRIVFIB,
    FLAT_STRUCTURE,
    INJECTIVE_STRUCTURE,
    PROJECTIVE_STRUCTURE,
    TRIVCOF_THEN_FIB,
    derived_tensor,
    factor_map,
    model_structure,
    solve_lifting,
)
from .quiver import (
    is_flat_rep_module,
    is_quasi_coherent,
    quasi_coherence_bruteforce,
    quiver_kaplansky_witness,
    rep_cardinality,
)
from .report import Report
from .workspace import parse_workspace, ring_from_name

STRUCTURES = {
    "projective": PROJECTIVE_STRUCTURE,
    "flat": FLAT_STRUCTURE,
    "injective": INJECTIVE_STRUCTURE,
}

PAIRS = {
    "projective": projective_pair,
    "flat": flat_pair,
    "injective": injective_pair,
    "wrong": deliberately_wrong_pair,
}

CLASSES = {
    "projective": ObjectClass.PROJECTIVE,
    "flat": ObjectClass.FLAT,
    "injective": ObjectClass.INJECTIVE,
    "all": ObjectClass.ALL,
}


def _common_flags(p: argparse.ArgumentParser, workspace=False):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--out", type=str, default=None,
                   help="write the machine-readable report to this file")
    p.add_argument("--emit", choices=("text", "machine"), default="text")
    if workspace:
        p.add_argument("--workspace", type=str, required=True)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="finhom",
                                 description="exact homological algebra at "
                                             "finitely presented scale")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resolve", help="free resolution of a module")
    _common_flags(p, workspace=True)
    p.add_argument("--module", required=True)
    p.add_argument("--length", type=int, default=3)

    for name in ("ext", "tor"):
        p = sub.add_parser(name, help=f"{name} groups of two modules")
        _common_flags(p, workspace=True)
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--max-degree", type=int, default=2)

    p = sub.add_parser("tensor", help="tensor product of two modules")
    _common_flags(p, workspace=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("factor", help="factor a chain map in a model structure")
    _common_flags(p, workspace=True)
    p.add_argument("--map", required=True, dest="chainmap")
    p.add_argument("--structure", choices=sorted(STRUCTURES), default="projective")
    p.add_argument("--mode", choices=(COF_THEN_TRIVFIB, TRIVCOF_THEN_FIB, "both"),
                   default="both")

    p = sub.add_parser("lift", help="solve a lifting problem")
    _common_flags(p, workspace=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--structure", choices=sorted(STRUCTURES), default="projective")

    p = sub.add_parser("replace", help="cofibrant or fibrant replacement")
    _common_flags(p, workspace=True)
    p.add_argument("--complex", required=True, dest="complex_id")
    p.add_argument("--structure", choices=sorted(STRUCTURES), default="projective")
    p.add_argument("--kind", choices=("cofibrant", "fibrant"), default="cofibrant")

    p = sub.add_parser("derived-tensor", help="homology of the derived tensor product")
    _common_flags(p, workspace=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--structure", choices=("projective", "flat"), default="flat")

    p = sub.add_parser("model-check", help="verify the model axioms on samples")
    _common_flags(p)
    p.add_argument("--structure", choices=sorted(STRUCTURES), required=True)
    p.add_argument("--ring", required=True)

    p = sub.add_parser("monoidal-check", help="verify the monoidal conditions")
    _common_flags(p)
    p.add_argument("--structure", choices=("projective", "flat"), required=True)
    p.add_argument("--ring", required=True)
    p.add_argument("--sabotage", action="store_true",
                   help="replace the left class by all objects (negative fixture)")

    p = sub.add_parser("compat-check", help="cotorsion pair compatibility verdicts")
    _common_flags(p)
    p.add_argument("--pair", choices=sorted(PAIRS), required=True)
    p.add_argument("--ring", required=True)

    p = sub.add_parser("kaplansky-filtrate", help="filtration with small class quotients")
    _common_flags(p, workspace=True)
    p.add_argument("--gamma", type=int, default=3,
                   help="the generator bound each step quotient must meet")
    p.add_argument("--inclusion", required=True, help="a mono in the workspace")
    p.add_argument("--class", dest="class_id", choices=sorted(CLASSES),
                   default="projective")

    p = sub.add_parser("envelope", help="exact subcomplex envelope with class cycles")
    _common_flags(p, workspace=True)
    p.add_argument("--gamma", type=int, default=3,
                   help="the generator bound of each small surjecting subobject")
    p.add_argument("--ambient", required=True, help="an exact complex id")
    p.add_argument("--sub", required=True, help="a chainmap inclusion seeding the envelope")
    p.add_argument("--class", dest="class_id", choices=sorted(CLASSES),
                   default="projective")

    p = sub.add_parser("quiver-check", help="quasi-coherence, flatness, cardinality")
    _common_flags(p, workspace=True)
    p.add_argument("--repmodule", required=True)
    p.add_argument("--witness", action="store_true",
                   help="also search for a Kaplansky witness from the zero seed")

    return ap


# The process's one parser, built on the first call: argparse keeps no state
# between parses, so every call reuses it.  Private, so that no caller can
# change the parser the others use.
_parser = functools.cache(build_parser)


def _load_workspace(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_workspace(fh.read())


def _invariant_text(factors) -> str:
    if not factors:
        return "0"
    return " + ".join("Z" if d == 0 else f"Z/{d}" for d in factors)


def _cardinality_text(card) -> str:
    return "infinite" if card is None else str(card)


def run_command(argv) -> tuple[int, Report]:
    """Execute one subcommand; returns (exit code, report)."""
    return _execute(_parser().parse_args(argv), argv)


def _execute(args: argparse.Namespace, argv) -> tuple[int, Report]:
    """Run the subcommand that ``args``, parsed from ``argv``, names."""
    start = time.monotonic()
    command_echo = "finhom " + " ".join(argv)
    report = Report(command=command_echo, seed=args.seed)

    if args.command == "resolve":
        ws = _load_workspace(args.workspace)
        M = ws.modules[args.module]
        res = free_resolution(M, args.length)
        for idx, mp in enumerate(res):
            label = "augmentation" if idx == 0 else f"differential-{idx}"
            report.add(f"term-{idx:02d}", True,
                       f"{label}: free rank {mp.source.gens}")
    elif args.command in ("ext", "tor"):
        ws = _load_workspace(args.workspace)
        A, B = ws.modules[args.a], ws.modules[args.b]
        fn = ext_n if args.command == "ext" else tor_n
        for n in range(0, args.max_degree + 1):
            val = fn(A, B, n)
            report.add(f"degree-{n}", True, _invariant_text(val.invariant_factors()))
    elif args.command == "tensor":
        ws = _load_workspace(args.workspace)
        T = tensor_modules(ws.modules[args.a], ws.modules[args.b])
        report.add("tensor", True, _invariant_text(T.invariant_factors()))
    elif args.command == "factor":
        ws = _load_workspace(args.workspace)
        f = ws.chainmaps[args.chainmap]
        spec = model_structure(STRUCTURES[args.structure], f.ring)
        modes = [args.mode] if args.mode != "both" else \
            [COF_THEN_TRIVFIB, TRIVCOF_THEN_FIB]
        for mode in modes:
            fact = factor_map(f, mode, spec)
            ok = fact.p.compose(fact.i).equals(f) and fact.revalidate(spec) \
                and fact.cell_chain.verify()
            report.add(f"factor-{mode}", ok,
                       f"{len(fact.cell_chain.cells)} cells, window {fact.window}")
    elif args.command == "lift":
        ws = _load_workspace(args.workspace)
        prob = ws.liftproblems[args.problem]
        spec = model_structure(STRUCTURES[args.structure], prob.i.ring)
        h = solve_lifting(prob, spec)
        ok = h.compose(prob.i).equals(prob.top) and \
            prob.p.compose(h).equals(prob.bottom)
        report.add("lift", ok, "verified both triangle identities")
    elif args.command == "replace":
        ws = _load_workspace(args.workspace)
        X = ws.complexes[args.complex_id]
        spec = model_structure(STRUCTURES[args.structure], X.ring)
        from .model import cofibrant_replacement, fibrant_replacement

        if args.kind == "cofibrant":
            Q, p, fact = cofibrant_replacement(X, spec)
        else:
            Q, _, fact = fibrant_replacement(X, spec)
        report.add("replacement", fact.revalidate(spec),
                   "; ".join(f"{n}: {_invariant_text(Q.module_at(n).invariant_factors())}"
                             for n in Q.support) or "zero complex")
    elif args.command == "derived-tensor":
        ws = _load_workspace(args.workspace)
        X, Y = ws.complexes[args.a], ws.complexes[args.b]
        spec = model_structure(STRUCTURES[args.structure], X.ring)
        table, fact = derived_tensor(X, Y, spec)
        if not table:
            report.add("degree-all", True, "0")
        for n in sorted(table):
            report.add(f"degree-{n}", True, _invariant_text(table[n]))
    elif args.command == "model-check":
        ring = ring_from_name(args.ring)
        spec = model_structure(STRUCTURES[args.structure], ring)
        report = check_model_axioms(spec, args.seed, args.samples)
        report.command = command_echo
    elif args.command == "monoidal-check":
        ring = ring_from_name(args.ring)
        if args.sabotage:
            from .model import ModelStructureSpec

            spec = ModelStructureSpec(ring, STRUCTURES[args.structure],
                                      deliberately_wrong_pair(ring))
        else:
            spec = model_structure(STRUCTURES[args.structure], ring)
        report = check_monoidal(spec, args.seed, args.samples)
        report.command = command_echo
    elif args.command == "compat-check":
        ring = ring_from_name(args.ring)
        pair = PAIRS[args.pair](ring)
        rep = check_compatibility(pair, sample_budget=args.samples, seed=args.seed)
        for v in rep.verdicts:
            report.add(v.name, v.passed, "; ".join(v.counterexamples))
    elif args.command == "kaplansky-filtrate":
        ws = _load_workspace(args.workspace)
        incl = ws.maps[args.inclusion]
        chain = kaplansky_filtration(incl, ObjectClass(CLASSES[args.class_id]))
        report.add("filtration", chain.revalidate(args.gamma),
                   f"{len(chain.steps)} steps")
    elif args.command == "envelope":
        ws = _load_workspace(args.workspace)
        F = ws.complexes[args.ambient]
        seed_map = ws.chainmaps[args.sub]
        gens = {n: seed_map.matrix_at(n) for n in seed_map.source.support}
        res = flat_subcomplex_envelope(F, gens, ObjectClass(CLASSES[args.class_id]),
                                        args.gamma)
        report.add("envelope", res.inclusion.is_mono(),
                   "; ".join(f"{n}: {res.generator_counts.get(n, 0)} gens"
                             for n in res.subcomplex.support))
    elif args.command == "quiver-check":
        ws = _load_workspace(args.workspace)
        M = ws.repmodules[args.repmodule]
        qc, bad = is_quasi_coherent(M)
        report.add("quasi-coherent", qc, bad or "")
        finite = all(M.rep.ring_at(v).is_finite for v in M.rep.vertices)
        if finite:
            brute, bad2 = quasi_coherence_bruteforce(M)
            report.add("quasi-coherent-bruteforce-agrees", brute == qc, bad2 or "")
        report.add("flat", is_flat_rep_module(M), "")
        report.add("cardinality", True, _cardinality_text(rep_cardinality(M)))
        if args.witness:
            w = quiver_kaplansky_witness(M, {})
            report.add("witness", w.revalidate(M),
                       f"cardinality {_cardinality_text(w.cardinality)}")

    report.wall_time = time.monotonic() - start
    return report.exit_code, report


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
        code, report = _execute(args, argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (FinhomError, FileNotFoundError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_machine())
    print(report.to_machine() if args.emit == "machine" else report.to_human(), end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
