"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke.py

Checks that every workload prints every metric BENCHMARK.json names, in
both modes and with the declared units; that two runs of one seed give
the same model-check report digest; that the homalg oracle accepts a real
answer and rejects a corrupted one; that every per-layer metric has an
entry in bench/layer_map.json; and that the command fails, printing no
result, where the finhom sources are missing.  Exits 0 when all hold.
"""

from __future__ import annotations

import fnmatch
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

FAILURES = []


def expect(cond: bool, what: str):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    return proc


def result_lines(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def check_metrics(spec: dict):
    digests = []
    for name in sorted(workloads.CLASSES):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(name, trace)
            expect(proc.returncode == 0, f"{name} --trace {trace} exits 0")
            if proc.returncode:
                print(proc.stderr[-2000:])
                continue
            meta, res = result_lines(proc)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} --trace {trace} result keys")
            expect(res["correct"] is True and res["attempted"] >= 1,
                   f"{name} --trace {trace} answers correct")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{name} --trace {trace} emits every {section} metric "
                                f"with its unit (missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))})")
            expect(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                   f"{name} --trace {trace} values are numbers")
            for key in ("git_sha", "python", "nproc", "seed"):
                expect(key in meta, f"{name} --trace {trace} records {key}")
            if name == "model-check-Z4" and trace == 0:
                digests.append(meta.get("report_digest"))
    proc = run("model-check-Z4", 0)
    digests.append(result_lines(proc)[0].get("report_digest"))
    expect(len(digests) == 2 and digests[0] is not None and digests[0] == digests[1],
           "model-check report digest repeats for one seed")


def check_oracle():
    from finhom.cli import run_command

    wl = workloads.CLASSES["homalg-Z-cli"](str(BENCH / ".work"))
    (BENCH / ".work").mkdir(exist_ok=True)
    rejected = accepted = 0
    for desc, _ in wl.plan(7, 20):
        kind, shape, rels = wl.prepare(desc)
        path = BENCH / ".work" / "smoke.cl"
        path.write_text(wl.workspace_text(shape, rels))
        code, report = run_command([kind, "--workspace", str(path), "--a", "A", "--b", "B",
                                    "--max-degree", "1", "--emit", "machine"])
        machine = report.to_machine()
        try:
            wl.check_record([desc, code, machine])
            accepted += 1
        except workloads.WrongAnswer:
            pass
        wrong = machine.replace("\tdegree-1\tpass\t", "\tdegree-1\tpass\tZ/2 + ", 1)
        wrong = wrong.replace("Z/2 + 0\n", "Z/2\n")
        try:
            wl.check_record([desc, code, wrong])
        except workloads.WrongAnswer:
            rejected += 1
        path.unlink()
    expect(accepted > 0, f"oracle accepts real answers ({accepted})")
    expect(rejected == accepted, f"oracle rejects every corrupted answer ({rejected})")


def check_layer_map(spec: dict):
    groups = json.loads((BENCH / "layer_map.json").read_text())["groups"]
    for m in spec["per_layer"]:
        expect(any(fnmatch.fnmatch(m["name"], pat) for g in groups for pat in g["metrics"]),
               f"layer map covers {m['name']}")


def check_bare_checkout(spec: dict):
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(".work"))
    proc = run("factor-Z", 0, cwd=bare)
    printed = any(line.startswith("{\"correct\"") for line in proc.stdout.splitlines())
    expect(proc.returncode != 0 and not printed,
           "fails without a result where the sources are missing")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_oracle()
    check_layer_map(spec)
    check_bare_checkout(spec)
    check_metrics(spec)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
