"""finhom benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload model-check-Z4 --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
Workloads: model-check-Z4, factor-Z, homalg-Z-cli (see BENCHMARK.json
and bench/README.md for why each was chosen).

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh set-ups), then one closed loop with a single caller, in a fresh
single-threaded interpreter, for --seconds and at least the headline
batch.  --trace 1 prints the per-layer metrics of a fixed number of items
run traced, and the tracing overhead against the same items run
untraced.  Every answer is checked; a wrong answer fails the command.

The last line of standard output is the result object; the line before
it records the code version, Python, nproc and seed of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speed
from workloads import CLASSES, WrongAnswer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 100


class BenchError(Exception):
    pass


def _git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "finhom").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _child(role: str, args, workdir: Path, *extra) -> tuple[float, dict]:
    """Run one worker process; (wall seconds, its result object)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--plan", str(workdir / "plan.json"), "--workdir", str(workdir), *extra]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process exceeded {CHILD_TIMEOUT_S}s")
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} process exited with {proc.returncode}")
    return wall, json.loads(lines[-1])


def _percentile_ms(times, ok, weights, q: float):
    """Weighted nearest-rank percentile in ms; an item that hit its time
    limit exceeds every percentile.  None when the percentile is censored."""
    order = sorted(zip((t if good else math.inf for t, good in zip(times, ok)), weights))
    need, acc = q * sum(weights), 0.0
    for t, w in order:
        acc += w
        if acc >= need - 1e-9:
            return None if math.isinf(t) else t * 1000.0
    return None


def _check(workload: str, res: dict):
    """Fail on a wrong answer found by the worker, then check the answers
    left to this process."""
    if "wrong" in res:
        raise WrongAnswer(res["wrong"])
    for rec in res["records"]:
        CLASSES[workload].check_record(rec)


def _setup_s(args, workdir: Path) -> list:
    """Wall time of fresh set-up processes, scaled to reference speed by
    probes taken just before and after each."""
    out = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        speed = Speed()
        speed.sample()
        wall = _child("setup", args, workdir)[0]
        speed.sample()
        out.append(wall * speed.scale())
    return out


def end_to_end(args, workdir: Path, meta: dict):
    setups = _setup_s(args, workdir)
    extra = ["--seconds", str(args.seconds)]
    if args.smoke:
        extra += ["--batch", "3"]
    _, res = _child("measure", args, workdir, *extra)
    _check(args.workload, res)
    times, ok, weights = res["times"], res["ok"], res["weights"]
    n = len(times)
    b = min(res["batch"], n)
    limit = CLASSES[args.workload].time_limit
    p50 = _percentile_ms(times, ok, weights, 0.50)
    p95 = _percentile_ms(times, ok, weights, 0.95)
    meta.update(items=n, timeouts=n - sum(ok), batch=res["batch"], setup_runs=setups,
                p95_censored=p95 is None, time_limit_s=limit, probe_s=res["probe_s"],
                raw_items_per_s=n / res["raw_s"])
    if "digest" in res:
        meta["report_digest"] = res["digest"]
    limit_ms = (limit or math.inf) * 1000.0
    weighted_time = sum(w * t for w, t in zip(weights, times))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (res["batch"] * sum(w * t for w, t in zip(weights[:b], times[:b]))
                   / sum(weights[:b]), "s"),
        "items_per_s": (sum(weights) / weighted_time, "1/s"),
        "item_p50_ms": (p50 if p50 is not None else limit_ms, "ms"),
        "item_p95_ms": (p95 if p95 is not None else limit_ms, "ms"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
        "success_ratio": (sum(w for w, good in zip(weights, ok) if good) / sum(weights),
                          "ratio"),
    }, n, n - sum(ok)


def per_layer(args, workdir: Path, meta: dict):
    _child("setup", args, workdir)
    items = 3 if args.smoke else CLASSES[args.workload].trace_items
    _, plain = _child("trace", args, workdir, "--items", str(items), "--traced", "0")
    dump = BENCH / ".work" / f"spans-{args.workload}"
    _, traced = _child("trace", args, workdir, "--items", str(items), "--traced", "1",
                       "--dump", str(dump))
    for res in (plain, traced):
        _check(args.workload, res)
    if plain.get("digest") != traced.get("digest"):
        raise WrongAnswer("traced and untraced reports differ")
    m = min(len(plain["times"]), len(traced["times"]))
    ratio = sum(traced["times"][:m]) / sum(plain["times"][:m])
    meta.update(items=m, timeouts=m - sum(traced["ok"]), spans_file=str(dump.relative_to(ROOT)))
    metrics = dict(traced["metrics"])
    meta["spans"] = metrics.pop("trace.spans")
    metrics["trace.overhead_ratio"] = ratio
    units = {}
    for name in metrics:
        leaf = name.rsplit(".", 1)[1]
        units[name] = LAYER_UNITS.get(leaf, "count")
    return {k: (v, units[k]) for k, v in metrics.items()}, m, m - sum(traced["ok"])


LAYER_UNITS = {"self_s": "s", "total_s": "s", "distinct_ratio": "ratio",
               "max_out_bits": "bits", "overhead_ratio": "ratio"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(CLASSES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "finhom" / "__init__.py").is_file():
        print(f"error: no finhom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = BENCH / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": _git_sha(), "src_sha256": _source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(args, workdir, meta)
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
