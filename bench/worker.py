"""One benchmark process: set up, or run a workload's items and check
them.  ``run.py`` starts every role in a fresh interpreter, so each run
starts with cold finhom caches.

Roles:
  setup    import finhom, plan the run's inputs, write the plan, exit
  measure  run items in a closed loop (one caller) for --seconds, at
           least the headline batch, checking every answer untimed
  trace    run the first --items items, traced (--traced 1) or not
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import workloads
import speed
from speed import Speed
from workloads import QueryTimeout, WrongAnswer

# a run never measures for longer than this, whatever the program's speed,
# so the benchmark command ends within its time limit
HARD_STOP_S = 60.0
DIGEST_ITEMS = 5  # machine reports hashed into a run's determinism digest,
# at most: every run of a seed completes the same first min(5, batch) items


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_finhom():
    import finhom  # noqa: F401
    import finhom.checks  # noqa: F401
    import finhom.cli  # noqa: F401


def _stream(wl, plan):
    """(descriptor, weight, input) of the planned items, then of items planned
    here if a fast program runs through the plan."""
    planned = plan["items"]
    done = 0
    while True:
        for desc, weight in planned[done:]:
            yield desc, weight, wl.prepare(desc)
        done = len(planned)
        planned = wl.plan(plan["seed"], 2 * done)


class Timer:
    """Times items one by one, probing the machine's speed between them,
    and scales the times to reference speed (see speed.py)."""

    def __init__(self, wl):
        self.wl = wl
        self.speed = Speed()
        self.spans = []  # (start, end) of each item

    def run(self, item):
        """The item's result, or None when it hit its time limit."""
        if self.speed.due():
            self.speed.sample()
        if self.wl.time_limit is not None:
            self.wl.raw_limit = self.wl.time_limit / self.speed.scale()
        t0 = time.perf_counter()
        try:
            result = self.wl.run(item)
        except QueryTimeout:
            result = None
        self.spans.append((t0, time.perf_counter()))
        return result

    def out(self) -> dict:
        self.speed.sample()
        scale = self.speed.scale()
        raw = [end - start for start, end in self.spans]
        return {"times": [t * scale for t in raw], "raw_s": sum(raw),
                "probe_s": speed.REF_S / scale}


class Answers:
    """Checks answers as they come, untimed, and keeps what the parent
    checks and the reports hashed into the determinism digest."""

    def __init__(self, wl, digest_items: int):
        self.wl = wl
        self.digest_items = digest_items
        self.texts = []
        self.first = None
        self.records = []

    def add(self, desc, item, result):
        if result is None:
            return
        self.wl.check(item, result)
        text = self.wl.report_text(result)
        if text is not None:
            if self.first is None:
                self.first = (item, text)
            if len(self.texts) < self.digest_items:
                self.texts.append(text)
        rec = self.wl.record(desc, result)
        if rec is not None:
            self.records.append(rec)

    def out(self) -> dict:
        out = {"records": self.records}
        if self.texts:
            out["digest"] = workloads.digest(self.texts)
        return out


def role_setup(wl, args):
    plan = {"workload": wl.name, "seed": args.seed,
            "items": wl.plan(args.seed, wl.plan_items)}
    with open(args.plan, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    return {}


def _load_plan(wl, args):
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    if plan["workload"] != wl.name or plan["seed"] != args.seed:
        raise SystemExit(f"plan {args.plan} is for {plan['workload']} seed {plan['seed']}")
    return plan


def role_measure(wl, args):
    stream = _stream(wl, _load_plan(wl, args))
    batch = args.batch or wl.batch
    answers = Answers(wl, min(DIGEST_ITEMS, batch))
    timer = Timer(wl)
    ok, weights = [], []
    rss = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (len(ok) >= batch and elapsed >= args.seconds) or elapsed >= HARD_STOP_S:
            break
        desc, weight, item = next(stream)
        result = timer.run(item)
        ok.append(result is not None)
        weights.append(weight)
        answers.add(desc, item, result)
        if len(ok) == batch:
            rss = _rss_mb()
    if answers.first is not None:
        # determinism: the first item again, now with warm caches
        item, text = answers.first
        if wl.report_text(wl.run(item)) != text:
            raise WrongAnswer("report differs between cold and warm runs")
    return {**timer.out(), "ok": ok, "weights": weights, "batch": batch,
            "rss_mb": rss if rss is not None else _rss_mb(), **answers.out()}


def role_trace(wl, args):
    stream = _stream(wl, _load_plan(wl, args))
    items = [next(stream) for _ in range(args.items)]
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    timer = Timer(wl)
    results = []
    start = time.perf_counter()
    for _, _, item in items:
        if time.perf_counter() - start >= HARD_STOP_S:
            break
        results.append(timer.run(item))
        if tracer is not None:
            tracer.reset_stack()
    out = {**timer.out(), "ok": [r is not None for r in results]}
    if tracer is not None:
        out["metrics"] = tracer.metrics()
        tracer.dump(args.dump)
    answers = Answers(wl, min(DIGEST_ITEMS, args.items))
    for (desc, _, item), result in zip(items, results):
        answers.add(desc, item, result)
    return {**out, **answers.out()}


ROLES = {"setup": role_setup, "measure": role_measure, "trace": role_trace}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=sorted(ROLES), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.CLASSES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--batch", type=int, default=0)
    ap.add_argument("--items", type=int, default=0)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--dump", default="")
    args = ap.parse_args(argv)

    _import_finhom()
    wl = workloads.make(args.workload, args.workdir)
    workloads.install_time_limit()
    try:
        out = ROLES[args.role](wl, args)
    except WrongAnswer as exc:
        out = {"wrong": str(exc)}
    except Exception:  # any other failure of an item is a wrong answer too
        out = {"wrong": traceback.format_exc()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
