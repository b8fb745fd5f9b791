"""The three benchmark workloads.

Each workload turns a seed into a stream of items and knows how to run
one item (the timed call into finhom) and how to check its answer
(untimed; a wrong answer raises ``WrongAnswer``).

Inputs are drawn by proportional stratified sampling.  Every item has a
cheap size key that predicts its cost (for the two chain-map workloads
the total rank of the sampled complexes, for the CLI workload the shape
of the two presentations), and the probability of each key under the
generator is known exactly.  Item j of a run is assigned the key at
quantile u_j of that distribution, with u_0, u_1, ... a bit-reversed
(van der Corput) sequence, and is the next candidate with that key in
the seed's candidate stream.  So every prefix of a run holds each size
in a fixed share, heavy items included, and only the items within a size
vary from seed to seed.  Without this the share of heavy items in a
30-second run moves the totals by 20-30% between seeds.  A workload may
also oversample bands of sizes (``bands``), such as the slowest ones that
hold p95, or those around the median; each item then carries the weight
that makes weighted statistics unbiased.

``plan`` runs in the set-up process; the measuring process only reads
the planned descriptors, so no finhom cache is warm before its first
item.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
from bisect import bisect_right
from collections import defaultdict, deque
from itertools import product

import oracle

QUANTILE_BITS = 12
MIN_BIN = 1 / 256


class WrongAnswer(Exception):
    """An answer failed its check; the benchmark run fails."""


class QueryTimeout(Exception):
    """A homalg query hit its time limit."""


def _quantile(j: int) -> float:
    """The j-th point of the bit-reversed sequence in (0, 1)."""
    r = int(format(j % (1 << QUANTILE_BITS), f"0{QUANTILE_BITS}b")[::-1], 2)
    return (r + 0.5) / (1 << QUANTILE_BITS)


def _slots(count: int, bands):
    """(size quantile, weight) of items 0..count-1.  ``bands`` are
    (lo, hi, share) triples that tile [0, 1]: a ``share`` of the items come
    from size quantiles lo..hi and carry weight (hi - lo) / share, so
    weighted statistics stay unbiased.  Every prefix holds each band in
    its share, to within one item."""
    bands = bands or ((0.0, 1.0, 1.0),)
    used = [0] * len(bands)
    out = []
    for j in range(count):
        b = max(range(len(bands)), key=lambda k: bands[k][2] * (j + 1) - used[k])
        lo, hi, share = bands[b]
        out.append((lo + (hi - lo) * _quantile(used[b]), (hi - lo) / share))
        used[b] += 1
    return out


def _bins(strata: dict):
    """Merge adjacent size keys into bins of probability >= MIN_BIN, so a
    rare key never costs thousands of candidates.  Returns the bin of each
    key and the cumulative upper edge of each bin."""
    bin_of, edges = {}, []
    acc = start = 0.0
    for key, p in sorted(strata.items()):
        if not edges or edges[-1] - start >= MIN_BIN:
            start = edges[-1] if edges else 0.0
            edges.append(0.0)
        acc += p
        edges[-1] = acc
        bin_of[key] = len(edges) - 1
    if len(edges) > 1 and edges[-1] - edges[-2] < MIN_BIN:
        edges[-2:] = [edges[-1]]
        bin_of = {k: min(b, len(edges) - 1) for k, b in bin_of.items()}
    return bin_of, edges


def _total_rank(C) -> int:
    return sum(C.module_at(n).gens for n in C.support)


def _complex_rank_distribution(max_support: int = 4, max_rank: int = 3) -> dict:
    """Total rank of ``DeterministicSampler.free_complex``: a length
    uniform in 1..max_support, ranks uniform in 0..max_rank, and an
    all-zero draw bumped to a single rank 1."""
    dist = defaultdict(float)
    for length in range(1, max_support + 1):
        p = 1.0 / max_support / (max_rank + 1) ** length
        for ranks in product(range(max_rank + 1), repeat=length):
            dist[sum(ranks) or 1] += p
    return dist


def _two_complex_strata() -> dict:
    """Distribution of the size key of two independent sampled complexes:
    (total rank of both, rank of the first)."""
    one = _complex_rank_distribution()
    return {(a + b, a): pa * pb for a, pa in one.items() for b, pb in one.items()}


class Workload:
    name = ""
    batch = 0          # items in the headline batch timed as wall_s
    trace_items = 0    # fixed item count of a traced run
    time_limit = None  # per-item limit in reference-speed seconds, or None
    raw_limit = None   # the limit in wall-clock seconds at the machine's speed now
    plan_items = 0     # items planned in set-up
    plan_candidates = 0  # candidates drawn up front in set-up, see plan
    bands = None       # ((lo, hi, share), ...): oversampled sizes, see _slots

    def plan(self, seed: int, count: int) -> list:
        """[descriptor, weight] of the first ``count`` items; JSON-serialisable.

        The first ``plan_candidates`` candidates are drawn whether they are
        needed or not, so that set-up does about the same work for every
        seed (how many a seed needs varies twofold); candidates fill the
        size bins in the same order either way, so the plan is the same."""
        bin_of, edges = _bins(self.strata())
        rng = random.Random(f"{self.name}/{seed}")
        buckets = defaultdict(deque)
        out = []
        drawn = self.plan_candidates
        for _ in range(drawn):
            desc = self.draw(rng)
            buckets[bin_of[self.size_key(desc)]].append(desc)
        for u, weight in _slots(count, self.bands):
            target = min(bisect_right(edges, u * edges[-1]), len(edges) - 1)
            while not buckets[target]:
                drawn += 1
                if drawn > 100 * (count + 1) / MIN_BIN:
                    raise RuntimeError(f"{self.name}: size bin {target} is never drawn; "
                                       "strata() disagrees with draw()")
                desc = self.draw(rng)
                buckets[bin_of[self.size_key(desc)]].append(desc)
            out.append([buckets[target].popleft(), weight])
        return out

    def strata(self) -> dict:
        """Probability of each size key under ``draw``."""
        raise NotImplementedError

    def draw(self, rng: random.Random):
        """One candidate item descriptor."""
        raise NotImplementedError

    def size_key(self, desc):
        raise NotImplementedError

    def prepare(self, desc):
        """Build the input of one item from its descriptor (untimed)."""
        return desc

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> None:
        """Check one answer inside the measuring process (untimed)."""

    def report_text(self, result):
        """The machine report hashed into the run's determinism digest."""
        return None

    def record(self, desc, result):
        """What the parent process checks, outside the measured process."""
        return None

    @staticmethod
    def check_record(rec) -> None:
        pass


# ----------------------------------------------------------------- model-check


class ModelCheckZ4(Workload):
    """``check_model_axioms`` on the projective structure over Z/4, one
    sample per item, as ``finhom model-check --samples 1 --seed s``."""

    name = "model-check-Z4"
    batch = 50          # the 50-sample acceptance run
    trace_items = 20
    plan_items = 128
    plan_candidates = 2000   # seeds 1-20 need 900-2450
    # a run holds only ~50 samples.  The slowest tenth holds p95 and most
    # of the run-to-run spread of the mean, and the fifth around the median
    # holds p50; 45% and 30% of the items come from them (weighted back
    # down), so each percentile is a median of 15-20 items, not the time
    # of one or two
    bands = ((0.0, 0.4, 0.1), (0.4, 0.6, 0.3), (0.6, 0.9, 0.15), (0.9, 1.0, 0.45))
    check_names = ("mc2of3-0", "mc3retract-0", "mc4lift-0", "mc5factor-0")

    def __init__(self):
        from finhom.model import PROJECTIVE_STRUCTURE, model_structure
        from finhom.rings import IntegersModN

        self.ring = IntegersModN(4)
        self.spec = model_structure(PROJECTIVE_STRUCTURE, self.ring)

    def strata(self):
        return _two_complex_strata()

    def draw(self, rng):
        return rng.getrandbits(48)

    def size_key(self, sample_seed):
        # the first two complexes the suite samples for this seed; their
        # total rank predicts the sample's cost (log-time correlation ~0.97)
        from finhom.sampling import DeterministicSampler

        sampler = DeterministicSampler(sample_seed)
        a = _total_rank(sampler.free_complex(self.ring))
        return (a + _total_rank(sampler.free_complex(self.ring)), a)

    def run(self, sample_seed):
        from finhom.checks import check_model_axioms

        return check_model_axioms(self.spec, sample_seed, 1)

    def report_text(self, report):
        return report.to_machine()

    def check(self, sample_seed, report):
        names = tuple(c.name for c in report.sorted_checks())
        if names != self.check_names:
            raise WrongAnswer(f"seed {sample_seed}: checks {names}")
        if not report.all_pass:
            bad = [c for c in report.sorted_checks() if not c.passed]
            raise WrongAnswer(f"seed {sample_seed}: violations {bad}")


# ------------------------------------------------------------------- factor-Z


class FactorZ(Workload):
    """A random chain map over Z factored in both modes in the flat
    structure, certified as ``finhom factor --mode both`` does it."""

    name = "factor-Z"
    batch = 200         # the 200-sample factorization suite
    trace_items = 150
    plan_items = 512
    plan_candidates = 2200   # seeds 1-20 need 1040-2100

    def __init__(self):
        from finhom.model import FLAT_STRUCTURE, model_structure
        from finhom.rings import Integers

        self.ring = Integers()
        self.spec = model_structure(FLAT_STRUCTURE, self.ring)

    def strata(self):
        return _two_complex_strata()

    def draw(self, rng):
        return rng.getrandbits(48)

    def _complexes(self, item_seed):
        from finhom.sampling import DeterministicSampler

        sampler = DeterministicSampler(item_seed)
        X = sampler.free_complex(self.ring, max_support=4, max_rank=3)
        Y = sampler.free_complex(self.ring, max_support=4, max_rank=3)
        return sampler, X, Y

    def size_key(self, item_seed):
        _, X, Y = self._complexes(item_seed)
        a = _total_rank(X)
        return (a + _total_rank(Y), a)

    def prepare(self, item_seed):
        sampler, X, Y = self._complexes(item_seed)
        return sampler.chain_map(X, Y)

    def run(self, f):
        from finhom.model import COF_THEN_TRIVFIB, TRIVCOF_THEN_FIB, factor_map

        return [factor_map(f, mode, self.spec)
                for mode in (COF_THEN_TRIVFIB, TRIVCOF_THEN_FIB)]

    def check(self, f, facts):
        for fact in facts:
            if not fact.p.compose(fact.i).equals(f):
                raise WrongAnswer(f"{fact.mode}: p o i differs from f")
            if not fact.revalidate(self.spec):
                raise WrongAnswer(f"{fact.mode}: certificates did not revalidate")
            if not fact.cell_chain.verify():
                raise WrongAnswer(f"{fact.mode}: cell chain failed verification")


# --------------------------------------------------------------- homalg-Z-cli

# The integer Smith form of finhom explodes on larger or less sparse
# presentations than these: with 4 generators, with more relations than
# generators, or with entries of 2 or 3 in absolute value, a share of the
# Ext/Tor queries on dense presentations never returns (ROADMAP item 2;
# e.g. 2 in 10000 Tor/Ext queries on two 4x4 presentations with entries
# in [-1, 1], 7 in 10000 on two 2x3 ones with entries in [-3, 3]).  A query
# that never returns is a failed operation, and a benchmark run must have
# none, so the mix stays below that: 2 or 3 generators, as many relations
# or one fewer, entries in [-1, 1].  None of 20000 queries on two 3x3
# presentations, the largest shape, took more than 31 ms (best of three).
GENS = (2, 3)
RELATIONS_BELOW = (0, 1)   # relation count = generators minus one of these
ENTRY = 1                  # entries are drawn from [-ENTRY, ENTRY]


class HomalgZCli(Workload):
    """``finhom ext|tor --max-degree 1 --emit machine`` through
    ``cli.run_command`` on a generated workspace holding two random dense
    Z-presentations (2-3 generators, as many relations or one fewer,
    entries in [-1, 1])."""

    name = "homalg-Z-cli"
    batch = 2000
    trace_items = 1000
    plan_items = 4096
    # a guard, not a filter: no query of this mix comes near it (the
    # slowest take ~30 ms, the typical one 8 ms); one that hits it counts
    # as failed
    time_limit = 2.0
    # p95 lies among the pairs of 3-generator presentations, a quarter of
    # the mix; half the items come from the top fifth of sizes
    bands = ((0.0, 0.8, 0.5), (0.8, 1.0, 0.5))

    def __init__(self, workdir: str):
        self.path = os.path.join(workdir, f"query-{os.getpid()}.cl")

    def strata(self):
        one = defaultdict(float)
        for g in GENS:
            for d in RELATIONS_BELOW:
                one[(g, g - d)] += 1.0 / len(GENS) / len(RELATIONS_BELOW)
        return {self._key(kind, a, b): 0.5 * pa * pb
                for kind in ("ext", "tor")
                for a, pa in one.items() for b, pb in one.items()}

    def draw(self, rng):
        kind = rng.choice(("ext", "tor"))
        shape = []
        for _ in range(2):
            g = rng.choice(GENS)
            shape.append([g, g - rng.choice(RELATIONS_BELOW)])
        return [kind, shape, rng.getrandbits(48)]

    @staticmethod
    def _key(kind, a, b):
        return (a[0] * b[0], a[0], b[0], a[1], b[1], kind)

    def size_key(self, desc):
        kind, (a, b), _ = desc
        return self._key(kind, a, b)

    @staticmethod
    def prepare(desc):
        kind, shape, entry_seed = desc
        rng = random.Random(entry_seed)
        rels = [[[rng.randint(-ENTRY, ENTRY) for _ in range(r)] for _ in range(g)]
                for g, r in shape]
        return kind, shape, rels

    def workspace_text(self, shape, rels) -> str:
        lines = ["ring R Z"]
        for name, (g, _), rows in zip("AB", shape, rels):
            lines.append(f"module {name} over R gens {g} rels "
                         f"[{','.join('[' + ','.join(map(str, r)) + ']' for r in rows)}]")
        return "\n".join(lines) + "\n"

    def run(self, item):
        from finhom.cli import run_command

        kind, shape, rels = item
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(self.workspace_text(shape, rels))
        signal.setitimer(signal.ITIMER_REAL, self.raw_limit or self.time_limit)
        try:
            code, report = run_command([kind, "--workspace", self.path, "--a", "A",
                                        "--b", "B", "--max-degree", "1",
                                        "--emit", "machine"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return code, report.to_machine()

    def record(self, desc, result):
        # checked by the parent: importing sympy here would inflate the
        # measured process's peak memory
        return [desc, *result]

    @staticmethod
    def check_record(rec):
        desc, code, machine = rec
        kind, shape, rels = HomalgZCli.prepare(desc)
        if code != 0:
            raise WrongAnswer(f"{kind}: exit code {code}")
        problem = oracle.check_report(kind, [g for g, _ in shape], rels, machine)
        if problem:
            raise WrongAnswer(f"{kind} on {rels}: {problem}")


def _raise_timeout(signum, frame):
    raise QueryTimeout()


def install_time_limit():
    signal.signal(signal.SIGALRM, _raise_timeout)


CLASSES = {cls.name: cls for cls in (ModelCheckZ4, FactorZ, HomalgZCli)}


def make(name: str, workdir: str) -> Workload:
    return HomalgZCli(workdir) if name == HomalgZCli.name else CLASSES[name]()


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()[:16]
