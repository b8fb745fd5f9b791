"""Scale ladder for chain maps and lifts on complexes longer than the
sampler's default (support 4, ranks up to 3).

Each rung samples complexes over Z/4 and Z/12 with a given support and
rank bound, draws a chain map f between two of them from the solver's
kernel vectors, factors f both ways in the projective model structure
and solves a lifting square against each factorization.  Every answer
is certified: the chain map by a checked construction, the lifts by the
certificates inside ``solve_lifting`` and by the lift identities here.
Each sample has a deadline, so a cliff fails at once instead of
stalling the suite.

The smallest rung runs with the tier-1 suite; the longer rungs are
marked ``ladder`` and run only on request:

    python -m pytest -m ladder tests/test_ladder.py
"""

import signal

import pytest

from finhom import IntegersModN
from finhom.complexes import ChainMap
from finhom.model import (
    COF_THEN_TRIVFIB,
    PROJECTIVE_STRUCTURE,
    TRIVCOF_THEN_FIB,
    LiftProblem,
    factor_map,
    model_structure,
    solve_lifting,
)
from finhom.sampling import DeterministicSampler

DEADLINE_S = 5
RINGS = [IntegersModN(4), IntegersModN(12)]
RUNGS = [
    pytest.param(4, 3, 10, id="support4-rank3"),
    pytest.param(5, 4, 40, id="support5-rank4", marks=pytest.mark.ladder),
    pytest.param(6, 5, 40, id="support6-rank5", marks=pytest.mark.ladder),
]


def _past_deadline(signum, frame):
    raise TimeoutError(f"the sample ran past its {DEADLINE_S} s deadline")


def _lift_both_ways(ring, support, rank, seed):
    spec = model_structure(PROJECTIVE_STRUCTURE, ring)
    sampler = DeterministicSampler(seed)
    X = sampler.free_complex(ring, support, rank)
    Y = sampler.free_complex(ring, support, rank)
    f = sampler.chain_map(X, Y)
    ChainMap(X, Y, f.components)  # checked: every square commutes
    for mode in (TRIVCOF_THEN_FIB, COF_THEN_TRIVFIB):
        fact = factor_map(f, mode, spec)
        assert fact.p.compose(fact.i).equals(f)
        h = sampler.chain_map(fact.i.target, fact.p.source)
        prob = LiftProblem(fact.i, fact.p, h.compose(fact.i), fact.p.compose(h))
        lift = solve_lifting(prob, spec)
        assert lift.compose(fact.i).equals(prob.top)
        assert fact.p.compose(lift).equals(prob.bottom)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("support, rank, samples", RUNGS)
def test_chain_maps_and_lifts_on_long_complexes(ring, support, rank, samples):
    previous = signal.signal(signal.SIGALRM, _past_deadline)
    try:
        for k in range(samples):
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                _lift_both_ways(ring, support, rank, 1000 * support + k)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
