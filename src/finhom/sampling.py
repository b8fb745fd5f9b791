"""Seeded deterministic generators for the verification suites.

All randomness in the library flows through ``DeterministicSampler``,
a thin wrapper around ``random.Random`` (the Mersenne Twister, whose
output for a fixed seed is stable across platforms and Python
releases).  Suites pre-generate their samples from the seed and then
evaluate them, so reports are reproducible byte for byte.

Complexes are sampled with free entries: a support interval, a rank per
degree, and differentials drawn from the solution lattice of
d o d = 0 (rows of each new differential from the kernel of the
transpose of the previous one).  A chain map is one combination of the
solver's kernel vectors, the generators of the chain-map module: one
coefficient is drawn per nonzero vector, in order, the map slices of the
vectors with a nonzero coefficient are summed in one pass over their
entries and reduced once, and one chain map is built from the sum, with
no chain map built per generator.
"""

from __future__ import annotations

import random
from operator import mul as _times
from typing import Optional

from .complexes import ChainComplex, ChainMap, _chain_map_vectors
from .matrix import Matrix
from .modules import FpModule
from .rings import Ring
from .smith import kernel_basis


class DeterministicSampler:
    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def randint(self, a: int, b: int) -> int:
        return self.rng.randint(a, b)

    def entry(self, ring: Ring, spread: int = 3) -> int:
        if ring.modulus is None:
            return self.rng.randint(-spread, spread)
        return self.rng.randrange(ring.modulus)

    # -- free complexes -------------------------------------------------------

    def free_complex(self, ring: Ring, max_support: int = 4, max_rank: int = 3,
                     lo_range=(-1, 1)) -> ChainComplex:
        lo = self.rng.randint(*lo_range)
        length = self.rng.randint(1, max_support)
        ranks = [self.rng.randint(0, max_rank) for _ in range(length)]
        if not any(ranks):
            ranks[self.rng.randrange(length)] = 1
        objs = {lo + k: FpModule.free(ring, r) for k, r in enumerate(ranks)}
        diffs = {}
        prev_d: Optional[Matrix] = None
        for k in range(length - 1, 0, -1):
            n = lo + k
            src, tgt = objs[n], objs[n - 1]
            if src.gens == 0 or tgt.gens == 0:
                prev_d = None
                continue
            if prev_d is None:
                m = Matrix(ring, tgt.gens, src.gens,
                           [[self.entry(ring, 2) for _ in range(src.gens)]
                            for _ in range(tgt.gens)])
            else:
                K = kernel_basis(prev_d.transpose())
                rows = []
                for _ in range(tgt.gens):
                    combo = [0] * src.gens
                    for j in range(K.cols):
                        c = self.rng.randint(-1, 1)
                        if c:
                            combo = [ring.add(a, ring.mul(c, K.entries[idx][j]))
                                     for idx, a in enumerate(combo)]
                    rows.append(combo)
                m = Matrix(ring, tgt.gens, src.gens, rows)
            diffs[n] = m
            prev_d = m
        return ChainComplex(ring, objs, diffs)

    def chain_map(self, X: ChainComplex, Y: ChainComplex) -> ChainMap:
        """A random element of the chain-map module."""
        ring = X.ring
        solver, handles, vectors = _chain_map_vectors(X, Y)
        if not vectors:
            return ChainMap.zero_map(X, Y)
        hi = 3 if ring.modulus is None else ring.modulus - 1
        coeffs = [self.rng.randint(0, hi) for _ in vectors]
        terms = [(c, v) for c, v in zip(coeffs, vectors) if c]
        if not terms:
            return ChainMap.zero_map(X, Y)
        cs = [c for c, _ in terms]
        norm = ring.normalize
        # only the map slices are combined; the rest of combo stays 0
        combo = [0] * len(vectors[0])
        for h in handles.values():
            part = slice(h.offset, h.offset + h.rows * h.cols)
            combo[part] = [norm(sum(map(_times, cs, entries)))
                           for entries in zip(*(v[part] for _, v in terms))]
        combo = tuple(combo)  # matrix rows are tuples, and value slices them from it
        return ChainMap(X, Y, {n: solver.value(combo, h) for n, h in handles.items()},
                        check=False)
