"""Deterministic derivative-free maximization used by the ensemble searches.

The random stream is an xorshift64* generator specified by its recurrence
(x ^= x >> 12; x ^= x << 25; x ^= x >> 27; output x * 0x2545F4914F6CDD1D,
all mod 2^64), so identical seeds reproduce identical searches on any
platform.  Local refinement is a greedy coordinate pattern search with a
shrinking step and a hard evaluation budget, whose probes are evaluated
in speculative batches.  A batch guesses that a ride probe (the repeat
of a step that just improved) pays only if the last ride probe paid.
Every ride ends with a probe that fails, so the first probe of a new
ride is guessed to fail, and a probe after one that paid to pay.
"""

from __future__ import annotations

import copy

import numpy as np

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_SEED_MIX = 0x9E3779B97F4A7C15

# Probes per batched objective call (see coordinate_ascent).  The search
# objective recomputes only the branches and conditional states a probe
# changed, so an extra row costs little more than its share of the mixing
# layer, and the rows a wrong guess discards cost less than the calls a
# shorter lookahead makes.  Lookahead 6 / 8 / 12, default SearchConfig,
# medians of 4 interleaved runs at seeds 1-4 on a 2-core x86-64 machine,
# BLAS on one thread: maximize_p on 1->10 cloning 3.94 / 3.86 / 4.07 s
# (seed 1: 4669 / 3979 / 3307 objective calls, 27.3k / 30.7k / 37.8k rows),
# additivity_gap on erasure 0.25 4.68 / 4.31 / 5.15 s.
LOOKAHEAD = 8
SHRINK = 0.5  # step factor after a full cycle without improvement
STEP_MIN = 1e-7  # the search stops once the step is at or below this


class XorShift64Star:
    """xorshift64* pseudo-random generator with a 64-bit state."""

    def __init__(self, seed: int):
        state = (int(seed) ^ _SEED_MIX) & _MASK
        self.state = state if state else _SEED_MIX

    def next_u64(self) -> int:
        x = self.state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK
        x ^= (x >> 27)
        self.state = x
        return (x * _MULT) & _MASK

    def uniform(self) -> float:
        """Uniform double in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self.uniform() for _ in range(n)], dtype=float)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        span = hi - lo + 1
        return lo + int(self.next_u64() % span)


def derive_seeds(seed: int, n: int) -> list[int]:
    """Per-restart seeds: the first n outputs of the master stream.

    Taking a prefix of the same stream guarantees that increasing the
    restart count never changes the work done by earlier restarts.
    """
    master = XorShift64Star(seed)
    return [master.next_u64() for _ in range(n)]


def coordinate_ascent(fn, theta, value, *, coords=None, step=0.3, budget=400):
    """Greedy coordinate-wise pattern search (maximization).

    Probes theta[i] +- step for each coordinate in round-robin order,
    accepting improvements immediately and riding an improving direction
    while it keeps paying off.  The step shrinks by ``SHRINK`` after a
    full cycle with no improvement.  Stops when the evaluation budget is
    exhausted or the step falls to ``STEP_MIN``.  Returns (value, theta,
    evals_used).

    ``fn`` maps a (k, n) stack of candidates to their (k,) values.  Each
    call evaluates the next ``LOOKAHEAD`` probes the search would make if
    every plus and minus probe failed and every ride probe had the outcome
    of the ride probe before it (the candidates depend only on which
    probes improve, not on the values).  The values are taken in order up
    to the first probe whose outcome differs from that guess, and the rest
    are discarded, so the search returns exactly what probing one
    candidate at a time returns; ``evals_used`` counts the probes taken,
    not those discarded.
    """
    theta = np.array(theta, dtype=float)
    order = list(range(len(theta))) if coords is None else list(coords)
    if not order:
        return value, theta, 0
    run = _PatternSearch(theta, value, order, step, budget)
    while True:
        ahead = copy.copy(run)
        cands, guesses = [], []
        while len(cands) < LOOKAHEAD and (cand := ahead.probe()) is not None:
            cands.append(cand)
            guesses.append(ahead.phase == "ride" and ahead.ride_paid)
            ahead.advance(cand, None, guesses[-1])
        if not cands:
            return run.value, run.theta, run.used
        for cand, v, guess in zip(cands, fn(np.stack(cands)), guesses):
            if run.advance(cand, v, v > run.value) != guess:
                break


class _PatternSearch:
    """State of ``coordinate_ascent`` between two probes.

    ``phase`` names the next probe: "plus" and "minus" try +-step on the
    current coordinate, "ride" repeats the step that just improved.
    ``ride_paid`` is the outcome of the last ride probe (True before the first).
    """

    def __init__(self, theta, value, order, step, budget):
        self.theta, self.value = theta, value
        self.order, self.step, self.budget = order, step, budget
        self.used = self.cursor = self.stale = 0
        self.phase, self.delta, self.ride_paid = "plus", step, True

    def probe(self):
        """The next candidate, or None once the search has stopped."""
        if self.phase == "plus" and (self.used >= self.budget or self.step <= STEP_MIN):
            return None
        cand = self.theta.copy()
        cand[self.order[self.cursor % len(self.order)]] += self.delta
        return cand

    def advance(self, cand, v, improved: bool) -> bool:
        """Record the outcome of the candidate ``probe`` returned; returns ``improved``."""
        self.used += 1
        if self.phase == "ride":
            self.ride_paid = improved
        if improved:
            self.theta, self.value, self.phase = cand, v, "ride"
            if self.used >= self.budget:
                self._next_coordinate(improved=True)
        elif self.phase == "ride":
            self._next_coordinate(improved=True)
        elif self.phase == "plus" and self.used < self.budget:
            self.phase, self.delta = "minus", -self.step
        else:
            self._next_coordinate(improved=False)
        return improved

    def _next_coordinate(self, improved):
        self.stale = 0 if improved else self.stale + 1
        if self.stale >= len(self.order):
            self.step *= SHRINK
            self.stale = 0
        self.cursor += 1
        self.phase, self.delta = "plus", self.step
