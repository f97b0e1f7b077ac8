"""Schedules that chain gap-reduction calls into full balancers.

smoothedBalance repeats full gap-reduction calls until the spread is down
to tau, skipping a call when the loads are already there.  gaplessBalance
runs the flooding-free variant down a fixed spread schedule: psi starts at
the total load and shrinks by floor(3 psi / 4) until it passes
ceil(4 tau / 3); each call halves the true spread often enough that the
final call lands within tau.

The continuous-to-integral reduction lives here too: loads split into
multiples of tau/2 plus frozen remainders, the integral part balances to
spread one, and recombination then keeps the total spread within tau.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, log
from random import Random

from ..dyadic import Dyadic, as_dyadic
from ..graphs import Graph
from ..loads import to_scaled
from ..records import RoundOutcome
from ..smoothing import DEFAULT_C1
from .base import KIND_MATCHING, BalancingAlgorithm
from .gapreduce import (
    GapReduce,
    GaplessGapReduce,
    gap_reduce_round_budget,
    gapless_round_budget,
)


def smoothed_calls_budget(total: int, tau) -> int:
    """How many gap-reduction calls to schedule: ceil(4 ln(T / tau))."""
    ratio = Fraction(total) / Fraction(as_dyadic(tau).as_fraction())
    if ratio <= 1:
        return 0
    return max(0, ceil(4 * log(float(ratio))))


def gapless_schedule(total: int, tau: int) -> list[int]:
    """Spread targets T, floor(3T/4), ... down past ceil(4 tau / 3)."""
    stop = -((-4 * tau) // 3)  # exact ceil(4 tau / 3)
    psi = total
    out = [psi]
    while psi > stop:
        psi = (3 * psi) // 4
        out.append(psi)
    return out


class _CallChain(BalancingAlgorithm):
    """Common machinery: run a sequence of sub-algorithm calls."""

    kind = KIND_MATCHING
    modes = ("integral",)

    def start(self, loads: list, mode: str, rng: Random, *, k, tau, n: int) -> None:
        super().start(loads, mode, rng, k=k, tau=tau, n=n)
        self.k = Fraction(k)
        self.tau = tau
        self.total = sum(loads)
        self.current: BalancingAlgorithm | None = None
        self.calls_started = 0
        self._finished = False

    def _next_call(self, loads: list) -> BalancingAlgorithm | None:
        """Return the next sub-call to run, or None when the chain is over."""
        raise NotImplementedError

    def _advance(self, loads: list) -> None:
        while self.current is None and not self._finished:
            call = self._next_call(loads)
            if call is None:
                self._finished = True
                return
            call.start(loads, self.mode, self.rng, k=self.k, tau=self.tau, n=self.n)
            self.calls_started += 1
            if not call.is_done(loads):
                self.current = call

    def is_done(self, loads: list) -> bool:
        self._advance(loads)
        return self._finished

    def play_round(self, graph: Graph, loads: list) -> RoundOutcome:
        assert self.current is not None
        outcome = self.current.play_round(graph, loads)
        if self.current.is_done(outcome.new_loads):
            self.current = None
        return outcome

    def consume_idle_rounds(self, loads: list, budget_left: int) -> int:
        if self.current is None:
            return 0
        skip = self.current.consume_idle_rounds(loads, budget_left)
        if self.current.is_done(loads):
            self.current = None
        return skip


class SmoothedBalance(_CallChain):
    name = "smoothedBalance"

    def __init__(self, c1: Fraction = DEFAULT_C1):
        self.c1 = Fraction(c1)

    def start(self, loads: list, mode: str, rng: Random, *, k, tau, n: int) -> None:
        super().start(loads, mode, rng, k=k, tau=tau, n=n)
        self.calls_budget = smoothed_calls_budget(self.total, tau)
        self._per_call = n + gap_reduce_round_budget(n, self.total, self.c1, self.k)

    def planned_rounds(self):
        return self.calls_budget * self._per_call

    def _next_call(self, loads: list):
        if self.calls_started >= self.calls_budget:
            return None
        if loads and max(loads) - min(loads) <= self.tau:
            # Already converged: skip the remaining calls.
            return None
        return GapReduce(c1=self.c1)


class GaplessBalance(_CallChain):
    name = "gaplessBalance"

    def __init__(self, c1: Fraction = DEFAULT_C1):
        self.c1 = Fraction(c1)

    def start(self, loads: list, mode: str, rng: Random, *, k, tau, n: int) -> None:
        super().start(loads, mode, rng, k=k, tau=tau, n=n)
        tau_int = as_dyadic(tau).to_int() if not isinstance(tau, int) else tau
        self.schedule = gapless_schedule(self.total, tau_int)
        self._per_call = gapless_round_budget(n, self.total, self.c1, self.k)

    def planned_rounds(self):
        return len(self.schedule) * self._per_call

    def _next_call(self, loads: list):
        # The whole schedule always runs; calls whose spread target is
        # already met burn no simulated time thanks to idle fast-forward.
        if self.calls_started >= len(self.schedule):
            return None
        return GaplessGapReduce(psi=self.schedule[self.calls_started], c1=self.c1)


# ----------------------------------------------------------------------
# continuous loads via the integral algorithms
# ----------------------------------------------------------------------


def decompose_by_unit(loads, unit: Dyadic) -> tuple[list[int], list[Dyadic]]:
    """Write each Dyadic load as q * unit + r with integer q and 0 <= r < unit."""
    if not unit > 0:
        raise ValueError("the base unit must be positive")
    nums, exp = to_scaled(loads)
    common = max(exp, unit.exp)
    step = unit.num << (common - unit.exp)
    quotients = []
    remainders = []
    for w in nums:
        q, r = divmod(w << (common - exp), step)
        quotients.append(q)
        remainders.append(Dyadic(r, common))
    return quotients, remainders


def recombine_by_unit(quotients: list[int], remainders: list[Dyadic], unit: Dyadic) -> list[Dyadic]:
    return [unit * q + r for q, r in zip(quotients, remainders)]
