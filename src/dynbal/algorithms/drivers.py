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

Amounts (tau, loads, units) arrive as ints and dyadic `Fraction`s; `Dyadic`
is output-only and no schedule here names it.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from random import Random

from ..graphs import Graph
from ..loads import to_scaled
from ..records import RoundOutcome
from ..smoothing import DEFAULT_C1
from .base import KIND_MATCHING, BalancingAlgorithm, ratio_log
from .gapreduce import (
    GapReduce,
    GaplessGapReduce,
    gap_reduce_round_budget,
    gapless_round_budget,
    hitting_constant,
)


def smoothed_calls_budget(total: int, tau) -> int:
    """How many gap-reduction calls to schedule: ceil(4 ln(T / tau))."""
    ratio = Fraction(total) / Fraction(tau)
    if ratio <= 1:
        return 0
    return max(0, ceil(4 * ratio_log(ratio)))


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
    """Common machinery: run a sequence of gap-reduction calls.  The idle
    call starts the next one once the current call `is_done`."""

    kind = KIND_MATCHING
    modes = ("integral",)

    def __init__(self, c1: Fraction = DEFAULT_C1):
        self.c1 = hitting_constant(c1)

    def start(self, loads: tuple, mode: str, rng: Random, *, k, tau) -> None:
        super().start(loads, mode, rng, k=k, tau=tau)
        self.k = Fraction(k)
        self.current: BalancingAlgorithm | None = None
        self.calls_started = 0

    def _next_call(self, loads: tuple) -> BalancingAlgorithm | None:
        """Return the next sub-call to run, or None when the chain is over
        (and None again when asked later: the loads are frozen by then)."""
        raise NotImplementedError

    def consume_idle_rounds(self, loads: tuple, budget_left: int) -> int:
        # Start calls until one is live; once the chain is over, coast.
        while self.current is None or self.current.is_done():
            call = self._next_call(loads)
            if call is None:
                return budget_left
            call.start(loads, self.mode, self.rng, k=self.k, tau=self.tau)
            self.calls_started += 1
            self.current = call
        return self.current.consume_idle_rounds(loads, budget_left)

    def play_round(self, graph: Graph, loads: tuple) -> RoundOutcome:
        return self.current.play_round(graph, loads)


class SmoothedBalance(_CallChain):
    name = "smoothedBalance"

    def start(self, loads: tuple, mode: str, rng: Random, *, k, tau) -> None:
        super().start(loads, mode, rng, k=k, tau=tau)
        self.calls_budget = smoothed_calls_budget(self.total, tau)
        self._per_call = self.n + gap_reduce_round_budget(self.n, self.total, self.c1, self.k)

    def planned_rounds(self):
        return self.calls_budget * self._per_call

    def _next_call(self, loads: tuple):
        if self.calls_started >= self.calls_budget:
            return None
        if loads and max(loads) - min(loads) <= self.tau:
            # Already converged: skip the remaining calls.
            return None
        return GapReduce(c1=self.c1)


class GaplessBalance(_CallChain):
    name = "gaplessBalance"

    def start(self, loads: tuple, mode: str, rng: Random, *, k, tau) -> None:
        super().start(loads, mode, rng, k=k, tau=tau)
        self.schedule = gapless_schedule(self.total, int(tau))
        self._per_call = gapless_round_budget(self.n, self.total, self.c1, self.k)

    def planned_rounds(self):
        return len(self.schedule) * self._per_call

    def _next_call(self, loads: tuple):
        # The whole schedule always runs; calls whose spread target is
        # already met burn no simulated time thanks to idle fast-forward.
        if self.calls_started >= len(self.schedule):
            return None
        return GaplessGapReduce(psi=self.schedule[self.calls_started], c1=self.c1)


# ----------------------------------------------------------------------
# continuous loads via the integral algorithms
# ----------------------------------------------------------------------


def decompose_by_unit(loads, unit: Fraction) -> tuple[list[int], list[int], int, int]:
    """Write each load (an int or a dyadic Fraction) as q * unit + r with
    integer q and 0 <= r < unit, for a dyadic unit.

    Returns (quotients, remainders, exp, step): the remainders and the unit
    are numerators over the shared exponent exp, the unit's being step.
    """
    if not unit > 0:
        raise ValueError("the base unit must be positive")
    nums, exp = to_scaled(loads)
    (step,), unit_exp = to_scaled([unit])
    common = max(exp, unit_exp)
    step <<= common - unit_exp
    quotients = []
    remainders = []
    for w in nums:
        q, r = divmod(w << (common - exp), step)
        quotients.append(q)
        remainders.append(r)
    return quotients, remainders, common, step


def recombine_by_unit(quotients: list[int], remainders: list[int], step: int) -> list[int]:
    """The numerators q * step + r, over the exponent `decompose_by_unit` returned."""
    return [q * step + r for q, r in zip(quotients, remainders)]
