"""One gap-reduction call: learn the extremes, then pair light with heavy.

The call opens with n flooding rounds in which every node forwards the
smallest and largest load it has heard of.  Lemma: if every round's graph
is connected, each round adds at least one node to the set that knows an
extreme, so after n - 1 rounds every table holds the (min, max) of the
loads the call started on; flooding moves no load, so those are its loads
throughout.  The premise is the engine's per-round `is_connected` check,
which refuses a disconnected adversary graph with `EngineError`, and the
smoothing sampler draws only connected graphs.  So `start` reads the
extremes m and M off its loads, and a flooding round only counts down and
hands back the call's one flooding record without reading its graph
(`tests/oracles.py` simulates the tables to check the lemma).  The n rounds
are still played because each one draws its graph: the adversary and the
smoothing sampler advance their random streams as the paper's call does,
so every later draw stays the same.

With the spread psi = M - m, a node is light when w < m + psi/4 and heavy
when w > M - psi/4.  For the main rounds each light node proposes to its
heaviest neighbor provided that neighbor is heavy; each heavy node accepts
its lightest proposer, the one with the widest gap; the pair splits its
total with the floor going to the light node.  Thresholds never move within
a call, so once either side is exhausted the remaining rounds provably
transfer nothing and can be fast-forwarded.  A call counts its rounds down
once, in `_left`, and floods while more than its main budget is left.

The gapless variant skips flooding entirely: it is handed a target spread
psi and every node proposes to its heaviest neighbor whenever that
neighbor is at least psi/2 ahead (inclusive).  Nodes that proposed do not
also accept, which keeps the variant matching-based: the rule of
`offer_round` (see base.py), which both variants end a round in.  In
`gapReduce` it drops nothing: a node both light and heavy would lie above
M - psi/4 and below m + psi/4, which needs psi < psi/2.

Each variant states its offer rule once, in `_propose(u, graph, loads)`,
and tests the loads before it reads u's row: only a light node can offer
in `gapReduce`, and in the gapless variant only a node at least psi/2
below the tuple's maximum, since no neighbor is heavier than that.  The
maximum is taken once per committed tuple, keyed by identity; it bounds
every neighbor whatever the loads are, so the test needs no premise about
where they came from.  Both variants keep one `ProposalMemo` for one call,
as thresholds and psi never move within it; a memo miss asks every node.
For the same reason the idle test is decided once per committed tuple
(`_busy`), so a round that moved no load skips the scan of its extremes.
Almost every smoothed round waits for a flip that joins a light node to a
heavy one: a round whose flips change no offer plays the memo's offers,
and the record of such a round that moved no load is kept and handed back
while the memo's key holds, as `randMaxNeighbor` replays its coins (see
randomized.py).  A finished call skips every round it is offered;
drivers.py reads its `is_done`.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, e, log
from random import Random

from ..graphs import Graph
from ..records import RoundOutcome
from ..smoothing import DEFAULT_C1
from .base import BalancingAlgorithm, heaviest_neighbor, offer_round


def hitting_constant(c1) -> Fraction:
    """`c1` as a Fraction; every planned budget divides by it."""
    c1 = Fraction(c1)
    if c1 <= 0:
        raise ValueError("the hitting constant must be positive")
    return c1


def _guarded_log_argument(n: int, total: int) -> float:
    """n * ln(total), floored at e so the outer log stays positive."""
    arg = n * log(total) if total > 1 else 0.0
    return max(arg, e)


def gap_reduce_round_budget(n: int, total: int, c1: Fraction, k: Fraction) -> int:
    """Main-loop rounds for one call: ceil(5 n^2 ln(n ln T) / (c1 k)).
    `DEFAULT_C1` = 2 assumes a set S of non-edges is hit with probability at
    least c1 k |S| / n^2: true for every single non-edge at t = 1 on a
    connected base (c >= 2n^2 / (n^2 - n + 2)) and in 56 of the 60 enumerated
    cases, not for n non-edges at t = 2 on random bases (1.931 at n = 8)."""
    if k <= 0:
        raise ValueError("gap reduction needs a positive smoothing amount")
    c1 = hitting_constant(c1)
    rounds = 5 * n * n * log(_guarded_log_argument(n, total)) / (float(c1) * float(k))
    return max(0, ceil(rounds))


def gapless_round_budget(n: int, total: int, c1: Fraction, k: Fraction) -> int:
    """Per-call rounds for the gapless variant:
    ceil(2 n^2 ln(n ln T) ln n / (c1 k)).  For what `DEFAULT_C1` assumes,
    see gap_reduce_round_budget."""
    if k <= 0:
        raise ValueError("gap reduction needs a positive smoothing amount")
    c1 = hitting_constant(c1)
    rounds = (
        2 * n * n * log(_guarded_log_argument(n, total)) * log(n)
        / (float(c1) * float(k))
    )
    return max(0, ceil(rounds))


class ProposalMemo(BalancingAlgorithm):
    """One gap-reduction call: its hitting constant `c1`, its budget and
    countdown `_left`, its idle skeleton and a memo of offers.  A variant
    sets its thresholds and `_plan`s its budget in `start`, and gives
    `_propose(u, graph, loads)`, u's offer or None, which tests the loads
    before it reads `graph.row(u)`, and `_idle(loads)`, whether no future
    graph can move a unit before the call ends.

    An offer reads only its node's adjacency row and the loads.  The memo's
    key is the base graph a smoothed graph was flipped from and the loads'
    committed tuple, both by identity; a miss asks every node on the base,
    and while the key holds, a round asks only the flipped pairs' endpoints
    again, on the flipped graph, and plays the memo dict itself when none
    of their offers differs.  A round that played the memo's offers and
    moved no load is kept, and handed back to every later round that plays
    them; a new key drops it.  By the same rule `_busy` holds the tuple the
    idle test last found busy."""

    modes = ("integral",)

    def __init__(self, c1: Fraction = DEFAULT_C1):
        self.c1 = hitting_constant(c1)

    def start(self, loads: tuple, mode: str, rng: Random, *, k, tau) -> None:
        super().start(loads, mode, rng, k=k, tau=tau)
        self.k = Fraction(k)
        self._memo_base, self._memo_loads, self._memo = None, None, {}
        self._kept = self._busy = None

    def _plan(self, budget: int) -> None:
        """Plan `budget` rounds.  A spread psi below 2 cannot be narrowed by
        integral averaging: such a call is finished before its first round."""
        self._budget = budget
        self._left = budget if self.psi >= 2 else 0

    def planned_rounds(self):
        return self._budget

    def is_done(self) -> bool:
        return self._left == 0

    def consume_idle_rounds(self, loads: tuple, budget_left: int) -> int:
        if self._left == 0:  # finished
            return budget_left
        if loads is self._busy:
            return 0
        if not self._idle(loads):
            self._busy = loads
            return 0
        # Thresholds never move within a call, so the rest of it is idle.
        skip = min(self._left, budget_left)
        self._left -= skip
        return skip

    def _offers(self, graph: Graph, loads: tuple) -> dict:
        """This round's offers for `offer_round`: the memo itself when no
        flip changes an offer."""
        base = graph if graph.base is None else graph.base
        if base is not self._memo_base or loads is not self._memo_loads:
            self._memo_base, self._memo_loads = base, loads
            propose = self._propose
            self._memo = {
                u: offer for u in range(base.n) if (offer := propose(u, base, loads)) is not None
            }
            self._kept = None
        memo = merged = self._memo
        for u in {u for pair in graph.flips for u in pair}:
            offer = self._propose(u, graph, loads)
            if offer != memo.get(u):
                if merged is memo:
                    merged = dict(memo)
                if offer is None:
                    del merged[u]
                else:
                    merged[u] = offer
        return merged

    def _round(self, graph: Graph, loads: tuple) -> RoundOutcome:
        """This round's record: the kept one while it stands."""
        offers = self._offers(graph, loads)
        if offers is not self._memo:
            return offer_round(offers, loads)
        if self._kept is None:
            outcome = offer_round(offers, loads)
            if outcome.new_loads is not loads:
                return outcome
            self._kept = outcome
        return self._kept


class GapReduce(ProposalMemo):
    name = "gapReduce"

    def start(self, loads: tuple, mode: str, rng: Random, *, k, tau) -> None:
        super().start(loads, mode, rng, k=k, tau=tau)
        # Where flooding ends (see the module docstring).
        self.low, self.high = min(loads), max(loads)
        self.psi = self.high - self.low
        self._main_budget = gap_reduce_round_budget(self.n, self.total, self.c1, self.k)
        self._plan(self.n + self._main_budget)
        self._flood_record = None

    def _is_light(self, w: int) -> bool:
        return 4 * w < 4 * self.low + self.psi

    def _is_heavy(self, w: int) -> bool:
        return 4 * w > 4 * self.high - self.psi

    def play_round(self, graph: Graph, loads: tuple) -> RoundOutcome:
        self._left -= 1
        if self._left >= self._main_budget:
            # Flooding moves no load: one record serves the call's tuple.
            if self._flood_record is None or self._flood_record.new_loads is not loads:
                self._flood_record = RoundOutcome(new_loads=loads)
            return self._flood_record
        return self._round(graph, loads)

    def _propose(self, u: int, graph: Graph, loads: tuple):
        if self._is_light(loads[u]) and (row := graph.row(u)):
            v = heaviest_neighbor(u, row, loads)
            if self._is_heavy(loads[v]):
                return v, loads[v] - loads[u]
        return None

    def _idle(self, loads: tuple) -> bool:
        # A flooding round is handed the loads the call started on, whose
        # extremes are light and heavy: busy.
        if self._left > self._main_budget:
            return False
        # Both predicates are monotone in w, so the extremes decide.
        return not (self._is_light(min(loads)) and self._is_heavy(max(loads)))


class GaplessGapReduce(ProposalMemo):
    name = "gaplessGapReduce"

    def __init__(self, psi: int, c1: Fraction = DEFAULT_C1):
        if psi < 0:
            raise ValueError("target spread must be non-negative")
        super().__init__(c1)
        self.psi = psi

    def start(self, loads: tuple, mode: str, rng: Random, *, k, tau) -> None:
        super().start(loads, mode, rng, k=k, tau=tau)
        self._plan(gapless_round_budget(self.n, self.total, self.c1, self.k))
        self._max_of = self._max = None

    def play_round(self, graph: Graph, loads: tuple) -> RoundOutcome:
        self._left -= 1
        return self._round(graph, loads)

    def _propose(self, u: int, graph: Graph, loads: tuple):
        if loads is not self._max_of:
            self._max_of, self._max = loads, max(loads)
        if 2 * (self._max - loads[u]) >= self.psi and (row := graph.row(u)):
            v = heaviest_neighbor(u, row, loads)
            if 2 * (loads[v] - loads[u]) >= self.psi:
                return v, loads[v] - loads[u]
        return None

    def _idle(self, loads: tuple) -> bool:
        # Either no pair is psi/2 apart (nothing proposes) or every gap is
        # at most 1 (pairs may connect but floor/ceil moves nothing), and
        # loads are frozen either way.
        spread = max(loads) - min(loads)
        return 2 * spread < self.psi or spread < 2
