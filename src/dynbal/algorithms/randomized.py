"""The randomized max-gap baseline: coin-flip roles, one partner per node.

Every node flips a fair coin to send or receive.  A sender proposes to the
neighbor with the largest absolute load gap (lowest id on ties); a receiver
with proposals accepts the largest-gap proposer (lowest id on ties).  A
proposal to another sender dies, so each node exchanges with at most one
partner: the algorithm is matching-based.  Integral transfers give the
lighter node the floor.  Continuous rounds run the same integral kernel on
loads one bit finer (doubled numerators), where the floor never bites: the
pair averages exactly and the round raises the loads' exponent by one.

A sender is asked for its proposal the first time its coin says so while
the key of the shared proposal memo holds (see base.py).

A round is a function of its coin, its graph and its loads.  So while the
memo's key holds on a graph with no flips, a round that moved no load is
kept by its coin, and a later round that draws the same coin gets that
very record back (the coin is still drawn every round).  Nothing is kept
from a list or a flipped graph; the table empties with the memo's key
and holds at most `REPLAY_LIMIT` records, every coin at n <= 10.
"""

from __future__ import annotations

from ..graphs import Graph
from ..loads import MODE_INTEGRAL
from ..records import RoundOutcome
from .base import KIND_MATCHING, ProposalMemo, accept_offers, heaviest_gap_neighbor, split_pairs

REPLAY_LIMIT = 1024


class RandMaxNeighbor(ProposalMemo):
    name = "randMaxNeighbor"
    kind = KIND_MATCHING
    modes = ("integral", "continuous")

    def play_round(self, graph: Graph, loads: tuple) -> RoundOutcome:
        coin = self.rng.getrandbits(graph.n)
        if graph is self._memo_base and loads is self._memo_loads:
            outcome = self._replay.get(coin)
            if outcome is not None:
                return outcome
        matching = accept_offers(self._offers(graph, loads, coin), coin)
        shift = 0 if self.mode == MODE_INTEGRAL else 1
        new_loads = split_pairs(loads, matching, shift)
        outcome = RoundOutcome(new_loads=new_loads, matching=matching, shift=shift)
        # Only an unshifted split hands back `loads` itself.
        if (
            new_loads is loads
            and graph is self._memo_base
            and loads is self._memo_loads
            and len(self._replay) < REPLAY_LIMIT
        ):
            self._replay[coin] = outcome
        return outcome

    def _propose(self, u: int, row, loads: tuple):
        return heaviest_gap_neighbor(u, row, loads) if row else None
