"""The randomized max-gap baseline: coin-flip roles, one partner per node.

Every node flips a fair coin to send or receive.  A sender proposes to the
neighbor with the largest absolute load gap (lowest id on ties); a receiver
with proposals accepts the largest-gap proposer (lowest id on ties).  A
proposal to another sender dies, so each node exchanges with at most one
partner: the algorithm is matching-based.  A sender offered to has the
proposer as a neighbor, so it made an offer itself: the rule is
`accept_offers`' own, and the round ends in `offer_round` (see base.py).
Integral transfers give the lighter node the floor.  Continuous rounds run
the same integral kernel on loads one bit finer (doubled numerators), where
the floor never bites: the pair averages exactly and the round raises the
loads' exponent by one.

A round is `offer_round` on the offers `coin_offers` reads off its coin,
a pure function of (graph, loads, coin).  While the base graph (the one a
smoothed graph was flipped from) and the committed tuple stay the same
objects, a round on the unflipped base that moved no load is kept by its
coin, and a later such round that draws the same coin (still drawn every
round) gets that very record back.  The table empties when either object
changes and holds at most `REPLAY_LIMIT` records, every coin at n <= 10.
"""

from __future__ import annotations

from random import Random

from ..graphs import Graph
from ..loads import MODE_INTEGRAL
from ..records import KIND_MATCHING, RoundOutcome
from .base import BalancingAlgorithm, heaviest_gap_neighbor, offer_round

REPLAY_LIMIT = 1024


class RandMaxNeighbor(BalancingAlgorithm):
    name = "randMaxNeighbor"
    kind = KIND_MATCHING
    modes = ("integral", "continuous")

    def start(self, loads: tuple, mode: str, rng: Random, *, k, tau) -> None:
        super().start(loads, mode, rng, k=k, tau=tau)
        self._replay_base, self._replay_loads, self._replay = None, None, {}

    def play_round(self, graph: Graph, loads: tuple) -> RoundOutcome:
        coin = self.rng.getrandbits(graph.n)
        # The key is a base graph, so a graph that is the key has no flips.
        replayable = graph is self._replay_base and loads is self._replay_loads
        if replayable:
            if (outcome := self._replay.get(coin)) is not None:
                return outcome
        else:
            base = graph if graph.base is None else graph.base
            if base is not self._replay_base or loads is not self._replay_loads:
                self._replay_base, self._replay_loads = base, loads
                self._replay.clear()
                replayable = graph is base

        shift = 0 if self.mode == MODE_INTEGRAL else 1
        outcome = offer_round(coin_offers(graph, loads, coin), loads, shift)
        # Only an unshifted split hands back `loads` itself.
        if outcome.new_loads is loads and replayable and len(self._replay) < REPLAY_LIMIT:
            self._replay[coin] = outcome
        return outcome


def coin_offers(graph: Graph, loads: tuple, coin: int) -> dict:
    """The offers of the senders, the set bits of `coin`: each sender with
    a neighbor offers to its `heaviest_gap_neighbor`, in ascending id."""
    offers = {}
    rows = graph.adj
    senders = coin
    while senders:
        bit = senders & -senders
        senders ^= bit
        u = bit.bit_length() - 1
        if rows[u]:
            offers[u] = heaviest_gap_neighbor(u, rows[u], loads)
    return offers
