"""The randomized max-gap baseline: coin-flip roles, one partner per node.

Every node flips a fair coin to send or receive.  A sender proposes to the
neighbor with the largest absolute load gap (lowest id on ties); a receiver
with proposals accepts the largest-gap proposer (lowest id on ties).  A
proposal to another sender dies, so each node exchanges with at most one
partner: the algorithm is matching-based.  Integral transfers give the
lighter node the floor.  Continuous rounds run the same integral kernel on
loads one bit finer (doubled numerators), where the floor never bites: the
pair averages exactly and the round raises the loads' exponent by one.

A sender's target and gap read only its row and the loads, so they are
remembered while the round's graph and the loads' committed tuple stay
(both by identity); a list is never remembered, as it could change in
place.  An integral round whose pairs are all within one unit moves
nothing and hands back its tuple, so the memo holds across it.
"""

from __future__ import annotations

from ..dyadic import integral_half_sum
from ..graphs import Graph
from ..loads import MODE_INTEGRAL
from ..records import RoundOutcome
from .base import KIND_MATCHING, BalancingAlgorithm, heaviest_gap_neighbor


class RandMaxNeighbor(BalancingAlgorithm):
    name = "randMaxNeighbor"
    kind = KIND_MATCHING
    modes = ("integral", "continuous")
    _memo_graph = _memo_loads = None  # the memo's key (see the module docstring)

    def play_round(self, graph: Graph, loads: tuple) -> RoundOutcome:
        coin = self.rng.getrandbits(graph.n)
        if graph is not self._memo_graph or loads is not self._memo_loads:
            self._memo_graph, self._memo = graph, {}
            self._memo_loads = loads if type(loads) is tuple else None
        memo, adj = self._memo, graph.adj

        # Senders are the set bits of the coin, walked in ascending id order,
        # so a strictly wider proposal is the only one that displaces.
        accepted: dict[int, tuple[int, object]] = {}
        shift = 0 if self.mode == MODE_INTEGRAL else 1
        moved = shift
        senders = coin
        while senders:
            bit = senders & -senders
            senders ^= bit
            u = bit.bit_length() - 1
            if u not in memo:
                memo[u] = heaviest_gap_neighbor(u, adj[u], loads)
            v, gap = memo[u]
            if v is not None and not (coin >> v) & 1:
                held = accepted.get(v)
                if held is None or gap > held[1]:
                    accepted[v] = u, gap
                    # A pair within one unit splits into the loads it had.
                    moved = moved or gap > 1

        matching = [(u, v, gap) for v, (u, gap) in sorted(accepted.items())]
        if not moved:
            return RoundOutcome(new_loads=loads, matching=matching)

        new_loads = [w << shift for w in loads] if shift else list(loads)
        for u, v, _ in matching:
            w_u, w_v = new_loads[u], new_loads[v]
            low, high = integral_half_sum(w_u, w_v)
            if w_u <= w_v:
                new_loads[u], new_loads[v] = low, high
            else:
                new_loads[u], new_loads[v] = high, low
        return RoundOutcome(new_loads=tuple(new_loads), matching=matching, shift=shift)
