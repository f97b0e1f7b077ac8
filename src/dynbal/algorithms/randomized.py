"""The randomized max-gap baseline: coin-flip roles, one partner per node.

Every node flips a fair coin to send or receive.  A sender proposes to the
neighbor with the largest absolute load gap (lowest id on ties); a receiver
with proposals accepts the largest-gap proposer (lowest id on ties).  A
proposal to another sender dies, so each node exchanges with at most one
partner: the algorithm is matching-based.  Integral transfers give the
lighter node the floor.  Continuous rounds run the same integral kernel on
loads one bit finer (doubled numerators), where the floor never bites: the
pair averages exactly and the round raises the loads' exponent by one.
"""

from __future__ import annotations

from ..dyadic import integral_half_sum
from ..graphs import Graph
from ..loads import MODE_INTEGRAL
from ..records import RoundOutcome
from .base import KIND_MATCHING, BalancingAlgorithm, heaviest_gap_neighbor, widest_proposer


class RandMaxNeighbor(BalancingAlgorithm):
    name = "randMaxNeighbor"
    kind = KIND_MATCHING
    modes = ("integral", "continuous")

    def play_round(self, graph: Graph, loads: tuple) -> RoundOutcome:
        n = graph.n
        adj = graph.adj
        coin = self.rng.getrandbits(n)

        # Senders are the set bits of the coin, walked in ascending id order.
        incoming: dict[int, list[int]] = {}
        senders = coin
        while senders:
            bit = senders & -senders
            senders ^= bit
            u = bit.bit_length() - 1
            if adj[u]:
                target, _ = heaviest_gap_neighbor(u, adj[u], loads)
                if not (coin >> target) & 1:
                    incoming.setdefault(target, []).append(u)

        shift = 0 if self.mode == MODE_INTEGRAL else 1
        new_loads = [w << shift for w in loads] if shift else list(loads)
        matching = []
        moved = shift
        for v in sorted(incoming):
            u = widest_proposer(incoming[v], v, loads)
            matching.append((u, v, abs(loads[u] - loads[v])))
            w_u, w_v = new_loads[u], new_loads[v]
            low, high = integral_half_sum(w_u, w_v)
            if w_u <= w_v:
                new_loads[u], new_loads[v] = low, high
            else:
                new_loads[u], new_loads[v] = high, low
            # A pair within one unit splits into the loads it had.
            moved = moved or new_loads[u] != w_u

        return RoundOutcome(
            new_loads=tuple(new_loads) if moved else loads, matching=matching, shift=shift
        )
