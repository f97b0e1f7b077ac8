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

    def play_round(self, graph: Graph, loads: list) -> RoundOutcome:
        n = graph.n
        adj = graph.adj
        coin = self.rng.getrandbits(n)

        proposals: dict[int, int] = {}
        for u in range(n):
            if (coin >> u) & 1 and adj[u]:
                target, _ = heaviest_gap_neighbor(u, adj[u], loads)
                proposals[u] = target

        incoming: dict[int, list[int]] = {}
        for u, v in proposals.items():
            if not (coin >> v) & 1:
                incoming.setdefault(v, []).append(u)

        shift = 0 if self.mode == MODE_INTEGRAL else 1
        new_loads = [w << shift for w in loads] if shift else list(loads)
        matching = []
        transfers = []
        acceptances = []
        for v in sorted(incoming):
            best_u = widest_proposer(incoming[v], v, loads)
            acceptances.append((best_u, v))
            matching.append((best_u, v, abs(loads[best_u] - loads[v])))
            w_u, w_v = new_loads[best_u], new_loads[v]
            low, high = integral_half_sum(w_u, w_v)
            if w_u <= w_v:
                new_loads[best_u], new_loads[v] = low, high
            else:
                new_loads[best_u], new_loads[v] = high, low
            transfers.append((best_u, v, abs(new_loads[best_u] - w_u)))

        return RoundOutcome(
            new_loads=new_loads,
            proposals=proposals,
            acceptances=acceptances,
            matching=matching,
            transfers=transfers,
            shift=shift,
        )
