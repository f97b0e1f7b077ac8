"""The two-sided deterministic max-gap algorithm (continuous loads).

Each node v is split into a sender half v_s and an answerer half v_a, each
holding w(v)/2.  A round has two stages:

* interactive balancing: every node whose largest neighbor gap is strictly
  positive proposes from its sender half to that neighbor (lowest id on
  ties); every node with incoming proposals accepts the largest-gap one
  (again lowest id on ties) with its answerer half, and each accepted pair
  of halves averages exactly.
* internal balancing: each node's two halves re-equalise.

All amounts are integer numerators over a shared exponent.  Halving a load
is the same numerator one bit finer, and an averaging stage moves one bit
finer again, so a round raises the loads' exponent by two.

`play_round` computes both stages in one pass (tests/oracles.py spells
them out as its oracle).  The internal stage leaves both halves at w(v)/2,
so every round starts from halves at w; two bits finer each node holds 4w,
and an accepted proposal u -> v meets at w_u + w_v: u gains moved =
w_v - w_u, v loses it, and the pair's gap is |moved|.  Doubling the loads
changes no argmax and no tie, so proposals are chosen on the loads
directly.
"""

from __future__ import annotations

from ..graphs import Graph
from ..records import RoundOutcome
from .base import KIND_TWO_SIDED, BalancingAlgorithm, accept_offers, heaviest_gap_neighbor


class TwoSidedDeterministic(BalancingAlgorithm):
    name = "deterministic"
    kind = KIND_TWO_SIDED
    modes = ("continuous",)

    def play_round(self, graph: Graph, loads: tuple) -> RoundOutcome:
        offers = {
            u: offer
            for u, row in enumerate(graph.adj)
            if (offer := heaviest_gap_neighbor(u, row, loads))[1] > 0
        }
        matching = accept_offers(offers)
        new_loads = [w << 2 for w in loads]
        for u, v, _ in matching:
            moved = loads[v] - loads[u]
            new_loads[u] += moved
            new_loads[v] -= moved
        return RoundOutcome(new_loads=tuple(new_loads), matching=matching, shift=2)
