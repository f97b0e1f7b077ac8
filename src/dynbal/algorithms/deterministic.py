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
and an accepted proposal u -> v meets at w_u + w_v: the pair's gap
|w_v - w_u| moves from the heavier to the lighter.  Doubling the loads
changes no argmax and no tie, so proposals are chosen on the loads
directly.

The pass reads each edge once.  The rows of `graph.adj` are sorted, so
walking the rows in ascending order, and in each row only the upper
neighbours v > u, hands every node its candidates in ascending id: its
lower neighbours from the earlier rows, then its upper ones from its own
row.  A candidate displaces the held one only on a strictly wider gap, so
the lowest id keeps a tie, as in `heaviest_gap_neighbor`.  A node's
proposal is settled when its own row ends, so proposals reach acceptance in
ascending proposer id, and each target keeps one slot that only a strictly
wider gap takes over: the lowest proposer keeps a tie, as in
`accept_offers`.  The matching is read off the slots in ascending target
order, the order `accept_offers` sorts into, so loads and matching are
those of the two-stage oracle, which still asks `heaviest_gap_neighbor`
once per node.

The planned budget is `deterministic_round_budget` on the numerators and
tau in their scale: n T / tau is the same ratio in any scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from ..graphs import Graph
from ..records import RoundOutcome
from .base import KIND_TWO_SIDED, BalancingAlgorithm, ratio_log


def deterministic_round_budget(n: int, total, tau) -> int:
    """Budget ceil(60 * min(n^2 ln(n T / tau), n T / tau)), for an int or
    Fraction total and tau.

    The additive arm is evaluated in exact rational arithmetic; the
    logarithmic arm in floats, which is safe because its ceil is never
    within one of the true value for the magnitudes involved.
    """
    total_fr, tau_fr = Fraction(total), Fraction(tau)
    if total_fr <= 0:
        return 0
    if tau_fr <= 0:
        raise ValueError("the budget formula needs tau > 0")
    ratio = Fraction(n) * total_fr / tau_fr
    if ratio <= 1:
        return 0
    additive = 60 * ratio
    multiplicative = 60 * n * n * ratio_log(ratio)
    if additive <= multiplicative:
        return -(-additive.numerator // additive.denominator)
    return ceil(multiplicative)


class TwoSidedDeterministic(BalancingAlgorithm):
    name = "deterministic"
    kind = KIND_TWO_SIDED
    modes = ("continuous",)

    def planned_rounds(self) -> int:
        return deterministic_round_budget(self.n, self.total, self.tau)

    def play_round(self, graph: Graph, loads: tuple) -> RoundOutcome:
        n = len(loads)
        # Each node's widest gap so far and the neighbour across it; each
        # target's accepted gap and pair.  A gap of 0 holds nothing.
        best = [0] * n
        best_at = [0] * n
        taken = [0] * n
        accepted = [None] * n
        # zip reads best[u] and best_at[u] as row u starts, when every lower
        # neighbour has already offered its gap.
        for u, row, w_u, gap_u, target in zip(range(n), graph.adj, loads, best, best_at):
            for v in row:
                if v > u:
                    gap = abs(w_u - loads[v])
                    if gap > gap_u:
                        gap_u = gap
                        target = v
                    if gap > best[v]:
                        best[v] = gap
                        best_at[v] = u
            if gap_u and gap_u > taken[target]:
                taken[target] = gap_u
                accepted[target] = u, target, gap_u
        matching = list(filter(None, accepted))
        new_loads = [w << 2 for w in loads]
        for u, v, gap in matching:
            if loads[u] < loads[v]:
                new_loads[u] += gap
                new_loads[v] -= gap
            else:
                new_loads[u] -= gap
                new_loads[v] += gap
        return RoundOutcome(new_loads=tuple(new_loads), matching=matching, shift=2)
