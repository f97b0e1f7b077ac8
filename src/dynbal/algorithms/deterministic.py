"""The two-sided deterministic max-gap algorithm (continuous loads).

Each node v is split into a sender half v_s and an answerer half v_a, each
holding w(v)/2.  A round has two stages:

* interactive balancing: every node whose largest neighbor gap is strictly
  positive proposes from its sender half to that neighbor (lowest id on
  ties); every node with incoming proposals accepts the largest-gap one
  (again lowest id on ties) with its answerer half, and each accepted pair
  of halves averages exactly.
* internal balancing: each node's two halves re-equalise.

Because the internal stage leaves both halves at w(v)/2, consecutive
rounds can re-derive the split from the real loads; the stages are still
exposed separately for direct testing.

All amounts are integer numerators over a shared exponent.  Halving a load
is the same numerator one bit finer, and an averaging stage moves one bit
finer again, so a round raises the loads' exponent by two.
"""

from __future__ import annotations

from ..graphs import Graph
from ..records import RoundOutcome
from .base import KIND_TWO_SIDED, BalancingAlgorithm, heaviest_gap_neighbor, widest_proposer

DetState = list  # (sender_half, answerer_half) numerator pairs, one exponent


def split_evenly(loads) -> DetState:
    """Fresh half-pairs one bit finer than `loads`: both halves hold w(v)/2."""
    return [(w, w) for w in loads]


def internal_round(state: DetState) -> DetState:
    """Each node's halves meet at their average, one bit finer than `state`."""
    return [(s + a, s + a) for s, a in state]


def interactive_round(state: DetState, graph: Graph):
    """One interactive stage; returns (new_state, outcome).

    Proposal targets are chosen by real (whole-node) load gaps, and the
    matching records those real gaps, in the scale of the halves.
    Transfers average the sender half of the proposer with the answerer
    half of the acceptor; each half joins at most one connection, so a node
    can exchange with up to two neighbors.  The new state, the outcome's
    loads and its transfers are one bit finer than `state`.
    """
    n = graph.n
    adj = graph.adj
    real = [s + a for s, a in state]

    proposals: dict[int, int] = {}
    for u in range(n):
        target, gap = heaviest_gap_neighbor(u, adj[u], real)
        if target is not None and gap > 0:
            proposals[u] = target

    incoming: dict[int, list[int]] = {}
    for u, v in proposals.items():
        incoming.setdefault(v, []).append(u)

    acceptances = [(widest_proposer(incoming[v], v, real), v) for v in sorted(incoming)]

    senders = [s << 1 for s, _ in state]
    answerers = [a << 1 for _, a in state]
    matching: list[tuple[int, int, int]] = []
    transfers: list[tuple[int, int, int]] = []
    for u, v in acceptances:
        # Each half joins at most one connection, so both are still unchanged.
        meet = state[u][0] + state[v][1]
        transfers.append((u, v, abs(meet - senders[u])))
        senders[u] = meet
        answerers[v] = meet
        matching.append((u, v, abs(real[u] - real[v])))

    new_state = list(zip(senders, answerers))
    outcome = RoundOutcome(
        new_loads=[s + a for s, a in new_state],
        proposals=proposals,
        acceptances=acceptances,
        matching=matching,
        transfers=transfers,
        shift=1,
    )
    return new_state, outcome


class TwoSidedDeterministic(BalancingAlgorithm):
    name = "deterministic"
    kind = KIND_TWO_SIDED
    modes = ("continuous",)

    def play_round(self, graph: Graph, loads: list) -> RoundOutcome:
        _, outcome = interactive_round(split_evenly(loads), graph)
        # The internal stage happens implicitly: the next round re-splits
        # each node's total evenly, which is exactly the halves averaging.
        # The halves' real gaps are doubled: report them in the loads' scale.
        outcome.matching = [(u, v, gap >> 1) for u, v, gap in outcome.matching]
        outcome.shift = 2
        return outcome
