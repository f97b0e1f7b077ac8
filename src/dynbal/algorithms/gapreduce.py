"""One gap-reduction call: flood the extremes, then pair light with heavy.

The call opens with n flooding rounds in which every node forwards the
smallest and largest load it has heard of; on a graph that is connected
every round this reaches everyone.  With the frozen extremes m and M and
the spread psi = M - m, a node is light when w < m + psi/4 and heavy when
w > M - psi/4.  For the main rounds each light node proposes to its
heaviest neighbor provided that neighbor is heavy; each heavy node accepts
its lightest proposer; the pair splits its total with the floor going to
the light node.  Thresholds never move within a call, so once either side
is exhausted the remaining rounds provably transfer nothing and can be
fast-forwarded.

The gapless variant skips flooding entirely: it is handed a target spread
psi and every node proposes to its heaviest neighbor whenever that
neighbor is at least psi/2 ahead (inclusive).  Nodes that proposed do not
also accept, which keeps the variant matching-based.  A node proposes
exactly when some edge puts it at least psi/2 below the other end, so a
round finds the proposers in one pass over the edges and asks only them,
in ascending id order, for their heaviest neighbor.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, e, log
from random import Random

from ..dyadic import integral_half_sum
from ..graphs import Graph
from ..records import RoundOutcome
from ..smoothing import DEFAULT_C1
from .base import KIND_MATCHING, BalancingAlgorithm, heaviest_neighbor


def _guarded_log_argument(n: int, total: int) -> float:
    """n * ln(total), floored at e so the outer log stays positive."""
    arg = n * log(total) if total > 1 else 0.0
    return max(arg, e)


def gap_reduce_round_budget(n: int, total: int, c1: Fraction, k: Fraction) -> int:
    """Main-loop rounds for one call: ceil(5 n^2 ln(n ln T) / (c1 k))."""
    if k <= 0:
        raise ValueError("gap reduction needs a positive smoothing amount")
    rounds = 5 * n * n * log(_guarded_log_argument(n, total)) / (float(c1) * float(k))
    return max(0, ceil(rounds))


def gapless_round_budget(n: int, total: int, c1: Fraction, k: Fraction) -> int:
    """Per-call rounds for the gapless variant: the plain budget times ln n."""
    if k <= 0:
        raise ValueError("gap reduction needs a positive smoothing amount")
    rounds = (
        2 * n * n * log(_guarded_log_argument(n, total)) * log(n)
        / (float(c1) * float(k))
    )
    return max(0, ceil(rounds))


def flood_min_max_round(tables: list[tuple[int, int]], graph: Graph) -> list[tuple[int, int]]:
    """Each node absorbs the (min, max) knowledge of itself and its neighbors."""
    adj = graph.adj
    out = []
    for u in range(graph.n):
        lo, hi = tables[u]
        for v in adj[u]:
            nlo, nhi = tables[v]
            if nlo < lo:
                lo = nlo
            if nhi > hi:
                hi = nhi
        out.append((lo, hi))
    return out


def accept_lightest(loads: list, proposals: dict[int, int], senders_accept: bool = True):
    """Each node with proposers accepts the lightest one (lowest id on ties)
    and the pair splits its total, the floor going to the light side.
    Without `senders_accept`, a node that proposed accepts nobody."""
    incoming: dict[int, list[int]] = {}
    for u, v in proposals.items():
        if senders_accept or v not in proposals:
            incoming.setdefault(v, []).append(u)

    new_loads = list(loads)
    matching = []
    for v in sorted(incoming):
        u = min(incoming[v], key=loads.__getitem__)
        matching.append((u, v, loads[v] - loads[u]))
        new_loads[u], new_loads[v] = integral_half_sum(loads[u], loads[v])
    return RoundOutcome(new_loads=new_loads, matching=matching)


class GapReduce(BalancingAlgorithm):
    name = "gapReduce"
    kind = KIND_MATCHING
    modes = ("integral",)

    def __init__(self, c1: Fraction = DEFAULT_C1):
        self.c1 = Fraction(c1)
        if self.c1 <= 0:
            raise ValueError("the hitting constant must be positive")

    def start(self, loads: list, mode: str, rng: Random, *, k, tau, n: int) -> None:
        super().start(loads, mode, rng, k=k, tau=tau, n=n)
        self.k = Fraction(k)
        total = sum(loads)
        self._main_budget = gap_reduce_round_budget(n, total, self.c1, self.k)
        # A spread below 2 cannot be narrowed by integral averaging: the
        # whole call is a no-op and is skipped outright.
        if not loads or max(loads) - min(loads) < 2:
            self._flood_left = self._main_left = 0
            return
        self._flood_left = n
        self._main_left = self._main_budget
        self.tables = [(w, w) for w in loads]
        self.low = None
        self.high = None
        self.psi = None

    def planned_rounds(self):
        return self.n + self._main_budget

    def is_done(self, loads: list) -> bool:
        return self._flood_left == 0 and self._main_left == 0

    def _is_light(self, w: int) -> bool:
        return 4 * w < 4 * self.low + self.psi

    def _is_heavy(self, w: int) -> bool:
        return 4 * w > 4 * self.high - self.psi

    def play_round(self, graph: Graph, loads: list) -> RoundOutcome:
        if self._flood_left > 0:
            self.tables = flood_min_max_round(self.tables, graph)
            self._flood_left -= 1
            if self._flood_left == 0:
                first = self.tables[0]
                if any(t != first for t in self.tables):
                    raise AssertionError("flooding did not converge on a connected graph")
                self.low, self.high = first
                self.psi = self.high - self.low
            return RoundOutcome(new_loads=list(loads))

        adj = graph.adj
        # _is_light and _is_heavy with the thresholds hoisted out of the loop.
        light_below = 4 * self.low + self.psi
        heavy_above = 4 * self.high - self.psi
        proposals: dict[int, int] = {}
        for u in range(graph.n):
            if adj[u] and 4 * loads[u] < light_below:
                v = heaviest_neighbor(u, adj[u], loads)
                if 4 * loads[v] > heavy_above:
                    proposals[u] = v

        self._main_left -= 1
        return accept_lightest(loads, proposals)

    def consume_idle_rounds(self, loads: list, budget_left: int) -> int:
        if self._flood_left > 0 or self._main_left == 0:
            return 0
        # Both predicates are monotone in w, so the extremes decide.
        if self._is_light(min(loads)) and self._is_heavy(max(loads)):
            return 0
        # With one side empty and thresholds frozen, no future graph can
        # produce a transfer; the rest of the call is provably idle.
        skip = min(self._main_left, budget_left)
        self._main_left -= skip
        return skip


class GaplessGapReduce(BalancingAlgorithm):
    name = "gaplessGapReduce"
    kind = KIND_MATCHING
    modes = ("integral",)

    def __init__(self, psi: int, c1: Fraction = DEFAULT_C1):
        if psi < 0:
            raise ValueError("target spread must be non-negative")
        self.psi = psi
        self.c1 = Fraction(c1)
        if self.c1 <= 0:
            raise ValueError("the hitting constant must be positive")

    def start(self, loads: list, mode: str, rng: Random, *, k, tau, n: int) -> None:
        super().start(loads, mode, rng, k=k, tau=tau, n=n)
        self.k = Fraction(k)
        total = sum(loads)
        self._budget = gapless_round_budget(n, total, self.c1, self.k)
        # psi < 2 asks for sub-unit averaging: vacuous on integers.
        self._left = 0 if self.psi < 2 else self._budget

    def planned_rounds(self):
        return self._budget

    def is_done(self, loads: list) -> bool:
        return self._left == 0

    def play_round(self, graph: Graph, loads: list) -> RoundOutcome:
        psi = self.psi
        # psi >= 2, so an edge at least psi/2 wide has one lower end.
        proposers = {
            u if loads[u] < loads[v] else v
            for u, v in graph.edges
            if 2 * abs(loads[u] - loads[v]) >= psi
        }
        adj = graph.adj
        proposals = {u: heaviest_neighbor(u, adj[u], loads) for u in sorted(proposers)}

        self._left -= 1
        return accept_lightest(loads, proposals, senders_accept=False)

    def consume_idle_rounds(self, loads: list, budget_left: int) -> int:
        if self._left == 0 or not loads:
            return 0
        spread = max(loads) - min(loads)
        if 2 * spread >= self.psi and spread >= 2:
            return 0
        # Either no pair is psi/2 apart (nothing proposes) or every gap is
        # at most 1 (pairs may connect but floor/ceil moves nothing), and
        # loads are frozen either way: the rest of the call is idle.
        skip = min(self._left, budget_left)
        self._left -= skip
        return skip
