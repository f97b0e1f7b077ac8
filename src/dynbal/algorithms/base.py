"""Shared protocol for round-based balancing algorithms.

An algorithm is started once per trial with the initial loads and its own
random stream, then asked to play one round at a time against whatever
graph the engine presents.  It never sees the adversary's or the sampler's
randomness, and it observes loads only as they stood when the round began.
"""

from __future__ import annotations

from random import Random
from typing import Optional, Sequence

from ..graphs import Graph
from ..records import KIND_MATCHING, KIND_TWO_SIDED, RoundOutcome  # noqa: F401 (re-exported)


class BalancingAlgorithm:
    name = "abstract"
    kind = KIND_MATCHING
    modes: tuple[str, ...] = ()

    def start(self, loads: list, mode: str, rng: Random, *, k, tau, n: int) -> None:
        """Reset per-trial state.  Subclasses must call super().start()."""
        self.mode = mode
        self.rng = rng
        self.n = n

    def play_round(self, graph: Graph, loads: list) -> RoundOutcome:
        """Play one round on integer numerators over a shared exponent.

        The outcome says by how many bits its new loads are finer; integral
        algorithms never shift.
        """
        raise NotImplementedError

    def is_done(self, loads: list) -> bool:
        """True when the algorithm has no further rounds to play."""
        return False

    def consume_idle_rounds(self, loads: list, budget_left: int) -> int:
        """Skip rounds that provably cannot move any load.

        Returns how many rounds were fast-forwarded.  Only safe when the
        algorithm can show that no future graph could trigger a transfer
        before its current phase ends; skipped rounds draw no randomness,
        which is sound because the skipped draws are independent of
        everything that follows.
        """
        return 0

    def planned_rounds(self) -> Optional[int]:
        """Total round budget implied by the algorithm's own schedule."""
        return None


def heaviest_gap_neighbor(u: int, neighbors: Sequence[int], loads) -> tuple[Optional[int], object]:
    """Neighbor maximising |w(v) - w(u)|, lowest id on ties."""
    w_u = loads[u]
    best = None
    best_gap = 0
    for v in neighbors:
        gap = abs(loads[v] - w_u)
        if best is None or gap > best_gap:
            best, best_gap = v, gap
    return best, best_gap


def widest_proposer(proposers: Sequence[int], v: int, loads) -> int:
    """Proposer maximising |w(u) - w(v)|; the first listed wins ties."""
    if len(proposers) == 1:
        return proposers[0]
    w_v = loads[v]
    return max(proposers, key=lambda u: abs(loads[u] - w_v))


def heaviest_neighbor(u: int, neighbors: Sequence[int], loads) -> Optional[int]:
    """Neighbor with the largest load, lowest id on ties."""
    best = None
    best_load = None
    for v in neighbors:
        w_v = loads[v]
        if best is None or w_v > best_load:
            best, best_load = v, w_v
    return best
