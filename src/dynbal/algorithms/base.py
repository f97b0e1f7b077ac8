"""Shared protocol for round-based balancing algorithms, and their round.

An algorithm is started once per trial with the initial loads and its own
random stream, then asked to play one round at a time against whatever
graph the engine presents.  It never sees the adversary's or the sampler's
randomness, and it observes loads only as they stood when the round began.
The loads it is given are the trial's committed tuple (see loads.py), so
an algorithm may key what it derives from them by the tuple's identity.
`start` is handed tau in the scale of those numerators (the config's tau
times 2**exp), and every algorithm plans its own round budget in
`planned_rounds()`, which the engine asks when a trial sets no
`roundBudget`; each budget formula sits beside its class.
Only gap reduction and its drivers can idle; they define `consume_idle_rounds`.

Every algorithm here plays one kind of round: each node offers its load to
at most one neighbor, each target accepts one offer, and each accepted pair
splits its load.  An offer is a `(target, key)` pair keyed by the gap.
`accept_offers` states the acceptance rule and `heaviest_gap_neighbor` the
max-gap proposal (lowest neighbor on ties); the matching-based rounds end
in `offer_round`, which accepts, splits and builds the record.  The
deterministic round, where every node proposes and answers, reads each
edge once instead and keeps both tie rules by walking in ascending id (see
deterministic.py).
"""

from __future__ import annotations

from math import log
from operator import itemgetter
from random import Random
from typing import Optional, Sequence

from ..dyadic import integral_half_sum
from ..graphs import Graph
from ..records import KIND_MATCHING, KIND_TWO_SIDED, RoundOutcome  # noqa: F401 (re-exported)


class BalancingAlgorithm:
    """An algorithm that can prove rounds idle defines `consume_idle_rounds(
    loads, budget_left)`, asked once per loop, which fast-forwards rounds
    and says how many: all of `budget_left` once none are left to play.
    Sound only if no graph could move load before the current phase ends;
    skipped rounds draw no randomness, sound as those draws are independent."""

    name = "abstract"
    kind = KIND_MATCHING
    modes: tuple[str, ...] = ()

    def start(self, loads: tuple, mode: str, rng: Random, *, k, tau) -> None:
        """Reset per-trial state; `tau` is in the scale of `loads`.
        Subclasses must call super().start()."""
        self.mode = mode
        self.rng = rng
        self.n, self.total, self.tau = len(loads), sum(loads), tau

    def play_round(self, graph: Graph, loads: tuple) -> RoundOutcome:
        """Play one round on integer numerators over a shared exponent.

        The outcome's new loads are a new tuple, or `loads` itself when no
        load moved; the engine then keeps everything it derived from them.
        The outcome says by how many bits its new loads are finer; integral
        algorithms never shift.
        """
        raise NotImplementedError

    def planned_rounds(self) -> int:
        """Total round budget implied by the algorithm's own schedule, asked
        after `start` when a trial sets no `roundBudget`.  Every algorithm
        defines it."""
        raise NotImplementedError


def ratio_log(ratio) -> float:
    """ln(ratio) for a positive Fraction, also past float range: the log of
    its numerator less that of its denominator when it has no float."""
    try:
        return log(ratio)
    except OverflowError:
        return log(ratio.numerator) - log(ratio.denominator)


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


def heaviest_neighbor(u: int, neighbors: Sequence[int], loads) -> Optional[int]:
    """Neighbor with the largest load, lowest id on ties."""
    best = None
    best_load = None
    for v in neighbors:
        w_v = loads[v]
        if best is None or w_v > best_load:
            best, best_load = v, w_v
    return best


_TARGET = itemgetter(1)


def accept_offers(offers: dict) -> list[tuple[int, int, object]]:
    """The matching `(u, v, key)` in ascending target order.  `offers` maps
    proposers to their `(target, key)`, in any order; an offer to a node
    that made an offer itself dies, and each other target v takes the
    highest key, the lowest proposer u on ties."""
    accepted: dict[int, tuple[int, int, object]] = {}
    for u, (v, key) in offers.items():
        if v in offers:
            continue
        held = accepted.get(v)
        if held is None or key > held[2] or key == held[2] and u < held[0]:
            accepted[v] = u, v, key
    return sorted(accepted.values(), key=_TARGET)


def offer_round(offers: dict, loads: tuple, shift: int = 0) -> RoundOutcome:
    """The round these offers play: `accept_offers`' matching, split on
    loads `shift` bits finer by `split_pairs`."""
    matching = accept_offers(offers)
    new_loads = split_pairs(loads, matching, shift)
    return RoundOutcome(new_loads=new_loads, matching=matching, shift=shift)


def split_pairs(loads, matching, shift: int = 0):
    """A new tuple in which each pair of `accept_offers`' matching, keyed by
    its gap, splits its total on loads `shift` bits finer, the lighter side
    taking the floor; `loads` itself when nothing can move."""
    if not shift:
        for _, _, gap in matching:
            if gap > 1:
                break
        else:
            return loads
    new_loads = [w << shift for w in loads] if shift else list(loads)
    for u, v, _ in matching:
        w_u, w_v = new_loads[u], new_loads[v]
        low, high = integral_half_sum(w_u, w_v)
        new_loads[u], new_loads[v] = (low, high) if w_u <= w_v else (high, low)
    return tuple(new_loads)
