"""Round-level record types shared by the algorithms, metrics and engine.

Amounts are numerators over the trial's shared load exponent (see loads.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph

# Two-sided rounds let a node send and answer once each; matching rounds pair it once.
KIND_TWO_SIDED = "two-sided"
KIND_MATCHING = "matching"


@dataclass(slots=True)
class RoundOutcome:
    """What one algorithm round did: the loads it left and who exchanged.

    `matching` lists the connected pairs as (u, v, pre_round_gap), gaps in
    the scale of the loads the round was given; for the two-sided
    deterministic algorithm the pairs are ordered (sender half of u,
    answerer half of v) and both directions may appear.  `new_loads` are
    `shift` bits finer than the loads the round was given: a new tuple, or
    the given tuple itself when the round moved no load.
    """

    new_loads: tuple
    matching: list[tuple[int, int, object]] = field(default_factory=list)
    shift: int = 0


@dataclass(slots=True)
class RoundTrace:
    """What the invariant checks see of one simulated round.

    Matching gaps are at the round's starting exponent, `d_r` one bit finer.
    """

    round_index: int
    graph: Graph
    matching: list[tuple[int, int, object]]
    d_r: object
