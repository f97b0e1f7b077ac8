"""Round-level record types shared by the algorithms, metrics and engine.

Amounts are numerators over the trial's shared load exponent (see loads.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .graphs import Graph

# Two-sided rounds let a node send and answer once each; matching rounds pair it once.
KIND_TWO_SIDED = "two-sided"
KIND_MATCHING = "matching"


@dataclass(slots=True)
class RoundOutcome:
    """What one algorithm round did: who proposed, who accepted, what moved.

    `matching` lists the connected pairs as (u, v, pre_round_gap), gaps in
    the scale of the loads the round was given; for the two-sided
    deterministic algorithm the pairs are ordered (sender half of u,
    answerer half of v) and both directions may appear.  `new_loads` and
    `transfers` (aligned with `matching`: the amount shifted across each
    pair) are `shift` bits finer than the loads the round was given.
    """

    new_loads: list
    proposals: dict[int, int] = field(default_factory=dict)
    acceptances: list[tuple[int, int]] = field(default_factory=list)
    matching: list[tuple[int, int, object]] = field(default_factory=list)
    transfers: list = field(default_factory=list)
    shift: int = 0


@dataclass(slots=True)
class RoundTrace:
    """Per-round summary retained for CSV output and invariant checking.

    Matching gaps are at the round's starting exponent `exp`, `d_r` one bit
    finer; `max_gap` and `phi` describe the committed loads, at `after_exp`.
    """

    round_index: int
    graph: Graph
    matching: list[tuple[int, int, object]]
    max_gap: object
    d_r: object
    phi: Optional[object] = None
    exp: int = 0
    after_exp: int = 0

    @property
    def connections(self) -> int:
        return len(self.matching)
