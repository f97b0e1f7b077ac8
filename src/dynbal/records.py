"""Round-level record types shared by the algorithms, metrics and engine.

Amounts are numerators over the trial's shared load exponent (see loads.py).
The engine derives three fields once, on a round record: `d_r`, when a
check or a trace row first reads it, and, for a round that moved no load,
its verdicts when checked and its trace row when written.  A round that
hands the record back reuses them, so the failure reports of replayed
rounds share read-only `checks` and `witnesses` dicts, and their trace
rows are the very `TraceRow`, which carries its own text once written.
Verdicts are keyed on the committed record and the line order, and on the
graph only when an enabled check reads it (`metrics.GRAPH_CHECKS`); a row
is keyed on the committed record and the verdict dict it carries.
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
    """What one algorithm round did: the loads it left and who exchanged.

    `matching` lists the connected pairs as (u, v, pre_round_gap), gaps in
    the scale of the loads the round was given; for the two-sided
    deterministic algorithm the pairs are ordered (sender half of u,
    answerer half of v) and both directions may appear; the adversary reads
    it as the last round's matching.  `new_loads` are `shift` bits finer
    than the loads the round was given: a new tuple, or the given tuple
    itself when the round moved no load.

    A record is never mutated after `play_round` returns, and nothing
    downstream mutates its lists: an algorithm may hand the very record
    back in a later round (see randomized.py and gapreduce.py).  The engine
    derives three fields on it, left out of equality and repr: the first
    time a check or a trace row reads it, `d_r`, the matching's gaps summed
    (see `metrics.twice_shifted_load`); on a checked round that moved no
    load, `verdicts`, the tuple `(state, graph, line_order, checks,
    witnesses, ok)`: the report's verdicts and the very objects they were
    taken on, which a round that reuses them must present again, by
    identity, the graph only when an enabled check reads it; on a written
    round that moved no load, `row`, the pair `(state, row)`: the
    `TraceRow` and the committed record it was built on, which a round
    that writes it again must present, by identity, with the row's own
    verdict dict (see engine.py).
    """

    new_loads: tuple
    matching: list[tuple[int, int, object]] = field(default_factory=list)
    shift: int = 0
    d_r: object = field(default=None, compare=False, repr=False)
    verdicts: Optional[tuple] = field(default=None, compare=False, repr=False)
    row: Optional[tuple] = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class RoundTrace:
    """What the invariant checks see of one simulated round.

    Matching gaps are at the round's starting exponent, `d_r` one bit finer.
    """

    round_index: int
    graph: Graph
    matching: list[tuple[int, int, object]]
    d_r: object


@dataclass(slots=True, eq=False)
class TraceRow:
    """One trace row as `io.TraceCsvWriter.round_row` renders it.

    Amounts are dyadic values, or int numerators: `phi` and `max_gap` over
    2**exp, `d_r` over 2**d_r_exp.  `checks` is the round's verdict dict
    (check name -> passed), None when no check ran.  `text` is the row's
    rendering after the round index, None until a writer renders it; it
    holds that writer's check columns, so a row belongs to one writer, and
    its fields, `checks` included, must not change once it is written.
    """

    phi: object
    max_gap: object
    d_r: object
    connections: int
    converged: bool
    checks: Optional[dict]
    exp: int
    d_r_exp: int
    text: Optional[str] = field(default=None, init=False)
