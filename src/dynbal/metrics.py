"""Progress metrics and per-round invariant verdicts.

The potential function is the sum of |w(u) - w(v)| over all unordered node
pairs, computed here by a sorted prefix scan; the tests keep an independent
brute-force double loop as the oracle.  The metrics work on integer
numerators over one shared exponent, and the checks compare amounts of
different exponents by cross-shifting them: every verdict is exact, with
zero tolerance.  `check_round` looks each enabled check up in one table of
kernels, `_KERNELS`; a kernel returns its check's witness, or None.  A
record's potential, max gap (read through `state_potential`, `state_gap`)
and integrality verdict are kept on the record, so each is derived once per
committed vector (see loads.py).  A round that moved no load (the same
record before and after) passes conservation by identity.  A round that
hands back a record already judged on the same committed record and line
order, and the same graph object when an enabled check is one of
`GRAPH_CHECKS`, is not checked again (see engine.py): its trace row
reads the first verdict dict, and a report of a failing one shares the
first one's `checks` and `witnesses` dicts, so no reader may mutate a
report's dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Optional, Sequence

from .dyadic import decimal_text as _text  # witnesses render num / 2**exp
from .loads import MODE_INTEGRAL, UNJUDGED, LoadState, total_load
from .records import KIND_MATCHING, KIND_TWO_SIDED, RoundTrace  # noqa: F401 (re-exported)

# External names for the invariant checks, as they appear in scenario
# configs and CSV columns.
CHECK_CONSERVATION = "conservation"
CHECK_POTENTIAL_DROP = "potentialDrop"
CHECK_COVERING_EDGE = "coveringEdge"
CHECK_SHIFT_LOWER_BOUND = "shiftLowerBound"
CHECK_MATCHING_BUDGET = "matchingBudget"
CHECK_INTEGRALITY = "integrality"
CHECK_PREFIX_MONOTONE = "prefixMonotone"
CHECK_SPLIT_POTENTIAL = "splitPotential"

ALL_CHECKS = (
    CHECK_CONSERVATION,
    CHECK_POTENTIAL_DROP,
    CHECK_COVERING_EDGE,
    CHECK_SHIFT_LOWER_BOUND,
    CHECK_MATCHING_BUDGET,
    CHECK_INTEGRALITY,
    CHECK_PREFIX_MONOTONE,
    CHECK_SPLIT_POTENTIAL,
)

# Checks that only make sense for the two-sided deterministic algorithm.
TWO_SIDED_ONLY_CHECKS = (
    CHECK_POTENTIAL_DROP,
    CHECK_COVERING_EDGE,
    CHECK_SHIFT_LOWER_BOUND,
    CHECK_SPLIT_POTENTIAL,
)

# Checks whose kernels read the round's graph (`trace.graph`); every other
# verdict is a function of the records, the matching and the line order.
GRAPH_CHECKS = frozenset({CHECK_COVERING_EDGE})


def potential(loads: Sequence) -> object:
    """Sum of pairwise absolute load differences, via one sort."""
    n = len(loads)
    return sum(map(mul, sorted(loads), range(1 - n, n, 2)))


def max_gap(loads: Sequence) -> object:
    """Largest pairwise load difference (0 for a single node)."""
    if len(loads) <= 1:
        return 0
    return max(loads) - min(loads)


def state_potential(state: LoadState) -> object:
    """`potential` of a record's loads, kept on the record (see LoadState)."""
    phi = state.phi
    if phi is None:
        phi = state.phi = potential(state.loads)
    return phi


def state_gap(state: LoadState) -> object:
    """`max_gap` of a record's loads, kept on the record like its potential."""
    if state.gap is None:
        state.gap = max_gap(state.loads)
    return state.gap


def twice_shifted_load(matching: Iterable[tuple[int, int, object]]) -> object:
    """d_r, one bit finer than the matching's gaps: their plain sum.

    d_r is half the summed pre-round gaps over the connected pairs; in the
    continuous two-sided round it equals twice the total load that actually
    moved, which is why the potential must drop by at least half of it.
    """
    return sum(gap for _, _, gap in matching)


def prefix_sums(order: Sequence[int], loads: Sequence) -> list:
    """Running totals of loads read in positional order; starts at 0."""
    acc = 0
    out = [0]
    for node in order:
        acc = acc + loads[node]
        out.append(acc)
    return out


# ----------------------------------------------------------------------
# invariant checking
# ----------------------------------------------------------------------


@dataclass(slots=True)
class InvariantReport:
    """Named verdicts for one round; a witness explains each failure."""

    round_index: int
    checks: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failed(self) -> list[str]:
        return [name for name, good in self.checks.items() if not good]


def check_round(
    before: LoadState,
    after: LoadState,
    trace: RoundTrace,
    *,
    algorithm_kind: str,
    enabled: Sequence[str],
    line_order: Optional[Sequence[int]] = None,
    initial_prefix: Optional[Sequence] = None,
) -> InvariantReport:
    """Evaluate the enabled invariants for one committed round.

    `before` and `after` are the records committed before and after the
    round, the same record when it moved no load; what the kernels derive
    from them is kept on them.  The matching's gaps are at `before.exp` and
    `trace.d_r` one bit finer; `initial_prefix` is at exponent 0.
    """
    report = InvariantReport(trace.round_index)
    checks, witnesses = report.checks, report.witnesses
    for name in enabled:
        kernel = _KERNELS.get(name)
        if kernel is None:
            raise ValueError(f"unknown invariant check {name!r}")
        witness = kernel(before, after, trace, algorithm_kind, line_order, initial_prefix)
        checks[name] = witness is None
        if witness is not None:
            witnesses[name] = witness
    return report


# Each kernel takes check_round's arguments positionally, in its order (the
# trailing ones it does not read fall into *_), and returns its check's
# witness, or None when the check holds.


def _conservation(before, after, *_):
    if after is before:
        return None
    total_before, total_after = total_load(before.loads), total_load(after.loads)
    if total_before << after.exp == total_after << before.exp:
        return None
    return {"before": _text(total_before, before.exp), "after": _text(total_after, after.exp)}


def _potential_drop(before, after, trace, *_):
    # phi_before - d_r / 2, two bits finer than the loads before.
    exp, after_exp = before.exp, after.exp
    bound = (state_potential(before) << 2) - trace.d_r
    phi_after = state_potential(after)
    if phi_after << (exp + 2) <= bound << after_exp:
        return None
    return {"phi_after": _text(phi_after, after_exp), "allowed": _text(bound, exp + 2)}


def _covering_edge(before, after, trace, *_):
    """Every positive-gap edge must have a connected pair with at least its
    gap touching a node within three hops of the edge.

    reach[x] starts as the largest connected-pair gap at x.  Only when some
    edge is not covered at its own endpoints do three rounds of neighbour-max
    propagation widen it, once, to the largest such gap within three hops;
    reach only grows, so the verdict and the first uncovered edge stay put.
    """
    loads = before.loads
    edges = trace.graph.edges
    reach = [0] * trace.graph.n
    for a, b, pair_gap in trace.matching:
        if pair_gap > reach[a]:
            reach[a] = pair_gap
        if pair_gap > reach[b]:
            reach[b] = pair_gap
    widened = False
    for u, v in edges:
        # reach is never negative, so a gap above it is positive.
        gap = abs(loads[u] - loads[v])
        if reach[u] < gap and reach[v] < gap:
            if not widened:
                widened = True
                for _ in range(3):
                    spread = list(reach)
                    for x, y in edges:
                        if reach[y] > spread[x]:
                            spread[x] = reach[y]
                        if reach[x] > spread[y]:
                            spread[y] = reach[x]
                    reach = spread
                if reach[u] >= gap or reach[v] >= gap:
                    continue
            return {"edge": (u, v), "gap": _text(gap, before.exp)}
    return None


def _shift_lower_bound(before, after, trace, *_):
    # 30 d_r >= max gap, with d_r one bit finer than the gap.
    gap = state_gap(before)
    if trace.d_r * 30 >= gap * 2:
        return None
    return {"d_r": _text(trace.d_r, before.exp + 1), "max_gap": _text(gap, before.exp)}


def _matching_budget(before, after, trace, kind, *_):
    # A two-sided node sends once and answers once; a matching round pairs
    # a node once, so there its answerers are its senders.
    senders: set[int] = set()
    answerers = set() if kind == KIND_TWO_SIDED else senders
    for u, v, _ in trace.matching:
        if u in senders or v in answerers:
            return {"node": u if u in senders else v}
        senders.add(u)
        answerers.add(v)
    return None


def _integrality(before, after, *_):
    if after.mode != MODE_INTEGRAL:
        return None
    witness = after.integrality
    if witness is not UNJUDGED:
        return witness
    witness = None
    if after.exp:
        witness = {"exp": after.exp}
    else:
        for i, w in enumerate(after.loads):
            if not isinstance(w, int) or w < 0:
                witness = {"node": i, "load": repr(w)}
                break
    after.integrality = witness
    return witness


def _prefix_monotone(before, after, trace, kind, line_order, initial_prefix):
    if line_order is None or initial_prefix is None:
        raise ValueError("prefixMonotone needs the line order and baseline prefixes")
    return prefix_growth(line_order, before.loads, before.exp, initial_prefix)


def _split_potential(before, *_):
    # Both halves of each node, one bit finer than the loads: the split
    # potential must be twice the whole one.
    phi_before = state_potential(before)
    split = potential([w for w in before.loads for _ in (0, 1)])
    if split == phi_before * 4:
        return None
    return {"split": _text(split, before.exp + 1), "twice_whole": _text(phi_before * 2, before.exp)}


_KERNELS = {
    CHECK_CONSERVATION: _conservation,
    CHECK_POTENTIAL_DROP: _potential_drop,
    CHECK_COVERING_EDGE: _covering_edge,
    CHECK_SHIFT_LOWER_BOUND: _shift_lower_bound,
    CHECK_MATCHING_BUDGET: _matching_budget,
    CHECK_INTEGRALITY: _integrality,
    CHECK_PREFIX_MONOTONE: _prefix_monotone,
    CHECK_SPLIT_POTENTIAL: _split_potential,
}


def prefix_growth(order, loads, exp: int, baseline) -> Optional[dict]:
    """Witness for the first prefix sum (loads read in `order`) above its
    baseline (from `prefix_sums`, so prefix 0 is 0 on both sides), or None.
    Both are whole units, as in the integral construction the check belongs
    to; loads at another exponent are their own witness, as in integrality."""
    if exp:
        return {"exp": exp}
    now = 0
    i = 0
    for node in order:
        now += loads[node]
        i += 1
        if now > baseline[i]:
            return {"prefix": i, "now": _text(now, 0), "baseline": _text(baseline[i], 0)}
    return None
