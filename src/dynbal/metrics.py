"""Progress metrics and per-round invariant verdicts.

The potential function is the sum of |w(u) - w(v)| over all unordered node
pairs, computed here by a sorted prefix scan; the tests keep an independent
brute-force double loop as the oracle.  The metrics work on integer
numerators over one shared exponent, and the checks compare amounts of
different exponents by cross-shifting them: every verdict is exact, with
zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Optional, Sequence

from .dyadic import Dyadic
from .loads import MODE_INTEGRAL, LoadState, total_load
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


def potential(loads: Sequence) -> object:
    """Sum of pairwise absolute load differences, via one sort."""
    n = len(loads)
    return sum(map(mul, sorted(loads), range(1 - n, n, 2)))


def max_gap(loads: Sequence) -> object:
    """Largest pairwise load difference (0 for a single node)."""
    if len(loads) <= 1:
        return 0
    return max(loads) - min(loads)


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
    phi_before=None,
    phi_after=None,
    line_order: Optional[Sequence[int]] = None,
    initial_prefix: Optional[Sequence] = None,
    prefix_exp: int = 0,
) -> InvariantReport:
    """Evaluate the enabled invariants for one committed round.

    `phi_before`/`phi_after` may be passed in when the caller already
    computed them (at the exponents of `before` and `after`); otherwise
    they are derived here on demand.  The matching's gaps are at
    `before.exp` and `trace.d_r` one bit finer; `initial_prefix` is at
    `prefix_exp`.
    """
    report = InvariantReport(trace.round_index)
    checks, witnesses = report.checks, report.witnesses
    exp, after_exp = before.exp, after.exp

    def need_phi_before():
        nonlocal phi_before
        if phi_before is None:
            phi_before = potential(before.loads)
        return phi_before

    def need_phi_after():
        nonlocal phi_after
        if phi_after is None:
            phi_after = potential(after.loads)
        return phi_after

    for name in enabled:
        if name == CHECK_CONSERVATION:
            total_before = total_load(before.loads)
            total_after = total_load(after.loads)
            good = total_before << after_exp == total_after << exp
            if not good:
                witnesses[name] = {
                    "before": _text(total_before, exp),
                    "after": _text(total_after, after_exp),
                }

        elif name == CHECK_POTENTIAL_DROP:
            # phi_before - d_r / 2, two bits finer than the loads before.
            bound = (need_phi_before() << 2) - trace.d_r
            good = need_phi_after() << (exp + 2) <= bound << after_exp
            if not good:
                witnesses[name] = {
                    "phi_after": _text(phi_after, after_exp),
                    "allowed": _text(bound, exp + 2),
                }

        elif name == CHECK_COVERING_EDGE:
            good, witness = _covering_edge_ok(before, trace)
            if not good:
                witnesses[name] = witness

        elif name == CHECK_SHIFT_LOWER_BOUND:
            # 30 d_r >= max gap, with d_r one bit finer than the gap.
            gap = max_gap(before.loads)
            good = trace.d_r * 30 >= gap * 2
            if not good:
                witnesses[name] = {"d_r": _text(trace.d_r, exp + 1), "max_gap": _text(gap, exp)}

        elif name == CHECK_MATCHING_BUDGET:
            good, witness = _matching_budget_ok(trace.matching, algorithm_kind)
            if not good:
                witnesses[name] = witness

        elif name == CHECK_INTEGRALITY:
            good = after.mode != MODE_INTEGRAL or after_exp == 0
            if not good:
                witnesses[name] = {"exp": after_exp}
            elif after.mode == MODE_INTEGRAL:
                for i, w in enumerate(after.loads):
                    if not isinstance(w, int) or w < 0:
                        good = False
                        witnesses[name] = {"node": i, "load": repr(w)}
                        break

        elif name == CHECK_PREFIX_MONOTONE:
            if line_order is None or initial_prefix is None:
                raise ValueError("prefixMonotone needs the line order and baseline prefixes")
            witness = prefix_growth(line_order, before.loads, exp, initial_prefix, prefix_exp)
            good = witness is None
            if not good:
                witnesses[name] = witness

        elif name == CHECK_SPLIT_POTENTIAL:
            # Both halves of each node, one bit finer than the loads: the
            # split potential must be twice the whole one.
            halves = [w for w in before.loads for _ in (0, 1)]
            split = potential(halves)
            good = split == need_phi_before() * 4
            if not good:
                witnesses[name] = {
                    "split": _text(split, exp + 1),
                    "twice_whole": _text(phi_before * 2, exp),
                }

        else:
            raise ValueError(f"unknown invariant check {name!r}")

        checks[name] = good

    return report


def _text(num, exp: int) -> str:
    """Exact decimal text of num / 2**exp, for witnesses."""
    return Dyadic(num, exp).decimal_str()


def prefix_growth(order, loads, exp: int, baseline, baseline_exp: int) -> Optional[dict]:
    """Witness for the first prefix sum (loads read in `order`) above its
    baseline, or None."""
    for i, (now, base) in enumerate(zip(prefix_sums(order, loads), baseline)):
        if now << baseline_exp > base << exp:
            return {"prefix": i, "now": _text(now, exp), "baseline": _text(base, baseline_exp)}
    return None


def _covering_edge_ok(before: LoadState, trace: RoundTrace):
    """Every positive-gap edge must have a connected pair with at least its
    gap touching a node within three hops of the edge.

    reach[x] starts as the largest connected-pair gap at x; three rounds of
    neighbour-max propagation make it the largest such gap within three
    hops of x, so edge (u, v) is covered iff max(reach[u], reach[v]) >= gap.
    """
    loads = before.loads
    graph = trace.graph
    reach = [0] * graph.n
    for a, b, pair_gap in trace.matching:
        if pair_gap > reach[a]:
            reach[a] = pair_gap
        if pair_gap > reach[b]:
            reach[b] = pair_gap
    for _ in range(3):
        spread = list(reach)
        for u, v in graph.edges:
            if reach[v] > spread[u]:
                spread[u] = reach[v]
            if reach[u] > spread[v]:
                spread[v] = reach[u]
        reach = spread
    for u, v in graph.edges:
        gap = abs(loads[u] - loads[v])
        if gap > 0 and reach[u] < gap and reach[v] < gap:
            return False, {"edge": (u, v), "gap": _text(gap, before.exp)}
    return True, None


def _matching_budget_ok(matching, algorithm_kind: str):
    if algorithm_kind == KIND_TWO_SIDED:
        as_sender: dict[int, int] = {}
        as_answerer: dict[int, int] = {}
        for u, v, _ in matching:
            as_sender[u] = as_sender.get(u, 0) + 1
            as_answerer[v] = as_answerer.get(v, 0) + 1
            if as_sender[u] > 1 or as_answerer[v] > 1:
                return False, {"node": u if as_sender[u] > 1 else v}
        return True, None
    seen: set[int] = set()
    for u, v, _ in matching:
        if u in seen or v in seen:
            return False, {"node": u if u in seen else v}
        seen.add(u)
        seen.add(v)
    return True, None
