"""Reference implementations the tests hold the package's fast paths to.

* The two stages of the two-sided deterministic round, spelled out on
  (sender_half, answerer_half) numerator pairs: `TwoSidedDeterministic.
  play_round` fuses them into one pass and must give the same loads and
  matching.
* The randomized max-gap round as it asks every sender afresh and builds
  a new load list every round: `RandMaxNeighbor.play_round` remembers its
  senders' proposals and must give the same outcome and draws.
* A gap-reduction round's acceptance as each target choosing its lightest
  proposer: the calls accept the widest gap through the shared kernel and
  must give the same loads and matching.
* One flooding round of a gap-reduction call, each node taking the
  (min, max) of its own and its neighbors' tables: the call reads its
  thresholds off the loads it starts on, and on connected graphs n - 1 of
  these rounds must agree with them.
* The edit distance between two graphs on the same nodes, which bounds
  what the smoothing sampler may change.
* A random connected graph drawn one `rng.randrange` call at a time:
  `adversaries.random_connected_graph` batches and caches its draws and
  must give the same edges and leave the generator in the same state.
* `check_round` as an if/elif chain over the check names that derives
  every verdict afresh: the check kernels, and the verdicts a round
  record keeps, must give the same report.
"""

from __future__ import annotations

from dynbal.algorithms.base import heaviest_gap_neighbor
from dynbal.dyadic import Dyadic, integral_half_sum
from dynbal.graphs import Graph, is_connected
from dynbal.loads import MODE_INTEGRAL
from dynbal.metrics import (
    CHECK_CONSERVATION,
    CHECK_COVERING_EDGE,
    CHECK_INTEGRALITY,
    CHECK_MATCHING_BUDGET,
    CHECK_POTENTIAL_DROP,
    CHECK_PREFIX_MONOTONE,
    CHECK_SHIFT_LOWER_BOUND,
    CHECK_SPLIT_POTENTIAL,
    KIND_TWO_SIDED,
    InvariantReport,
    max_gap,
    potential,
    prefix_sums,
)
from dynbal.records import RoundOutcome

DetState = list  # (sender_half, answerer_half) numerator pairs, one exponent


def _widest_proposer(proposers, v: int, loads) -> int:
    """Proposer maximising |w(u) - w(v)|; the first listed wins ties."""
    w_v = loads[v]
    return max(proposers, key=lambda u: abs(loads[u] - w_v))


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
    can exchange with up to two neighbors.  The new state and the outcome's
    loads are one bit finer than `state`.
    """
    n = graph.n
    adj = graph.adj
    real = [s + a for s, a in state]

    incoming: dict[int, list[int]] = {}
    for u in range(n):
        target, gap = heaviest_gap_neighbor(u, adj[u], real)
        if target is not None and gap > 0:
            incoming.setdefault(target, []).append(u)

    senders = [s << 1 for s, _ in state]
    answerers = [a << 1 for _, a in state]
    matching: list[tuple[int, int, int]] = []
    for v in sorted(incoming):
        u = _widest_proposer(incoming[v], v, real)
        # Each half joins at most one connection, so both are still unchanged.
        meet = state[u][0] + state[v][1]
        senders[u] = meet
        answerers[v] = meet
        matching.append((u, v, abs(real[u] - real[v])))

    new_state = list(zip(senders, answerers))
    outcome = RoundOutcome(
        new_loads=[s + a for s, a in new_state], matching=matching, shift=1
    )
    return new_state, outcome


def rand_max_neighbor_round(rng, mode: str, graph: Graph, loads) -> RoundOutcome:
    """One randomized max-gap round that asks every sender for its
    heaviest-gap neighbor; the new loads are a new tuple unless no load
    moved, when they are `loads` itself."""
    n = graph.n
    adj = graph.adj
    coin = rng.getrandbits(n)

    # Senders are the set bits of the coin, walked in ascending id order.
    incoming: dict[int, list[int]] = {}
    senders = coin
    while senders:
        bit = senders & -senders
        senders ^= bit
        u = bit.bit_length() - 1
        if adj[u]:
            target, _ = heaviest_gap_neighbor(u, adj[u], loads)
            if not (coin >> target) & 1:
                incoming.setdefault(target, []).append(u)

    shift = 0 if mode == MODE_INTEGRAL else 1
    new_loads = [w << shift for w in loads] if shift else list(loads)
    matching = []
    moved = shift
    for v in sorted(incoming):
        u = _widest_proposer(incoming[v], v, loads)
        matching.append((u, v, abs(loads[u] - loads[v])))
        w_u, w_v = new_loads[u], new_loads[v]
        low, high = integral_half_sum(w_u, w_v)
        if w_u <= w_v:
            new_loads[u], new_loads[v] = low, high
        else:
            new_loads[u], new_loads[v] = high, low
        # A pair within one unit splits into the loads it had.
        moved = moved or new_loads[u] != w_u

    return RoundOutcome(
        new_loads=tuple(new_loads) if moved else loads, matching=matching, shift=shift
    )


def accept_lightest(loads, proposals: dict[int, int], senders_accept: bool = True) -> RoundOutcome:
    """Each node with proposers accepts the lightest one (lowest id on ties)
    and the pair splits its total, the floor going to the light side.
    Without `senders_accept`, a node that proposed accepts nobody.  When no
    split moves a unit the outcome hands `loads` itself back."""
    incoming: dict[int, list[int]] = {}
    for u, v in proposals.items():
        if senders_accept or v not in proposals:
            incoming.setdefault(v, []).append(u)

    new_loads = list(loads)
    matching = []
    moved = False
    for v in sorted(incoming):
        u = min(incoming[v], key=loads.__getitem__)
        matching.append((u, v, loads[v] - loads[u]))
        low, high = integral_half_sum(loads[u], loads[v])
        new_loads[u], new_loads[v] = low, high
        moved = moved or low != loads[u]
    return RoundOutcome(new_loads=tuple(new_loads) if moved else loads, matching=matching)


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


def hamming_distance(g1: Graph, g2: Graph) -> int:
    """Number of node pairs whose edge/non-edge status differs."""
    if g1.n != g2.n:
        raise ValueError("graphs must share the same node set")
    return len(g1.edges ^ g2.edges)


def randrange_connected_graph(n: int, extra_edge_prob, rng) -> Graph:
    """A uniform random labelled tree, decoded from a Pruefer sequence of
    rng.randrange(n) draws, plus one rng.randrange(den) < num coin for each
    other pair in lexicographic order (no coins at probability 0)."""
    tree = set()
    if n == 2:
        tree.add((0, 1))
    elif n > 2:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        for v in seq:
            leaf = min(u for u in range(n) if degree[u] == 1)
            tree.add((min(leaf, v), max(leaf, v)))
            degree[leaf] -= 1
            degree[v] -= 1
        u, w = (u for u in range(n) if degree[u] == 1)
        tree.add((u, w))
    edges = set(tree)
    num, den = extra_edge_prob.numerator, extra_edge_prob.denominator
    if num:
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in tree and rng.randrange(den) < num:
                    edges.add((u, v))
    graph = Graph(n, edges)
    assert is_connected(graph)
    return graph


def reference_check_round(
    before,
    after,
    trace,
    *,
    algorithm_kind,
    enabled,
    line_order=None,
    initial_prefix=None,
):
    """check_round as it was before the kernel table, an if/elif chain over
    the check names that derives everything afresh: the oracle for the
    kernels."""
    report = InvariantReport(trace.round_index)
    checks, witnesses = report.checks, report.witnesses
    exp, after_exp = before.exp, after.exp
    phi_before = phi_after = None

    def text(num, e):
        return Dyadic(num, e).decimal_str()

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
            total_before = sum(before.loads)
            total_after = sum(after.loads)
            good = total_before << after_exp == total_after << exp
            if not good:
                witnesses[name] = {
                    "before": text(total_before, exp),
                    "after": text(total_after, after_exp),
                }
        elif name == CHECK_POTENTIAL_DROP:
            bound = (need_phi_before() << 2) - trace.d_r
            good = need_phi_after() << (exp + 2) <= bound << after_exp
            if not good:
                witnesses[name] = {
                    "phi_after": text(phi_after, after_exp),
                    "allowed": text(bound, exp + 2),
                }
        elif name == CHECK_COVERING_EDGE:
            good, witness = reference_covering_edge(before, trace)
            if not good:
                witnesses[name] = witness
        elif name == CHECK_SHIFT_LOWER_BOUND:
            gap = max_gap(before.loads)
            good = trace.d_r * 30 >= gap * 2
            if not good:
                witnesses[name] = {"d_r": text(trace.d_r, exp + 1), "max_gap": text(gap, exp)}
        elif name == CHECK_MATCHING_BUDGET:
            good, witness = reference_matching_budget(trace.matching, algorithm_kind)
            if not good:
                witnesses[name] = witness
        elif name == CHECK_INTEGRALITY:
            good = after.mode != "integral" or after_exp == 0
            if not good:
                witnesses[name] = {"exp": after_exp}
            elif after.mode == "integral":
                for i, w in enumerate(after.loads):
                    if not isinstance(w, int) or w < 0:
                        good = False
                        witnesses[name] = {"node": i, "load": repr(w)}
                        break
        elif name == CHECK_PREFIX_MONOTONE:
            if line_order is None or initial_prefix is None:
                raise ValueError("prefixMonotone needs the line order and baseline prefixes")
            good = True
            if exp:
                good = False
                witnesses[name] = {"exp": exp}
            else:
                now_sums = prefix_sums(line_order, before.loads)
                for i, (now, base) in enumerate(zip(now_sums, initial_prefix)):
                    if now > base:
                        good = False
                        witnesses[name] = {
                            "prefix": i,
                            "now": text(now, 0),
                            "baseline": text(base, 0),
                        }
                        break
        elif name == CHECK_SPLIT_POTENTIAL:
            halves = [w for w in before.loads for _ in (0, 1)]
            split = potential(halves)
            good = split == need_phi_before() * 4
            if not good:
                witnesses[name] = {
                    "split": text(split, exp + 1),
                    "twice_whole": text(phi_before * 2, exp),
                }
        else:
            raise ValueError(f"unknown invariant check {name!r}")
        checks[name] = good
    return report


def reference_covering_edge(before, trace):
    loads = before.loads
    graph = trace.graph
    reach = [0] * graph.n
    for a, b, pair_gap in trace.matching:
        reach[a] = max(reach[a], pair_gap)
        reach[b] = max(reach[b], pair_gap)
    for _ in range(3):
        spread = list(reach)
        for u, v in graph.edges:
            spread[u] = max(spread[u], reach[v])
            spread[v] = max(spread[v], reach[u])
        reach = spread
    for u, v in graph.edges:
        gap = abs(loads[u] - loads[v])
        if gap > 0 and reach[u] < gap and reach[v] < gap:
            return False, {"edge": (u, v), "gap": Dyadic(gap, before.exp).decimal_str()}
    return True, None


def reference_matching_budget(matching, algorithm_kind):
    if algorithm_kind == KIND_TWO_SIDED:
        as_sender, as_answerer = {}, {}
        for u, v, _ in matching:
            as_sender[u] = as_sender.get(u, 0) + 1
            as_answerer[v] = as_answerer.get(v, 0) + 1
            if as_sender[u] > 1 or as_answerer[v] > 1:
                return False, {"node": u if as_sender[u] > 1 else v}
        return True, None
    seen = set()
    for u, v, _ in matching:
        if u in seen or v in seen:
            return False, {"node": u if u in seen else v}
        seen.add(u)
        seen.add(v)
    return True, None
