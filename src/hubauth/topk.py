"""Top-k hub/authority identification by pruning with certified brackets.

Every candidate node carries a Gauss-Radau bracket for its exponential
centrality, an integral of cosh(sqrt(x)) over A A^T (hubs) or A^T A
(authorities).  The k-th largest lower bound, less the tie slack, is the
cut: any node whose upper bound falls below it can never reach the top k
and is discarded for good (upper bounds only move down as the bracket
order grows).  Every node first takes an order-1 bracket from one sparse
Lanczos step (its column of the Gram matrix).  Then each round takes the
nodes the cut keeps one step along the bracket schedule (order 1 to 3,
then two orders a step, each one product with A and one with A^T, or the
exact value once a run has broken down), strongest first, taking the cut
again before each block, and prunes on the cut after it; without m, the
rounds that order the members are the loop's last.  Nodes with no
out-edges (hub side) or no in-edges (authority side) score exactly
cosh(0) = 1 and never enter Lanczos at all.

The brackets live in one ``quadrature.BracketPool``, the engine behind
exp-quad and resolvent-quad too, and are this module's only state; it
adds only the policy: which nodes are eligible, the rounds, and the
members, chosen once after them.  The pool rebuilds each step's runs block
by block and keeps only brackets, so memory stays at one block's basis
whatever n is.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .graph import GramOperator, degrees
from .quadrature import P_START  # unused here; perfbench/tracer.py looks topk.P_START up
from .quadrature import COSH_SQRT, BracketPool, NodeBounds, check_p_max, spectrum_interval
from .rankers import TIE_REL_TOL, ScoreVector, _check_side, rank_table, tie_slack

__all__ = ["TopKReport", "identify_top_k"]


@dataclass
class TopKReport:
    """Outcome of a top-k (or top-k-within-top-m) selection run.

    ``bounds`` maps each eligible node to its final bracket; a node the cut
    drops keeps the one it had.  ``certified``: the worst member's lower
    bound reaches every other eligible node's upper bound, less the tie
    slack.  ``fully_ordered`` (never with ``m``): so do the members'
    brackets pairwise, in member order.
    """

    k: int
    side: str
    members: list
    certified: bool
    fully_ordered: bool
    bounds: dict
    candidates: list = field(default_factory=list)
    excluded_zero_degree: int = 0
    excluded_degree_one: int = 0
    ties_note: str = None
    m: int = None
    params: dict = field(default_factory=dict)

    @property
    def iterations(self):
        """Each eligible node's Lanczos steps, its bracket's order ``p`` (0 for a zero-degree node)."""
        return {v: b.p for v, b in self.bounds.items()}

    @property
    def max_iterations(self):
        return max(self.iterations.values(), default=0)


def _cut(threshold, tie_tol):
    """Upper bounds below this cannot reach the top k when ``threshold`` is the k-th lower bound.

    Anything within tie tolerance of the threshold is kept: genuinely tied
    nodes must be resolved by the id rule, not by floating-point noise.
    """
    return threshold - tie_slack(threshold, tie_tol)


def _round(pool, nodes, lower, k, tie_tol, p_max):
    """Take one schedule step on each of ``nodes`` that the cut keeps; whether any took one.

    ``lower`` holds every eligible node's lower bound known so far (-inf
    elsewhere).  The nodes whose bracket can still tighten (not exact, below
    p_max) go in blocks of ``pool.width``, largest upper bound first (ties by
    id).  Before each block the cut is taken again at the k-th largest entry
    of ``lower``, and queued nodes below it are dropped.  Lower bounds only
    rise, so a dropped node is one the cut after the round prunes anyway, and
    the steppable nodes of each round share one order, as
    ``BracketPool.advance`` needs.
    """
    steppable = (pool.bounds[v] for v in nodes if not pool.bounds[v].exact and pool.bounds[v].p < p_max)
    queue = sorted(steppable, key=lambda b: (-b.upper, b.node))
    falling = np.array([-b.upper for b in queue])
    done = 0
    while done < len(queue):
        cut = _cut(np.partition(lower, -k)[-k], tie_tol)
        # the queue runs by falling upper bound: the nodes below the cut are its tail
        end = min(done + pool.width, int(np.searchsorted(falling, -cut, side="right")))
        if end <= done:
            break
        chunk = [b.node for b in queue[done:end]]
        done = end
        pool.advance(chunk, p_max)
        lower[chunk] = [pool.bounds[v].lower for v in chunk]
    return done > 0


def _select_members(candidates, pool, k, tie_tol):
    """Pick k members from the surviving candidates by bracket midpoint, ids ascending inside ties.

    The tie groups are ``rank_table``'s.  When one straddles the k-th place,
    its lowest ids are admitted and the note says so.
    """
    nodes = sorted(candidates)
    table = rank_table(ScoreVector("midpoint", "", [pool.bounds[v].midpoint for v in nodes]), tie_tol)
    members = [nodes[i] for i in table.order[:k]]
    if k < len(nodes) and table.ranks[table.order[k]] == table.ranks[table.order[k - 1]]:
        rank = table.ranks[table.order[k]]
        tied = int(np.count_nonzero(table.ranks == rank))
        return members, f"{tied} candidates tied at the rank-{rank} boundary; admitted lowest node ids"
    return members, None


def _ordered(pool, members, tie_tol):
    """Whether each member's lower bound reaches the next one's upper bound, less the tie slack."""
    pairs = zip(members, members[1:])
    return all(pool.bounds[a].lower >= pool.bounds[b].upper - tie_slack(pool.bounds[a].lower, tie_tol) for a, b in pairs)


def identify_top_k(g, k, side="hub", p_max=64, exclude_degree_one=False, tie_tol=TIE_REL_TOL, m=None):
    """Certified top-k nodes on one side, refining brackets only where needed.

    Every node is bracketed at order 1 from its sparse Gram column; then
    each round raises the order of the nodes that can still reach the top k
    (to 3, then by two) and prunes those whose upper bound sits below the
    k-th largest lower bound.  Stops when at most ``m`` candidates survive,
    or without m, when k do and the members chosen from them have pairwise
    ordered brackets (``fully_ordered``): ordering them is the last rounds.
    It also stops when no bracket can improve; near-identical scores are
    then resolved by ascending node id and flagged in ``ties_note``.
    """
    _check_side(side)
    check_p_max(p_max)
    out_deg, in_deg = degrees(g)
    degree_one = (out_deg == 1) & (in_deg == 1)
    eligible = [v for v in range(g.n) if not (exclude_degree_one and degree_one[v])]
    if not 1 <= k <= len(eligible):
        raise ParameterError(f"k must be in [1, {len(eligible)}] (eligible nodes), got {k}")
    m_eff = k if m is None else m
    if not k <= m_eff <= len(eligible):
        raise ParameterError(f"m must be in [{k}, {len(eligible)}], got {m_eff}")
    pool = BracketPool(GramOperator(g, side), spectrum_interval(g), COSH_SQRT)

    relevant_deg = out_deg if side == "hub" else in_deg
    zero_degree = [v for v in eligible if relevant_deg[v] == 0]
    for v in zero_degree:
        pool.bounds[v] = NodeBounds(v, 1.0, 1.0, p=0, exact=True)
    lower = np.full(g.n, -np.inf)
    lower[zero_degree] = 1.0
    with_edges = [v for v in eligible if relevant_deg[v] != 0]
    lower[with_edges] = [b.lower for b in pool.first_pass(with_edges)]
    candidates = eligible
    while True:
        stepped = _round(pool, candidates, lower, k, tie_tol, p_max)
        cut = _cut(np.partition(lower, -k)[-k], tie_tol)
        candidates = [v for v in candidates if pool.bounds[v].upper >= cut]
        settled = len(candidates) <= m_eff
        if settled and m is None:  # k candidates hold the k largest lower bounds: the next round steps them all
            settled = _ordered(pool, _select_members(candidates, pool, k, tie_tol)[0], tie_tol)
        if settled or not stepped:
            break  # not stepped: every survivor is exact or at p_max, so the tie rule decides

    members, ties_note = _select_members(candidates, pool, k, tie_tol)
    min_member_lower = min(pool.bounds[v].lower for v in members)
    member_set = set(members)
    # A pruned node keeps the bracket that pruned it, and as lower bounds only
    # rise its upper bound lies below the final cut C.  With more than k
    # candidates, a non-member candidate has upper >= C and sets the maximum.
    # With exactly k, the members hold the k largest lower bounds (none at or
    # above the k-th is pruned), so a pruned upper sits below the worst member's
    # lower bound less its slack.  So this equals the certificate over candidates.
    outside_upper = max((pool.bounds[v].upper for v in eligible if v not in member_set), default=-np.inf)
    certified = bool(min_member_lower >= outside_upper - tie_slack(min_member_lower, tie_tol))

    return TopKReport(
        k=k,
        side=side,
        members=members,
        certified=certified,
        fully_ordered=m is None and _ordered(pool, members, tie_tol),
        bounds={v: pool.bounds[v] for v in eligible},
        candidates=candidates,
        excluded_zero_degree=len(zero_degree),
        excluded_degree_one=int(np.count_nonzero(degree_one)) if exclude_degree_one else 0,
        ties_note=ties_note,
        m=m,
        params={"p_max": p_max, "exclude_degree_one": exclude_degree_one},
    )
