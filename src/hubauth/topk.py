"""Top-k hub/authority identification by pruning with certified brackets.

Every candidate node carries a Gauss-Radau bracket for its exponential
centrality, an integral of cosh(sqrt(x)) over A A^T (hubs) or A^T A
(authorities).  In each round the k-th largest lower bound is the survival
threshold: any node whose upper bound falls below it can never reach the
top k and is discarded for good (upper bounds only move down as the
bracket order grows).  Survivors take one step of the bracket schedule:
two more quadrature orders, each one product with A and one with A^T, or
the exact value once a run has broken down.  Then the round repeats.  The
first round prunes twice: every node takes an order-1 bracket from one
sparse Lanczos step (its column of the Gram matrix), and only the nodes
that bracket cannot rule out go on, strongest first, to the first order of
the schedule (4 steps).  Nodes with no out-edges (hub side) or no in-edges
(authority side) score exactly cosh(0) = 1 and never enter Lanczos at all.

The brackets and step counts live in one ``quadrature.BracketPool``, the
engine behind exp-quad and resolvent-quad too; this module adds only the
policy: which nodes are eligible, the first round's queue and the pruning
rounds.  The pool rebuilds each step's runs block by block and keeps only
brackets, so memory stays at one block's basis whatever n is.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .graph import GramOperator, degrees
from .quadrature import (
    COSH_SQRT,
    P_START,
    BracketPool,
    NodeBounds,
    check_p_max,
    spectrum_interval,
)
from .rankers import TIE_REL_TOL, ScoreVector, rank_table

__all__ = ["TopKReport", "identify_top_k", "rank_in_top_m"]


@dataclass
class TopKReport:
    """Outcome of a top-k (or top-k-within-top-m) selection run.

    ``iterations`` maps each eligible node to the Lanczos steps its last run
    took on A A^T or A^T A, as the bracket pool recorded them (0 for a
    zero-degree node, which never enters it); a bracket of order p takes
    p + 1 steps unless the run breaks down first.  A node ruled out by its
    order-1 bracket in the first round reports the 1 step that bracket took
    and keeps it (``p`` = 1).
    """

    k: int
    side: str
    members: list
    certified: bool
    fully_ordered: bool
    iterations: dict
    bounds: dict
    candidates: list = field(default_factory=list)
    excluded_zero_degree: int = 0
    excluded_degree_one: int = 0
    ties_note: str = None
    m: int = None
    params: dict = field(default_factory=dict)

    @property
    def max_iterations(self):
        return max(self.iterations.values(), default=0)


def _cut(threshold, tie_tol):
    """Upper bounds below this cannot reach the top k when ``threshold`` is the k-th lower bound.

    Anything within tie tolerance of the threshold is kept: genuinely tied
    nodes must be resolved by the id rule, not by floating-point noise.
    """
    return threshold - tie_tol * max(1.0, abs(threshold))


def _first_round(pool, nodes, zero_degree, k, tie_tol):
    """Bracket ``nodes`` at order 1, then take those it cannot rule out to order P_START.

    The order-1 brackets come from one sparse first Lanczos step per node
    (``BracketPool.first_pass``).  The cut is taken at the k-th largest lower
    bound, the ``zero_degree`` nodes' exact 1.0 included; a node whose upper
    bound falls below it stays at order 1 with 1 step.  The survivors go to
    order P_START in blocks of ``pool.width``, largest order-1 upper bound
    first (ties by id), each run resuming from its order-1 brackets.  Before
    each block the cut is taken again on every lower bound known so far, and
    queued nodes below it are dropped.  Lower bounds only rise, so no cut
    ever exceeds the first one ``_topk_engine`` takes, and every dropped node
    is one that cut prunes anyway.
    """
    lower = np.full(pool.op.dim, -np.inf)
    lower[zero_degree] = 1.0
    first = pool.first_pass(nodes)
    lower[nodes] = [b.lower for b in first]
    queue = sorted((b for b in first if not b.exact), key=lambda b: (-b.upper, b.node))
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
        pool.advance(chunk, P_START)
        lower[chunk] = [pool.bounds[v].lower for v in chunk]


def _refine(pool, nodes, p_max):
    """Take one schedule step on each of ``nodes`` that can still improve; whether any could.

    These share one order: the first round takes all its survivors to
    P_START, and each later call is given survivors of the call before.
    """
    todo = [v for v in sorted(nodes) if not pool.bounds[v].exact and pool.bounds[v].p < p_max]
    if todo:
        pool.advance(todo, p_max)
    return bool(todo)


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


def _topk_engine(g, k, side, p_max, m, exclude_degree_one, tie_tol):
    if side not in ("hub", "authority"):
        raise ParameterError(f"side must be 'hub' or 'authority', got '{side}'")
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
    _first_round(pool, [v for v in eligible if relevant_deg[v] != 0], zero_degree, k, tie_tol)
    candidates = set(eligible)
    pruned_upper_max = -np.inf
    while True:
        lowers = sorted((pool.bounds[v].lower for v in candidates), reverse=True)
        cut = _cut(lowers[k - 1], tie_tol)
        survivors = set()
        for v in candidates:
            if pool.bounds[v].upper < cut:
                pruned_upper_max = max(pruned_upper_max, pool.bounds[v].upper)
            else:
                survivors.add(v)
        candidates = survivors
        if len(candidates) <= m_eff:
            break
        if not _refine(pool, candidates, p_max):
            break  # every survivor is exact or at p_max: resolve by tie rule

    members, ties_note = _select_members(candidates, pool, k, tie_tol)
    member_set = set(members)
    min_member_lower = min(pool.bounds[v].lower for v in members)
    outside_upper = max(
        (pool.bounds[v].upper for v in candidates if v not in member_set),
        default=pruned_upper_max,
    )
    outside_upper = max(outside_upper, pruned_upper_max)
    certified = outside_upper == -np.inf or min_member_lower >= outside_upper - tie_tol * max(
        1.0, abs(min_member_lower)
    )

    fully_ordered = False
    if m is None:
        while True:
            pairs_ok = all(
                pool.bounds[a].lower >= pool.bounds[b].upper - tie_tol * max(1.0, pool.bounds[a].lower)
                for a, b in zip(members, members[1:])
            )
            if pairs_ok:
                fully_ordered = True
                break
            if not _refine(pool, member_set, p_max):
                break
        members, extra_note = _select_members(member_set, pool, k, tie_tol)
        ties_note = ties_note or extra_note

    return TopKReport(
        k=k,
        side=side,
        members=members,
        certified=certified,
        fully_ordered=fully_ordered,
        iterations={v: pool.steps[v] for v in eligible},
        bounds={v: pool.bounds[v] for v in eligible},
        candidates=sorted(candidates),
        excluded_zero_degree=len(zero_degree),
        excluded_degree_one=int(np.count_nonzero(degree_one)) if exclude_degree_one else 0,
        ties_note=ties_note,
        m=m,
        params={"p_max": p_max, "exclude_degree_one": exclude_degree_one},
    )


def identify_top_k(g, k, side="hub", p_max=64, exclude_degree_one=False, tie_tol=TIE_REL_TOL):
    """Certified top-k nodes on one side, refining brackets only where needed.

    Round structure: prune candidates whose upper bound sits below the k-th
    largest lower bound, then raise the survivors' bracket order by two.  The
    first round brackets every node at order 1, from its sparse Gram column,
    before order 3 and prunes on both.
    Stops when exactly k candidates survive (certified), or when no bracket
    can improve, in which case near-identical scores are resolved by
    ascending node id and flagged in ``ties_note``.  The members are then
    refined until their brackets are ordered (``fully_ordered``) or stuck.
    """
    return _topk_engine(g, k, side, p_max, None, exclude_degree_one, tie_tol)


def rank_in_top_m(g, k, m, side="hub", p_max=64, exclude_degree_one=False, tie_tol=TIE_REL_TOL):
    """Relaxed selection: stop once the true top-k provably lies within top-m.

    Identical machinery to ``identify_top_k`` but rounds stop as soon as at
    most m candidates remain, which typically takes fewer Lanczos steps per
    node.  With m == k it selects ``identify_top_k``'s members but does not
    refine them further to certify their order.
    """
    return _topk_engine(g, k, side, p_max, m, exclude_degree_one, tie_tol)
