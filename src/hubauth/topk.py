"""Top-k hub/authority identification by pruning with certified brackets.

Every candidate node carries a Gauss-Radau bracket for its exponential
centrality, an integral of cosh(sqrt(x)) over A A^T (hubs) or A^T A
(authorities).  In each round the k-th largest lower bound is the survival
threshold: any node whose upper bound falls below it can never reach the
top k and is discarded for good (upper bounds only move down as the
bracket order grows).  Survivors take one step of the bracket schedule,
``quadrature.BracketRun``: two more quadrature orders, each one product with
A and one with A^T, or the exact value once a run has broken down.  Then the
round repeats.  The first round prunes twice: every node takes an order-1
bracket from one sparse Lanczos step (its column of the Gram matrix), and
only the nodes that bracket cannot rule out go on, strongest first, to the
first order of the schedule (4 steps).  Nodes with no out-edges (hub side)
or no in-edges (authority side) score exactly cosh(0) = 1 and never enter
Lanczos at all.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .graph import GramOperator, degrees
from .quadrature import (
    COSH_SQRT,
    P_START,
    BracketRun,
    NodeBounds,
    block_width,
    check_p_max,
    order_one_bounds,
    spectrum_interval,
)
from .rankers import TIE_REL_TOL, ScoreVector, rank_table

__all__ = ["TopKReport", "identify_top_k", "rank_in_top_m"]


@dataclass
class TopKReport:
    """Outcome of a top-k (or top-k-within-top-m) selection run.

    ``iterations`` maps each eligible node to the Lanczos steps its last run
    took on A A^T or A^T A (0 for a zero-degree node); a bracket of order p
    takes p + 1 steps unless the run breaks down first.  A node ruled out by
    its order-1 bracket in the first round reports the 1 step that bracket
    took and keeps it (``p`` = 1).
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


class _BracketPool:
    """Each eligible node's current bracket (``bounds``) and run length (``steps``).

    Zero-degree nodes get their exact bracket up front and no run.  ``start``
    is the first round: a sparse order-1 bracket for every other node, then
    order P_START, block by block, for those it cannot rule out.
    Every later ``refine`` rebuilds the runs of the nodes it refines from
    their start vectors, block by block, takes each one schedule step further
    and keeps only the brackets, so memory stays at one block's basis
    whatever n is.  Each call refines every inexact node it is given, and the
    nodes given later are a subset of the first round's survivors, so every
    node still being refined sits at the one order ``p``.
    """

    def __init__(self, g, side, exclude_degree_one):
        self.op = GramOperator(g, side)
        self.iv = spectrum_interval(g)
        self.width = block_width(g.n)
        out_deg, in_deg = degrees(g)
        relevant_deg = out_deg if side == "hub" else in_deg
        degree_one = (out_deg == 1) & (in_deg == 1)
        self.excluded_degree_one = int(np.count_nonzero(degree_one)) if exclude_degree_one else 0
        self.eligible = [
            v for v in range(g.n) if not (exclude_degree_one and degree_one[v])
        ]
        self.zero_degree = {v for v in self.eligible if relevant_deg[v] == 0}
        self.bounds = {v: NodeBounds(v, 1.0, 1.0, p=0, exact=True) for v in self.zero_degree}
        self.steps = dict.fromkeys(self.eligible, 0)
        self.p = 0

    def _store(self, block):
        for b, length in zip(block.bounds, block.run.lengths):
            self.bounds[b.node] = b
            self.steps[b.node] = int(length)

    def start(self, k, tie_tol):
        """Bracket every inexact node at order 1, then take the survivors to order P_START.

        The order-1 brackets come from one sparse first Lanczos step per node
        (``order_one_bounds``).  The cut is taken at the k-th largest lower
        bound, zero-degree nodes included; a node whose upper bound falls
        below it stays at order 1 with 1 step.  The survivors go to order
        P_START in blocks, largest order-1 upper bound first (ties by id),
        each run resuming from its order-1 brackets.  Before each block the
        cut is taken again on every lower bound known so far, and queued
        nodes below it are dropped.  Lower bounds only rise, so no cut ever
        exceeds the first one ``_topk_engine`` takes, and every dropped node
        is one that cut prunes anyway.
        """
        lower = np.full(self.op.dim, -np.inf)
        lower[sorted(self.zero_degree)] = 1.0
        todo = [v for v in self.eligible if v not in self.zero_degree]
        first = order_one_bounds(self.op, todo, self.iv, COSH_SQRT)
        for b in first:
            self.bounds[b.node] = b
            self.steps[b.node] = 1
        lower[todo] = [b.lower for b in first]
        queue = sorted((b for b in first if not b.exact), key=lambda b: (-b.upper, b.node))
        falling = np.array([-b.upper for b in queue])
        done = 0
        while done < len(queue):
            cut = _cut(np.partition(lower, -k)[-k], tie_tol)
            # the queue runs by falling upper bound: the nodes below the cut are its tail
            end = min(done + self.width, int(np.searchsorted(falling, -cut, side="right")))
            if end <= done:
                break
            chunk, done = queue[done:end], end
            nodes = [b.node for b in chunk]
            block = BracketRun(self.op, nodes, self.iv, COSH_SQRT, bounds=chunk, p=1)
            block.refine(P_START)
            self._store(block)
            lower[nodes] = [b.lower for b in block.bounds]
        self.p = P_START

    def refine(self, nodes, p_max):
        """Take one schedule step on each node that can still improve."""
        todo = [v for v in sorted(nodes) if not (v in self.bounds and self.bounds[v].exact)]
        if not todo or self.p >= p_max:
            return False
        for first in range(0, len(todo), self.width):
            chunk = todo[first : first + self.width]
            resumed = [self.bounds[v] for v in chunk] if self.p else None
            block = BracketRun(self.op, chunk, self.iv, COSH_SQRT, bounds=resumed, p=self.p)
            block.refine(p_max)
            self._store(block)
        self.p = block.p
        return True

    def iterations(self):
        return dict(self.steps)


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


def _topk_engine(g, k, side, p_max, m, exclude_degree_one, order_members, tie_tol):
    if side not in ("hub", "authority"):
        raise ParameterError(f"side must be 'hub' or 'authority', got '{side}'")
    check_p_max(p_max)
    pool = _BracketPool(g, side, exclude_degree_one)
    eligible = pool.eligible
    if not 1 <= k <= len(eligible):
        raise ParameterError(f"k must be in [1, {len(eligible)}] (eligible nodes), got {k}")
    m_eff = k if m is None else m
    if not k <= m_eff <= len(eligible):
        raise ParameterError(f"m must be in [{k}, {len(eligible)}], got {m_eff}")

    candidates = set(eligible)
    pool.start(k, tie_tol)  # initial brackets at the starting order
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
        progressed = pool.refine(candidates, p_max)
        if not progressed:
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
    if order_members:
        while True:
            pairs_ok = all(
                pool.bounds[a].lower >= pool.bounds[b].upper - tie_tol * max(1.0, pool.bounds[a].lower)
                for a, b in zip(members, members[1:])
            )
            if pairs_ok:
                fully_ordered = True
                break
            if not pool.refine(member_set, p_max):
                break
        members, extra_note = _select_members(member_set, pool, k, tie_tol)
        ties_note = ties_note or extra_note

    return TopKReport(
        k=k,
        side=side,
        members=members,
        certified=certified,
        fully_ordered=fully_ordered,
        iterations=pool.iterations(),
        bounds={v: pool.bounds[v] for v in sorted(pool.bounds)},
        candidates=sorted(candidates),
        excluded_zero_degree=len(pool.zero_degree),
        excluded_degree_one=pool.excluded_degree_one,
        ties_note=ties_note,
        m=m,
        params={"p_max": p_max, "exclude_degree_one": exclude_degree_one},
    )


def identify_top_k(g, k, side="hub", p_max=64, exclude_degree_one=False, order_members=True, tie_tol=TIE_REL_TOL):
    """Certified top-k nodes on one side, refining brackets only where needed.

    Round structure: prune candidates whose upper bound sits below the k-th
    largest lower bound, then raise the survivors' bracket order by two.  The
    first round brackets every node at order 1, from its sparse Gram column,
    before order 3 and prunes on both.
    Stops when exactly k candidates survive (certified), or when no bracket
    can improve, in which case near-identical scores are resolved by
    ascending node id and flagged in ``ties_note``.
    """
    return _topk_engine(g, k, side, p_max, None, exclude_degree_one, order_members, tie_tol)


def rank_in_top_m(g, k, m, side="hub", p_max=64, exclude_degree_one=False, tie_tol=TIE_REL_TOL):
    """Relaxed selection: stop once the true top-k provably lies within top-m.

    Identical machinery to ``identify_top_k`` but rounds stop as soon as at
    most m candidates remain, which typically takes fewer Lanczos steps per
    node.  With m == k the two functions coincide.
    """
    return _topk_engine(g, k, side, p_max, m, exclude_degree_one, False, tie_tol)
