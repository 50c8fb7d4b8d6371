"""Aggregator selection: minimum total distance, with configurable tie handling.

Energy and cost ride along in the ranking for inspection but never steer
the choice; the primary key is total distance alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoSpanningCandidate
from .metrics import CLMAT, NODE_MIN, TreeMetrics
from .trees import AggregationTree, Candidate, build_all_candidates

MIN_DEPTH = "min-depth"
FIRST_MIN = "first-min"
TIE_RULES = (MIN_DEPTH, FIRST_MIN)


@dataclass(frozen=True)
class SelectionResult:
    chosen_root: str
    tree: AggregationTree
    metrics: TreeMetrics
    ranking: list[Candidate]


def pick_tree(entries, tie_rule: str = MIN_DEPTH):
    """The chosen entry among (index, tree, total_distance) spanning candidates.

    The index is the root's insertion position. min-depth resolves distance
    ties toward the shallower tree, and any remaining tie toward the later
    index. first-min is the plain strict-less-than scan: the earliest
    minimum wins outright.
    """
    if not entries:
        raise NoSpanningCandidate("no candidate tree spans every node")
    if tie_rule == MIN_DEPTH:
        return min(entries, key=lambda e: (e[2], e[1].depth, -e[0]))
    # min keeps the first of equal keys, which is the strict-less-than scan
    return min(entries, key=lambda e: e[2])


def compare_trees(candidates, tie_rule: str = MIN_DEPTH) -> SelectionResult:
    """Choose the spanning candidate of minimum total distance (see pick_tree).

    The ranking lists every candidate, spanning ones first, in the order of
    the same tie key.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie rule {tie_rule!r}")
    candidates = list(candidates)
    chosen = candidates[pick_tree([(i, c.tree, c.metrics.total_distance)
                                   for i, c in enumerate(candidates) if c.spanning],
                                  tie_rule)[0]]

    if tie_rule == MIN_DEPTH:
        def rank_key(entry):
            i, c = entry
            return (not c.spanning, c.metrics.total_distance, c.tree.depth, -i)
    else:
        def rank_key(entry):
            i, c = entry
            return (not c.spanning, c.metrics.total_distance, i)

    ranking = [c for _, c in sorted(enumerate(candidates), key=rank_key)]
    return SelectionResult(chosen.root, chosen.tree, chosen.metrics, ranking)


def select_aggregator(graph, cost_variant: str = CLMAT,
                      energy_variant: str = NODE_MIN,
                      tie_rule: str = MIN_DEPTH,
                      tx_energy=None) -> SelectionResult:
    """Score a shortest-path tree per candidate root and pick the aggregator.

    Deterministic for a fixed graph and configuration.
    """
    candidates = build_all_candidates(graph, cost_variant, energy_variant, tx_energy)
    return compare_trees(candidates, tie_rule)
