"""Aggregator selection: minimum total distance, with configurable tie handling.

Energy and cost ride along in the ranking for inspection but never steer
the choice; the primary key is total distance alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import NoSpanningCandidate
from .metrics import CLMAT, NODE_MIN, TreeMetrics
from .trees import AggregationTree, Candidate, scored_roots, search_tree, shortest_path_search

MIN_DEPTH = "min-depth"
FIRST_MIN = "first-min"
TIE_RULES = (MIN_DEPTH, FIRST_MIN)


@dataclass(frozen=True)
class SelectionResult:
    """The chosen root, its tree and metrics, and the ranking it heads.

    tree is the chosen root's AggregationTree when select_aggregator made
    the result, and None when compare_trees ranked bare candidates.
    """

    chosen_root: str
    tree: AggregationTree | None
    metrics: TreeMetrics
    ranking: list[Candidate]


def _tie_key(tie_rule: str):
    """Sort key over (index, searched, total_distance) entries; the least entry wins.

    The index is the root's insertion position, and searched is anything
    that holds the tree's depth: a Candidate or a ShortestPaths. min-depth
    resolves distance ties toward the shallower tree, and any remaining tie
    toward the later index. first-min resolves distance ties toward the
    earlier index, as a plain strict-less-than scan does. Each key ends in
    the index, so no two entries tie and the entries' order never matters.
    """
    if tie_rule == MIN_DEPTH:
        return lambda e: (e[2], e[1].depth, -e[0])
    return lambda e: (e[2], e[0])


def pick_tree(entries, tie_rule: str = MIN_DEPTH):
    """The chosen entry among (index, searched, total_distance) spanning candidates."""
    return min(entries, key=_tie_key(tie_rule))


def compare_trees(candidates, tie_rule: str = MIN_DEPTH) -> SelectionResult:
    """Rank every candidate, spanning ones first, by the pick_tree key.

    The chosen candidate heads the ranking; NoSpanningCandidate is raised
    when it does not span. Candidates carry no tree, so the result's tree
    is None.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie rule {tie_rule!r}")
    candidates = list(candidates)
    tie_key = _tie_key(tie_rule)
    entries = [(i, c, c.metrics.total_distance) for i, c in enumerate(candidates)]
    entries.sort(key=lambda e: (not candidates[e[0]].spanning, tie_key(e)))
    ranking = [candidates[i] for i, _, _ in entries]
    if not ranking or not ranking[0].spanning:
        raise NoSpanningCandidate("no candidate tree spans every node")
    chosen = ranking[0]
    return SelectionResult(chosen.root, None, chosen.metrics, ranking)


def select_aggregator(graph, cost_variant: str = CLMAT,
                      energy_variant: str = NODE_MIN,
                      tie_rule: str = MIN_DEPTH,
                      tx_energy=None) -> SelectionResult:
    """Score a shortest-path tree per candidate root and pick the aggregator.

    One search per root, through scored_roots, so large graphs are scored
    in forked workers. Of the roots scored in this process, only the
    spanning search that pick_tree ranks first so far is kept. The chosen
    root's tree, the one AggregationTree of the selection, is built from
    that search when it is the chosen root's; when a worker scored the
    chosen root, its search is run once more here. Deterministic for a
    fixed graph and configuration.
    """
    lead = None  # (index, search, total distance)

    def keep(i, paths, total):
        nonlocal lead
        entry = (i, paths, total)
        lead = entry if lead is None else pick_tree([lead, entry], tie_rule)

    candidates = scored_roots(graph, cost_variant, energy_variant, tx_energy, keep)
    result = compare_trees(candidates, tie_rule)
    ri = graph.get_index(result.chosen_root)
    paths = lead[1] if lead is not None and lead[0] == ri else shortest_path_search(graph, ri)
    return replace(result, tree=search_tree(graph.node_ids(), result.chosen_root, paths))
