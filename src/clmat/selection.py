"""Aggregator selection: minimum total distance, with configurable tie handling.

Energy and cost ride along in the ranking for inspection but never steer
the choice; the primary key is total distance alone.
"""

from __future__ import annotations

from .errors import NoSpanningCandidate
from .trees import Candidate, build_all_candidates

MIN_DEPTH = "min-depth"
FIRST_MIN = "first-min"
TIE_RULES = (MIN_DEPTH, FIRST_MIN)


def _tie_key(tie_rule: str):
    """Sort key over (index, searched, total_distance) entries; the least entry wins.

    The index is the root's insertion position, and searched is anything
    that holds the tree's depth: a Candidate or a ShortestPaths. min-depth
    resolves distance ties toward the shallower tree, and any remaining tie
    toward the later index. first-min resolves distance ties toward the
    earlier index, as a plain strict-less-than scan does. Each key ends in
    the index, so no two entries tie and the entries' order never matters.
    Any other tie_rule raises ValueError.
    """
    if tie_rule == MIN_DEPTH:
        return lambda e: (e[2], e[1].depth, -e[0])
    if tie_rule == FIRST_MIN:
        return lambda e: (e[2], e[0])
    raise ValueError(f"unknown tie rule {tie_rule!r}")


def compare_trees(candidates, tie_rule: str = MIN_DEPTH) -> list[Candidate]:
    """Every candidate ranked by tie_rule's _tie_key, spanning ones first: the
    chosen one heads the list, and its tree is trees.shortest_path_search
    from its root's index. NoSpanningCandidate is raised when it does not span."""
    tie_key = _tie_key(tie_rule)
    entries = [(i, c, c.distance) for i, c in enumerate(candidates)]
    entries.sort(key=lambda e: (not e[1].spanning, tie_key(e)))
    ranking = [c for _, c, _ in entries]
    if not ranking or not ranking[0].spanning:
        raise NoSpanningCandidate()
    return ranking


def select_aggregator(graph, tie_rule: str = MIN_DEPTH, tx_energy=None) -> list[Candidate]:
    """Score every candidate root and rank them, the aggregator first.

    compare_trees over build_all_candidates(graph, tx_energy): n searches
    and no tree. An unknown tie_rule raises ValueError before any root is
    scored. Deterministic for a fixed graph and configuration.
    """
    _tie_key(tie_rule)
    return compare_trees(build_all_candidates(graph, tx_energy), tie_rule)
