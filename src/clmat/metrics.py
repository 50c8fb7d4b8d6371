"""Score names.

A candidate tree is scored by its energy (a variant in ENERGY_VARIANTS),
its cost (a variant in COST_VARIANTS) and its total distance.
trees.build_all_candidates computes all three from a search's lists into
a trees.Candidate; this module holds only the names the CLI and selection
share with it. The tree-walk definitions those scores are tested against
live with the tests, in tests/graphgen.py.

+inf is a first-class cost value: float addition absorbs it naturally.
"""

NODE_MIN = "node-min"
EDGE_MIN = "edge-min"
ENERGY_VARIANTS = (NODE_MIN, EDGE_MIN)

CLMAT = "clmat"
RESIDUAL = "residual"
COST_VARIANTS = (CLMAT, RESIDUAL)
