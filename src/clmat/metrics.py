"""The first-order radio model, which prices both a tree's cost and a round's drains.

A candidate tree is scored by its energy (the least energy of a non-root
node it reaches), its cost and its total distance.
trees.build_all_candidates computes all three from a search's lists into
a trees.Candidate. The cost sums, over the tree's (parent, child) links,
the link's per-packet transmission energy under a RadioModel over each
endpoint's energy, parent first (Heinzelman, Chandrakasan & Balakrishnan,
HICSS 2000); the simulator charges each round's drains by the same
model. The tree-walk definitions those scores are tested against live
with the tests, in tests/graphgen.py.

+inf is a first-class cost value: float addition absorbs it naturally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .topology import _is_finite, _is_int


@dataclass(frozen=True)
class RadioModel:
    """First-order radio: tx = tx_fixed + tx_dist_coeff * d**exponent, flat rx.

    Costs are Joules per packet; defaults are packet-normalized values for
    a 50 nJ electronics hit and a 100 pJ/length^2 amplifier term. Each
    coefficient is a finite, nonnegative int or float, and exponent is the
    int 2 or 4; a bool is neither. Anything else raises ValueError.
    """

    tx_fixed: float = 50e-9
    tx_dist_coeff: float = 100e-12
    exponent: int = 2
    rx_cost: float = 50e-9

    def __post_init__(self):
        # NaN compares false against 0, so finiteness is tested explicitly
        if not all(_is_finite(c) and c >= 0
                   for c in (self.tx_fixed, self.tx_dist_coeff, self.rx_cost)):
            raise ValueError("radio coefficients must be finite and nonnegative")
        if not (_is_int(self.exponent) and self.exponent in (2, 4)):
            raise ValueError("path-loss exponent must be 2 or 4")

    def tx_energy(self, distance: float) -> float:
        """Joules to send one packet over distance; +inf once d**exponent overflows.

        A zero amplifier coefficient ignores distance altogether, so an
        overflowing power never meets it as 0 * inf = NaN.
        """
        if not self.tx_dist_coeff:
            return self.tx_fixed
        try:
            amplifier = distance ** self.exponent
        except OverflowError:
            return math.inf
        return self.tx_fixed + self.tx_dist_coeff * amplifier
