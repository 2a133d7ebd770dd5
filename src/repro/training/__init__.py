"""Training: level-synchronous (frontier) tree growth.

Every HedgeCut tree and every baseline tree is grown one depth level at a
time over shared per-level count histograms
(:class:`~repro.training.frontier.FrontierTreeBuilder` for HedgeCut,
:mod:`repro.training.baseline` for CART, Random Forest and ERT).
"""

from repro.training.frontier import FrontierTreeBuilder
from repro.training.histogram import LevelHistograms

__all__ = [
    "FrontierTreeBuilder",
    "LevelHistograms",
]
