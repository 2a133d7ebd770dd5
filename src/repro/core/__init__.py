"""The HedgeCut model: randomised trees maintained under unlearning.

Module map (paper section in parentheses):

* :mod:`repro.core.params`      -- hyperparameters (Section 4.3, Section 6.1).
* :mod:`repro.core.splits`      -- split descriptions, split statistics and
  Gini gain (Section 3, Section 5).
* :mod:`repro.core.robustness`  -- the greedy robustness test plus the
  exhaustive enumeration oracle (Section 4.2, Algorithm 2).
* :mod:`repro.core.nodes`       -- leaf / robust-split / maintenance nodes
  (Section 4.1).
* :mod:`repro.core.tree`        -- the tree builder (Section 4.3, Algorithm 3).
* :mod:`repro.core.unlearning`  -- the unlearning traversal (Section 4.5,
  Algorithm 4).
* :mod:`repro.core.packed`      -- the whole ensemble packed into flat
  arrays with incremental leaf sync, walked by the compiled traversal
  kernel of :mod:`repro.native` (the data-structure item of Section 8).
* :mod:`repro.core.ensemble`    -- the public :class:`HedgeCutClassifier`.
"""

from repro.core.ensemble import HedgeCutClassifier
from repro.core.exceptions import (
    DeletionBudgetExhausted,
    NotFittedError,
    UnlearningError,
)
from repro.core.importance import feature_importance, top_features
from repro.core.inspect import inspect_model, render_tree
from repro.core.packed import PackedEnsemble
from repro.core.params import HedgeCutParams
from repro.core.validation import validate_model

__all__ = [
    "HedgeCutClassifier",
    "HedgeCutParams",
    "PackedEnsemble",
    "DeletionBudgetExhausted",
    "NotFittedError",
    "UnlearningError",
    "feature_importance",
    "top_features",
    "inspect_model",
    "render_tree",
    "validate_model",
]
