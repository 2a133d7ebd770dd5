"""The four Gini-count scan kernels of Section 6.4.2.

Every kernel computes the same :class:`SplitCounts` quadruple
``(n, n_plus, n_left, n_left_plus)`` from a code column, a label column and
a split description. They differ only in code shape:

* ``*_branching``      -- scalar loop with data-dependent branches,
* ``*_predicated``     -- scalar loop with branches replaced by boolean
  arithmetic (predication, Section 5 "Further optimisations"),
* ``*_vectorised``     -- numpy bulk compare + mask + popcount, the analogue
  of the paper's SSE implementation,
* ``*_mlpack``         -- the mlpack-inspired variant that materialises the
  per-record partition assignment first and vectorises only the per-class
  count summation afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vectorized.masks import bitmask_membership_vector


@dataclass(frozen=True)
class SplitCounts:
    """Counts a split evaluation needs for the Gini gain (Section 5).

    Attributes:
        n: number of records scanned.
        n_plus: number of positive records.
        n_left: records assigned to the left partition.
        n_left_plus: positive records assigned to the left partition.
    """

    n: int
    n_plus: int
    n_left: int
    n_left_plus: int

    @property
    def n_right(self) -> int:
        return self.n - self.n_left

    @property
    def n_right_plus(self) -> int:
        return self.n_plus - self.n_left_plus

    @property
    def splits_data(self) -> bool:
        """Whether both partitions are non-empty.

        Global split proposals may fall outside the local value range of a
        node; such degenerate candidates are ignored during training
        (Section 4.3).
        """
        return 0 < self.n_left < self.n


# --------------------------------------------------------------------- #
# numeric splits: left partition is  code < cut
# --------------------------------------------------------------------- #


def numeric_counts_branching(codes: np.ndarray, labels: np.ndarray, cut: int) -> SplitCounts:
    """Scalar loop with branches (the paper's non-optimised baseline)."""
    n = len(codes)
    n_plus = 0
    n_left = 0
    n_left_plus = 0
    for index in range(n):
        positive = labels[index] == 1
        if positive:
            n_plus += 1
        if codes[index] < cut:
            n_left += 1
            if positive:
                n_left_plus += 1
    return SplitCounts(n, n_plus, n_left, n_left_plus)


def numeric_counts_predicated(codes: np.ndarray, labels: np.ndarray, cut: int) -> SplitCounts:
    """Scalar loop with predication: branches become boolean additions."""
    n = len(codes)
    n_plus = 0
    n_left = 0
    n_left_plus = 0
    for index in range(n):
        positive = int(labels[index] == 1)
        goes_left = int(codes[index] < cut)
        n_plus += positive
        n_left += goes_left
        n_left_plus += positive & goes_left
    return SplitCounts(n, n_plus, n_left, n_left_plus)


def numeric_counts_vectorised(codes: np.ndarray, labels: np.ndarray, cut: int) -> SplitCounts:
    """Bulk compare + mask + popcount -- the SSE analogue.

    ``codes < cut`` corresponds to ``_mm_cmplt_epi8`` over the uint8 column,
    the boolean AND with the label vector to the SIMD AND of the paper, and
    ``count_nonzero`` to the POPCNT reduction.
    """
    goes_left = codes < cut
    positive = labels == 1
    n = codes.shape[0]
    n_plus = int(np.count_nonzero(positive))
    n_left = int(np.count_nonzero(goes_left))
    n_left_plus = int(np.count_nonzero(goes_left & positive))
    return SplitCounts(n, n_plus, n_left, n_left_plus)


def numeric_counts_mlpack(codes: np.ndarray, labels: np.ndarray, cut: int) -> SplitCounts:
    """mlpack-style kernel: scalar partition test, vectorised class sums.

    mlpack's Gini-gain routine was designed for classical decision trees
    where label-count summation dominates; it vectorises only that final
    reduction while the per-record threshold comparison stays scalar. The
    paper re-implements it for comparison and finds almost no speed-up over
    the branching code (Section 6.4.2), because for ERT-style candidate
    evaluation the comparison itself is the bottleneck.
    """
    n = len(codes)
    assignment = np.empty(n, dtype=np.uint8)
    for index in range(n):
        assignment[index] = 1 if codes[index] < cut else 0
    left = assignment == 1
    n_plus = int(np.count_nonzero(labels == 1))
    n_left = int(np.count_nonzero(left))
    n_left_plus = int(np.count_nonzero(labels[left] == 1))
    return SplitCounts(n, n_plus, n_left, n_left_plus)


# --------------------------------------------------------------------- #
# categorical splits: left partition is  code in subset (bitmask)
# --------------------------------------------------------------------- #


def categorical_counts_branching(
    codes: np.ndarray, labels: np.ndarray, subset_mask: int
) -> SplitCounts:
    """Scalar loop with branches for the subset-membership test."""
    n = len(codes)
    n_plus = 0
    n_left = 0
    n_left_plus = 0
    for index in range(n):
        positive = labels[index] == 1
        if positive:
            n_plus += 1
        if (subset_mask >> int(codes[index])) & 1:
            n_left += 1
            if positive:
                n_left_plus += 1
    return SplitCounts(n, n_plus, n_left, n_left_plus)


def categorical_counts_predicated(
    codes: np.ndarray, labels: np.ndarray, subset_mask: int
) -> SplitCounts:
    """Predicated scalar loop for the subset-membership test."""
    n = len(codes)
    n_plus = 0
    n_left = 0
    n_left_plus = 0
    for index in range(n):
        positive = int(labels[index] == 1)
        goes_left = (subset_mask >> int(codes[index])) & 1
        n_plus += positive
        n_left += goes_left
        n_left_plus += positive & goes_left
    return SplitCounts(n, n_plus, n_left, n_left_plus)


def categorical_counts_vectorised(
    codes: np.ndarray, labels: np.ndarray, subset_mask: int
) -> SplitCounts:
    """Vectorised membership via bulk bit tests.

    The paper's SIMD version tests four 32-bit codes per instruction against
    the subset bitmask; the numpy analogue shifts the mask by the whole code
    column at once (masks up to 63 bits), falling back to a materialised
    membership table for wider domains.
    """
    if subset_mask < (1 << 63):
        goes_left = (subset_mask >> codes.astype(np.int64)) & 1 == 1
    else:
        cardinality = int(codes.max(initial=0)) + 1
        table = bitmask_membership_vector(subset_mask, cardinality)
        goes_left = table[codes.astype(np.int64)]
    positive = labels == 1
    n = codes.shape[0]
    n_plus = int(np.count_nonzero(positive))
    n_left = int(np.count_nonzero(goes_left))
    n_left_plus = int(np.count_nonzero(goes_left & positive))
    return SplitCounts(n, n_plus, n_left, n_left_plus)


def categorical_counts_mlpack(
    codes: np.ndarray, labels: np.ndarray, subset_mask: int
) -> SplitCounts:
    """mlpack-style categorical kernel (scalar test, vectorised sums)."""
    n = len(codes)
    assignment = np.empty(n, dtype=np.uint8)
    for index in range(n):
        assignment[index] = (subset_mask >> int(codes[index])) & 1
    left = assignment == 1
    n_plus = int(np.count_nonzero(labels == 1))
    n_left = int(np.count_nonzero(left))
    n_left_plus = int(np.count_nonzero(labels[left] == 1))
    return SplitCounts(n, n_plus, n_left, n_left_plus)


#: Kernel registries used by the 6.4.2 micro-benchmark and the equivalence
#: property tests.
NUMERIC_KERNELS = {
    "branching": numeric_counts_branching,
    "predicated": numeric_counts_predicated,
    "vectorised": numeric_counts_vectorised,
    "mlpack": numeric_counts_mlpack,
}

CATEGORICAL_KERNELS = {
    "branching": categorical_counts_branching,
    "predicated": categorical_counts_predicated,
    "vectorised": categorical_counts_vectorised,
    "mlpack": categorical_counts_mlpack,
}
