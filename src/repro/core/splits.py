"""Split descriptions and the split statistics driving Gini gain.

For binary classification a split evaluation is fully described by four
counts (Section 5 of the paper): the sample size ``n``, the number of
positive records ``n_plus``, the records assigned to the left partition
``n_left`` and the positives among them ``n_left_plus``. :class:`SplitStats`
holds exactly these and exposes the Gini gain plus the single-record removal
updates the robustness analysis and the unlearning procedure apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataprep.dataset import Dataset, FeatureSchema
from repro.vectorized.kernels import (
    SplitCounts,
    categorical_counts_vectorised,
    numeric_counts_vectorised,
)
from repro.vectorized.masks import bitmask_membership_vector


def gini_impurity(n: int, n_plus: int) -> float:
    """Binary Gini impurity ``2 p (1 - p)`` of a partition.

    Empty partitions are defined to have zero impurity, so that degenerate
    splits contribute nothing.
    """
    if n <= 0:
        return 0.0
    p = n_plus / n
    return 2.0 * p * (1.0 - p)


def _gini_impurity_arrays(n: np.ndarray, n_plus: np.ndarray) -> np.ndarray:
    """Elementwise :func:`gini_impurity` with the same operation order."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(n > 0, n_plus / np.maximum(n, 1), 0.0)
    return 2.0 * p * (1.0 - p)


def gini_gain_arrays(
    n: np.ndarray,
    n_plus: np.ndarray,
    n_left: np.ndarray,
    n_left_plus: np.ndarray,
) -> np.ndarray:
    """Vectorised :meth:`SplitStats.gini_gain` over count arrays.

    The frontier trainer scores every candidate of a whole tree level in
    one call. Operations are ordered exactly as in the scalar method, so
    each element is bit-for-bit the value ``SplitStats(...).gini_gain()``
    would produce for the same counts.
    """
    n = np.asarray(n, dtype=np.float64)
    n_plus = np.asarray(n_plus, dtype=np.float64)
    n_left = np.asarray(n_left, dtype=np.float64)
    n_left_plus = np.asarray(n_left_plus, dtype=np.float64)
    n_right = n - n_left
    n_right_plus = n_plus - n_left_plus
    before = _gini_impurity_arrays(n, n_plus)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_left = np.where(n > 0, n_left / np.maximum(n, 1), 0.0)
        w_right = np.where(n > 0, n_right / np.maximum(n, 1), 0.0)
    after = w_left * _gini_impurity_arrays(n_left, n_left_plus) + (
        w_right * _gini_impurity_arrays(n_right, n_right_plus)
    )
    return np.where(n > 0, before - after, 0.0)


@dataclass
class SplitStats:
    """Mutable label counts of a split, updated during unlearning.

    Invariants (checked by :meth:`validate`): all derived quadrant counts
    ``n_left_plus``, ``n_left_minus``, ``n_right_plus``, ``n_right_minus``
    are non-negative.

    The Gini gain and the quadrant tuple are cached *keyed by the four
    counts*: maintenance-heavy unlearning re-scores every variant of every
    visited maintenance node per deletion, and most variants' statistics
    are unchanged since the last re-score. A cached value is only returned
    while the counts still equal the key it was computed under, so any
    mutation — :meth:`remove` or direct field assignment — transparently
    forces a recompute. (A ``__setattr__`` hook would invalidate eagerly
    instead, but it taxes every write and the robustness weakening loop
    creates and mutates millions of these objects; measured, it slows
    recursive tree growth ~2.5x.)

    ``__slots__`` (counts plus the cache fields) keeps the millions of
    instances the robustness analysis creates small. Instances restored
    from pre-``__slots__`` pickles (plain ``__dict__`` state) keep loading
    through :meth:`__setstate__`, which also fills in missing cache
    attributes.

    Once a model's write pack is built, its statistics are *bound* to the
    pack's count store (:mod:`repro.core.writes`): the counts become
    properties over the store row at ``_at``, which the native write
    kernel updates in place. Unbound instances never set ``_at``.
    """

    __slots__ = (
        "n",
        "n_plus",
        "n_left",
        "n_left_plus",
        "_gain_key",
        "_gain_cache",
        "_quadrants_cache",
        "_at",
    )

    n: int
    n_plus: int
    n_left: int
    n_left_plus: int

    def __post_init__(self) -> None:
        self._gain_key = None
        self._gain_cache = 0.0
        self._quadrants_cache = None

    def __setstate__(self, state) -> None:
        # Slotted pickles arrive as a (dict_state, slots_state) pair; old
        # pre-__slots__ pickles as a plain __dict__ that may predate the
        # cache fields. Default the caches first, then apply whatever the
        # state carries.
        self._gain_key = None
        self._gain_cache = 0.0
        self._quadrants_cache = None
        parts = state if isinstance(state, tuple) else (state,)
        for part in parts:
            if part:
                for name, value in part.items():
                    setattr(self, name, value)

    def invalidate_caches(self) -> None:
        """Drop cached derived values (count keys already guard staleness)."""
        self._gain_key = None
        self._quadrants_cache = None

    # ------------------------------------------------------------------ #
    # derived counts
    # ------------------------------------------------------------------ #

    @property
    def n_minus(self) -> int:
        return self.n - self.n_plus

    @property
    def n_right(self) -> int:
        return self.n - self.n_left

    @property
    def n_right_plus(self) -> int:
        return self.n_plus - self.n_left_plus

    @property
    def n_left_minus(self) -> int:
        return self.n_left - self.n_left_plus

    @property
    def n_right_minus(self) -> int:
        return self.n_right - self.n_right_plus

    def quadrants(self) -> tuple[int, int, int, int]:
        """``(left+, left-, right+, right-)`` label counts (cached)."""
        left_plus = self.n_left_plus
        left_minus = self.n_left - left_plus
        right_plus = self.n_plus - left_plus
        right_minus = self.n - self.n_left - right_plus
        cached = self._quadrants_cache
        if (
            cached is not None
            and cached[0] == left_plus
            and cached[1] == left_minus
            and cached[2] == right_plus
            and cached[3] == right_minus
        ):
            return cached
        cached = (left_plus, left_minus, right_plus, right_minus)
        self._quadrants_cache = cached
        return cached

    def min_quadrant(self) -> int:
        """Smallest of the four quadrant counts (greedy precondition)."""
        return min(self.quadrants())

    def validate(self) -> None:
        if min(self.n, self.n_plus, self.n_left, self.n_left_plus) < 0:
            raise ValueError(f"negative base count in {self}")
        if self.min_quadrant() < 0 or self.n_minus < 0:
            raise ValueError(f"inconsistent split statistics {self}")

    @classmethod
    def from_counts(cls, counts: SplitCounts) -> "SplitStats":
        return cls(
            n=counts.n,
            n_plus=counts.n_plus,
            n_left=counts.n_left,
            n_left_plus=counts.n_left_plus,
        )

    def copy(self) -> "SplitStats":
        return SplitStats(self.n, self.n_plus, self.n_left, self.n_left_plus)

    # ------------------------------------------------------------------ #
    # Gini gain
    # ------------------------------------------------------------------ #

    def gini_gain(self) -> float:
        """Reduction in Gini impurity achieved by the split (Section 3).

        Cached keyed by the four counts; ``rescore()`` during
        maintenance-heavy unlearning recomputes gains per variant per
        deletion, and the cache turns re-scores of untouched statistics
        into a four-int comparison.
        """
        key = (self.n, self.n_plus, self.n_left, self.n_left_plus)
        if key == self._gain_key:
            return self._gain_cache
        if self.n <= 0:
            value = 0.0
        else:
            before = gini_impurity(self.n, self.n_plus)
            w_left = self.n_left / self.n
            w_right = self.n_right / self.n
            after = w_left * gini_impurity(self.n_left, self.n_left_plus) + (
                w_right * gini_impurity(self.n_right, self.n_right_plus)
            )
            value = before - after
        self._gain_cache = value
        self._gain_key = key
        return value

    @property
    def splits_data(self) -> bool:
        return 0 < self.n_left < self.n

    # ------------------------------------------------------------------ #
    # single-record removal (robustness analysis + unlearning)
    # ------------------------------------------------------------------ #

    def can_remove(self, positive: bool, left: bool) -> bool:
        """Whether a record with this label/side configuration exists."""
        if positive and left:
            return self.n_left_plus > 0
        if positive and not left:
            return self.n_right_plus > 0
        if not positive and left:
            return self.n_left_minus > 0
        return self.n_right_minus > 0

    def remove(self, positive: bool, left: bool) -> None:
        """Remove one record in place; raises if none exists."""
        if not self.can_remove(positive, left):
            raise ValueError(
                f"cannot remove (positive={positive}, left={left}) from {self}"
            )
        self.n -= 1
        if positive:
            self.n_plus -= 1
        if left:
            self.n_left -= 1
            if positive:
                self.n_left_plus -= 1

    def after_removal(self, positive: bool, left: bool) -> "SplitStats":
        """A copy with one record removed."""
        updated = self.copy()
        updated.remove(positive, left)
        return updated


# --------------------------------------------------------------------- #
# split descriptions
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class NumericSplit:
    """``code < cut`` goes left; codes are global quantile buckets."""

    feature: int
    cut: int

    def goes_left_value(self, value: int) -> bool:
        return value < self.cut

    def goes_left_column(self, codes: np.ndarray) -> np.ndarray:
        return codes < self.cut

    def count(self, codes: np.ndarray, labels: np.ndarray) -> SplitStats:
        counts = numeric_counts_vectorised(codes, labels, self.cut)
        return SplitStats.from_counts(counts)

    def describe(self, schema: FeatureSchema) -> str:
        return f"{schema.name} < bucket[{self.cut}]"


@dataclass(frozen=True)
class CategoricalSplit:
    """``code in subset`` goes left; the subset is stored as a bitmask.

    Python integers are arbitrary precision, so the mask representation works
    for any cardinality; the vectorised column test materialises a boolean
    membership table (the analogue of the paper's uint32 SIMD path for
    cardinalities up to 32 and its scalar fallback above).
    """

    feature: int
    subset_mask: int
    cardinality: int

    def __post_init__(self) -> None:
        if self.subset_mask <= 0:
            raise ValueError("categorical subset must be non-empty")
        if self.subset_mask >= (1 << self.cardinality) - 1:
            raise ValueError("categorical subset must be a proper subset")

    def goes_left_value(self, value: int) -> bool:
        return bool((self.subset_mask >> value) & 1)

    def membership_table(self) -> np.ndarray:
        """The split's materialised goes-left lookup table (per instance).

        Built once on first use and cached **on the split object** -- not in
        a process-global cache -- so the table is a plain per-model array:
        it travels with the model through ``deepcopy``/``fork``/``pickle``
        (no cold-cache stall in freshly spawned serving processes) and can
        never alias rows across models. Pack building pre-materialises it
        for every categorical slot. The array is read-only.
        """
        table = getattr(self, "_membership", None)
        if table is None:
            table = bitmask_membership_vector(self.subset_mask, self.cardinality)
            # Frozen dataclass: the cache slot is set through object.
            # __setattr__; it is not a field, so equality/repr ignore it.
            object.__setattr__(self, "_membership", table)
        return table

    def goes_left_column(self, codes: np.ndarray) -> np.ndarray:
        return self.membership_table()[codes.astype(np.int64)]

    def count(self, codes: np.ndarray, labels: np.ndarray) -> SplitStats:
        counts = categorical_counts_vectorised(codes, labels, self.subset_mask)
        return SplitStats.from_counts(counts)

    def describe(self, schema: FeatureSchema) -> str:
        members = [str(code) for code in range(self.cardinality) if self.goes_left_value(code)]
        return f"{schema.name} in {{{', '.join(members)}}}"


Split = NumericSplit | CategoricalSplit


def count_split(dataset: Dataset, rows: np.ndarray, split: Split) -> SplitStats:
    """Evaluate a split on a row subset of a dataset."""
    codes = dataset.column(split.feature)[rows]
    labels = dataset.labels[rows]
    return split.count(codes, labels)
