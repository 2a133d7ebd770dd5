"""The level kernels of ``native/train.c`` against their numpy oracle.

Random levels -- empty segments, non-split (leaf and maintenance) slots,
dropped children, numeric cuts, narrow subset masks and wide membership
tables, over uint8, uint16 and int64 code columns -- must route and count
byte for byte like :mod:`tests.training.level_oracle`. Corrupt levels must
raise :class:`LevelKernelError` and leave every guard byte past the output
buffers untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.training.level_kernel import LevelKernelError, count_level, route_level

from tests.training import level_oracle

DTYPES = (np.uint8, np.uint16, np.int64)
GUARD = 16
SENTINEL = 0xA5


@dataclass
class Level:
    codes: list[np.ndarray]
    labels: np.ndarray
    starts: np.ndarray
    n_values: list[int]
    numeric: np.ndarray


@dataclass
class Plan:
    feature: np.ndarray
    param: np.ndarray
    tables: np.ndarray
    left_start: np.ndarray
    right_start: np.ndarray
    n_out: int


@st.composite
def levels(draw) -> Level:
    """A numeric, a narrow categorical and a wide categorical feature, each
    in a drawn dtype, over drawn segment sizes (some empty) that may leave
    positions before the first and after the last segment."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_values = [
        draw(st.integers(1, 20)),
        draw(st.integers(2, 62)),
        draw(st.integers(63, 90)),
    ]
    dtypes = [draw(st.sampled_from(DTYPES)) for _ in n_values]
    sizes = draw(st.lists(st.integers(0, 14), max_size=8))
    lead, tail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    starts = np.asarray([lead, *(lead + np.cumsum(sizes, dtype=np.int64))], dtype=np.int64)
    n_positions = int(starts[-1]) + tail
    codes = [
        rng.integers(0, domain, size=n_positions).astype(dtype)
        for domain, dtype in zip(n_values, dtypes)
    ]
    labels = rng.integers(0, 2, size=n_positions).astype(np.uint8)
    return Level(codes, labels, starts, n_values, np.asarray([True, False, False]))


def goes_left(level: Level, slot: int, feature: int, param: int, tables) -> np.ndarray:
    segment = slice(int(level.starts[slot]), int(level.starts[slot + 1]))
    codes = level.codes[feature][segment].astype(np.int64)
    if level.numeric[feature]:
        return codes < param
    if level.n_values[feature] <= 62:
        return ((param >> codes) & 1).astype(bool)
    return tables[param + codes].astype(bool)


def lay_out(level: Level, feature, param, tables, kept) -> Plan:
    """Children laid out left then right in slot order; ``kept[slot]`` says
    which of a split slot's two children are routed."""
    n_slots = level.starts.size - 1
    left_start = np.full(n_slots, -1, dtype=np.int64)
    right_start = np.full(n_slots, -1, dtype=np.int64)
    cursor = 0
    for slot in np.flatnonzero(feature >= 0):
        left = goes_left(level, slot, int(feature[slot]), int(param[slot]), tables)
        sides = ((left_start, int(left.sum())), (right_start, int((~left).sum())))
        for (starts, size), keep in zip(sides, kept[slot]):
            if keep:
                starts[slot] = cursor
                cursor += size
    return Plan(feature, param, tables, left_start, right_start, cursor)


def make_plan(level: Level, seed: int) -> Plan:
    """Random plain splits: about a quarter of the slots are not splits and
    about a quarter of the children are dropped."""
    rng = np.random.default_rng(seed)
    n_slots = level.starts.size - 1
    feature = np.full(n_slots, -1, dtype=np.int64)
    param = np.zeros(n_slots, dtype=np.int64)
    tables: list[np.ndarray] = [np.zeros(0, dtype=bool)]
    offset = 0
    for slot in range(n_slots):
        if rng.random() < 0.25:
            continue
        split = int(rng.integers(0, len(level.codes)))
        domain = level.n_values[split]
        feature[slot] = split
        if level.numeric[split]:
            param[slot] = rng.integers(0, domain + 1)
        elif domain <= 62:
            param[slot] = rng.integers(0, 1 << domain)
        else:
            param[slot] = offset
            tables.append(rng.random(domain) < 0.5)
            offset += domain
    kept = rng.random((n_slots, 2)) >= 0.25
    return lay_out(level, feature, param, np.concatenate(tables), kept)


def guarded(shape, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A sentinel-filled buffer with GUARD extra elements and its view."""
    size = int(np.prod(shape))
    buffer = np.full(size + GUARD, SENTINEL, dtype=dtype)
    return buffer, buffer[:size].reshape(shape)


def route_outputs(level: Level, n_out: int):
    buffers, views = zip(*(guarded((n_out,), codes.dtype) for codes in level.codes))
    label_buffer, label_view = guarded((n_out,), np.uint8)
    return [*buffers, label_buffer], list(views), label_view


def run_route(route, level: Level, plan: Plan):
    buffers, out_codes, out_labels = route_outputs(level, plan.n_out)
    route(
        level.codes, level.labels, level.starts, level.n_values, level.numeric,
        plan.feature, plan.param, plan.tables, plan.left_start, plan.right_start,
        out_codes, out_labels,
    )
    return buffers


def count_outputs(level: Level):
    n_slots = level.starts.size - 1
    pairs = [guarded((n_slots, 2, domain), np.int64) for domain in level.n_values]
    node_buffer, node_view = guarded((n_slots, 2), np.int64)
    return [buffer for buffer, _ in pairs] + [node_buffer], [view for _, view in pairs], node_view


def run_counts(count, level: Level):
    buffers, counts, node_counts = count_outputs(level)
    count(level.codes, level.labels, level.starts, level.n_values, counts, node_counts)
    return buffers


def assert_guards_intact(buffers) -> None:
    for buffer in buffers:
        assert np.all(buffer[-GUARD:] == SENTINEL)


# ---------------------------------------------------------------------- #
# kernel == oracle
# ---------------------------------------------------------------------- #


@settings(max_examples=150, deadline=None)
@given(level=levels(), seed=st.integers(0, 2**32 - 1))
def test_route_matches_oracle_byte_for_byte(level, seed):
    plan = make_plan(level, seed)
    kernel = run_route(route_level, level, plan)
    oracle = run_route(level_oracle.route_level, level, plan)
    for ours, theirs in zip(kernel, oracle):
        assert ours.tobytes() == theirs.tobytes()


@settings(max_examples=150, deadline=None)
@given(level=levels())
def test_counts_match_oracle_byte_for_byte(level):
    kernel = run_counts(count_level, level)
    oracle = run_counts(level_oracle.count_level, level)
    for ours, theirs in zip(kernel, oracle):
        assert ours.tobytes() == theirs.tobytes()


def fixed_level(dtype=np.uint8) -> Level:
    rng = np.random.default_rng(5)
    n_values = [12, 6, 70]
    starts = np.asarray([0, 10, 10, 24, 44], dtype=np.int64)
    codes = [rng.integers(0, v, size=44).astype(dtype) for v in n_values]
    labels = rng.integers(0, 2, size=44).astype(np.uint8)
    return Level(codes, labels, starts, n_values, np.asarray([True, False, False]))


@pytest.mark.parametrize("dtype", DTYPES)
def test_every_split_kind_routes_like_the_oracle(dtype):
    level = fixed_level(dtype)
    tables = np.zeros(70, dtype=bool)
    tables[::3] = True
    # A numeric split keeping both children, an empty non-split slot, a
    # narrow mask dropping its left child, a wide table dropping its right.
    feature = np.asarray([0, -1, 1, 2], dtype=np.int64)
    param = np.asarray([5, 0, 0b101010, 0], dtype=np.int64)
    kept = [(True, True), (True, True), (False, True), (True, False)]
    plan = lay_out(level, feature, param, tables, kept)
    kernel = run_route(route_level, level, plan)
    assert np.all(kernel[-1][: plan.n_out] <= 1)  # every output label written
    for ours, theirs in zip(kernel, run_route(level_oracle.route_level, level, plan)):
        assert ours.tobytes() == theirs.tobytes()


# ---------------------------------------------------------------------- #
# corrupt levels
# ---------------------------------------------------------------------- #


def full_plan(level: Level) -> Plan:
    """Every slot a numeric split on feature 0 with both children kept."""
    n_slots = level.starts.size - 1
    return lay_out(
        level, np.zeros(n_slots, dtype=np.int64), np.full(n_slots, 6, dtype=np.int64),
        np.zeros(0, dtype=bool), np.ones((n_slots, 2), dtype=bool),
    )


def expect_rejected_route(level: Level, plan: Plan) -> None:
    buffers, out_codes, out_labels = route_outputs(level, plan.n_out)
    with pytest.raises(LevelKernelError):
        route_level(
            level.codes, level.labels, level.starts, level.n_values, level.numeric,
            plan.feature, plan.param, plan.tables, plan.left_start, plan.right_start,
            out_codes, out_labels,
        )
    # The route checks every destination before it writes: nothing moved.
    for buffer in buffers:
        assert np.all(buffer == SENTINEL)


def expect_rejected_counts(level: Level) -> None:
    buffers, counts, node_counts = count_outputs(level)
    with pytest.raises(LevelKernelError):
        count_level(level.codes, level.labels, level.starts, level.n_values,
                    counts, node_counts)
    assert_guards_intact(buffers)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("feature", [0, 1, 2])
def test_code_outside_its_domain_is_rejected(dtype, feature):
    level = fixed_level(dtype)
    level.codes[feature][25] = level.n_values[feature]
    expect_rejected_counts(level)
    if feature == 0:
        expect_rejected_route(level, full_plan(fixed_level(dtype)))


def test_negative_int64_code_is_rejected():
    level = fixed_level(np.int64)
    plan = full_plan(level)
    level.codes[0][3] = -1
    expect_rejected_counts(level)
    expect_rejected_route(level, plan)


def test_label_above_one_is_rejected():
    level = fixed_level()
    level.labels[40] = 2
    expect_rejected_counts(level)


@pytest.mark.parametrize(
    "starts", [[0, 10, 5, 30, 44], [0, 10, 10, 30, 45], [-1, 10, 10, 30, 44]]
)
def test_malformed_starts_are_rejected(starts):
    level = fixed_level()
    plan = full_plan(level)
    level.starts = np.asarray(starts, dtype=np.int64)
    expect_rejected_counts(level)
    expect_rejected_route(level, plan)


def test_destination_past_the_output_is_rejected():
    level = fixed_level()
    plan = full_plan(level)
    plan.right_start[-1] += 1
    expect_rejected_route(level, plan)


def test_membership_table_read_past_its_end_is_rejected():
    level = fixed_level()
    plan = full_plan(level)
    plan.feature[0] = 2
    plan.tables = np.zeros(69, dtype=bool)
    plan.param[0] = 0
    expect_rejected_route(level, plan)


def test_unknown_split_feature_is_rejected():
    level = fixed_level()
    plan = full_plan(level)
    plan.feature[1] = 3
    expect_rejected_route(level, plan)


def test_mismatched_arrays_are_rejected_before_the_kernel():
    level = fixed_level()
    level.codes[1] = level.codes[1].astype(np.int32)
    expect_rejected_counts(level)
    level = fixed_level()
    level.codes[2] = level.codes[2][:-1]
    expect_rejected_counts(level)
    level = fixed_level()
    plan = full_plan(level)
    plan.feature = plan.feature[:-1]
    expect_rejected_route(level, plan)
