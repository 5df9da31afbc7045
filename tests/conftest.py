import contextlib
from unittest import mock

import numpy as np
import pytest

from hamsearch import CodeDataset, SyntheticSpec, gen_synthetic, subcode

# pass/fail lines recorded by the acceptance tests; replayed after the run
# so they show up even without -s
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def bitwise_distance(a_words: np.ndarray, b_words: np.ndarray) -> int:
    """Independent per-bit comparison oracle: unpack both codes to individual
    bits and count positions that differ. No XOR/popcount shortcut."""
    a_bits = np.unpackbits(np.asarray(a_words, dtype=np.uint64).view(np.uint8), bitorder="little")
    b_bits = np.unpackbits(np.asarray(b_words, dtype=np.uint64).view(np.uint8), bitorder="little")
    return int(np.count_nonzero(a_bits != b_bits))


def python_loop_distance(a_words, b_words, width_bits: int) -> int:
    """Pure-Python bit loop; the slowest, most independent reference."""
    count = 0
    for i in range(width_bits):
        abit = (int(a_words[i // 64]) >> (i % 64)) & 1
        bbit = (int(b_words[i // 64]) >> (i % 64)) & 1
        if abit != bbit:
            count += 1
    return count


def random_dataset(count: int, width_bits: int, seed: int, **kw) -> CodeDataset:
    return gen_synthetic(SyntheticSpec(count=count, width_bits=width_bits, seed=seed, **kw))


def forced_plan(k_of):
    """A stand-in for the filter's planner that reads the k_of(s, radius)
    shortest of a pass's s lists, absent ones first, in term order."""

    def plan(lengths, radius, postings_bytes):
        order = sorted(range(len(lengths)), key=lengths.__getitem__)
        return sorted(order[: k_of(len(lengths), radius)])

    return plan


def filter_plans():
    """The filter's own plan, and its plan forced to each end of the range
    of k it may choose: k = r + 1 and k = s, the all-lists filter."""
    return {
        "own": contextlib.nullcontext(),
        "k=r+1": mock.patch.object(subcode, "_plan", forced_plan(lambda s, r: r + 1)),
        "k=s": mock.patch.object(subcode, "_plan", forced_plan(lambda s, r: s)),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(0xBEEF)
