"""Shared configuration for the benchmark harness.

Each ``test_*`` module regenerates one table/figure of the paper.
Heavyweight experiments (the 416-test Fig. 3 corpus) run once per
session via ``benchmark.pedantic(rounds=1)`` — the timing is reported,
and the *result shape* is asserted against the paper's reference.
"""


def pytest_collection_modifyitems(items):
    # keep benchmark ordering deterministic: tables first, then figures
    items.sort(key=lambda item: item.nodeid)
