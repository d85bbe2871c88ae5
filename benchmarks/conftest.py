"""Shared helpers for the benchmark suite.

The paper's claims that a stock sweep campaign measures are rows of the
reproduction scorecard (``repro sweep --preset NAME``,
``docs/reproduction.md``), not benchmarks.  What stays here is the
perf gates (engine scale and smoke, service steady state, sweep
scaling, trace overhead, the multisignature memo) and the paper checks
that are not yet rows, e.g. Figures 8–9's phase timelines
(``bench_fig8_herlihy_phases.py``), which need per-contract timestamps
no outcome artifact carries.  Each prints its rows so the output can be
compared against the paper side by side; the pytest-benchmark fixture
wraps the measured portion.
"""

import json
import os

import pytest


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render a paper-style table to stdout."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    line = " | ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-+-".join("-" * w for w in widths))
    for row in rows:
        print(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))


# One campaign per name and benchmark run: the first recorded point
# creates it, later points (in this process) append to it, and successive
# runs of the suite form the perf trajectory `repro compare` diffs.
_CAMPAIGNS: dict[str, list[int]] = {}


def record_store_timing(campaign: str, name: str, coords: dict, entry: dict) -> None:
    """Append one timing row to the ``BENCH_STORE_DB`` campaign
    database, if set, as the next point of this run's ``campaign``."""
    db = os.environ.get("BENCH_STORE_DB")
    if not db:
        return
    from repro.store import CampaignStore

    os.makedirs(os.path.dirname(db) or ".", exist_ok=True)
    with CampaignStore(db) as store:
        if campaign not in _CAMPAIGNS:
            _CAMPAIGNS[campaign] = [store.create_campaign(campaign, kind="bench"), 0]
        campaign_id, index = _CAMPAIGNS[campaign]
        _CAMPAIGNS[campaign][1] += 1
        store.append_point(
            campaign_id,
            index,
            name=name,
            coords=coords,
            row={"index": index, **entry},
            artifact=json.dumps(entry, sort_keys=True),
        )


@pytest.fixture
def table_printer():
    return print_table
