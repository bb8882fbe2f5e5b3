"""Self-check of the trace arithmetic: self time = duration - children - leaf calls.

Run it with ``python3 bench/selfcheck.py``; the traced benchmark run calls
``check()`` before it reports.
"""

from __future__ import annotations

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Span, self_times  # noqa: E402


def check() -> None:
    """Raise ValueError when self times computed on a hand-built trace are off."""
    # root [0, 10] holds leaf calls worth 4 s in all; child [2, 6] holds 1.5 s
    # of them, grandchild [3, 4] holds 0.5 s of those.
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0, 0.0, 4.0),
        Span("search.run_scan", 2.0, 6.0, 0, 0, 1.0, 2.5),
        Span("groups.GroupTables.__init__", 3.0, 4.0, 1, 0, 1.2, 1.7),
        Span("sequences.subsums", 7.0, 8.0, 0, 0, 3.0, 3.0),
    ]
    expected = [
        10.0 - 4.0 - 1.0 - (4.0 - 1.5 - 0.0),   # root: 10 - children 5 - own leaf 2.5
        4.0 - 1.0 - (1.5 - 0.5),                # child: 4 - grandchild 1 - own leaf 1
        1.0 - 0.5,                              # grandchild: 1 - own leaf 0.5
        1.0,                                    # leaf-free, childless span
    ]
    got = self_times(spans)
    for name, want, have in zip((s.name for s in spans), expected, got):
        if not math.isclose(want, have, abs_tol=1e-12):
            raise ValueError(f"self time of {name}: expected {want}, computed {have}")
    # every second of a root span is either some span's self time or a leaf call
    if not math.isclose(sum(got) + 4.0, 10.0, abs_tol=1e-12):
        raise ValueError("self times and leaf time do not add up to the root span")


def check_trace(spans: list[Span]) -> None:
    """The same conservation law on a recorded trace, per root span."""
    selfs = self_times(spans)
    owner = []
    for s in spans:
        owner.append(len(owner) if s.parent < 0 else owner[s.parent])
    totals: dict[int, float] = {}
    for i, value in enumerate(selfs):
        totals[owner[i]] = totals.get(owner[i], 0.0) + value
    for root, value in totals.items():
        if not math.isclose(value, spans[root].net, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(f"self times under span {root} sum to {value}, "
                             f"not its net duration {spans[root].net}")


if __name__ == "__main__":
    check()
    print("trace arithmetic: ok")
