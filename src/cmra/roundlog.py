"""The round log of one auction run, kept as one record per clock tick.

The engine logs a clock tick as one *tick record* ``(round, price,
emissions, closed, r_star)``: ``emissions`` holds each bidder's
``(headline_k, ks, amounts)`` in bidder order, with the arrays the
strategy returned (memoized emissions are read-only, so a held record
cannot change), ``closed`` is the tick's closing flag and ``r_star``
its maximal revenue in money units, or None.  A tick costs one record
whatever the number of bids.

:class:`RoundLog` reads the records as rows, one per submission, and
``cmra.scenarios.write_round_log`` writes them as CSV lines without
building the rows.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Sequence
from functools import cached_property
from itertools import accumulate

__all__ = ["RoundLog"]


def _tick_rows(tick) -> list:
    """A tick record's rows: each bidder's headline, then its bids."""
    rnd, price, emissions, closed, r_star = tick
    rows = []
    for bidder, (k, ks, amounts) in enumerate(emissions, start=1):
        rows.append((rnd, price, bidder, "headline", k, None, closed, r_star))
        rows += [(rnd, price, bidder, "additional", kk, aa, closed, r_star)
                 for kk, aa in zip(ks.tolist(), amounts.tolist())]
    return rows


class RoundLog(Sequence):
    """A run's round log: a read-only sequence of rows built on access.

    A row is ``(round, price, bidder, kind, k, amount, closed, r_star)``,
    ``kind`` being ``"headline"`` (``amount`` None) or ``"additional"``;
    a tick gives each bidder's headline row followed by one row per
    additional bid, bidder 1 first.  ``ticks`` holds the tick records
    the rows are built from.  A log equals another log or a list with
    the same rows.
    """

    def __init__(self, ticks=()):
        self.ticks = tuple(ticks)

    @cached_property
    def _ends(self) -> list:
        """Per tick, the number of rows up to its end."""
        return list(accumulate(sum(1 + len(ks) for _, ks, _ in tick[2])
                               for tick in self.ticks))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self):
        for tick in self.ticks:
            yield from _tick_rows(tick)

    def __getitem__(self, index):
        ends = self._ends
        if isinstance(index, slice):
            want = range(*index.indices(len(self)))
            if not want:
                return []
            lo, hi = sorted((want[0], want[-1]))
            first, last = bisect_right(ends, lo), bisect_right(ends, hi)
            base = ends[first - 1] if first else 0
            rows = [row for tick in self.ticks[first:last + 1]
                    for row in _tick_rows(tick)]
            return [rows[i - base] for i in want]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("round-log row index out of range")
        t = bisect_right(ends, i)
        return _tick_rows(self.ticks[t])[i - (ends[t - 1] if t else 0)]

    def __eq__(self, other):
        if isinstance(other, (RoundLog, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RoundLog({len(self.ticks)} ticks, {len(self)} rows)"
