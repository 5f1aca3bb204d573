#!/usr/bin/env python3
"""Micro-benchmark of the one-tick engine step: a book's record and the
closing solve.  Prints one JSON line of microseconds per call.

    python3 tools/bench_record.py

Measured, each as the minimum over 7 runs:

- ``bidbook_round_us``: 60-round one-row ``BidBook`` books at n = 20
  (cap 0.75), recorded clamped round by round, 20 books a run, per
  round.  The headline falls one point every fourth round, so drops
  write segments and later bids meet activity caps.  ``headline``
  rounds bid the headline only; ``bids`` rounds add 11 bids, some of
  them over their limit.
- ``record_one_tick_us``: one ``BookRows.record`` of one tick on 2 and
  on 30 rows that hold 10 earlier rounds, each row with a headline and
  11 bids, as a refine probe records.
- ``closing_us``: ``closing_from_arrays`` on two linear-price books at
  n = 20 and n = 500 that close with every split pair tied.

The engine is imported from the ``src`` directory beside this one.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmra import BidBook, QuantityGrid, closing_from_arrays  # noqa: E402
from cmra.bidbook import BookRows  # noqa: E402

RUNS = 7
ROUNDS = 60
BIDS = 11


def _best(fn, calls: int) -> float:
    """Microseconds per call of ``fn``, the minimum over ``RUNS`` runs of
    ``calls`` calls; ``fn(None)`` prepares a run and ``fn(prepared)``
    makes its calls."""
    best = float("inf")
    for _ in range(RUNS):
        prepared = fn(None)
        start = time.perf_counter()
        fn(prepared)
        best = min(best, time.perf_counter() - start)
    return best / calls * 1e6


def _rounds(grid: QuantityGrid, bids: int, rounds: int, seed: int) -> list:
    """``rounds`` clamped emissions ``(price, k, ks, amounts)``: a falling
    headline, and ``bids`` distinct points per round with amounts up to
    1.2 times their linear price."""
    rng = np.random.default_rng(seed)
    out = []
    for j in range(rounds):
        price = 0.02 * (j + 1)
        k = max(grid.cap_index - j // 4, 0)
        ks = np.sort(rng.choice(grid.cap_index + 1, bids, replace=False))
        amounts = rng.uniform(0, 1.2, bids) * price * ks / grid.n
        out.append((price, k, ks.astype(np.int64), amounts))
    return out


def bidbook_round_us(bids: int, books: int = 20) -> float:
    grid = QuantityGrid(20, 0.75)
    rounds = _rounds(grid, bids, ROUNDS, seed=bids)

    def run(fresh):
        if fresh is None:
            return [BidBook(grid) for _ in range(books)]
        for book in fresh:
            for price, k, ks, amounts in rounds:
                book.record_round_indexed(price, k, ks, amounts, clamp=True)

    return _best(run, books * ROUNDS)


def record_one_tick_us(count: int, calls: int = 50) -> float:
    grid = QuantityGrid(20, 0.75)
    history = [_rounds(grid, BIDS, 11, seed=r) for r in range(count)]
    state = BookRows(grid, count=count)
    for j in range(10):
        state.record([[history[r][j][0] for r in range(count)]],
                     [[history[r][j][1:] for r in range(count)]])
    prices = [[history[r][10][0] for r in range(count)]]
    emissions = [[history[r][10][1:] for r in range(count)]]

    def run(copies):
        if copies is None:
            return [state.copy() for _ in range(calls)]
        for rows in copies:
            rows.record(prices, emissions)

    return _best(run, calls)


def closing_us(n: int, calls: int = 50) -> float:
    grid = QuantityGrid(n, 0.75)
    k = np.arange(grid.n + 1)
    values = np.floor(0.9 * k / grid.n * 10 ** 6 + 0.5).astype(np.int64)
    mask = k <= grid.cap_index
    result = closing_from_arrays(values, mask, values, mask, grid.n)
    assert result.closed, result

    def run(ready):
        if ready is None:
            return True
        for _ in range(calls):
            closing_from_arrays(values, mask, values, mask, grid.n)

    return _best(run, calls)


def main() -> int:
    result = {
        "bidbook_round_us": {"headline": bidbook_round_us(0),
                             "bids": bidbook_round_us(BIDS)},
        "record_one_tick_us": {str(r): record_one_tick_us(r)
                               for r in (2, 30)},
        "closing_us": {str(n): closing_us(n) for n in (20, 500)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    for key, value in result.items():
        if isinstance(value, dict):
            result[key] = {k: round(v, 2) for k, v in value.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
