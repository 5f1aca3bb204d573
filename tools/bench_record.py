#!/usr/bin/env python3
"""Micro-benchmark of the one-tick engine step: a book's record and the
closing solve, of the refine that finishes every close, and of the
deviation search's pair screens.  Prints one JSON line of microseconds
per call.

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
- ``block_us``: one 32-tick ``mechanism._block`` of one cmra-truthful
  member against its opponent, as ``auction-batch`` runs them: power
  valuations at n = 20 (cap 0.75) and quadratic ones at n = 500 (cap
  0.9), clock step 0.001, from tick 128 on books of the ticks before,
  with warm emission memos; the block closes on none of its ticks.
- ``refine_us``: one ``mechanism._refine_closers`` call on the closers
  of a lockstep run of 1 and of 64 cmra-truthful members at n = 20
  (power valuations, cap 0.75, clock step 0.005) against one opponent in
  seat 0, and of 64 members split over two opponents and both seats
  (``64-split``): their bisections, the record at their final prices
  and the solve.
- ``screen_us``: one ``equilibrium._PairScreen`` and both of its screens
  (single bids, then drops) with the default ``DeviationFamily`` and the
  search's cutoff, on one type pair: the top type of the support
  deviating against the bottom one, on a clock step of 0.005.
  ``expost-screen`` is constant play on quadratic valuations at n = 20
  (cap 0.9, maximum price 1.5), ``expost-replay`` cmra-truthful play on
  power valuations at n = 20 (cap 0.75, maximum price 1.6), as in the
  benchmark workloads of those names.  The ladder and the baseline are
  built outside the timed call.

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

from cmra import (AuctionConfig, BidBook, MarketEnv,  # noqa: E402
                  QuantityGrid, ValuationModel, closing_from_arrays,
                  equilibrium, mechanism, run_cmra)
from cmra.bidbook import BookRows  # noqa: E402
from cmra.strategies import STRATEGY_TAGS  # noqa: E402

RUNS = 7
ROUNDS = 60
BIDS = 11
TOL = 1e-4  # check_expost's default tolerance; the screens cut at half


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


def block_us(n: int, calls: int = 5, start: int = 128) -> float:
    if n == 20:
        grid, top = QuantityGrid(20, 0.75), 2.0
        models = [ValuationModel.power(2.0, 0.75, th, (0.1, 1.0))
                  for th in (0.4, 0.7)]
    else:
        grid, top = QuantityGrid(n, 0.9), 1.4
        models = [ValuationModel.quadratic(th, 0.5, 0.9, (1.05, 1.25))
                  for th in (1.1, 1.2)]
    config = AuctionConfig(grid=grid, eps=1e-3, max_price=top,
                           log_rounds=False)
    member, opponent = (STRATEGY_TAGS["cmra-truthful"](m, grid)
                        for m in models)
    prices = [config.price(t) for t in range(start)]
    state = BookRows(grid, config.money_scale, 2)
    state.record(prices, [[mechanism._emit(member, p),
                           mechanism._emit(opponent, p)] for p in prices])

    def run(copies):
        if copies is None:
            return [state.copy() for _ in range(calls)]
        for rows in copies:
            ticks, closers, _ = mechanism._block(
                [0], [0], [1], [member, opponent], rows, start, 32, config,
                [[]])
            assert ticks == 32 and not closers, (ticks, closers)

    return _best(run, calls)


def refine_us(count: int, split: bool = False) -> float:
    grid = QuantityGrid(20, 0.75)
    config = AuctionConfig(grid=grid, eps=5e-3, max_price=2.0,
                           log_rounds=False)

    def truthful(theta):
        return STRATEGY_TAGS["cmra-truthful"](
            ValuationModel.power(2.0, 0.75, float(theta), (0.1, 1.0)), grid)
    members = [truthful(th) for th in np.linspace(0.2, 0.9, count)]
    # Split: member k plays against opponent k % 2, in seat k // 2 % 2.
    opponents = [truthful(0.5), truthful(0.6)] if split else [truthful(0.5)]
    # The closers are those the loop hands to its one refine call.
    captured = []
    refine = mechanism._refine_closers

    def capture(*args):
        captured.append(args)
        return refine(*args)
    mechanism._refine_closers = capture
    try:
        mechanism._run_lockstep(
            members, [0] * count,
            [opponents[k % len(opponents)] for k in range(count)],
            {0: BookRows(grid, config.money_scale)}, [0] * count,
            [0] * count, [k // 2 % 2 if split else 0 for k in range(count)],
            config)
    finally:
        mechanism._refine_closers = refine
    (closers, *rest), = captured
    assert len(closers) == count

    def run(ready):
        if ready is None:
            return True
        refine(closers, *rest)

    return _best(run, 1)


def screen_us(workload: str) -> float:
    # The deviator is the support's top type, its opponent the bottom one.
    if workload == "expost-screen":
        profile, cap, top, support = "constant", 0.9, 1.5, (1.05, 1.25)
        dev, opp = (ValuationModel.quadratic(th, 0.5, cap, support)
                    for th in support[::-1])
    else:
        profile, cap, top, support = "cmra-truthful", 0.75, 1.6, (0.1, 1.0)
        dev, opp = (ValuationModel.power(2.0, cap, th, support)
                    for th in support[::-1])
    grid = QuantityGrid(20, cap)
    config = AuctionConfig(grid=grid, eps=5e-3, max_price=top,
                           log_rounds=False)
    scale, family = config.money_scale, equilibrium.DeviationFamily()
    prices = config.price(np.arange(config.ticks))
    t_hats, drop_ticks = (
        sorted({int(round(i)) for i in np.linspace(0, config.ticks - 1, m)})
        for m in (family.n_submit_prices, family.n_drop_prices))
    make = STRATEGY_TAGS[profile]
    ladder = equilibrium._Ladder(
        [equilibrium.HeadlineOnly(make(dev, grid)), make(opp, grid)],
        prices, grid, scale, cap_ticks=t_hats)
    u_dev = np.array([dev.value(grid.share(k)) for k in range(grid.n + 1)])
    base = run_cmra(make(dev, grid), make(opp, grid),
                    MarketEnv((dev, opp), grid.cap), config
                    ).surplus((dev, opp))[0]

    def run(ready):
        if ready is None:
            return True
        screen = equilibrium._PairScreen(ladder, 0, 1, prices, grid, scale,
                                         u_dev)
        screen.screen_single_bids(family, t_hats, base, TOL / 2)
        screen.screen_drops(family, drop_ticks, base, TOL / 2)

    return _best(run, 1)


def main() -> int:
    result = {
        "bidbook_round_us": {"headline": bidbook_round_us(0),
                             "bids": bidbook_round_us(BIDS)},
        "record_one_tick_us": {str(r): record_one_tick_us(r)
                               for r in (2, 30)},
        "closing_us": {str(n): closing_us(n) for n in (20, 500)},
        "block_us": {str(n): block_us(n) for n in (20, 500)},
        "refine_us": {"1": refine_us(1), "64": refine_us(64),
                      "64-split": refine_us(64, split=True)},
        "screen_us": {w: screen_us(w) for w in ("expost-screen",
                                                "expost-replay")},
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
