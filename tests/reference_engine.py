"""Plain implementations kept as references for the engine and writers.

``cmra.mechanism.run_cmra`` runs through the lockstep clock loop that
also replays the deviation search's families.  The books on its clock
are rows of one ``BookRows`` state, recorded with one row record per
tick; its one block clock runs blocks of ticks with one closing test per
block, one tick long while several members are on the clock, and every
closer of one loop refines in one batched bisection.
``reference_run_cmra`` is the plain loop it replaced: two ``BidBook``
books, one full closing solve per tick, and one bisection per auction on
two ``BidBook`` copies per probe.

``cmra.mechanism`` logs one tick record per clock tick, and
``AuctionOutcome.rounds`` expands them into rows on access.
``reference_log_round`` is the row logger it replaced: one tuple per
headline and per additional bid, which ``reference_run_cmra`` keeps as
its outcome's plain list of rows.

``cmra.scenarios.write_round_log`` formats its CSV lines directly from
tick records.  ``reference_write_round_log`` is the ``csv.writer``
version it replaced, one line per row tuple.

``cmra.valuation.ValuationModel.truthful_demand`` finds an interior
demand with a bisection that writes u(x) - p out per family.
``reference_truthful_demand`` is the solve it replaced: ``_bisect`` on
``marginal(x) - p``, one lambda and one ``marginal`` call per step.

``cmra.strategies.CmraTruthful`` fills its headline and bid memos at a
price from one demand solve.  ``ReferenceCmraTruthful`` is the strategy
it replaced: the headline from ``truthful_demand``, the bids from
``indirect_surplus``, which solves the demand again.
"""

import csv
from dataclasses import replace

import numpy as np

from cmra.bidbook import BidBook
from cmra.mechanism import (_apply_round, _build_outcome, _closing_rows,
                            _max_price_outcome, solve_closing)
from cmra.scenarios import _fmt
from cmra.strategies import ClockTruthful
from cmra.valuation import NON_DECREASING, _bisect


def reference_run_cmra(strategy1, strategy2, config):
    """One auction from the start price, one ``solve_closing`` per tick."""
    strategies = (strategy1, strategy2)
    books = (BidBook(config.grid, config.money_scale),
             BidBook(config.grid, config.money_scale))
    log: list = []
    t = 0
    prev_price = None
    while True:
        price = config.start + t * config.eps
        if price > config.max_price + 1e-12:
            return replace(_max_price_outcome(config, []), rounds=log)
        base = (books[0].copy(), books[1].copy())
        emissions = [_apply_round(b, s, price) for b, s in zip(books, strategies)]
        result = solve_closing(books[0], books[1])
        if config.log_rounds:
            reference_log_round(log, t, price, emissions, result.closed,
                                result.r_star)
        if result.closed:
            if config.refine and prev_price is not None:
                price, books, result = _refine_close(
                    base, strategies, prev_price, price, books, config)
            return replace(_build_outcome(price, books, result, config, []),
                           rounds=log)
        prev_price = price
        t += 1


def reference_log_round(log, round_no, price, emissions, closed, r_star):
    """One tick's rows: ``(round, price, bidder, kind, k, amount, closed,
    r_star)`` per headline and per additional bid, bidder by bidder."""
    for bidder, (k, ks, amounts) in enumerate(emissions, start=1):
        log.append((round_no, price, bidder, "headline", k, None,
                    closed, r_star))
        if len(ks):
            log.extend([(round_no, price, bidder, "additional", kk, aa,
                         closed, r_star)
                        for kk, aa in zip(ks.tolist(), amounts.tolist())])


def _refine_close(base_books, strategies, lo, hi, hi_books, config):
    """Bisect the continuous closing price on (lo, hi].

    Non-closing probes accumulate into the books so recorded bids
    converge to their continuous-clock suprema below the closing price.
    A probe needs only the closing flag; the allocation is built for the
    final books alone.  Books at the final price that do not close (a
    strategy whose closing is not monotone in price) fall back to the
    clock tick's books.
    """
    lo_books = base_books
    while hi - lo > config.refine_tol:
        mid = 0.5 * (lo + hi)
        trial = (lo_books[0].copy(), lo_books[1].copy())
        for b, s in zip(trial, strategies):
            _apply_round(b, s, mid)
        if _closing_rows(trial[0].values, trial[0].has_bid,
                         trial[1].values, trial[1].has_bid)[2]:
            hi = mid
        else:
            lo, lo_books = mid, trial
    final_books = (lo_books[0].copy(), lo_books[1].copy())
    for b, s in zip(final_books, strategies):
        _apply_round(b, s, hi)
    final_result = solve_closing(final_books[0], final_books[1])
    if not final_result.closed:
        return hi, hi_books, solve_closing(*hi_books)
    return hi, final_books, final_result


def reference_truthful_demand(m, p):
    """Truthful demand of model ``m`` at price ``p``, one ``marginal``
    call per bisection step."""
    if p < 0:
        raise ValueError("price must be non-negative")
    lam = m.cap
    if m.regime == NON_DECREASING:
        return lam if m.value(lam) - p * lam > 0.0 else 0.0
    if m.marginal(lam) >= p:
        return lam
    if m.marginal(0.0) <= p and m.family != "power":
        return 0.0
    if m.family == "power" and m.value(lam) == 0.0:
        return 0.0
    return _bisect(lambda x: m.marginal(x) - p, 0.0 if m.family != "power"
                   else 1e-300, lam)


class ReferenceCmraTruthful(ClockTruthful):
    """Truthful headline demands plus surplus-indifferent additional bids,
    each method solving the demand itself."""

    def __init__(self, model, grid):
        super().__init__(model, grid)
        self._ks = np.arange(grid.cap_index + 1, dtype=np.int64)
        self._shares = self._ks / grid.n
        self._values = np.array([model.value(x) for x in self._shares])

    def additional_bid_arrays(self, p):
        v = self.model.indirect_surplus(p)
        mask = self._values >= v - 1e-12
        amounts = np.minimum(self._values[mask] - v, p * self._shares[mask])
        return self._ks[mask], np.maximum(amounts, 0.0)


def reference_write_round_log(path, rounds, grid):
    """The round-log CSV through ``csv.writer``, one row per log entry."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "clock_price", "bidder", "kind", "quantity",
                    "amount", "closed_flag", "r_star"])
        for rec in rounds:
            rnd, price, bidder, kind, k, amount, closed, r_star = rec
            w.writerow([rnd, _fmt(price), bidder, kind, _fmt(grid.share(k)),
                        _fmt(amount), int(bool(closed)), _fmt(r_star)])
