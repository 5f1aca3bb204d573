"""Plain implementations kept as references for the engine and writers.

``cmra.mechanism.run_cmra`` runs through the lockstep clock loop that
also replays the deviation search's families.  The books on its clock
are rows of one ``BookRows`` state, recorded with one record per block
of ticks; its one block clock runs blocks of ticks with one closing test
per block, whose length doubles from one tick after each join and close
within a cell budget, and every closer of one loop refines in one batched
bisection.
``reference_run_cmra`` is the plain loop it replaced: two books, one
full closing solve per tick, and one bisection per auction on two book
copies per probe.  It records on ``ReferenceBidBook``, one book at a
time, checking and folding bids one by one in plain Python where the
engine's one record rule, ``BookRows.record``, works on arrays of rows;
no reference shares record code with the engine.

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

``cmra.mechanism.closing_from_arrays`` picks a closed book's allocation
in O(n) from side 2's running maximum.  ``reference_choose_allocation``
is the loop it replaced: for every side-1 bid, the largest side-2 point
that completes a revenue-maximizing pair, and the best key over them.
``reference_closing_rows`` is the closing test as it was before it read
side 2's best single bid from its running maximum; both return the same
values, the negative "does not exist" ones included.

``cmra.strategies.CmraTruthful`` fills its headline and bid memos at a
price from one demand solve.  ``ReferenceCmraTruthful`` is the strategy
it replaced: the headline from ``truthful_demand``, the bids from
``indirect_surplus``, which solves the demand again.
"""

import csv
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from cmra.bidbook import (KIND_ADDITIONAL, KIND_HEADLINE, MICRO,
                          ActivityCapViolation, BidError, CapExceeded,
                          NonMonotoneHeadline, OverLinearPrice, money_units)
from cmra.mechanism import (_build_outcome, _closing_rows, _emit, _outcome,
                            solve_closing)
from cmra.scenarios import _fmt
from cmra.strategies import ClockTruthful
from cmra.valuation import NON_DECREASING, _bisect


class ReferenceBidBook:
    """One bidder's book with the record rule written out per point.

    The rule is the engine's: headline demand at linear clock prices,
    non-increasing and within the cap; additional bids within the
    linear price and the relative cap of past headline drops, reduced to
    the legal maximum with ``clamp`` and rejected without it.  A
    rejected round rolls back.  Bids are checked and folded one by one
    in plain Python, where the engine's ``BookRows.record`` works on
    arrays of rows.
    """

    def __init__(self, grid, scale=MICRO):
        self.grid, self.scale = grid, scale
        n = grid.n
        self.values = np.zeros(n + 1, dtype=np.int64)
        self.has_bid = np.zeros(n + 1, dtype=bool)
        self.kinds = np.zeros(n + 1, dtype=np.int8)
        self._seg_lo = np.full(n + 1, -1, dtype=np.int64)
        self._seg_base = np.zeros(n + 1, dtype=np.int64)
        self.last_price = self.last_headline = None

    def arrays(self):
        return self.values, self.has_bid

    def activity_caps_array(self, unbounded):
        return np.array([unbounded if lo < 0 else
                         int(self.values[lo]) + int(base)
                         for lo, base in zip(self._seg_lo, self._seg_base)],
                        dtype=np.int64)

    def copy(self):
        dup = ReferenceBidBook(self.grid, self.scale)
        for name in ("values", "has_bid", "kinds", "_seg_lo", "_seg_base"):
            setattr(dup, name, getattr(self, name).copy())
        dup.last_price, dup.last_headline = self.last_price, self.last_headline
        return dup

    def record_round_indexed(self, clock_price, headline_k, ks, amounts,
                             clamp=False):
        if not math.isfinite(clock_price):
            raise BidError(f"clock price {clock_price} is not finite")
        if self.last_price is not None and clock_price <= self.last_price:
            raise BidError(f"clock price {clock_price} does not exceed "
                           f"previous {self.last_price}")
        if headline_k < 0:
            raise BidError(f"headline demand on negative grid index "
                           f"{headline_k}")
        if headline_k > self.grid.cap_index:
            raise CapExceeded("headline demand exceeds the quantity cap")
        if self.last_headline is not None and headline_k > self.last_headline:
            raise NonMonotoneHeadline(
                f"headline rose from {self.last_headline} to {headline_k}")
        n = self.grid.n
        lo, hi = headline_k, self.last_headline
        dropped = hi is not None and lo < hi
        if dropped:
            for k in range(lo + 1, hi):
                self._seg_lo[k] = lo
                self._seg_base[k] = money_units(clock_price * (k - lo) / n,
                                                self.scale)
        # The headline is posted first, so the activity cap sees this
        # round's base value; saved state lets a rejected round roll back.
        saved = (bool(self.has_bid[headline_k]), int(self.values[headline_k]),
                 int(self.kinds[headline_k]))
        self._post(headline_k, money_units(clock_price * headline_k / n,
                                           self.scale), KIND_HEADLINE)
        try:
            self._admit(clock_price, [int(k) for k in ks],
                        [float(a) for a in amounts], clamp)
        except BidError:
            self.has_bid[headline_k], self.values[headline_k], \
                self.kinds[headline_k] = saved
            if dropped:
                self._seg_lo[lo + 1: hi] = -1
                self._seg_base[lo + 1: hi] = 0
            raise
        self.last_price, self.last_headline = clock_price, headline_k

    def _admit(self, price, ks, amounts, clamp):
        """Check every bid, then fold all of them; caps read the values
        before any bid of the round is folded."""
        n, scale = self.grid.n, self.scale
        if any(k < 0 for k in ks):
            raise BidError(f"additional bid on negative grid index {min(ks)}")
        if any(k > self.grid.cap_index for k in ks):
            raise CapExceeded("additional bid above the quantity cap")
        if any(not a >= 0 for a in amounts):  # NaN too
            raise BidError("bid amounts must be non-negative numbers")
        caps = [math.inf if self._seg_lo[k] < 0 else
                int(self.values[self._seg_lo[k]]) + int(self._seg_base[k])
                for k in ks]
        if clamp:
            units = [min(math.floor(min(a * scale, price * k / n * scale)
                                    + 0.5), cap)
                     for k, a, cap in zip(ks, amounts, caps)]
        else:
            # An infinite amount is over any linear price.
            units = [math.inf if math.isinf(a) else math.floor(a * scale + 0.5)
                     for a in amounts]
            for k, a, u in zip(ks, amounts, units):
                if u > math.floor(price * k / n * scale + 0.5):
                    raise OverLinearPrice(
                        f"bid {a} on {k}/{n} exceeds the linear price "
                        f"{price * k / n}")
            for k, a, u, cap in zip(ks, amounts, units, caps):
                if u > cap:
                    raise ActivityCapViolation(
                        f"bid {a} on {k}/{n} exceeds the relative cap "
                        f"{cap / scale}")
        for k, u in zip(ks, units):
            self._post(k, u, KIND_ADDITIONAL)

    def _post(self, k, units, kind):
        if not self.has_bid[k] or units > self.values[k]:
            self.values[k] = units
            self.has_bid[k] = True
            self.kinds[k] = kind


def reference_round(book, strategy, price):
    """One bidder's round on a reference book, clamped to legality."""
    emission = _emit(strategy, price)
    book.record_round_indexed(price, *emission, clamp=True)
    return emission


def reference_run_cmra(strategy1, strategy2, config):
    """One auction from the start price, one ``solve_closing`` per tick."""
    strategies = (strategy1, strategy2)
    books = (ReferenceBidBook(config.grid, config.money_scale),
             ReferenceBidBook(config.grid, config.money_scale))
    log: list = []
    t = 0
    prev_price = None
    while True:
        price = config.start + t * config.eps
        if price > config.max_price + 1e-12:
            return replace(_outcome(config, []), rounds=log)
        base = (books[0].copy(), books[1].copy())
        emissions = [reference_round(b, s, price)
                     for b, s in zip(books, strategies)]
        result = solve_closing(books[0], books[1])
        if config.log_rounds:
            reference_log_round(log, t, price, emissions, result.closed,
                                result.r_star)
        if result.closed:
            if config.refine and prev_price is not None:
                price, books, result = _refine_close(
                    base, strategies, prev_price, price, books, config)
            rows = SimpleNamespace(values=[b.values for b in books],
                                   kinds=[b.kinds for b in books])
            return replace(_build_outcome(price, rows, (0, 1), result, config,
                                          []), rounds=log)
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
            reference_round(b, s, mid)
        if _closing_rows(trial[0].values, trial[0].has_bid,
                         trial[1].values, trial[1].has_bid)[2]:
            hi = mid
        else:
            lo, lo_books = mid, trial
    final_books = (lo_books[0].copy(), lo_books[1].copy())
    for b, s in zip(final_books, strategies):
        reference_round(b, s, hi)
    final_result = solve_closing(final_books[0], final_books[1])
    if not final_result.closed:
        return hi, hi_books, solve_closing(*hi_books)
    return hi, final_books, final_result


def reference_closing_rows(b1, m1, b2, m2):
    """``(best_pair, best_single, closed)`` of side-1 rows against side 2."""
    nothing = -(2 ** 62)
    masked2 = np.where(m2, b2, nothing)
    partner = np.maximum.accumulate(masked2, axis=-1)[..., ::-1]
    best_pair = np.where(m1, b1 + partner, nothing).max(axis=-1)
    best_single = np.maximum(np.where(m1, b1, nothing).max(axis=-1),
                             masked2.max(axis=-1))
    closed = best_pair >= np.maximum(best_single, 0)
    return best_pair, best_single, closed


def reference_choose_allocation(b1, m1, b2, m2, n, r_star):
    """Tie-break among revenue-maximizing feasible pairs: the largest
    (min(k1, k2), k1, k2), with each k1's largest partner k2."""
    best = None  # (min_share, k1, k2)
    idx2 = np.arange(n + 1)
    for k1 in np.nonzero(m1)[0]:
        needed = r_star - int(b1[k1])
        limit = n - int(k1)
        sel = m2[: limit + 1] & (b2[: limit + 1] == needed)
        if not sel.any():
            continue
        k2 = int(idx2[: limit + 1][sel].max())
        key = (min(int(k1), k2), int(k1), k2)
        if best is None or key > best:
            best = key
    if best is None:
        raise RuntimeError("closing flagged but no maximizing pair found")
    return (best[1], best[2])


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
