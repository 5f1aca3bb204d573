"""The auction engines: the CMRA clock loop and a plain clock benchmark.

The CMRA engine ticks a price clock upward, queries both bidders'
proxy strategies each round, accumulates their bid books, and solves
the closing problem: the auction ends at the first price where some
revenue-maximizing feasible allocation accepts exactly one bid from
every bidder.  Winning headline demands pay linear clock prices and
winning additional bids pay as bid; both coincide with the recorded
book value, so total payments always equal the maximized revenue.

A closing price between two clock ticks is recovered by bisection,
re-querying the proxies at probe prices.  Probe rounds below the
closing price accumulate into the books (they are legitimate bids at
legitimate prices), which makes recorded values converge to their
continuous-clock suprema.

There is one clock loop, :func:`_run_lockstep`, which runs any number
of strategies in one seat against one opponent.  The books on the clock
are rows of one ``BookRows`` state, the opponent's included, and one
block clock, :func:`_block`, makes their emissions for a block of ticks,
records the block in one ``BookRows.record`` call and runs one batched
closing test over it.  A block is one tick after each join and each close,
then doubles up to ``_BLOCK_MAX`` ticks within ``_BLOCK_CELLS`` cells; each
bidder emits a longer block in one ``emissions`` call.  :func:`run_cmra`
is the loop's one-member call from the start price; the deviation
search enters it with many members, each at its own resume tick.  A
member that closes leaves the clock, and the loop refines every closer
at its end in one batched bisection, :func:`_refine_closers`: the
closers' books are rows of one ``BookRows`` state, and each step records
one probe round on every closer still bisecting and runs one batched
closing test.  A closer whose last probe closed keeps that probe's books.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bidbook import (_NOTHING, MICRO, BidBook, BidError, BookRows,
                      QuantityGrid, money_units)
from .roundlog import RoundLog
from .strategies import _EMPTY_AMTS, _EMPTY_KS

__all__ = ["AuctionConfig", "ClosingResult", "AuctionOutcome", "solve_closing",
           "closing_from_arrays", "run_cmra", "run_clock", "revenue_curve"]

# The longest block of clock ticks recorded ahead of one closing test,
# and the most cells its ``(rows, ticks, n+1)`` arrays may hold.
_BLOCK_MAX = 32
_BLOCK_CELLS = 2 ** 15

CLOSED = "closed"
MAX_PRICE_HIT = "max-price-hit"


@dataclass(frozen=True)
class AuctionConfig:
    """Clock discretization and engine knobs for one auction run.

    Tick t is priced ``start + t * eps`` (:meth:`price`).  The clock has
    every tick priced at most ``max_price + 1e-12``: ticks 0 to
    ``ticks - 1``.  An auction that has not closed by then stops at the
    maximum price, and the deviation search's ladders hold exactly those
    ticks.
    """

    grid: QuantityGrid
    eps: float
    max_price: float
    start: float = 0.0
    refine: bool = True
    refine_tol: float = 1e-7
    money_scale: int = MICRO
    log_rounds: bool = True

    def __post_init__(self):
        for name in ("start", "eps", "max_price"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.eps <= 0:
            raise ValueError("price increment must be positive")
        if self.max_price <= self.start:
            raise ValueError("max price must exceed the start price")
        # The refine bisection ends only when a tolerance at least the
        # float spacing of the clock prices is met.
        if not (math.isfinite(self.refine_tol) and self.refine_tol > 0):
            raise ValueError("refine_tol must be positive and finite")
        spacing = math.ulp(2 * max(abs(self.start), abs(self.max_price)))
        if self.refine_tol < spacing:
            raise ValueError(f"refine_tol {self.refine_tol} is below the "
                             f"float spacing {spacing} of the clock prices")
        if isinstance(self.money_scale, bool) or not isinstance(
                self.money_scale, numbers.Integral) or self.money_scale <= 0:
            raise ValueError("money_scale must be a positive integer")

    def price(self, t):
        """The clock price of tick ``t``, or of each tick in an array."""
        return self.start + t * self.eps

    @cached_property
    def ticks(self) -> int:
        """The number of ticks priced at most ``max_price + 1e-12``: prices
        rise with the tick, so the count steps from the quotient's estimate,
        rounded either way, to the last tick in range."""
        limit = self.max_price + 1e-12
        t = int((limit - self.start) / self.eps)
        while self.price(t) > limit:
            t -= 1
        while self.price(t + 1) <= limit:
            t += 1
        return t + 1


@dataclass(frozen=True)
class ClosingResult:
    """Outcome of the per-round revenue maximization."""

    r_star: int | None          # max revenue over all acceptances, money units
    closed: bool                # some maximizer accepts one bid per bidder
    allocation: tuple | None    # (k1, k2) grid indices when closed
    best_pair: int | None       # best both-bidder revenue, money units


@dataclass
class AuctionOutcome:
    """Final allocation, payments and bookkeeping of one auction run."""

    final_price: float
    indices: tuple | None
    quantities: tuple | None
    payments: tuple
    payment_units: tuple
    kinds: tuple
    revenue: float
    revenue_units: int
    termination: str
    excess_supply: float
    r_star_units: int | None
    rounds: RoundLog = field(default_factory=RoundLog, repr=False)
    # Set when a refined close fell back to the clock tick's books,
    # which only a strategy whose closing is not monotone in price does.
    refine_fallback: bool = False

    @property
    def closed(self) -> bool:
        return self.termination == CLOSED

    def surplus(self, models) -> tuple:
        """Realized quasilinear surplus per bidder (0 when nothing is won)."""
        if self.quantities is None:
            return (0.0, 0.0)
        return tuple(m.value(x) - pay for m, x, pay
                     in zip(models, self.quantities, self.payments))

    def to_json_dict(self) -> dict:
        return {
            "final_price": self.final_price,
            "allocations": list(self.quantities) if self.quantities else None,
            "payments": list(self.payments),
            "kinds": list(self.kinds),
            "revenue": self.revenue,
            "termination": self.termination,
            "excess_supply": self.excess_supply,
        }


def solve_closing(book1: BidBook, book2: BidBook) -> ClosingResult:
    """Maximize revenue over single acceptances and feasible bid pairs.

    A pair (x1, x2) is feasible when x1 + x2 <= 1 and both bidders hold
    a recorded bid at their share (a zero share qualifies only through
    an explicit zero bid on the empty package).  The auction closes when
    some revenue maximizer is such a pair; the returned allocation then
    maximizes the smaller assigned share, with remaining ties resolved
    toward bidder 1's larger share and partner shares as large as
    possible.
    """
    return closing_from_arrays(*book1.arrays(), *book2.arrays(),
                               book1.grid.n)


def closing_from_arrays(b1, m1, b2, m2, n: int) -> ClosingResult:
    """Array core of the closing solver; values in money units, BOTTOM masked.

    The allocation takes O(n).  At a close r* is the best pair's revenue,
    so side-1 point k1 is in a revenue-maximizing pair exactly when
    ``b1[k1]`` plus side 2's best bid at or below n - k1 equals r*, and its
    largest partner k2 is the last point at or below n - k1 where side 2's
    running maximum is set: later points bid less.  A larger k2 never
    lowers (min(k1, k2), k1, k2), so the candidates' key (min(k1, k2), k1)
    picks the pair that enumerating every pair picks.
    """
    return _closing_results(*(np.asarray(a)[None] for a in (b1, m1, b2, m2)),
                            n)[0]


def _closing_results(b1, m1, b2, m2, n: int) -> list:
    """``closing_from_arrays`` of each row of ``(rows, n+1)`` arrays."""
    best_pair, best_single, closed = _closing_rows(b1, m1, b2, m2)
    r_star = np.maximum(best_pair, best_single)
    masked2 = np.where(m2, b2, _NOTHING)
    run = np.maximum.accumulate(masked2, axis=-1)
    points = np.arange(n + 1)
    # partner[k1]: the last point at or below n - k1 that sets the maximum.
    partner = np.maximum.accumulate(np.where(masked2 == run, points, -1),
                                    axis=-1)[..., ::-1]
    key = np.where(m1 & (b1 + run[..., ::-1] == r_star[:, None]),
                   np.minimum(points, partner) * (n + 1) + points, -1)
    rows, k1 = np.arange(len(key)), key.argmax(axis=-1)
    if ((key[rows, k1] < 0) & closed).any():
        raise RuntimeError("closing flagged but no maximizing pair found")
    return [ClosingResult(r if r >= 0 else None, c, k if c else None,
                          pair if pair >= 0 else None)
            for pair, r, c, k in zip(
                best_pair.tolist(), r_star.tolist(), closed.tolist(),
                zip(k1.tolist(), partner[rows, k1].tolist()))]


def _closing_rows(b1, m1, b2, m2):
    """The closing test of side-1 rows ``(..., n+1)`` against side-2 rows.

    Side 2 is one book or rows that broadcast against side 1's, such as
    two ladders tick by tick.  Returns ``(best_pair, best_single,
    closed)`` per row.  Bid values are non-negative, so a revenue is
    negative exactly when it does not exist (no feasible pair, no bid at
    all).  The test is symmetric in the two sides; only the allocation
    is not.
    """
    masked1 = np.where(m1, b1, _NOTHING)
    # Best partner value with x2 <= 1 - x1, indexed by x1.
    partner = np.maximum.accumulate(np.where(m2, b2, _NOTHING),
                                    axis=-1)[..., ::-1]
    best_pair = np.where(m1, b1 + partner, _NOTHING).max(axis=-1)
    best_single = np.maximum(masked1.max(axis=-1), partner[..., 0])
    # Closed: some pair exists and no single acceptance beats it.
    closed = best_pair >= np.maximum(best_single, 0)
    return best_pair, best_single, closed


def _emit(strategy, price: float):
    """One bidder's emission at a price: ``(headline_k, ks, amounts)``."""
    k = strategy.headline_index(price)
    return (k, *strategy.additional_bid_arrays(price))


def _emissions(bidders, prices) -> tuple:
    """``(emitted, error)``: bidder r's emission at ``prices[j]`` is
    ``emitted[j][r]`` to the first tick where one raises, and ``error`` the
    first exception in (tick, bidder) order, or None.  A bidder emits a run
    in one ``emissions`` call, tick by tick if it raises (emissions are
    pure); a one-tick block is one ``_emit`` each, as run calls cost three
    times as much there and made replays 1.5 % and screens 5 % slower."""
    if len(prices) == 1:
        try:
            return [[_emit(bidder, prices[0]) for bidder in bidders]], None
        except Exception as exc:
            return [], exc
    runs, error = [], None
    for bidder in bidders:
        try:
            runs.append(bidder.emissions(prices))
            continue
        except Exception:
            run = []
        for price in prices:
            try:
                run.append(_emit(bidder, price))
            except Exception as exc:
                error, prices = exc, prices[:len(run)]
                break
        runs.append(run)
    return list(zip(*runs)), error


def _log_round(log, round_no, price, emissions, closed, r_star):
    """Log one tick: its record holds the emissions themselves (see
    :mod:`cmra.roundlog`)."""
    log.append((round_no, price, emissions, closed, r_star))


def run_cmra(strategy1, strategy2, env, config: AuctionConfig) -> AuctionOutcome:
    """Run the combinatorial multi-round auction under two proxy strategies.

    The clock starts at ``config.start`` and rises by ``config.eps`` per
    round until the closing rule fires or ``config.max_price`` is hit.
    With refinement enabled the continuous closing price is bisected to
    ``config.refine_tol`` between the last non-closing and the first
    closing clock price.
    """
    fresh = {0: BookRows(config.grid, config.money_scale)}
    return _run_lockstep([strategy1], [0], strategy2, fresh, [0], 0, 0,
                         config)[0]


def _run_lockstep(strategies, starts, opponent, snaps, rows, opp_row,
                  seat: int, config: AuctionConfig) -> list:
    """CMRA runs of many strategies against one opponent, in one clock loop.

    Member ``i`` plays ``strategies[i]`` in seat ``seat`` (0 or 1) and
    joins the clock at tick ``starts[i]``; its book, with its rounds at
    every earlier tick, none of which closed, is row ``rows[i]`` of
    ``snaps[starts[i]]``.  Row ``opp_row`` of ``snaps[t]`` is the
    opponent's book before tick t's round.  Nothing in ``snaps`` changes.
    Returns each member's outcome, in member order, equal to that of its
    own clock loop resumed at its start tick; with ``config.log_rounds``
    each keeps the round log of the ticks it was on the clock.

    Every book on the clock is a row of one ``BookRows`` state in seat
    order: members' rows from ``seat`` in joining order, the opponent's
    last in seat 0 and first in seat 1.  Emissions are pure functions of
    the price, so the opponent's book at a tick is the same for every
    member: its row is recorded once per tick.  The clock runs in blocks
    (:func:`_block`): the state is recorded ahead for up to ``size``
    ticks, which never reach the next member's start tick, and one
    closing test covers the block.  A block is 1 tick long after each join
    and each close, so a close soon after one wastes few ticks, and doubles
    after each block up to ``_BLOCK_MAX``; unless it is one tick, its values
    and masks hold at most ``_BLOCK_CELLS`` cells, so memory stays bounded.

    A member that closes leaves the clock; when it refines, it keeps its
    own pre-tick book and the opponent's, and all closers refine
    together once the clock stops.  While no member is on the clock,
    the clock jumps to the next start tick.
    """
    outcomes = [None] * len(strategies)
    logs = [[] for _ in strategies]
    closers: list = []
    pending = sorted(range(len(starts)), key=starts.__getitem__, reverse=True)
    active: list = []
    t = state = None
    block = 1
    while pending or active:
        if not active:
            t = starts[pending[-1]]
        if pending and starts[pending[-1]] == t:
            block = 1
            snap, joining = snaps[t], []
            while pending and starts[pending[-1]] == t:
                active.append(pending.pop())
                joining.append(rows[active[-1]])
            # Joining rows follow the members on the clock (none: the
            # opponent's snapshot); in seat 0 the opponent's stays last.
            on = len(active) - len(joining)
            now, rows_now = (state, range(on + 1)) if on else (snap, [opp_row])
            state = BookRows.join(
                [(now, rows_now), (snap, joining)] if seat == 1 else
                [(now, rows_now[:-1]), (snap, joining), (now, rows_now[-1:])])
        if t >= config.ticks:
            for i in active:
                outcomes[i] = _outcome(config, logs[i])
            active = []
            continue
        cells = (len(active) + 1) * (config.grid.n + 1)  # per tick
        size = min(block, max(1, _BLOCK_CELLS // cells),
                   starts[pending[-1]] - t if pending else block)
        block = min(2 * block, _BLOCK_MAX)
        ticks, closed, state = _block(active, strategies, state, opponent,
                                      seat, t, size, config, logs)
        t += ticks
        if not closed:
            continue
        block = 1
        gone = {c.member for c in closed}
        active = [i for i in active if i not in gone]
        for c in closed:
            if config.refine and c.tick > 0:
                closers.append(c)
                continue
            (pair, result), = _solve_rows(c.hi, [c.own], [c.opp], seat)
            outcomes[c.member] = _build_outcome(
                config.price(c.tick), c.hi, pair, result, config,
                logs[c.member])
    if closers:
        for c, (price, books, pair, result, fallback) in zip(
                closers, _refine_closers(closers, strategies, opponent, seat,
                                         config)):
            outcomes[c.member] = _build_outcome(price, books, pair, result,
                                                config, logs[c.member],
                                                fallback)
    return outcomes


def _block(active, strategies, state: BookRows, opponent, seat: int, t: int,
           size: int, config: AuctionConfig, logs) -> tuple:
    """Up to ``size`` clock ticks of the active members from tick ``t``.

    ``state`` holds the books on the clock as rows in seat order.  The
    block makes every row's emissions (:func:`_emissions`) to the first
    tick where one raises, records them in one ``BookRows.record`` call,
    which keeps the ticks before a fault and fills ``(rows, K, n+1)``
    value and mask arrays for one closing test of the member rows against
    the opponent's, and ends at the clock's last tick or the first tick
    where some member closes; each member's log gets a tick record per
    tick up to it.  An exception surfaces only when no tick of the block
    closes, and it is the first one a tick-by-tick loop meets.

    Returns ``(ticks, closers, state)``: the ticks the clock advanced, a
    :class:`_Closer` per member that closed at the last of them, and the
    state after it without the closers' rows (None when every member
    closed).  The state is copied once, at the block's start; rows
    recorded past the close, and the closers' rows before their closing
    tick, are rebuilt from the copy by one record of the ticks before
    the close and one of the closing tick, so the block is exact for any
    length and number of members.
    """
    width = len(active)
    opp = width if seat == 0 else 0  # members' rows start at ``seat``
    bidders = [strategies[i] for i in active]
    bidders.insert(opp, opponent)
    shape = (width + 1, size, config.grid.n + 1)
    values, mask = np.empty(shape, np.int64), np.empty(shape, bool)
    base = state.copy()
    prices = [config.price(t + j) for j in range(min(size, config.ticks - t))]
    emitted, error = _emissions(bidders, prices)
    del prices[len(emitted):]
    if prices:
        try:
            state.record(prices, emitted, out=(values, mask))
        except BidError as exc:
            # The ticks before the fault are recorded, and a fault beats
            # an emission error of a later tick.
            error = exc
            del prices[exc.tick:], emitted[exc.tick:]
    ticks = len(prices)
    own, opp_rows = slice(seat, seat + width), slice(opp, opp + 1)
    best_pair, best_single, closed = _closing_rows(
        values[own, :ticks], mask[own, :ticks],
        values[opp_rows, :ticks], mask[opp_rows, :ticks])
    closed = closed.T.ravel().tolist()  # member r at tick j: [j * width + r]
    first = closed.index(True) // width if True in closed else None
    if first is not None:
        ticks = first + 1
    if config.log_rounds:
        best_pair, best_single = best_pair.T.tolist(), best_single.T.tolist()
        for j in range(ticks):
            emits = emitted[j]
            for r, i in enumerate(active):
                r_star = max(best_pair[j][r], best_single[j][r])
                _log_round(logs[i], t + j, prices[j],
                           (emits[r], emits[opp]) if seat == 0
                           else (emits[0], emits[r + 1]),
                           closed[j * width + r],
                           r_star if r_star >= 0 else None)
    if first is None:
        if error is not None:
            raise error
        return ticks, [], state
    # The rows before the closing tick's round and after it; the live
    # rows are the latter when the close is the last recorded tick and
    # no round raised.
    if first:
        base.record(prices[:first], emitted[:first])
    if first == len(prices) - 1 and error is None:
        hi = state
    else:
        hi = base.copy()
        hi.record(prices[first:first + 1], emitted[first:first + 1])
    flags = closed[first * width:ticks * width]
    flags.insert(opp, False)  # per row of the state
    done = [r for r, flag in enumerate(flags) if flag]
    members = [active[r - seat] for r in done]
    state = None
    if len(done) < width:
        # Rows stay on the clock: the closers keep copies of their rows
        # and the opponent's, which nothing records on again.
        state = hi.take([r for r, flag in enumerate(flags) if not flag])
        base, hi = base.take(done + [opp]), hi.take(done + [opp])
        done, opp = range(len(done)), len(done)
    closers = [_Closer(i, t + first, base, hi, r, opp)
               for i, r in zip(members, done)]
    return ticks, closers, state


class _Closer(NamedTuple):
    """A member that closed at clock tick ``tick``.  Its book is row
    ``own`` and the opponent's row ``opp`` of ``base``, before the tick's
    round, and of ``hi``, after it; nothing records on either again."""

    member: int
    tick: int
    base: BookRows
    hi: BookRows
    own: int
    opp: int


def _solve_rows(state: BookRows, own, opp, seat: int) -> list:
    """``(pair, result)`` per row pair: rows ``own[i]`` and ``opp[i]`` of
    ``state`` in seat order, and their closing solve, all in one."""
    pairs = list(zip(own, opp) if seat == 0 else zip(opp, own))
    first, second = (list(rows) for rows in zip(*pairs))
    return list(zip(pairs, _closing_results(
        state.values[first], state.has_bid[first], state.values[second],
        state.has_bid[second], state.grid.n)))


def _refine_closers(closers, strategies, opponent, seat: int,
                    config: AuctionConfig) -> list:
    """Bisect every closer's continuous closing price, all in one loop.

    Closer j closed at clock tick t_j and bisects on (price of t_j - 1,
    price of t_j] from its books before that tick.  Probes that do not
    close keep their round, so recorded bids converge to their
    continuous-clock suprema below the closing price; a probe needs only
    the closing flag.  A closer's probes depend on its own books and
    interval alone, so bisecting all at once gives each closer the
    probes it would make by itself.  The books of all closers live in
    one ``BookRows``, members' rows first, and each step makes one
    record on the closers still bisecting and one batched closing test.

    Returns ``(price, state, seat-ordered rows, ClosingResult, fallback)``
    per closer.  The books at the final price are the trial rows of the
    closer's last probe when it closed, and are recorded from its books
    at the lower end otherwise; every closer's final books are rows of
    one state, solved in one batched closing solve.  They must close; when a
    non-monotone strategy makes them not close, the closer falls back to
    the tick's books at that price and ``fallback`` is set.
    """
    m = len(closers)
    tol = config.refine_tol
    state = BookRows.join([(c.base, [c.own]) for c in closers]
                          + [(c.base, [c.opp]) for c in closers])
    bidders = [strategies[c.member] for c in closers] + [opponent] * m
    lo = [config.price(c.tick - 1) for c in closers]
    hi = [config.price(c.tick) for c in closers]
    # Per closer, its books recorded at ``hi`` from its books at ``lo``:
    # rows taken from the trial of its last probe when that probe closed.
    final = [None] * m
    live = [j for j in range(m) if hi[j] - lo[j] > tol]
    while live:
        size = len(live)
        if size == m:
            mids = [0.5 * (a + b) for a, b in zip(lo, hi)]
            rows, trial = None, state.copy()
        else:
            mids = [0.5 * (lo[j] + hi[j]) for j in live]
            rows = live + [m + j for j in live]
            trial = state.take(rows)
        prices = mids * 2
        trial.record([prices], [[_emit(b, p) for b, p in zip(
            bidders if rows is None else [bidders[r] for r in rows],
            prices)]])
        values, has_bid = trial.values, trial.has_bid
        closed = _closing_rows(values[:size], has_bid[:size],
                               values[size:], has_bid[size:])[2].tolist()
        # Rows that did not close keep the probe's round.
        if rows is None and not any(closed):
            state = trial
        elif not all(closed):
            src = [s for s, done in enumerate(closed) if not done]
            src += [s + size for s in src]
            state.put(src if rows is None else [rows[s] for s in src],
                      trial, src)
        for j, mid, done in zip(live, mids, closed):
            if done:
                hi[j] = mid
            else:
                lo[j] = mid
        kept = [s for s, (j, done) in enumerate(zip(live, closed))
                if done and hi[j] - lo[j] <= tol]
        if kept:
            books = trial.take(kept + [s + size for s in kept])
            for i, s in enumerate(kept):
                final[live[s]] = (books, i, i + len(kept))
        live = [j for j in live if hi[j] - lo[j] > tol]
    rest = [j for j in range(m) if final[j] is None]
    if rest:
        rows = rest + [m + j for j in rest]
        books = state if len(rest) == m else state.take(rows)
        prices = [hi[j] for j in rest] * 2
        books.record([prices], [[_emit(bidders[r], p)
                                 for r, p in zip(rows, prices)]])
        for s, j in enumerate(rest):
            final[j] = (books, s, s + len(rest))
    # One solve of every closer's final books, as rows of one state.
    books = BookRows.join([(src, [r]) for src, r, _ in final]
                          + [(src, [r]) for src, _, r in final])
    refined = []
    for j, (c, (pair, result)) in enumerate(zip(closers, _solve_rows(
            books, range(m), range(m, 2 * m), seat))):
        fallback = not result.closed
        if fallback:
            (pair, result), = _solve_rows(c.hi, [c.own], [c.opp], seat)
        refined.append((hi[j], c.hi if fallback else books, pair, result,
                        fallback))
    return refined


def _outcome(config: AuctionConfig, log, price=None, indices=None,
             payment_units=(0, 0), kinds=("none", "none"), excess_supply=1.0,
             r_star=None, refine_fallback=False) -> AuctionOutcome:
    """The outcome of a close at ``price`` on the grid ``indices`` or, with
    no indices, of a clock that passed the maximum price unclosed.  The
    caller passes the excess supply: a CMRA close sums it as ``1.0 - x1 -
    x2`` and a clock close as ``1.0 - (x1 + x2)``, which can differ in the
    last bit."""
    scale = config.money_scale
    revenue_units = sum(payment_units)
    return AuctionOutcome(
        final_price=config.max_price if indices is None else price,
        indices=indices,
        quantities=None if indices is None else tuple(
            config.grid.share(k) for k in indices),
        payments=tuple(u / scale for u in payment_units),
        payment_units=tuple(payment_units), kinds=tuple(kinds),
        revenue=revenue_units / scale, revenue_units=revenue_units,
        termination=MAX_PRICE_HIT if indices is None else CLOSED,
        excess_supply=excess_supply, r_star_units=r_star,
        rounds=RoundLog(log), refine_fallback=refine_fallback)


def _build_outcome(price, books, pair, result: ClosingResult, config, log,
                   refine_fallback: bool = False) -> AuctionOutcome:
    """The outcome of a CMRA close; rows ``pair`` of ``books`` are the two
    bidders' books in seat order, and a winner pays its book's value."""
    indices = result.allocation
    x1, x2 = (config.grid.share(k) for k in indices)
    return _outcome(
        config, log, price, indices,
        [int(books.values[r][k]) if k else 0 for r, k in zip(pair, indices)],
        ["none" if not k else "headline" if books.kinds[r][k] == 1
         else "additional" for r, k in zip(pair, indices)],
        1.0 - x1 - x2, result.r_star, refine_fallback)


def run_clock(strategy1, strategy2, env, config: AuctionConfig) -> AuctionOutcome:
    """Benchmark clock auction: headline demands only, linear prices.

    Ends at the first clock price with no excess demand.  Demands at the
    final price are served at that price; leftover supply stays unsold.
    When both bidders drop to zero at the same tick, bidder 1 is served
    its pre-drop demand (the infinitesimally-stronger-bidder convention).
    """
    grid = config.grid
    n = grid.n
    log: list = []

    def demands(p):
        return strategy1.headline_index(p), strategy2.headline_index(p)

    prev = None
    for t in range(config.ticks):
        price = config.price(t)
        k1, k2 = demands(price)
        if config.log_rounds:
            _log_round(log, t, price, ((k1, _EMPTY_KS, _EMPTY_AMTS),
                                       (k2, _EMPTY_KS, _EMPTY_AMTS)),
                       k1 + k2 <= n, None)
        if k1 + k2 <= n:
            if config.refine and t > 0:
                lo, hi = config.price(t - 1), price
                while hi - lo > config.refine_tol:
                    mid = 0.5 * (lo + hi)
                    d1, d2 = demands(mid)
                    if d1 + d2 <= n:
                        hi = mid
                    else:
                        lo = mid
                price = hi
                k1, k2 = demands(price)
            if k1 == 0 and k2 == 0 and prev is not None:
                k1 = prev[0]  # simultaneous drop: serve bidder 1 pre-drop
            x1, x2 = grid.share(k1), grid.share(k2)
            payment_units = [money_units(price * x, config.money_scale)
                             for x in (x1, x2)]
            return _outcome(config, log, price, (k1, k2), payment_units,
                            ["headline" if k > 0 else "none" for k in (k1, k2)],
                            1.0 - (x1 + x2), sum(payment_units))
        prev = (k1, k2)
    return _outcome(config, log)


def revenue_curve(book1: BidBook, book2: BidBook):
    """Revenue of split allocations (x1, 1-x1) and of single acceptances.

    For each grid share x1 the row holds the both-bidder revenue
    B1(x1) + B2(1-x1) when both sides are bid on (None otherwise) and
    the larger of the two one-sided bids (None when neither is bid on).
    Values are in money units.
    """
    b1, m1 = book1.arrays()
    b2, m2 = book2.arrays()
    n = book1.grid.n
    rows = []
    for k in range(n + 1):
        kc = n - k
        pair = int(b1[k] + b2[kc]) if (m1[k] and m2[kc]) else None
        singles = [int(b1[k])] if m1[k] else []
        if m2[kc]:
            singles.append(int(b2[kc]))
        single = max(singles) if singles else None
        rows.append((book1.grid.share(k), pair, single))
    return rows
