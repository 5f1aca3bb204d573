"""Per-bidder cumulative bid books on a discrete quantity grid.

A book accumulates one bidder's headline-demand history and additional
package bids round by round, enforcing the auction's legality rules:
additional bids are capped by linear clock prices, headline demand is
non-increasing (eligibility), and bids above the current headline are
constrained by the relative activity cap created by past headline drops.

Books are the rows of a ``BookRows`` state, and ``BookRows.record`` is
the one implementation of these rules: it records a round on every row
at once.  ``BidBook``, one bidder's book, is a handle on a one-row state.

Money is held internally as integers in small fixed units (micro-units
of the currency by default) so that ties in the closing rule are exact.
An absent bid is an explicit BOTTOM marker (None / a False mask entry),
never a negative sentinel that could leak into arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import numpy as np

__all__ = [
    "MICRO",
    "money_units",
    "BidError",
    "NonMonotoneHeadline",
    "OverLinearPrice",
    "ActivityCapViolation",
    "CapExceeded",
    "QuantityGrid",
    "AdditionalBid",
    "BidBook",
    "KIND_NONE",
    "KIND_HEADLINE",
    "KIND_ADDITIONAL",
]

MICRO = 10 ** 6

# Magnitude of the money-unit sentinels: "no activity cap" here, and
# negated, "no bid" in the engine's closing test.  It exceeds any bid
# value, and a value plus the negated sentinel stays inside int64.
SENTINEL_UNITS = np.int64(2 ** 62)

KIND_NONE = 0
KIND_HEADLINE = 1
KIND_ADDITIONAL = 2


def money_units(amount: float, scale: int = MICRO) -> int:
    """Round a money amount to integer units (half away from zero)."""
    if amount >= 0:
        return int(math.floor(amount * scale + 0.5))
    return -int(math.floor(-amount * scale + 0.5))


class BidError(ValueError):
    """A submission violates the auction's bidding rules."""


class NonMonotoneHeadline(BidError):
    pass


class OverLinearPrice(BidError):
    pass


class ActivityCapViolation(BidError):
    pass


class CapExceeded(BidError):
    pass


class QuantityGrid:
    """Uniform grid x_k = k/N on [0, 1] with the cap, 1-cap and 1/2 exact.

    The constructor raises N to the nearest multiple that makes those
    three shares exact grid points; N is at least 4.
    """

    def __init__(self, n: int, cap: float):
        frac = Fraction(cap).limit_denominator(10 ** 4)
        if abs(float(frac) - cap) > 1e-12:
            raise ValueError(f"cap {cap} is not a small rational")
        base = math.lcm(frac.denominator, 2)
        n = max(int(n), 4)
        self.n = ((n + base - 1) // base) * base
        self.cap = cap
        self.cap_index = (self.n * frac.numerator) // frac.denominator

    def index(self, x: float) -> int:
        """Exact grid index of share x; off-grid quantities are rejected."""
        k = round(x * self.n)
        if abs(x - k / self.n) > 1e-9:
            raise ValueError(f"quantity {x} is off the 1/{self.n} grid")
        if not 0 <= k <= self.n:
            raise ValueError(f"quantity {x} outside [0, 1]")
        return k

    def share(self, k: int) -> float:
        return k / self.n

    def __repr__(self):
        return f"QuantityGrid(n={self.n}, cap={self.cap})"


@dataclass(frozen=True)
class AdditionalBid:
    """A pay-as-bid package bid: quantity share and amount."""

    quantity: float
    amount: float


class BidBook:
    """One bidder's book: a handle on the one-row ``BookRows`` ``rows``.

    Its arrays are views of the row, and ``BookRows.record`` records its
    rounds, so a rejected round leaves the book as it was.
    """

    def __init__(self, grid: QuantityGrid, scale: int = MICRO):
        self._bind(BookRows(grid, scale))

    def _bind(self, rows: "BookRows") -> "BidBook":
        self.rows = rows
        self.grid, self.scale = rows.grid, rows.scale
        self.values, self.has_bid = rows.values[0], rows.has_bid[0]
        self.kinds = rows.kinds[0]
        self._seg_lo, self._seg_base = rows.seg_lo[0], rows.seg_base[0]
        return self

    last_price = property(lambda self: self.rows.last_price[0])
    last_headline = property(lambda self: self.rows.last_headline[0])

    # -- queries ------------------------------------------------------

    def bid_at_index(self, k: int):
        """Recorded maximum at grid index k, or None if never bid (BOTTOM)."""
        return int(self.values[k]) if self.has_bid[k] else None

    def bid_at(self, x: float):
        return self.bid_at_index(self.grid.index(x))

    def kind_at_index(self, k: int) -> int:
        return int(self.kinds[k])

    def activity_cap_index(self, k: int):
        """Relative cap (in money units) on bids at index k, or inf if unbounded.

        After a headline drop from hi to lo at price q, a bid on k
        strictly between them may not exceed the current bid at lo plus
        q times the quantity increment.  Caps from distinct drops apply
        per segment.
        """
        cap = int(self.activity_caps_array(SENTINEL_UNITS)[k])
        return math.inf if cap == SENTINEL_UNITS else cap

    def activity_caps_array(self, unbounded: int) -> np.ndarray:
        """All per-point caps at once, with ``unbounded`` where no cap binds."""
        return self.rows.activity_caps_array(unbounded)[0]

    def activity_cap(self, x: float):
        return self.activity_cap_index(self.grid.index(x))

    def arrays(self):
        """(values, mask) view for the closing solver; treat as read only."""
        return self.values, self.has_bid

    def copy(self) -> "BidBook":
        return BidBook.__new__(BidBook)._bind(self.rows.copy())

    # -- updates ------------------------------------------------------

    def record_round(self, clock_price: float, headline_quantity: float,
                     additional_bids=()) -> "BidBook":
        """Record one clock round, unclamped: headline demand as a grid
        share plus additional bids as ``AdditionalBid`` or (share,
        amount) pairs, under ``BookRows.record``'s rules.  Returns self."""
        k = self.grid.index(headline_quantity)
        ks, amounts = _normalize_bids(additional_bids, self.grid)
        self.record_round_indexed(clock_price, k, ks, amounts)
        return self

    def record_round_indexed(self, clock_price: float, headline_k: int,
                             ks: np.ndarray, amounts: np.ndarray,
                             clamp: bool = False) -> None:
        """One round with bids as grid indices: ``BookRows.record`` on
        the book's row, by default without the clamp."""
        self.rows.record([clock_price], [(headline_k, ks, amounts)], clamp)


# The per-point arrays of a ``BookRows``, one row per book.
_ARRAYS = ("values", "has_bid", "kinds", "seg_lo", "seg_base")


class BookRows:
    """Bid books as rows: per-grid-point arrays of shape ``(R, n+1)``.

    ``values[r, k]`` is book r's highest amount (in money units) on grid
    point k, by a linearly priced headline or an additional bid;
    ``has_bid`` marks the points bid on and ``kinds`` how.  Where the
    headline fell from hi to lo, the points strictly between hold
    ``seg_lo`` = lo and, in ``seg_base``, the linear price of their
    increment then: segments never overlap, so a cap is one lookup.
    """

    __slots__ = ("grid", "scale", "last_price", "last_headline") + _ARRAYS

    def __init__(self, grid: QuantityGrid, scale: int = MICRO,
                 count: int = 1):
        """``count`` rows on which no round has been recorded."""
        shape = (count, grid.n + 1)
        self.grid, self.scale = grid, scale
        self.values = np.zeros(shape, np.int64)
        self.has_bid = np.zeros(shape, bool)
        self.kinds = np.zeros(shape, np.int8)
        self.seg_lo = np.full(shape, -1, np.int64)
        self.seg_base = np.zeros(shape, np.int64)
        self.last_price = [None] * count      # per row, None before a round
        self.last_headline = [None] * count   # per row, None before a round

    def _with(self, arrays, last_price, last_headline) -> "BookRows":
        """A state on this one's grid holding ``arrays``, as ``_ARRAYS``."""
        new = BookRows.__new__(BookRows)
        new.grid, new.scale = self.grid, self.scale
        new.values, new.has_bid, new.kinds, new.seg_lo, new.seg_base = arrays
        new.last_price, new.last_headline = last_price, last_headline
        return new

    def copy(self) -> "BookRows":
        return self._with((self.values.copy(), self.has_bid.copy(),
                           self.kinds.copy(), self.seg_lo.copy(),
                           self.seg_base.copy()),
                          self.last_price.copy(), self.last_headline.copy())

    def take(self, rows) -> "BookRows":
        """Copies of the given rows, in that order."""
        return self._with([getattr(self, a).take(rows, axis=0)
                           for a in _ARRAYS],
                          [self.last_price[r] for r in rows],
                          [self.last_headline[r] for r in rows])

    def put(self, rows, src: "BookRows", src_rows) -> None:
        """Overwrite ``rows`` with rows ``src_rows`` of ``src``."""
        at = np.asarray(rows)
        for a in _ARRAYS:
            getattr(self, a)[at] = getattr(src, a).take(src_rows, axis=0)
        for r, s in zip(rows, src_rows):
            self.last_price[r] = src.last_price[s]
            self.last_headline[r] = src.last_headline[s]

    @staticmethod
    def join(parts) -> "BookRows":
        """Copies of the rows ``rows`` of each ``(state, rows)`` part, in
        order; neighbouring parts of one state are taken together."""
        groups = [(state, [r for _, rows in group for r in rows])
                  for state, group in groupby(parts, key=itemgetter(0))]
        return groups[0][0]._with(
            [np.concatenate([getattr(state, a).take(rows, axis=0)
                             for state, rows in groups]) for a in _ARRAYS],
            [state.last_price[r] for state, rows in groups for r in rows],
            [state.last_headline[r] for state, rows in groups for r in rows])

    def activity_caps_array(self, unbounded: int) -> np.ndarray:
        """Every row's per-point caps, ``unbounded`` where no cap binds."""
        lo = np.maximum(self.seg_lo, 0)
        caps = np.take_along_axis(self.values, lo, axis=1) + self.seg_base
        return np.where(self.seg_lo >= 0, caps, unbounded)

    def record(self, prices, emissions, clamp: bool = True) -> None:
        """One round per row: row ``r`` bids ``emissions[r]`` at ``prices[r]``.

        An emission ``(headline_k, ks, amounts)`` holds grid indices.  The
        price must exceed the row's previous one and the headline lie in
        0..cap, not above the previous one; it is bid at the linear clock
        price, and a drop writes its segment, before the additional bids,
        so their activity caps see this round's base value.  Additional
        bids must lie within the linear price and the activity cap;
        ``clamp`` reduces them to the legal maximum instead, as the engine
        needs (grid rounding can overshoot a cap that proxies saturate).
        All rows' additional bids are folded at once.

        The ``BidError`` raised is the first one that recording the rows
        one by one would raise.  A record on one row, or without the
        clamp, restores its rows from a copy when it raises; a clamped
        record on several rows, the engine's, leaves them undefined.
        """
        grid, scale = self.grid, self.scale
        n, cap = grid.n, grid.cap_index
        values, has_bid, kinds = self.values, self.has_bid, self.kinds
        last_price, last_headline = self.last_price, self.last_headline
        bids = []  # (row, price, ks, amounts) of the rows with bids
        saved = self.copy() if not clamp or len(last_price) == 1 else None
        try:
            for r, (price, (k, ks, amounts)) in enumerate(zip(prices,
                                                              emissions)):
                last = last_price[r]
                if last is not None and price <= last:
                    raise BidError(
                        f"clock price {price} does not exceed previous {last}")
                if not 0 <= k <= cap:
                    if k < 0:
                        raise BidError(
                            f"headline demand on negative grid index {k}")
                    raise CapExceeded(
                        "headline demand exceeds the quantity cap")
                hi = last_headline[r]
                if hi is not None and k != hi:
                    if k > hi:
                        raise NonMonotoneHeadline(
                            f"headline rose from {hi} to {k}")
                    for j in range(k + 1, hi):
                        self.seg_lo[r, j] = k
                        self.seg_base[r, j] = money_units(
                            price * (j - k) / n, scale)
                units = money_units(price * k / n, scale)
                if not has_bid[r, k] or units > values[r, k]:
                    values[r, k] = units
                    has_bid[r, k] = True
                    kinds[r, k] = KIND_HEADLINE
                if len(ks):
                    bids.append((r, price, ks, amounts))
                last_price[r] = price
                last_headline[r] = k
            if not bids:
                return
            if len(bids) == 1:
                (r, price, ks, amounts), = bids
                base = r * (n + 1)
            else:
                rows, row_prices, row_ks, row_amounts = zip(*bids)
                counts = [len(x) for x in row_ks]
                ks = np.concatenate(row_ks)
                amounts = np.concatenate(row_amounts)
                price = (row_prices[0] if len(set(row_prices)) == 1
                         else np.repeat(row_prices, counts))
                base = np.repeat(np.asarray(rows) * (n + 1), counts)
            _check_bids(ks, amounts, cap)
            self._fold(base, ks, amounts, price, clamp)
        except BidError:
            if saved is None:
                # The fold checks all rows' bids at once, after every
                # row's headline: an earlier row's bids fault first.
                for _, _, ks, amounts in bids:
                    _check_bids(ks, amounts, cap)
                raise
            rows = range(len(last_price))
            self.put(rows, saved, rows)
            if len(rows) > 1:
                for r, (price, emission) in enumerate(zip(prices, emissions)):
                    self.take([r]).record([price], [emission], clamp)
            raise

    def _fold(self, base, ks, amounts, price, clamp: bool) -> None:
        """Admit checked additional bids and fold them into the maxima.

        Bid ``i`` is on grid index ``ks[i]`` of the row at flat offset
        ``base``, at clock ``price`` (each per bid, or one for all).  An
        amount over a limit is reduced to it with ``clamp`` and raises,
        before any array changes, without it."""
        n, scale = self.grid.n, self.scale
        values, has_bid = self.values.reshape(-1), self.has_bid.reshape(-1)
        flat = base + ks
        lo = self.seg_lo.reshape(-1)[flat]
        capped = lo.max() >= 0
        if capped:
            act = np.where(lo >= 0, values[base + np.maximum(lo, 0)]
                           + self.seg_base.reshape(-1)[flat], SENTINEL_UNITS)
        if clamp:
            # Rounding is monotone, so rounding the smaller of the amount
            # and the linear price equals the smaller of the two rounded.
            units = np.floor(np.minimum(amounts * scale,
                                        price * ks / n * scale)
                             + 0.5).astype(np.int64)
            if capped:
                units = np.minimum(units, act)
        else:
            units = np.floor(amounts * scale + 0.5).astype(np.int64)
            lin = np.floor(price * ks / n * scale + 0.5).astype(np.int64)
            limits = [(units > lin, OverLinearPrice, "linear price",
                       price * ks / n)]
            if capped:
                limits.append((units > act, ActivityCapViolation,
                               "relative cap", act / scale))
            for over, fault, name, limit in limits:
                if over.any():
                    i = int(np.argmax(over))
                    raise fault(f"bid {amounts[i]} on {ks[i]}/{n} exceeds "
                                f"the {name} {limit[i]}")
        if len(flat) == 1 or (flat[1:] > flat[:-1]).all():
            at, raised = _fold_distinct(values, has_bid, flat, units)
        else:
            at, raised = _fold_any(values, has_bid, flat, units)
        values[at] = raised
        has_bid[at] = True
        self.kinds.reshape(-1)[at] = KIND_ADDITIONAL


def _check_bids(ks, amounts, cap: int) -> None:
    """The checks of additional bids that no clamp repairs.

    One reduction tests both ends of the index range: a negative index
    read as unsigned is above any cap.
    """
    if np.asarray(ks, dtype=np.int64).view(np.uint64).max() > cap:
        if ks.min() < 0:
            raise BidError(f"additional bid on negative grid index "
                           f"{ks.min()}")
        raise CapExceeded("additional bid above the quantity cap")
    if amounts.min() < 0:
        raise BidError("bid amounts must be non-negative")


def _fold_distinct(values, has_bid, flat, units):
    """The indices and values a fold raises, for distinct flat indices:
    a gather and a compare on the bid indices only."""
    up = units > np.where(has_bid[flat], values[flat], -1)
    return flat[up], units[up]


def _fold_any(values, has_bid, flat, units):
    """The indices and values a fold raises, for any flat indices: a
    running maximum over the full width, so repeated indices keep their
    largest bid."""
    prev = np.where(has_bid, values, np.int64(-1))
    after = prev.copy()
    np.maximum.at(after, flat, units)
    up = after > prev
    return up, after[up]


def _normalize_bids(additional_bids, grid: QuantityGrid):
    ks, amounts = [], []
    for bid in additional_bids:
        x, a = ((bid.quantity, bid.amount) if isinstance(bid, AdditionalBid)
                else bid)
        ks.append(grid.index(x))
        amounts.append(float(a))
    return np.asarray(ks, dtype=np.int64), np.asarray(amounts, dtype=float)
