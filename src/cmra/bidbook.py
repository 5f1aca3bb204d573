"""Per-bidder cumulative bid books on a discrete quantity grid.

A book accumulates one bidder's headline-demand history and additional
package bids round by round, enforcing the auction's legality rules:
additional bids are capped by linear clock prices, headline demand is
non-increasing (eligibility), and bids above the current headline are
constrained by the relative activity cap created by past headline drops.

Money is held internally as integers in small fixed units (micro-units
of the currency by default) so that ties in the closing rule are exact.
An absent bid is an explicit BOTTOM marker (None / a False mask entry),
never a negative sentinel that could leak into arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    """Running per-grid-point maximum of one bidder's bids.

    The stored value at grid point k is the highest amount (in integer
    money units) bid on k so far, via either a linearly priced headline
    submission or an additional bid; unbid points carry no value.
    """

    def __init__(self, grid: QuantityGrid, scale: int = MICRO):
        self.grid = grid
        self.scale = scale
        n = grid.n
        self.values = np.zeros(n + 1, dtype=np.int64)
        self.has_bid = np.zeros(n + 1, dtype=bool)
        self.kinds = np.zeros(n + 1, dtype=np.int8)
        # Drop segments: the headline fell from hi to lo at some price;
        # bids strictly inside are capped.  The headline is non-increasing,
        # so segments never overlap and each grid point belongs to at most
        # one; per-point arrays make the cap an O(1) lookup.
        self._seg_lo = np.full(n + 1, -1, dtype=np.int64)
        self._seg_base = np.zeros(n + 1, dtype=np.int64)
        self.last_price: float | None = None
        self.last_headline: int | None = None

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
        lo = int(self._seg_lo[k])
        if lo < 0:
            return math.inf
        return int(self.values[lo]) + int(self._seg_base[k])

    def activity_caps_array(self, unbounded: int) -> np.ndarray:
        """All per-point caps at once, with ``unbounded`` where no cap binds."""
        lo = np.maximum(self._seg_lo, 0)
        caps = self.values[lo] + self._seg_base
        return np.where(self._seg_lo >= 0, caps, unbounded)

    def activity_cap(self, x: float):
        return self.activity_cap_index(self.grid.index(x))

    def arrays(self):
        """(values, mask) view for the closing solver; treat as read only."""
        return self.values, self.has_bid

    def copy(self) -> "BidBook":
        dup = BidBook.__new__(BidBook)
        dup.grid = self.grid
        dup.scale = self.scale
        dup.values = self.values.copy()
        dup.has_bid = self.has_bid.copy()
        dup.kinds = self.kinds.copy()
        dup._seg_lo = self._seg_lo.copy()
        dup._seg_base = self._seg_base.copy()
        dup.last_price = self.last_price
        dup.last_headline = self.last_headline
        return dup

    # -- updates ------------------------------------------------------

    def record_round(self, clock_price: float, headline_quantity: float,
                     additional_bids=()) -> "BidBook":
        """Record one clock round: headline demand plus any additional bids.

        The clock price must exceed the previous round's, the headline
        must be a grid point weakly below both the cap and the previous
        headline, and every additional bid must satisfy the linear-price
        rule and the activity cap.  Returns self for chaining.
        """
        k = self.grid.index(headline_quantity)
        ks, amounts = _normalize_bids(additional_bids, self.grid)
        self.record_round_indexed(clock_price, k, ks, amounts)
        return self

    def record_round_indexed(self, clock_price: float, headline_k: int,
                             ks: np.ndarray, amounts: np.ndarray,
                             clamp: bool = False) -> None:
        """Array fast path used by the auction engine; bids as grid indices.

        With ``clamp=True`` over-limit amounts are reduced to the legal
        maximum instead of raising; the engine uses this because proxy
        emissions saturate the relative cap and grid rounding can
        overshoot it by a fraction of a money unit.
        """
        if self.last_price is not None and clock_price <= self.last_price:
            raise BidError(
                f"clock price {clock_price} does not exceed previous {self.last_price}"
            )
        if not 0 <= headline_k <= self.grid.cap_index:
            _headline_fault(headline_k)
        if self.last_headline is not None and headline_k > self.last_headline:
            raise NonMonotoneHeadline(
                f"headline rose from {self.last_headline} to {headline_k}"
            )

        lo, hi = headline_k, self.last_headline
        dropped = hi is not None and lo < hi
        if dropped:
            n = self.grid.n
            for k in range(lo + 1, hi):
                self._seg_lo[k] = lo
                self._seg_base[k] = money_units(
                    clock_price * (k - lo) / n, self.scale)

        # Headline bid at linear clock prices, recorded before additional
        # bids so the activity cap sees this round's base value.  Saved
        # state lets a rejected round roll back atomically.
        saved = (bool(self.has_bid[headline_k]), int(self.values[headline_k]),
                 int(self.kinds[headline_k]))
        self._post(headline_k, money_units(
            clock_price * headline_k / self.grid.n, self.scale), KIND_HEADLINE)

        if len(ks):
            try:
                _admit_and_fold(self.values, self.has_bid, self.kinds,
                                self._seg_lo, self._seg_base, 0, ks, ks,
                                amounts, clock_price, self.grid, self.scale,
                                clamp)
            except BidError:
                self.has_bid[headline_k], self.values[headline_k], \
                    self.kinds[headline_k] = saved
                if dropped:
                    self._seg_lo[lo + 1: hi] = -1
                    self._seg_base[lo + 1: hi] = 0
                raise

        self.last_price = clock_price
        self.last_headline = headline_k

    def _post(self, k: int, units: int, kind: int) -> None:
        if not self.has_bid[k] or units > self.values[k]:
            self.values[k] = units
            self.has_bid[k] = True
            self.kinds[k] = kind


class BookRows:
    """Bid books stacked as rows: ``BidBook``'s arrays with shape ``(R, n+1)``.

    The engine's clock loop holds every book on the clock here, and its
    batched refine every closer's two books; each records one round on
    many rows in one :meth:`record` call, with the rules, integer
    rounding and errors of ``BidBook.record_round_indexed(clamp=True)``.
    """

    __slots__ = ("grid", "scale", "values", "has_bid", "kinds", "seg_lo",
                 "seg_base", "last_price", "last_headline")

    def __init__(self, grid, scale, values, has_bid, kinds, seg_lo, seg_base,
                 last_price, last_headline):
        self.grid = grid
        self.scale = scale
        self.values = values
        self.has_bid = has_bid
        self.kinds = kinds
        self.seg_lo = seg_lo
        self.seg_base = seg_base
        self.last_price = last_price          # per row, None before a round
        self.last_headline = last_headline    # per row, None before a round

    @classmethod
    def stack(cls, books) -> "BookRows":
        """Rows holding copies of ``books``, which share one grid and scale."""
        return cls(books[0].grid, books[0].scale,
                   np.array([b.values for b in books]),
                   np.array([b.has_bid for b in books]),
                   np.array([b.kinds for b in books]),
                   np.array([b._seg_lo for b in books]),
                   np.array([b._seg_base for b in books]),
                   [b.last_price for b in books],
                   [b.last_headline for b in books])

    def copy(self) -> "BookRows":
        return BookRows(self.grid, self.scale, self.values.copy(),
                        self.has_bid.copy(), self.kinds.copy(),
                        self.seg_lo.copy(), self.seg_base.copy(),
                        self.last_price.copy(), self.last_headline.copy())

    def take(self, rows) -> "BookRows":
        """Copies of the given rows, in that order."""
        return BookRows(self.grid, self.scale, self.values[rows],
                        self.has_bid[rows], self.kinds[rows],
                        self.seg_lo[rows], self.seg_base[rows],
                        [self.last_price[r] for r in rows],
                        [self.last_headline[r] for r in rows])

    def put(self, rows, src: "BookRows", src_rows) -> None:
        """Overwrite ``rows`` with rows ``src_rows`` of ``src``."""
        self.values[rows] = src.values[src_rows]
        self.has_bid[rows] = src.has_bid[src_rows]
        self.kinds[rows] = src.kinds[src_rows]
        self.seg_lo[rows] = src.seg_lo[src_rows]
        self.seg_base[rows] = src.seg_base[src_rows]
        for r, s in zip(rows, src_rows):
            self.last_price[r] = src.last_price[s]
            self.last_headline[r] = src.last_headline[s]

    def book(self, r: int) -> BidBook:
        """A ``BidBook`` on row ``r``: it shares the row's arrays."""
        book = BidBook.__new__(BidBook)
        book.grid = self.grid
        book.scale = self.scale
        book.values = self.values[r]
        book.has_bid = self.has_bid[r]
        book.kinds = self.kinds[r]
        book._seg_lo = self.seg_lo[r]
        book._seg_base = self.seg_base[r]
        book.last_price = self.last_price[r]
        book.last_headline = self.last_headline[r]
        return book

    def record(self, prices, emissions) -> None:
        """One clamped round per row: row ``r`` bids ``emissions[r]`` at ``prices[r]``.

        An emission is ``(headline_k, ks, amounts)``.  Checks, the
        headline bid and drop segments are scalar work per row, as in
        ``BidBook``; the additional bids of all rows are admitted and
        folded into the running maxima at once.  The ``BidError`` raised
        is the one a row-by-row record would raise first, and it leaves
        the rows undefined: callers drop them.
        """
        grid, scale = self.grid, self.scale
        n, cap = grid.n, grid.cap_index
        values, has_bid = self.values, self.has_bid
        last_price, last_headline = self.last_price, self.last_headline
        bids = []  # (row, price, ks, amounts) of the rows with bids
        try:
            for r, (price, (k, ks, amounts)) in enumerate(zip(prices,
                                                              emissions)):
                last = last_price[r]
                if last is not None and price <= last:
                    raise BidError(
                        f"clock price {price} does not exceed previous {last}")
                if not 0 <= k <= cap:
                    _headline_fault(k)
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
                    self.kinds[r, k] = KIND_HEADLINE
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
            _admit_and_fold(values.reshape(-1), has_bid.reshape(-1),
                            self.kinds.reshape(-1), self.seg_lo.reshape(-1),
                            self.seg_base.reshape(-1), base, base + ks, ks,
                            amounts, price, grid, scale, True)
        except BidError:
            # The first fault in row order wins, as in a row-by-row
            # record: bids of an earlier row fault before a later row's
            # headline, and the fold checks all rows' bids at once.
            for _, _, ks, amounts in bids:
                _check_bids(ks, amounts, cap)
            raise


def _admit_and_fold(values, has_bid, kinds, seg_lo, seg_base, base, flat, ks,
                    amounts, price, grid: QuantityGrid, scale: int,
                    clamp: bool) -> None:
    """Admit additional bids and fold them into the running maxima.

    The arrays are one book's, or several books' rows flattened; bid
    ``i`` is on grid index ``ks[i]`` of the row that starts at offset
    ``base`` (per bid, or one offset for all), flat index ``flat[i]``,
    at clock ``price`` (per bid, or one price for all).  Amounts are
    rounded to money units; with ``clamp`` an amount over the linear
    price or the activity cap is reduced to the legal maximum, otherwise
    it raises.  Every check runs before any array changes.
    """
    n = grid.n
    _check_bids(ks, amounts, grid.cap_index)
    lo = seg_lo[flat]
    capped = lo.max() >= 0
    if capped:
        act = np.where(lo >= 0, values[base + np.maximum(lo, 0)]
                       + seg_base[flat], SENTINEL_UNITS)
    if clamp:
        # Rounding is monotone, so rounding the smaller of the amount
        # and the linear price equals the smaller of the two rounded.
        units = np.floor(np.minimum(amounts * scale, price * ks / n * scale)
                         + 0.5).astype(np.int64)
        if capped:
            units = np.minimum(units, act)
    else:
        units = np.floor(amounts * scale + 0.5).astype(np.int64)
        lin = np.floor(price * ks / n * scale + 0.5).astype(np.int64)
        over_lin = units > lin
        if over_lin.any():
            i = int(np.argmax(over_lin))
            raise OverLinearPrice(
                f"bid {amounts[i]} on {ks[i]}/{n} exceeds the linear price "
                f"{price * ks[i] / n}")
        if capped:
            over_act = units > act
            if over_act.any():
                i = int(np.argmax(over_act))
                raise ActivityCapViolation(
                    f"bid {amounts[i]} on {ks[i]}/{n} exceeds the relative "
                    f"cap {act[i] / scale}")
    if len(flat) == 1 or (flat[1:] > flat[:-1]).all():
        at, raised = _fold_distinct(values, has_bid, flat, units)
    else:
        at, raised = _fold_any(values, has_bid, flat, units)
    values[at] = raised
    has_bid[at] = True
    kinds[at] = KIND_ADDITIONAL


def _headline_fault(k) -> None:
    """Raise for a headline index off the grid's indices 0..cap."""
    if k < 0:
        raise BidError(f"headline demand on negative grid index {k}")
    raise CapExceeded("headline demand exceeds the quantity cap")


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
        if isinstance(bid, AdditionalBid):
            x, a = bid.quantity, bid.amount
        else:
            x, a = bid
        ks.append(grid.index(x))
        amounts.append(float(a))
    return np.asarray(ks, dtype=np.int64), np.asarray(amounts, dtype=float)
