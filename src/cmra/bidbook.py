"""Per-bidder cumulative bid books on a discrete quantity grid.

A book accumulates one bidder's headline-demand history and additional
package bids round by round, enforcing the auction's legality rules:
additional bids are capped by linear clock prices, headline demand is
non-increasing (eligibility), and bids above the current headline are
constrained by the relative activity cap created by past headline drops.

Books are the rows of a ``BookRows`` state, and ``BookRows.record`` is
the one implementation of these rules: one call records a run of
rounds on every row, with every check made before anything is written,
so each round is recorded whole or not at all.  ``BidBook``, one
bidder's book, is a handle on a one-row state.

Money is held internally as integers in small fixed units (micro-units
of the currency by default) so that ties in the closing rule are exact.
Inside a state an absent bid is ``_NOTHING`` (-2**62), below any bid, so
maxima and the closing test read one array; the sum of two such values
is -2**63, still inside int64.  ``BidBook`` turns it back into BOTTOM
at its boundary: None, or 0 with a False mask entry.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, groupby
from operator import itemgetter

import numpy as np

__all__ = ["MICRO", "money_units", "BidError", "NonMonotoneHeadline",
           "OverLinearPrice", "ActivityCapViolation", "CapExceeded",
           "QuantityGrid", "AdditionalBid", "BidBook", "KIND_NONE",
           "KIND_HEADLINE", "KIND_ADDITIONAL"]

MICRO = 10 ** 6

# Money units of "no bid" in a state's values: below any bid, and two
# of them sum to -2**63, still inside int64.
_NOTHING = np.int64(-(2 ** 62))

KIND_NONE = 0
KIND_HEADLINE = 1
KIND_ADDITIONAL = 2


def _require_count(name: str, value, least: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer of at least ``least``."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}")


def _require_real(**values) -> None:
    """Raise ``ValueError`` naming the first value that is not a finite
    real number; a ``bool`` is not one."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(
                v, numbers.Real) or not math.isfinite(v):
            raise ValueError(f"{name} must be a finite real number, not {v!r}")


def money_units(amount: float, scale: int = MICRO) -> int:
    """Round a money amount to integer units (half away from zero)."""
    if amount >= 0:
        return int(math.floor(amount * scale + 0.5))
    return -int(math.floor(-amount * scale + 0.5))


class BidError(ValueError):
    """A submission violates the auction's bidding rules.

    ``BookRows.record`` sets ``tick``, the index in its run of the tick
    whose round raised."""


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

    The constructor takes an integer N >= 1 and raises it to the nearest
    multiple that makes those three shares exact grid points, at least 4.
    The cap is a real number in [0, 1].
    """

    def __init__(self, n: int, cap: float):
        _require_count("grid size", n)
        _require_real(cap=cap)
        if not 0 <= cap <= 1:
            raise ValueError(f"cap {cap} is outside [0, 1]")
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

    ``values`` (0 where no bid) and ``has_bid`` are read from the row's
    values; the other arrays are views of the row.  ``BookRows.record``
    records its rounds, so a rejected round leaves the book as it was.
    """

    def __init__(self, grid: QuantityGrid, scale: int = MICRO):
        self._bind(BookRows(grid, scale))

    def _bind(self, rows: "BookRows") -> "BidBook":
        self.rows = rows
        self.grid, self.scale = rows.grid, rows.scale
        self.kinds = rows.kinds[0]
        self._seg_lo, self._seg_base = rows.seg_lo[0], rows.seg_base[0]
        return self

    last_price = property(lambda self: self.rows.last_price[0])
    last_headline = property(lambda self: self.rows.last_headline[0])
    values = property(lambda self: np.where(self.has_bid, self.rows.values[0], 0))
    has_bid = property(lambda self: self.rows.values[0] > _NOTHING)

    # -- queries ------------------------------------------------------

    def bid_at_index(self, k: int):
        """Recorded maximum at grid index k, or None if never bid (BOTTOM)."""
        units = int(self.rows.values[0, k])
        return units if units > _NOTHING else None

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
        return math.inf if lo < 0 else int(
            self.rows.values[0, lo] + self._seg_base[k])

    def activity_caps_array(self, unbounded: int) -> np.ndarray:
        """All per-point caps at once, with ``unbounded`` where no cap binds."""
        return self.rows.activity_caps_array(unbounded)[0]

    def activity_cap(self, x: float):
        return self.activity_cap_index(self.grid.index(x))

    def arrays(self):
        """(values, mask) for the closing solver: 0 and False where no bid."""
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
        self.rows.record([clock_price], [[(headline_k, ks, amounts)]], clamp)


# The per-point arrays of a ``BookRows``, one row per book, and all of
# its per-row arrays.
_ARRAYS = ("values", "kinds", "seg_lo", "seg_base")
_ROWS = _ARRAYS + ("last",)


class BookRows:
    """Bid books as rows: per-grid-point arrays of shape ``(R, n+1)``.

    ``values[r, k]`` is book r's highest amount (in money units) on grid
    point k, by a linearly priced headline or an additional bid, and
    ``_NOTHING`` where it never bid; ``kinds`` tells how.  Where the
    headline fell from hi to lo, the points strictly between hold
    ``seg_lo`` = lo and, in ``seg_base``, the linear price of their
    increment then: segments never overlap, so a cap is one lookup.
    ``last[r]`` holds book r's last clock price and headline, NaN before
    its first round.
    """

    __slots__ = ("grid", "scale") + _ROWS

    def __init__(self, grid: QuantityGrid, scale: int = MICRO,
                 count: int = 1):
        """``count`` rows on which no round has been recorded."""
        shape = (count, grid.n + 1)
        self.grid, self.scale = grid, scale
        self.values = np.full(shape, _NOTHING)
        self.kinds = np.zeros(shape, np.int8)
        self.seg_lo = np.full(shape, -1, np.int64)
        self.seg_base = np.zeros(shape, np.int64)
        self.last = np.full((count, 2), np.nan)

    last_price = property(lambda self: [
        None if math.isnan(p) else p for p in self.last[:, 0].tolist()],
        doc="Each row's last clock price, None before a round.")
    last_headline = property(lambda self: [
        None if math.isnan(k) else int(k) for k in self.last[:, 1].tolist()],
        doc="Each row's last headline index, None before a round.")

    def _with(self, arrays) -> "BookRows":
        """A state on this one's grid holding ``arrays``, as ``_ROWS``."""
        new = BookRows.__new__(BookRows)
        new.grid, new.scale = self.grid, self.scale
        new.values, new.kinds, new.seg_lo, new.seg_base, new.last = arrays
        return new

    def copy(self) -> "BookRows":
        return self._with([getattr(self, a).copy() for a in _ROWS])

    def take(self, rows) -> "BookRows":
        """Copies of the given rows, in that order."""
        return self._with([getattr(self, a).take(rows, axis=0)
                           for a in _ROWS])

    def put(self, rows, src: "BookRows", src_rows) -> None:
        """Overwrite ``rows`` with rows ``src_rows`` of ``src``."""
        at = np.asarray(rows)
        for a in _ROWS:
            getattr(self, a)[at] = getattr(src, a).take(src_rows, axis=0)

    @staticmethod
    def join(parts) -> "BookRows":
        """Copies of the rows ``rows`` of each ``(state, rows)`` part, in
        order; neighbouring parts of one state are taken together."""
        groups = [(state, [r for _, rows in group for r in rows])
                  for state, group in groupby(parts, key=itemgetter(0))]
        return groups[0][0]._with(
            [np.concatenate([getattr(state, a).take(rows, axis=0)
                             for state, rows in groups]) for a in _ROWS])

    def activity_caps_array(self, unbounded: int) -> np.ndarray:
        """Every row's per-point caps, ``unbounded`` where no cap binds."""
        lo = np.maximum(self.seg_lo, 0)
        caps = np.take_along_axis(self.values, lo, axis=1) + self.seg_base
        return np.where(self.seg_lo >= 0, caps, unbounded)

    def record(self, prices, emissions, clamp: bool = True,
               out=None) -> None:
        """Record K ticks on every row: at tick j, row ``r`` bids
        ``emissions[j][r]``, ``(headline_k, ks, amounts)`` in grid indices,
        at ``prices[j]``, one price for all rows or one per row.

        The price must be finite and exceed the row's previous one; the
        headline lies in 0..cap, not above the previous one, and is bid at
        the linear price; a drop writes its segment first, so the tick's
        caps see its base value.  Additional bids must be non-negative and
        within the linear price and the activity cap; ``clamp`` reduces
        them to that limit instead, as the engine needs.  ``out``, an
        int64 array ``(rows, K or more, n+1)``, gets in ``out[:, j]`` every
        row's ``values`` after tick j, ``_NOTHING`` where no bid.

        All checks run before any write, so a record is atomic per tick:
        the ``BidError`` raised is the first a tick-by-tick, row-by-row
        record raises, the ticks before it are recorded, its ``tick`` is
        its index and its tick changes no row; the fault is built only
        on failure.  One tick keeps no run bookkeeping and is folded in
        place, a run by a running maximum over its points' ticks; rows
        that bid their headline only stay out of the bid arrays.
        """
        grid, scale = self.grid, self.scale
        n, cap, width = grid.n, grid.cap_index, grid.n + 1
        count, ticks = len(self.last), len(emissions)
        # Entry e is row e % count at tick e // count.
        price = np.asarray(prices, dtype=float)
        price = price.repeat(count) if price.ndim == 1 else price.ravel()
        entries = (emissions[0] if ticks == 1
                   else [e for tick in emissions for e in tick])
        heads, ks, amounts = zip(*entries) if entries else ((), (), ())
        heads = np.array(heads, dtype=np.int64)
        # Each entry's previous price and headline, NaN before any round.
        last, top = (self.last[:, 0], self.last[:, 1]) if ticks == 1 else (
            np.concatenate((self.last[:, 0], price[:-count])),
            np.concatenate((self.last[:, 1], heads[:-count])))
        # A negative index read as unsigned is above any cap.
        bad = ((price <= last) | ~np.isfinite(price)
               | (heads.view(np.uint64) > np.fmin(top, cap)))
        # Headline-only entries take no part in the bids' arrays.
        sizes = list(map(len, ks))
        bids = any(sizes)
        if bids:
            ks = np.concatenate(list(compress(ks, sizes))).astype(
                np.int64, copy=False)
            amounts = np.concatenate(list(compress(amounts, sizes))).astype(
                float, copy=False)
            # In place where it can be: a run's bids can be many.
            lin = price.repeat(sizes)
            lin *= ks
            lin /= n
            lin *= scale
            # Rounding is monotone, so rounding the smaller of the amount
            # and the linear price equals the smaller of the two rounded.
            if clamp:
                amounts *= scale  # a copy; its sign and NaNs are kept
                units = np.minimum(amounts, lin, out=lin)
            else:
                units = amounts * scale
            units += 0.5
            np.floor(units, out=units)
            if (ks.view(np.uint64).max() > cap or not amounts.min() >= 0
                    or not clamp and (units > np.floor(lin + 0.5)).any()):
                wrong = (ks.view(np.uint64) > cap) | ~(amounts >= 0)
                if not clamp:
                    wrong |= units > np.floor(lin + 0.5)
                bad[np.arange(len(sizes)).repeat(sizes)[wrong]] = True
            del lin
            if clamp:
                amounts = None  # only an unclamped bid's fault reports it
        if bad.any():
            e = int(bad.argmax())
            self._fail(price, emissions, clamp, out, e, _fault(
                entries[e], price[e], last[e], top[e], grid, scale))
        values, kinds = self.values.reshape(-1), self.kinds.reshape(-1)
        row = (np.arange(0, count * width, width) if ticks == 1
               else np.arange(len(entries)) % count * width)  # entry's row
        at_head = row + heads
        head_units = _money_units(price * heads / n, scale)
        # A drop puts a segment on every point strictly between the new
        # headline and the previous one, from its tick on.
        drop, seg = (heads < top).nonzero()[0], ()
        if len(drop):
            gap = top[drop].astype(np.int64) - heads[drop] - 1
            seg = drop.repeat(gap)  # the entry of each segment point
            step = (np.arange(len(seg)) + 1
                    - (np.cumsum(gap) - gap).repeat(gap))
            seg_at = row[seg] + heads[seg] + step
            seg_units = _money_units(price[seg] * step / n, scale)
        capped = ()
        if bids:
            units = units.astype(np.int64)
            at = row.repeat(sizes)
            at += ks
            if clamp:
                ks = None  # nor its index
            low = self.seg_lo.reshape(-1)[at]
            if len(seg) or low.max() >= 0:
                owner = np.arange(len(sizes)).repeat(sizes)  # bid's entry
                base = self.seg_base.reshape(-1)[at]
                if len(seg):
                    # Segments never overlap: new ones lie below the old
                    # ones, and cap from their drop's tick on.
                    index = np.full(len(values), -1)
                    index[seg_at] = np.arange(len(seg))
                    i = index[at]
                    new = (i >= 0) & (seg[i] // count <= owner // count)
                    low = np.where(new, heads[seg[i]], low)
                    base = np.where(new, seg_units[i], base)
                capped = (low >= 0).nonzero()[0]
                o, low, base = owner[capped], low[capped], base[capped]
                lo_at = row[o] + low
                if not clamp:
                    ks, amounts = ks[capped], amounts[capped]
            else:
                low = ks = amounts = None
            # A run's bids can be many: keep no per-bid array the folds
            # do not read.
            owner = index = i = new = None

            def limit(before) -> bool:
                """Cap the ``capped`` bids, whose segments' lower points
                held ``before`` ahead of their tick; True if one fell."""
                act = np.where(heads[o] == low, np.maximum(
                    before, head_units[o]), before) + base
                over = units[capped] > act
                if not over.any():
                    return False
                i = int(over.argmax())
                if not clamp:
                    self._fail(price, emissions, clamp, out, int(o[i]),
                               ActivityCapViolation(
                                   f"bid {amounts[i]} on {ks[i]}/{n} "
                                   f"exceeds the relative cap "
                                   f"{act[i] / scale}"))
                units[capped] = np.minimum(units[capped], act)
                return True
        if ticks == 1:
            if len(capped):
                limit(values[lo_at])
            _fold_tick(values, kinds, at_head, head_units,
                       *((at, units) if bids else ()))
            if out is not None:
                out[:, 0] = self.values
        else:
            touched = np.zeros(len(values), bool)
            touched[at_head] = True
            if bids:
                touched[at] = True
            if len(capped):
                touched[lo_at] = True
            cols = touched.nonzero()[0]
            column = np.empty(len(values), np.intp)
            column[cols] = np.arange(len(cols))
            # Cell (c, j + 1) of a point's run holds what tick j bids on it.
            tick = np.arange(ticks).repeat(count)
            cell_head = column[at_head] * (ticks + 1) + tick + 1
            pre = values[cols]
            bid_cells = ()
            if bids:
                cell, at = column[at], None
                cell *= ticks + 1
                cell += tick.repeat(sizes)
                cell += 1
                bid_cells = (cell, units)
            run = _fold_run(pre, ticks, cell_head, head_units, *bid_cells)
            # A lower point is in no segment: uncapped bids leave it exact.
            if len(capped) and limit(run[column[lo_at], tick[o]]):
                run = _fold_run(pre, ticks, cell_head, head_units,
                                *bid_cells)
            bid_cells = units = None
            final = run[:, -1]
            # The tick at which a point first holds its final value sets
            # its kind; the headline comes before the bids of its tick.
            first = (run >= final[:, None]).argmax(axis=1)
            up = first.nonzero()[0]
            kind = KIND_HEADLINE
            if bids:
                e = (first[up] - 1) * count + cols[up] // width
                kind = np.where((at_head[e] == cols[up])
                                & (head_units[e] == final[up]),
                                KIND_HEADLINE, KIND_ADDITIONAL)
            kinds[cols[up]] = kind
            if out is not None:
                r, k = np.divmod(cols, width)
                out[:, :ticks] = self.values[:, None]
                out[r, :ticks, k] = run[:, 1:]
            values[cols] = final
        if len(seg):
            self.seg_lo.reshape(-1)[seg_at] = heads[seg]
            self.seg_base.reshape(-1)[seg_at] = seg_units
        self.last[:, 0], self.last[:, 1] = price[-count:], heads[-count:]

    def _fail(self, price, emissions, clamp, out, e, error):
        """Raise ``error``, the first fault, of entry ``e`` of a run, after
        recording the ticks before its tick.  The rows before it in its
        tick are checked on a copy: an unclamped one may fail its cap."""
        count = len(self.last)
        j, r = divmod(e, count)
        price = price.reshape(-1, count)
        if j:
            self.record(price[:j], emissions[:j], clamp, out)
        if r and not clamp:
            try:
                self.take(range(r)).record(price[j:j + 1, :r],
                                           [emissions[j][:r]], clamp)
            except BidError as earlier:
                error = earlier
        error.tick = j
        raise error


def _fold_tick(values, kinds, at_head, head_units, at=None,
               units=None) -> None:
    """Fold one tick into flat book arrays: raise the maxima at the
    headline points ``at_head``, then at the bid points ``at``, where a
    repeated point keeps its largest bid."""
    up = head_units > values[at_head]
    at_up = at_head[up]
    values[at_up] = head_units[up]
    kinds[at_up] = KIND_HEADLINE
    if at is not None:
        old = values[at]
        np.maximum.at(values, at, units)
        kinds[at[values[at] > old]] = KIND_ADDITIONAL


def _fold_run(pre, ticks, cell_head, head_units, cell_bid=None,
              units=None):
    """The running maximum of a run's points over its ticks.

    Row c of the ``(points, ticks + 1)`` result starts at ``pre[c]``,
    point c's value before the run (``_NOTHING`` without a bid), and
    column j + 1 holds its maximum after tick j.  ``cell_head`` and
    ``cell_bid`` are the flat cells the headlines and the bids raise; a
    repeated cell keeps its largest bid."""
    run = np.full((len(pre), ticks + 1), _NOTHING)
    run[:, 0] = pre
    flat = run.reshape(-1)
    flat[cell_head] = head_units
    if cell_bid is not None:
        np.maximum.at(flat, cell_bid, units)
    return np.maximum.accumulate(run, axis=1, out=run)


def _money_units(amount, scale: int) -> np.ndarray:
    """``money_units`` of each amount of an array: half a unit away from
    zero, then the cast truncates toward zero, so it floors the magnitude
    (rounding is symmetric in sign, so this is exact)."""
    return (amount * scale + np.copysign(0.5, amount)).astype(np.int64)


def _fault(emission, price, last, top, grid, scale) -> BidError:
    """The error of one row's emission at one tick: the first check it
    fails, after a previous price ``last`` and headline ``top`` (NaN
    before any round)."""
    k, ks, amounts = emission
    n, cap = grid.n, grid.cap_index
    price = float(price)
    if not math.isfinite(price):
        return BidError(f"clock price {price} is not finite")
    if price <= last:
        return BidError(
            f"clock price {price} does not exceed previous {float(last)}")
    if k < 0:
        return BidError(f"headline demand on negative grid index {k}")
    if k > cap:
        return CapExceeded("headline demand exceeds the quantity cap")
    if k > top:
        return NonMonotoneHeadline(f"headline rose from {int(top)} to {k}")
    ks = np.asarray(ks, dtype=np.int64)
    amounts = np.asarray(amounts, dtype=float)
    if ks.min() < 0:
        return BidError(f"additional bid on negative grid index {ks.min()}")
    if ks.max() > cap:
        return CapExceeded("additional bid above the quantity cap")
    if not (amounts >= 0).all():
        return BidError("bid amounts must be non-negative numbers")
    over = np.floor(amounts * scale + 0.5) > np.floor(
        price * ks / n * scale + 0.5)
    i = int(over.argmax())
    return OverLinearPrice(f"bid {amounts[i]} on {ks[i]}/{n} exceeds the "
                           f"linear price {price * ks[i] / n}")


def _normalize_bids(additional_bids, grid: QuantityGrid):
    ks, amounts = [], []
    for bid in additional_bids:
        x, a = ((bid.quantity, bid.amount) if isinstance(bid, AdditionalBid)
                else bid)
        ks.append(grid.index(x))
        amounts.append(float(a))
    return np.asarray(ks, dtype=np.int64), np.asarray(amounts, dtype=float)
