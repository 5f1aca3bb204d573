"""Stateful test of ``BidBook`` against a naive dict-based book.

A ``hypothesis`` state machine records random rounds through
``BidBook.record_round_indexed`` (clamp on and off) and random headline
drops, and applies the same rounds to ``NaiveBook``, which keeps its
bids, kinds and drop segments in dicts and checks every rule with plain
loops.  After each step the two must agree on values, masks, kinds,
activity caps and the last price and headline; a rejected round must
raise the same error type in both and leave both unchanged.  Bid
indices come in any order and as sorted distinct lists, so the fold of
the additional bids sees repeated and distinct points, and the test
checks that it did.  The run is derandomized, so the suite sees the
same examples every time.
"""

import inspect
import math

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from cmra import (ActivityCapViolation, BidBook, CapExceeded,
                  NonMonotoneHeadline, OverLinearPrice, QuantityGrid, bidbook)
from cmra.bidbook import BidError, KIND_ADDITIONAL, KIND_HEADLINE


def _units(amount, scale):
    return math.floor(amount * scale + 0.5)


class NaiveBook:
    """One bidder's book as dicts, one rule at a time."""

    def __init__(self, grid, scale):
        self.grid, self.scale = grid, scale
        self.bids = {}       # k -> (units, kind)
        self.segments = {}   # k -> (lo, base units) after a drop over k
        self.last_price = self.last_headline = None

    def cap_at(self, k):
        if k not in self.segments:
            return math.inf
        lo, base = self.segments[k]
        return self.bids[lo][0] + base

    def record(self, price, headline_k, bids, clamp):
        """Apply one round or raise; a raised round changes nothing."""
        n, cap, scale = self.grid.n, self.grid.cap_index, self.scale
        if self.last_price is not None and price <= self.last_price:
            raise BidError("clock price does not rise")
        if headline_k > cap:
            raise CapExceeded("headline above the cap")
        hi = self.last_headline
        if hi is not None and headline_k > hi:
            raise NonMonotoneHeadline("headline rose")
        segments = dict(self.segments)
        if hi is not None:
            for k in range(headline_k + 1, hi):
                segments[k] = (headline_k,
                               _units(price * (k - headline_k) / n, scale))
        posted = dict(self.bids)
        units = _units(price * headline_k / n, scale)
        if headline_k not in posted or units > posted[headline_k][0]:
            posted[headline_k] = (units, KIND_HEADLINE)
        if any(k > cap for k, _ in bids):
            raise CapExceeded("additional bid above the cap")
        if any(a < 0 for _, a in bids):
            raise BidError("negative amount")
        admitted = []
        for k, a in bids:
            u = _units(a, scale)
            lin = _units(price * k / n, scale)
            if k in segments:
                lo, base = segments[k]
                act = posted[lo][0] + base
            else:
                act = math.inf
            admitted.append((k, u, lin, act))
        if clamp:
            admitted = [(k, min(u, lin, act), lin, act)
                        for k, u, lin, act in admitted]
        else:
            if any(u > lin for _, u, lin, _ in admitted):
                raise OverLinearPrice("over the linear price")
            if any(u > act for _, u, _, act in admitted):
                raise ActivityCapViolation("over the activity cap")
        for k, u, _, _ in admitted:
            if k not in posted or u > posted[k][0]:
                posted[k] = (u, KIND_ADDITIONAL)
        self.bids, self.segments = posted, segments
        self.last_price, self.last_headline = price, headline_k


GRIDS = [(4, 0.75), (8, 0.75), (10, 0.9), (12, 0.5)]
SCALES = [100, 10 ** 6]


class BidBookMachine(RuleBasedStateMachine):
    @initialize(grid=st.sampled_from(GRIDS), scale=st.sampled_from(SCALES))
    def setup(self, grid, scale):
        self.grid = QuantityGrid(*grid)
        self.book = BidBook(self.grid, scale)
        self.naive = NaiveBook(self.grid, scale)

    def _price(self, data):
        last = self.naive.last_price
        if last is None:
            return data.draw(st.sampled_from([0.0, 0.25, 1.0, 3.7]))
        return last + data.draw(st.one_of(
            st.sampled_from([0.001, 0.1, 0.5, 1.0]), st.floats(1e-6, 2.0)))

    def _headline(self, data):
        hi = self.naive.last_headline
        if hi is None:
            return data.draw(st.integers(0, self.grid.cap_index))
        return data.draw(st.one_of(st.just(hi), st.integers(0, hi)))

    def _bids(self, data, price):
        """Bids near the linear price and the activity cap, or random."""
        scale, n = self.naive.scale, self.grid.n
        capped = sorted(self.naive.segments)
        quantity = st.integers(0, self.grid.cap_index)
        if capped:
            quantity = st.one_of(quantity, st.sampled_from(capped))
        quantities = st.lists(quantity, max_size=4)
        bids = []
        # Sorted distinct indices, as the profiles emit, next to any order.
        for k in data.draw(st.one_of(
                quantities, quantities.map(lambda ks: sorted(set(ks))))):
            lin = price * k / n
            near = [lin * f for f in (0.0, 0.5, 0.9, 0.999, 1.0, 1.001)]
            cap = self.naive.cap_at(k)
            if cap != math.inf:
                near += [(cap + d) / scale for d in (-1, -0.5, 0, 0.5, 1)]
            bids.append((k, data.draw(st.one_of(
                st.sampled_from(near), st.floats(0.0, 1.2 * lin + 0.01)))))
        return bids

    def _apply(self, price, headline_k, bids, clamp):
        ks = np.array([k for k, _ in bids], dtype=np.int64)
        amounts = np.array([a for _, a in bids], dtype=float)
        expected = got = None
        try:
            self.naive.record(price, headline_k, bids, clamp)
        except BidError as exc:
            expected = type(exc)
        before = self.book.copy()
        try:
            self.book.record_round_indexed(price, headline_k, ks, amounts,
                                           clamp=clamp)
        except BidError as exc:
            got = type(exc)
        assert got is expected
        if got is not None:  # a rejected round leaves the book unchanged
            self._check_same(before, self.book)

    @rule(data=st.data(), clamp=st.booleans())
    def record_round(self, data, clamp):
        price = self._price(data)
        self._apply(price, self._headline(data), self._bids(data, price),
                    clamp)

    @precondition(lambda self: self.naive.last_headline != 0)
    @rule(data=st.data())
    def headline_drop(self, data):
        hi = self.naive.last_headline
        top = self.grid.cap_index if hi is None else hi - 1
        self._apply(self._price(data), data.draw(st.integers(0, top)), [],
                    False)

    @rule(data=st.data(), clamp=st.booleans(),
          fault=st.sampled_from(["price", "headline-rise", "headline-cap",
                                 "bid-cap", "negative"]))
    def faulty_round(self, data, clamp, fault):
        """A round that breaks one rule the clamp does not repair."""
        price = self._price(data)
        headline_k = self._headline(data)
        bids = self._bids(data, price)
        cap, last = self.grid.cap_index, self.naive.last_headline
        if fault == "price" and self.naive.last_price is not None:
            price = self.naive.last_price - data.draw(
                st.sampled_from([0.0, 0.1]))
        elif fault == "headline-rise" and last is not None and last < cap:
            headline_k = data.draw(st.integers(last + 1, cap))
        elif fault == "headline-cap":
            headline_k = data.draw(st.integers(cap + 1, self.grid.n))
        elif fault == "bid-cap":
            bids.append((data.draw(st.integers(cap + 1, self.grid.n)), 0.0))
        elif fault == "negative":
            bids.append((data.draw(st.integers(0, cap)), -0.25))
        self._apply(price, headline_k, bids, clamp)

    @staticmethod
    def _check_same(a, b):
        for name in ("values", "has_bid", "kinds", "_seg_lo", "_seg_base"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert (a.last_price, a.last_headline) == (b.last_price,
                                                   b.last_headline)

    @invariant()
    def matches_naive(self):
        book, naive = self.book, self.naive
        for k in range(self.grid.n + 1):
            units, kind = naive.bids.get(k, (None, 0))
            assert book.bid_at_index(k) == units
            assert bool(book.has_bid[k]) is (units is not None)
            assert book.kind_at_index(k) == kind
            assert book.activity_cap_index(k) == naive.cap_at(k)
        caps = book.activity_caps_array(-1)
        assert caps.tolist() == [-1 if naive.cap_at(k) == math.inf
                                 else naive.cap_at(k)
                                 for k in range(self.grid.n + 1)]
        assert book.last_price == naive.last_price
        assert book.last_headline == naive.last_headline


BidBookMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None, database=None,
    derandomize=True, suppress_health_check=[HealthCheck.too_slow])


class TestBidBookAgainstNaive(BidBookMachine.TestCase):
    def runTest(self):
        """The state machine; the one-tick fold must have folded bids on
        distinct points and on repeated points."""
        seen = {"distinct": 0, "repeated": 0}
        fold = bidbook._fold_tick

        def counted(*args):
            # By name, so that a change of the fold's signature fails.
            bound = inspect.signature(fold).bind(*args)
            bound.apply_defaults()
            at = bound.arguments["at"]
            if at is not None:
                seen["repeated" if len(np.unique(at)) < len(at)
                     else "distinct"] += 1
            return fold(*args)
        bidbook._fold_tick = counted
        try:
            super().runTest()
        finally:
            bidbook._fold_tick = fold
        assert min(seen.values()) > 0, seen
