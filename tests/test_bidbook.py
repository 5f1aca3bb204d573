"""Bid-book legality rules, the activity cap, and grid construction."""

import math

import numpy as np
import pytest

from cmra import (ActivityCapViolation, AdditionalBid, BidBook, CapExceeded,
                  ClosingResult, NonMonotoneHeadline, OverLinearPrice,
                  QuantityGrid, money_units, revenue_curve, solve_closing)
from cmra.bidbook import BidError, KIND_ADDITIONAL, KIND_HEADLINE, MICRO
from cmra.mechanism import _closing_results


class TestQuantityGrid:
    def test_adjusts_resolution_for_exact_points(self):
        g = QuantityGrid(5, 0.75)
        assert g.n == 8 and g.cap_index == 6
        g = QuantityGrid(4, 0.9)
        assert g.n % 10 == 0
        for x in (0.9, 0.1, 0.5):
            g.index(x)  # exact points or it raises

    def test_minimum_resolution(self):
        assert QuantityGrid(1, 0.75).n >= 4
        assert QuantityGrid(np.int64(3), 0.75).n == 4

    @pytest.mark.parametrize("n", [0, -7, 2.9, 20.0, True, None, "20"])
    def test_size_must_be_an_integer_of_at_least_one(self, n):
        # Sizes are refused rather than clamped or truncated to a grid.
        with pytest.raises(ValueError, match="grid size"):
            QuantityGrid(n, 0.75)

    def test_published_cap_fraction(self):
        # The 2016 sale capped winners at four of seven lots, a 0.57 share
        # once rounded by the regulator; percent caps need a 1/100 grid.
        g = QuantityGrid(20, 0.57)
        assert g.n == 100 and g.cap_index == 57

    def test_off_grid_rejected(self):
        g = QuantityGrid(4, 0.75)
        with pytest.raises(ValueError):
            g.index(0.3)

    def test_irrational_cap_rejected(self):
        with pytest.raises(ValueError):
            QuantityGrid(10, math.pi / 4)

    @pytest.mark.parametrize("cap", [1.5, -0.25, True, "0.75", None])
    def test_cap_outside_the_unit_interval_rejected(self, cap):
        # A cap of 1.5 on 20 points would put cap_index at 30, so a
        # record could write past its row.
        with pytest.raises(ValueError, match="cap"):
            QuantityGrid(20, cap)

    @pytest.mark.parametrize("cap", [0, 0.5, 0.9, 1])
    def test_cap_in_the_unit_interval_accepted(self, cap):
        g = QuantityGrid(20, cap)
        assert g.cap_index == round(cap * g.n)


def lots_book():
    # Prices per share of the 4-lot supply: per-lot price x 4.
    return BidBook(QuantityGrid(4, 0.75))


class TestRecordRound:
    def test_truthful_round_at_per_lot_twelve(self):
        book = lots_book()
        book.record_round(48.0, 0.75, [AdditionalBid(0.5, 6.0)])
        assert book.bid_at(0.5) == 6 * MICRO
        assert book.bid_at(0.75) == 36 * MICRO  # 48 * 0.75 linear headline

    def test_empty_package_zero_bid(self):
        book = lots_book()
        book.record_round(10.0, 0.75, [(0.0, 0.0)])
        assert book.bid_at(0.0) == 0
        assert book.kind_at_index(0) == KIND_ADDITIONAL

    def test_over_linear_price_rejected(self):
        book = lots_book()
        with pytest.raises(OverLinearPrice):
            book.record_round(40.0, 0.75, [(0.5, 21.0)])  # 21 > 10 * 2 lots

    def test_rejected_round_rolls_back(self):
        book = lots_book()
        book.record_round(40.0, 0.75)
        with pytest.raises(OverLinearPrice):
            book.record_round(48.0, 0.5, [(0.5, 30.0)])
        assert book.last_price == 40.0
        assert book.last_headline == 3
        assert (book._seg_lo == -1).all()
        assert book.bid_at(0.5) is None

    def test_cap_exceeded(self):
        book = lots_book()
        with pytest.raises(CapExceeded):
            book.record_round(10.0, 1.0)
        with pytest.raises(CapExceeded):
            book.record_round(10.0, 0.75, [(1.0, 0.0)])

    def test_headline_must_not_rise(self):
        book = lots_book()
        book.record_round(10.0, 0.5)
        with pytest.raises(NonMonotoneHeadline):
            book.record_round(11.0, 0.75)

    def test_clock_must_advance(self):
        book = lots_book()
        book.record_round(10.0, 0.75)
        with pytest.raises(BidError):
            book.record_round(10.0, 0.75)

    def test_negative_amount_rejected(self):
        book = lots_book()
        with pytest.raises(BidError):
            book.record_round(10.0, 0.75, [(0.5, -1.0)])

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("headline_k, ks", [
        (-1, []), (-3, []), (3, [-2]), (3, [1, -1]), (3, [-1, 9])])
    def test_negative_index_rejected(self, headline_k, ks, clamp):
        # A negative index would wrap around to the top of the grid.
        book = BidBook(QuantityGrid(20, 0.75))
        book.record_round_indexed(0.25, 10, np.array([2]), np.array([0.01]))
        before = book.copy()
        with pytest.raises(BidError, match="negative grid index") as err:
            book.record_round_indexed(0.5, headline_k, np.array(ks, dtype=int),
                                      np.full(len(ks), 0.01), clamp=clamp)
        assert type(err.value) is BidError
        for name in ("values", "has_bid", "kinds", "_seg_lo", "_seg_base"):
            assert (getattr(book, name) == getattr(before, name)).all()
        assert (book.last_price, book.last_headline) == (0.25, 10)


class TestNonFinite:
    """Non-finite amounts and prices are faults, never silently dropped."""

    def recorded(self):
        book = lots_book()
        book.record_round(40.0, 0.75, [(0.5, 5.0)])
        return book, book.copy()

    def assert_unchanged(self, book, before):
        for name in ("values", "has_bid", "kinds", "_seg_lo", "_seg_base"):
            assert (getattr(book, name) == getattr(before, name)).all()
        assert (book.last_price, book.last_headline) == (40.0, 3)

    @pytest.mark.parametrize("clamp", [False, True])
    def test_nan_amount_rejected(self, clamp):
        book, before = self.recorded()
        with pytest.raises(BidError, match="non-negative numbers") as err:
            book.record_round_indexed(48.0, 2, np.array([1, 2]),
                                      np.array([1.0, math.nan]), clamp=clamp)
        assert type(err.value) is BidError
        self.assert_unchanged(book, before)

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("price", [math.nan, math.inf, -math.inf])
    def test_non_finite_price_rejected(self, price, clamp):
        book, before = self.recorded()
        with pytest.raises(BidError, match="is not finite") as err:
            book.record_round_indexed(price, 3, np.array([2]),
                                      np.array([1.0]), clamp=clamp)
        assert type(err.value) is BidError
        self.assert_unchanged(book, before)

    def test_unclamped_infinite_amount_over_linear_price(self):
        book, before = self.recorded()
        with pytest.raises(OverLinearPrice, match="bid inf"):
            book.record_round(48.0, 0.75, [(0.5, math.inf)])
        self.assert_unchanged(book, before)

    def test_clamped_infinite_amount_reduced_to_its_limit(self):
        book, _ = self.recorded()
        book.record_round_indexed(48.0, 3, np.array([2]),
                                  np.array([math.inf]), clamp=True)
        assert book.bid_at(0.5) == 24 * MICRO  # the linear price 48 * 0.5
        assert book.kind_at_index(2) == KIND_ADDITIONAL

    def test_fresh_book_rejects_a_nan_bid(self):
        with pytest.raises(BidError):
            BidBook(QuantityGrid(4, 0.75)).record_round(
                1.0, 0.75, [(0.5, math.nan)])


class TestActivityCap:
    def test_cap_after_drop(self):
        g = QuantityGrid(20, 0.75)
        book = BidBook(g)
        book.record_round(30.0, 0.75)
        book.record_round(40.0, 0.5)  # drop 0.75 -> 0.5 at price 40
        # Strictly between the post- and pre-drop shares the cap binds:
        # recorded B(0.5) plus 40 per share of increment.
        want = book.bid_at(0.5) + money_units(40.0 * 0.1)
        assert book.activity_cap(0.6) == want
        assert want == 24 * MICRO  # B(0.5) = 20 at linear prices
        # Within a round the base includes that round's headline bid at
        # 0.5 (50 * 0.5 = 25), so the cap there is 25 + 4.
        with pytest.raises(ActivityCapViolation):
            book.record_round(50.0, 0.5, [(0.6, 29.001)])
        book.record_round(55.0, 0.5, [(0.6, 29.0)])  # below cap 27.5 + 4

    def test_cap_rises_with_base_bid(self):
        g = QuantityGrid(20, 0.75)
        book = BidBook(g)
        book.record_round(30.0, 0.75)
        book.record_round(40.0, 0.5)
        before = book.activity_cap(0.6)
        book.record_round(50.0, 0.5, [(0.5, 25.0)])  # raise the base bid
        assert book.activity_cap(0.6) == 25 * MICRO + money_units(40.0 * 0.1)
        assert book.activity_cap(0.6) > before

    def test_unbounded_without_drop(self):
        g = QuantityGrid(20, 0.75)
        book = BidBook(g)
        book.record_round(10.0, 0.75)
        book.record_round(20.0, 0.75)
        for x in (0.2, 0.5, 0.7):
            assert book.activity_cap(x) == math.inf

    def test_unbounded_below_drop_target(self):
        g = QuantityGrid(20, 0.75)
        book = BidBook(g)
        book.record_round(30.0, 0.75)
        book.record_round(40.0, 0.5)
        assert book.activity_cap(0.3) == math.inf
        assert book.activity_cap(0.5) == math.inf  # endpoint is not capped

    def test_caps_apply_per_drop_segment(self):
        g = QuantityGrid(20, 0.8)
        book = BidBook(g)
        book.record_round(10.0, 0.8)
        book.record_round(20.0, 0.6)
        book.record_round(30.0, 0.3)
        cap_hi = book.bid_at(0.6) + money_units(20.0 * 0.1)
        cap_lo = book.bid_at(0.3) + money_units(30.0 * 0.2)
        assert book.activity_cap(0.7) == cap_hi
        assert book.activity_cap(0.5) == cap_lo


class TestBidAt:
    def test_fresh_book_is_bottom(self):
        book = lots_book()
        for x in (0.25, 0.5, 0.75):
            assert book.bid_at(x) is None

    def test_lots_truthful_history(self):
        # Replaying the truthful emissions up to $20 per lot leaves a $30
        # bid standing on two lots.
        book = lots_book()
        book.record_round(40.0, 0.75, [(0.5, 0.0)])
        book.record_round(48.0, 0.75, [(0.5, 6.0)])
        book.record_round(80.0, 0.75, [(0.5, 30.0), (0.25, 0.0)])
        assert book.bid_at(0.5) == 30 * MICRO
        assert book.kind_at_index(2) == KIND_ADDITIONAL

    def test_headline_linear_pricing(self):
        g = QuantityGrid(4, 0.75)
        book = BidBook(g)
        book.record_round(0.4, 0.75)
        assert book.bid_at(0.75) == money_units(0.3)
        assert book.kind_at_index(3) == KIND_HEADLINE

    def test_running_maximum(self):
        book = lots_book()
        book.record_round(40.0, 0.75, [(0.5, 5.0)])
        book.record_round(48.0, 0.75, [(0.5, 3.0)])  # lower re-bid ignored
        assert book.bid_at(0.5) == 5 * MICRO
        book.record_round(60.0, 0.75, [(0.5, 9.0)])
        assert book.bid_at(0.5) == 9 * MICRO

    def test_clamped_recording(self):
        g = QuantityGrid(20, 0.75)
        book = BidBook(g)
        book.record_round(30.0, 0.75)
        book.record_round(40.0, 0.5)
        # At price 50 the cap on 0.6 is B(0.5) + 40 * 0.1 = 25 + 4.
        ks = np.array([12], dtype=np.int64)
        book.record_round_indexed(50.0, 10, ks, np.array([40.0]), clamp=True)
        assert book.bid_at(0.6) == 29 * MICRO

    def test_copy_is_independent(self):
        book = lots_book()
        book.record_round(40.0, 0.75, [(0.5, 5.0)])
        dup = book.copy()
        dup.record_round(48.0, 0.5, [(0.25, 2.0)])
        assert book.bid_at(0.25) is None
        assert book.last_headline == 3
        assert dup.bid_at(0.25) == 2 * MICRO

    def test_negative_bids_are_bids(self):
        # A negative clock price records negative headline bids.  The
        # computed views keep them, so the closing solve and the revenue
        # curve agree with bid_at and with the engine's closing test.
        grid = QuantityGrid(4, 0.75)
        book1, book2 = BidBook(grid), BidBook(grid)
        book1.record_round(-0.5, 0.75, [])
        book2.record_round(-0.5, 0.25, [])
        assert (book1.bid_at(0.75), book2.bid_at(0.25)) == (-375_000, -125_000)
        values, has_bid = book1.arrays()
        assert values.tolist() == [0, 0, 0, -375_000, 0]
        assert has_bid.tolist() == [False, False, False, True, False]
        want = ClosingResult(None, False, None, None)
        assert solve_closing(book1, book2) == want
        assert _closing_results(book1.rows.values, book2.rows.values,
                                grid.n) == [want]
        assert revenue_curve(book1, book2)[3] == (0.75, -500_000, -125_000)
