"""The one record rule and the batched closing-price refine, against
the plain references of ``tests/reference_engine.py``.

``BookRows.record`` is the engine's only implementation of the bidding
rules.  It is checked against ``ReferenceBidBook``, which records one
book at a time in plain Python.  Many rows recorded at once, clamped
and unclamped, must equal those rows recorded one by one and raise the
error that a row-by-row record raises first, leaving the rows as they
were.  A run of ticks recorded in one call must equal the rows recorded
tick by tick, hold each tick's books in ``out`` and, at a fault, keep
the ticks before it and leave its tick unrecorded.  A ``BidBook``, a
one-row state, must equal one reference book, and a rejected round must
leave it as it was.  Bid indices come in any order and sorted distinct,
so the folds of one tick and of a run see repeated and distinct bid
points.  ``mechanism._refine_closers`` is checked closer by
closer against the scalar bisection ``_refine_close``, which records on
reference books.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

import reference_engine
from reference_engine import (ReferenceBidBook, _refine_close, reference_round,
                              reference_run_cmra)

from cmra import (AuctionConfig, AuctionOutcome, BidBook, QuantityGrid,
                  ValuationModel, bidbook, run_cmra)
from cmra.bidbook import (MICRO, ActivityCapViolation, BidError, BookRows,
                          CapExceeded, NonMonotoneHeadline, OverLinearPrice)
from cmra.equilibrium import DropPolicy, SingleBidDeviation
from cmra.mechanism import _closing_rows, _Closer, _refine_closers
from cmra.strategies import STRATEGY_TAGS, ProxyStrategy

_BOOK_FIELDS = (("values", "values"), ("has_bid", "has_bid"),
                ("kinds", "kinds"), ("_seg_lo", "seg_lo"),
                ("_seg_base", "seg_base"))


def assert_row_equals_book(rows, r, book):
    for book_name, row_name in _BOOK_FIELDS:
        assert np.array_equal(getattr(rows, row_name)[r],
                              getattr(book, book_name)), row_name
    assert rows.last_price[r] == book.last_price
    assert rows.last_headline[r] == book.last_headline


def to_rows(*books):
    """Copies of reference books as the rows of one state."""
    rows = BookRows(books[0].grid, books[0].scale, len(books))
    for r, book in enumerate(books):
        for book_name, row_name in _BOOK_FIELDS:
            getattr(rows, row_name)[r] = getattr(book, book_name)
        rows.last[r] = [math.nan if x is None else x
                        for x in (book.last_price, book.last_headline)]
    return rows


def to_reference(rows, r):
    """A copy of row ``r`` as a reference book."""
    book = ReferenceBidBook(rows.grid, rows.scale)
    for book_name, row_name in _BOOK_FIELDS:
        setattr(book, book_name, getattr(rows, row_name)[r].copy())
    book.last_price = rows.last_price[r]
    book.last_headline = rows.last_headline[r]
    return book


def record_one_by_one(books, prices, emissions, clamp):
    """Record reference ``books`` one by one.  At the first ``BidError``
    the books recorded before it are put back and the error returned."""
    before = [book.copy() for book in books]
    for r, (book, price, emission) in enumerate(zip(books, prices,
                                                    emissions)):
        try:
            book.record_round_indexed(price, *emission, clamp=clamp)
        except BidError as exc:
            books[:r] = before[:r]
            return exc
    return None


def raised(record, *args):
    """The ``BidError`` that ``record(*args)`` raises, or None."""
    try:
        record(*args)
    except BidError as exc:
        return exc
    return None


def random_emission(rng, grid, price, last_headline, seen):
    """A legal headline with random drops, and random additional bids
    that often exceed the linear price or the activity cap."""
    top = grid.cap_index if last_headline is None else last_headline
    if rng.random() < 0.5:
        k = top
    else:
        k = int(rng.integers(0, top + 1))
    if last_headline is not None and k + 1 < last_headline:
        seen["segment"] += 1
    if rng.random() < 0.3:
        seen["no bids"] += 1
        return k, np.empty(0, dtype=np.int64), np.empty(0)
    size = int(rng.integers(1, 6))
    if rng.random() < 0.4:
        # Sorted distinct indices, as the profiles' emissions are.
        ks = np.sort(rng.choice(grid.cap_index + 1, min(size, grid.cap_index),
                                replace=False)).astype(np.int64)
        size = len(ks)
    else:
        ks = rng.integers(0, grid.cap_index + 1, size).astype(np.int64)
        if size > 1 and rng.random() < 0.4:
            ks[1] = ks[0]
    seen["duplicates"] += len(set(ks.tolist())) < size
    amounts = rng.uniform(0, 1.3, size) * price * np.maximum(ks, 1) / grid.n
    if rng.random() < 0.2:
        amounts[0] = 0.0
    return k, ks, amounts


def random_round(rng, grid, books, clamp, seen):
    """A price and an emission per reference book.  Unclamped rounds
    mostly keep their amounts within the linear price, so that some of
    them pass the activity cap too."""
    prices, emissions = [], []
    for book in books:
        price = (book.last_price or 0.0) + float(
            rng.choice([1e-7, rng.uniform(0.01, 1)]))
        k, ks, amounts = random_emission(rng, grid, price, book.last_headline,
                                         seen)
        if not clamp and rng.random() < 0.8:
            amounts = np.minimum(amounts, price * ks / grid.n)
        prices.append(price)
        emissions.append((k, ks, amounts))
    return prices, emissions


def bid_points(fold, args):
    """``(fold, "distinct" or "repeated")`` of a call of one of the folds
    of ``BookRows.record`` with additional bids, or None without them."""
    at = args[5] if fold == "_fold_tick" else args[4]
    if at is None:
        return None
    return fold, "repeated" if len(np.unique(at)) < len(at) else "distinct"


def one_tick_rows(args):
    """The branches a one-tick fold takes over its rows: ``"rows with
    bids"`` and ``"headline-only rows"``, by whether some row bids or
    bids its headline only, and ``"mixed rows"`` when both do."""
    values, at_head, at = args[0], args[3], args[5]
    width = len(values) // len(at_head)
    with_bids = set() if at is None else set((at // width).tolist())
    branches = ((["rows with bids"] if with_bids else [])
                + (["headline-only rows"] if len(with_bids) < len(at_head)
                   else []))
    return branches + (["mixed rows"] if len(branches) == 2 else [])


def count_folds(monkeypatch, seen, caller):
    """Count the folds of one tick and of a run that fold additional
    bids, by whether bid points repeat and by ``caller[0]``, and the rows
    of a one-tick fold, by whether they bid."""
    def bump(*key):
        key = (caller[0],) + key
        seen[key] = seen.get(key, 0) + 1

    for name in ("_fold_tick", "_fold_run"):
        def counted(*args, fold=getattr(bidbook, name), name=name):
            key = bid_points(name, args + (None, None))
            if key is not None:
                bump(*key)
            if name == "_fold_tick":
                for branch in one_tick_rows(args + (None, None)):
                    bump("one tick", branch)
            return fold(*args)
        monkeypatch.setattr(bidbook, name, counted)


def count_one_tick(seen, who, error, clamp, new_segments):
    """Count a one-tick record that raised nothing, by whether it was
    clamped and whether it wrote new segments."""
    if error is None:
        seen[who, "one tick", "clamped" if clamp else "unclamped"] += 1
        seen[who, "one tick", "new segments"] += bool(new_segments.any())


def assert_same_error(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)


class TestBookRows:
    def test_record_matches_bidbook(self, monkeypatch):
        rng = np.random.default_rng(61)
        seen = {"segment": 0, "no bids": 0, "duplicates": 0, "clamped": 0,
                "fresh": 0, "rejected": 0, "unclamped": 0,
                "rejected book": 0, "unclamped book": 0}
        caller = ["BidBook"]
        seen.update({(who, "_fold_tick", branch): 0
                     for who in ("BidBook", "BookRows")
                     for branch in ("distinct", "repeated")})
        # The one-tick branches, for one-row books (BidBook) and for rows
        # recorded at once (BookRows).
        seen.update({(who, "one tick", branch): 0
                     for who in ("BidBook", "BookRows")
                     for branch in ("headline-only rows", "rows with bids",
                                    "new segments", "clamped", "unclamped")})
        seen["BookRows", "one tick", "mixed rows"] = 0
        count_folds(monkeypatch, seen, caller)
        for _ in range(150):
            grid = QuantityGrid(int(rng.integers(4, 30)),
                                float(rng.choice([0.75, 0.6, 0.9])))
            count = int(rng.integers(1, 9))
            scale = int(rng.choice([10 ** 6, 10 ** 3]))
            refs = [ReferenceBidBook(grid, scale) for _ in range(count)]
            books = [BidBook(grid, scale) for _ in range(count)]
            # Some rows start with rounds already recorded, some fresh.
            for ref, book in zip(refs, books):
                for _ in range(int(rng.integers(0, 3))):
                    price = (ref.last_price or 0.0) + float(
                        rng.uniform(0.01, 1))
                    emission = random_emission(rng, grid, price,
                                               ref.last_headline, seen)
                    ref.record_round_indexed(price, *emission, clamp=True)
                    book.record_round_indexed(price, *emission, clamp=True)
                seen["fresh"] += ref.last_price is None
            rows = BookRows.join([(book.rows, [0]) for book in books])
            row_refs = [ref.copy() for ref in refs]
            for _ in range(int(rng.integers(1, 8))):
                # Every row at once, against the rows one by one.
                clamp = bool(rng.random() < 0.6)
                prices, emissions = random_round(rng, grid, row_refs, clamp,
                                                 seen)
                want = record_one_by_one(row_refs, prices, emissions, clamp)
                caller[0] = "BookRows"
                segments = rows.seg_lo.copy()
                got = raised(rows.record, [prices], [emissions], clamp)
                caller[0] = "BidBook"
                count_one_tick(seen, "BookRows", got, clamp,
                               rows.seg_lo != segments)
                assert_same_error(got, want)
                assert want is None or not clamp  # clamped rounds are legal
                for r, ref in enumerate(row_refs):
                    assert_row_equals_book(rows, r, ref)
                seen["rejected"] += want is not None
                seen["unclamped"] += want is None and not clamp
                if want is None and clamp:
                    # A clamped bid leaves less than its rounded amount.
                    seen["clamped"] += any(
                        bool((np.floor(amounts * scale + 0.5)
                              > rows.values[r, ks]).any())
                        for r, (_, ks, amounts) in enumerate(emissions))
                # Each one-row book on its own.
                prices, emissions = random_round(rng, grid, refs, clamp, seen)
                for book, ref, price, emission in zip(books, refs, prices,
                                                      emissions):
                    want = record_one_by_one([ref], [price], [emission], clamp)
                    segments = book.rows.seg_lo.copy()
                    got = raised(book.record_round_indexed, price, *emission,
                                 clamp)
                    count_one_tick(seen, "BidBook", got, clamp,
                                   book.rows.seg_lo != segments)
                    assert_same_error(got, want)
                    assert_row_equals_book(book.rows, 0, ref)
                    assert np.array_equal(book.activity_caps_array(-1),
                                          ref.activity_caps_array(-1))
                    seen["rejected book"] += want is not None
                    seen["unclamped book"] += want is None and not clamp
            # Copies, takes, puts and joins move whole rows.
            order = rng.permutation(count).tolist()
            taken = rows.take(order)
            for i, r in enumerate(order):
                assert_row_equals_book(taken, i, row_refs[r])
            blank = BookRows(grid, scale, count)
            blank.put(order, taken, list(range(count)))
            dup = blank.copy()
            cut = int(rng.integers(0, count + 1))
            joined = BookRows.join([(dup, order[:cut]), (rows, order[:1]),
                                    (taken, range(count))])
            for r, ref in enumerate(
                    [row_refs[r] for r in order[:cut] + order[:1] + order]):
                assert_row_equals_book(joined, r, ref)
            for r, ref in enumerate(row_refs):
                assert_row_equals_book(dup, r, ref)
        assert min(seen.values()) > 0, seen

    ERROR_CASES = [
        ("price", BidError), ("headline cap", CapExceeded),
        ("headline rise", NonMonotoneHeadline), ("bid cap", CapExceeded),
        ("negative", BidError),
        # Faults on rows 0 and 1: row 0's first check wins, also when
        # row 1's check comes earlier in a row's order.
        ("negative, headline rise", BidError),
        ("headline rise, negative", NonMonotoneHeadline),
        ("bid cap, price", CapExceeded), ("price, bid cap", BidError),
        ("negative, bid cap", BidError), ("bid cap, negative", CapExceeded),
        ("negative, headline cap", BidError),
        ("headline cap, negative", CapExceeded),
        # Negative grid indices, which would wrap around to the top.
        ("headline below 0", BidError), ("bid below 0", BidError),
        ("bid below 0, headline cap", BidError),
        ("headline cap, bid below 0", CapExceeded),
        ("headline below 0, bid cap", BidError),
        ("bid cap, headline below 0", CapExceeded),
        ("bid below 0, negative", BidError),
        ("negative, bid below 0", BidError),
        ("headline rise, headline below 0", NonMonotoneHeadline),
        # Non-finite prices and amounts.
        ("nan price", BidError), ("inf price", BidError),
        ("nan amount", BidError), ("nan amount, headline rise", BidError),
        ("headline rise, nan price", NonMonotoneHeadline)]

    @pytest.mark.parametrize("case, error", ERROR_CASES)
    def test_errors_match(self, case, error):
        self.assert_errors_match(case, error, True)

    @pytest.mark.parametrize("case, error", ERROR_CASES)
    def test_unclamped_errors_match(self, case, error):
        self.assert_errors_match(case, error, False)

    def assert_errors_match(self, case, error, clamp):
        grid = QuantityGrid(8, 0.75)
        ok = (grid.cap_index - 1, np.array([1, 2]), np.array([0.01, 0.02]))
        bad = {"price": (0.5, ok),
               "headline cap": (2.0, (grid.cap_index + 1,) + ok[1:]),
               "headline rise": (2.0, (grid.cap_index,) + ok[1:]),
               "bid cap": (2.0, (ok[0], np.array([1, grid.cap_index + 1]),
                                 ok[2])),
               "negative": (2.0, (ok[0], ok[1], np.array([0.01, -0.5]))),
               "headline below 0": (2.0, (-1,) + ok[1:]),
               "bid below 0": (2.0, (ok[0], np.array([1, -1]), ok[2])),
               "nan price": (math.nan, ok), "inf price": (math.inf, ok),
               "nan amount": (2.0, (ok[0], ok[1],
                                    np.array([0.01, math.nan]))),
               }
        self.assert_first_fault(grid, [(1.0, ok)], ok, bad, case, error,
                                clamp)

    @pytest.mark.parametrize("case, error", [
        ("linear", OverLinearPrice), ("cap", ActivityCapViolation),
        ("cap and linear", OverLinearPrice),
        ("cap, linear", ActivityCapViolation),
        ("linear, cap", OverLinearPrice),
        ("cap, headline rise", ActivityCapViolation),
        ("headline rise, cap", NonMonotoneHeadline),
        ("cap, price", ActivityCapViolation), ("price, cap", BidError),
        ("negative, cap", BidError), ("cap, negative", ActivityCapViolation),
        ("inf", OverLinearPrice), ("cap, inf", ActivityCapViolation)])
    def test_unclamped_limits_match(self, case, error):
        # Rounds at 0.5 and 1.0 drop the headline from 5 to 2, so at 2.0
        # a bid on 4 may not exceed 0.5 + 0.25, below its linear price 1.
        grid = QuantityGrid(8, 0.75)
        before = [(0.5, (5, np.array([1]), np.array([0.01]))),
                  (1.0, (2, np.array([1]), np.array([0.01])))]
        ok = (2, np.array([1, 4]), np.array([0.1, 0.6]))
        bad = {"linear": (2.0, (2, ok[1], np.array([0.3, 0.6]))),
               "cap": (2.0, (2, ok[1], np.array([0.1, 0.9]))),
               "cap and linear": (2.0, (2, np.array([4, 1]),
                                        np.array([0.9, 0.3]))),
               "headline rise": (2.0, (3,) + ok[1:]),
               "price": (1.0, ok),
               "negative": (2.0, (2, ok[1], np.array([-0.1, 0.6]))),
               "inf": (2.0, (2, ok[1], np.array([math.inf, 0.6])))}
        self.assert_first_fault(grid, before, ok, bad, case, error, False)

    @staticmethod
    def assert_first_fault(grid, before, ok, bad, case, error, clamp):
        """Three rows record ``before``, then a round of ``ok`` emissions
        at price 2.0 with the faults of ``case`` on one row or on rows 0
        and 1: the state raises what the rows one by one raise first and,
        unclamped, changes no row; a ``BidBook`` of each row raises that
        row's own fault and changes nothing."""
        faults = case.split(", ")
        at = [1] if len(faults) == 1 else range(len(faults))
        round_ = [(2.0, ok)] * 3
        for r, fault in zip(at, faults):
            round_[r] = bad[fault]
        refs = [ReferenceBidBook(grid) for _ in range(3)]
        rows = BookRows(grid, MICRO, 3)
        for price, emission in before:
            assert record_one_by_one(refs, [price] * 3, [emission] * 3,
                                     clamp) is None
            rows.record([price], [[emission] * 3], clamp)
        prices, emissions = zip(*round_)
        want = record_one_by_one(refs, prices, emissions, clamp)
        assert type(want) is error
        assert_same_error(raised(rows.record, [prices], [emissions], clamp),
                          want)
        if not clamp:
            for r, ref in enumerate(refs):
                assert_row_equals_book(rows, r, ref)
        for price, emission in round_:
            book, ref = BidBook(grid), ReferenceBidBook(grid)
            for books_price, books_emission in before:
                book.record_round_indexed(books_price, *books_emission, clamp)
                ref.record_round_indexed(books_price, *books_emission, clamp)
            assert_same_error(
                raised(book.record_round_indexed, price, *emission, clamp),
                raised(ref.record_round_indexed, price, *emission, clamp))
            assert_row_equals_book(book.rows, 0, ref)

    def test_negative_index_at_price_zero(self):
        # Row 1's bid on index -1 would land on row 0's top index.
        grid = QuantityGrid(8, 0.75)
        rows = BookRows(grid, MICRO, 2)
        book = ReferenceBidBook(grid)
        emissions = [(grid.cap_index, np.array([1]), np.array([0.0])),
                     (grid.cap_index, np.array([-1]), np.array([0.0]))]
        with pytest.raises(BidError) as want:
            book.record_round_indexed(0.0, *emissions[1], clamp=True)
        with pytest.raises(BidError) as got:
            rows.record([0.0], [emissions])
        assert type(got.value) is type(want.value) is BidError
        assert str(got.value) == str(want.value)
        assert not rows.has_bid[:, grid.n].any()


def record_ticks(books, prices, emissions, clamp):
    """Record reference ``books`` tick by tick, row by row, at
    ``prices[j]``, one price or one per row: the ``(values, has_bid)`` of
    every book after each tick recorded, and the first error or None; at
    the error's tick the books recorded before it are put back."""
    after = []
    for tick_prices, tick in zip(prices, emissions):
        error = record_one_by_one(books, np.broadcast_to(
            tick_prices, len(books)).tolist(), tick, clamp)
        if error is not None:
            return after, error
        after.append([(b.values.copy(), b.has_bid.copy()) for b in books])
    return after, None


def assert_run_matches(rows, refs, prices, emissions, clamp):
    """One ``rows.record`` over the run against ``refs`` recorded tick by
    tick: the same error and tick, the same books, and ``out`` holding
    every recorded tick's books.  Returns the error or None."""
    width = rows.grid.n + 1
    out = (np.full((len(refs), len(prices), width), -7, np.int64),
           np.zeros((len(refs), len(prices), width), bool))
    after, want = record_ticks(refs, prices, emissions, clamp)
    got = raised(rows.record, prices, emissions, clamp, out)
    assert_same_error(got, want)
    if got is not None:
        assert got.tick == len(after)
    for r, ref in enumerate(refs):
        assert_row_equals_book(rows, r, ref)
    for j, books in enumerate(after):
        for r, (values, has_bid) in enumerate(books):
            assert np.array_equal(out[0][r, j], values), (j, r)
            assert np.array_equal(out[1][r, j], has_bid), (j, r)
    return got


class TestRunRecord:
    """``BookRows.record`` over a run of K ticks, against reference books
    recorded tick by tick and row by row."""

    def test_matches_tick_by_tick(self, monkeypatch):
        rng = np.random.default_rng(71)
        seen = {"K=1": 0, "K=32": 0, "one row": 0, "many rows": 0,
                "drop in run": 0, "capped by run segment": 0,
                "capped same tick": 0, "repeated": 0, "zero bid": 0,
                "negative price": 0, "clamped": 0, "unclamped": 0,
                "rejected": 0, "segment": 0, "no bids": 0, "duplicates": 0}
        caller = ["BookRows"]
        seen.update({("BookRows", fold, branch): 0
                     for fold in ("_fold_tick", "_fold_run")
                     for branch in ("distinct", "repeated")})
        count_folds(monkeypatch, seen, caller)
        for case in range(160):
            grid = QuantityGrid(int(rng.choice([8, 12, 20])),
                                float(rng.choice([0.5, 0.75, 0.9])))
            count = int(rng.choice([1, 2, 5, 9]))
            ticks = int(rng.choice([1, 2, 5, 32]))
            clamp = bool(rng.random() < 0.7)
            scale = int(rng.choice([10 ** 6, 10 ** 3]))
            refs = [ReferenceBidBook(grid, scale) for _ in range(count)]
            price = float(rng.choice([-0.5, 0.0, 0.25]))
            for ref in refs[:int(rng.integers(0, count + 1))]:
                ref.record_round_indexed(price - 0.25, *random_emission(
                    rng, grid, abs(price) + 0.1, None, seen), clamp=True)
            rows = to_rows(*refs)
            tops = [ref.last_headline for ref in refs]
            prices, emissions = [], []
            for j in range(ticks):
                price += float(rng.choice([1e-7, rng.uniform(0.01, 0.3)]))
                tick = []
                for r in range(count):
                    k, ks, amounts = random_emission(rng, grid, abs(price),
                                                     tops[r], seen)
                    if rng.random() < 0.1:
                        # Repeated bids on half the supply, as rdr emits
                        # them when the cap is 1/2.
                        ks = np.array([grid.n // 2] * 2)
                        amounts = np.zeros(2)
                    if not clamp and rng.random() < 0.9:
                        amounts = np.minimum(amounts,
                                             max(price, 0) * ks / grid.n)
                    tops[r] = k
                    tick.append((k, ks, amounts))
                prices.append(price)
                emissions.append(tick)
            # Where the run's own segments cap its bids.
            seg = [ref._seg_lo.copy() for ref in refs]
            for j, tick in enumerate(emissions):
                for r, (k, ks, amounts) in enumerate(tick):
                    top = refs[r].last_headline if j == 0 else \
                        emissions[j - 1][r][0]
                    if top is not None and k + 1 < top:
                        seen["drop in run"] += 1
                        fresh = list(range(k + 1, top))
                        seen["capped same tick"] += bool(
                            set(fresh) & set(ks.tolist()))
                        seg[r][fresh] = k
                    elif (seg[r][ks] >= 0).any() and (
                            refs[r]._seg_lo[ks] < 0).any():
                        seen["capped by run segment"] += 1
                    seen["repeated"] += len(set(ks.tolist())) < len(ks)
                    seen["zero bid"] += bool((amounts == 0).any())
            got = assert_run_matches(rows, refs, prices, emissions, clamp)
            seen["K=1"] += ticks == 1
            seen["K=32"] += ticks == 32
            seen["one row" if count == 1 else "many rows"] += 1
            seen["negative price"] += prices[0] < 0
            seen["clamped" if clamp else "unclamped"] += 1
            seen["rejected"] += got is not None
        assert min(seen.values()) > 0, seen

    FAULTS = {"price": BidError, "nan price": BidError,
              "headline rise": NonMonotoneHeadline,
              "headline cap": CapExceeded, "bid cap": CapExceeded,
              "bid below 0": BidError, "negative": BidError,
              "nan amount": BidError}

    @pytest.mark.parametrize("clamp", [True, False])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_at_every_tick_and_row(self, fault, clamp):
        """Four ticks of three rows with one fault at each (tick, row) in
        turn: the ticks before it are recorded, its tick changes no row,
        and the error is the one recording tick by tick raises first."""
        grid = QuantityGrid(8, 0.75)
        ok = (grid.cap_index - 1, np.array([1, 2]), np.array([0.01, 0.02]))
        for j in range(4):
            for r in range(3):
                refs = [ReferenceBidBook(grid) for _ in range(3)]
                for ref in refs:
                    ref.record_round_indexed(0.5, *ok)
                rows = to_rows(*refs)
                prices = [[1.0 + t] * 3 for t in range(4)]
                emissions = [[ok] * 3 for _ in range(4)]
                k, ks, amounts = ok
                if fault == "price":
                    prices[j][r] = prices[j - 1][r] if j else 0.5
                elif fault == "nan price":
                    prices[j][r] = math.nan
                elif fault == "headline rise":
                    k = grid.cap_index
                elif fault == "headline cap":
                    k = grid.cap_index + 1
                elif fault == "bid cap":
                    ks = np.array([1, grid.cap_index + 1])
                elif fault == "bid below 0":
                    ks = np.array([1, -1])
                else:
                    amounts = np.array([0.01, -0.5 if fault == "negative"
                                        else math.nan])
                emissions[j][r] = (k, ks, amounts)
                got = assert_run_matches(rows, refs, prices, emissions,
                                         clamp)
                assert type(got) is self.FAULTS[fault]
                assert got.tick == j


FAMILIES = {
    "power": (lambda th: ValuationModel.power(2.0, 0.75, th, (0.1, 1.0)),
              (0.1, 1.0), 0.75, 1.6),
    "quadratic": (lambda th: ValuationModel.quadratic(th, 0.5, 0.9,
                                                      (1.05, 1.25)),
                  (1.05, 1.25), 0.9, 1.5),
}


def run_to_close(member, opponent, config):
    """A member's own clock loop on reference books, up to its first
    closing tick t > 0: the ``_Closer`` of that tick, or None.  The
    closing test is seat-symmetric, so the closer is the same in either
    seat."""
    books = (ReferenceBidBook(config.grid, config.money_scale),
             ReferenceBidBook(config.grid, config.money_scale))
    t = 0
    while config.start + t * config.eps <= config.max_price + 1e-12:
        price = config.start + t * config.eps
        base = (books[0].copy(), books[1].copy())
        reference_round(books[0], member, price)
        reference_round(books[1], opponent, price)
        if _closing_rows(books[0].values, books[0].has_bid,
                         books[1].values, books[1].has_bid)[2]:
            return _Closer(None, t, to_rows(*base), to_rows(*books), 0,
                           1) if t > 0 else None
        t += 1
    return None


def random_member(rng, make, model, config):
    base = make(model, config.grid)
    draw = rng.random()
    price = float(rng.uniform(0, config.max_price))
    if draw < 0.3:
        return DropPolicy(base, price,
                          int(rng.integers(0, config.grid.cap_index)))
    if draw < 0.6:
        k = int(rng.integers(1, config.grid.cap_index + 1))
        return SingleBidDeviation(base, k, float(
            rng.uniform(0, price * k / config.grid.n)), price)
    return base


def assert_refine_matches(closers, members, opponent, seat, config,
                          last_probes=None):
    """Each closer's refine against the scalar bisection; with
    ``last_probes``, count the closers by whether the last probe of their
    bisection closed (True), did not (False) or was never made (None)."""
    got = _refine_closers(closers, members, opponent, seat, config)
    probes = []
    closing_rows = reference_engine._closing_rows

    def probe(*args):
        probes.append(bool(closing_rows(*args)[2]))
        return closing_rows(*args)
    for c, (price, books, pair, result, fallback) in zip(closers, got):
        base = (to_reference(c.base, c.own), to_reference(c.base, c.opp))
        hi_books = (to_reference(c.hi, c.own), to_reference(c.hi, c.opp))
        bidders = (members[c.member], opponent)
        if seat == 1:
            base, hi_books, bidders = base[::-1], hi_books[::-1], bidders[::-1]
        del probes[:]
        reference_engine._closing_rows = probe
        try:
            want_price, want_books, want_result = _refine_close(
                base, bidders, config.start + (c.tick - 1) * config.eps,
                config.start + c.tick * config.eps, hi_books, config)
        finally:
            reference_engine._closing_rows = closing_rows
        if last_probes is not None:
            last = probes[-1] if probes else None
            last_probes[last] = last_probes.get(last, 0) + 1
        assert price == want_price
        assert result == want_result
        assert fallback == (want_books is hi_books)
        assert fallback == (books is c.hi)
        for r, w in zip(pair, want_books):
            assert_row_equals_book(books, r, w)
    return got


class TestBatchedRefine:
    def test_matches_reference_refine(self, monkeypatch):
        rng = np.random.default_rng(67)
        sizes = [1, 2, 3, 5, 9, 17, 33, 64]
        seen = {"seats": set(), "sizes": set(), "mixed ticks": 0,
                "profiles": set(), "takes": 0}
        # A closer whose last probe closed keeps that probe's books; the
        # others record their final price once more.
        last_probes = {}
        take = BookRows.take

        def counted_take(rows, *args):
            seen["takes"] += 1
            return take(rows, *args)
        monkeypatch.setattr(BookRows, "take", counted_take)
        for i, size in enumerate(sizes * 2):
            profile = ("cmra-truthful", "constant", "clock-truthful",
                       "rdr")[i % 4]
            family = ("power", "quadratic")[i % 2]
            model, (lo, hi), cap, top = FAMILIES[family]
            make = STRATEGY_TAGS[profile]
            eps = float(rng.choice([7e-3, 2e-2]))
            # A tolerance of eps / 2**10 is met after 10 or 11 halvings
            # depending on rounding, so some closers stop a step early.
            config = AuctionConfig(
                grid=QuantityGrid(20, cap), eps=eps, max_price=top,
                log_rounds=False,
                refine_tol=float(rng.choice([1e-7, 1e-5, eps / 2 ** 10])))
            seat = int(rng.integers(0, 2))
            opponent = make(model(float(rng.uniform(lo, hi))), config.grid)
            members, closers = [], []
            for _ in range(8 * size):
                if len(closers) == size:
                    break
                member = random_member(rng, make, model(float(
                    rng.uniform(lo, hi))), config)
                c = run_to_close(member, opponent, config)
                if c is None:
                    continue
                closers.append(c._replace(member=len(members)))
                members.append(member)
            if not closers:
                continue
            assert_refine_matches(closers, members, opponent, seat, config,
                                  last_probes)
            seen["seats"].add(seat)
            seen["sizes"].add(len(closers))
            seen["profiles"].add(profile)
            seen["mixed ticks"] += len({c.tick for c in closers}) > 1
        assert seen["seats"] == {0, 1}
        assert 1 in seen["sizes"] and max(seen["sizes"]) >= 60
        assert seen["mixed ticks"] > 0 and len(seen["profiles"]) >= 3, seen
        assert seen["takes"] > 0, seen
        assert last_probes.get(True, 0) > 0, last_probes
        assert last_probes.get(False, 0) > 0, last_probes


class _CapThenOut(ProxyStrategy):
    """Headline at the cap below ``drop`` and 0 from it on."""

    def __init__(self, model, grid, drop, eps):
        super().__init__(model, grid)
        self.drop, self.eps = drop, eps

    def headline_index(self, p):
        return self.grid.cap_index if p < self.drop else 0


class _OffTickBlocker(_CapThenOut):
    """``_CapThenOut`` plus, at prices off the clock grid, a bid on the
    cap at the linear price.

    Against a flat headline of 2 of 4 lots the clock closes at the first
    tick where that headline's bid reaches the single bid on the cap held
    since the drop.  Every bisection probe lies off the grid, so the cap
    bid of a probe that does not close stays in the books, and the books
    at the final price, between two probes, do not close: the refine must
    fall back to the clock tick's books.
    """

    def additional_bid_arrays(self, p):
        t = p / self.eps
        if abs(t - round(t)) > 1e-6:
            k = self.grid.cap_index
            return np.array([k]), np.array([p * k / self.grid.n])
        return super().additional_bid_arrays(p)


class _FlatHeadline(ProxyStrategy):
    def headline_index(self, p):
        return self.grid.n // 2


class TestRefineFallback:
    def lots(self):
        model = ValuationModel.polynomial((120.0, 0.0, 0.0), theta=1.0,
                                          cap=0.75)
        grid = QuantityGrid(4, 0.75)
        config = AuctionConfig(grid=grid, eps=0.4, max_price=40.0)
        return model, grid, config

    def test_non_monotone_strategy_matches_reference(self):
        model, grid, config = self.lots()
        for seat in (0, 1):
            def pair():
                s = (_OffTickBlocker(model, grid, 10.1, config.eps),
                     _FlatHeadline(model, grid))
                return s if seat == 0 else s[::-1]
            got = run_cmra(*pair(), None, config)
            want = reference_run_cmra(*pair(), config)
            assert got.refine_fallback and not want.refine_fallback
            for f in fields(AuctionOutcome):
                if f.name != "refine_fallback":
                    assert getattr(got, f.name) == getattr(want, f.name)
            # The fallback takes the clock tick's books at the tick price.
            assert got.closed and got.final_price == pytest.approx(15.2)
            assert "refine_fallback" not in got.to_json_dict()

    def test_fallback_is_per_closer(self):
        model, grid, config = self.lots()
        config = replace(config, log_rounds=False)
        opponent = _FlatHeadline(model, grid)
        members = [cls(model, grid, drop, config.eps)
                   for cls in (_OffTickBlocker, _CapThenOut)
                   for drop in (10.1, 9.3, 11.7)]
        for seat in (0, 1):
            closers = []
            for i, member in enumerate(members):
                c = run_to_close(member, opponent, config)
                if c is not None:
                    closers.append(c._replace(member=i))
            got = assert_refine_matches(closers, members, opponent, seat,
                                        config)
            flags = [fallback for *_, fallback in got]
            assert any(flags) and not all(flags)
