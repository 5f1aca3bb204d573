"""The batched closing-price refine and its row record, against references.

``BookRows.record`` is checked row by row against
``BidBook.record_round_indexed(clamp=True)``, on bid indices in any
order and sorted distinct, so both folds of the additional bids run for
both; and
``mechanism._refine_closers`` closer by closer against the scalar
bisection kept in ``tests/reference_engine.py``.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from reference_engine import _refine_close, reference_run_cmra

from cmra import (AuctionConfig, AuctionOutcome, BidBook, QuantityGrid,
                  ValuationModel, bidbook, run_cmra)
from cmra.bidbook import (BidError, BookRows, CapExceeded,
                          NonMonotoneHeadline)
from cmra.equilibrium import DropPolicy, SingleBidDeviation
from cmra.mechanism import (_apply_round, _closing_rows, _Closer,
                            _refine_closers)
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


def count_folds(monkeypatch, seen, caller):
    """Count the additional-bid folds by branch and by ``caller[0]``."""
    for name, branch in (("_fold_distinct", "distinct fold"),
                         ("_fold_any", "full fold")):
        def counted(*args, fold=getattr(bidbook, name), branch=branch):
            seen[caller[0], branch] += 1
            return fold(*args)
        monkeypatch.setattr(bidbook, name, counted)


class TestBookRows:
    def test_record_matches_bidbook(self, monkeypatch):
        rng = np.random.default_rng(61)
        seen = {"segment": 0, "no bids": 0, "duplicates": 0, "clamped": 0,
                "fresh": 0}
        caller = ["BidBook"]
        seen.update({(who, branch): 0 for who in ("BidBook", "BookRows")
                     for branch in ("distinct fold", "full fold")})
        count_folds(monkeypatch, seen, caller)
        for _ in range(150):
            grid = QuantityGrid(int(rng.integers(4, 30)),
                                float(rng.choice([0.75, 0.6, 0.9])))
            count = int(rng.integers(1, 9))
            scale = int(rng.choice([10 ** 6, 10 ** 3]))
            books = [BidBook(grid, scale) for _ in range(count)]
            # Some rows start with rounds already recorded, some fresh.
            for book in books:
                for _ in range(int(rng.integers(0, 3))):
                    price = (book.last_price or 0.0) + float(rng.uniform(0.01, 1))
                    book.record_round_indexed(price, *random_emission(
                        rng, grid, price, book.last_headline, seen), clamp=True)
                seen["fresh"] += book.last_price is None
            rows = BookRows.stack(books)
            for _ in range(int(rng.integers(1, 8))):
                prices, emissions = [], []
                for book in books:
                    price = (book.last_price or 0.0) + float(
                        rng.choice([1e-7, rng.uniform(0.01, 1)]))
                    prices.append(price)
                    emissions.append(random_emission(
                        rng, grid, price, book.last_headline, seen))
                caller[0] = "BookRows"
                rows.record(prices, emissions)
                caller[0] = "BidBook"
                for r, (book, price, (k, ks, amounts)) in enumerate(
                        zip(books, prices, emissions)):
                    book.record_round_indexed(price, k, ks, amounts,
                                              clamp=True)
                    assert_row_equals_book(rows, r, book)
                    # A clamped bid leaves less than its rounded amount.
                    units = np.floor(amounts * scale + 0.5)
                    seen["clamped"] += bool((units > book.values[ks]).any())
            # Copies, takes and puts move whole rows.
            order = rng.permutation(count).tolist()
            taken = rows.take(order)
            for i, r in enumerate(order):
                assert_row_equals_book(taken, i, books[r])
            blank = BookRows.stack([BidBook(grid, scale)] * count)
            blank.put(order, taken, list(range(count)))
            dup = blank.copy()
            for r, book in enumerate(books):
                assert_row_equals_book(dup, r, book)
                assert_row_equals_book(rows, r, rows.book(r))
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("case, error", [
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
        ("headline rise, headline below 0", NonMonotoneHeadline)])
    def test_errors_match(self, case, error):
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
               }
        faults = case.split(", ")
        at = [1] if len(faults) == 1 else range(len(faults))
        round_ = [(2.0, ok)] * 3
        for r, fault in zip(at, faults):
            round_[r] = bad[fault]
        books = [BidBook(grid) for _ in range(3)]
        for book in books:
            book.record_round_indexed(1.0, *ok, clamp=True)
        rows = BookRows.stack(books)
        with pytest.raises(error) as want:
            for book, (price, emission) in zip(books, round_):
                book.record_round_indexed(price, *emission, clamp=True)
        with pytest.raises(error) as got:
            rows.record([price for price, _ in round_],
                        [emission for _, emission in round_])
        assert type(want.value) is error
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_negative_index_at_price_zero(self):
        # Row 1's bid on index -1 would land on row 0's top index.
        grid = QuantityGrid(8, 0.75)
        rows = BookRows.stack([BidBook(grid) for _ in range(2)])
        book = BidBook(grid)
        emissions = [(grid.cap_index, np.array([1]), np.array([0.0])),
                     (grid.cap_index, np.array([-1]), np.array([0.0]))]
        with pytest.raises(BidError) as want:
            book.record_round_indexed(0.0, *emissions[1], clamp=True)
        with pytest.raises(BidError) as got:
            rows.record([0.0, 0.0], emissions)
        assert type(got.value) is type(want.value) is BidError
        assert str(got.value) == str(want.value)
        assert not rows.has_bid[:, grid.n].any()


FAMILIES = {
    "power": (lambda th: ValuationModel.power(2.0, 0.75, th, (0.1, 1.0)),
              (0.1, 1.0), 0.75, 1.6),
    "quadratic": (lambda th: ValuationModel.quadratic(th, 0.5, 0.9,
                                                      (1.05, 1.25)),
                  (1.05, 1.25), 0.9, 1.5),
}


def run_to_close(member, opponent, config):
    """A member's own clock loop up to its first closing tick t > 0:
    the ``_Closer`` of that tick, or None.  The closing test is
    seat-symmetric, so the closer is the same in either seat."""
    books = (BidBook(config.grid, config.money_scale),
             BidBook(config.grid, config.money_scale))
    t = 0
    while config.start + t * config.eps <= config.max_price + 1e-12:
        price = config.start + t * config.eps
        base = (books[0].copy(), books[1].copy())
        _apply_round(books[0], member, price)
        _apply_round(books[1], opponent, price)
        if _closing_rows(books[0].values, books[0].has_bid,
                         books[1].values, books[1].has_bid)[2]:
            return _Closer(None, t, base[0], base[1], books[0],
                           books[1]) if t > 0 else None
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


def assert_refine_matches(closers, members, opponent, seat, config):
    got = _refine_closers(closers, members, opponent, seat, config)
    for c, (price, books, result, fallback) in zip(closers, got):
        base = (c.own_base.copy(), c.opp_base.copy())
        hi_books = (c.own_hi, c.opp_hi)
        bidders = (members[c.member], opponent)
        if seat == 1:
            base, hi_books, bidders = base[::-1], hi_books[::-1], bidders[::-1]
        want_price, want_books, want_result = _refine_close(
            base, bidders, config.start + (c.tick - 1) * config.eps,
            config.start + c.tick * config.eps, hi_books, config)
        assert price == want_price
        assert result == want_result
        assert fallback == (want_books is hi_books)
        for b, w in zip(books, want_books):
            for name, _ in _BOOK_FIELDS:
                assert np.array_equal(getattr(b, name), getattr(w, name))
            assert (b.last_price, b.last_headline) == \
                (w.last_price, w.last_headline)
    return got


class TestBatchedRefine:
    def test_matches_reference_refine(self, monkeypatch):
        rng = np.random.default_rng(67)
        sizes = [1, 2, 3, 5, 9, 17, 33, 64]
        seen = {"seats": set(), "sizes": set(), "mixed ticks": 0,
                "profiles": set(), "takes": 0}
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
            assert_refine_matches(closers, members, opponent, seat, config)
            seen["seats"].add(seat)
            seen["sizes"].add(len(closers))
            seen["profiles"].add(profile)
            seen["mixed ticks"] += len({c.tick for c in closers}) > 1
        assert seen["seats"] == {0, 1}
        assert 1 in seen["sizes"] and max(seen["sizes"]) >= 60
        assert seen["mixed ticks"] > 0 and len(seen["profiles"]) >= 3, seen
        assert seen["takes"] > 0, seen


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
