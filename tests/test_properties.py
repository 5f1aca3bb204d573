"""Randomized property suites: solver equivalence, book laws, convergence."""

import math

import numpy as np
from reference_engine import (reference_choose_allocation,
                              reference_closing_rows)

from cmra import (AuctionConfig, BidBook, MarketEnv, QuantityGrid,
                  ValuationModel, closing_from_arrays, run_clock, run_cmra,
                  solve_closing)
from cmra.mechanism import _closing_rows
from cmra.strategies import STRATEGY_TAGS, cmra_truthful


def brute_force_closing(book1, book2):
    """Independent enumeration of every acceptance; loops, no shortcuts."""
    b1, m1 = book1.arrays()
    b2, m2 = book2.arrays()
    return brute_force_arrays(b1, m1, b2, m2, book1.grid.n)


def brute_force_arrays(b1, m1, b2, m2, n):
    pairs = []
    for k1 in range(n + 1):
        if not m1[k1]:
            continue
        for k2 in range(n + 1 - k1):
            if m2[k2]:
                pairs.append((int(b1[k1] + b2[k2]), k1, k2))
    singles = [int(b1[k]) for k in range(n + 1) if m1[k]]
    singles += [int(b2[k]) for k in range(n + 1) if m2[k]]
    values = [v for v, _, _ in pairs] + singles
    if not values:
        return None, False, None
    r_star = max(values)
    winners = [(min(k1, k2), k1, k2) for v, k1, k2 in pairs if v == r_star]
    if not winners:
        return r_star, False, None
    _, k1, k2 = max(winners)
    return r_star, True, (k1, k2)


def _legal_limit(book, grid, k, price, headline, prev_headline):
    """Largest legal amount for a bid this round, in money units."""
    from cmra.bidbook import money_units

    lin = money_units(price * k / grid.n, book.scale)
    cap = book.activity_cap_index(k)
    if prev_headline is not None and headline < k < prev_headline:
        # This round's drop creates a fresh segment whose base includes
        # this round's headline bid.
        base = int(book.values[headline]) if book.has_bid[headline] else 0
        base = max(base, money_units(price * headline / grid.n, book.scale))
        cap = min(cap, base + money_units(price * (k - headline) / grid.n,
                                          book.scale))
    return lin if cap == math.inf else min(lin, int(cap))


def random_legal_rounds(rng, grid, book, n_rounds):
    """Random legal round sequence; returns the replayable transcript."""
    price = 0.0
    headline = int(rng.integers(grid.cap_index // 2, grid.cap_index + 1))
    transcript = []
    for _ in range(n_rounds):
        price += float(rng.uniform(0.05, 0.6))
        prev_headline = book.last_headline
        if rng.random() < 0.4:
            headline = int(rng.integers(0, headline + 1))
        bids = []
        for _ in range(int(rng.integers(0, 4))):
            k = int(rng.integers(0, grid.cap_index + 1))
            limit = _legal_limit(book, grid, k, price, headline, prev_headline)
            units = int(rng.integers(0, limit + 1)) if limit > 0 else 0
            if rng.random() < 0.15:
                units = limit  # exactly at the boundary
            bids.append((k, units / book.scale))
        ks = np.array([k for k, _ in bids], dtype=np.int64)
        amounts = np.array([a for _, a in bids], dtype=float)
        book.record_round_indexed(price, headline, ks, amounts)
        transcript.append((price, headline, ks, amounts))
    return transcript


class TestClosingSolverEquivalence:
    def test_against_brute_force_on_random_books(self):
        rng = np.random.default_rng(42)
        checked = 0
        for trial in range(1000):
            n_raw = int(rng.integers(4, 21))
            cap = float(rng.choice([0.75, 0.6, 0.8]))
            grid = QuantityGrid(n_raw, cap)
            if grid.n > 20:
                grid = QuantityGrid(4, cap)
            books = []
            for _ in range(2):
                book = BidBook(grid)
                random_legal_rounds(rng, grid, book, int(rng.integers(1, 6)))
                books.append(book)
            got = solve_closing(books[0], books[1])
            r_star, closed, alloc = brute_force_closing(books[0], books[1])
            assert got.r_star == r_star
            assert got.closed == closed
            assert got.allocation == alloc
            checked += 1
        assert checked == 1000


    def test_batched_rows_match_closing_from_arrays(self):
        # Rows of side-1 books tested at once against one side-2 book give
        # each row's closed flag, r* and best pair.  Small value ranges
        # make ties between the best pair and a single bid common.
        rng = np.random.default_rng(7)
        seen = {"empty": 0, "one bid": 0, "no pair": 0, "tie": 0,
                "closed": 0, "open": 0}

        def random_mask(size):
            mode = rng.choice(["empty", "one bid", "random"], p=[.15, .25, .6])
            mask = np.zeros(size, dtype=bool)
            if mode == "one bid":
                mask[rng.integers(0, size)] = True
            elif mode == "random":
                mask = rng.random(size) < rng.uniform(0.1, 0.9)
            return mask

        for _ in range(400):
            n = int(rng.integers(1, 10))
            rows = int(rng.integers(1, 7))
            top = int(rng.choice([3, 20, 10 ** 7]))
            b1 = rng.integers(0, top, (rows, n + 1))
            m1 = np.array([random_mask(n + 1) for _ in range(rows)])
            b2 = rng.integers(0, top, n + 1)
            m2 = random_mask(n + 1)
            pair, single, closed = _closing_rows(b1, m1, b2, m2)
            for r in range(rows):
                want = closing_from_arrays(b1[r], m1[r], b2, m2, n)
                got_pair = int(pair[r]) if pair[r] >= 0 else None
                got_r = max(int(pair[r]), int(single[r]))
                assert (got_pair, got_r if got_r >= 0 else None,
                        bool(closed[r])) == \
                    (want.best_pair, want.r_star, want.closed)
                r_ref, closed_ref, _ = brute_force_arrays(b1[r], m1[r], b2,
                                                          m2, n)
                assert (want.r_star, want.closed) == (r_ref, closed_ref)
                singles = np.concatenate([b1[r][m1[r]], b2[m2]])
                seen["empty"] += not m1[r].any() or not m2.any()
                seen["one bid"] += m1[r].sum() == 1
                seen["no pair"] += want.best_pair is None and singles.size > 0
                seen["tie"] += want.best_pair is not None and \
                    singles.size > 0 and want.best_pair == singles.max()
                seen["closed" if want.closed else "open"] += 1
        assert min(seen.values()) > 0, seen

    def test_allocation_matches_loop_and_brute_force(self):
        # Raw random books: the O(n) allocation choice against the loop
        # it replaced and against enumeration, with value ranges small
        # enough to force ties, grids up to n = 500, and masks from one
        # point to full.  The closing test's values, negative ones
        # included, equal the old formula's.
        rng = np.random.default_rng(19)
        seen = {"one point": 0, "full": 0, "tie": 0, "large n": 0,
                "no partner for some k1": 0, "closed": 0, "open": 0}

        def random_mask(size):
            mode = rng.choice(["one", "random", "full"], p=[.2, .6, .2])
            if mode == "one":
                mask = np.zeros(size, dtype=bool)
                mask[rng.integers(0, size)] = True
            elif mode == "full":
                mask = np.ones(size, dtype=bool)
            else:
                mask = rng.random(size) < rng.uniform(0.05, 0.95)
            return mask

        for trial in range(1500):
            n = int(rng.integers(1, 25)) if trial % 50 else int(
                rng.choice([100, 257, 500]))
            top = int(rng.choice([2, 3, 10, 10 ** 7]))
            b1, b2 = rng.integers(0, top, (2, n + 1))
            m1, m2 = random_mask(n + 1), random_mask(n + 1)
            got = closing_from_arrays(b1, m1, b2, m2, n)
            for a, b in zip(_closing_rows(b1, m1, b2, m2),
                            reference_closing_rows(b1, m1, b2, m2)):
                assert a == b
            seen["closed" if got.closed else "open"] += 1
            if not got.closed:
                assert got.allocation is None
                continue
            assert got.allocation == reference_choose_allocation(
                b1, m1, b2, m2, n, got.r_star)
            if n <= 100:
                assert (got.r_star, got.closed, got.allocation) == \
                    brute_force_arrays(b1, m1, b2, m2, n)
            pairs = sum(int(b1[k1] + b2[k2]) == got.r_star
                        for k1 in np.nonzero(m1)[0]
                        for k2 in np.nonzero(m2[:n + 1 - k1])[0]) \
                if n <= 24 else 0
            seen["tie"] += pairs > 1
            seen["one point"] += int(m1.sum() == 1 or m2.sum() == 1)
            seen["full"] += int(m1.all() or m2.all())
            seen["large n"] += n >= 100
            seen["no partner for some k1"] += any(
                not m2[:n + 1 - k1].any() for k1 in np.nonzero(m1)[0])
        # Rows against one side-2 book, and rows against rows.
        for _ in range(200):
            n, rows = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            top = int(rng.choice([2, 10, 10 ** 7]))
            b1 = rng.integers(0, top, (rows, n + 1))
            m1 = np.array([random_mask(n + 1) for _ in range(rows)])
            b2 = rng.integers(0, top, (rows, n + 1)[rng.integers(0, 2):])
            m2 = np.array([random_mask(n + 1) for _ in range(rows)])
            m2 = m2.reshape(b2.shape) if b2.ndim == 2 else m2[0]
            for a, b in zip(_closing_rows(b1, m1, b2, m2),
                            reference_closing_rows(b1, m1, b2, m2)):
                assert np.array_equal(a, b)
        assert min(seen.values()) > 0, seen


class TestBidBookLaws:
    def test_random_legal_round_sequences(self):
        rng = np.random.default_rng(7)
        for trial in range(10_000):
            grid = QuantityGrid(int(rng.integers(4, 15)),
                                float(rng.choice([0.75, 0.6, 0.9])))
            book = BidBook(grid)
            prev = np.full(grid.n + 1, -1, dtype=np.int64)
            transcript = random_legal_rounds(rng, grid, book,
                                             int(rng.integers(1, 5)))
            # Replay determinism: an identical sequence rebuilds the
            # identical book.
            twin = BidBook(grid)
            for price, headline, ks, amounts in transcript:
                cur = np.where(book.has_bid, book.values, -1)
                twin.record_round_indexed(price, headline, ks, amounts)
                prev = cur
            assert np.array_equal(book.values, twin.values)
            assert np.array_equal(book.has_bid, twin.has_bid)
            # Legality of everything recorded.
            last_price, last_headline = transcript[-1][0], transcript[-1][1]
            for k in range(grid.n + 1):
                if not book.has_bid[k]:
                    continue
                assert book.values[k] <= \
                    round(last_price * k / grid.n * book.scale) + 1
                assert book.values[k] <= book.activity_cap_index(k)
            # Headline pricing: the current headline carries at least its
            # linear bid.
            assert book.bid_at_index(last_headline) >= \
                round(last_price * last_headline / grid.n * book.scale) - 1

    def test_monotone_accumulation(self):
        rng = np.random.default_rng(11)
        for trial in range(400):
            grid = QuantityGrid(8, 0.75)
            book = BidBook(grid)
            snapshots = []
            price = 0.0
            headline = grid.cap_index
            for _ in range(6):
                price += float(rng.uniform(0.05, 0.5))
                if rng.random() < 0.3:
                    headline = int(rng.integers(0, headline + 1))
                k = int(rng.integers(0, grid.cap_index + 1))
                limit = min(price * k / grid.n,
                            book.activity_cap_index(k) / book.scale
                            if book.activity_cap_index(k) != math.inf
                            else math.inf)
                amount = float(rng.uniform(0, max(limit, 0)))
                book.record_round_indexed(
                    price, headline, np.array([k], dtype=np.int64),
                    np.array([amount]), clamp=True)
                snapshots.append(np.where(book.has_bid, book.values, -1).copy())
            for a, b in zip(snapshots, snapshots[1:]):
                assert np.all(b >= a)


def random_scenario(rng):
    if rng.random() < 0.5:
        cap = 0.75
        alpha = float(rng.choice([1.0, 2.0, 3.0]))
        thetas = 0.2 + 0.8 * rng.random(2)
        models = tuple(ValuationModel.power(alpha, cap, float(t))
                       for t in thetas)
        max_price = 4.0
    else:
        cap = 0.9
        thetas = 1.05 + 0.2 * rng.random(2)
        models = tuple(ValuationModel.quadratic(float(t), 0.5, cap)
                       for t in thetas)
        max_price = 1.6
    env = MarketEnv(models, cap)
    tags = [str(rng.choice(["clock-truthful", "cmra-truthful", "constant",
                            "rdr"])) for _ in range(2)]
    return env, tags, max_price


class TestEpsilonConvergence:
    def test_halving_eps_brackets_final_price(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            env, tags, max_price = random_scenario(rng)
            grid = QuantityGrid(20, env.cap)
            eps = 0.02
            prices = {}
            for e in (eps, eps / 2):
                config = AuctionConfig(grid=grid, eps=e, max_price=max_price,
                                       refine=False, log_rounds=False)
                strat = tuple(STRATEGY_TAGS[t](m, grid)
                              for t, m in zip(tags, env.models))
                out = run_cmra(strat[0], strat[1], env, config)
                assert out.termination == "closed", (tags, trial)
                prices[e] = out.final_price
            assert abs(prices[eps] - prices[eps / 2]) <= eps + 1e-12

    def test_refined_price_stable_under_eps(self):
        rng = np.random.default_rng(29)
        for trial in range(8):
            env, tags, max_price = random_scenario(rng)
            grid = QuantityGrid(20, env.cap)
            finals = []
            for e in (0.02, 0.005):
                config = AuctionConfig(grid=grid, eps=e, max_price=max_price,
                                       refine=True, log_rounds=False)
                strat = tuple(STRATEGY_TAGS[t](m, grid)
                              for t, m in zip(tags, env.models))
                finals.append(run_cmra(strat[0], strat[1], env,
                                       config).final_price)
            assert abs(finals[0] - finals[1]) <= 0.02 + 1e-9


class TestNoCloseMonotonicity:
    def test_once_closed_stays_closed(self):
        # Under truthful bidding with growing books, the closing
        # condition never reverses on the climbing ladder.
        for thetas in [(0.8, 0.5), (0.6, 0.6)]:
            models = tuple(ValuationModel.power(2.0, 0.75, t) for t in thetas)
            grid = QuantityGrid(20, 0.75)
            books = (BidBook(grid), BidBook(grid))
            strategies = tuple(cmra_truthful(m, grid) for m in models)
            closed_flags = []
            for t in range(140):
                p = t * 0.01
                for book, s in zip(books, strategies):
                    book.record_round_indexed(p, s.headline_index(p),
                                              *s.additional_bid_arrays(p),
                                              clamp=True)
                closed_flags.append(solve_closing(books[0], books[1]).closed)
            first = closed_flags.index(True)
            assert all(closed_flags[first:])
