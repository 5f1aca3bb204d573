"""Closing solver, auction engines, and revenue-curve behavior."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from reference_engine import reference_run_cmra
from test_block_clock import EmissionFault, _Faulty

from cmra import (AuctionConfig, AuctionOutcome, BidBook, MarketEnv,
                  QuantityGrid, ValuationModel, revenue_curve, run_clock,
                  run_cmra, solve_closing)
from cmra.bidbook import MICRO
from cmra.strategies import (STRATEGY_TAGS, ProxyStrategy, clock_truthful,
                             cmra_truthful, constant_strategy, rdr_strategy)


def lots_env():
    m = ValuationModel.polynomial((120.0, 0.0, 0.0), theta=1.0, cap=0.75)
    env = MarketEnv((m, m), 0.75)
    grid = QuantityGrid(4, 0.75)
    config = AuctionConfig(grid=grid, eps=0.4, max_price=130.0,
                           log_rounds=False)
    return env, grid, config


def truthful_lots_books(per_lot_clock):
    """Both bidders' books after truthful play up to a per-lot clock price."""
    env, grid, config = lots_env()
    books = (BidBook(grid), BidBook(grid))
    strategies = tuple(cmra_truthful(m, grid) for m in env.models)
    t = 0
    while True:
        p = t * config.eps
        if p > 4 * per_lot_clock + 1e-9:
            break
        for book, s in zip(books, strategies):
            book.record_round_indexed(p, s.headline_index(p),
                                      *s.additional_bid_arrays(p), clamp=True)
        t += 1
    return books


class TestSolveClosing:
    def test_no_close_at_per_lot_fifteen(self):
        b1, b2 = truthful_lots_books(15)
        res = solve_closing(b1, b2)
        assert not res.closed
        assert res.r_star == 45 * MICRO  # one headline of 3 lots at $15

    def test_close_at_per_lot_twenty(self):
        b1, b2 = truthful_lots_books(20)
        res = solve_closing(b1, b2)
        assert res.closed
        assert res.r_star == 60 * MICRO
        # Ties at $60: (2,2) and (3,1); the egalitarian rule picks (2,2).
        assert res.allocation == (2, 2)

    def test_headlines_alone_cannot_close(self):
        _, grid, _ = lots_env()
        b1, b2 = BidBook(grid), BidBook(grid)
        for book in (b1, b2):
            book.record_round(40.0, 0.75)
        res = solve_closing(b1, b2)
        assert not res.closed
        assert res.r_star == 30 * MICRO
        assert res.best_pair is None

    def test_empty_books(self):
        _, grid, _ = lots_env()
        res = solve_closing(BidBook(grid), BidBook(grid))
        assert res.r_star is None and not res.closed

    def test_zero_share_needs_empty_package_bid(self):
        _, grid, _ = lots_env()
        b1, b2 = BidBook(grid), BidBook(grid)
        b1.record_round(40.0, 0.75)
        b2.record_round(40.0, 0.75)
        b2.record_round(44.0, 0.0)  # drops out: zero bid on the empty package
        res = solve_closing(b1, b2)
        assert res.closed
        assert res.allocation == (3, 0)


class TestRunCmra:
    def test_lots_clock_truthful(self):
        env, grid, config = lots_env()
        out = run_cmra(clock_truthful(env.models[0], grid),
                       clock_truthful(env.models[1], grid), env, config)
        assert out.revenue_units == 90 * MICRO
        assert out.final_price == pytest.approx(120.0, abs=1e-5)
        assert out.indices == (3, 0)  # simultaneous drop: bidder 1 served

    def test_lots_cmra_truthful(self):
        env, grid, config = lots_env()
        out = run_cmra(cmra_truthful(env.models[0], grid),
                       cmra_truthful(env.models[1], grid), env, config)
        assert out.revenue_units == 60 * MICRO
        assert out.indices == (2, 2)
        assert out.kinds == ("additional", "additional")
        assert out.excess_supply == 0.0

    def test_lots_rdr_first_round(self):
        env, grid, config = lots_env()
        out = run_cmra(rdr_strategy(env.models[0], grid),
                       rdr_strategy(env.models[1], grid), env, config)
        assert out.final_price == 0.0
        assert out.indices == (2, 2)
        assert out.revenue_units == 0

    def test_dec_fixture_close(self):
        m1 = ValuationModel.quadratic(1.25, 0.5, cap=0.9)
        m2 = ValuationModel.quadratic(1.05, 0.5, cap=0.9)
        env = MarketEnv((m1, m2), 0.9)
        grid = QuantityGrid(100, 0.9)
        config = AuctionConfig(grid=grid, eps=2e-3, max_price=1.4,
                               money_scale=10 ** 9, log_rounds=False)
        out = run_cmra(cmra_truthful(m1, grid), cmra_truthful(m2, grid),
                       env, config)
        assert out.final_price == pytest.approx(0.4335586, abs=5e-4)
        assert out.quantities[0] == pytest.approx(0.6, abs=0.02)

    def test_pow_constant_profile_vcg_payments(self):
        m1 = ValuationModel.power(2.0, 0.75, 0.8)
        m2 = ValuationModel.power(2.0, 0.75, 0.5)
        env = MarketEnv((m1, m2), 0.75)
        grid = QuantityGrid(20, 0.75)
        config = AuctionConfig(grid=grid, eps=1e-3, max_price=2.0,
                               money_scale=10 ** 9, log_rounds=False)
        out = run_cmra(constant_strategy(m1, grid), constant_strategy(m2, grid),
                       env, config)
        assert out.quantities == (0.75, 0.25)
        assert out.payments[0] == pytest.approx(0.5, abs=2e-3)
        assert out.payments[1] == pytest.approx(0.0, abs=2e-3)
        assert out.kinds == ("headline", "additional")

    def test_revenue_identity(self):
        env, grid, config = lots_env()
        for maker in (cmra_truthful, clock_truthful, rdr_strategy,
                      constant_strategy):
            out = run_cmra(maker(env.models[0], grid),
                           maker(env.models[1], grid), env, config)
            assert out.revenue_units == sum(out.payment_units)
            assert out.revenue_units == out.r_star_units

    def test_seat_symmetry_away_from_ties(self):
        grid = QuantityGrid(20, 0.75)
        config = AuctionConfig(grid=grid, eps=2e-3, max_price=2.5,
                               money_scale=10 ** 9, log_rounds=False)
        m_hi = ValuationModel.power(2.0, 0.75, 0.8)
        m_lo = ValuationModel.power(2.0, 0.75, 0.5)
        for maker in (cmra_truthful, constant_strategy):
            fwd = run_cmra(maker(m_hi, grid), maker(m_lo, grid),
                           MarketEnv((m_hi, m_lo), 0.75), config)
            rev = run_cmra(maker(m_lo, grid), maker(m_hi, grid),
                           MarketEnv((m_lo, m_hi), 0.75), config)
            assert fwd.quantities == rev.quantities[::-1]
            assert fwd.payment_units == rev.payment_units[::-1]
            assert fwd.final_price == pytest.approx(rev.final_price, abs=1e-9)

    def test_max_price_hit(self):
        env, grid, _ = lots_env()
        config = AuctionConfig(grid=grid, eps=0.4, max_price=10.0,
                               log_rounds=False)
        out = run_cmra(clock_truthful(env.models[0], grid),
                       clock_truthful(env.models[1], grid), env, config)
        assert out.termination == "max-price-hit"
        assert out.quantities is None
        assert out.revenue == 0.0

    def test_emission_error_at_the_first_tick(self):
        # The clock's first block is one tick, emitted bidder by bidder.
        env, grid, config = lots_env()
        bad = _Faulty(cmra_truthful(env.models[0], grid), 0.0, "raise")
        with pytest.raises(EmissionFault, match="at 0.0"):
            run_cmra(bad, cmra_truthful(env.models[1], grid), env, config)

    def test_feasibility_and_linear_bound(self):
        env, grid, config = lots_env()
        for maker in (cmra_truthful, rdr_strategy):
            out = run_cmra(maker(env.models[0], grid),
                           maker(env.models[1], grid), env, config)
            assert sum(out.quantities) <= 1.0 + 1e-12
            for q, pay, kind in zip(out.quantities, out.payments, out.kinds):
                assert q <= 0.75 + 1e-12
                if kind != "none":
                    assert pay <= out.final_price * q + 1e-6


class TestConfigValidation:
    """Values that would hang the engine or fail deep inside it."""

    @pytest.mark.parametrize("field, value, message", [
        ("refine_tol", 0.0, "refine_tol"), ("refine_tol", -1e-7, "refine_tol"),
        ("refine_tol", float("nan"), "refine_tol"),
        ("refine_tol", float("inf"), "refine_tol"),
        ("start", float("nan"), "start"), ("start", float("-inf"), "start"),
        ("eps", float("nan"), "eps"), ("eps", float("inf"), "eps"),
        ("max_price", float("nan"), "max_price"),
        ("max_price", float("inf"), "max_price"),
        ("money_scale", 0, "money_scale"), ("money_scale", -5, "money_scale"),
        ("money_scale", 1e6, "money_scale"),
        ("money_scale", True, "money_scale"),
        ("eps", True, "eps"), ("max_price", "2.0", "max_price"),
        ("refine_tol", False, "refine_tol"),
        ("refine", "false", "refine"), ("log_rounds", 0, "log_rounds")])
    def test_rejected(self, field, value, message):
        *_, config = lots_env()
        with pytest.raises(ValueError, match=message):
            replace(config, **{field: value})

    def test_accepted(self):
        *_, config = lots_env()
        for changes in ({"refine_tol": 1e-12}, {"money_scale": 1},
                        {"money_scale": np.int64(10 ** 9)},
                        {"start": -0.5, "refine": False}):
            assert replace(config, **changes) is not None

    def test_tolerance_at_the_float_spacing(self):
        """Below the spacing of the clock prices the bisection never ends;
        at it, both engines' bisections do."""
        env, grid, config = lots_env()
        spacing = math.ulp(2 * config.max_price)
        with pytest.raises(ValueError, match="float spacing"):
            replace(config, refine_tol=spacing / 2)
        config = replace(config, refine_tol=spacing)
        for run in (run_cmra, run_clock):
            out = run(cmra_truthful(env.models[0], grid),
                      cmra_truthful(env.models[1], grid), env, config)
            assert out.closed


class _CapForever(ProxyStrategy):
    """Headline at the cap at every price: two of them never close."""

    tag = "cap-forever"

    def headline_index(self, p):
        return self.grid.cap_index


class TestClockSchedule:
    """``AuctionConfig.ticks`` against the reference loop's own stop rule."""

    def test_ticks_match_reference_loop(self):
        rng = np.random.default_rng(11)
        grid = QuantityGrid(4, 0.75)
        # (start, eps, max_price): the quotient of the first rounds down.
        cases = [(0.0, 1e-3, 1.4), (0.03, 1e-3, 0.489),
                 (0.03, 1e-3, 0.489 + 1e-9)]
        for _ in range(40):
            start = float(rng.choice([0.0, rng.uniform(0, 2)]))
            eps = float(10 ** rng.uniform(-3, -1))
            # Maximum prices on and around a tick's price.
            top = start + int(rng.integers(1, 400)) * eps
            jitter = float(rng.choice([0.0, 1e-13, -1e-13, 1e-12, 2e-12,
                                       -2e-12, 1e-9, 0.5 * eps]))
            cases.append((start, eps, top + jitter))
        for start, eps, top in cases:
            config = AuctionConfig(grid=grid, eps=eps, max_price=top,
                                   start=start)
            bidders = [_CapForever(ValuationModel.power(1.0, 0.75), grid)
                       for _ in range(2)]
            want = reference_run_cmra(*bidders, config)
            got = run_cmra(*bidders, None, config)
            assert not want.closed and not got.closed
            ticks = want.rounds[-1][0] + 1
            assert config.ticks == ticks == len(got.rounds.ticks), \
                (start, eps, top)
            assert config.price(np.arange(ticks)).tolist() == \
                [start + t * eps for t in range(ticks)]
        assert AuctionConfig(grid=grid, eps=1e-3, max_price=1.4).ticks == 1401

    def test_ticks_match_a_count_of_prices(self):
        """The quotient's estimate, stepped down or up to the last tick in
        range, against a count of the ticks priced in range; maximum
        prices a few ulps around a tick's price less the slack enter
        each step."""
        rng = np.random.default_rng(3)
        grid = QuantityGrid(4, 0.75)
        steps = {"down": 0, "up": 0}
        for _ in range(300):
            start = float(rng.choice([0.0, rng.uniform(0, 2)]))
            eps = float(10 ** rng.uniform(-3, -1))
            top = start + int(rng.integers(1, 400)) * eps - 1e-12
            top += int(rng.integers(-4, 5)) * math.ulp(top)
            config = AuctionConfig(grid=grid, eps=eps, max_price=top,
                                   start=start)
            limit, count = top + 1e-12, 0
            while config.price(count) <= limit:
                count += 1
            assert config.ticks == count, (start, eps, top)
            estimate = int((limit - start) / eps)
            steps["down"] += estimate > count - 1
            steps["up"] += estimate < count - 1
        assert min(steps.values()) > 0, steps


class TestOneClockLoop:
    """run_cmra, a one-member lockstep run, against the per-auction loop."""

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(5)
        families = {
            "power": (lambda th: ValuationModel.power(2.0, 0.75, th,
                                                      (0.1, 1.0)),
                      (0.1, 1.0), 0.75, 1.6),
            "quadratic": (lambda th: ValuationModel.quadratic(
                th, 0.5, 0.9, (1.05, 1.25)), (1.05, 1.25), 0.9, 1.5)}
        seen = {"tick 0": 0, "refined": 0, "unrefined": 0, "max price": 0,
                "start": 0, "logged": 0}
        for profile, make in STRATEGY_TAGS.items():
            for family, (model, (lo, hi), cap, top) in families.items():
                for n in (20, 100):
                    grid = QuantityGrid(n, cap)
                    for _ in range(3):
                        m1, m2 = (model(float(th)) for th in rng.uniform(lo, hi, 2))
                        config = AuctionConfig(
                            grid=grid, eps=float(rng.choice([7e-3, 2e-2])),
                            max_price=top, refine=bool(rng.random() < 0.7),
                            start=float(rng.choice([0.0, rng.uniform(0, 0.6)])),
                            log_rounds=bool(rng.random() < 0.8))
                        if rng.random() < 0.3:
                            # Stop the clock short of the close.
                            close = reference_run_cmra(
                                make(m1, grid), make(m2, grid), config).final_price
                            if close > config.start + 1e-9:
                                config = replace(config, max_price=float(
                                    rng.uniform(config.start, close)))
                        want = reference_run_cmra(make(m1, grid), make(m2, grid),
                                                  config)
                        got = run_cmra(make(m1, grid), make(m2, grid), None,
                                       config)
                        for f in fields(AuctionOutcome):
                            assert getattr(got, f.name) == getattr(want, f.name), \
                                (profile, family, n, config, f.name)
                        seen["tick 0"] += want.closed and \
                            want.final_price == config.start
                        seen["refined" if config.refine else "unrefined"] += \
                            want.closed
                        seen["max price"] += not want.closed
                        seen["start"] += config.start > 0 and want.closed
                        seen["logged"] += len(want.rounds) > 2
        assert min(seen.values()) > 0, seen


class TestRunClock:
    def test_lots_truthful(self):
        env, grid, config = lots_env()
        out = run_clock(clock_truthful(env.models[0], grid),
                        clock_truthful(env.models[1], grid), env, config)
        assert out.revenue_units == 90 * MICRO
        assert out.excess_supply == pytest.approx(0.25)
        assert out.indices == (3, 0)

    def test_pow_excess_supply(self):
        m1 = ValuationModel.power(2.0, 0.75, 0.8)
        m2 = ValuationModel.power(2.0, 0.75, 0.5)
        env = MarketEnv((m1, m2), 0.75)
        grid = QuantityGrid(20, 0.75)
        config = AuctionConfig(grid=grid, eps=1e-3, max_price=2.0,
                               money_scale=10 ** 9, log_rounds=False)
        out = run_clock(clock_truthful(m1, grid), clock_truthful(m2, grid),
                        env, config)
        assert out.final_price == pytest.approx(0.75, abs=2e-3)
        assert out.quantities == (0.75, 0.0)
        assert out.excess_supply == pytest.approx(0.25)

    def test_max_price_hit(self):
        # Both power bidders still demand the cap at 0.5: no close.
        model = ValuationModel.power(2.0, 0.75, 0.8)
        env = MarketEnv((model, model), 0.75)
        grid = QuantityGrid(20, 0.75)
        config = AuctionConfig(grid=grid, eps=0.05, max_price=0.5)
        out = run_clock(clock_truthful(model, grid),
                        clock_truthful(model, grid), env, config)
        assert out.termination == "max-price-hit"
        assert out.final_price == 0.5
        assert out.quantities is None and out.revenue_units == 0
        assert len(out.rounds.ticks) == config.ticks == 11

    def test_dec_market_clears(self):
        m1 = ValuationModel.quadratic(1.25, 0.5, cap=0.9)
        m2 = ValuationModel.quadratic(1.05, 0.5, cap=0.9)
        env = MarketEnv((m1, m2), 0.9)
        grid = QuantityGrid(500, 0.9)
        config = AuctionConfig(grid=grid, eps=1e-3, max_price=1.4,
                               money_scale=10 ** 9, log_rounds=False)
        out = run_clock(clock_truthful(m1, grid), clock_truthful(m2, grid),
                        env, config)
        assert out.final_price == pytest.approx(0.65, abs=2e-3)
        assert out.quantities[0] == pytest.approx(0.6, abs=1 / 500 + 1e-9)
        assert out.quantities[1] == pytest.approx(0.4, abs=1 / 500 + 1e-9)


class TestRevenueCurve:
    def test_lots_peak_at_twenty(self):
        b1, b2 = truthful_lots_books(20)
        rows = revenue_curve(b1, b2)
        pairs = {x: pair for x, pair, _ in rows if pair is not None}
        assert max(pairs.values()) == 60 * MICRO
        assert pairs[0.5] == 60 * MICRO
        assert pairs[0.75] == 60 * MICRO  # headline three lots + zero bid

    def test_fresh_books_all_bottom(self):
        _, grid, _ = lots_env()
        rows = revenue_curve(BidBook(grid), BidBook(grid))
        assert all(pair is None and single is None for _, pair, single in rows)

    def test_dec_balance_at_close(self):
        # At the closing price the best split revenue ties the best
        # single acceptance.
        m1 = ValuationModel.quadratic(1.25, 0.5, cap=0.9)
        m2 = ValuationModel.quadratic(1.05, 0.5, cap=0.9)
        env = MarketEnv((m1, m2), 0.9)
        grid = QuantityGrid(100, 0.9)
        config = AuctionConfig(grid=grid, eps=2e-3, max_price=1.4,
                               money_scale=10 ** 9, log_rounds=False)
        strategies = (cmra_truthful(m1, grid), cmra_truthful(m2, grid))
        books = (BidBook(grid, config.money_scale),
                 BidBook(grid, config.money_scale))
        t = 0
        while True:
            p = t * config.eps
            for book, s in zip(books, strategies):
                book.record_round_indexed(p, s.headline_index(p),
                                          *s.additional_bid_arrays(p),
                                          clamp=True)
            if solve_closing(books[0], books[1]).closed:
                break
            t += 1
        rows = revenue_curve(books[0], books[1])
        best_pair = max(r[1] for r in rows if r[1] is not None)
        best_single = max(r[2] for r in rows if r[2] is not None)
        assert best_pair >= best_single
        assert best_pair - best_single <= 2 * config.money_scale * config.eps
