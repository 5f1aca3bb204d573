"""Proxy-strategy emissions: headline paths, indifference bids, legality."""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from cmra import (AssumptionViolation, AuctionConfig, BidBook, MarketEnv,
                  QuantityGrid, ValuationModel, run_cmra)
from cmra.bidbook import KIND_ADDITIONAL
from cmra.strategies import (STRATEGY_TAGS, clock_truthful, cmra_truthful,
                             constant_strategy, rdr_strategy)
from reference_engine import ReferenceCmraTruthful


def lots_setup():
    m = ValuationModel.polynomial((120.0, 0.0, 0.0), theta=1.0, cap=0.75)
    return m, QuantityGrid(4, 0.75)


def bid_map(strategy, p):
    ks, amounts = strategy.additional_bid_arrays(p)
    return {int(k): float(a) for k, a in zip(ks, amounts)}


class TestClockTruthful:
    def test_lots_headline_below_value(self):
        m, grid = lots_setup()
        s = clock_truthful(m, grid)
        assert s.headline_index(4 * 29.0) == 3
        assert s.additional_bid_arrays(116.0)[0].size == 0

    def test_zero_price_demands_cap(self):
        m, grid = lots_setup()
        assert clock_truthful(m, grid).headline_index(0.0) == 3
        m2 = ValuationModel.quadratic(1.05, 0.5, cap=0.9)
        assert clock_truthful(m2, QuantityGrid(20, 0.9)).headline_index(0.0) == 18

    def test_dec_interior_demand(self):
        m2 = ValuationModel.quadratic(1.05, 0.5, cap=0.9)
        s = clock_truthful(m2, QuantityGrid(20, 0.9))
        assert s.headline_index(0.95) == 2  # 0.1 share

    def test_headline_path_non_increasing(self):
        m2 = ValuationModel.quadratic(1.25, 0.5, cap=0.9)
        s = clock_truthful(m2, QuantityGrid(40, 0.9))
        ks = [s.headline_index(p) for p in np.linspace(0, 1.3, 200)]
        assert all(b <= a for a, b in zip(ks, ks[1:]))


class TestCmraTruthful:
    def test_lots_bid_at_per_lot_twelve(self):
        m, grid = lots_setup()
        s = cmra_truthful(m, grid)
        bids = bid_map(s, 48.0)
        assert bids[2] == pytest.approx(6.0, abs=1e-9)
        assert 1 not in bids  # one lot not yet worth a non-negative bid

    def test_lots_bids_at_per_lot_twenty(self):
        m, grid = lots_setup()
        bids = bid_map(cmra_truthful(m, grid), 80.0)
        assert bids[2] == pytest.approx(30.0, abs=1e-9)
        assert bids[1] == pytest.approx(0.0, abs=1e-9)

    def test_zero_price_only_cap_bid(self):
        m, grid = lots_setup()
        bids = bid_map(cmra_truthful(m, grid), 0.0)
        assert set(bids) == {3}
        assert bids[3] == 0.0

    def test_indifference_identity(self):
        # Every emitted amount leaves the bidder exactly on the headline
        # surplus, to within one micro-unit of money.
        for m in (ValuationModel.quadratic(1.25, 0.5, cap=0.9),
                  ValuationModel.power(2.0, 0.75, 0.7)):
            grid = QuantityGrid(20, m.cap)
            s = cmra_truthful(m, grid)
            for p in np.linspace(0.05, 1.0, 23):
                v = m.indirect_surplus(p)
                ks, amounts = s.additional_bid_arrays(p)
                for k, a in zip(ks, amounts):
                    assert m.value(grid.share(int(k))) - a == \
                        pytest.approx(v, abs=1e-6)

    def test_efficient_share_enters_at_indifference_price(self):
        # The weak quadratic bidder first bids on its efficient share 0.4
        # where U(0.4) = V(p), i.e. at p = 1.05 - sqrt(0.68).
        m2 = ValuationModel.quadratic(1.05, 0.5, cap=0.9)
        s = cmra_truthful(m2, QuantityGrid(20, 0.9))
        threshold = 1.05 - 0.68 ** 0.5
        assert threshold == pytest.approx(0.225379, abs=5e-7)
        k_eff = 8  # 0.4 share
        assert k_eff not in set(s.additional_bid_arrays(threshold - 1e-6)[0])
        ks, amounts = s.additional_bid_arrays(threshold + 1e-6)
        bids = dict(zip(ks, amounts))
        assert k_eff in bids and bids[k_eff] == pytest.approx(0.0, abs=1e-5)

    def test_domain_expands_with_price(self):
        m = ValuationModel.quadratic(1.25, 0.5, cap=0.9)
        s = cmra_truthful(m, QuantityGrid(20, 0.9))
        prev = set()
        for p in np.linspace(0.0, 1.2, 40):
            ks = set(int(k) for k in s.additional_bid_arrays(p)[0])
            assert prev <= ks
            prev = ks

    def test_linear_price_rule_holds(self):
        m = ValuationModel.power(2.0, 0.75, 0.9)
        grid = QuantityGrid(20, 0.75)
        s = cmra_truthful(m, grid)
        for p in np.linspace(0.01, 1.5, 37):
            ks, amounts = s.additional_bid_arrays(p)
            assert np.all(amounts <= p * ks / grid.n + 1e-12)
            assert np.all(amounts >= 0.0)


class TestCmraTruthfulSolves:
    """One demand solve per distinct price, whichever method asks first."""

    MODELS = (ValuationModel.quadratic(1.25, 0.5, cap=0.9),
              ValuationModel.power(0.6, 0.75, 0.8),
              ValuationModel.power(2.0, 0.75, 0.7),
              ValuationModel.polynomial((1.5, -0.4, -0.05), cap=0.75))

    @staticmethod
    def _queries(rng, eps):
        """(method, price) queries in mixed orders over clock ticks: bids
        before the headline, repeats, and off-grid refine probes."""
        out = []
        for t in range(60):
            p, probe = t * eps, (t + 0.5) * eps
            order = ["h", "a"] if rng.random() < 0.5 else ["a", "h"]
            out += [(m, p) for m in order]
            if rng.random() < 0.3:
                out.append((rng.choice("ha"), p))       # a repeat
            if rng.random() < 0.3:
                out.append((rng.choice("ha"), probe))   # one method only
            if t > 2 and rng.random() < 0.3:
                out.append((rng.choice("ha"), (t - 2) * eps))  # back
        return out

    def test_one_solve_per_distinct_price(self, monkeypatch):
        rng = random.Random(7)
        solve = ValuationModel.truthful_demand
        solved = []

        def counted(model, p):
            solved.append(p)
            return solve(model, p)

        for m in self.MODELS:
            grid = QuantityGrid(20, m.cap)
            queries = self._queries(rng, 1.5 * m.marginal(0.5 * m.cap) / 60)
            s = cmra_truthful(m, grid)
            solved.clear()
            monkeypatch.setattr(ValuationModel, "truthful_demand", counted)
            got = [s.headline_index(p) if kind == "h"
                   else s.additional_bid_arrays(p) for kind, p in queries]
            monkeypatch.undo()
            assert sorted(solved) == sorted({p for _, p in queries})
            ref = ReferenceCmraTruthful(m, grid)
            for (kind, p), emitted in zip(queries, got):
                if kind == "h":
                    assert emitted == ref.headline_index(p)
                else:
                    ks, amounts = ref.additional_bid_arrays(p)
                    assert np.array_equal(emitted[0], ks)
                    assert np.array_equal(emitted[1], amounts)
                    assert emitted[1].dtype == amounts.dtype

    def test_runs_match_reference_and_single_prices(self, monkeypatch):
        """``emissions`` over random runs of ticks, with repeated prices,
        off-grid probes and prices asked before, mixed with single-price
        queries: every emission equals the reference's and a lone price's
        query on a fresh strategy, every array is read-only, and each
        distinct price is solved once."""
        rng = random.Random(13)
        solve = ValuationModel.truthful_demand
        solved = []

        def counted(model, p):
            solved.append(p)
            return solve(model, p)

        for m in self.MODELS:
            grid = QuantityGrid(20, m.cap)
            eps = 1.5 * m.marginal(0.5 * m.cap) / 60
            s = cmra_truthful(m, grid)
            asked, got = [], []
            solved.clear()
            monkeypatch.setattr(ValuationModel, "truthful_demand", counted)
            t = 0
            while t < 60:
                if rng.random() < 0.3:
                    p = (t + rng.choice((0, 0.5))) * eps
                    kind = rng.choice("ha")
                    asked.append([p])
                    got.append([(s.headline_index(p), None, None)
                                if kind == "h" else
                                (None, *s.additional_bid_arrays(p))])
                    continue
                size = rng.randint(1, 9)
                prices = [(t + j) * eps for j in range(size)]
                if rng.random() < 0.3:
                    prices.insert(rng.randrange(size + 1), rng.choice(prices))
                if rng.random() < 0.3:
                    prices.append((t + size - 0.5) * eps)  # a probe
                if t > 2 and rng.random() < 0.3:
                    prices.insert(0, (t - 2) * eps)         # asked before
                asked.append(prices)
                got.append(s.emissions(prices))
                t += size
            monkeypatch.undo()
            distinct = {p for prices in asked for p in prices}
            assert sorted(solved) == sorted(distinct)
            ref = ReferenceCmraTruthful(m, grid)
            lone = {p: cmra_truthful(m, grid) for p in distinct}
            for prices, emitted in zip(asked, got):
                assert len(emitted) == len(prices)
                for p, (k, *bids) in zip(prices, emitted):
                    if k is not None:
                        assert k == ref.headline_index(p)
                        assert k == lone[p].headline_index(p)
                    if bids[0] is None:
                        continue
                    for want in (ref.additional_bid_arrays(p),
                                 lone[p].additional_bid_arrays(p)):
                        for array, expected in zip(bids, want):
                            assert np.array_equal(array, expected)
                            assert array.dtype == expected.dtype
                    for array in bids:
                        assert not array.flags.writeable


class TestCmraTruthfulSuffix:
    def test_value_falling_on_the_grid_is_refused(self):
        # The emitted quantities are a suffix of the grid only while the
        # value is non-decreasing on it.
        grid = QuantityGrid(20, 0.75)
        m = ValuationModel.power(2.0, 0.75, 0.9)
        falling = SimpleNamespace(cap=m.cap, value=lambda x: -m.value(x))
        with pytest.raises(AssumptionViolation, match="non-decreasing"):
            cmra_truthful(falling, grid)
        flat = SimpleNamespace(cap=m.cap, value=lambda x: min(m.value(x), 0.2))
        cmra_truthful(flat, grid)   # equal neighbours are fine


class TestReadOnlyEmissions:
    def test_every_emission_is_read_only(self):
        # Round logs keep references to the emitted arrays.
        for m in (ValuationModel.quadratic(1.25, 0.5, cap=0.9),
                  ValuationModel.power(2.0, 0.75, 0.7)):
            grid = QuantityGrid(20, m.cap)
            for make in STRATEGY_TAGS.values():
                s = make(m, grid)
                for p in np.linspace(0.0, 2.0 * m.final_price(), 41):
                    for array in s.additional_bid_arrays(float(p)):
                        assert not array.flags.writeable
                        with pytest.raises(ValueError):
                            array[...] = 0


class TestConstantStrategy:
    def test_headline_until_exit(self):
        m = ValuationModel.power(2.0, 0.75, 0.5)
        s = constant_strategy(m, QuantityGrid(20, 0.75))
        exit_price = m.value(0.75) / 0.75
        assert s.headline_index(exit_price - 1e-9) == 15
        assert s.headline_index(exit_price) == 15  # at the tie it still bids
        assert s.headline_index(exit_price + 1e-9) == 0

    def test_single_zero_bid_at_final_price(self):
        m = ValuationModel.power(2.0, 0.75, 0.5)
        s = constant_strategy(m, QuantityGrid(20, 0.75))
        pf = m.final_price()
        assert s.additional_bid_arrays(pf - 1e-6)[0].size == 0
        ks, amounts = s.additional_bid_arrays(pf)
        assert list(ks) == [5] and list(amounts) == [0.0]

    def test_one_distinct_bid_per_run(self):
        m = ValuationModel.power(2.0, 0.75, 0.5)
        grid = QuantityGrid(20, 0.75)
        env = MarketEnv((m, m.with_theta(0.8)), 0.75)
        config = AuctionConfig(grid=grid, eps=5e-3, max_price=2.0,
                               log_rounds=False)
        out = run_cmra(constant_strategy(env.models[0], grid),
                       constant_strategy(env.models[1], grid), env, config)
        # Exactly one grid point per book carries an additional-bid kind.
        # The books are not exposed on the outcome, so check via a replay.
        book = BidBook(grid)
        s = constant_strategy(m, grid)
        t = 0
        while t * config.eps <= out.final_price + config.eps:
            p = t * config.eps
            book.record_round_indexed(p, s.headline_index(p),
                                      *s.additional_bid_arrays(p), clamp=True)
            t += 1
        assert int((book.kinds == KIND_ADDITIONAL).sum()) == 1


class TestRdrStrategy:
    def test_first_round_emissions(self):
        m = ValuationModel.power(2.0, 0.75, 0.5)
        s = rdr_strategy(m, QuantityGrid(20, 0.75))
        assert s.headline_index(0.0) == 15
        bids = bid_map(s, 0.0)
        assert bids == {10: 0.0}  # zero bid on half the supply

    def test_two_distinct_bids_by_final_price(self):
        m = ValuationModel.power(2.0, 0.75, 0.5)
        s = rdr_strategy(m, QuantityGrid(20, 0.75))
        bids = bid_map(s, m.final_price() + 0.01)
        assert set(bids) == {10, 5}
        assert all(a == 0.0 for a in bids.values())

    def test_riskless_against_truthful_opponent(self):
        # Against any non-collusive opponent the reduction bid never
        # binds: outcome equals the constant strategy's, type by type.
        grid = QuantityGrid(20, 0.75)
        config = AuctionConfig(grid=grid, eps=2e-3, max_price=2.5,
                               money_scale=10 ** 9, log_rounds=False)
        for th_i, th_j in [(0.3, 0.8), (0.8, 0.3), (0.55, 0.55), (0.9, 0.2)]:
            mi = ValuationModel.power(2.0, 0.75, th_i)
            mj = ValuationModel.power(2.0, 0.75, th_j)
            env = MarketEnv((mi, mj), 0.75)
            for opp_make in (cmra_truthful, constant_strategy):
                out_rdr = run_cmra(rdr_strategy(mi, grid),
                                   opp_make(mj, grid), env, config)
                out_const = run_cmra(constant_strategy(mi, grid),
                                     opp_make(mj, grid), env, config)
                s_rdr = out_rdr.surplus(env.models)[0]
                s_const = out_const.surplus(env.models)[0]
                assert s_rdr == pytest.approx(s_const, abs=1e-6)

    def test_headline_retained_past_round_one(self):
        m = ValuationModel.quadratic(1.25, 0.5, cap=0.9)
        s = rdr_strategy(m, QuantityGrid(20, 0.9))
        assert s.headline_index(0.3) == 18  # full eligibility kept


class TestEngineLegality:
    def test_all_emissions_recordable(self):
        # A fine grid makes truthful bids saturate the relative cap; the
        # engine clamp must shave at most a micro-unit of money.
        m1 = ValuationModel.quadratic(1.25, 0.5, cap=0.9)
        m2 = ValuationModel.quadratic(1.05, 0.5, cap=0.9)
        grid = QuantityGrid(200, 0.9)
        scale = 10 ** 9
        book = BidBook(grid, scale)
        s = cmra_truthful(m1, grid)
        t = 0
        while t * 2e-3 <= 0.6:
            p = t * 2e-3
            ks, amounts = s.additional_bid_arrays(p)
            book.record_round_indexed(p, s.headline_index(p), ks, amounts,
                                      clamp=True)
            for k, a in zip(ks, amounts):
                recorded = book.bid_at_index(int(k))
                assert recorded >= int(a * scale) - 1000  # <= 1 micro shaved
            t += 1
