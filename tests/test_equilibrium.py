"""Deviation oracles, collusion thresholds, VCG equivalence, search soundness."""

import math
import os
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from reference_engine import (ReferenceBidBook, reference_round,
                              reference_run_cmra, sentinel_values)

from cmra import (AssumptionViolation, AuctionConfig, AuctionOutcome,
                  MarketEnv, QuantityGrid, TypeDistribution, ValuationModel,
                  check_expost, check_rdr_bne, minimal_winning_bid,
                  rdr_threshold, replay_deviation, run_cmra,
                  vcg_equivalence_check, vcg_outcome)
from cmra.bidbook import _NOTHING, money_units
from cmra.equilibrium import (_BIG, Deviation, DeviationFamily, HeadlineOnly,
                              _Ladder, _PairScreen, _replay_cells,
                              _uniform_partial_mean)
from cmra.strategies import STRATEGY_TAGS

_NEG = np.int64(-(2 ** 53))  # the screens' marker for an absent bid or pair


def pow_env(alpha=2.0, thetas=(0.8, 0.5), support=(0.1, 1.0)):
    models = tuple(ValuationModel.power(alpha, 0.75, t, support)
                   for t in thetas)
    return MarketEnv(models, 0.75, TypeDistribution("uniform", support))


def quad_env(thetas=(1.25, 1.05), support=(1.05, 1.25)):
    models = tuple(ValuationModel.quadratic(t, 0.5, 0.9, support)
                   for t in thetas)
    return MarketEnv(models, 0.9, TypeDistribution("uniform", support))


def small_config(cap, max_price, eps=1e-2):
    return AuctionConfig(grid=QuantityGrid(20, cap), eps=eps,
                         max_price=max_price, log_rounds=False)


def unrefined(cap, max_price, eps):
    return replace(small_config(cap, max_price, eps), refine=False)


class TestMinimalWinningBid:
    def test_linear_family_midpoint(self):
        opp = ValuationModel.power(1.0, 0.75, 0.6)
        got = minimal_winning_bid(opp, 0.5, 1.0)
        assert got == pytest.approx(0.3, abs=1e-12)

    def test_residual_share_costs_nothing_past_final_price(self):
        opp = ValuationModel.power(2.0, 0.75, 0.6)
        got = minimal_winning_bid(opp, 1.0 - 0.75, opp.final_price() + 0.05)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_cap_costs_the_spread(self):
        opp = ValuationModel.power(2.0, 0.75, 0.6)
        got = minimal_winning_bid(opp, 0.75, 1.2)
        assert got == pytest.approx(0.6, abs=1e-12)

    def test_constant_opponent(self):
        opp = ValuationModel.power(2.0, 0.75, 0.6)
        pf = opp.final_price()
        got = minimal_winning_bid(opp, 0.75, pf, opponent_tag="constant")
        assert got == pytest.approx(pf * 0.75, abs=1e-12)
        with pytest.raises(ValueError):
            minimal_winning_bid(opp, 0.5, pf, opponent_tag="constant")

    def test_no_partner_bid_raises(self):
        opp = ValuationModel.power(2.0, 0.75, 0.6)
        with pytest.raises(ValueError):
            minimal_winning_bid(opp, 0.5, 0.01)


class TestRdrThreshold:
    def test_linear_family(self):
        assert rdr_threshold(pow_env(1.0, support=(0.0, 1.0))) == \
            pytest.approx(0.5, abs=1e-12)

    def test_convex_family(self):
        assert rdr_threshold(pow_env(2.0, support=(0.0, 1.0))) == \
            pytest.approx(0.625, abs=1e-12)

    def test_requires_normalized_linear_family(self):
        with pytest.raises(AssumptionViolation):
            rdr_threshold(quad_env())


class TestCheckRdrBne:
    def test_binding_at_top_type_linear(self):
        rep = check_rdr_bne(pow_env(1.0, support=(0.0, 1.0)), samples=20_000,
                            seed=3)
        assert rep.holds
        assert rep.slack_at_top == pytest.approx(0.0, abs=1e-9)
        assert rep.binding_theta == pytest.approx(1.0)
        assert rep.mc_agrees

    def test_bottom_type_strictly_prefers_collusion(self):
        env = pow_env(1.0, support=(0.0, 1.0))
        m0 = env.models[0].with_theta(0.0)
        # With no type to beat, deviating only yields the residual share,
        # worth less than half the supply.
        assert m0.value(1 - 0.75) < m0.value(0.5) or \
            env.models[0].with_theta(1e-6).value(0.25) < \
            env.models[0].with_theta(1e-6).value(0.5)

    def test_violated_for_convex_family(self):
        rep = check_rdr_bne(pow_env(2.0, support=(0.0, 1.0)), samples=20_000,
                            seed=3)
        assert not rep.holds
        assert rep.slack_at_top == pytest.approx(-0.125, abs=1e-9)

    def test_type_grid_of_one_point_is_the_midpoint(self):
        env = pow_env(1.0, support=(0.0, 1.0))
        rep = check_rdr_bne(env, samples=1_000, seed=3, theta_points=1)
        assert rep.binding_theta == 0.5
        for bad in ({"theta_points": 0}, {"theta_points": -3},
                    {"theta_points": 2.5}, {"theta_points": True},
                    {"samples": 0}, {"samples": 1}, {"samples": 2.0},
                    {"samples": True}, {"engine_samples": -1},
                    {"engine_samples": 1.5}, {"engine_samples": True}):
            (name, _), = bad.items()
            with pytest.raises(ValueError, match=f"^{name} "):
                check_rdr_bne(env, **{"samples": 1_000, **bad})

    @staticmethod
    def random_supports(seed, count):
        """``(lo, hi, points)``: random uniform supports, some starting at
        0 and some narrow, with their ends and a random type grid."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            lo = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 2.0))
            width = rng.uniform(1e-3, 3.0) if rng.random() < 0.8 \
                else rng.uniform(1e-6, 1e-2)
            hi = lo + float(width)
            grid = TypeDistribution("uniform", (lo, hi)).grid(
                int(rng.integers(2, 60)))
            yield lo, hi, (lo, hi, *grid)

    def test_partial_mean_within_3_ulp_of_exact(self):
        # Exact rational arithmetic on the same float inputs.
        for lo, hi, points in self.random_supports(23, 300):
            for t in points:
                exact = ((Fraction(t) ** 2 - Fraction(lo) ** 2)
                         / (2 * (Fraction(hi) - Fraction(lo))))
                err = abs(Fraction(_uniform_partial_mean(lo, hi, t)) - exact)
                assert err <= 3 * Fraction(math.ulp(float(exact))), (lo, hi, t)

    def test_partial_mean_matches_quadrature(self):
        # The numerical integral the closed form replaced.
        integrate = pytest.importorskip("scipy.integrate")
        for lo, hi, points in self.random_supports(29, 200):
            dist = TypeDistribution("uniform", (lo, hi))
            for t in points:
                want = integrate.quad(lambda u: u * dist.pdf(u), lo, t)[0]
                assert _uniform_partial_mean(lo, hi, t) == pytest.approx(
                    want, rel=1e-15, abs=0), (lo, hi, t)

    def test_runs_without_scipy(self):
        # scipy is a test dependency only: a fresh interpreter that cannot
        # import it still imports cmra and runs the check, engine
        # subsample included, loading no scipy module.
        code = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None
            from cmra import (AuctionConfig, MarketEnv, QuantityGrid,
                              TypeDistribution, ValuationModel, check_rdr_bne)
            models = tuple(ValuationModel.power(1.0, 0.75, t, (0.0, 1.0))
                           for t in (0.8, 0.5))
            env = MarketEnv(models, 0.75, TypeDistribution("uniform", (0.0, 1.0)))
            config = AuctionConfig(grid=QuantityGrid(20, 0.75), eps=1e-2,
                                   max_price=2.0, log_rounds=False)
            rep = check_rdr_bne(env, samples=1_000, config=config,
                                theta_points=5, engine_samples=3)
            assert rep.holds and rep.engine_checked == 3, rep
            loaded = [name for name, module in sys.modules.items()
                      if name.split(".")[0] == "scipy" and module is not None]
            assert not loaded, loaded
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_engine_subsample_agreement(self):
        cfg = small_config(0.75, 2.0, eps=5e-3)
        rep = check_rdr_bne(pow_env(1.0, support=(0.0, 1.0)), samples=5_000,
                            seed=5, config=cfg, engine_samples=40)
        assert rep.engine_checked == 40
        assert rep.engine_max_err <= 1e-6


class TestVcgEquivalence:
    def test_standard_pair(self):
        cfg = small_config(0.75, 2.0, eps=1e-3)
        report = vcg_equivalence_check(pow_env(2.0, (0.8, 0.5)), cfg)
        assert report["all_match"]
        assert report["vcg"].payments[0] == pytest.approx(0.5)

    def test_linear_family_pair(self):
        cfg = small_config(0.75, 3.0, eps=1e-3)
        report = vcg_equivalence_check(pow_env(1.0, (0.9, 0.3)), cfg)
        assert report["all_match"]
        assert report["vcg"].payments == (pytest.approx(0.3), 0.0)

    def test_symmetric_types_designated_winner(self):
        cfg = small_config(0.75, 2.0, eps=1e-3)
        env = pow_env(2.0, (0.6, 0.6))
        report = vcg_equivalence_check(env, cfg)
        assert report["all_match"]
        want = vcg_outcome(env)
        assert want.quantities == (0.75, 0.25)
        assert want.payments[0] == pytest.approx(0.6)

    def test_decreasing_regime_rejected(self):
        with pytest.raises(AssumptionViolation):
            vcg_equivalence_check(quad_env(), small_config(0.9, 1.4))


class TestExPostSearch:
    def test_verified_profile_small_grid(self):
        fam = DeviationFamily(n_amounts=12, n_submit_prices=6, n_drop_prices=6)
        cfg = small_config(0.75, 1.6, eps=1e-2)
        res = check_expost("cmra-truthful", pow_env(), cfg, theta_grid=3,
                           family=fam, tol=1e-4)
        assert res.verified
        assert not res.truncated
        assert res.max_gain <= 1e-4
        # Pinned: the replay order and its bookkeeping are fixed.
        assert (res.replays, res.members) == (76, 18108)
        assert res.max_gain == 0.0

    def test_refuted_profile_reports_replayable_deviation(self):
        fam = DeviationFamily(n_amounts=12, n_submit_prices=6, n_drop_prices=6)
        cfg = small_config(0.9, 1.5, eps=1e-2)
        env = quad_env()
        res = check_expost("clock-truthful", env, cfg, theta_grid=3,
                           family=fam, tol=1e-4, stop_at_gain=1e-3)
        assert not res.verified and res.max_gain > 1e-3
        # Pinned: the sweep stops at the same replay as a sequential scan.
        assert (res.replays, res.members) == (28, 1207)
        assert res.max_gain == pytest.approx(0.23375, abs=1e-12)
        report = next(r for r in res.reports.values()
                      if r.best_deviation is not None
                      and r.best_gain == res.max_gain)
        # The reported gain must reproduce exactly through the engine.
        _, surplus = replay_deviation(
            "clock-truthful", env, report.seat, report.best_deviation, cfg,
            (report.deviator_theta, report.best_opponent))
        assert surplus - report.baseline[report.best_opponent] == \
            pytest.approx(report.best_gain, abs=1e-12)

    def test_ladders_hold_every_engine_tick(self):
        """A maximum price whose quotient by eps rounds down, and one a
        hair above it, give the same clock, so the same search."""
        fam = DeviationFamily(16, 8, 8)
        results = []
        for top in (0.489, 0.489 + 1e-9):
            cfg = AuctionConfig(grid=QuantityGrid(20, 0.9), eps=1e-3,
                                max_price=top, start=0.03, log_rounds=False)
            assert cfg.ticks == 460
            results.append(check_expost("constant", quad_env(), cfg,
                                        theta_grid=3, family=fam, tol=1e-4))
        low, high = results
        for name in ("replays", "members", "max_gain", "verified",
                     "truncated", "reports"):
            assert getattr(low, name) == getattr(high, name), name
        assert low.replays == 2502

    def test_off_family_deviations_gain_at_most_tol(self):
        # Deviations outside the search family, with amounts off its
        # levels and submission and drop prices off its ticks, gain at
        # most the tolerance over a verified profile's baseline.  The
        # screen bounds only family members, which
        # test_every_member_within_its_own_bound replays exhaustively.
        env = pow_env()
        cfg = small_config(0.75, 1.6, eps=1e-2)
        fam = DeviationFamily(n_amounts=8, n_submit_prices=5, n_drop_prices=5)
        res = check_expost("constant", env, cfg, theta_grid=2, family=fam,
                           tol=1e-4)
        assert res.verified
        rng = np.random.default_rng(0)
        thetas = (0.1, 1.0)
        grid = cfg.grid
        t_n = int((cfg.max_price - cfg.start) / cfg.eps) + 1
        for _ in range(30):
            th_d, th_o = rng.choice(thetas), rng.choice(thetas)
            seat = int(rng.integers(0, 2))
            if rng.random() < 0.5:
                q = float(cfg.start + cfg.eps * rng.integers(0, t_n))
                k = int(rng.integers(1, grid.cap_index + 1))
                dev = Deviation("single-bid", quantity_k=k,
                                amount=float(rng.uniform(0, q * k / grid.n)),
                                submit_price=q)
            else:
                dev = Deviation("drop",
                                drop_price=float(cfg.eps * rng.integers(0, t_n)),
                                drop_k=int(rng.integers(0, grid.cap_index)))
            _, surplus = replay_deviation("constant", env, seat, dev, cfg,
                                          (th_d, th_o))
            base = _baseline("constant", env, cfg, th_d, th_o, seat)
            assert surplus - base <= 1e-4 + 1e-12

    @pytest.mark.parametrize("profile, env, cap, max_price", [
        ("constant", pow_env(), 0.75, 1.6),
        ("cmra-truthful", pow_env(), 0.75, 1.6),
        ("cmra-truthful", quad_env(), 0.9, 1.5),
        ("clock-truthful", quad_env(), 0.9, 1.5)])
    def test_every_member_within_its_own_bound(self, profile, env, cap,
                                               max_price):
        # Exhaustive soundness of the screen on a tiny family: every
        # member it lists, screened with no cutoff, replays through the
        # engine to a gain no larger than its own bound.
        cfg = AuctionConfig(grid=QuantityGrid(10, cap), eps=2e-2,
                            max_price=max_price, log_rounds=False)
        fam = DeviationFamily(n_amounts=6, n_submit_prices=4, n_drop_prices=4)
        grid, scale = cfg.grid, cfg.money_scale
        t_n = int((cfg.max_price - cfg.start) / cfg.eps) + 1
        prices = cfg.start + cfg.eps * np.arange(t_n)
        ticks = sorted({int(round(i)) for i in np.linspace(0, t_n - 1, 4)})
        make = STRATEGY_TAGS[profile]
        replayed = {"headline-only": 0, "single-bid": 0, "drop": 0}
        for seat in (0, 1):
            for th_d in env.distribution.support:
                for th_o in env.distribution.support:
                    md = env.models[seat].with_theta(th_d)
                    mo = env.models[1 - seat].with_theta(th_o)
                    ladder = _Ladder([HeadlineOnly(make(md, grid)),
                                      make(mo, grid)], prices, grid, scale,
                                     cap_ticks=ticks)
                    u_dev = np.array([md.value(grid.share(k))
                                      for k in range(grid.n + 1)])
                    screen = _PairScreen(ladder, 0, 1, prices, grid, scale,
                                         u_dev)
                    base = _baseline(profile, env, cfg, th_d, th_o, seat)
                    found = []
                    if screen.t0 is not None:
                        found.append((float(screen.hh_opt[screen.t0]),
                                      Deviation("headline-only")))
                    for fast in (screen.screen_single_bids,
                                 screen.screen_drops):
                        found += fast(fam, ticks, base, -np.inf)[1]
                    for bound, dev in found:
                        _, surplus = replay_deviation(profile, env, seat, dev,
                                                      cfg, (th_d, th_o))
                        assert surplus - base <= bound - base + 1e-12, \
                            (seat, th_d, th_o, dev)
                        replayed[dev.kind] += 1
        assert min(replayed.values()) > 0, replayed

    def test_one_screen_per_type_pair(self, monkeypatch):
        # A pair's screen serves both seats: a two-seat search on a grid
        # of 3 types builds 9 screens, one per (deviator, opponent) pair.
        built = []
        init = _PairScreen.__init__

        def spy(screen, ladder, dev, opp, *args):
            built.append((dev, opp))
            init(screen, ladder, dev, opp, *args)
        monkeypatch.setattr(_PairScreen, "__init__", spy)
        fam = DeviationFamily(n_amounts=4, n_submit_prices=4, n_drop_prices=4)
        res = check_expost("cmra-truthful", pow_env(), small_config(0.75, 1.6),
                           theta_grid=3, family=fam)
        assert len(res.reports) == 6
        assert len(built) == len(set(built)) == 9

    def test_one_seat_searches_match_the_two_seat_search(self):
        # The shared screen lists members over the lower of the two seats'
        # baselines; each seat's pick from it must be what a search of that
        # seat alone replays and reports.
        fam = DeviationFamily(n_amounts=8, n_submit_prices=5, n_drop_prices=5)
        seen = {"asymmetric": 0, "truncated": 0}
        for profile, env, cfg, cap in [
                ("cmra-truthful", pow_env(), small_config(0.75, 1.6), 400),
                ("constant", quad_env(), small_config(0.9, 1.5), 400),
                ("clock-truthful", quad_env(), small_config(0.9, 1.5), 400),
                ("clock-truthful", quad_env(), small_config(0.9, 1.5), 3),
                # Without the refine, seat tie-breaks at the closing tick
                # give the seats baselines that differ by cents.
                ("constant", quad_env(), unrefined(0.9, 1.5, 0.05), 400),
                ("clock-truthful", quad_env(), unrefined(0.9, 1.5, 0.1), 400)]:
            both = check_expost(profile, env, cfg, theta_grid=3, family=fam,
                                replay_cap=cap)
            alone = [check_expost(profile, env, cfg, theta_grid=3,
                                  family=fam, replay_cap=cap, seats=(seat,))
                     for seat in (0, 1)]
            for seat, res in enumerate(alone):
                assert res.reports == {key: report for key, report
                                       in both.reports.items()
                                       if key[1] == seat}, (profile, seat)
            assert both.replays == sum(res.replays for res in alone) > 0
            assert both.members == sum(res.members for res in alone)
            assert both.truncated == any(res.truncated for res in alone)
            seen["truncated"] += both.truncated
            # Cells whose seats' baselines differ: there the shared
            # screen's cut is below one seat's own.
            seen["asymmetric"] += any(
                abs(base - both.reports[th, 1 - seat].baseline[opp]) > 1e-3
                for (th, seat), report in both.reports.items()
                for opp, base in report.baseline.items())
        assert min(seen.values()) > 0, seen

    def test_search_dominates_random_members_decreasing(self):
        # In the refuted decreasing regime the search's best replayed
        # gain per type pair must dominate any family member's engine
        # gain (the screen may skip members only when they cannot beat
        # what was already replayed).
        env = quad_env()
        cfg = small_config(0.9, 1.5, eps=1e-2)
        fam = DeviationFamily(n_amounts=10, n_submit_prices=6, n_drop_prices=6)
        res = check_expost("cmra-truthful", env, cfg, theta_grid=2,
                           family=fam, tol=1e-4)
        rng = np.random.default_rng(17)
        grid = cfg.grid
        t_n = int((cfg.max_price - cfg.start) / cfg.eps) + 1
        lo, hi = env.distribution.support
        for _ in range(25):
            th_d, th_o = rng.choice((lo, hi)), rng.choice((lo, hi))
            seat = int(rng.integers(0, 2))
            if rng.random() < 0.5:
                q = float(cfg.eps * rng.integers(0, t_n))
                k = int(rng.integers(1, grid.cap_index + 1))
                dev = Deviation("single-bid", quantity_k=k,
                                amount=float(rng.uniform(0, q * k / grid.n)),
                                submit_price=q)
            else:
                dev = Deviation("drop",
                                drop_price=float(cfg.eps * rng.integers(0, t_n)),
                                drop_k=int(rng.integers(0, grid.cap_index)))
            _, surplus = replay_deviation("cmra-truthful", env, seat, dev,
                                          cfg, (float(th_d), float(th_o)))
            report = res.reports[(float(th_d), seat)]
            base = report.baseline[float(th_o)]
            best = max(report.by_opponent[float(th_o)], 0.0)
            assert surplus - base <= best + 1e-4 + 1e-12, (th_d, th_o, dev)

    def test_collusion_outcome_matrix_row(self):
        # Both colluding: half the supply each at zero; one colluding
        # against a constant opponent: the constant-strategy outcome.
        env = pow_env(2.0, (0.7, 0.7))
        cfg = small_config(0.75, 2.0, eps=2e-3)
        grid = cfg.grid
        rdr = STRATEGY_TAGS["rdr"]
        const = STRATEGY_TAGS["constant"]
        both = run_cmra(rdr(env.models[0], grid), rdr(env.models[1], grid),
                        env, cfg)
        assert both.quantities == (0.5, 0.5) and both.revenue_units == 0
        mixed = run_cmra(const(env.models[0], grid), rdr(env.models[1], grid),
                         env, cfg)
        assert mixed.quantities == (0.75, 0.25)
        assert mixed.payments[0] == pytest.approx(0.7, abs=5e-3)


class TestSearchArguments:
    """A search whose grids, replay cap or seats are empty, negative,
    repeated or off the quantity grid is refused rather than run on a
    different grid or reported verified without its replays."""

    @pytest.mark.parametrize("kw", [
        {"theta_grid": 0}, {"theta_grid": -3}, {"replay_cap": 0},
        {"replay_cap": -1}, {"replay_cap": 2.5}, {"seats": ()},
        {"seats": (0, 0)}, {"seats": (2,)}, {"seats": (1.0,)},
        {"theta_grid": 2.5}, {"theta_grid": True}])
    def test_type_grid_replay_cap_and_seats_must_be_legal(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            check_expost("constant", quad_env(), small_config(0.9, 1.5),
                         **{"theta_grid": 2, **kw},
                         family=DeviationFamily(n_amounts=2,
                                                n_submit_prices=2,
                                                n_drop_prices=2))

    def test_start_price_must_be_non_negative(self):
        # The screens assume non-negative prices and bids: at a negative
        # start the legal maximum of a single bid is negative, and the
        # engine would refuse such amounts deep inside a replay.
        cfg = AuctionConfig(grid=QuantityGrid(8, 0.75), eps=0.02,
                            max_price=1.6, start=-0.05)
        with pytest.raises(ValueError, match=r"^config\.start -0\.05 "):
            check_expost("constant", pow_env(), cfg, theta_grid=3,
                         family=DeviationFamily(8, 6, 6))

    @pytest.mark.parametrize("name", ["n_amounts", "n_submit_prices",
                                      "n_drop_prices"])
    @pytest.mark.parametrize("value", [0, -2, 2.5, True, None])
    def test_family_counts_must_be_integers_of_at_least_one(self, name,
                                                            value):
        with pytest.raises(ValueError, match=name):
            DeviationFamily(**{name: value})

    @pytest.mark.parametrize("value", [1, np.int64(3)])
    def test_family_counts_of_one_or_more_are_legal(self, value):
        fam = DeviationFamily(n_amounts=value, n_submit_prices=value,
                              n_drop_prices=value)
        assert fam.n_amounts == value

    @pytest.mark.parametrize("kw", [
        {"bid_quantities": (25,)}, {"bid_quantities": (3, 0)},
        {"bid_quantities": (19,)}, {"drop_quantities": (18,)},
        {"drop_quantities": (-1, 4)}])
    def test_quantities_must_lie_on_the_grid_up_to_the_cap(self, kw):
        # Cap 0.9 on a grid of 20: bids on 1..18, drops to 0..17.
        with pytest.raises(ValueError, match=next(iter(kw))):
            check_expost("constant", quad_env(), small_config(0.9, 1.5),
                         theta_grid=2, family=DeviationFamily(**kw))

    def test_quantities_up_to_the_cap_are_searched(self):
        fam = DeviationFamily(n_amounts=2, n_submit_prices=2,
                              n_drop_prices=2, bid_quantities=(1, 18),
                              drop_quantities=(0, 17))
        res = check_expost("constant", quad_env(), small_config(0.9, 1.5),
                           theta_grid=2, family=fam)
        assert res.members > 0


    @pytest.mark.parametrize("kw, members", [
        ({}, 182), ({"bid_quantities": ()}, 74), ({"drop_quantities": ()}, 110),
        ({"bid_quantities": (), "drop_quantities": ()}, 2)])
    def test_an_empty_quantity_tuple_searches_none(self, kw, members):
        fam = DeviationFamily(n_amounts=2, n_submit_prices=2,
                              n_drop_prices=2, **kw)
        res = check_expost("constant", quad_env(), small_config(0.9, 1.5),
                           theta_grid=1, family=fam)
        assert res.members == members


class TestBaselines:
    """The search's profile baselines against runs from price 0."""

    def test_match_reference_runs(self):
        fam = DeviationFamily(n_amounts=4, n_submit_prices=4, n_drop_prices=4)
        cases = [("cmra-truthful", pow_env(), small_config(0.75, 1.6)),
                 ("constant", quad_env(), small_config(0.9, 1.5)),
                 # The clock stops before some pairs close.
                 ("cmra-truthful", pow_env(), small_config(0.75, 0.5)),
                 ("clock-truthful", quad_env(), AuctionConfig(
                     grid=QuantityGrid(20, 0.9), eps=1.3e-2, max_price=1.5,
                     start=0.21, refine=False, log_rounds=False))]
        seen = {"closed": 0, "unclosed": 0}
        for profile, env, cfg in cases:
            res = check_expost(profile, env, cfg, theta_grid=3, family=fam)
            make = STRATEGY_TAGS[profile]
            for (th_dev, seat), report in res.reports.items():
                assert report.baseline.keys() == report.by_opponent.keys()
                for th_opp, baseline in report.baseline.items():
                    thetas = (th_dev, th_opp) if seat == 0 else (th_opp, th_dev)
                    models = [env.models[0].with_theta(th) for th in thetas]
                    out = reference_run_cmra(
                        *(make(m, cfg.grid) for m in models), cfg)
                    assert baseline == out.surplus(models)[seat]
                    seen["closed" if out.closed else "unclosed"] += 1
        assert min(seen.values()) > 0, seen


class TestResumedReplay:
    """A cell's deviations replayed in lockstep against runs from price 0."""

    def test_matches_replay_from_price_zero(self):
        rng = np.random.default_rng(23)
        cases = [("cmra-truthful", pow_env(), small_config(0.75, 1.6, 2e-2)),
                 ("constant", pow_env(), small_config(0.75, 1.6, 2e-2)),
                 ("cmra-truthful", quad_env(), small_config(0.9, 1.5, 2e-2)),
                 ("constant", quad_env(), small_config(0.9, 1.5, 2e-2))]
        seen = {"kinds": set(), "seats": set(), "regimes": set(),
                "at 0": 0, "at t0": 0, "below t0": 0, "past t0": 0,
                "mixed starts": 0, "mixed closes": 0}
        checked = 0
        for profile, env, cfg in cases:
            grid = cfg.grid
            t_n = int((cfg.max_price - cfg.start) / cfg.eps) + 1
            prices = cfg.start + cfg.eps * np.arange(t_n)
            lo, hi = env.distribution.support
            make = STRATEGY_TAGS[profile]
            for seat in (0, 1):
                for _ in range(3):
                    th_d, th_o = (float(v) for v in rng.uniform(lo, hi, 2))
                    md = env.models[seat].with_theta(th_d)
                    mo = env.models[1 - seat].with_theta(th_o)
                    base, opp = make(md, grid), make(mo, grid)
                    # Snapshots at a sparse random set of ticks, and at t0
                    # for some pairs, so resume ticks fall on, below and
                    # short of the limit.
                    full = set(range(t_n))
                    ladder = _Ladder([HeadlineOnly(base), opp], prices, grid,
                                     cfg.money_scale, snap_ticks=full)
                    u_dev = np.array([md.value(grid.share(k))
                                      for k in range(grid.n + 1)])
                    t0 = _PairScreen(ladder, 0, 1, prices, grid,
                                     cfg.money_scale, u_dev).t0
                    keep = {0, *rng.choice(t_n, 8, replace=False).tolist()}
                    if t0 is not None and rng.random() < 0.5:
                        keep.add(t0)
                    ladder.snaps = {t: b for t, b in ladder.snaps.items()
                                    if t in keep}
                    batch = [_random_deviation(rng, cfg, prices, t_n)
                             for _ in range(10)]
                    got, = _replay_cells(
                        seat, [([dev for dev, _ in batch], base, 0, t0)],
                        opp, ladder, 1, prices, cfg)
                    starts, closes = set(), set()
                    for (dev, div), out in zip(batch, got):
                        pair = (dev.build(make(md, grid)), make(mo, grid))
                        want = reference_run_cmra(
                            *(pair if seat == 0 else pair[::-1]), cfg)
                        for f in fields(AuctionOutcome):
                            assert getattr(out, f.name) == getattr(want, f.name)
                        checked += 1
                        limit = min(t for t in (div, t0, t_n) if t is not None)
                        start = max(t for t in keep if t <= limit)
                        starts.add(start)
                        if want.closed:
                            closes.add(int(np.searchsorted(prices,
                                                           want.final_price)))
                        seen["kinds"].add(dev.kind)
                        seen["seats"].add(seat)
                        seen["regimes"].add(env.regime)
                        seen["at 0"] += start == 0
                        seen["at t0"] += t0 is not None and start == t0
                        seen["below t0"] += 0 < start < (t0 or t_n)
                        seen["past t0"] += t0 is not None and div is not None \
                            and div > t0
                    seen["mixed starts"] += len(starts) >= 2
                    seen["mixed closes"] += len(closes) >= 2
        assert checked >= 200
        assert len(seen["kinds"]) == 3 and seen["seats"] == {0, 1}
        assert len(seen["regimes"]) == 2
        assert min(seen["at 0"], seen["at t0"], seen["below t0"],
                   seen["past t0"], seen["mixed starts"],
                   seen["mixed closes"]) > 0, seen


class _ReferenceLadder:
    """The per-strategy ladder that ``_Ladder``'s rows replaced: one book,
    one round per tick, and a copy of the book per snapshot tick."""

    def __init__(self, strategy, prices, grid, scale, cap_ticks=(),
                 snap_ticks=()):
        book = ReferenceBidBook(grid, scale)
        t_n = len(prices)
        width = grid.n + 1
        self.values = np.zeros((t_n, width), dtype=np.int64)
        self.mask = np.zeros((t_n, width), dtype=bool)
        self.caps = {}
        self.kpath = np.zeros(t_n, dtype=np.int64)
        self.snaps = {}
        for t, p in enumerate(prices):
            if t in snap_ticks:
                self.snaps[t] = book.copy()
            self.kpath[t] = reference_round(book, strategy, float(p))[0]
            self.values[t] = book.values
            self.mask[t] = book.has_bid
            if t in cap_ticks:
                self.caps[t] = book.activity_caps_array(_BIG)


class TestLadderRows:
    """A search's ladders, rows of one state, against per-strategy loops."""

    def test_rows_match_per_strategy_ladders(self):
        rng = np.random.default_rng(97)
        seen = {"segments": 0, "capped": 0, "bids": 0, "regimes": set()}
        for i in range(16):
            profile = list(STRATEGY_TAGS)[i % 4]
            env, cap, top = ((pow_env(), 0.75, 1.6) if i // 4 % 2 == 0
                             else (quad_env(), 0.9, 1.5))
            cfg = AuctionConfig(
                grid=QuantityGrid(int(rng.choice([10, 20])), cap),
                eps=float(rng.choice([1e-2, 0.0197])), max_price=top,
                start=float(rng.choice([0.0, 0.13])), log_rounds=False)
            grid, scale = cfg.grid, cfg.money_scale
            t_n = int((cfg.max_price - cfg.start) / cfg.eps) + 1
            prices = cfg.start + cfg.eps * np.arange(t_n)
            make = STRATEGY_TAGS[profile]
            lo, hi = env.distribution.support
            models = [env.models[0].with_theta(float(th))
                      for th in rng.uniform(lo, hi, 3)]

            def strategies():
                # A search's rows: full ladders, then headline-only ones.
                full = [make(m, grid) for m in models]
                return full + [HeadlineOnly(s) for s in full]
            cap_ticks = sorted({0, *rng.choice(t_n, 5).tolist()})
            snap_ticks = {0, t_n - 1, *rng.choice(t_n, 5).tolist()}
            got = _Ladder(strategies(), prices, grid, scale, cap_ticks,
                          snap_ticks)
            assert got.caps.keys() == set(cap_ticks)
            assert got.snaps.keys() == snap_ticks
            for r, strategy in enumerate(strategies()):
                want = _ReferenceLadder(strategy, prices, grid, scale,
                                        cap_ticks, snap_ticks)
                assert np.array_equal(got.values[r], np.where(
                    want.mask, want.values, _NOTHING))
                assert np.array_equal(got.kpath[r], want.kpath)
                for t in cap_ticks:
                    assert np.array_equal(got.caps[t][r], want.caps[t])
                for t, book in want.snaps.items():
                    snap = got.snaps[t]
                    assert np.array_equal(snap.values[r],
                                          sentinel_values(book))
                    assert np.array_equal(snap.kinds[r], book.kinds)
                    assert np.array_equal(snap.seg_lo[r], book._seg_lo)
                    assert np.array_equal(snap.seg_base[r], book._seg_base)
                    assert (snap.last_price[r], snap.last_headline[r]) == \
                        (book.last_price, book.last_headline)
                last = want.snaps[t_n - 1]
                seen["segments"] += bool((last._seg_lo >= 0).any())
                seen["capped"] += any(bool((want.caps[t] < _BIG).any())
                                      for t in cap_ticks)
                seen["bids"] += int((last.kinds == 2).sum()) > 0
            seen["regimes"].add(env.regime)
        assert len(seen["regimes"]) == 2
        assert min(seen["segments"], seen["capped"], seen["bids"]) > 0, seen


class TestScreenEquivalence:
    """The screens against their per-member loop versions on random ladders."""

    def test_matches_loop_screens(self):
        rng = np.random.default_rng(41)
        # An increment off the money grid makes amount caps other than
        # round numbers, where amount levels are sensitive to rounding.
        cases = [("cmra-truthful", pow_env(), small_config(0.75, 1.6, 0.0197)),
                 ("constant", pow_env(), small_config(0.75, 1.6, 0.0197)),
                 ("cmra-truthful", quad_env(), small_config(0.9, 1.5, 0.0197)),
                 ("constant", quad_env(), small_config(0.9, 1.5, 0.0197)),
                 # The clock stops before most pairs close: t0 is None.
                 ("cmra-truthful", pow_env(), small_config(0.75, 0.3, 0.0197)),
                 ("constant", quad_env(), small_config(0.9, 0.6, 0.0197))]
        seen = {"seats": set(), "regimes": set(), "no t0": 0, "t0": 0,
                "cap 0": 0, "drop at 0": 0, "single": 0, "drop": 0}
        for profile, env, cfg in cases:
            grid, scale = cfg.grid, cfg.money_scale
            t_n = int((cfg.max_price - cfg.start) / cfg.eps) + 1
            prices = cfg.start + cfg.eps * np.arange(t_n)
            lo, hi = env.distribution.support
            make = STRATEGY_TAGS[profile]
            for seat in (0, 1):
                for _ in range(4):
                    th_d, th_o = (float(v) for v in rng.uniform(lo, hi, 2))
                    md = env.models[seat].with_theta(th_d)
                    mo = env.models[1 - seat].with_theta(th_o)
                    fam = DeviationFamily(
                        n_amounts=int(rng.choice([1, 2, 11, 21, 50])))
                    t_hats = sorted({0, *rng.choice(t_n, 6).tolist()})
                    ladder = _Ladder([HeadlineOnly(make(md, grid)),
                                      make(mo, grid)], prices, grid, scale,
                                     cap_ticks=t_hats)
                    u_dev = np.array([md.value(grid.share(k))
                                      for k in range(grid.n + 1)])
                    screen = _PairScreen(ladder, 0, 1, prices, grid, scale,
                                         u_dev)
                    drop_ticks = sorted({0, *rng.choice(t_n, 6).tolist()})
                    # Baselines low enough that many members are listed;
                    # with no cutoff every member that closes is one.
                    low = float(rng.uniform(-0.3, 0.2))
                    cutoff = -np.inf if rng.random() < 0.5 else 5e-5
                    for name, fast, loop, ticks in (
                            ("single", _PairScreen.screen_single_bids,
                             _loop_single_bids, t_hats),
                            ("drop", _PairScreen.screen_drops, _loop_drops,
                             drop_ticks)):
                        got = fast(screen, fam, ticks, low, cutoff)
                        want = loop(screen, fam, ticks, low, cutoff)
                        assert got == want
                        assert all(type(b) is float for b, _ in got[1])
                        seen[name] += len(want[1])
                    seen["seats"].add(seat)
                    seen["regimes"].add(env.regime)
                    seen["no t0" if screen.t0 is None else "t0"] += 1
                    seen["cap 0"] += fam.n_amounts > 1 and (
                        screen.t0 is None or screen.t0 > 0)
                    seen["drop at 0"] += screen.kpath[0] > 0 and (
                        screen.t0 is None or screen.t0 > 0)
        assert seen["seats"] == {0, 1} and len(seen["regimes"]) == 2
        assert min(seen["no t0"], seen["t0"], seen["cap 0"],
                   seen["drop at 0"]) > 0, seen
        assert min(seen["single"], seen["drop"]) > 100, seen

    @pytest.mark.parametrize("t_n", [1, 2, 3, 31, 32, 33])
    def test_single_bid_closes_match_a_scan(self, t_n):
        # Synthetic thresholds at ladder lengths around powers of two:
        # each bid's first close against a tick-by-tick scan.
        rng = np.random.default_rng(t_n)
        n = 6
        a_lo = np.where(rng.random(t_n) < 0.3, rng.integers(0, 40, t_n), -1)
        a_hi = np.where(rng.random((t_n, n + 1)) < 0.3,
                        rng.integers(0, 60, (t_n, n + 1)), 2 ** 53)
        a_lo[-1] = 20              # amounts up to 20 close by the last tick
        a_hi[:, 0] = 2 ** 53       # on quantity 0 an amount of 50 never does
        screen = _PairScreen.__new__(_PairScreen)
        screen.prices = np.arange(t_n) * 0.01
        screen.grid = QuantityGrid(n, 0.5)
        # a_lo = where(closed, hh, -1); a_hi = where(has, need, BIG) with
        # need = s - po_rev above the headline-only bid hd.
        screen.closed, screen.hh = a_lo >= 0, a_lo
        screen.po_has_rev = a_hi < 2 ** 53
        screen.s = np.zeros(t_n, dtype=np.int64)
        screen.po_rev = -a_hi
        screen.hd = np.full((t_n, n + 1), -1)
        m = 400
        k = rng.integers(0, n + 1, m)
        t_hat = rng.integers(0, t_n, m)
        t_hat[:20] = t_n - 1                      # submitted at the last tick
        a = rng.integers(0, 70, m)
        # Amounts equal to a threshold at or after the submission tick.
        at = rng.integers(t_hat, t_n)
        a[20:120] = np.maximum(a_lo[at], 0)[20:120]
        a[120:220] = np.minimum(a_hi[at, k], 69)[120:220]
        k[220:260], a[220:260], t_hat[220:240] = 0, 50, 0
        got = screen._single_bid_closes(k, t_hat, a)
        want = np.full(m, t_n)
        for i in range(m):
            for t in range(t_hat[i], t_n):
                if a_lo[t] >= a[i] or a_hi[t, k[i]] <= a[i]:
                    want[i] = t
                    break
        assert got.tolist() == want.tolist()
        never = want == t_n
        assert never.any() and (~never).any()
        on_edge = (a_lo[np.minimum(want, t_n - 1)] == a) | (
            a_hi[np.minimum(want, t_n - 1), k] == a)
        assert (on_edge & ~never).any()


def _loop_single_bids(screen, family, t_hats, low, cutoff):
    """Reference single-bid screen: one (level x tick) scan per quantity
    and submission tick, one Python step per level."""
    n = screen.grid.n
    members, found = 0, []
    quants = (family.bid_quantities if family.bid_quantities is not None
              else range(1, screen.grid.cap_index + 1))
    for k_hat in quants:
        hk = screen.hd[:, k_hat]
        qcol = screen.po[:, n - k_hat]
        qhas = screen.po_has[:, n - k_hat]
        u_k = screen.u_dev[k_hat]
        for t_hat in t_hats:
            if screen.t0 is not None and screen.t0 < t_hat:
                members += family.n_amounts
                continue
            cap = min(money_units(screen.prices[t_hat] * k_hat / n,
                                  screen.scale),
                      int(screen.dev_caps[t_hat][k_hat]))
            if cap < 0:
                continue
            levels = np.unique(np.linspace(0, cap, family.n_amounts)
                               .round().astype(np.int64))
            members += levels.size
            if screen.md[t_hat, k_hat]:
                levels = levels[levels > screen.dev_vals[t_hat, k_hat]]
                if not levels.size:
                    continue
            a = levels[:, None]
            vhat = np.maximum(hk[None, :], a)
            pair2 = np.where(qhas[None, :], vhat + qcol[None, :], _NEG)
            lhs = np.maximum(screen.hh[None, :], pair2)
            rhs = np.maximum(screen.s[None, :], a)
            closed = (lhs > _NEG // 2) & (lhs >= rhs)
            closed[:, :t_hat] = False
            any_close = closed.any(axis=1)
            t_close = np.argmax(closed, axis=1)
            for i, amt_units in enumerate(levels):
                if not any_close[i]:
                    continue
                tc = int(t_close[i])
                if int(pair2[i, tc]) < int(screen.hh[tc]) \
                        and screen.t0 is not None and tc == screen.t0:
                    continue
                pay_lb = max(int(amt_units),
                             int(screen.dev_vals[tc - 1, k_hat])
                             if tc > 0 and screen.md[tc - 1, k_hat] else 0)
                win_opt = u_k - pay_lb / screen.scale
                opt = max(win_opt, float(screen.hh_opt[tc]))
                if opt - low > cutoff:
                    found.append((opt, Deviation(
                        "single-bid", quantity_k=k_hat,
                        amount=int(amt_units) / screen.scale,
                        submit_price=float(screen.prices[t_hat]))))
    return members, found


def _loop_drops(screen, family, drop_ticks, low, cutoff):
    """Reference drop screen: every policy's book advanced tick by tick."""
    n = screen.grid.n
    t_n = len(screen.prices)
    ys = np.asarray(family.drop_quantities
                    if family.drop_quantities is not None
                    else range(0, screen.grid.cap_index), dtype=np.int64)
    tq = np.asarray(drop_ticks, dtype=np.int64)
    d_y, d_t = np.meshgrid(ys, tq, indexing="ij")
    d_y, d_t = d_y.ravel(), d_t.ravel()
    n_pol = d_y.size

    steps = np.arange(t_n)
    mp = np.where(steps[None, :] >= d_t[:, None],
                  np.minimum(screen.kpath[None, :], d_y[:, None]),
                  screen.kpath[None, :])
    hu = np.floor(screen.prices[None, :] * mp / n * screen.scale + 0.5) \
        .astype(np.int64)
    max_d = np.maximum.accumulate(hu, axis=1)

    vals = np.full((n_pol, n + 1), 0, dtype=np.int64)
    mask = np.zeros((n_pol, n + 1), dtype=bool)
    rows = np.arange(n_pol)
    hh_d = np.empty((n_pol, t_n), dtype=np.int64)
    w_d = np.empty((n_pol, t_n))
    u_row = screen.u_dev[None, :]
    for t in range(t_n):
        kt = mp[:, t]
        better = ~mask[rows, kt] | (hu[:, t] > vals[rows, kt])
        vals[rows[better], kt[better]] = hu[better, t]
        mask[rows, kt] = True
        feas = mask & screen.po_has_rev[t][None, :]
        hh_d[:, t] = np.where(feas, vals + screen.po_rev[t][None, :],
                              _NEG).max(axis=1)
        w_d[:, t] = np.where(feas, u_row + screen.po_rev[t][None, :]
                             / screen.scale, -np.inf).max(axis=1)
    s_d = np.maximum(max_d, screen.max_o[None, :])
    closed = (hh_d > _NEG // 2) & (hh_d >= s_d)
    any_close = closed.any(axis=1)
    t_close = np.argmax(closed, axis=1)

    found = []
    for j in range(n_pol):
        if not any_close[j]:
            continue
        tc = int(t_close[j])
        if np.array_equal(mp[j, : tc + 1], screen.kpath[: tc + 1]):
            continue
        opt = float(w_d[j, tc]) - float(screen.r_floor[tc])
        if opt - low > cutoff:
            found.append((opt, Deviation(
                "drop", drop_price=float(screen.prices[d_t[j]]),
                drop_k=int(d_y[j]))))
    return n_pol, found



def _random_deviation(rng, cfg, prices, t_n):
    """A random family-shaped deviation and its divergence tick."""
    grid = cfg.grid
    kind = rng.choice(["headline-only", "drop", "single-bid"], p=[.2, .4, .4])
    if kind == "headline-only":
        return Deviation("headline-only"), None
    t = int(rng.integers(0, t_n))
    q = float(prices[t])
    if rng.random() < 0.2 and t > 0:
        q -= 0.5 * cfg.eps   # between ticks: acts from tick t on
    if kind == "drop":
        return Deviation("drop", drop_price=q,
                         drop_k=int(rng.integers(0, grid.cap_index))), t
    k = int(rng.integers(1, grid.cap_index + 1))
    return Deviation("single-bid", quantity_k=k,
                     amount=float(rng.uniform(0, q * k / grid.n)),
                     submit_price=q), t


def _baseline(profile, env, cfg, th_d, th_o, seat):
    make = STRATEGY_TAGS[profile]
    grid = cfg.grid
    md = env.models[seat].with_theta(th_d)
    mo = env.models[1 - seat].with_theta(th_o)
    pair = (make(md, grid), make(mo, grid)) if seat == 0 \
        else (make(mo, grid), make(md, grid))
    models = (md, mo) if seat == 0 else (mo, md)
    out = run_cmra(pair[0], pair[1], env, cfg)
    return out.surplus(models)[seat]
