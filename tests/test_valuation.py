"""Closed-form valuation quantities against independent numeric oracles."""

import random

import numpy as np
import pytest

from cmra import (AssumptionViolation, MarketEnv, TypeDistribution,
                  ValuationModel, efficient_allocation, vcg_outcome)
from cmra.valuation import _bisect
from reference_engine import reference_truthful_demand


def lots_model():
    # Four identical $30 lots as shares of a unit supply: U(x) = 120 x.
    return ValuationModel.polynomial((120.0, 0.0, 0.0), theta=1.0, cap=0.75)


def dec_models():
    m1 = ValuationModel.quadratic(1.25, 0.5, cap=0.9)
    m2 = ValuationModel.quadratic(1.05, 0.5, cap=0.9)
    return m1, m2


def grid_argmax_surplus(model, p, n=200_000):
    """Brute-force oracle for V(p) = max_x U(x) - p x on [0, cap]."""
    xs = np.linspace(0.0, model.cap, n)
    vals = np.array([model.value(x) for x in xs]) - p * xs
    i = int(np.argmax(vals))
    return xs[i], vals[i]


class TestValue:
    def test_lots_half_supply(self):
        assert lots_model().value(0.5) == 60.0

    def test_empty_package(self):
        for m in (lots_model(), *dec_models(), ValuationModel.power(2.0)):
            assert m.value(0.0) == 0.0

    def test_power_formula(self):
        m = ValuationModel.power(2.0, cap=0.75, theta=1.0)
        assert m.value(0.75) == pytest.approx(0.5625 / 0.5, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lots_model().value(1.2)
        with pytest.raises(ValueError):
            lots_model().value(-0.1)


class TestIndirectSurplus:
    def test_lots_at_per_lot_ten(self):
        # Per-share price 40 is $10 per lot: surplus 3 x $20.
        assert lots_model().indirect_surplus(40.0) == pytest.approx(60.0)

    def test_zero_price_gives_cap_value(self):
        for m in (lots_model(), dec_models()[0]):
            assert m.indirect_surplus(0.0) == pytest.approx(m.value(m.cap))

    def test_dec_against_grid_oracle(self):
        m1, _ = dec_models()
        _, oracle = grid_argmax_surplus(m1, 0.65)
        assert oracle == pytest.approx(0.18, abs=1e-8)
        assert m1.indirect_surplus(0.65) == pytest.approx(0.18, abs=1e-9)

    def test_envelope_property(self):
        m1, m2 = dec_models()
        for m in (m1, m2, ValuationModel.power(2.0, theta=0.7)):
            ps = np.linspace(0.0, 2.0, 80)
            vs = [m.indirect_surplus(p) for p in ps]
            for (pa, va), (pb, vb) in zip(zip(ps, vs), zip(ps[1:], vs[1:])):
                assert vb <= va + 1e-12
                assert va - vb <= (pb - pa) * m.cap + 1e-12


class TestTruthfulDemand:
    def test_dec_interior(self):
        m1, _ = dec_models()
        assert m1.truthful_demand(0.5) == pytest.approx(0.75, abs=1e-9)

    def test_power_below_exit_price(self):
        m = ValuationModel.power(2.0, cap=0.75, theta=1.0)
        assert m.truthful_demand(0.5) == 0.75

    def test_lots_drops_at_value(self):
        # The clock stops at $30 per lot: demand falls to zero exactly there.
        assert lots_model().truthful_demand(120.0) == 0.0
        assert lots_model().truthful_demand(119.999) == 0.75

    def test_monotone_in_price(self):
        m1, _ = dec_models()
        ps = np.linspace(0.0, 1.3, 120)
        ds = [m1.truthful_demand(p) for p in ps]
        assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:]))

    def test_nondecreasing_regime_is_step(self):
        m = ValuationModel.power(2.0, cap=0.75, theta=0.6)
        exit_price = m.value(0.75) / 0.75
        ds = {m.truthful_demand(p) for p in np.linspace(0, 2 * exit_price, 60)}
        assert ds <= {0.0, 0.75}

    def test_demand_against_grid_oracle(self):
        m1, _ = dec_models()
        for p in (0.3, 0.5, 0.8):
            x_star, _ = grid_argmax_surplus(m1, p)
            assert m1.truthful_demand(p) == pytest.approx(x_star, abs=1e-5)


def _random_decreasing_models(rng, count):
    """Seeded decreasing-regime models of every family."""
    for _ in range(count):
        cap = rng.uniform(0.55, 0.95)
        yield ValuationModel.quadratic(rng.uniform(1.0, 2.0),
                                       rng.uniform(0.05, 0.5), cap=cap)
        yield ValuationModel.power(rng.uniform(0.1, 0.95), cap=cap,
                                   theta=rng.uniform(0.05, 2.0))
        yield ValuationModel.polynomial(
            (rng.uniform(1.0, 2.0), rng.uniform(-0.5, -0.05),
             rng.uniform(-0.1, 0.0)), theta=rng.uniform(0.2, 2.0), cap=cap)


class TestDemandKernel:
    """The per-family bisection against the ``_bisect`` solve it
    replaced: identical floats, not merely close ones."""

    def test_matches_reference_bisection(self):
        rng = random.Random(20261019)
        families = set()
        for m in _random_decreasing_models(rng, 40):
            families.add(m.family)
            lo = 1e-300 if m.family == "power" else 0.0
            u_lo, u_cap = m.marginal(lo), m.marginal(m.cap)
            mid = 0.5 * (lo + m.cap)
            # Early exits at u(cap) and at u(0) (u(1e-300) for the power
            # family, whose u(0) is infinite), a first midpoint that is
            # the root exactly, and random interior and outside prices.
            prices = [0.0, u_cap, u_lo, m.marginal(mid)]
            prices += [rng.uniform(u_cap, min(u_lo, 4.0)) for _ in range(60)]
            prices += [rng.uniform(0.0, u_cap) for _ in range(5)]
            if m.family != "power":
                prices.append(rng.uniform(u_lo, u_lo + 1.0))
            for p in prices:
                assert m.truthful_demand(p) == reference_truthful_demand(m, p)
            assert m.truthful_demand(m.marginal(mid)) == mid
            # The kernel's own early exits: a root at either end.
            for p in (u_lo, u_cap, m.marginal(mid)):
                assert m._root(p, lo, m.cap) == _bisect(
                    lambda x: m.marginal(x) - p, lo, m.cap)
            assert m._root(u_lo, lo, m.cap) == lo
            assert m._root(u_cap, lo, m.cap) == m.cap
        assert families == {"quadratic-decreasing", "power",
                            "custom-polynomial"}

    def test_unbracketed_root_raises(self):
        # alpha near 1 keeps u(1e-300) finite: a price above it leaves
        # no sign change on [1e-300, cap].
        m = ValuationModel.power(0.999, cap=0.75, theta=1.0)
        p = 1.5 * m.marginal(1e-300)
        with pytest.raises(AssumptionViolation, match="not bracketed"):
            reference_truthful_demand(m, p)
        with pytest.raises(AssumptionViolation, match="not bracketed"):
            m.truthful_demand(p)
        q = ValuationModel.quadratic(1.25, 0.5, cap=0.9)
        with pytest.raises(AssumptionViolation, match="not bracketed"):
            q._root(2.0, 0.0, 0.9)


class TestFinalPrice:
    def test_power_normalization(self):
        m = ValuationModel.power(2.0, cap=0.75, theta=0.6)
        assert m.final_price() == pytest.approx(0.8, abs=1e-12)

    def test_lots(self):
        assert lots_model().final_price() == pytest.approx(80.0)

    def test_below_exit_price(self):
        for theta in (0.3, 0.6, 1.0):
            m = ValuationModel.power(2.0, cap=0.75, theta=theta)
            assert m.final_price() < m.value(0.75) / 0.75

    def test_monotone_in_type(self):
        pfs = [ValuationModel.power(2.0, cap=0.75, theta=t).final_price()
               for t in np.linspace(0.1, 1.0, 11)]
        assert all(b > a for a, b in zip(pfs, pfs[1:]))

    def test_half_supply_spread_vanishes_as_cap_tightens(self):
        # For a fixed utility the gap between winning the cap and winning
        # half the supply closes as the cap approaches one half.
        spreads = []
        for cap in (0.75, 0.6, 0.55, 0.51):
            m = ValuationModel.polynomial((1.0, 0.0, 0.0), theta=1.0, cap=cap)
            spreads.append(m.value(cap) - m.value(0.5))
        assert all(b < a for a, b in zip(spreads, spreads[1:]))
        assert spreads[-1] < 0.011


class TestTypeGrid:
    def test_evenly_spaced_over_the_support(self):
        dist = TypeDistribution("uniform", (1.05, 1.25))
        assert dist.grid(1) == [0.5 * (1.05 + 1.25)]
        assert dist.grid(3) == pytest.approx([1.05, 1.15, 1.25], abs=1e-15)
        assert dist.grid(3)[0] == 1.05
        for bad in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                dist.grid(bad)


class TestEfficientAllocation:
    def test_dec_fixture(self):
        env = MarketEnv(dec_models(), 0.9)
        x1, x2 = efficient_allocation(env)
        assert x1 == pytest.approx(0.6, abs=1e-9)
        assert x2 == pytest.approx(0.4, abs=1e-9)

    def test_dec_against_welfare_oracle(self):
        env = MarketEnv(dec_models(), 0.9)
        m1, m2 = env.models
        xs = np.linspace(0.1, 0.9, 160_001)
        welfare = np.array([m1.value(x) + m2.value(1 - x) for x in xs])
        x_oracle = xs[int(np.argmax(welfare))]
        assert efficient_allocation(env)[0] == pytest.approx(x_oracle, abs=1e-4)

    def test_power_boundary(self):
        env = MarketEnv((ValuationModel.power(2.0, theta=0.8),
                         ValuationModel.power(2.0, theta=0.5)), 0.75)
        assert efficient_allocation(env) == (0.75, 0.25)

    def test_symmetric_decreasing(self):
        m = ValuationModel.quadratic(1.2, 0.5, cap=0.9)
        assert efficient_allocation(MarketEnv((m, m), 0.9)) == \
            pytest.approx((0.5, 0.5), abs=1e-9)

    def test_total_supply_allocated(self):
        for env in (MarketEnv(dec_models(), 0.9),
                    MarketEnv((ValuationModel.power(2.0, theta=0.9),
                               ValuationModel.power(2.0, theta=0.2)), 0.75)):
            assert sum(efficient_allocation(env)) == pytest.approx(1.0)

    def test_interior_assumption_violation(self):
        strong = ValuationModel.quadratic(5.0, 0.5, cap=0.9)
        weak = ValuationModel.quadratic(0.95, 0.5, cap=0.9)
        with pytest.raises(AssumptionViolation):
            efficient_allocation(MarketEnv((strong, weak), 0.9))


class TestVcg:
    def test_power_pair(self):
        env = MarketEnv((ValuationModel.power(2.0, theta=0.8),
                         ValuationModel.power(2.0, theta=0.5)), 0.75)
        out = vcg_outcome(env)
        assert out.quantities == (0.75, 0.25)
        assert out.payments[0] == pytest.approx(0.5, abs=1e-12)
        assert out.payments[1] == 0.0

    def test_equal_types(self):
        m = ValuationModel.power(2.0, theta=0.6)
        out = vcg_outcome(MarketEnv((m, m), 0.75))
        assert out.quantities == (0.75, 0.25)  # ties go to bidder 1
        assert out.payments[0] == pytest.approx(0.6, abs=1e-12)

    def test_lots_against_lot_level_brute_force(self):
        m = lots_model()
        env = MarketEnv((m, m), 0.75)
        # Brute-force VCG over all integer lot splits (cap three lots).
        def welfare(k1, k2):
            return m.value(k1 / 4) + m.value(k2 / 4)
        best = max((welfare(k1, k2), k1, k2)
                   for k1 in range(4) for k2 in range(4) if k1 + k2 <= 4)
        _, k1, k2 = best
        alone = max(m.value(k / 4) for k in range(4))
        pay1 = alone - m.value(k2 / 4)
        out = vcg_outcome(env)
        assert out.payments[0] == pytest.approx(pay1)
        assert pay1 == pytest.approx(60.0)


class TestModelValidation:
    def test_marginal_finite_differences(self):
        h = 1e-5
        models = (lots_model(), *dec_models(),
                  ValuationModel.power(2.0, theta=0.7),
                  ValuationModel.polynomial((1.25, -1.5, 1.0), cap=0.9,
                                            validate_regime=False))
        for m in models:
            for x in np.linspace(0.05, m.cap - 0.05, 15):
                fd = (m.value(x + h) - m.value(x - h)) / (2 * h)
                assert m.marginal(x) == pytest.approx(fd, abs=1e-6)

    def test_regime_mismatch_rejected(self):
        with pytest.raises(AssumptionViolation):
            ValuationModel.polynomial((1.25, -1.5, 1.0), cap=0.9,
                                      regime="non-decreasing")

    def test_nonpositive_marginals_rejected(self):
        with pytest.raises(AssumptionViolation):
            ValuationModel.quadratic(0.5, 0.5, cap=0.9)

    def test_theta_monotonicity(self):
        for x in (0.2, 0.5, 0.75):
            vals = [ValuationModel.power(2.0, theta=t).value(x)
                    for t in (0.2, 0.5, 0.9)]
            assert vals[0] < vals[1] < vals[2]

    def test_env_requires_interior_cap(self):
        m = ValuationModel.quadratic(1.25, 0.5, cap=0.5)
        with pytest.raises(AssumptionViolation):
            MarketEnv((m, m), 0.5)
        with pytest.raises(ValueError):
            ValuationModel.power(2.0, cap=0.5)

    @pytest.mark.parametrize("make, name", [
        (lambda: ValuationModel.power(True, 0.75, 0.5), "alpha"),
        (lambda: ValuationModel.power(2.0, 0.75, "0.5"), "theta"),
        (lambda: ValuationModel.quadratic(1.25, 0.5, cap=True), "cap"),
        (lambda: ValuationModel.quadratic(1.25, float("nan")), "curvature"),
        (lambda: ValuationModel.polynomial((1.0, False, 0.0)), "c2")])
    def test_numbers_must_be_real(self, make, name):
        # True is not read as 1 nor "0.5" as 0.5.
        with pytest.raises(ValueError, match=f"{name} must be a finite real"):
            make()


class TestTypeDistribution:
    @pytest.mark.parametrize("args, message", [
        (("normal",), "kind must be 'uniform'"),
        (("grid", (0.0, 1.0)), "kind must be 'uniform'"),
        (("uniform", (1.0, 0.5)), "lo > hi"),
        (("uniform", (0.0, 0.5, 1.0)), "support must be"),
        (("uniform", 1.0), "support must be"),
        (("uniform", (True, 1.0)), "support_lo"),
        (("uniform", (0.0, "1")), "support_hi")])
    def test_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            TypeDistribution(*args)

    def test_point_mass_and_list_support(self):
        # A scenario's default types [1.0, 1.0] give the support (1.0, 1.0).
        point = TypeDistribution("uniform", [1.0, 1.0])
        assert point.support == (1.0, 1.0)
        assert point.mean() == 1.0 and point.grid(3) == [1.0, 1.0, 1.0]
