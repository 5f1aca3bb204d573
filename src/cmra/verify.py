"""Named verification claims: each bundles fixtures, oracles and verdicts.

Every claim runs the engine on a pinned fixture, checks the outcome
against independent closed-form or search oracles, and returns a
ClaimResult with one human-readable line per sub-check.  The command
line exposes them under ``verify``; the acceptance test suite asserts
them at their stated tolerances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bidbook import QuantityGrid, _require_count
from .equilibrium import (DeviationFamily, check_expost, check_rdr_bne,
                          rdr_threshold, vcg_equivalence_check)
from .mechanism import AuctionConfig, run_clock, run_cmra
from .strategies import (STRATEGY_TAGS, clock_truthful, cmra_truthful,
                         constant_strategy, rdr_strategy)
from .valuation import (MarketEnv, TypeDistribution, ValuationModel,
                        efficient_allocation)

__all__ = ["ClaimResult", "CLAIMS", "run_claim", "strategy_matrix",
           "format_matrix", "lots_fixture", "dec_fixture", "pow_fixture"]


@dataclass
class ClaimResult:
    claim: str
    passed: bool
    lines: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        mark = "PASS" if ok else "FAIL"
        self.lines.append(f"[{mark}] {label}" + (f": {detail}" if detail else ""))
        self.passed = self.passed and ok
        return ok


# -- fixtures ----------------------------------------------------------

def lots_fixture():
    """Four identical $30 lots, two additive bidders, cap of three lots.

    Shares of the 4-lot supply: U(x) = 120 x, cap 0.75; per-lot prices
    are per-share prices divided by four.
    """
    model = ValuationModel.polynomial((120.0, 0.0, 0.0), theta=1.0, cap=0.75)
    env = MarketEnv((model, model), 0.75)
    grid = QuantityGrid(4, 0.75)
    config = AuctionConfig(grid=grid, eps=0.4, max_price=130.0,
                           log_rounds=False)
    return env, grid, config


def dec_fixture(grid_n: int = 500, eps: float = 1e-3):
    """Strictly decreasing marginals: U1 = 1.25x - x^2/2, U2 = 1.05x - x^2/2."""
    m1 = ValuationModel.quadratic(1.25, 0.5, cap=0.9, theta_support=(1.05, 1.25))
    m2 = ValuationModel.quadratic(1.05, 0.5, cap=0.9, theta_support=(1.05, 1.25))
    env = MarketEnv((m1, m2), 0.9, TypeDistribution("uniform", (1.05, 1.25)))
    grid = QuantityGrid(grid_n, 0.9)
    config = AuctionConfig(grid=grid, eps=eps, max_price=1.4,
                           money_scale=10 ** 9, log_rounds=False)
    return env, grid, config


def pow_fixture(alpha: float = 2.0, thetas=(0.8, 0.5), grid_n: int = 20,
                eps: float = 1e-3, support=(0.1, 1.0)):
    """Power-family valuations with the unit-spread normalization."""
    m1 = ValuationModel.power(alpha, cap=0.75, theta=thetas[0],
                              theta_support=support)
    m2 = ValuationModel.power(alpha, cap=0.75, theta=thetas[1],
                              theta_support=support)
    env = MarketEnv((m1, m2), 0.75, TypeDistribution("uniform", support))
    grid = QuantityGrid(grid_n, 0.75)
    config = AuctionConfig(grid=grid, eps=eps, max_price=2.0,
                           money_scale=10 ** 9, log_rounds=False)
    return env, grid, config


# -- claims ------------------------------------------------------------

def claim_lots_example(**kw) -> ClaimResult:
    """Clock vs CMRA vs collusion on the four-lot market, exact money."""
    res = ClaimResult("lots-example", True)
    env, grid, config = lots_fixture()
    m = env.models[0]
    scale = config.money_scale

    clock = run_clock(clock_truthful(m, grid), clock_truthful(m, grid), env, config)
    res.check("clock auction revenue is exactly $90",
              clock.revenue_units == 90 * scale, f"got {clock.revenue}")
    res.check("clock auction leaves one lot unsold",
              abs(clock.excess_supply - 0.25) < 1e-12,
              f"excess {clock.excess_supply}")
    res.check("clock stops at $30 per lot",
              abs(clock.final_price / 4 - 30.0) < 1e-5,
              f"got {clock.final_price / 4}")

    truthful = run_cmra(cmra_truthful(m, grid), cmra_truthful(m, grid), env, config)
    res.check("CMRA-truthful revenue is exactly $60",
              truthful.revenue_units == 60 * scale, f"got {truthful.revenue}")
    res.check("CMRA-truthful closes at $20 per lot",
              abs(truthful.final_price / 4 - 20.0) < 1e-5,
              f"got {truthful.final_price / 4}")
    res.check("CMRA-truthful allocates all four lots as (2, 2)",
              truthful.indices == (2, 2), f"got {truthful.indices}")
    res.check("winning additional bids pay $30 each",
              truthful.payment_units == (30 * scale, 30 * scale),
              f"got {truthful.payments}")

    rdr = run_cmra(rdr_strategy(m, grid), rdr_strategy(m, grid), env, config)
    res.check("collusive profile closes in the first round at price 0",
              rdr.final_price == 0.0, f"got {rdr.final_price}")
    res.check("collusive profile splits (2, 2) at zero revenue",
              rdr.indices == (2, 2) and rdr.revenue_units == 0,
              f"got {rdr.indices}, {rdr.revenue}")

    mimic = run_cmra(clock_truthful(m, grid), clock_truthful(m, grid), env, config)
    res.check("clock-mimicking CMRA play raises $90 for three lots",
              mimic.revenue_units == 90 * scale
              and sorted(mimic.indices) == [0, 3],
              f"got {mimic.revenue}, {mimic.indices}")
    res.data = {"clock": clock.to_json_dict(), "cmra_truthful": truthful.to_json_dict(),
                "rdr": rdr.to_json_dict(), "clock_mimic": mimic.to_json_dict()}
    return res


def claim_truthful_decreasing(grid_n: int = 500, eps: float = 1e-3, **kw
                              ) -> ClaimResult:
    """Decreasing marginals: market clearing vs early efficient closing."""
    res = ClaimResult("truthful-decreasing", True)
    env, grid, config = dec_fixture(grid_n, eps)
    if grid.n != grid_n:
        res.lines.append(f"[NOTE] quantity grid n = {grid.n}, not --grid-n "
                         f"{grid_n}: the grid puts the cap 0.9 and 1/2 on "
                         f"grid points")
    m1, m2 = env.models
    x_star = efficient_allocation(env)
    p_star = m1.marginal(x_star[0])
    res.check("efficient split solves equal marginals",
              abs(x_star[0] - 0.6) < 1e-9, f"got {x_star}")

    clock = run_clock(clock_truthful(m1, grid), clock_truthful(m2, grid),
                      env, config)
    res.check(f"clock clears at {p_star} within 2 eps",
              abs(clock.final_price - p_star) <= 2 * eps,
              f"got {clock.final_price}")
    res.check("clock allocation efficient to one grid step",
              all(abs(q - x) <= 1.0 / grid.n + 1e-12
                  for q, x in zip(clock.quantities, x_star)),
              f"got {clock.quantities}")

    cmra = run_cmra(cmra_truthful(m1, grid), cmra_truthful(m2, grid), env, config)
    res.check("CMRA closes strictly below the clearing price",
              cmra.final_price < p_star, f"got {cmra.final_price}")
    res.check("CMRA revenue strictly below clearing revenue",
              cmra.revenue < p_star, f"got {cmra.revenue}")
    res.check("CMRA allocation efficient to one grid step",
              all(abs(q - x) <= 1.0 / grid.n + 1e-12
                  for q, x in zip(cmra.quantities, x_star)),
              f"got {cmra.quantities}")

    # Independent oracle: the closing price solves, in closed form,
    # bid1(x1*) + bid2(x2*) = max_i bid_i(cap), bids per the
    # indifference formula U(x) - V(p).
    def balance(p):
        pair = (m1.value(x_star[0]) - m1.indirect_surplus(p)
                + m2.value(x_star[1]) - m2.indirect_surplus(p))
        single = max(m1.value(0.9) - m1.indirect_surplus(p),
                     m2.value(0.9) - m2.indirect_surplus(p))
        return pair - single

    lo, hi = 1e-9, p_star
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if balance(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    res.check("engine closing price matches the balance root to 1e-6",
              abs(cmra.final_price - root) <= 1e-6,
              f"engine {cmra.final_price:.9f} vs root {root:.9f}")
    want_rev = m1.value(0.9) - m1.indirect_surplus(root)
    res.check("engine revenue matches the closed-form bid level at the root",
              abs(cmra.revenue - want_rev) <= 1e-5,
              f"engine {cmra.revenue:.7f} vs closed form {want_rev:.7f}")
    res.data = {"p_star": p_star, "root": root,
                "clock": clock.to_json_dict(), "cmra": cmra.to_json_dict()}
    return res


def claim_truthful_nondecreasing(eps: float = 1e-3, **kw) -> ClaimResult:
    """Increasing marginals: excess supply vs market clearing at p^f."""
    res = ClaimResult("truthful-nondecreasing", True)
    env, grid, config = pow_fixture(2.0, (0.8, 0.5), eps=eps)
    m1, m2 = env.models
    exit_weak = m2.value(0.75) / 0.75
    pf_weak = m2.final_price()

    clock = run_clock(clock_truthful(m1, grid), clock_truthful(m2, grid),
                      env, config)
    res.check("clock ends at the weak bidder's exit price within 2 eps",
              abs(clock.final_price - exit_weak) <= 2 * eps,
              f"got {clock.final_price} vs {exit_weak}")
    res.check("clock leaves 0.25 unsold",
              abs(clock.excess_supply - 0.25) < 1e-12,
              f"got {clock.excess_supply}")

    cmra = run_cmra(cmra_truthful(m1, grid), cmra_truthful(m2, grid), env, config)
    res.check("CMRA clears the market at the weak final price within 2 eps",
              abs(cmra.final_price - pf_weak) <= 2 * eps
              and abs(cmra.excess_supply) < 1e-12,
              f"got {cmra.final_price} vs {pf_weak}")
    res.check("CMRA allocation is the efficient boundary split",
              cmra.quantities == (0.75, 0.25), f"got {cmra.quantities}")
    res.check("CMRA revenue strictly below clock revenue",
              cmra.revenue < clock.revenue,
              f"{cmra.revenue} vs {clock.revenue}")
    res.check("strong bidder pays the weak spread within 2 eps",
              abs(cmra.payments[0] - 0.5) <= 2 * eps
              and cmra.payments[1] <= 2 * eps,
              f"got {cmra.payments}")
    res.data = {"clock": clock.to_json_dict(), "cmra": cmra.to_json_dict()}
    return res


def _expost_config(cap: float, max_price: float, grid_n: int, eps: float):
    grid = QuantityGrid(grid_n, cap)
    return AuctionConfig(grid=grid, eps=eps, max_price=max_price,
                         money_scale=10 ** 6, log_rounds=False)


def _pow_env(alpha=2.0, support=(0.1, 1.0)):
    m = ValuationModel.power(alpha, cap=0.75, theta=support[1],
                             theta_support=support)
    return MarketEnv((m, m), 0.75, TypeDistribution("uniform", support))


def _quad_env(support=(1.05, 1.25)):
    m = ValuationModel.quadratic(support[1], 0.5, cap=0.9, theta_support=support)
    return MarketEnv((m, m), 0.9, TypeDistribution("uniform", support))


def claim_expost_battery(theta_grid: int = 11, eps: float = 5e-3,
                         tol: float = 1e-4, refute_gain: float = 1e-3,
                         family: DeviationFamily | None = None, **kw
                         ) -> ClaimResult:
    """Equilibrium / no-equilibrium verdicts for all profile-regime cells."""
    res = ClaimResult("expost-battery", True)
    family = family or DeviationFamily()
    pow_env = _pow_env()
    quad_env = _quad_env()
    pow_cfg = _expost_config(0.75, 1.6, 20, eps)
    quad_cfg = _expost_config(0.9, 1.5, 20, eps)

    plan = [
        ("cmra-truthful", pow_env, pow_cfg, True),
        ("constant", pow_env, pow_cfg, True),
        ("constant", quad_env, quad_cfg, True),
        ("cmra-truthful", quad_env, quad_cfg, False),
        ("clock-truthful", quad_env, quad_cfg, False),
        ("clock-truthful", pow_env, pow_cfg, False),
    ]
    results = {}
    for profile, env, cfg, expect_eqm in plan:
        t0 = time.time()
        out = check_expost(profile, env, cfg, theta_grid=theta_grid,
                           family=family, tol=tol,
                           stop_at_gain=None if expect_eqm else refute_gain)
        dt = time.time() - t0
        key = f"{profile}/{env.regime}"
        results[key] = out
        if expect_eqm:
            res.check(f"{key}: no deviation gains more than {tol:g}",
                      out.verified and not out.truncated,
                      f"max gain {out.max_gain:.2e} ({dt:.1f}s)")
        else:
            res.check(f"{key}: deviation gaining more than {refute_gain:g} found",
                      out.max_gain > refute_gain,
                      f"max gain {out.max_gain:.2e} ({dt:.1f}s)")
    res.data = {k: str(v) for k, v in results.items()}
    res.data["results"] = results
    return res


def claim_vcg_equivalence(pairs: int = 25, seed: int = 7, eps: float = 1e-3,
                          **kw) -> ClaimResult:
    """Truthful and constant profiles both implement the VCG outcome."""
    _require_count("pairs", pairs)
    res = ClaimResult("vcg-equivalence", True)
    rng = np.random.default_rng(seed)
    grid = QuantityGrid(20, 0.75)
    config = AuctionConfig(grid=grid, eps=eps, max_price=3.0,
                           money_scale=10 ** 9, log_rounds=False)
    worst = 0.0
    all_ok = True
    for _ in range(pairs):
        t1, t2 = 0.1 + 0.9 * rng.random(2)
        m1 = ValuationModel.power(2.0, 0.75, float(t1), (0.1, 1.0))
        m2 = ValuationModel.power(2.0, 0.75, float(t2), (0.1, 1.0))
        env = MarketEnv((m1, m2), 0.75)
        report = vcg_equivalence_check(env, config, payment_tol=2 * eps)
        all_ok = all_ok and report["all_match"]
        for tag in ("cmra-truthful", "constant"):
            out = report["profiles"][tag]["outcome"]
            worst = max(worst, max(abs(p - w) for p, w in
                                   zip(out.payments, report["vcg"].payments)))
    res.check(f"{pairs} random type pairs match VCG allocations exactly "
              f"and payments within 2 eps", all_ok,
              f"worst payment gap {worst:.2e}")
    res.data = {"worst_payment_gap": worst}
    return res


def claim_rdr_threshold(samples: int = 100_000, seed: int = 11, **kw
                        ) -> ClaimResult:
    """Collusion threshold: holds with equality at alpha=1, fails at alpha=2."""
    res = ClaimResult("rdr-threshold", True)
    grid = QuantityGrid(20, 0.75)
    config = AuctionConfig(grid=grid, eps=5e-3, max_price=2.0,
                           money_scale=10 ** 6, log_rounds=False)

    env1 = _pow_env(alpha=1.0, support=(0.0, 1.0))
    thr1 = rdr_threshold(env1)
    res.check("linear family threshold equals 0.5",
              abs(thr1 - 0.5) < 1e-12, f"got {thr1}")
    rep1 = check_rdr_bne(env1, samples=samples, seed=seed, config=config)
    res.check("collusion constraint holds for uniform types, binding at the top",
              rep1.holds and abs(rep1.slack_at_top) <= 1e-6
              and abs(rep1.binding_theta - 1.0) <= 1e-9,
              f"slack at top {rep1.slack_at_top:.2e}, "
              f"binding type {rep1.binding_theta:g}")
    res.check("Monte Carlo agrees with quadrature within 3 standard errors",
              rep1.mc_agrees,
              f"mc {rep1.mc_deviation_payoff:.6f} vs quad "
              f"{rep1.quad_deviation_payoff:.6f} (se {rep1.mc_stderr:.2e})")
    res.check("engine subsample matches the per-draw outcome formula",
              rep1.engine_checked > 0 and rep1.engine_max_err <= 1e-6,
              f"{rep1.engine_checked} runs, max err {rep1.engine_max_err:.2e}")

    env2 = _pow_env(alpha=2.0, support=(0.0, 1.0))
    thr2 = rdr_threshold(env2)
    res.check("convex family threshold equals 0.625",
              abs(thr2 - 0.625) < 1e-12, f"got {thr2}")
    rep2 = check_rdr_bne(env2, samples=samples, seed=seed, config=config)
    res.check("collusion constraint fails for uniform types at alpha=2",
              not rep2.holds and thr2 > rep2.mean_type,
              f"threshold {thr2} vs mean {rep2.mean_type}, "
              f"slack at top {rep2.slack_at_top:.4f}")
    res.check("Monte Carlo agrees with quadrature within 3 standard errors",
              rep2.mc_agrees,
              f"mc {rep2.mc_deviation_payoff:.6f} vs quad "
              f"{rep2.quad_deviation_payoff:.6f}")
    res.data = {"alpha1": rep1, "alpha2": rep2}
    return res


def claim_danish_audits(**kw) -> ClaimResult:
    """Linear-price reconstructions of the three published outcomes."""
    from .audit import audit_linear_prices
    from .scenarios import bundled_audit_record

    res = ClaimResult("danish-audits", True)
    r16 = audit_linear_prices(bundled_audit_record("denmark-2016"))
    price = r16.prices.get("B1800")
    res.check("2016: unique uniform price, exactly DKK 125,079,743 per lot",
              r16.status == "feasible" and price == 125_079_743,
              f"status {r16.status}, price {price}")

    r19 = audit_linear_prices(bundled_audit_record("denmark-2019"))
    res.check("2019: no uniform prices reproduce the payments",
              r19.status == "infeasible",
              f"status {r19.status}, certificate {r19.certificate}")
    ident = [d for d in r19.difference_identities
             if set(d["bidders"]) == {"B", "A"}]
    ok = bool(ident) and ident[0]["coefficients"] == {
        "B700": 1, "D700": 4, "F2300": 6} \
        and ident[0]["difference"] == 1_135_000_000
    res.check("2019: residual identity 1135m = p_B + 4 p_D + 6 p_F",
              ok, f"identities {ident}")
    flag = [f for f in r19.flags if f["kind"] == "implied-price-conflict"]
    res.check("2019: A vs C implied-price conflict flagged",
              bool(flag) and {"A", "C"} <= set(flag[0]["implied_per_lot"]),
              f"flags {r19.flags}")

    r21 = audit_linear_prices(bundled_audit_record("denmark-2021"))
    res.check("2021: system underdetermined, no unique verdict",
              r21.status == "underdetermined",
              f"status {r21.status}, free {r21.free_categories}")
    res.data = {"2016": r16.to_json_dict(), "2019": r19.to_json_dict(),
                "2021": r21.to_json_dict()}
    return res


def strategy_matrix(theta_grid: int = 4, eps: float = 1e-2,
                    tol: float = 1e-4, refute_gain: float = 1e-3) -> dict:
    """Efficiency and equilibrium verdict per strategy and regime.

    Desk-scale summary: reduced type grids and deviation family sizes
    keep it interactive; the full-size battery lives in the acceptance
    checks.
    """
    family = DeviationFamily(n_amounts=16, n_submit_prices=8, n_drop_prices=8)
    # Threshold analysis needs the unit-spread normalization (the power
    # family); the deviation sweep on the decreasing side uses the
    # quadratic fixture family, which satisfies the interiority assumption.
    envs = {
        "decreasing": (_quad_env(), _expost_config(0.9, 1.5, 20, eps),
                       _pow_env(alpha=0.5, support=(0.6, 1.0))),
        "non-decreasing": (_pow_env(alpha=2.0, support=(0.1, 1.0)),
                           _expost_config(0.75, 1.6, 20, eps), None),
    }
    matrix = {}
    for regime, (env, cfg, rdr_env) in envs.items():
        lo, hi = env.distribution.support
        probe = (env.models[0].with_theta(hi),
                 env.models[1].with_theta(lo + 0.25 * (hi - lo)))
        probe_env = MarketEnv(probe, env.cap, env.distribution)
        x_star = efficient_allocation(probe_env)
        welfare_star = sum(m.value(x) for m, x in zip(probe, x_star))
        for tag in ("clock-truthful", "cmra-truthful", "constant", "rdr"):
            make = STRATEGY_TAGS[tag]
            out = run_cmra(make(probe[0], cfg.grid), make(probe[1], cfg.grid),
                           probe_env, cfg)
            welfare = sum(m.value(x) for m, x in zip(probe, out.quantities)) \
                if out.quantities else 0.0
            efficient = abs(welfare - welfare_star) <= 2e-3 * max(1.0, welfare_star)
            if tag == "rdr":
                thr_env = rdr_env or env
                thr = rdr_threshold(thr_env)
                mean = thr_env.distribution.mean()
                holds = mean >= thr - 1e-12
                verdict = ("collusive BNE (mean type {:.3f} >= threshold {:.3f})"
                           .format(mean, thr)) if holds else \
                    ("not a BNE (mean type {:.3f} < threshold {:.3f})"
                     .format(mean, thr))
            else:
                chk = check_expost(tag, env, cfg, theta_grid=theta_grid,
                                   family=family, tol=tol,
                                   stop_at_gain=refute_gain)
                verdict = "ex-post equilibrium (desk check)" if chk.verified \
                    else f"not an equilibrium (gain {chk.max_gain:.2e})"
            matrix[(regime, tag)] = {"efficient": efficient, "verdict": verdict}
    return matrix


def format_matrix(matrix: dict) -> str:
    tags = ("clock-truthful", "cmra-truthful", "constant", "rdr")
    width = 34
    lines = ["regime".ljust(16) + "".join(t.ljust(width) for t in tags)]
    for regime in ("decreasing", "non-decreasing"):
        eff = [("efficient" if matrix[(regime, t)]["efficient"]
                else "inefficient").ljust(width) for t in tags]
        ver = [matrix[(regime, t)]["verdict"][: width - 1].ljust(width)
               for t in tags]
        lines.append(regime.ljust(16) + "".join(eff))
        lines.append(" " * 16 + "".join(ver))
    return "\n".join(lines)


def claim_strategy_matrix(theta_grid: int = 4, eps: float = 1e-2, **kw
                          ) -> ClaimResult:
    res = ClaimResult("strategy-matrix", True)
    matrix = strategy_matrix(theta_grid=theta_grid, eps=eps)
    want = {
        ("decreasing", "clock-truthful"): (True, False),
        ("decreasing", "cmra-truthful"): (True, False),
        ("decreasing", "constant"): (False, True),
        ("non-decreasing", "clock-truthful"): (False, False),
        ("non-decreasing", "cmra-truthful"): (True, True),
        ("non-decreasing", "constant"): (True, True),
    }
    for key, (eff, eqm) in want.items():
        cell = matrix[key]
        got_eqm = cell["verdict"].startswith("ex-post")
        res.check(f"{key[0]}/{key[1]}: "
                  f"{'efficient' if eff else 'inefficient'}, "
                  f"{'equilibrium' if eqm else 'not an equilibrium'}",
                  cell["efficient"] == eff and got_eqm == eqm,
                  cell["verdict"])
    res.check("decreasing/rdr: collusive BNE verdict present",
              "BNE" in matrix[("decreasing", "rdr")]["verdict"],
              matrix[("decreasing", "rdr")]["verdict"])
    res.check("non-decreasing/rdr: collusion harder to sustain",
              matrix[("non-decreasing", "rdr")]["verdict"].startswith("not"),
              matrix[("non-decreasing", "rdr")]["verdict"])
    res.data = {"matrix": {f"{r}/{t}": v for (r, t), v in matrix.items()},
                "table": format_matrix(matrix)}
    res.lines.append(format_matrix(matrix))
    return res


CLAIMS = {
    "lots-example": claim_lots_example,
    "truthful-decreasing": claim_truthful_decreasing,
    "truthful-nondecreasing": claim_truthful_nondecreasing,
    "expost-battery": claim_expost_battery,
    "vcg-equivalence": claim_vcg_equivalence,
    "rdr-threshold": claim_rdr_threshold,
    "danish-audits": claim_danish_audits,
    "strategy-matrix": claim_strategy_matrix,
}


def run_claim(name: str, **options) -> ClaimResult:
    """Run one named claim; unknown options are ignored by the claim."""
    if name not in CLAIMS:
        known = ", ".join(sorted(CLAIMS))
        raise KeyError(f"unknown claim {name!r}; known claims: {known}")
    t0 = time.time()
    result = CLAIMS[name](**options)
    result.elapsed = time.time() - t0
    return result
