"""Golden-report identity: search reports, auction outcomes and artifacts.

``tests/data/golden.json`` holds, recorded once, every field of a few
small ``check_expost`` reports (all four profiles in both regimes, one
``stop_at_gain`` refutation), the payments, final price and termination
of 64 ``run_cmra`` auctions, and the SHA-256 of every artifact of a few
``run_scenario`` runs.  Floats are stored as ``float.hex``, so the test
asserts identical results, not close ones.  A change that alters any of
these on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden.py

and says which fields changed and why.
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from cmra import (AuctionConfig, MarketEnv, QuantityGrid, TypeDistribution,
                  ValuationModel, check_expost, run_cmra)
from cmra.equilibrium import DeviationFamily
from cmra.scenarios import run_scenario
from cmra.strategies import STRATEGY_TAGS

GOLDEN = Path(__file__).parent / "data" / "golden.json"

POW = ("power", 0.75, 1.6, (0.1, 1.0))
QUAD = ("quadratic", 0.9, 1.5, (1.05, 1.25))


def _model(family, theta):
    name, cap, _, support = family
    if name == "power":
        return ValuationModel.power(2.0, cap, theta, support)
    return ValuationModel.quadratic(theta, 0.5, cap, support)


def _env(family):
    _, cap, _, support = family
    m = _model(family, support[1])
    return MarketEnv((m, m), cap, TypeDistribution("uniform", support))


def _hex(x):
    return None if x is None else float(x).hex()


def _deviation(dev):
    if dev is None:
        return None
    return {k: _hex(v) if isinstance(v, float) else v
            for k, v in asdict(dev).items()}


def _report(res):
    reports = {}
    for (theta, seat), r in sorted(res.reports.items()):
        reports[f"{theta.hex()}/{seat}"] = {
            "baseline": {_hex(k): _hex(v) for k, v in r.baseline.items()},
            "best_gain": _hex(r.best_gain),
            "best_opponent": _hex(r.best_opponent),
            "best_deviation": _deviation(r.best_deviation),
            "best_surplus": _hex(r.best_surplus),
            "by_opponent": {_hex(k): _hex(v) for k, v in r.by_opponent.items()},
        }
    return {"profile": res.profile, "regime": res.regime, "tol": _hex(res.tol),
            "max_gain": _hex(res.max_gain), "verified": res.verified,
            "replays": res.replays, "members": res.members,
            "truncated": res.truncated, "reports": reports}


def searches():
    fam = DeviationFamily(n_amounts=8, n_submit_prices=5, n_drop_prices=5)
    out = {}
    for family in (POW, QUAD):
        _, cap, top, _ = family
        cfg = AuctionConfig(grid=QuantityGrid(20, cap), eps=2e-2,
                            max_price=top, log_rounds=False)
        for profile in STRATEGY_TAGS:
            res = check_expost(profile, _env(family), cfg, theta_grid=2,
                               family=fam, tol=1e-4)
            out[f"{profile}/{family[0]}"] = _report(res)
    cfg = AuctionConfig(grid=QuantityGrid(20, 0.9), eps=1e-2, max_price=1.5,
                        log_rounds=False)
    res = check_expost("clock-truthful", _env(QUAD), cfg, theta_grid=3,
                       family=fam, tol=1e-4, stop_at_gain=1e-3)
    out["clock-truthful/quadratic/stop"] = _report(res)
    return out


def auctions():
    rng = np.random.default_rng(2024)
    out = []
    for n in (20, 100):
        for refine in (True, False):
            for profile in STRATEGY_TAGS:
                for family in (POW, QUAD):
                    for _ in range(3 if n == 20 else 1):
                        _, cap, top, (lo, hi) = family
                        thetas = rng.uniform(lo, hi, 2).tolist()
                        cfg = AuctionConfig(
                            grid=QuantityGrid(n, cap),
                            eps=float(rng.choice([7e-3, 2e-2])),
                            max_price=top, refine=refine, log_rounds=False)
                        make = STRATEGY_TAGS[profile]
                        o = run_cmra(*(make(_model(family, th), cfg.grid)
                                       for th in thetas), None, cfg)
                        out.append({"case": f"{profile}/{family[0]}/n{n}/"
                                            f"refine={refine}",
                                    "thetas": [_hex(th) for th in thetas],
                                    "payment_units": list(o.payment_units),
                                    "final_price": _hex(o.final_price),
                                    "termination": o.termination})
    return out


def _scenario(name, profile, family, n, **extra):
    fam, cap, top, support = family
    env = {"family": fam, "cap": cap, "thetas": [support[1], support[0]],
           "theta_support": list(support)}
    env.update({"alpha": 2.0} if fam == "power" else {"curvature": 0.5})
    return {"name": name, "mode": "single", "auction": "cmra",
            "environment": env, "strategies": [profile, profile],
            "config": {"grid_n": n, "eps": 1e-2, "max_price": top}, **extra}


def artifacts():
    specs = [_scenario("truthful-pow", "cmra-truthful", POW, 20),
             _scenario("constant-quad", "constant", QUAD, 20),
             _scenario("rdr-pow", "rdr", POW, 20),
             _scenario("truthful-quad-n50", "cmra-truthful", QUAD, 50)]
    sweep = _scenario("sweep-quad", "constant", QUAD, 20)
    sweep.update(mode="sweep", sweep={"theta_grid": 3})
    specs.append(sweep)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in specs:
            res = run_scenario(spec, outdir=tmp)
            for label, path in sorted(res["outputs"].items()):
                digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
                out[f"{spec['name']}/{label}"] = digest
    return out


def record():
    return {"searches": searches(), "auctions": auctions(),
            "artifacts": artifacts()}


class TestGolden:
    def test_searches(self):
        want = json.loads(GOLDEN.read_text())["searches"]
        got = searches()
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == want[key], key

    def test_auctions(self):
        want = json.loads(GOLDEN.read_text())["auctions"]
        got = auctions()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w

    def test_artifacts(self):
        want = json.loads(GOLDEN.read_text())["artifacts"]
        assert artifacts() == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {GOLDEN}", file=sys.stderr)
