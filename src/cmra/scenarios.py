"""Scenario ingestion, batch execution and artifact export.

A scenario is a JSON document naming an environment (valuation family,
types, cap), a strategy per bidder, the auction configuration, and a
run mode:

* ``single``: one auction run; writes a round log CSV and an outcome JSON.
* ``sweep``: the same profile across a type grid; writes a summary CSV.
* ``verify``: a named verification claim; writes its report JSON.
* ``audit``: a linear-price audit of a published-outcome record.

Artifacts are deterministic byte for byte for a fixed scenario.
Bundled example scenarios and the published Danish auction records ship
with the package under ``cmra/data``.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .audit import AuctionAuditRecord, audit_linear_prices
from .bidbook import BidBook, BookRows, QuantityGrid, _require_count
from .mechanism import (AuctionConfig, _emissions, revenue_curve, run_clock,
                        run_cmra)
from .roundlog import RoundLog
from .strategies import STRATEGY_TAGS
from .valuation import MarketEnv, TypeDistribution, ValuationModel
from .verify import run_claim

__all__ = [
    "ScenarioError",
    "Scenario",
    "run_scenario",
    "export_figure_data",
    "bundled_scenario_path",
    "bundled_audit_record",
    "write_round_log",
    "write_verify_report",
]


class ScenarioError(ValueError):
    """The scenario file is malformed or inconsistent."""


@dataclass
class Scenario:
    """Validated scenario: environment, strategies, config and mode."""

    name: str
    mode: str
    env: MarketEnv
    strategies: tuple
    config: AuctionConfig
    auction: str = "cmra"
    options: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        try:
            return cls._parse(data)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(f"invalid scenario: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "Scenario":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def load(cls, source) -> "Scenario":
        """A Scenario as given, or read from a dict or a JSON file path."""
        if isinstance(source, Scenario):
            return source
        if isinstance(source, dict):
            return cls.from_dict(source)
        return cls.from_json(source)

    @classmethod
    def _parse(cls, data: dict) -> "Scenario":
        name = data.get("name", "scenario")
        mode = data.get("mode", "single")
        if mode not in ("single", "sweep", "verify", "audit"):
            raise ScenarioError(f"unknown mode {mode!r}")
        # Single mode has no options object of its own.
        read = {"name", "mode"} | ({mode} - {"single"})
        if mode in ("single", "sweep"):
            read |= {"auction", "environment", "strategies", "config"}
        if unknown := sorted(set(data) - read):
            raise ScenarioError(f"unknown {mode} scenario keys {unknown}")
        options = dict(data.get(mode, {}))
        if mode == "sweep":
            _require_count("sweep theta_grid", options.get("theta_grid", 5))
        if mode in ("verify", "audit"):
            if mode == "verify" and "claim" not in options:
                raise ScenarioError("verify mode needs a claim name")
            if mode == "audit" and "record" not in options:
                raise ScenarioError("audit mode needs a record name or path")
            return cls(name, mode, None, None, None, options=options, raw=data)

        env = _parse_env(data["environment"])
        tags = data.get("strategies", [])
        if len(tags) != 2:
            raise ScenarioError("exactly two bidder strategies are required")
        for tag in tags:
            if tag not in STRATEGY_TAGS:
                raise ScenarioError(f"unknown strategy tag {tag!r}")
        config = _parse_config(data.get("config", {}), env.cap)
        strategies = tuple(STRATEGY_TAGS[t](m, config.grid)
                           for t, m in zip(tags, env.models))
        auction = data.get("auction", "cmra")
        if auction not in ("cmra", "clock"):
            raise ScenarioError(f"unknown auction kind {auction!r}")
        return cls(name, mode, env, strategies, config, auction,
                   options, data)

    def to_dict(self) -> dict:
        return dict(self.raw)


def _polynomial(coeffs, theta, cap, theta_support, regime=None):
    return ValuationModel.polynomial(coeffs, theta, cap, regime, theta_support)


# Each family's constructor: it takes the ``environment`` keys other than
# ``family``, ``thetas``, ``theta_support`` and ``distribution``.
_FAMILIES = {"power": ValuationModel.power,
             "quadratic": ValuationModel.quadratic,
             "polynomial": _polynomial}


def _parse_env(spec: dict) -> MarketEnv:
    spec = dict(spec)
    cap, family = spec.pop("cap"), spec.pop("family")
    if family not in _FAMILIES:
        raise ScenarioError(f"unknown valuation family {family!r}")
    thetas = spec.pop("thetas", [1.0, 1.0])
    support = tuple(spec.pop("theta_support", (min(thetas), max(thetas))))
    dist = {"support": support, **spec.pop("distribution", {})}
    models = tuple(_FAMILIES[family](theta=theta, cap=cap,
                                     theta_support=support, **spec)
                   for theta in thetas)
    return MarketEnv(models, cap, TypeDistribution(**dist))


def _parse_config(spec: dict, cap: float) -> AuctionConfig:
    """``grid_n`` makes the grid; the other keys are ``AuctionConfig``'s."""
    spec = {"grid_n": 20, "eps": 1e-3, "max_price": 10.0, **spec}
    try:
        return AuctionConfig(QuantityGrid(spec.pop("grid_n"), cap), **spec)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"config {exc}") from exc


# -- artifact writers ---------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


_ROUND_LOG_HEADER = ("round,clock_price,bidder,kind,quantity,amount,"
                     "closed_flag,r_star\r\n")
_ROUND_LOG_CHUNK = 256  # lines per write, at least


def write_round_log(path, rounds, grid: QuantityGrid) -> None:
    """Round log CSV: one row per submission plus the round's closing state.

    ``rounds`` is an ``AuctionOutcome.rounds`` log or an iterable of its
    tick records (see :mod:`cmra.roundlog`); each tick gives a line per
    row of :class:`~cmra.roundlog.RoundLog`.  A line is ``round,
    clock_price,bidder,kind,quantity,amount,closed_flag,r_star`` ended
    by ``\\r\\n``, the bytes ``csv.writer`` gives for it: floats are
    written as ``repr``, ``None`` as an empty field, the quantity as the
    grid share ``k/n`` and the closed flag as 0 or 1.  ``kind`` is
    ``headline`` or ``additional``, so no field needs quoting.  A
    malformed tick record or an off-grid ``k`` raises ``ValueError``.

    A tick's price, flag and R* text is formatted once, and an
    emission's additional bids in one pass over its arrays.  Lines are
    written as soon as a chunk of them is ready, so the text never holds
    more than a chunk and one tick.
    """
    ticks = rounds.ticks if isinstance(rounds, RoundLog) else rounds
    # Keyed by grid index: any other key, negative or not an integer,
    # is off the grid.
    shares = {k: repr(grid.share(k)) for k in range(grid.n + 1)}
    with open(path, "w", newline="") as fh:
        fh.write(_ROUND_LOG_HEADER)
        chunk = []
        for tick in ticks:
            try:
                rnd, price, ((k1, ks1, a1), (k2, ks2, a2)), closed, r_star \
                    = tick
                lead = f"{rnd},{_fmt(price)},"
                tail = f",{int(bool(closed))},{_fmt(r_star)}\r\n"
                chunk.append(f"{lead}1,headline,{shares[k1]},{tail}")
                if len(ks1):
                    chunk += _bid_lines(f"{lead}1,additional,", ks1, a1,
                                        tail, shares)
                chunk.append(f"{lead}2,headline,{shares[k2]},{tail}")
                if len(ks2):
                    chunk += _bid_lines(f"{lead}2,additional,", ks2, a2,
                                        tail, shares)
            except KeyError as exc:
                raise ValueError(f"round-log quantity index {exc.args[0]!r} "
                                 f"is off the 1/{grid.n} grid") from None
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"malformed round-log tick record {tick!r}") from exc
            if len(chunk) >= _ROUND_LOG_CHUNK:
                fh.write("".join(chunk))
                chunk.clear()
        fh.write("".join(chunk))


def _bid_lines(head, ks, amounts, tail, shares) -> list:
    """The lines of one emission's additional bids."""
    return [f"{head}{shares[k]},{a!r}{tail}"
            for k, a in zip(ks.tolist(), amounts.tolist(), strict=True)]


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def write_verify_report(path, result) -> None:
    """Report JSON of one verification claim (a ``ClaimResult``)."""
    _write_json(path, {"claim": result.claim, "passed": result.passed,
                       "lines": result.lines,
                       "elapsed_s": round(result.elapsed, 3)})


def run_scenario(source, outdir=None) -> dict:
    """Execute a scenario file (path, dict or Scenario); write artifacts.

    Returns {"ok": bool, "scenario": name, "outputs": {label: path},
    "result": mode-specific object}.  Raises ScenarioError on invalid
    input; engine errors propagate.
    """
    scenario = Scenario.load(source)
    outdir = Path(outdir or os.environ.get("CMRA_OUTPUT_DIR", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = {}

    if scenario.mode == "single":
        runner = run_cmra if scenario.auction == "cmra" else run_clock
        out = runner(scenario.strategies[0], scenario.strategies[1],
                     scenario.env, scenario.config)
        log_path = outdir / f"{scenario.name}_rounds.csv"
        write_round_log(log_path, out.rounds, scenario.config.grid)
        outputs["rounds"] = str(log_path)
        out_path = outdir / f"{scenario.name}_outcome.json"
        _write_json(out_path, out.to_json_dict())
        outputs["outcome"] = str(out_path)
        return {"ok": True, "scenario": scenario.name, "outputs": outputs,
                "result": out}

    if scenario.mode == "sweep":
        rows = _run_sweep(scenario)
        path = outdir / f"{scenario.name}_summary.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["theta1", "theta2", "final_price", "x1", "x2",
                        "pay1", "pay2", "revenue", "termination"])
            for row in rows:
                w.writerow([_fmt(v) for v in row])
        outputs["summary"] = str(path)
        return {"ok": True, "scenario": scenario.name, "outputs": outputs,
                "result": rows}

    if scenario.mode == "verify":
        options = {k: v for k, v in scenario.options.items() if k != "claim"}
        result = run_claim(scenario.options["claim"], **options)
        path = outdir / f"{scenario.name}_report.json"
        write_verify_report(path, result)
        outputs["report"] = str(path)
        return {"ok": result.passed, "scenario": scenario.name,
                "outputs": outputs, "result": result}

    record = scenario.options["record"]
    if isinstance(record, str) and not os.path.exists(record):
        rec = bundled_audit_record(record)
    else:
        rec = AuctionAuditRecord.from_json(record)
    result = audit_linear_prices(rec)
    path = outdir / f"{scenario.name}_audit.json"
    _write_json(path, result.to_json_dict())
    outputs["audit"] = str(path)
    return {"ok": True, "scenario": scenario.name, "outputs": outputs,
            "result": result}


def _run_sweep(scenario: Scenario):
    spec = scenario.options
    thetas = scenario.env.distribution.grid(spec.get("theta_grid", 5))
    runner = run_cmra if scenario.auction == "cmra" else run_clock
    tags = [type(s).tag for s in scenario.strategies]
    rows = []
    cfg = scenario.config
    quiet = replace(cfg, log_rounds=False)
    for t1 in thetas:
        for t2 in thetas:
            models = (scenario.env.models[0].with_theta(t1),
                      scenario.env.models[1].with_theta(t2))
            env = MarketEnv(models, scenario.env.cap,
                            scenario.env.distribution)
            strat = tuple(STRATEGY_TAGS[tag](m, cfg.grid)
                          for tag, m in zip(tags, models))
            out = runner(strat[0], strat[1], env, quiet)
            q = out.quantities or (None, None)
            rows.append((t1, t2, out.final_price, q[0], q[1],
                         out.payments[0], out.payments[1], out.revenue,
                         out.termination))
    return rows


def export_figure_data(source, prices, outdir=None) -> dict:
    """Bid functions and revenue curves at chosen clock prices, as CSV.

    The scenario must be a single CMRA run; every requested price must
    lie between the start price and the final closing price.  Books are
    replayed up to each price exactly as the engine would build them.
    """
    scenario = Scenario.load(source)
    if scenario.mode != "single" or scenario.auction != "cmra":
        raise ScenarioError("figure export needs a single-run CMRA scenario")
    outdir = Path(outdir or os.environ.get("CMRA_OUTPUT_DIR", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = scenario.config
    final = run_cmra(scenario.strategies[0], scenario.strategies[1],
                     scenario.env, cfg)
    for p in prices:
        if not cfg.start <= p <= final.final_price + 1e-12:
            raise ScenarioError(
                f"price {p} outside [{cfg.start}, {final.final_price}]")

    bid_path = outdir / f"{scenario.name}_bid_functions.csv"
    rev_path = outdir / f"{scenario.name}_revenue_curves.csv"
    with open(bid_path, "w", newline="") as fb, \
            open(rev_path, "w", newline="") as fr:
        wb = csv.writer(fb)
        wr = csv.writer(fr)
        wb.writerow(["clock_price", "bidder", "quantity", "bid"])
        wr.writerow(["clock_price", "x1", "both_bidders_revenue",
                     "single_acceptance_revenue"])
        for p in prices:
            books = _books_at_price(scenario, p)
            scale = cfg.money_scale
            for i, book in enumerate(books, start=1):
                for k in range(cfg.grid.n + 1):
                    v = book.bid_at_index(k)
                    if v is not None:
                        wb.writerow([_fmt(float(p)), i,
                                     _fmt(cfg.grid.share(k)), _fmt(v / scale)])
            for x1, pair, single in revenue_curve(books[0], books[1]):
                wr.writerow([_fmt(float(p)), _fmt(x1),
                             _fmt(None if pair is None else pair / scale),
                             _fmt(None if single is None else single / scale)])
    return {"ok": True, "scenario": scenario.name,
            "outputs": {"bid_functions": str(bid_path),
                        "revenue_curves": str(rev_path)},
            "result": final}


def _books_at_price(scenario: Scenario, price: float):
    """Both books at a clock price, as the engine records them: every
    clock round below the price, then the price; rows of one state."""
    cfg = scenario.config
    state = BookRows(cfg.grid, cfg.money_scale, 2)
    prices, t = [], 0
    while (p := cfg.price(t)) < price - 1e-15:
        prices.append(p)
        t += 1
    prices.append(price)
    emissions, error = _emissions(scenario.strategies, prices)
    if error is not None:
        raise error
    state.record(prices, emissions)
    return tuple(BidBook.__new__(BidBook)._bind(state.take([r]))
                 for r in (0, 1))


# -- bundled data --------------------------------------------------------

def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a bundled scenario (without the .json suffix)."""
    ref = resources.files("cmra.data") / f"{name}.json"
    if not ref.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return Path(str(ref))


def bundled_audit_record(name: str) -> AuctionAuditRecord:
    ref = resources.files("cmra.data") / f"{name}.json"
    if not ref.is_file():
        raise ScenarioError(f"no bundled audit record named {name!r}")
    with ref.open() as fh:
        return AuctionAuditRecord.from_dict(json.load(fh))
