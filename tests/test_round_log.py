"""The round log: tick records, the rows read from them, and the CSV.

The engine logs one tick record per clock tick (``cmra.roundlog``).
``AuctionOutcome.rounds`` reads the records as rows, which must be the
rows of ``reference_log_round``, the per-row logger it replaced.
``write_round_log`` formats its lines directly from the tick records and
streams them in chunks; ``reference_write_round_log`` is the
``csv.writer`` writer it replaced, fed the reference rows.  Both must
give the same bytes on engine logs of every profile, a plain-clock log,
a max-price-hit log, an empty log, slices of them and synthetic tick
records with edge-case floats.  Logged emission arrays are the
strategies' own, read-only, and a log costs little memory.
"""

import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from reference_engine import reference_log_round, reference_write_round_log

from cmra import (AuctionConfig, MarketEnv, QuantityGrid, ValuationModel,
                  run_clock, run_cmra, scenarios, strategies)
from cmra.equilibrium import SingleBidDeviation
from cmra.roundlog import RoundLog
from cmra.scenarios import write_round_log
from cmra.strategies import STRATEGY_TAGS, clock_truthful, cmra_truthful


def _power_case(tag, eps=5e-4):
    m1 = ValuationModel.power(2.0, 0.75, 0.8, (0.1, 1.0))
    m2 = ValuationModel.power(2.0, 0.75, 0.5, (0.1, 1.0))
    grid = QuantityGrid(20, 0.75)
    config = AuctionConfig(grid=grid, eps=eps, max_price=2.0)
    make = STRATEGY_TAGS[tag]
    return (make(m1, grid), make(m2, grid), MarketEnv((m1, m2), 0.75),
            config)


def engine_logs():
    logs = {}
    for tag in sorted(STRATEGY_TAGS):
        s1, s2, env, config = _power_case(tag)
        logs[tag] = (run_cmra(s1, s2, env, config).rounds, config.grid)
    s1, s2, env, config = _power_case("clock-truthful")
    logs["run_clock"] = (run_clock(s1, s2, env, config).rounds, config.grid)
    m = ValuationModel.polynomial((120.0, 0.0, 0.0), theta=1.0, cap=0.75)
    grid = QuantityGrid(4, 0.75)
    config = AuctionConfig(grid=grid, eps=0.4, max_price=10.0)
    out = run_cmra(clock_truthful(m, grid), clock_truthful(m, grid),
                   MarketEnv((m, m), 0.75), config)
    assert out.termination == "max-price-hit"
    logs["max-price-hit"] = (out.rounds, grid)
    logs["empty"] = (RoundLog(), grid)
    return logs


@pytest.fixture(scope="module")
def logs():
    return engine_logs()


def reference_rows(ticks) -> list:
    """The rows ``reference_log_round`` logs for the same ticks."""
    rows = []
    for tick in ticks:
        reference_log_round(rows, *tick)
    return rows


def _ks(*ks):
    return np.array(ks, dtype=np.int64)


def _amounts(*amounts):
    return np.array(amounts, dtype=float)


NO_BIDS = (_ks(), _amounts())


def synthetic_ticks():
    """Edge cases the engine rarely or never logs, in both row kinds.

    Two ticks of one round carry equal prices as distinct objects (0.0
    and -0.0), so a writer that reuses a price's text by value, not by
    tick, writes a wrong line.
    """
    big = 2 ** 62 + 12345
    return [
        (0, 0.0, ((5, *NO_BIDS), (0, *NO_BIDS)), False, None),
        (0, -0.0, ((0, *NO_BIDS), (3, _ks(20), _amounts(-0.0))), False, None),
        (1, 1e-05, ((2, _ks(3), _amounts(1e-05)),
                    (4, _ks(4), _amounts(5e-324))), True, 0),
        (2, 1e+22, ((15, *NO_BIDS),
                    (6, _ks(1), _amounts(1.7976931348623157e+308))), 1, big),
        (3, 0.1 + 0.2, ((7, _ks(2, 2), _amounts(0.30000000000000004, 0.1)),
                        (7, *NO_BIDS)), True, 10 ** 30),
        (4, 2.5e-08, ((9, _ks(9), np.array([12])), (0, *NO_BIDS)), False,
         None),
        (10 ** 6, 123456.789, ((20, *NO_BIDS),
                               (0, _ks(0, 20), _amounts(1e16, 0.0))),
         np.True_, -1),
    ]


def _both(tmp_path, rounds, grid):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_round_log(new, rounds, grid)
    ticks = rounds.ticks if isinstance(rounds, RoundLog) else rounds
    reference_write_round_log(ref, reference_rows(ticks), grid)
    return new.read_bytes(), ref.read_bytes()


class TestRoundLogBytes:
    @pytest.mark.parametrize("name", sorted(STRATEGY_TAGS) + [
        "run_clock", "max-price-hit", "empty"])
    def test_engine_logs_match_reference(self, tmp_path, logs, name):
        rounds, grid = logs[name]
        new, ref = _both(tmp_path, rounds, grid)
        assert new == ref

    def test_logs_cover_the_cases(self, logs):
        assert len(logs["cmra-truthful"][0]) > 2 * scenarios._ROUND_LOG_CHUNK
        assert {r[3] for r in logs["cmra-truthful"][0]} == {"headline",
                                                            "additional"}
        assert {r[3] for r in logs["run_clock"][0]} == {"headline"}
        assert logs["max-price-hit"][0]
        assert len(logs["empty"][0]) == 0

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_boundaries(self, tmp_path, monkeypatch, logs, chunk):
        # Logs end on and between chunk boundaries: a plain-clock tick
        # is two lines, so 32 of them fill a chunk of 64 exactly.
        monkeypatch.setattr(scenarios, "_ROUND_LOG_CHUNK", chunk)
        for name in ("cmra-truthful", "constant", "run_clock",
                     "max-price-hit", "empty"):
            rounds, grid = logs[name]
            for size in (1, 2, chunk // 2, chunk, 2 * chunk + 1):
                new, ref = _both(tmp_path, rounds.ticks[:size], grid)
                assert new == ref

    def test_synthetic_rows_match_reference(self, tmp_path):
        new, ref = _both(tmp_path, synthetic_ticks(), QuantityGrid(20, 0.75))
        assert new == ref
        lines = new.decode().split("\r\n")
        assert lines[0] == ("round,clock_price,bidder,kind,quantity,amount,"
                            "closed_flag,r_star")
        assert lines[1] == "0,0.0,1,headline,0.25,,0,"
        assert lines[3] == "0,-0.0,1,headline,0.0,,0,"
        assert lines[5] == "0,-0.0,2,additional,1.0,-0.0,0,"
        assert lines[7] == "1,1e-05,1,additional,0.15,1e-05,1,0"
        assert lines[9] == "1,1e-05,2,additional,0.2,5e-324,1,0"
        assert lines[11] == (f"2,1e+22,2,headline,0.3,,1,{2 ** 62 + 12345}")
        assert lines[12] == ("2,1e+22,2,additional,0.05,"
                             f"1.7976931348623157e+308,1,{2 ** 62 + 12345}")
        assert lines[18] == "4,2.5e-08,1,additional,0.45,12,0,"
        assert lines[-2] == "1000000,123456.789,2,additional,1.0,0.0,1,-1"
        assert lines[-1] == ""  # every line ends in CRLF

    @pytest.mark.parametrize("tick", [
        (0, 0.1, 1, "headline", 5, None, False, None),   # a row, not a tick
        (0, 0.1, ((5, *NO_BIDS), (5, *NO_BIDS)), False),
        (0, 0.1, None, False, None),
        (0, 0.1, ((5, _ks()), (5, *NO_BIDS)), False, None),
        (0, 0.1, ((5, [3], _amounts(0.1)), (5, *NO_BIDS)), False, None),
        (0, 0.1, ((5, _ks(3, 4), _amounts(0.1)), (5, *NO_BIDS)), False, None),
        (0, 0.1, ((5, *NO_BIDS),), False, None),
        (0, 0.1, ((5, *NO_BIDS),) * 3, False, None),
        (0, 0.1, (([5], *NO_BIDS), (5, *NO_BIDS)), False, None),
    ])
    def test_malformed_tick_record_raises(self, tmp_path, tick):
        ticks = [(0, 0.1, ((5, *NO_BIDS), (5, *NO_BIDS)), False, None), tick]
        with pytest.raises(ValueError, match="malformed"):
            write_round_log(tmp_path / "bad.csv", ticks,
                            QuantityGrid(20, 0.75))

    @pytest.mark.parametrize("k", [-1, 21, np.int64(21), 2.5, None])
    @pytest.mark.parametrize("where", ["headline", "additional"])
    def test_off_grid_quantity_raises(self, tmp_path, k, where):
        bids = (np.array([3, k]), _amounts(0.0, 0.0))
        emission = (k, *NO_BIDS) if where == "headline" else (2, *bids)
        ticks = [(0, 0.1, ((5, *NO_BIDS), emission), False, None)]
        with pytest.raises(ValueError, match="grid"):
            write_round_log(tmp_path / "bad.csv", ticks,
                            QuantityGrid(20, 0.75))

    def test_streams_in_chunks(self, tmp_path, monkeypatch, logs):
        # Lines of earlier chunks are on disk while later ticks are read;
        # the margin leaves room for the file object's own buffers.
        monkeypatch.setattr(scenarios, "_ROUND_LOG_CHUNK", 200)
        rounds, grid = logs["cmra-truthful"]
        ticks = rounds.ticks[:len(rounds.ticks) // 2]
        path, ref = tmp_path / "stream.csv", tmp_path / "ref.csv"
        seen = []

        def records():
            rows = 0
            for tick in ticks:
                if rows >= 2000 and not seen:
                    seen.append(os.path.getsize(path))
                yield tick
                rows += len(reference_rows([tick]))

        write_round_log(path, records(), grid)
        reference_write_round_log(ref, reference_rows(ticks), grid)
        lines = ref.read_bytes().split(b"\r\n")
        assert len(lines) > 3000
        assert path.read_bytes() == ref.read_bytes()
        assert seen[0] >= len(b"\r\n".join(lines[:1001]))


class TestRoundLogRows:
    @pytest.mark.parametrize("name", ["cmra-truthful", "rdr", "run_clock",
                                      "max-price-hit"])
    def test_rows_are_reference_rows(self, logs, name):
        rounds, _ = logs[name]
        rows = reference_rows(rounds.ticks)
        assert len(rounds) == len(rows) > 0
        assert rounds == rows and rows == rounds
        assert list(rounds) == rows
        assert rounds == RoundLog(list(rounds.ticks))
        assert rounds != rows[:-1]
        assert rounds != rows[:-1] + [rows[0]]
        assert rounds != tuple(rows)

    def test_indexing_and_slices(self, logs):
        rounds, _ = logs["cmra-truthful"]
        rows = reference_rows(rounds.ticks)
        size = len(rows)
        # Tick boundaries and the rows on either side of them.
        ends = np.cumsum([len(reference_rows([t])) for t in rounds.ticks])
        marks = sorted({0, 1, size - 1} | {int(e) + d for e in ends[:6]
                                           for d in (-1, 0, 1)})
        for i in marks + [-1, -2, -size]:
            assert rounds[i] == rows[i]
            assert rounds[np.int64(i)] == rows[i]
        for i in (size, -size - 1):
            with pytest.raises(IndexError):
                rounds[i]
        for a in marks[:8] + [None, -5]:
            for b in marks[3:12] + [None, size + 9, -3]:
                for step in (None, 1, 3, -1, -2):
                    assert rounds[a:b:step] == rows[a:b:step], (a, b, step)

    def test_empty_and_read_only(self, logs):
        empty = RoundLog()
        assert len(empty) == 0 and empty == [] and list(empty) == []
        assert empty[:] == [] and empty[5:2] == []
        with pytest.raises(IndexError):
            empty[0]
        rounds, _ = logs["constant"]
        with pytest.raises(TypeError):
            rounds[0] = rounds[1]
        assert not hasattr(rounds, "append")


class TestLoggedEmissions:
    def test_arrays_are_the_memo_entries(self):
        s1, s2, env, config = _power_case("cmra-truthful")
        ticks = run_cmra(s1, s2, env, config).rounds.ticks
        assert any(len(ks) for tick in ticks for _, ks, _ in tick[2])
        for _, price, emissions, _, _ in ticks:
            for strategy, (k, ks, amounts) in zip((s1, s2), emissions):
                memo = strategy._a_memo[price]
                assert ks is memo[0] and amounts is memo[1]
                assert k == strategy._h_memo[price]

    def test_writes_to_logged_emissions_raise(self):
        s1, s2, env, config = _power_case("cmra-truthful")
        ticks = run_cmra(s1, s2, env, config).rounds.ticks
        _, ks, amounts = next(e for tick in ticks for e in tick[2]
                              if len(e[1]))
        for array in (ks, amounts):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        # Emissions without bids share the empty arrays.
        s1, s2, env, config = _power_case("clock-truthful")
        _, ks, amounts = run_clock(s1, s2, env, config).rounds.ticks[0][2][0]
        assert ks is strategies._EMPTY_KS and amounts is strategies._EMPTY_AMTS
        for array in (ks, amounts):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 1

    def test_single_bid_deviation_arrays(self):
        s1, s2, env, config = _power_case("clock-truthful")
        dev = SingleBidDeviation(s1, 3, 0.01, 0.2)
        ticks = run_cmra(dev, s2, env, config).rounds.ticks
        logged = [e[1:] for t in ticks for e in t[2][:1] if len(e[1])]
        assert logged
        assert all(ks is dev._ks and amounts is dev._amts
                   for ks, amounts in logged)
        with pytest.raises(ValueError, match="read-only"):
            dev._ks[0] = 4
        with pytest.raises(ValueError, match="read-only"):
            dev._amts[0] = 0.02


def test_log_adds_little_memory():
    """A cmra-truthful quadratic n=500 auction at eps 1e-3 logs about
    190,000 rows; as tick records they add well under 2 MB (as tuples,
    about 29 MB)."""
    grid = QuantityGrid(500, 0.9)
    models = [ValuationModel.quadratic(th, 0.5, 0.9, (1.05, 1.25))
              for th in (1.22, 1.24)]
    config = AuctionConfig(grid=grid, eps=1e-3, max_price=1.4,
                           money_scale=10 ** 9)
    traced = {}
    for log_rounds in (False, True):
        bidders = [cmra_truthful(m, grid) for m in models]
        tracemalloc.start()
        try:
            out = run_cmra(*bidders, None,
                           replace(config, log_rounds=log_rounds))
            traced[log_rounds] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.closed
    assert len(out.rounds) > 150_000
    added = [on - off for on, off in zip(traced[True], traced[False])]
    assert max(added) < 2 * 2 ** 20, added
