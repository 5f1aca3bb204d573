"""The round-log CSV writer against the ``csv.writer`` reference.

``write_round_log`` formats its lines directly and streams them in
chunks; ``reference_write_round_log`` is the ``csv.writer`` writer it
replaced.  Both must give the same bytes on engine logs of every
profile, a plain-clock log, a max-price-hit log, an empty log and
synthetic rows with edge-case floats.
"""

import os

import pytest

from reference_engine import reference_write_round_log

from cmra import (AuctionConfig, MarketEnv, QuantityGrid, ValuationModel,
                  run_clock, run_cmra, scenarios)
from cmra.scenarios import write_round_log
from cmra.strategies import STRATEGY_TAGS, clock_truthful


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
    logs["empty"] = ([], grid)
    return logs


@pytest.fixture(scope="module")
def logs():
    return engine_logs()


def synthetic_rows():
    """Edge cases the engine rarely or never logs, in both row kinds.

    Rows of one round carry equal prices as distinct objects (0.0 and
    -0.0), so a writer that reuses a price's text by value, not by
    object, writes a wrong line.
    """
    big = 2 ** 62 + 12345
    return [
        (0, 0.0, 1, "headline", 5, None, False, None),
        (0, -0.0, 2, "headline", 0, None, False, None),
        (0, -0.0, 2, "additional", 20, -0.0, False, None),
        (1, 1e-05, 1, "additional", 3, 1e-05, True, 0),
        (1, 1e-05, 2, "additional", 4, 5e-324, True, 0),
        (2, 1e+22, 1, "headline", 15, None, 1, big),
        (2, 1e+22, 2, "additional", 1, 1.7976931348623157e+308, 0, big),
        (3, 0.1 + 0.2, 1, "additional", 2, 0.30000000000000004, True,
         10 ** 30),
        (3, 0.1 + 0.2, 2, "headline", 7, None, True, -1),
        (4, 2.5e-08, 1, "additional", 9, 12, False, None),
        (10 ** 6, 123456.789, 2, "additional", 20, 1e16, True, 10 ** 18),
    ]


def _both(tmp_path, rounds, grid):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_round_log(new, rounds, grid)
    reference_write_round_log(ref, rounds, grid)
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

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_boundaries(self, tmp_path, monkeypatch, logs, chunk):
        # Logs end on and between chunk boundaries.
        monkeypatch.setattr(scenarios, "_ROUND_LOG_CHUNK", chunk)
        for name in ("cmra-truthful", "constant", "max-price-hit", "empty"):
            rounds, grid = logs[name]
            for size in (chunk, 2 * chunk, 3 * chunk + 1):
                new, ref = _both(tmp_path, rounds[:size], grid)
                assert new == ref

    def test_synthetic_rows_match_reference(self, tmp_path):
        rows = synthetic_rows()
        new, ref = _both(tmp_path, rows, QuantityGrid(20, 0.75))
        assert new == ref
        lines = new.decode().split("\r\n")
        assert lines[0] == ("round,clock_price,bidder,kind,quantity,amount,"
                            "closed_flag,r_star")
        assert lines[1] == "0,0.0,1,headline,0.25,,0,"
        assert lines[2] == "0,-0.0,2,headline,0.0,,0,"
        assert lines[4] == "1,1e-05,1,additional,0.15,1e-05,1,0"
        assert lines[6].endswith(f",1,{2 ** 62 + 12345}")
        assert lines[-1] == ""  # every line ends in CRLF

    @pytest.mark.parametrize("kind", ["Headline", "additional,1", "", None,
                                      "none"])
    def test_unknown_kind_raises(self, tmp_path, kind):
        rows = [(0, 0.1, 1, "headline", 5, None, False, None),
                (0, 0.1, 2, kind, 5, None, False, None)]
        with pytest.raises(ValueError, match="kind"):
            write_round_log(tmp_path / "bad.csv", rows, QuantityGrid(20, 0.75))

    @pytest.mark.parametrize("k", [-1, 21])
    def test_off_grid_quantity_raises(self, tmp_path, k):
        rows = [(0, 0.1, 1, "headline", k, None, False, None)]
        with pytest.raises(ValueError, match="grid"):
            write_round_log(tmp_path / "bad.csv", rows, QuantityGrid(20, 0.75))

    def test_streams_in_chunks(self, tmp_path, monkeypatch, logs):
        # Lines of earlier chunks are on disk while later rows are read;
        # the margin leaves room for the file object's own buffers.
        monkeypatch.setattr(scenarios, "_ROUND_LOG_CHUNK", 200)
        rounds, grid = logs["cmra-truthful"]
        rounds = rounds[:3000]
        path, ref = tmp_path / "stream.csv", tmp_path / "ref.csv"
        seen = []

        def rows():
            for i, row in enumerate(rounds):
                if i == 2000:
                    seen.append(os.path.getsize(path))
                yield row

        write_round_log(path, rows(), grid)
        reference_write_round_log(ref, rounds, grid)
        lines = ref.read_bytes().split(b"\r\n")
        assert path.read_bytes() == ref.read_bytes()
        assert seen[0] >= len(b"\r\n".join(lines[:1001]))
