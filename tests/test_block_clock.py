"""The block clock of the lockstep loop, against the tick-by-tick loop.

``mechanism._run_lockstep`` runs its clock in blocks
(``mechanism._block``): every book on the clock is recorded ahead for a
block of ticks and one closing test runs over the block.  A block is one
tick long after each join and each close and doubles after each block up
to ``_BLOCK_MAX``, within ``_BLOCK_CELLS`` cells, for any number of
members.  These tests compare whole outcomes, round logs included, with
``tests/reference_engine.py::reference_run_cmra``, spy on the blocks to
check that rule, that closes fell on the first and on the last tick of a
block, that the maximum price cut a block short and that members closed
together, bound the memory of a block of many members, check that a
repeated auction faults in no new heap pages, and pin what
happens when a strategy makes an illegal emission before, at or after
its close.
"""

import itertools
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from reference_engine import (ReferenceBidBook, reference_log_round,
                              reference_round, reference_run_cmra)
from test_refine import FAMILIES, to_rows

from cmra import (AuctionConfig, AuctionOutcome, QuantityGrid, ValuationModel,
                  mechanism, run_cmra)
from cmra.bidbook import _ARRAYS, BidError, BookRows
from cmra.equilibrium import DropPolicy, SingleBidDeviation
from cmra.mechanism import _run_lockstep
from cmra.roundlog import RoundLog
from cmra.strategies import STRATEGY_TAGS, ProxyStrategy


class BlockLog(list):
    """Every lone-member block as ``(first tick, length, ticks recorded,
    close tick or None)``, in call order.  ``joint`` holds, per block of
    several members, ``(members, length, ticks recorded, closers)``, and
    ``calls`` every block as ``(first tick, members, length, ticks
    recorded, closers)``."""

    def __init__(self):
        super().__init__()
        self.joint = []
        self.calls = []


@pytest.fixture
def blocks(monkeypatch):
    seen = BlockLog()
    real = mechanism._block

    def spy(active, strategies, state, opponent, seat, t, size, *rest):
        ticks, closers, state = real(active, strategies, state, opponent,
                                     seat, t, size, *rest)
        seen.calls.append((t, tuple(active), size, ticks, len(closers)))
        if len(active) == 1:
            seen.append((t, size, ticks,
                         closers[0].tick if closers else None))
        else:
            seen.joint.append((len(active), size, ticks, len(closers)))
        return ticks, closers, state
    monkeypatch.setattr(mechanism, "_block", spy)
    return seen


def assert_block_rule(calls, starts, n, seen):
    """The blocks of one lockstep run: 1 tick after each join and each
    close and otherwise twice the last, up to ``_BLOCK_MAX``, cut at the
    next start tick and at ``_BLOCK_CELLS`` cells.  ``seen`` counts the
    blocks of several members longer than one tick, and those that closed
    before their last tick with other members left on the clock."""
    block, before = 1, None  # the last block's members and closers
    for t, members, size, ticks, closers in calls:
        reset = before is None or before[1] or not set(members) <= before[0]
        block = 1 if reset else min(2 * block, mechanism._BLOCK_MAX)
        cells = (len(members) + 1) * (n + 1)  # per tick
        assert size == 1 or cells * size <= mechanism._BLOCK_CELLS
        assert size == min([block, max(1, mechanism._BLOCK_CELLS // cells)]
                           + [s - t for s in starts if s > t])
        if len(members) > 1 and size > 1:
            seen["long"] += 1
            seen["closed inside"] += 0 < closers < len(members) and \
                ticks < size
        before = set(members), closers


def assert_same_outcome(got, want, context=None, rounds_from=0):
    for f in fields(AuctionOutcome):
        expected = getattr(want, f.name)
        if f.name == "rounds":
            expected = [row for row in expected if row[0] >= rounds_from]
        assert getattr(got, f.name) == expected, (context, f.name)


def random_strategy(seed, make, model, config):
    """The profile's strategy, or a drop or single-bid deviation of it,
    the same for the same seed."""
    rng = np.random.default_rng(seed)
    base = make(model, config.grid)
    draw = rng.random()
    price = float(rng.uniform(config.start, config.max_price))
    if draw < 0.25:
        return DropPolicy(base, price,
                          int(rng.integers(0, config.grid.cap_index)))
    if draw < 0.5:
        k = int(rng.integers(1, config.grid.cap_index + 1))
        return SingleBidDeviation(
            base, k, float(rng.uniform(0, 1.2 * price * k / config.grid.n)),
            price)
    return base


def lone_run(member, opponent, seat, config):
    """A one-member lockstep run from the start price in ``seat``."""
    fresh = {0: BookRows(config.grid, config.money_scale)}
    out, = _run_lockstep([member], [0], opponent, fresh, [0], 0, seat,
                         config)
    return out


def snapshots(strategies, ticks, config):
    """Reference books of ``strategies`` before each of the first
    ``ticks`` clock ticks, as the rows of one state per tick."""
    books = [ReferenceBidBook(config.grid, config.money_scale)
             for _ in strategies]
    snaps = {}
    for t in range(ticks):
        snaps[t] = to_rows(*books)
        for book, strategy in zip(books, strategies):
            reference_round(book, strategy, config.start + t * config.eps)
    return snaps


class TestBlockClock:
    def test_matches_reference_loop(self, blocks):
        rng = np.random.default_rng(83)
        seen = {"refined": 0, "unrefined": 0, "start": 0, "seat 1": 0,
                "drop": 0, "single-bid": 0, "close on first": 0,
                "close on last": 0, "max price in block": 0, "tick 0": 0,
                "long blocks": 0}
        profiles = set()
        for i in range(160):
            profile = list(STRATEGY_TAGS)[i % 4]
            family = ("power", "quadratic")[(i // 4) % 2]
            model, (lo, hi), cap, top = FAMILIES[family]
            make = STRATEGY_TAGS[profile]
            grid = QuantityGrid(int(rng.choice([12, 20, 40])), cap)
            config = AuctionConfig(
                grid=grid, eps=float(rng.choice([5e-3, 2e-2, 6e-2])),
                max_price=top, refine=bool(rng.random() < 0.6),
                start=float(rng.choice([0.0, rng.uniform(0, 0.6)])),
                log_rounds=True)
            th1, th2 = (float(th) for th in rng.uniform(lo, hi, 2))

            def pair(drawn=config):
                # Fresh strategies each run; the same deviation each time.
                return (random_strategy(i, make, model(th1), drawn),
                        make(model(th2), grid))
            if rng.random() < 0.3:
                # Stop the clock short of the close, often inside a block.
                close = reference_run_cmra(*pair(), config).final_price
                if close > config.start + 1e-9:
                    config = replace(config, max_price=float(
                        rng.uniform(config.start, close)))
            seat = int(rng.integers(0, 2))
            member, opponent = pair()
            want = reference_run_cmra(
                *((member, opponent) if seat == 0 else (opponent, member)),
                config)
            del blocks[:]
            member, opponent = pair()
            got = (run_cmra(member, opponent, None, config) if seat == 0
                   else lone_run(member, opponent, 1, config))
            assert_same_outcome(got, want, (i, profile, family, config, seat))
            kind = type(member).__name__
            profiles.add(profile)
            seen["drop"] += kind == "DropPolicy"
            seen["single-bid"] += kind == "SingleBidDeviation"
            seen["refined" if config.refine else "unrefined"] += want.closed
            seen["start"] += config.start > 0 and want.closed
            seen["seat 1"] += seat == 1
            seen["tick 0"] += want.closed and want.rounds[-1][0] == 0
            seen["long blocks"] += any(size == mechanism._BLOCK_MAX
                                       for _, size, _, _ in blocks)
            t, size, ticks, close = blocks[-1]
            if close is not None and size > 1:
                seen["close on first"] += close == t
                seen["close on last"] += close == t + size - 1
            seen["max price in block"] += close is None and ticks < size
            # The blocks tile the clock from the start tick.
            assert blocks[0][0] == 0
            for (t0, _, n0, _), (t1, _, _, _) in zip(blocks, blocks[1:]):
                assert t1 == t0 + n0
        assert profiles == set(STRATEGY_TAGS)
        assert min(seen.values()) > 0, seen

    def test_members_join_a_lone_member(self, blocks):
        """Blocks stop short of the next start tick, where members join
        with their books and the opponent's snapshot."""
        rng = np.random.default_rng(89)
        joined, rule = 0, {"long": 0, "closed inside": 0}
        for i in range(12):
            profile = list(STRATEGY_TAGS)[i % 4]
            family = ("power", "quadratic")[i % 2]
            model, (lo, hi), cap, top = FAMILIES[family]
            make = STRATEGY_TAGS[profile]
            grid = QuantityGrid(20, cap)
            config = AuctionConfig(grid=grid, eps=1e-2, max_price=top,
                                   refine=bool(i % 3), log_rounds=True)
            opp_theta = float(rng.uniform(lo, hi))
            thetas = [float(th) for th in rng.uniform(lo, hi, 4)]
            seat = i % 2

            def bidders(th):
                pair = (make(model(th), grid), make(model(opp_theta), grid))
                return pair if seat == 0 else pair[::-1]
            wants = [reference_run_cmra(*bidders(th), config)
                     for th in thetas]
            # Each member joins at a tick before its own close.
            close_ticks = [w.rounds[-1][0] for w in wants]
            starts = [0] + [int(rng.integers(0, max(c, 1)))
                            for c in close_ticks[1:]]
            members = [make(model(th), grid) for th in thetas]
            opponent = make(model(opp_theta), grid)
            # Member i's book is row i, the opponent's the last row.
            snaps = snapshots(members + [opponent], max(starts) + 1, config)
            del blocks[:], blocks.calls[:]
            got = _run_lockstep(members, starts, opponent, snaps,
                                list(range(len(members))), len(members),
                                seat, config)
            for out, want, start in zip(got, wants, starts):
                assert_same_outcome(out, want, (i, profile), start)
            assert_block_rule(blocks.calls, starts, grid.n, rule)
            for t, size, ticks, _ in blocks:
                later = [s for s in starts if s > t]
                if later:
                    assert t + size <= min(later)
                    joined += t + size == min(later)
        assert joined > 0
        assert blocks.joint
        assert rule["long"] > 0, rule

    def test_members_close_together(self, blocks):
        """Several members on the clock run blocks of the one block rule,
        and members that close at one tick each keep their own outcome and
        log."""
        rng = np.random.default_rng(97)
        seen = {"refined": 0, "unrefined": 0, "seat 0": 0, "seat 1": 0}
        rule = {"long": 0, "closed inside": 0}
        for i in range(24):
            del blocks.joint[:], blocks.calls[:]
            config, seat, _, _ = run_several_members(rng, i,
                                                     refine=bool(i % 2))
            assert_block_rule(blocks.calls, [0], config.grid.n, rule)
            together = sum(closers >= 2 for *_, closers in blocks.joint)
            seen["refined" if config.refine else "unrefined"] += together
            seen[f"seat {seat}"] += together
        assert min(seen.values()) > 0, seen
        assert min(rule.values()) > 0, rule

    def test_lone_member_blocks_double(self, blocks):
        """A lone member from the start price runs blocks of 1, 2, 4 ...
        ``_BLOCK_MAX`` ticks on every grid up to n = 511, where its two rows
        of ``_BLOCK_MAX`` ticks fill ``_BLOCK_CELLS``; on larger grids the
        cell budget cuts them."""
        seen = {True: 0, False: 0}
        for (family, (model, (lo, hi), cap, top)), profile, n in \
                itertools.product(FAMILIES.items(), STRATEGY_TAGS,
                                  (20, 500, 600)):
            make = STRATEGY_TAGS[profile]
            grid = QuantityGrid(n, cap)
            config = AuctionConfig(grid=grid, eps=5e-3, max_price=top,
                                   log_rounds=False)
            del blocks[:]
            run_cmra(make(model(lo + 0.7 * (hi - lo)), grid),
                     make(model(hi), grid), None, config)
            sizes = [size for _, size, _, _ in blocks]
            cut = mechanism._BLOCK_CELLS // (2 * (grid.n + 1))
            assert (cut >= mechanism._BLOCK_MAX) == (grid.n <= 511)
            assert sizes == [min(2 ** k, mechanism._BLOCK_MAX, cut)
                             for k in range(len(sizes))], (family, profile)
            seen[grid.n <= 511] += min(mechanism._BLOCK_MAX, cut) in sizes
        assert min(seen.values()) > 0, seen

    def test_block_cells_bound_memory(self, monkeypatch):
        """A lockstep run of 100 members at n = 500 peaks within 10 % of
        the same run in one-tick blocks: ``_BLOCK_CELLS`` keeps blocks of
        many members short."""
        model, _, cap, top = FAMILIES["power"]
        make = STRATEGY_TAGS["clock-truthful"]
        grid, count = QuantityGrid(500, cap), 100
        config = AuctionConfig(grid=grid, eps=1e-2, max_price=top,
                               log_rounds=False)

        def peak():
            # Two member types that close late, so blocks grow long.
            types = [make(model(th), grid) for th in (0.8, 0.9)]
            members = [types[k % 2] for k in range(count)]
            fresh = {0: BookRows(grid, config.money_scale)}
            tracemalloc.start()
            try:
                _run_lockstep(members, [0] * count, make(model(0.95), grid),
                              fresh, [0] * count, 0, 0, config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        blocks = peak()
        monkeypatch.setattr(mechanism, "_BLOCK_MAX", 1)
        assert blocks <= 1.1 * peak()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the malloc thresholds are set under glibc")
    def test_blocks_reuse_heap_pages(self):
        """Once an n = 500 auction has run, running it again faults in
        almost no new pages: the blocks' freed temporaries keep theirs."""
        resource = pytest.importorskip("resource")
        model, (lo, hi), cap, top = FAMILIES["power"]
        grid = QuantityGrid(500, cap)
        config = AuctionConfig(grid=grid, eps=1e-3, max_price=top,
                               log_rounds=False)
        for profile in ("constant", "clock-truthful", "cmra-truthful"):
            make = STRATEGY_TAGS[profile]

            def auction():
                run_cmra(make(model(lo + 0.4 * (hi - lo)), grid),
                         make(model(hi), grid), None, config)
            auction()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                auction()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert faults - before < 100, profile

    def test_long_blocks_of_several_members(self, monkeypatch):
        """A block of several members over many ticks is exact too: the
        members that do not close at its close go on with the books of a
        tick-by-tick loop."""
        real = mechanism._block
        size = 7
        rewound = 0

        def wide(active, strategies, state, opponent, seat, t, _, *rest):
            nonlocal rewound
            ticks, closers, state = real(active, strategies, state, opponent,
                                         seat, t, size, *rest)
            rewound += 0 < len(closers) < len(active) and ticks < size
            return ticks, closers, state
        monkeypatch.setattr(mechanism, "_block", wide)
        rng = np.random.default_rng(101)
        for i in range(16):
            run_several_members(rng, i, refine=bool(i % 2))
        assert rewound > 0

    def test_tick_records_expand_to_reference_rows(self):
        """In lockstep runs of several members, drop and single-bid
        deviators among them, each member's log holds one tick record per
        tick it was on the clock, with its own emission in its seat, and
        each record reads as the rows ``reference_log_round`` logs for
        that tick."""
        rng = np.random.default_rng(109)
        kinds, bids = set(), 0
        for i in range(16):
            config, seat, bidders, got = run_several_members(
                rng, i, refine=bool(i % 2))
            for member, out in zip(bidders, got):
                kinds.add(type(member).__name__)
                ticks = out.rounds.ticks
                assert [tick[0] for tick in ticks] == list(range(len(ticks)))
                for rnd, price, emissions, closed, r_star in ticks:
                    k, ks, amounts = emissions[seat]
                    assert k == member.headline_index(price)
                    want = member.additional_bid_arrays(price)
                    assert np.array_equal(ks, want[0])
                    assert np.array_equal(amounts, want[1])
                    rows = []
                    reference_log_round(rows, rnd, price, emissions, closed,
                                        r_star)
                    assert list(RoundLog([(rnd, price, emissions, closed,
                                           r_star)])) == rows
                    bids += len(rows) - 2
        assert kinds == {"DropPolicy", "SingleBidDeviation", "CmraTruthful",
                         "ClockTruthful", "ConstantBidding",
                         "RisklessDemandReduction"}
        assert bids > 0


    def test_rows_join_and_leave(self, blocks):
        """Members join while several others are on the clock, and closers
        leave on the tick that another member joins; the opponent's row
        is last in seat 0 and first in seat 1.  The books and snapshots
        handed in are left as they were."""
        rng = np.random.default_rng(107)
        seen = {(event, seat): 0 for seat in (0, 1)
                for event in ("join while several", "leave as one joins")}
        for i in range(16):
            profile = list(STRATEGY_TAGS)[i % 4]
            family = ("power", "quadratic")[(i // 4) % 2]
            seat = (i + i // 4) % 2
            model, (lo, hi), cap, top = FAMILIES[family]
            make = STRATEGY_TAGS[profile]
            grid = QuantityGrid(20, cap)
            config = AuctionConfig(grid=grid, eps=2e-2, max_price=top,
                                   refine=bool(i % 3), log_rounds=True)
            thetas = [float(th) for th in rng.uniform(lo, hi, 6)]
            opp_theta = float(rng.uniform(lo, hi))

            def members():
                return [random_strategy(1000 * i + k, make, model(th), config)
                        for k, th in enumerate(thetas)]

            def opponent():
                return make(model(opp_theta), grid)
            wants = [reference_run_cmra(
                *((m, opponent()) if seat == 0 else (opponent(), m)), config)
                for m in members()]
            # A member joins at or before its own last tick: at a random
            # tick, or at the last tick of a member that ends earlier.
            ends = [w.rounds[-1][0] for w in wants]
            order = sorted(range(len(thetas)), key=ends.__getitem__)
            starts = [0] * len(thetas)
            for pos, k in enumerate(order[1:], start=1):
                starts[k] = (ends[order[int(rng.integers(0, pos))]]
                             if rng.random() < 0.5
                             else int(rng.integers(0, ends[k] + 1)))
            bidders, opp = members(), opponent()
            # The opponent's book is row 0, member k's row k + 1.
            snaps = snapshots([opp] + bidders, max(starts) + 1, config)
            kept = {t: rows.copy() for t, rows in snaps.items()}
            got = _run_lockstep(bidders, starts, opp, snaps,
                                list(range(1, len(thetas) + 1)), 0, seat,
                                config)
            for k, (out, want) in enumerate(zip(got, wants)):
                assert_same_outcome(out, want, (i, profile, seat, k),
                                    starts[k])
            for t, rows in snaps.items():
                assert_same_rows(rows, kept[t])
            for j, start in enumerate(starts):
                # Members on the clock when member j joins, and those
                # that close on that tick.
                on = [k for k in range(len(starts))
                      if starts[k] < start <= ends[k] and wants[k].closed]
                seen["join while several", seat] += len(on) >= 2
                seen["leave as one joins", seat] += any(
                    ends[k] == start for k in on)
        assert min(seen.values()) > 0, seen


def assert_same_rows(rows, want):
    for name in _ARRAYS:
        assert np.array_equal(getattr(rows, name), getattr(want, name)), name
    assert (rows.last_price, rows.last_headline) == \
        (want.last_price, want.last_headline)


def run_several_members(rng, i, refine, count=6):
    """``count`` members of two types from tick 0 in one lockstep run, each
    checked against its own reference run; returns the config, the seat,
    the members and their outcomes."""
    profile = list(STRATEGY_TAGS)[i % 4]
    family = ("power", "quadratic")[(i // 4) % 2]
    model, (lo, hi), cap, top = FAMILIES[family]
    make = STRATEGY_TAGS[profile]
    config = AuctionConfig(grid=QuantityGrid(20, cap), eps=2e-2,
                           max_price=top, refine=refine, log_rounds=True)
    # Members of one type that have not deviated by then close together.
    thetas = [float(th) for th in rng.uniform(lo, hi, 2)]
    opp_theta = float(rng.uniform(lo, hi))
    seat = int(rng.integers(0, 2))

    def members():
        return [random_strategy(100 * i + k, make, model(thetas[k % 2]),
                                config) for k in range(count)]

    def opponent():
        return make(model(opp_theta), config.grid)
    wants = [reference_run_cmra(
        *((m, opponent()) if seat == 0 else (opponent(), m)), config)
        for m in members()]
    fresh = {0: BookRows(config.grid, config.money_scale)}
    bidders = members()
    got = _run_lockstep(bidders, [0] * count, opponent(), fresh, [0] * count,
                        0, seat, config)
    for k, (out, want) in enumerate(zip(got, wants)):
        assert_same_outcome(out, want, (i, profile, family, seat, k))
    return config, seat, bidders, got


class EmissionFault(Exception):
    """What a strategy with the ``raise`` fault raises."""


class _Faulty(ProxyStrategy):
    """A strategy's emissions, made illegal from ``bad_price`` on.

    ``rise`` keeps the headline below the cap before ``bad_price`` and
    lifts it to the cap there; ``bid-cap`` adds a bid above the quantity
    cap; ``negative`` adds a bid with a negative amount.  The clamp of
    the engine repairs none of these.  ``raise`` makes no emission there:
    it raises ``EmissionFault``.
    """

    def __init__(self, base, bad_price, fault):
        super().__init__(base.model, base.grid)
        self.base, self.bad_price, self.fault = base, bad_price, fault

    def headline_index(self, p):
        if self.fault == "raise" and p >= self.bad_price:
            raise EmissionFault(f"theta {self.model.theta}: no emission "
                                f"at {p!r}")
        k = self.base.headline_index(p)
        if self.fault == "rise":
            cap = self.grid.cap_index
            return cap if p >= self.bad_price else min(k, cap - 1)
        return k

    def additional_bid_arrays(self, p):
        ks, amounts = self.base.additional_bid_arrays(p)
        if p < self.bad_price or self.fault == "rise":
            return ks, amounts
        k, amount = ((self.grid.cap_index + 1, 0.0) if self.fault == "bid-cap"
                     else (1, -0.5))
        return np.append(ks, k), np.append(amounts, amount)


def faulty_auction(profile="clock-truthful", n=20):
    model, (lo, hi), cap, top = FAMILIES["power"]
    make = STRATEGY_TAGS[profile]
    grid = QuantityGrid(n, cap)
    config = AuctionConfig(grid=grid, eps=1e-2, max_price=top)
    models = (model(0.7), model(0.4))
    close = reference_run_cmra(make(models[0], grid), make(models[1], grid),
                               replace(config, refine=False))
    return make, models, config, close.rounds[-1][0]


def run_both(members, opponent, seat, config):
    """The engine's and the reference's outcome, ``BidError`` or
    ``EmissionFault``."""
    got = want = None
    bidders = (members[0](), opponent())
    try:
        want = reference_run_cmra(
            *(bidders if seat == 0 else bidders[::-1]), config)
    except (BidError, EmissionFault) as exc:
        want = exc
    try:
        fresh = {0: BookRows(config.grid, config.money_scale)}
        got = _run_lockstep([m() for m in members], [0] * len(members),
                            opponent(), fresh, [0] * len(members), 0, seat,
                            config)[0]
    except (BidError, EmissionFault) as exc:
        got = exc
    return got, want


class TestIllegalEmissions:
    @pytest.mark.parametrize("fault", ["rise", "bid-cap", "negative",
                                       "raise"])
    @pytest.mark.parametrize("seat", [0, 1])
    def test_error_before_at_and_after_close(self, fault, seat, blocks):
        make, models, config, close = faulty_auction()
        grid = config.grid
        seen = {"raised": 0, "after close": 0, "inside closing block": 0}
        # Ticks past the close fall inside the closing block or after it.
        for bad in (1, close // 2, close - 1, close, close + 1, close + 2,
                    close + 7, close + 40):
            bad_price = config.start + (bad - 0.5) * config.eps
            for refine in (True, False):
                del blocks[:]
                got, want = run_both(
                    [lambda: _Faulty(make(models[0], grid), bad_price, fault)],
                    lambda: make(models[1], grid), seat,
                    replace(config, refine=refine))
                if isinstance(want, Exception):
                    assert type(got) is type(want)
                    assert str(got) == str(want)
                    seen["raised"] += 1
                    continue
                assert_same_outcome(got, want)
                seen["after close"] += 1
                # The closing block recorded the faulty tick and dropped
                # its error.
                t, size, _, closed_at = blocks[-1]
                seen["inside closing block"] += closed_at < bad < t + size
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("profile", ["cmra-truthful", "constant"])
    def test_fault_on_the_tick_after_close(self, profile, blocks):
        """A fault on the tick after the close, inside the closing block,
        can leave the books with part of that tick's round; the closer's
        books after its closing tick are rebuilt rather than taken."""
        seen = 0
        for n in (12, 20, 40):
            make, models, config, close = faulty_auction(profile, n)
            grid = config.grid
            bad_price = config.start + (close + 0.5) * config.eps
            for seat, fault, refine in itertools.product(
                    (0, 1), ("rise", "bid-cap", "negative", "raise"),
                    (True, False)):
                del blocks[:]
                got, want = run_both(
                    [lambda: _Faulty(make(models[0], grid), bad_price, fault)],
                    lambda: make(models[1], grid), seat,
                    replace(config, refine=refine))
                if isinstance(want, Exception):
                    assert type(got) is type(want) and str(got) == str(want)
                    continue
                assert_same_outcome(got, want, (n, seat, fault, refine))
                t, size, _, closed_at = blocks[-1]
                seen += closed_at == close and close + 1 < t + size
        assert seen > 0

    def test_both_bidders_fault_in_one_tick(self):
        """The reference records bidder 1 first; so does the engine."""
        make, models, config, close = faulty_auction()
        grid = config.grid
        bad_price = config.start + (close - 2.5) * config.eps
        for seat in (0, 1):
            faults = ("negative", "bid-cap") if seat == 0 \
                else ("bid-cap", "negative")
            got, want = run_both(
                [lambda: _Faulty(make(models[0], grid), bad_price, faults[0])],
                lambda: _Faulty(make(models[1], grid), bad_price, faults[1]),
                seat, config)
            assert isinstance(want, BidError)
            assert type(got) is type(want) and str(got) == str(want)
            assert "non-negative" in str(got)

    def test_lockstep_raises_earliest_fault(self):
        make, models, config, close = faulty_auction()
        grid = config.grid
        ticks = {"late": close - 2, "early": close - 9, "middle": close - 5}
        faults = {"late": "rise", "early": "negative", "middle": "bid-cap"}

        def member(name):
            return lambda: _Faulty(make(models[0], grid), config.start + (
                ticks[name] - 0.5) * config.eps, faults[name])

        def opponent():
            return make(models[1], grid)
        for order in (["late", "early", "middle"], ["early", "late"],
                      ["middle", "late", "early"]):
            for seat in (0, 1):
                _, early = run_both([member("early")], opponent, seat,
                                    config)
                assert isinstance(early, BidError)
                got, _ = run_both([member(name) for name in order], opponent,
                                  seat, config)
                assert type(got) is type(early) and str(got) == str(early)

    def test_raise_on_the_opponent(self, blocks):
        """The opponent's emission raises before, at or after the close."""
        make, models, config, close = faulty_auction("cmra-truthful")
        grid = config.grid
        seen = {"raised": 0, "after close": 0, "inside closing block": 0}
        for seat, refine, bad in itertools.product(
                (0, 1), (True, False), (1, close - 1, close, close + 2,
                                        close + 40)):
            bad_price = config.start + (bad - 0.5) * config.eps
            del blocks[:]
            got, want = run_both(
                [lambda: make(models[0], grid)],
                lambda: _Faulty(make(models[1], grid), bad_price, "raise"),
                seat, replace(config, refine=refine))
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want)
                seen["raised"] += 1
                continue
            assert_same_outcome(got, want)
            seen["after close"] += 1
            t, size, _, closed_at = blocks[-1]
            seen["inside closing block"] += closed_at < bad < t + size
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("where", ["member", "opponent", "both",
                                       "demand"])
    def test_raise_inside_a_block(self, where, monkeypatch):
        """An emission that raises inside a block of a lone member: the
        block records the ticks before it, as a tick-by-tick loop does,
        and raises the first error in (tick, bidder) order.  ``both``
        faults the opponent one tick earlier or on the same tick;
        ``demand`` raises inside cmra-truthful's own run call."""
        make, models, config, close = faulty_auction("cmra-truthful")
        grid, size = config.grid, mechanism._BLOCK_MAX
        last = min(close, size)
        bad_price = None
        solve = ValuationModel.truthful_demand

        def raising(model, p):
            if model.theta == models[0].theta and p >= bad_price:
                raise EmissionFault(f"no demand at {p!r}")
            return solve(model, p)
        if where == "demand":
            monkeypatch.setattr(ValuationModel, "truthful_demand", raising)
        for bad, early, seat in itertools.product(
                (2, last // 2, last - 1), (0, 1), (0, 1)):
            bad_price = config.start + (bad - 0.5) * config.eps
            member, opponent = make(models[0], grid), make(models[1], grid)
            if where in ("member", "both"):
                member = _Faulty(member, bad_price, "raise")
            if where in ("opponent", "both"):
                opponent = _Faulty(opponent, bad_price - early * config.eps,
                                   "raise")
            state = BookRows(grid, config.money_scale, 2)
            with pytest.raises(EmissionFault) as got:
                mechanism._block([0], [member], state, opponent, seat, 0,
                                 size, config, [[]])
            books, want = tick_by_tick(
                (member, opponent) if seat == 0 else (opponent, member),
                config, size)
            assert str(got.value) == str(want)
            assert books[0].last_price < bad_price
            assert_same_rows(state, to_rows(*books))


def tick_by_tick(bidders, config, ticks):
    """Books of ``bidders``, in seat order, over up to ``ticks`` ticks from
    the start price, each tick emitted by every bidder before it is
    recorded, and the ``EmissionFault`` that stopped them."""
    books = [ReferenceBidBook(config.grid, config.money_scale)
             for _ in bidders]
    for t in range(ticks):
        price = config.price(t)
        try:
            emissions = [mechanism._emit(b, price) for b in bidders]
        except EmissionFault as exc:
            return books, exc
        for book, emission in zip(books, emissions):
            book.record_round_indexed(price, *emission, clamp=True)
    return books, None
