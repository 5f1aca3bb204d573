"""Numerical verification of equilibrium claims by deviation search.

The central routine, :func:`check_expost`, sweeps a grid of type pairs
and, for every pair and every seat, searches a family of unilateral
deviations against a fixed proxy-strategy profile:

* headline-drop policies (drop to quantity y once the clock reaches q),
* single-package deviating bids (one pay-as-bid bid of a given amount
  on a given quantity from a given submission price, with no other
  additional bids).

A profile is verified when no deviation in the family gains more than
the tolerance for any type pair, and refuted when some deviation does.

The search is exact about engine semantics without simulating every
family member: every type's books along the clock ladder, full and
headline-only, are recorded once, as rows of one book state with one
record per run of ticks between snapshots; deviations are then screened
vectorially against those ladders (the screen reproduces the engine's
per-tick closing test), and every member whose optimistic surplus bound
clears the tolerance is re-run through the real auction engine.
Reported gains always come from such engine replays, so any reported
deviation is reproducible.  Screening is per type pair and selection per
seat: one screen of each pair serves every searched seat, and each seat
picks the members to replay by its own baseline.

Neither screen builds a book per member.  The headline is
non-increasing, so from its drop tick td on, a drop policy's book is
the headline-only book on quantities below its drop quantity y, the
headline-only book of tick td - 1 above y, and on y the linear-price
bid of the last tick whose headline is still at least y: its pair
revenue is a prefix maximum over k < y, the y entry and a suffix
maximum over k > y.  A single bid of amount a closes its book at tick t
exactly when a is at most one per-tick threshold or at least another,
so the first closing ticks of all bids are found at once, by binary
lifting over sparse tables of the thresholds' extrema on windows of
2**l ticks.  Both screens are checked against per-member loop versions
on random ladders.

A replay does not restart the clock at price 0.  Proxy emissions are
pure functions of the price, and before its divergence tick (the drop
tick of a drop policy, the submission tick of a single bid) a deviation
emits exactly what headline-only play emits; no tick before the first
closing tick of headline-only play closes.  Up to the earlier of those
two ticks the deviation's books therefore equal the ladders' books, and
the replay resumes from the ladders' snapshot at the last snapshot tick
not past it.

The replays of the search cells (seat x deviator type x opponent type)
of one seat and opponent type run in lockstep, in one clock loop: each
joins at its resume tick, the opponent's book is recorded once per tick
for all of them, and one batched closing test covers every replay still
on the clock.  The opponent's emissions depend only on the price, so its
book at every tick is the same for every replay, and a replay that
closes refines from exactly the books its own clock loop would hold; the
outcomes are those of separate runs.  The profile's own runs, the
baselines that gains are measured against, take their first closing
tick from the engine's closing test on the full ladders and resume from
the last snapshot not past it, those against one opponent type in one
such loop.  :func:`replay_deviation` runs one deviation from price 0.

The module also houses the collusion-threshold analysis for the
riskless demand-reduction strategy and the VCG outcome-equivalence
check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .bidbook import _NOTHING, BookRows, QuantityGrid, _require_count
from .mechanism import (AuctionConfig, _closing_rows, _emissions,
                        _run_lockstep, run_cmra)
from .strategies import STRATEGY_TAGS, ProxyStrategy
from .valuation import AssumptionViolation, MarketEnv, ValuationModel

__all__ = [
    "Deviation",
    "DeviationFamily",
    "DeviationReport",
    "ExPostResult",
    "check_expost",
    "minimal_winning_bid",
    "rdr_threshold",
    "check_rdr_bne",
    "RdrBneReport",
    "vcg_equivalence_check",
    "replay_deviation",
    "HeadlineOnly",
    "DropPolicy",
    "SingleBidDeviation",
]

# Masked money values of the screens, kept at +-2**53 rather than the
# books' "no bid", bidbook._NOTHING (-2**62).  The screens add masked
# entries to amounts and to the engine's closing-test results, e.g.
# ``np.maximum(self.hd[t, k], a) + self.po_rev[t, k]`` and
# ``self.s - self.po_rev``: distinct magnitudes keep a screen sentinel
# and an engine sentinel from cancelling to a legal amount, and a masked
# value plus an amount below 2**53 is still exact as a float.
_NEG = np.int64(-(2 ** 53))
_BIG = np.int64(2 ** 53)
_PRICE_TOL = 1e-15  # a deviation acts at clock prices >= its price - this


# -- deviation strategies ---------------------------------------------

class HeadlineOnly(ProxyStrategy):
    """The profile's headline path with all additional bids suppressed."""

    tag = "headline-only"

    def __init__(self, base: ProxyStrategy):
        super().__init__(base.model, base.grid)
        self._base = base

    def headline_index(self, p: float) -> int:
        return self._base.headline_index(p)


class DropPolicy(ProxyStrategy):
    """Headline capped at drop_k once the clock reaches drop_price."""

    tag = "drop"

    def __init__(self, base: ProxyStrategy, drop_price: float, drop_k: int):
        super().__init__(base.model, base.grid)
        self._base = base
        self.drop_price = drop_price
        self.drop_k = drop_k

    def headline_index(self, p: float) -> int:
        h = self._base.headline_index(p)
        if p >= self.drop_price - _PRICE_TOL:
            return min(h, self.drop_k)
        return h


class SingleBidDeviation(ProxyStrategy):
    """Profile headline plus exactly one package bid from a given price."""

    tag = "single-bid"

    def __init__(self, base: ProxyStrategy, quantity_k: int, amount: float,
                 submit_price: float):
        super().__init__(base.model, base.grid)
        self._base = base
        self.quantity_k = quantity_k
        self.amount = amount
        self.submit_price = submit_price
        self._ks = np.array([quantity_k], dtype=np.int64)
        self._amts = np.array([amount], dtype=float)
        self._ks.setflags(write=False)   # round logs keep references
        self._amts.setflags(write=False)

    def headline_index(self, p: float) -> int:
        return self._base.headline_index(p)

    def additional_bid_arrays(self, p: float):
        if p >= self.submit_price - _PRICE_TOL:
            return self._ks, self._amts
        return super().additional_bid_arrays(p)


@dataclass(frozen=True)
class Deviation:
    """Descriptor of one deviation; replayable through the engine."""

    kind: str                       # 'headline-only' | 'drop' | 'single-bid'
    drop_price: float | None = None
    drop_k: int | None = None
    quantity_k: int | None = None
    amount: float | None = None
    submit_price: float | None = None

    def build(self, base: ProxyStrategy) -> ProxyStrategy:
        if self.kind == "headline-only":
            return HeadlineOnly(base)
        if self.kind == "drop":
            return DropPolicy(base, self.drop_price, self.drop_k)
        if self.kind == "single-bid":
            return SingleBidDeviation(base, self.quantity_k, self.amount,
                                      self.submit_price)
        raise ValueError(f"unknown deviation kind {self.kind!r}")


@dataclass(frozen=True)
class DeviationFamily:
    """Grids spanning the searched deviations.

    Quantities default to the whole bid grid up to the cap; amounts are
    evenly spaced levels between zero and the legal maximum at the
    submission price; submission and drop prices are evenly spaced
    clock ticks.
    """

    n_amounts: int = 50
    n_submit_prices: int = 20
    n_drop_prices: int = 20
    # Grid indices searched; None searches the default, () searches none.
    bid_quantities: tuple | None = None      # default 1..cap
    drop_quantities: tuple | None = None     # default 0..cap-1

    def __post_init__(self):
        for name in ("n_amounts", "n_submit_prices", "n_drop_prices"):
            _require_count(name, getattr(self, name))


@dataclass
class DeviationReport:
    """Best deviation found for one deviator type in one seat."""

    deviator_theta: float
    seat: int
    baseline: dict = field(default_factory=dict)       # opp theta -> surplus
    best_gain: float = -math.inf
    best_opponent: float | None = None
    best_deviation: Deviation | None = None
    best_surplus: float | None = None
    by_opponent: dict = field(default_factory=dict)    # opp theta -> best gain


@dataclass
class ExPostResult:
    """Aggregate verdict of one profile check on a type grid."""

    profile: str
    regime: str
    tol: float
    max_gain: float
    verified: bool
    reports: dict
    replays: int
    members: int
    truncated: bool = False

    def __str__(self):
        verdict = "no profitable deviation found" if self.verified \
            else "profitable deviation found"
        return (f"{self.profile} ({self.regime}): {verdict}; "
                f"max gain {self.max_gain:.3e} at tol {self.tol:g} "
                f"({self.members} deviations screened, {self.replays} replayed)")


def replay_deviation(profile: str, env: MarketEnv, seat: int,
                     deviation: Deviation, config: AuctionConfig,
                     theta_pair: tuple | None = None):
    """Re-run one deviation through the auction engine.

    Returns (outcome, deviator surplus).  ``theta_pair`` overrides the
    environment models' types as (deviator theta, opponent theta).
    """
    make = STRATEGY_TAGS[profile]
    grid = config.grid
    mdev, mopp = env.models[seat], env.models[1 - seat]
    if theta_pair is not None:
        mdev = mdev.with_theta(theta_pair[0])
        mopp = mopp.with_theta(theta_pair[1])
    dev = deviation.build(make(mdev, grid))
    opp = make(mopp, grid)
    pair = (dev, opp) if seat == 0 else (opp, dev)
    models = (mdev, mopp) if seat == 0 else (mopp, mdev)
    out = run_cmra(pair[0], pair[1], env, replace(config, log_rounds=False))
    return out, out.surplus(models)[seat]


def _divergence_tick(deviation: Deviation, prices) -> int | None:
    """First tick at which a deviation may emit other than headline-only play."""
    price = {"drop": deviation.drop_price,
             "single-bid": deviation.submit_price}.get(deviation.kind)
    if price is None:
        return None
    return int(np.searchsorted(prices, price - _PRICE_TOL))


def _replay_cells(seat, cells, opp, ladder, opp_row, prices,
                  config: AuctionConfig) -> list:
    """Engine replays of several search cells against one opponent, all
    in one lockstep run; the outcomes of each cell, in order.

    A cell is ``(deviations, dev_base, dev_row, t0)``: row ``dev_row`` of
    ``ladder`` is the headline-only ladder of ``dev_base``, row
    ``opp_row`` the ladder of ``opp``, and ``t0`` their first closing
    tick (None if they never close).  The run of a deviation from price 0
    reaches the last snapshot tick at or below both ``t0`` and its
    divergence tick with exactly the snapshots' books and no close, so it
    joins the clock there.
    """
    members, starts, rows = [], [], []
    for deviations, dev_base, dev_row, t0 in cells:
        for dev in deviations:
            limit = _divergence_tick(dev, prices)
            if t0 is not None:
                limit = t0 if limit is None else min(limit, t0)
            starts.append(_resume_tick(ladder, limit))
            members.append(dev.build(dev_base))
            rows.append(dev_row)
    outcomes = iter(_run_lockstep(members, starts, opp, ladder.snaps, rows,
                                  opp_row, seat, config))
    return [[next(outcomes) for _ in cell[0]] for cell in cells]


def _resume_tick(ladder, limit) -> int:
    """The last snapshot tick of ``ladder`` not past ``limit`` (None: any)."""
    return max(t for t in ladder.snaps if limit is None or t <= limit)


# -- ladder replays ---------------------------------------------------

class _Ladder:
    """Books of several strategies at every clock tick, as rows of one
    state that one ``BookRows.record`` per run of ticks records.

    ``values[r, t]`` holds the book of ``strategies[r]`` after tick t's
    round, ``_NOTHING`` where no bid, and ``kpath[r, t]`` its headline.
    ``caps[t]`` holds every row's activity caps after the round of tick
    t in ``cap_ticks``, ``_BIG`` where none binds; ``snaps[t]`` a copy of
    the state before the round of tick t in ``snap_ticks``: the books a
    replay resumes from.  A run ends where a snapshot or caps are due.
    """

    def __init__(self, strategies, prices, grid, scale, cap_ticks=(),
                 snap_ticks=()):
        count, t_n = len(strategies), len(prices)
        state = BookRows(grid, scale, count)
        self.values = np.empty((count, t_n, grid.n + 1), dtype=np.int64)
        self.caps, self.snaps, heads = {}, {}, []
        prices = prices.tolist()
        cuts = sorted({0, t_n} | {t for t in snap_ticks if 0 <= t < t_n}
                      | {t + 1 for t in cap_ticks if 0 <= t < t_n})
        for a, b in zip(cuts, cuts[1:]):
            if a in snap_ticks:
                self.snaps[a] = state.copy()
            emissions, error = _emissions(strategies, prices[a:b])
            if error is not None:
                raise error
            state.record(prices[a:b], emissions,
                         out=self.values[:, a:b])
            heads += [[k for k, _, _ in tick] for tick in emissions]
            if b - 1 in cap_ticks:
                self.caps[b - 1] = state.activity_caps_array(_BIG)
        self.kpath = np.array(heads, dtype=np.int64).T.copy()


def _first_true(mask_1d):
    idx = np.nonzero(mask_1d)[0]
    return int(idx[0]) if idx.size else None


# -- the per-pair screen ----------------------------------------------

class _PairScreen:
    """Vectorized screen of the deviation family for one type pair.

    Mirrors the engine's per-tick closing test on replayed ladders and
    produces an optimistic surplus bound per family member; members
    whose bound clears the cutoff are replayed through the engine.  The
    closing test is seat-symmetric; seat-dependent tie-breaks only ever
    matter for members that get replayed anyway.
    """

    def __init__(self, ladder: _Ladder, dev: int, opp: int, prices,
                 grid: QuantityGrid, scale: int, u_dev: np.ndarray):
        self.prices = prices
        self.grid = grid
        self.scale = scale
        self.u_dev = u_dev
        n = grid.n

        # Row ``dev``: the deviator's headline-only ladder.
        self.dev_vals = ladder.values[dev]
        self.md = self.dev_vals > _NOTHING
        self.hd = np.maximum(self.dev_vals, _NEG)
        self.dev_caps = {t: caps[dev] for t, caps in ladder.caps.items()}
        self.kpath = ladder.kpath[dev]

        om = np.maximum(ladder.values[opp], _NEG)
        self.po = np.maximum.accumulate(om, axis=1)
        self.po_has = self.po > _NEG
        self.po_rev = self.po[:, ::-1]
        self.po_has_rev = self.po_has[:, ::-1]
        self.max_o = om.max(axis=1)

        # pair_hh[t, k]: revenue of the pair (k, best partner) on the
        # headline-only book at tick t.
        self.pair_hh = np.where(self.md & self.po_has_rev,
                                self.dev_vals + self.po_rev, _NEG)
        # The engine's closing test on the two ladders, tick by tick: the
        # best pair, the best single acceptance, and the first close.
        self.hh, self.s, self.closed = _closing_rows(
            self.dev_vals, ladder.values[opp])
        self.t0 = _first_true(self.closed)

        # Ceiling on the deviator's surplus when a pair closes at tick t.
        # The accepted pair (y, partner) satisfies payment_dev =
        # R* - B_opp(partner), books at the refined price sit between
        # ticks t-1 and t, and R* is at least the opponent's best single
        # one tick earlier; hence
        #   surplus <= max over feasible pairs of [U(y) + B_opp(partner; t)]
        #              - max B_opp(.; t-1).
        self.r_floor = np.zeros(len(prices))
        self.r_floor[1:] = np.maximum(self.max_o[:-1], 0) / scale
        self.pair_w = np.where(self.md & self.po_has_rev,
                               u_dev[None, :] + self.po_rev / scale, -np.inf)
        self.hh_opt = self.pair_w.max(axis=1) - self.r_floor

    # -- family screens ------------------------------------------------

    def screen_single_bids(self, family: DeviationFamily, t_hats, low,
                           cutoff):
        """Single-package deviations: quantity x amount x submission price.

        Every (quantity, submission tick, amount level) of the family is
        screened at once: the first closing tick of each comes from two
        per-tick amount thresholds, and the surplus bound is vectorized.
        Returns the member count and ``(bound, deviation)`` for each
        member whose bound exceeds ``low`` by more than ``cutoff``.
        """
        n = self.grid.n
        quants = (family.bid_quantities if family.bid_quantities is not None
                  else range(1, self.grid.cap_index + 1))
        k, th = (a.ravel() for a in np.meshgrid(
            np.asarray(quants, dtype=np.int64),
            np.asarray(t_hats, dtype=np.int64), indexing="ij"))
        # Closes before the bid is ever submitted: outcome is exactly the
        # headline-only one, reported once.
        late = th > (len(self.prices) if self.t0 is None else self.t0)
        members = family.n_amounts * int(late.sum())
        k, th = k[~late], th[~late]
        # The legal maximum; prices, hence caps, are non-negative.
        lin = np.floor(self.prices[th] * k / n * self.scale + 0.5)
        caps = np.array([self.dev_caps[t] for t in t_hats])
        cap = np.minimum(lin.astype(np.int64),
                         caps[np.searchsorted(t_hats, th), k])
        # Amount levels: np.unique(np.linspace(0, cap, n_amounts).round())
        # for each cap, bit for bit.  Each row is non-decreasing, so its
        # distinct levels are those that differ from their left neighbour.
        m = family.n_amounts
        levels = np.arange(m, dtype=float) * (cap / max(m - 1, 1))[:, None]
        if m > 1:
            levels[:, -1] = cap
        levels = levels.round().astype(np.int64)
        distinct = np.ones(levels.shape, dtype=bool)
        distinct[:, 1:] = levels[:, 1:] != levels[:, :-1]
        members += int(distinct.sum())
        # A bid at or below the deviator's recorded headline value never
        # changes the book: identical to headline-only play.
        live = distinct & ~(self.md[th, k][:, None]
                            & (levels <= self.dev_vals[th, k][:, None]))
        row, col = np.nonzero(live)
        k, th, a = k[row], th[row], levels[row, col]

        tc = self._single_bid_closes(k, th, a)
        keep = tc < len(self.prices)  # never closes: the deviator wins nothing
        if self.t0 is not None:
            # The extra bid is in no revenue-maximizing pair: outcome
            # identical to the headline-only deviation.
            t = self.t0
            pair2 = np.where(self.po_has_rev[t, k], np.maximum(self.hd[t, k], a)
                             + self.po_rev[t, k], _NEG)
            keep &= ~((tc == t) & (pair2 < self.hh[t]))
        k, th, a, tc = k[keep], th[keep], a[keep], tc[keep]
        prev = np.maximum(tc - 1, 0)
        held = (tc > 0) & self.md[prev, k]
        pay_lb = np.maximum(a, np.where(held, self.dev_vals[prev, k], 0))
        win_opt = self.u_dev[k] - pay_lb / self.scale
        pair_opt = self.hh_opt[tc]
        bound = np.where(pair_opt > win_opt, pair_opt, win_opt)
        return members, [(float(bound[i]), Deviation(
            "single-bid", quantity_k=int(k[i]), amount=int(a[i]) / self.scale,
            submit_price=float(self.prices[th[i]])))
            for i in np.nonzero(bound - low > cutoff)[0]]

    def _single_bid_closes(self, k, t_hat, a):
        """First closing tick of each single bid, ``len(prices)`` if none.

        From its submission tick on, bid i's book is the headline-only
        book plus ``a[i] >= 0`` on quantity ``k[i]``.  Opponent bids are
        non-negative, so that book closes at tick t exactly when
        ``a <= a_lo[t]`` (the headline-only pairs close and beat the bid
        as a single acceptance) or ``a >= a_hi[t, k]`` (the bid's pair
        with its best partner beats every single acceptance).
        All bids are searched at once by binary lifting on sparse
        tables: ``lo[l, t]`` is the maximum of ``a_lo`` and ``hi[l, t]``
        the minimum of ``a_hi`` over ticks ``t .. t + 2**l - 1``.  From
        the top level down, each bid's cursor skips a window that ends
        by the last tick and holds no close; where it stops is the
        first close, or ``len(prices)``.  Padding past the last window
        holds no skip, and every compare is on integers.
        """
        t_n, w = len(self.prices), self.grid.n + 1
        levels = t_n.bit_length()   # 2**(levels - 1) <= t_n < 2**levels
        lo = np.full((levels, t_n + 1), _BIG)
        hi = np.full((levels, t_n + 1, w), _NEG)
        lo[0, :t_n] = np.where(self.closed, self.hh, -1)
        need = self.s[:, None] - self.po_rev
        hi[0, :t_n] = np.where(self.po_has_rev,
                               np.where(self.hd >= need, 0, need), _BIG)
        for l in range(1, levels):
            h, end = 1 << (l - 1), t_n - (1 << l) + 1
            np.maximum(lo[l - 1, :end], lo[l - 1, h:h + end], out=lo[l, :end])
            np.minimum(hi[l - 1, :end], hi[l - 1, h:h + end], out=hi[l, :end])
        # Cursors as ticks and as flat (tick, quantity) indices of hi.
        hi = hi.reshape(levels, -1)
        tc, at = t_hat.copy(), t_hat * w + k
        for l in range(levels - 1, -1, -1):
            skip = (lo[l].take(tc) < a) & (hi[l].take(at) > a)
            tc += skip * (1 << l)
            at += skip * ((1 << l) * w)
        return tc

    def screen_drops(self, family: DeviationFamily, drop_ticks, low, cutoff):
        """Headline-drop policies (y, td): cap the headline at y from tick td.

        The headline is non-increasing, so from td on a policy's book is
        the headline-only book at t on k < y, the headline-only book at
        td - 1 on k > y (frozen), and on y the linear-price bid of the
        last tick s <= t whose headline is still at least y.  Each
        revenue is then a prefix maximum over k < y, the y entry and a
        suffix maximum over k > y, with no per-policy book.  Before td the
        book is the headline-only one, which first closes at ``t0``.

        A drop to y binds only where the headline at td is above y, so
        the last tick whose headline is still at least y is the same
        for every such td, and the y entry and everything below it
        form (tick, y) tables built once.  Each drop tick adds only its
        frozen book above y.  Returns as :meth:`screen_single_bids` does.
        """
        n = self.grid.n
        t_n = len(self.prices)
        ys = np.asarray(family.drop_quantities
                        if family.drop_quantities is not None
                        else range(0, self.grid.cap_index), dtype=np.int64)
        tq = np.asarray(drop_ticks, dtype=np.int64)
        bounds = np.full((ys.size, tq.size), -np.inf)
        # Drops after the close leave headline-only outcomes, and a drop
        # binds, before or at the close, exactly when the headline at td
        # is above y; otherwise it is headline-only play.
        live = [(j, td) for j, td in enumerate(tq.tolist())
                if (self.t0 is None or td <= self.t0)
                and (self.kpath[td] > ys).any()]
        if not live:
            return ys.size * tq.size, []
        pre_w = _before(self.pair_w, -np.inf)
        # Tables are quantity-major, (y, tick), so a drop tick takes rows.
        # The last tick whose headline is still >= y, and the y entry's
        # linear-price bid at every tick.
        last = np.searchsorted(-self.kpath, -ys, side="right") - 1
        at = np.minimum(last[:, None], np.arange(t_n))
        v_y = np.floor(self.prices[at] * ys[:, None] / n * self.scale + 0.5) \
            .astype(np.int64)
        po_rev, po_has = self.po_rev.T, self.po_has_rev.T
        pair_y = np.where(po_has[ys], v_y + po_rev[ys], _NEG)
        # Best pair revenue and best single acceptance on k <= y.
        hh_y = np.maximum(_before(self.pair_hh, _NEG)[:, ys].T, pair_y)
        s_y = np.maximum(np.maximum(_before(self.hd, _NEG)[:, ys].T, v_y),
                         self.max_o)
        for j, td in live:
            cols = np.nonzero(self.kpath[td] > ys)[0]
            y = ys[cols]
            # The bids of tick td - 1's book (none when td = 0) stay
            # frozen above y; those above y are f_k[above:].
            f_k = np.nonzero(self.md[td - 1])[0] if td else ys[:0]
            f_vals = self.dev_vals[td - 1, f_k]
            above = np.searchsorted(f_k, y, side="right")
            # Best frozen pair and bid from each frozen bid up, at every
            # tick from td; the last row holds none.
            pair_f = np.full((f_k.size + 1, t_n - td), _NEG)
            pair_f[:-1] = np.where(po_has[f_k, td:],
                                   f_vals[:, None] + po_rev[f_k, td:], _NEG)
            post_pair = _suffix_max(pair_f, 0)[above]
            post_hd = _suffix_max(np.append(f_vals, _NEG), 0)[above]
            hh_d = np.maximum(hh_y[cols, td:], post_pair)
            s_d = np.maximum(s_y[cols, td:], post_hd[:, None])
            closed = (hh_d > _NEG // 2) & (hh_d >= s_d)
            hit = closed.any(axis=1)
            cols, y, above = cols[hit], y[hit], above[hit]
            tc = td + np.argmax(closed[hit], axis=1)
            # Surplus ceiling, only at the close tick.
            at_f = (tc[:, None], f_k)
            w_f = np.full((y.size, f_k.size + 1), -np.inf)
            w_f[:, :-1] = np.where(self.po_has_rev[at_f], self.u_dev[f_k]
                                   + self.po_rev[at_f] / self.scale, -np.inf)
            w_post = _suffix_max(w_f, 1)[np.arange(y.size), above]
            w_y = np.where(self.po_has_rev[tc, y],
                           self.u_dev[y] + self.po_rev[tc, y] / self.scale,
                           -np.inf)
            w = np.maximum(np.maximum(pre_w[tc, y], w_y), w_post)
            bounds[cols, j] = w - self.r_floor[tc]
        return ys.size * tq.size, [
            (float(bounds[i, j]), Deviation(
                "drop", drop_price=float(self.prices[tq[j]]),
                drop_k=int(ys[i])))
            for i, j in zip(*np.nonzero(bounds - low > cutoff))]


def _before(a, fill):
    """Exclusive prefix maximum along the last axis: max of a[..., :k]."""
    out = np.full_like(a, fill)
    np.maximum.accumulate(a[..., :-1], axis=-1, out=out[..., 1:])
    return out


def _suffix_max(a, axis):
    """Inclusive suffix maximum along ``axis``: max of a[k:] there."""
    return np.flip(np.maximum.accumulate(np.flip(a, axis), axis), axis)


# -- the profile check ------------------------------------------------

def check_expost(profile: str, env: MarketEnv, config: AuctionConfig,
                 theta_grid: int = 11, family: DeviationFamily | None = None,
                 tol: float = 1e-4, replay_cap: int = 400,
                 stop_at_gain: float | None = None,
                 seats: tuple = (0, 1)) -> ExPostResult:
    """Search for profitable unilateral deviations from a strategy profile.

    For every ordered type pair on the grid and every seat, the family
    of deviations is screened against the profile and near-profitable
    members are replayed through the engine.  The profile is verified
    when no replayed gain exceeds ``tol``.  With ``stop_at_gain`` set,
    the sweep stops as soon as a replayed gain exceeds it (refutation
    mode).
    """
    family = family or DeviationFamily()
    make = STRATEGY_TAGS[profile]
    grid = config.grid
    _require_count("theta_grid", theta_grid)
    _require_count("replay_cap", replay_cap)
    if any(isinstance(s, bool) or not isinstance(s, numbers.Integral)
           for s in seats) or sorted(seats) not in ([0], [1], [0, 1]):
        raise ValueError(f"seats {seats!r} must be 0, 1 or both, once each")
    if config.start < 0:  # the screens assume non-negative prices and bids
        raise ValueError(f"config.start {config.start} must be non-negative")
    for name, legal in (("bid_quantities", range(1, grid.cap_index + 1)),
                        ("drop_quantities", range(grid.cap_index))):
        bad = [k for k in getattr(family, name) or () if k not in legal]
        if bad:
            raise ValueError(f"{name} {bad} outside {legal.start}.."
                             f"{legal.stop - 1}, the grid indices up to "
                             f"the cap")
    scale = config.money_scale
    thetas = env.distribution.grid(theta_grid)

    # The ladders hold exactly the engine's clock ticks.
    t_n = config.ticks
    prices = config.price(np.arange(t_n))
    t_hats = sorted({int(round(i)) for i in
                     np.linspace(0, t_n - 1, family.n_submit_prices)})
    drop_ticks = sorted({int(round(i)) for i in
                         np.linspace(0, t_n - 1, family.n_drop_prices)})

    base_model = env.models[0]
    models = {th: base_model.with_theta(th) for th in thetas}
    u_dev = {th: np.array([models[th].value(grid.share(k))
                           for k in range(grid.n + 1)]) for th in thetas}
    # One strategy instance per type: their price-indexed emissions are
    # memoized, so ladders, baselines and replays share the work.
    strat = {th: make(models[th], grid) for th in thetas}
    # Replays resume at the latest snapshot not past their divergence
    # tick, which is one of the family's submission or drop ticks.
    # Every type's full and headline-only ladders are rows of one state.
    snap_ticks = {0, *t_hats, *drop_ticks}
    ladder = _Ladder([strat[th] for th in thetas]
                     + [HeadlineOnly(strat[th]) for th in thetas], prices,
                     grid, scale, cap_ticks=t_hats, snap_ticks=snap_ticks)
    full = {th: i for i, th in enumerate(thetas)}
    head = {th: len(thetas) + i for i, th in enumerate(thetas)}

    run_cfg = replace(config, log_rounds=False)
    baselines = {}

    def baseline_run(th1, th2):
        # The profile's own runs against ``th2``, all in one lockstep run:
        # each first closes where its full ladders do, so it resumes from
        # their last snapshot not past that tick.
        if (th1, th2) not in baselines:
            rows, r2 = [full[th] for th in thetas], full[th2]
            closed = _closing_rows(ladder.values[rows],
                                   ladder.values[r2])[2]
            starts = [_resume_tick(ladder, _first_true(c)) for c in closed]
            outs = _run_lockstep([strat[th] for th in thetas], starts,
                                 strat[th2], ladder.snaps, rows, r2, 0,
                                 run_cfg)
            for th, out in zip(thetas, outs):
                baselines[th, th2] = out.surplus((models[th], models[th2]))
        return baselines[th1, th2]

    cutoff = tol / 2
    by_pair, replayed = {}, {}

    def screen_cell(seat, th_dev, th_opp):
        """``(baseline, members, top, truncated, t0)`` of one cell.  Screening
        is per type pair, against the lowest baseline of the searched seats;
        selection is per seat, against its own baseline."""
        if (th_dev, th_opp) not in by_pair:
            bases = {s: baseline_run(*((th_dev, th_opp) if s == 0
                                       else (th_opp, th_dev)))[s]
                     for s in seats}
            screen = _PairScreen(ladder, head[th_dev], full[th_opp], prices,
                                 grid, scale, u_dev[th_dev])
            t0, low = screen.t0, min(bases.values())
            (singles, bids), (drops, dropped) = (
                screen.screen_single_bids(family, t_hats, low, cutoff),
                screen.screen_drops(family, drop_ticks, low, cutoff))
            # The bare headline-only deviation first.
            found = [(-math.inf if t0 is None else float(screen.hh_opt[t0]),
                      Deviation("headline-only")), *bids, *dropped]
            by_pair[th_dev, th_opp] = cells = {}
            for s, base in bases.items():
                ranked = sorted(((b - base, dev) for b, dev in found
                                 if b - base > cutoff), key=lambda it: -it[0])
                cells[s] = (base, 1 + singles + drops, ranked[:replay_cap],
                            len(ranked) > replay_cap, t0)
        return by_pair[th_dev, th_opp][seat]

    def cell(seat, th_dev, th_opp):
        """A cell's screen and the outcomes of its replays.  Every cell
        against ``th_opp`` in ``seat`` replays in one lockstep run, unless
        the search may stop at the first gain over ``stop_at_gain``."""
        if (seat, th_dev, th_opp) not in replayed:
            group = thetas if stop_at_gain is None else [th_dev]
            found = [screen_cell(seat, th, th_opp) for th in group]
            for th, screened, outcomes in zip(group, found, _replay_cells(
                    seat, [([dev for _, dev in top], strat[th], head[th], t0)
                           for th, (*_, top, _, t0) in zip(group, found)],
                    strat[th_opp], ladder, full[th_opp], prices, run_cfg)):
                replayed[seat, th, th_opp] = screened, outcomes
        return replayed[seat, th_dev, th_opp]

    reports = {}
    max_gain = -math.inf
    replays = 0
    members = 0
    truncated = False

    for seat in seats:
        for th_dev in thetas:
            report = DeviationReport(deviator_theta=th_dev, seat=seat)
            reports[(th_dev, seat)] = report
            for th_opp in thetas:
                pair = (th_dev, th_opp) if seat == 0 else (th_opp, th_dev)
                (baseline, found, top, cut, _), outcomes = cell(seat, th_dev,
                                                               th_opp)
                report.baseline[th_opp] = baseline
                members += found
                truncated = truncated or cut
                pair_models = (models[pair[0]], models[pair[1]])
                best_here = -math.inf
                for (_, dev), out in zip(top, outcomes):
                    surplus = out.surplus(pair_models)[seat]
                    replays += 1
                    gain = surplus - baseline
                    if gain > best_here:
                        best_here = gain
                    if gain > report.best_gain:
                        report.best_gain = gain
                        report.best_opponent = th_opp
                        report.best_deviation = dev
                        report.best_surplus = surplus
                    if gain > max_gain:
                        max_gain = gain
                    if stop_at_gain is not None and gain > stop_at_gain:
                        report.by_opponent[th_opp] = gain
                        return ExPostResult(
                            profile, env.regime, tol, max_gain, False,
                            reports, replays, members, truncated)
                report.by_opponent[th_opp] = best_here if top else -math.inf
    if max_gain == -math.inf:
        max_gain = 0.0  # nothing screened above the cutoff anywhere
    return ExPostResult(profile, env.regime, tol, max_gain,
                        max_gain <= tol, reports, replays, members, truncated)


# -- closed-form deviation oracle --------------------------------------

def minimal_winning_bid(opponent_model: ValuationModel, x: float,
                        clock_price: float,
                        opponent_tag: str = "cmra-truthful") -> float:
    """Smallest amount that makes winning x revenue-maximizing.

    Against an opponent holding headline demand at the cap and bidding
    per ``opponent_tag`` ('cmra-truthful' or 'constant'), the bid on x
    must lift the split (x, 1-x) to the opponent's best single-bid
    revenue at the given clock price; clamped at zero.  Raises when the
    opponent holds no bid on 1 - x there.
    """
    lam = opponent_model.cap
    if x > lam + 1e-12:
        raise ValueError("quantity above the cap")
    partner = 1.0 - x
    if opponent_tag == "cmra-truthful":
        v = opponent_model.indirect_surplus(clock_price)
        if opponent_model.value(partner) < v - 1e-12:
            raise ValueError("opponent holds no bid on the residual share")
        partner_bid = opponent_model.value(partner) - v
        best_single = opponent_model.value(lam) - v
    elif opponent_tag == "constant":
        exit_price = opponent_model.value(lam) / lam
        best_single = min(clock_price, exit_price) * lam
        if abs(partner - lam) < 1e-12:
            partner_bid = best_single
        elif abs(partner - (1.0 - lam)) < 1e-12:
            if clock_price < opponent_model.final_price() - 1e-12:
                raise ValueError("opponent has not yet bid on 1 - cap")
            partner_bid = 0.0
        else:
            raise ValueError("opponent holds no bid on the residual share")
    else:
        raise ValueError(f"unsupported opponent strategy {opponent_tag!r}")
    return max(0.0, best_single - partner_bid)


# -- riskless demand reduction ------------------------------------------

def _require_normalized_linear(model: ValuationModel) -> None:
    """The collusion threshold needs U linear in theta with unit spread."""
    lam = model.cap
    for th in (0.3, 0.7, 1.0):
        m = model.with_theta(th)
        spread = m.value(lam) - m.value(1.0 - lam)
        if abs(spread - th) > 1e-9:
            raise AssumptionViolation(
                "valuation family must satisfy U(cap) - U(1-cap) = theta")
        if abs(m.value(0.4) - th * model.with_theta(1.0).value(0.4)) > 1e-9:
            raise AssumptionViolation("valuation family must be linear in theta")


def rdr_threshold(env: MarketEnv) -> float:
    """Expected-opponent-type threshold sustaining riskless demand reduction.

    Both bidders splitting the supply in half at a price of zero is a
    Bayes-Nash equilibrium iff E(theta) >= U(cap; theta_hi) - U(1/2; theta_hi)
    for the top type theta_hi of the support.
    """
    model = env.models[0]
    _require_normalized_linear(model)
    top = model.theta_support[1]
    m = model.with_theta(top)
    return m.value(env.cap) - m.value(0.5)


@dataclass
class RdrBneReport:
    threshold: float
    mean_type: float
    holds: bool
    binding_theta: float
    slack_at_top: float
    min_slack: float
    quad_deviation_payoff: float
    mc_deviation_payoff: float
    mc_stderr: float
    mc_agrees: bool
    engine_checked: int
    engine_max_err: float


def _uniform_partial_mean(lo: float, hi: float, t: float) -> float:
    """E[theta; theta <= t] for theta uniform on [lo, hi] and t in it."""
    return 0.5 * (t - lo) * (t + lo) / (hi - lo)


def check_rdr_bne(env: MarketEnv, samples: int = 100_000, seed: int = 0,
                  config: AuctionConfig | None = None,
                  theta_points: int = 41, engine_samples: int = 200
                  ) -> RdrBneReport:
    """Collusion incentive check, exact and by Monte Carlo.

    For each deviator type the collusive payoff U(1/2) is compared with
    the expected payoff of abandoning the reduction (which reverts play
    to the constant-strategy outcome): F(t)*t + U(1-cap) - E[theta_j;
    theta_j <= t].  The same deviation payoff is estimated by Monte
    Carlo over opponent types, with a seeded subsample re-run through
    the actual auction engine to pin the per-draw outcome formula.
    """
    model = env.models[0]
    _require_normalized_linear(model)
    dist = env.distribution
    _require_count("theta_points", theta_points)
    _require_count("samples", samples, least=2)
    _require_count("engine_samples", engine_samples, least=0)
    lo, hi = dist.support
    lam = env.cap

    def deviation(t):
        partial = _uniform_partial_mean(lo, hi, t)
        return dist.cdf(t) * t + model.with_theta(t).value(1.0 - lam) - partial

    def ic_slack(t):
        return model.with_theta(t).value(0.5) - deviation(t)

    thetas = dist.grid(theta_points)
    slacks = [ic_slack(t) for t in thetas]
    # Ties in the minimum go to the strongest type: it is the one whose
    # incentive constraint the threshold condition is built around.
    min_i = len(slacks) - 1 - int(np.argmin(slacks[::-1]))
    m_top = model.with_theta(hi)
    quad_dev = deviation(hi)

    # Monte Carlo for the top type: draw opponents, apply the per-draw
    # outcome, and validate the outcome formula on an engine subsample.
    rng = np.random.default_rng(seed)
    draws = dist.sample(rng, samples)
    m_one = model.with_theta(1.0)
    spread = m_one.value(lam) - m_one.value(1.0 - lam)
    payoff = np.where(
        draws <= hi,
        m_top.value(lam) - draws * spread,
        m_top.value(1.0 - lam))
    mc_mean = float(payoff.mean())
    mc_se = float(payoff.std(ddof=1) / math.sqrt(samples))

    engine_max_err = 0.0
    checked = 0
    if config is not None and engine_samples > 0:
        make_const = STRATEGY_TAGS["constant"]
        make_rdr = STRATEGY_TAGS["rdr"]
        grid = config.grid
        run_cfg = replace(config, log_rounds=False)
        for th_j in draws[:engine_samples]:
            opp = model.with_theta(float(th_j))
            out = run_cmra(make_const(m_top, grid), make_rdr(opp, grid),
                           env, run_cfg)
            got = out.surplus((m_top, opp))[0]
            want = m_top.value(lam) - float(th_j) * spread if th_j <= hi \
                else m_top.value(1.0 - lam)
            engine_max_err = max(engine_max_err, abs(got - want))
            checked += 1

    return RdrBneReport(
        threshold=rdr_threshold(env),
        mean_type=dist.mean(),
        holds=min(slacks) >= -1e-9,
        binding_theta=thetas[min_i],
        slack_at_top=ic_slack(hi),
        min_slack=min(slacks),
        quad_deviation_payoff=quad_dev,
        mc_deviation_payoff=mc_mean,
        mc_stderr=mc_se,
        mc_agrees=abs(mc_mean - quad_dev) <= 3.0 * mc_se + 1e-12,
        engine_checked=checked,
        engine_max_err=engine_max_err)


# -- VCG equivalence ----------------------------------------------------

def vcg_equivalence_check(env: MarketEnv, config: AuctionConfig,
                          payment_tol: float | None = None) -> dict:
    """Compare auction outcomes under truthful and constant profiles with VCG.

    Valid in the non-decreasing regime, where both profiles end with the
    strong bidder on the cap paying the weak bidder's spread and the
    weak bidder taking the residual share for free.
    """
    from .valuation import vcg_outcome

    if env.regime != "non-decreasing":
        raise AssumptionViolation("VCG equivalence holds in the non-decreasing regime")
    tol = payment_tol if payment_tol is not None else 2 * config.eps
    grid = config.grid
    run_cfg = replace(config, log_rounds=False)
    want = vcg_outcome(env)
    report = {"vcg": want, "profiles": {}, "all_match": True}
    for tag in ("cmra-truthful", "constant"):
        make = STRATEGY_TAGS[tag]
        out = run_cmra(make(env.models[0], grid), make(env.models[1], grid),
                       env, run_cfg)
        alloc_ok = out.quantities is not None and all(
            abs(q - w) < 1e-9 for q, w in zip(out.quantities, want.quantities))
        pay_ok = all(abs(p - w) <= tol for p, w in zip(out.payments, want.payments))
        report["profiles"][tag] = {
            "outcome": out, "allocation_match": alloc_ok, "payment_match": pay_ok}
        report["all_match"] = report["all_match"] and alloc_ok and pay_ok
    return report
