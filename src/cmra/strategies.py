"""The four proxy bidding strategies as price-indexed emitters.

A proxy strategy commits, in advance, a headline demand for every clock
price and a set of additional package bids for every clock price.  The
engine queries both at a price or a run of prices (``emissions``);
emissions are pure functions of the price, so re-querying (e.g. while
bisecting a closing price) is idempotent; the bid book keeps running maxima.

The four families:

* clock-truthful: truthful headline demand, no additional bids.
* cmra-truthful: truthful headline demand plus, at every price, an
  additional bid on each grid quantity that leaves the bidder exactly
  indifferent to the headline outcome (amount = U(x) - V(p), emitted
  wherever that is non-negative).
* constant: headline at the cap while individually rational, plus a
  single zero bid on the residual share 1-cap once the clock reaches
  the bidder's indifference price.
* rdr (riskless demand reduction): the constant strategy plus a zero
  bid on half the supply from the very first round.
"""

from __future__ import annotations

import math

import numpy as np

from .bidbook import QuantityGrid
from .valuation import AssumptionViolation, ValuationModel

__all__ = [
    "ProxyStrategy",
    "clock_truthful",
    "cmra_truthful",
    "constant_strategy",
    "rdr_strategy",
    "STRATEGY_TAGS",
]

# Emitted arrays are read-only: round logs keep references to them.
def _read_only(ks, amounts) -> tuple:
    result = (np.asarray(ks, dtype=np.int64), np.asarray(amounts, dtype=float))
    for array in result:
        array.setflags(write=False)
    return result


_EMPTY_KS, _EMPTY_AMTS = _read_only([], [])


class ProxyStrategy:
    """Base class: bound valuation model + quantity grid."""

    tag = "abstract"

    def __init__(self, model: ValuationModel, grid: QuantityGrid):
        if abs(model.cap - grid.cap) > 1e-12:
            raise ValueError("model cap and grid cap disagree")
        self.model = model
        self.grid = grid

    def headline_index(self, p: float) -> int:
        raise NotImplementedError

    def additional_bid_arrays(self, p: float):
        return _EMPTY_KS, _EMPTY_AMTS

    def emissions(self, prices) -> list:
        """Each price's emission ``(headline_k, ks, amounts)``, in order."""
        return [(self.headline_index(p), *self.additional_bid_arrays(p))
                for p in prices]

    def _snap(self, x: float) -> int:
        k = int(math.floor(x * self.grid.n + 0.5))
        return min(k, self.grid.cap_index)

    def __repr__(self):
        return f"{type(self).__name__}(theta={self.model.theta})"


class ClockTruthful(ProxyStrategy):
    """Truthful headline demands at every clock price, no additional bids."""

    tag = "clock-truthful"

    def __init__(self, model, grid):
        super().__init__(model, grid)
        self._h_memo: dict = {}

    def headline_index(self, p: float) -> int:
        if p not in self._h_memo:
            self._solve_run([p])
        return self._h_memo[p]

    def emissions(self, prices) -> list:
        """One ``_solve_run`` of the run's distinct unmemoized prices."""
        missing = [p for p in dict.fromkeys(prices) if p not in self._h_memo]
        if missing:
            self._solve_run(missing)
        return super().emissions(prices)

    def _solve_run(self, prices) -> None:
        for p in prices:
            self._h_memo[p] = self._snap(self.model.truthful_demand(p))


class CmraTruthful(ClockTruthful):
    """Truthful headline demands plus surplus-indifferent additional bids."""

    tag = "cmra-truthful"

    def __init__(self, model, grid):
        super().__init__(model, grid)
        ks = np.arange(grid.cap_index + 1, dtype=np.int64)
        ks.setflags(write=False)  # emissions are views of it
        self._ks = ks
        self._shares = ks / grid.n
        self._values = np.array([model.value(x) for x in self._shares])
        # The emitted quantities, where U(x) >= V(p), are then a suffix.
        if (np.diff(self._values) < 0).any():
            raise AssumptionViolation(
                "cmra-truthful needs a value non-decreasing on the grid")
        self._a_memo: dict = {}

    def additional_bid_arrays(self, p: float):
        if p not in self._a_memo:
            self._solve_run([p])
        return self._a_memo[p]

    def _solve_run(self, prices) -> None:
        # Demands and V(p) = indirect_surplus(p) stay scalar; each row of the
        # bid block is a lone price's float operations; the slack guards noise.
        model, values = self.model, self._values
        demands = [model.truthful_demand(p) for p in prices]
        v = np.array([model.value(h) - p * h for p, h in zip(prices, demands)])
        starts = values.searchsorted(v - 1e-12).tolist()
        lo = min(starts)
        block = values[lo:] - v[:, None]
        np.minimum(block, np.array(prices)[:, None] * self._shares[lo:],
                   out=block)
        np.maximum(block, 0.0, out=block).setflags(write=False)
        for p, h, i, row in zip(prices, demands, starts, block):
            self._h_memo[p] = self._snap(h)
            self._a_memo[p] = (self._ks[i:], row[i - lo:])


class ConstantBidding(ProxyStrategy):
    """Cap headline while individually rational; one zero bid on 1-cap."""

    tag = "constant"

    def __init__(self, model, grid):
        super().__init__(model, grid)
        self._exit_price = model.value(model.cap) / model.cap
        self._final_price = model.final_price()
        # The bids before the final price and from it on.
        self._early = (_EMPTY_KS, _EMPTY_AMTS)
        self._late = _read_only([grid.index(1.0 - model.cap)], [0.0])

    def headline_index(self, p: float) -> int:
        return self.grid.cap_index if p <= self._exit_price else 0

    def additional_bid_arrays(self, p: float):
        return self._late if p >= self._final_price - 1e-15 else self._early


class RisklessDemandReduction(ConstantBidding):
    """Constant strategy plus a first-round zero bid on half the supply."""

    tag = "rdr"

    def __init__(self, model, grid):
        super().__init__(model, grid)
        # A zero bid on half the supply ahead of the constant strategy's.
        self._early, self._late = (
            _read_only([grid.n // 2, *ks], [0.0, *amounts])
            for ks, amounts in (self._early, self._late))


clock_truthful, cmra_truthful = ClockTruthful, CmraTruthful
constant_strategy, rdr_strategy = ConstantBidding, RisklessDemandReduction

STRATEGY_TAGS = {cls.tag: cls for cls in (ClockTruthful, CmraTruthful,
                                          ConstantBidding,
                                          RisklessDemandReduction)}
