"""The four proxy bidding strategies as price-indexed emitters.

A proxy strategy commits, in advance, a headline demand for every clock
price and a set of additional package bids for every clock price.  The
engine queries both at each round; emissions are pure functions of the
price, so re-querying (e.g. while bisecting a closing price) is
idempotent; the bid book keeps running maxima.

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
from .valuation import ValuationModel

__all__ = [
    "ProxyStrategy",
    "clock_truthful",
    "cmra_truthful",
    "constant_strategy",
    "rdr_strategy",
    "STRATEGY_TAGS",
]

# Emitted arrays that are shared or memoized are read-only: round logs
# keep references to them.
_EMPTY_KS = np.empty(0, dtype=np.int64)
_EMPTY_AMTS = np.empty(0, dtype=float)
_EMPTY_KS.setflags(write=False)
_EMPTY_AMTS.setflags(write=False)


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

    def _snap(self, x: float) -> int:
        k = int(math.floor(x * self.grid.n + 0.5))
        return min(k, self.grid.cap_index)

    def __repr__(self):
        return f"{type(self).__name__}(theta={self.model.theta})"


class ClockTruthful(ProxyStrategy):
    tag = "clock-truthful"

    def __init__(self, model, grid):
        super().__init__(model, grid)
        self._h_memo: dict = {}

    def headline_index(self, p: float) -> int:
        k = self._h_memo.get(p)
        if k is None:
            k = self._snap(self.model.truthful_demand(p))
            self._h_memo[p] = k
        return k


class CmraTruthful(ClockTruthful):
    tag = "cmra-truthful"

    def __init__(self, model, grid):
        super().__init__(model, grid)
        ks = np.arange(grid.cap_index + 1, dtype=np.int64)
        self._ks = ks
        self._shares = ks / grid.n
        self._values = np.array([model.value(x) for x in self._shares])
        self._a_memo: dict = {}

    def additional_bid_arrays(self, p: float):
        hit = self._a_memo.get(p)
        if hit is not None:
            return hit
        v = self.model.indirect_surplus(p)
        mask = self._values >= v - 1e-12
        # Indifference amounts, kept under the linear price rule; the
        # tiny slack only guards float noise at the domain edge.
        amounts = np.minimum(self._values[mask] - v, p * self._shares[mask])
        result = (self._ks[mask], np.maximum(amounts, 0.0))
        for array in result:
            array.setflags(write=False)
        self._a_memo[p] = result
        return result


class ConstantBidding(ProxyStrategy):
    tag = "constant"

    def __init__(self, model, grid):
        super().__init__(model, grid)
        self._exit_price = model.value(model.cap) / model.cap
        self._final_price = model.final_price()
        self._residual_k = grid.index(1.0 - model.cap)

    def headline_index(self, p: float) -> int:
        return self.grid.cap_index if p <= self._exit_price else 0

    def additional_bid_arrays(self, p: float):
        if p >= self._final_price - 1e-15:
            return (np.array([self._residual_k], dtype=np.int64),
                    np.array([0.0]))
        return _EMPTY_KS, _EMPTY_AMTS


class RisklessDemandReduction(ConstantBidding):
    tag = "rdr"

    def __init__(self, model, grid):
        super().__init__(model, grid)
        self._half_k = grid.n // 2

    def additional_bid_arrays(self, p: float):
        ks, amounts = super().additional_bid_arrays(p)
        return (np.concatenate(([self._half_k], ks)),
                np.concatenate(([0.0], amounts)))


def clock_truthful(model: ValuationModel, grid: QuantityGrid) -> ProxyStrategy:
    """Truthful headline demands at every clock price, no additional bids."""
    return ClockTruthful(model, grid)


def cmra_truthful(model: ValuationModel, grid: QuantityGrid) -> ProxyStrategy:
    """Truthful headline demands plus surplus-indifferent additional bids."""
    return CmraTruthful(model, grid)


def constant_strategy(model: ValuationModel, grid: QuantityGrid) -> ProxyStrategy:
    """Cap headline while individually rational; one zero bid on 1-cap."""
    return ConstantBidding(model, grid)


def rdr_strategy(model: ValuationModel, grid: QuantityGrid) -> ProxyStrategy:
    """Constant strategy plus a first-round zero bid on half the supply."""
    return RisklessDemandReduction(model, grid)


STRATEGY_TAGS = {
    "clock-truthful": clock_truthful,
    "cmra-truthful": cmra_truthful,
    "constant": constant_strategy,
    "rdr": rdr_strategy,
}
