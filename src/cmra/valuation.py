"""Parametric valuation families and the closed-form quantities built on them.

Everything downstream (bidding strategies, the auction engine, the
verification suites) consumes valuations through this module: utility
levels U(x), marginal values u(x), indirect surplus V(p), truthful
demand, efficient allocations, and the VCG benchmark.

Conventions: the supply is one unit of a divisible good, quantities are
shares x in [0, 1], prices are money per unit share, and each bidder can
win at most ``cap`` shares with cap in (1/2, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .bidbook import _require_real

__all__ = [
    "AssumptionViolation",
    "ValuationModel",
    "TypeDistribution",
    "MarketEnv",
    "efficient_allocation",
    "vcg_outcome",
    "VcgOutcome",
]

DECREASING = "decreasing"
NON_DECREASING = "non-decreasing"

_BISECT_TOL = 1e-10


class AssumptionViolation(ValueError):
    """A model or environment breaks one of the maintained assumptions."""


def _bisect(f, lo: float, hi: float, tol: float = _BISECT_TOL) -> float:
    """Root of a monotone function on [lo, hi] to absolute tolerance on x."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise AssumptionViolation(
            f"root not bracketed on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ValuationModel:
    """One bidder's utility function U(x; theta) on quantity shares.

    family is one of 'quadratic-decreasing', 'power' or
    'custom-polynomial'; ``coeffs`` is family specific (see the
    constructors below).  ``regime`` tags whether marginal values are
    decreasing or non-decreasing on [0, cap].  A ``theta``, ``cap`` or
    coefficient that is not a finite real number raises ``ValueError``.
    """

    family: str
    coeffs: tuple
    theta: float
    cap: float
    regime: str
    theta_support: tuple = (0.0, 1.0)

    # -- constructors ------------------------------------------------

    @classmethod
    def quadratic(cls, theta: float, curvature: float = 0.5, cap: float = 0.9,
                  theta_support: tuple = (0.0, 1.0)) -> "ValuationModel":
        """U(x) = theta*x - curvature*x^2 with strictly decreasing marginals."""
        _require_real(theta=theta, curvature=curvature, cap=cap)
        if curvature <= 0:
            raise ValueError("curvature must be positive for the quadratic family")
        m = cls("quadratic-decreasing", (curvature,), theta, cap, DECREASING,
                theta_support)
        m._validate()
        return m

    @classmethod
    def power(cls, alpha: float, cap: float = 0.75, theta: float = 1.0,
              theta_support: tuple = (0.0, 1.0)) -> "ValuationModel":
        """U(x) = theta * x^alpha / (cap^alpha - (1-cap)^alpha).

        The denominator normalizes the spread so that
        U(cap) - U(1-cap) = theta.  alpha > 1 gives increasing
        marginals, alpha = 1 constant, alpha < 1 decreasing.
        """
        _require_real(alpha=alpha, cap=cap, theta=theta)
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if cap <= 0.5:
            raise ValueError("power-family normalization needs cap > 1/2")
        regime = DECREASING if alpha < 1 else NON_DECREASING
        m = cls("power", (alpha,), theta, cap, regime, theta_support)
        m._validate()
        return m

    @classmethod
    def polynomial(cls, coeffs: tuple, theta: float = 1.0, cap: float = 0.75,
                   regime: str | None = None, theta_support: tuple = (0.0, 1.0),
                   validate_regime: bool = True) -> "ValuationModel":
        """U(x) = theta * (c1*x + c2*x^2 + c3*x^3), degree <= 3, U(0) = 0.

        The regime is validated numerically on a 1e-3 grid restricted to
        [0, cap]; pass ``validate_regime=False`` for illustrative shapes
        whose marginals are not monotone there.
        """
        if len(coeffs) != 3:
            raise ValueError("coeffs must be (c1, c2, c3)")
        _require_real(**dict(zip(("c1", "c2", "c3"), coeffs)), theta=theta,
                      cap=cap)
        c = tuple(float(v) for v in coeffs)
        if regime is None:
            probe = cls("custom-polynomial", c, theta, cap, DECREASING,
                        theta_support)
            if validate_regime:
                regime = probe._infer_regime()
            else:
                # Illustrative shapes: classify by the endpoint slope only.
                regime = DECREASING if probe.marginal(cap) < probe.marginal(0.0) \
                    else NON_DECREASING
        m = cls("custom-polynomial", c, theta, cap, regime, theta_support)
        m._validate(check_regime=validate_regime)
        return m

    def with_theta(self, theta: float) -> "ValuationModel":
        return replace(self, theta=theta)

    # -- closed forms ------------------------------------------------

    def value(self, x: float) -> float:
        """Utility U(x) of winning quantity share x."""
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"quantity {x} outside [0, 1]")
        if self.family == "quadratic-decreasing":
            (g,) = self.coeffs
            return self.theta * x - g * x * x
        if self.family == "power":
            (a,) = self.coeffs
            return self.theta * x ** a / self._power_norm()
        c1, c2, c3 = self.coeffs
        return self.theta * (c1 * x + c2 * x * x + c3 * x ** 3)

    def marginal(self, x: float) -> float:
        """Marginal value u(x) = dU/dx."""
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"quantity {x} outside [0, 1]")
        if self.family == "quadratic-decreasing":
            (g,) = self.coeffs
            return self.theta - 2.0 * g * x
        if self.family == "power":
            (a,) = self.coeffs
            if x == 0.0:
                return math.inf if a < 1 else (self.theta * a / self._power_norm()
                                               if a == 1 else 0.0)
            return self.theta * a * x ** (a - 1.0) / self._power_norm()
        c1, c2, c3 = self.coeffs
        return self.theta * (c1 + 2.0 * c2 * x + 3.0 * c3 * x * x)

    def _power_norm(self) -> float:
        (a,) = self.coeffs
        return self.cap ** a - (1.0 - self.cap) ** a

    def truthful_demand(self, p: float) -> float:
        """Utility-maximizing quantity at linear price p, restricted to [0, cap].

        Decreasing regime: the unique interior solution of u(x) = p
        clamped to [0, cap].  Non-decreasing regime: the cap while it
        yields strictly positive surplus, zero from the indifference
        price U(cap)/cap on (so the clock stops exactly when value is
        exhausted).
        """
        if p < 0:
            raise ValueError("price must be non-negative")
        lam = self.cap
        if self.regime == NON_DECREASING:
            # All-or-nothing: take the cap while it yields strictly positive
            # surplus; demand drops to zero exactly at p = U(cap)/cap.
            return lam if self.value(lam) - p * lam > 0.0 else 0.0
        if self.marginal(lam) >= p:
            return lam
        if self.marginal(0.0) <= p and self.family != "power":
            return 0.0
        if self.family == "power" and self.value(lam) == 0.0:
            return 0.0
        return self._root(p, 1e-300 if self.family == "power" else 0.0, lam)

    def _root(self, p: float, lo: float, hi: float) -> float:
        """``_bisect(lambda x: self.marginal(x) - p, lo, hi)``, u(x) - p written
        out per family in ``marginal``'s float operations and order: no call,
        range check or family test per step; a zero midpoint ends it as lo."""
        flo, fhi = self.marginal(lo) - p, self.marginal(hi) - p
        if flo == 0.0 or fhi == 0.0 or flo * fhi > 0.0:  # _bisect's exits
            return _bisect(lambda x: self.marginal(x) - p, lo, hi)
        t, tol, fm = self.theta, _BISECT_TOL, flo
        if self.family == "quadratic-decreasing":
            s = 2.0 * self.coeffs[0]
            while fm != 0.0 and hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fm = t - s * mid - p
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
        elif self.family == "power":
            (a,) = self.coeffs
            ta, e, norm = t * a, a - 1.0, self._power_norm()
            while fm != 0.0 and hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fm = ta * mid ** e / norm - p
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
        else:
            c1, c2, c3 = self.coeffs
            d2, d3 = 2.0 * c2, 3.0 * c3
            while fm != 0.0 and hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fm = t * (c1 + d2 * mid + d3 * mid * mid) - p
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
        return lo if fm == 0.0 else 0.5 * (lo + hi)

    def indirect_surplus(self, p: float) -> float:
        """V(p) = max over x in [0, cap] of U(x) - p*x."""
        h = self.truthful_demand(p)
        return self.value(h) - p * h

    def final_price(self) -> float:
        """Price at which winning cap at linear prices ties winning 1-cap for free.

        Equals (U(cap) - U(1-cap)) / cap; under the power family's
        normalization this is theta / cap.
        """
        lam = self.cap
        return (self.value(lam) - self.value(1.0 - lam)) / lam

    # -- validation --------------------------------------------------

    def _infer_regime(self) -> str:
        xs = [i * 1e-3 for i in range(int(self.cap / 1e-3) + 1)]
        ms = [self.marginal(x) for x in xs if x <= self.cap]
        dec = all(b < a for a, b in zip(ms, ms[1:]))
        nondec = all(b >= a for a, b in zip(ms, ms[1:]))
        if dec:
            return DECREASING
        if nondec:
            return NON_DECREASING
        raise AssumptionViolation(
            "marginal values are neither decreasing nor non-decreasing on [0, cap]"
        )

    def _validate(self, check_regime: bool = True) -> None:
        if not 0.0 < self.cap < 1.0:
            raise ValueError("cap must lie in (0, 1)")
        ms = [self.marginal(min(i * 1e-3, self.cap))
              for i in range(1, int(self.cap / 1e-3) + 1)]
        if any(m <= 0.0 for m in ms):
            raise AssumptionViolation("marginal values must be strictly positive on (0, cap]")
        if not check_regime:
            return
        if self.regime == DECREASING:
            ok = all(b < a + 1e-12 for a, b in zip(ms, ms[1:]))
        else:
            ok = all(b >= a - 1e-12 for a, b in zip(ms, ms[1:]))
        if not ok:
            raise AssumptionViolation(
                f"declared regime {self.regime!r} violated on [0, cap]"
            )


@dataclass(frozen=True)
class TypeDistribution:
    """Uniform type distribution: ``kind`` is "uniform", ``support`` is
    ``(lo, hi)``, two finite real numbers with lo <= hi (a point mass for
    lo = hi).  Anything else raises ``ValueError``."""

    kind: str = "uniform"
    support: tuple = (0.0, 1.0)

    def __post_init__(self):
        if self.kind != "uniform":
            raise ValueError(f"type distribution kind must be 'uniform', "
                             f"not {self.kind!r}")
        if not (isinstance(self.support, (tuple, list))
                and len(self.support) == 2):
            raise ValueError(f"type support must be (lo, hi), "
                             f"not {self.support!r}")
        lo, hi = self.support
        _require_real(support_lo=lo, support_hi=hi)
        if lo > hi:
            raise ValueError(f"type support ({lo}, {hi}) has lo > hi")
        object.__setattr__(self, "support", (lo, hi))

    def mean(self) -> float:
        lo, hi = self.support
        return 0.5 * (lo + hi)

    def cdf(self, t: float) -> float:
        lo, hi = self.support
        if t <= lo:
            return 0.0
        if t >= hi:
            return 1.0
        return (t - lo) / (hi - lo)

    def grid(self, n: int) -> list:
        """``n`` evenly spaced types over the support; its midpoint for 1."""
        if n < 1:
            raise ValueError(f"a type grid needs at least 1 point, not {n}")
        lo, hi = self.support
        if n == 1:
            return [0.5 * (lo + hi)]
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    def pdf(self, t: float) -> float:
        lo, hi = self.support
        return 1.0 / (hi - lo) if lo <= t <= hi else 0.0

    def sample(self, rng, n: int):
        lo, hi = self.support
        return lo + (hi - lo) * rng.random(n)


@dataclass(frozen=True)
class MarketEnv:
    """Two bidders, a unit supply, and a common quantity cap in (1/2, 1)."""

    models: tuple
    cap: float
    distribution: TypeDistribution = field(default_factory=TypeDistribution)

    def __post_init__(self):
        if not 0.5 < self.cap < 1.0:
            raise AssumptionViolation("cap must lie in (1/2, 1)")
        if len(self.models) != 2:
            raise ValueError("exactly two bidders are supported")
        for m in self.models:
            if abs(m.cap - self.cap) > 1e-12:
                raise ValueError("model cap inconsistent with environment cap")

    @property
    def regime(self) -> str:
        r1, r2 = (m.regime for m in self.models)
        if r1 != r2:
            raise AssumptionViolation("bidders must share a marginal-value regime")
        return r1


def efficient_allocation(env: MarketEnv) -> tuple:
    """Welfare-maximizing split (x1, x2) of the unit supply under the cap.

    Decreasing regime: the interior point equating marginal values.
    Non-decreasing regime: the weakly stronger bidder takes the cap; ties
    go to bidder 1.
    """
    m1, m2 = env.models
    lam = env.cap
    if env.regime == DECREASING:
        x1 = _bisect(lambda x: m1.marginal(x) - m2.marginal(1.0 - x),
                     1.0 - lam, lam)
        return (x1, 1.0 - x1)
    if m1.theta >= m2.theta:
        return (lam, 1.0 - lam)
    return (1.0 - lam, lam)


@dataclass(frozen=True)
class VcgOutcome:
    quantities: tuple
    payments: tuple

    @property
    def revenue(self) -> float:
        return sum(self.payments)


def vcg_outcome(env: MarketEnv) -> VcgOutcome:
    """Efficient allocation with externality payments.

    Each bidder pays the opponent's capped stand-alone value minus the
    opponent's value at the efficient allocation.  In the non-decreasing
    regime this reduces to the strong bidder paying
    U_weak(cap) - U_weak(1-cap) and the weak bidder paying zero.
    """
    m1, m2 = env.models
    lam = env.cap
    x1, x2 = efficient_allocation(env)
    pay1 = m2.value(lam) - m2.value(x2)
    pay2 = m1.value(lam) - m1.value(x1)
    return VcgOutcome((x1, x2), (max(0.0, pay1), max(0.0, pay2)))
