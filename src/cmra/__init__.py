"""Simulation and verification engine for the CMRA spectrum auction format.

The package simulates the Combinatorial Multi-Round Ascending auction
(a clock auction with per-round pay-as-bid package bids and a
revenue-maximization closing rule) under proxy bidding strategies,
solves the per-round closing problem exactly in integer money units,
and numerically verifies equilibrium, efficiency and revenue claims
about the format at desk scale.
"""

from .valuation import (
    AssumptionViolation, MarketEnv, TypeDistribution, ValuationModel,
    VcgOutcome, efficient_allocation, vcg_outcome,
)
from .bidbook import (
    MICRO, ActivityCapViolation, AdditionalBid, BidBook, BidError,
    CapExceeded, NonMonotoneHeadline, OverLinearPrice, QuantityGrid,
    money_units,
)
from .mechanism import (
    AuctionConfig, AuctionOutcome, ClosingResult, closing_from_arrays,
    revenue_curve, run_clock, run_cmra, solve_closing,
)
from .roundlog import RoundLog
from .strategies import (
    STRATEGY_TAGS, ProxyStrategy, clock_truthful, cmra_truthful,
    constant_strategy, rdr_strategy,
)
from .equilibrium import (
    Deviation, DeviationFamily, DeviationReport, ExPostResult, RdrBneReport,
    check_expost, check_rdr_bne, minimal_winning_bid, rdr_threshold,
    replay_deviation, vcg_equivalence_check,
)
from .audit import AuctionAuditRecord, AuditResult, audit_linear_prices
from .scenarios import (Scenario, ScenarioError, bundled_audit_record,
                        bundled_scenario_path, export_figure_data, run_scenario)
from .verify import CLAIMS, ClaimResult, format_matrix, run_claim, strategy_matrix

__version__ = "0.1.0"
