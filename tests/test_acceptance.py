"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS/FAIL line for its criterion; the slow
deviation battery is criterion 4 and dominates the suite's runtime.
Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines.
"""

import time

from cmra.equilibrium import DeviationFamily
from cmra.verify import (claim_danish_audits, claim_expost_battery,
                         claim_lots_example, claim_rdr_threshold,
                         claim_truthful_decreasing,
                         claim_truthful_nondecreasing, claim_vcg_equivalence)
from test_properties import TestBidBookLaws as _BookLaws
from test_properties import TestClosingSolverEquivalence as _SolverEquiv
from test_properties import TestEpsilonConvergence as _EpsConv


BATTERY_CELLS = {
    "cmra-truthful/non-decreasing": (11794, 3524972, 5.551115123125783e-17),
    "constant/non-decreasing": (7642, 3524972, 5.551115123125783e-17),
    "constant/decreasing": (1084, 4229918, 8.326672684688674e-17),
    "cmra-truthful/decreasing": (1664, 209748, 0.0036009999999999653),
    "clock-truthful/decreasing": (343, 17479, 0.23375),
    "clock-truthful/non-decreasing": (2, 14566, 0.0125),
}


def report(criterion, ok, elapsed, limit, detail=""):
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] criterion {criterion}: {detail} "
          f"({elapsed:.1f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {criterion} failed: {detail}"


def timed(fn, *args, **kwargs):
    t0 = time.time()
    out = fn(*args, **kwargs)
    return out, time.time() - t0


class TestAcceptance:
    def test_criterion_1_illustrative_example(self, capsys):
        result, dt = timed(claim_lots_example)
        with capsys.disabled():
            report(1, result.passed and dt < 1.0, dt, 1,
                   "four-lot market: clock $90 / truthful CMRA $60 / "
                   "collusion $0, exact money")

    def test_criterion_2_decreasing_marginals(self, capsys):
        result, dt = timed(claim_truthful_decreasing)
        with capsys.disabled():
            report(2, result.passed and dt < 10.0, dt, 10,
                   "decreasing marginals: clearing at 0.65, earlier "
                   "efficient close matching the balance root to 1e-6")

    def test_criterion_3_nondecreasing_marginals(self, capsys):
        result, dt = timed(claim_truthful_nondecreasing)
        with capsys.disabled():
            report(3, result.passed and dt < 10.0, dt, 10,
                   "increasing marginals: excess supply under clock play, "
                   "market clearing at the weak final price under truthful")

    def test_criterion_4_deviation_battery(self, capsys):
        result, dt = timed(claim_expost_battery, theta_grid=11, tol=1e-4,
                           refute_gain=1e-3, family=DeviationFamily())
        with capsys.disabled():
            for line in result.lines:
                print("   ", line)
            report(4, result.passed and dt < 300.0, dt, 300,
                   "11x11 grid: truthful/constant verified at 1e-4, "
                   "decreasing-regime and clock profiles refuted at 1e-3")
        # Pinned per cell: replays and members fix the screen and the
        # replay order, the max gain the replayed outcomes.
        got = {key: (r.replays, r.members, r.max_gain)
               for key, r in result.data["results"].items()}
        assert got == BATTERY_CELLS

    def test_criterion_5_vcg_equivalence(self, capsys):
        result, dt = timed(claim_vcg_equivalence, pairs=25)
        with capsys.disabled():
            report(5, result.passed and dt < 60.0, dt, 60,
                   "25 random type pairs: allocations exact, payments "
                   "within 2 eps of the VCG benchmark")

    def test_criterion_6_collusion_threshold(self, capsys):
        result, dt = timed(claim_rdr_threshold, samples=100_000)
        with capsys.disabled():
            report(6, result.passed and dt < 60.0, dt, 60,
                   "collusion holds at the 0.5 threshold (binding top "
                   "type), fails at 0.625; Monte Carlo within 3 se")

    def test_criterion_7_danish_audits(self, capsys):
        result, dt = timed(claim_danish_audits)
        with capsys.disabled():
            report(7, result.passed and dt < 10.0, dt, 10,
                   "2016 exact price DKK 125,079,743; 2019 residual "
                   "identity and asymmetry flag; exact integer arithmetic")

    def test_criterion_8_property_suites(self, capsys):
        t0 = time.time()
        _SolverEquiv().test_against_brute_force_on_random_books()
        _BookLaws().test_random_legal_round_sequences()
        _EpsConv().test_halving_eps_brackets_final_price()
        dt = time.time() - t0
        with capsys.disabled():
            report(8, dt < 120.0, dt, 120,
                   "1000 solver-vs-enumeration books, 10000 legal round "
                   "sequences, 20 eps-halving scenarios")
