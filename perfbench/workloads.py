"""The four benchmark workloads: seeded inputs, timed operations, checks.

Each workload turns its seed into one unit of work, which a run repeats
(one process, no extra threads, closed loop: an operation starts when
the previous one returns).  Repeating one unit lets the caller take
medians over repeats, which keeps bursts of machine noise out of the
figures.  A unit reports its operations, their latencies, the
operations whose output check failed, and one fingerprint per checked
piece of output.  The caller compares fingerprints with the stored
reference (default seed) and with the unit's first run (every seed).

Operations are timed in reference seconds by ``RefClock``: process CPU
time scaled by the speed of the machine, which a fixed calibration
kernel measures in short samples while the unit runs.

``cmra`` is called through its modules' attributes at call time, so
the traced run's hooks see every call.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import random
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cmra import equilibrium, mechanism, scenarios, strategies
from cmra.bidbook import QuantityGrid
from cmra.mechanism import AuctionConfig
from cmra.valuation import MarketEnv, TypeDistribution, ValuationModel

TOL = 1e-4                   # check_expost tolerance, as in criterion 4
MONEY = 10 ** 9              # money units of the auction fixtures
DKK_2016 = 125_079_743       # exact 2016 price per lot
CAL_ITERS = 32_000           # loop iterations of one calibration kernel run
CAL_REF_S = 0.010            # reference seconds one kernel run stands for
SAMPLE_ITERS = CAL_ITERS // 5    # a sample is a fifth of a kernel run
SAMPLE_EVERY_S = 0.05        # CPU seconds between samples during a unit
EDGE_SAMPLES = 5             # samples taken before and after a unit
NEAR_SAMPLES = 5             # samples on each side that scale an operation
_CAL_ARRAY = np.linspace(0.0, 1.0, 64)


def calibration_kernel(iters: int = CAL_ITERS) -> float:
    """Fixed work whose CPU time measures the machine's present speed.

    Its mix is the engine's: integer and float arithmetic, list and dict
    stores, and small numpy reductions.  It never calls ``cmra``.
    """
    acc, seen, row = 0.0, {}, [0.0] * 64
    for i in range(iters):
        j = i & 63
        acc += (i * i) % 7 * 0.5
        row[j] = acc
        seen[j] = row[j - 1]
        if j == 0:
            acc -= float(_CAL_ARRAY.sum()) + float(_CAL_ARRAY @ _CAL_ARRAY)
    return acc


def kernel_seconds(iters: int = CAL_ITERS) -> float:
    """CPU seconds of one calibration kernel run of ``iters`` iterations.

    All CPU times here are the thread's: while a CPU-time timer is set,
    the process clock advances only once per scheduler tick.  The
    benchmark runs in one thread, so the two clocks agree otherwise.
    """
    t0 = time.thread_time()
    calibration_kernel(iters)
    return time.thread_time() - t0


class RefClock:
    """Times operations in reference seconds.

    The 2-core shared virtual machine this was built on changes speed by
    20-40 % over seconds to minutes, in process CPU time as much as in
    wall time, so raw times of the same work spread wider between runs
    than any useful regression bound.
    The calibration kernel slows down with the machine.  While a unit
    runs, a CPU-time timer (SIGPROF, in this thread; no extra thread or
    process) runs a short kernel sample every ``SAMPLE_EVERY_S``, and
    ``EDGE_SAMPLES`` more are taken before and after the unit.  An
    operation's reference seconds are its CPU time, less the samples
    inside it, times ``CAL_REF_S`` over the mean kernel time of the
    samples inside it and of the ``NEAR_SAMPLES`` nearest on each side.
    The ratio follows the program, not the machine.
    """

    def __init__(self):
        self.samples = []       # (wall time, seconds per full kernel run)
        self.kernel_cpu = 0.0   # CPU seconds spent in samples
        self.timed = []         # (wall start, wall end) per timed call

    def _sample(self, *_signal) -> None:
        dt = kernel_seconds(SAMPLE_ITERS)
        self.kernel_cpu += dt
        self.samples.append((time.perf_counter(),
                             dt * CAL_ITERS / SAMPLE_ITERS))

    @contextmanager
    def sampling(self):
        """Sample the machine's speed for the duration of a unit."""
        self.samples, self.timed = [], []
        for _ in range(EDGE_SAMPLES):
            self._sample()
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()

    def time(self, fn, *args, **kwargs):
        """Call ``fn``; returns (its result, CPU s, wall s), samples
        excluded.  ``scales`` later gives the call's reference factor."""
        k0 = self.kernel_cpu
        c0, w0 = time.thread_time(), time.perf_counter()
        out = fn(*args, **kwargs)
        c1, w1 = time.thread_time(), time.perf_counter()
        inside = self.kernel_cpu - k0
        self.timed.append((w0, w1))
        return out, c1 - c0 - inside, w1 - w0 - inside

    def scales(self) -> list:
        """Reference seconds per CPU second, one per timed call."""
        at = [t for t, _ in self.samples]
        out = []
        for w0, w1 in self.timed:
            lo = max(0, bisect.bisect_left(at, w0) - NEAR_SAMPLES)
            hi = bisect.bisect_right(at, w1) + NEAR_SAMPLES
            near = [k for _, k in self.samples[lo:hi]]
            out.append(CAL_REF_S * len(near) / sum(near))
        return out

    def median_kernel_s(self) -> float:
        return statistics.median(k for _, k in self.samples)


@dataclass
class Unit:
    """What one unit of work did."""

    ops: int = 0
    seconds: float = 0.0                            # summed reference s
    cpu_s: float = 0.0                              # summed CPU s
    wall_s: float = 0.0                             # summed wall s
    latencies: list = field(default_factory=list)   # reference s per sample
    failures: list = field(default_factory=list)    # one message per failure
    failed: int = 0
    pieces: list = field(default_factory=list)      # (ops covered, fingerprint)
    bytes_written: int = 0
    kernel_s: float = 0.0                           # median kernel seconds
    timed: list = field(default_factory=list)       # (ops, CPU s) per call

    def add(self, ops: int, cpu: float, wall: float) -> None:
        """Count ``ops`` operations timed together."""
        self.ops += ops
        self.cpu_s += cpu
        self.wall_s += wall
        self.timed.append((ops, cpu))

    def scale(self, clock: RefClock) -> None:
        """Turn the CPU times of the calls into reference seconds."""
        refs = [cpu * f for (_, cpu), f in zip(self.timed, clock.scales())]
        self.seconds = sum(refs)
        self.latencies = [r / ops for (ops, _), r in zip(self.timed, refs)]
        self.kernel_s = clock.median_kernel_s()

    def fail(self, ops: int, message: str) -> None:
        self.failed = min(self.ops, self.failed + ops)  # an op fails once
        self.failures.append(message)


def _auction_problems(out, grid: QuantityGrid) -> list:
    """Closing invariants of one auction outcome."""
    problems = []
    if not out.closed:
        return [f"termination {out.termination}"]
    if not sum(out.payment_units) == out.revenue_units == out.r_star_units:
        problems.append(f"payments {out.payment_units} revenue "
                        f"{out.revenue_units} r* {out.r_star_units}")
    k1, k2 = out.indices
    if not (0 <= k1 <= grid.cap_index and 0 <= k2 <= grid.cap_index
            and k1 + k2 <= grid.n):
        problems.append(f"infeasible allocation {out.indices}")
    return problems


def _stratified_pairs(rng: random.Random, lo: float, hi: float,
                      n: int) -> list:
    """n type pairs: one uniform draw per seat in each of n equal strata.

    Seat 1's stratum i meets seat 2's stratum i + n/2 (mod n).  The seed
    draws where in its stratum each type falls, not which strata meet, so
    every seed covers the support the same way.
    """
    first = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    second = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    return [(first[i], second[(i + n // 2) % n]) for i in range(n)]


class Workload:
    name = ""
    tail_pct = 90.0          # fixed per workload, see README.md

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs = self.build()
        self.clock = RefClock()

    def build(self):
        raise NotImplementedError

    def run(self, on_op=None) -> Unit:
        """Run the unit once; ``on_op`` is called after each operation."""
        with self.clock.sampling():
            unit = self.run_unit(on_op)
        unit.scale(self.clock)
        return unit

    def run_unit(self, on_op) -> Unit:
        raise NotImplementedError


# -- deviation search -------------------------------------------------

class ExPost(Workload):
    """``check_expost`` in verification mode on a reduced type grid.

    An operation is one search cell (seat x deviator type x opponent
    type); a call runs every cell of the grid, so each call gives one
    latency sample, its seconds per cell.
    """

    tail_pct = 100.0         # a run holds only a few calls
    profile = ""
    theta_grid = 0

    def run_unit(self, on_op):
        env, config = self.inputs
        cells = 2 * self.theta_grid ** 2
        res, *times = self.clock.time(
            equilibrium.check_expost, self.profile, env, config,
            theta_grid=self.theta_grid, family=equilibrium.DeviationFamily(),
            tol=TOL)
        if on_op:
            on_op()
        unit = Unit()
        unit.add(cells, *times)
        if not (res.verified and not res.truncated and res.max_gain <= TOL):
            unit.fail(cells, f"{self.profile} on {env.distribution.support}: "
                      f"verified={res.verified} truncated={res.truncated} "
                      f"max_gain={res.max_gain!r}")
        unit.pieces.append((cells, {"replays": res.replays,
                                    "members": res.members,
                                    "max_gain": res.max_gain}))
        return unit


class ExPostReplay(ExPost):
    """cmra-truthful on the non-decreasing power environment (cap 0.75)."""

    name = "expost-replay"
    profile = "cmra-truthful"
    theta_grid = 3

    def build(self):
        # Near the criterion-4 support (0.1, 1.0); replay counts stay at
        # 286-292 per call across this band.
        lo = 0.1 + self.rng.uniform(-0.02, 0.02)
        hi = 1.0 - self.rng.uniform(0, 0.02)
        m = ValuationModel.power(2.0, cap=0.75, theta=hi, theta_support=(lo, hi))
        env = MarketEnv((m, m), 0.75, TypeDistribution("uniform", (lo, hi)))
        config = AuctionConfig(grid=QuantityGrid(20, 0.75), eps=5e-3,
                               max_price=1.6, money_scale=10 ** 6,
                               log_rounds=False)
        return env, config


class ExPostScreen(ExPost):
    """constant on the decreasing quadratic environment (cap 0.9)."""

    name = "expost-screen"
    profile = "constant"
    theta_grid = 4

    def build(self):
        # Within this band the replays stay at 156-160 per call.  Just
        # above it, from a lower end near 1.052, they jump to 780, as they
        # do at (1.06, 1.24), which would make this a second replay
        # workload.
        lo = 1.047 + self.rng.uniform(-0.003, 0.003)
        hi = 1.25 + self.rng.uniform(-0.004, 0.004)
        m = ValuationModel.quadratic(hi, 0.5, cap=0.9, theta_support=(lo, hi))
        env = MarketEnv((m, m), 0.9, TypeDistribution("uniform", (lo, hi)))
        config = AuctionConfig(grid=QuantityGrid(20, 0.9), eps=5e-3,
                               max_price=1.5, money_scale=10 ** 6,
                               log_rounds=False)
        return env, config


# -- single auctions --------------------------------------------------

PROFILES = ("clock-truthful", "cmra-truthful", "constant")
POWER_SUPPORT = (0.1, 1.0)
QUAD_SUPPORT = (1.05, 1.25)


def _power_model(theta):
    return ValuationModel.power(2.0, cap=0.75, theta=theta,
                                theta_support=POWER_SUPPORT)


def _quadratic_model(theta):
    return ValuationModel.quadratic(theta, 0.5, cap=0.9,
                                    theta_support=QUAD_SUPPORT)


# family: (model factory, type support, grid n, cap, max price)
FAMILIES = {
    "power": (_power_model, POWER_SUPPORT, 20, 0.75, 2.0),
    "quadratic": (_quadratic_model, QUAD_SUPPORT, 500, 0.9, 1.4),
}


class AuctionBatch(Workload):
    """Independent ``run_cmra`` auctions with freshly built strategies.

    A batch runs every profile on both families, in seeded order; the
    seed draws the type pairs, stratified over each family's support.
    The latencies fall into groups: power constant and clock-truthful
    lowest, then n=500 constant in a tight band, then n=500
    clock-truthful and power cmra-truthful spread wide, then n=500
    cmra-truthful.  The draws per family and profile put as many
    auctions below the tight band as above it, so the median falls in
    its middle.  The two cmra-truthful groups, where the tail
    percentile falls, get eight strata each, so the tail moves little
    from seed to seed.
    """

    name = "auction-batch"
    draws = {("power", "clock-truthful"): 10, ("power", "cmra-truthful"): 8,
             ("power", "constant"): 10, ("quadratic", "clock-truthful"): 4,
             ("quadratic", "cmra-truthful"): 8, ("quadratic", "constant"): 8}

    def build(self):
        batch = []
        for family, (make, (lo, hi), n, cap, max_price) in FAMILIES.items():
            config = AuctionConfig(grid=QuantityGrid(n, cap), eps=1e-3,
                                   max_price=max_price, money_scale=MONEY,
                                   log_rounds=False)
            for profile in PROFILES:
                k = self.draws[family, profile]
                for t1, t2 in _stratified_pairs(self.rng, lo, hi, k):
                    models = (make(t1), make(t2))
                    batch.append((profile, models, MarketEnv(models, cap),
                                  config))
        self.rng.shuffle(batch)
        return batch

    def run_unit(self, on_op):
        unit = Unit()
        for profile, (m1, m2), env, config in self.inputs:
            make = strategies.STRATEGY_TAGS[profile]
            out, *times = self.clock.time(self._auction, make, m1, m2, env,
                                          config)
            if on_op:
                on_op()
            unit.add(1, *times)
            problems = _auction_problems(out, config.grid)
            if problems:
                unit.fail(1, f"{profile} {m1.theta!r}/{m2.theta!r}: "
                          + "; ".join(problems))
            unit.pieces.append((1, list(out.payment_units)))
        return unit

    @staticmethod
    def _auction(make, m1, m2, env, config):
        """One auction, strategies built fresh."""
        return mechanism.run_cmra(make(m1, config.grid),
                                  make(m2, config.grid), env, config)


# -- scenario artifacts -----------------------------------------------

GRID_SIZES = (20, 50, 100, 500)
RUNS_PER_SIZE = 3            # one per third of the type support
AUDITS = {"denmark-2016": "feasible", "denmark-2019": "infeasible",
          "denmark-2021": "underdetermined"}


class ScenarioArtifacts(Workload):
    """``run_scenario`` single runs with round logs, plus the Danish audits.

    A unit runs every profile at every grid size, and the three bundled
    audit records, in a fixed order; the seed draws the type pairs.  Run
    time and round-log size grow with the types: by about 25 % from low
    to high types for the n=500 cmra-truthful logs, which dominate both
    time and memory.  So each profile runs three times at each grid
    size, once in each third of the support with both types from that
    third: the unit's cost, its largest round log and its latency
    percentiles are then about the same for every seed.  An operation is
    one scenario, timed with its artifact writes.
    """

    name = "scenario-artifacts"
    # Sorted latencies group by profile and grid size.  The median falls
    # inside the clock-truthful runs and p90 inside the cmra-truthful
    # n=100 runs, away from the edges between groups.
    tail_pct = 90.0

    def build(self):
        ops = []
        lo, hi = QUAD_SUPPORT
        width = (hi - lo) / RUNS_PER_SIZE
        for profile in PROFILES:
            for n in GRID_SIZES:
                for k in range(RUNS_PER_SIZE):
                    thetas = [self.rng.uniform(lo + k * width,
                                               lo + (k + 1) * width)
                              for _ in range(2)]
                    ops.append(self._single(len(ops), profile, n, thetas))
        ops += [{"name": f"audit-{rec}", "mode": "audit",
                 "audit": {"record": rec}} for rec in AUDITS]
        return ops

    @staticmethod
    def _single(j, profile, n, thetas):
        return {
            "name": f"s{j:02d}-{profile}-n{n}", "mode": "single",
            "auction": "cmra",
            "environment": {"family": "quadratic", "cap": 0.9,
                            "curvature": 0.5, "thetas": thetas,
                            "theta_support": list(QUAD_SUPPORT)},
            "strategies": [profile, profile],
            "config": {"grid_n": n, "eps": 1e-3, "max_price": 1.4,
                       "money_scale": MONEY},
        }

    def run_unit(self, on_op):
        unit = Unit()
        for spec in self.inputs:
            times, problems, digests, size = self._scenario(spec)
            if on_op:
                on_op()
            unit.add(1, *times)
            unit.bytes_written += size
            if problems:
                unit.fail(1, f"{spec['name']}: " + "; ".join(problems))
            unit.pieces.append((1, digests))
        return unit

    def _scenario(self, spec):
        """Run and check one scenario; its round log is freed on return,
        so one scenario's log never adds to the next one's peak memory."""
        res, *times = self.clock.time(scenarios.run_scenario, spec,
                                      outdir=self.workdir)
        problems = [] if res["ok"] else ["not ok"]
        if spec["mode"] == "audit":
            problems += _audit_problems(spec["audit"]["record"], res["result"])
        else:
            grid = QuantityGrid(spec["config"]["grid_n"], 0.9)
            problems += _auction_problems(res["result"], grid)
        digests, size = {}, 0
        for path in map(Path, res["outputs"].values()):
            data = path.read_bytes()
            size += len(data)
            digests[path.name] = hashlib.sha256(data).hexdigest()
            os.remove(path)
        return times, problems, digests, size


def _audit_problems(record: str, result) -> list:
    want = AUDITS[record]
    if result.status != want:
        return [f"status {result.status}, want {want}"]
    if record == "denmark-2016" and result.prices.get("B1800") != DKK_2016:
        return [f"price {result.prices.get('B1800')}, want {DKK_2016}"]
    return []


WORKLOADS = {cls.name: cls for cls in
             (ExPostReplay, ExPostScreen, AuctionBatch, ScenarioArtifacts)}
