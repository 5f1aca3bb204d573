#!/usr/bin/env python3
"""Benchmark of the cmra engine: four workloads, untraced and traced runs.

Run from the repository root:

    python3 perfbench/run.py --workload auction-batch --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with no hooks installed; with ``--trace 1`` they are its
per-layer metrics, measured by alternating untraced and traced runs of
the seed's unit of work.  Times are reference seconds: process CPU time
scaled by the machine's speed, which a calibration kernel measures
while the unit runs (see ``workloads.RefClock``).  The line before the
result holds the details: machine, seed, sample counts, raw CPU and
wall times, failures, layer shares and tracing overhead.

    python3 perfbench/run.py --battery            # criterion-4 timing, ~200 s
    python3 perfbench/run.py --record-reference   # rewrite reference.json

See perfbench/README.md for the workloads and what each metric shows.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_SAMPLES = 5            # setup_s is the median of this many set-ups
BATTERY_GATE_S = 300.0       # criterion-4 time gate in the acceptance tests
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _prepare()
        if args.setup_probe:
            print(repr(_setup(args.workload, args.seed, None)[1]))
            return 0
        if args.battery:
            return _battery()
        if args.record_reference:
            return _record_reference()
        return _run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="auction-batch")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--battery", action="store_true",
                   help="time the full criterion-4 battery (informational)")
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite reference.json from the default seed")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _prepare() -> None:
    """Use the checkout's own sources, with one BLAS/OpenMP thread."""
    if not (SRC / "cmra" / "__init__.py").is_file():
        raise BenchError(f"no cmra sources under {SRC}")
    for var in THREAD_VARS:       # this process and its set-up probes only
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def _setup(workload: str, seed: int, workdir):
    """Import cmra and build the workload's inputs.

    Returns the workload and the set-up time in reference seconds: its
    CPU time scaled by the median of three calibration kernel runs made
    right after it.
    """
    t0 = time.process_time()
    import cmra
    from workloads import CAL_REF_S, WORKLOADS, kernel_seconds
    elapsed = time.process_time() - t0
    if Path(cmra.__file__).resolve().parent != (SRC / "cmra").resolve():
        raise BenchError(f"cmra imported from {cmra.__file__}, not {SRC}")
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    t0 = time.process_time()
    wl = WORKLOADS[workload](seed, workdir)
    elapsed += time.process_time() - t0
    kernel = statistics.median(kernel_seconds() for _ in range(3))
    return wl, elapsed * CAL_REF_S / kernel


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter (its import is not cached)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("set-up probe timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# -- checking outputs -------------------------------------------------

class Checker:
    """Compares unit fingerprints with the reference and the first run."""

    def __init__(self, reference):
        self.reference = reference      # fingerprints, or None
        self.first = None

    def check(self, unit) -> None:
        got = [_jsonable(fp) for _, fp in unit.pieces]
        for want, why in ((self.first, "differs from the first run"),
                          (self.reference, "differs from the reference")):
            if want is None:
                continue
            if len(want) != len(got):
                unit.fail(unit.ops, f"{len(got)} outputs {why}")
                continue
            for (ops, _), g, w in zip(unit.pieces, got, want):
                if g != w:
                    unit.fail(ops, f"output {g} {why}: {w}")
        if self.first is None:
            self.first = got


def _jsonable(value):
    return json.loads(json.dumps(value))


def _load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    try:
        data = json.loads(REFERENCE.read_text())
    except FileNotFoundError as exc:
        raise BenchError(f"missing {REFERENCE}") from exc
    if data.get("seed") != DEFAULT_SEED or workload not in data["workloads"]:
        raise BenchError(f"{REFERENCE} holds no {workload} reference")
    return data["workloads"][workload]


# -- measuring --------------------------------------------------------

def _run(args) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup0 = _setup(args.workload, args.seed, work)
        checker = Checker(_load_reference(args.workload, args.seed))
        details = {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "machine": _machine()}
        if args.trace:
            units, metrics = _traced_run(wl, checker, args, details)
            spec = declared["per_layer"]
        else:
            setups = [setup0] + [_setup_probe(args.workload, args.seed)
                                 for _ in range(SETUP_SAMPLES - 1)]
            units, metrics = _plain_run(wl, checker, args.seconds, details)
            metrics["setup_s"] = statistics.median(setups)
            details["setup_samples_s"] = setups
            spec = declared["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        _remove_if_empty(WORK)

    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    failures = [m for u in units for m in u.failures]
    details["failures"] = failures[:20]
    details["reference_checked"] = checker.reference is not None
    names = [m["name"] for m in spec]
    if sorted(names) != sorted(metrics):
        raise BenchError(f"metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(names)}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }
    for message in failures[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(result))
    return 0


def _plain_run(wl, checker, seconds, details):
    """Untraced closed loop: repeat the unit until ``seconds`` have passed.

    Throughput and unit time come from the median unit, latency
    percentiles from every operation of the run.  All are in reference
    seconds; the details keep the raw CPU and wall medians.
    """
    import numpy as np

    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        unit = wl.run()
        checker.check(unit)
        units.append(unit)
    ops = sum(u.ops for u in units)
    unit_s = statistics.median(u.seconds for u in units)
    lat = np.array([x for u in units for x in u.latencies])
    tail = float(np.percentile(lat, wl.tail_pct))
    details.update({
        "units": len(units), "ops": ops,
        "unit_ref_s": [u.seconds for u in units],
        "unit_cpu_s_median": statistics.median(u.cpu_s for u in units),
        "unit_wall_s_median": statistics.median(u.wall_s for u in units),
        "kernel_s_median": statistics.median(u.kernel_s for u in units),
        "latency_samples": int(lat.size),
        "tail_percentile": wl.tail_pct,
        "tail_samples_beyond": int((lat > tail).sum()),
        "loop_s": time.perf_counter() - start,
    })
    metrics = {
        "ops_per_ref_s": units[0].ops / unit_s,
        "op_p50_ref_ms": float(np.percentile(lat, 50)) * 1e3,
        "op_tail_ref_ms": tail * 1e3,
        "ok_frac": 1.0 - sum(u.failed for u in units) / ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unit_ref_s": unit_s,
    }
    return units, metrics


def _traced_run(wl, checker, args, details):
    """Alternate untraced and traced runs of the unit until time is up."""
    from spans import Tracer, layer_metrics, layer_shares

    tracer = Tracer()
    units, plain, traced = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        unit = wl.run()
        checker.check(unit)
        units.append(unit)
        plain.append(unit.seconds)
        tracer.install()
        try:
            unit = wl.run(on_op=tracer.end_op)
        finally:
            tracer.uninstall()
        checker.check(unit)
        units.append(unit)
        traced.append(unit)
    overhead = statistics.median(u.seconds for u in traced) \
        / statistics.median(plain) - 1.0
    metrics = layer_metrics(tracer, len(traced),
                            sum(u.bytes_written for u in traced))
    absent = sorted(k for k, v in metrics.items() if v is None)
    metrics = {k: (0 if v is None else v) for k, v in metrics.items()}
    metrics["trace.overhead_frac"] = overhead
    metrics["trace.spans"] = tracer.span_count / len(traced)
    metrics["trace.absent_hooks"] = len(tracer.absent)
    TRACE_OUT.mkdir(exist_ok=True)
    spans_path = TRACE_OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    kept = tracer.write_spans(spans_path)
    shares = layer_shares(tracer)
    details.update({
        "pairs": len(traced),
        "untraced_unit_s": plain,
        "traced_unit_s": [u.seconds for u in traced],
        "absent_hooks": tracer.absent,
        "absent_metrics": absent,
        "layer_shares": shares,
        "character": _character(args.workload, shares),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_kept": kept,
    })
    return units, metrics


def _character(workload: str, shares: dict):
    """The layer each deviation-search workload exists to stress."""
    layer = {"expost-replay": "replay", "expost-screen": "screen"}.get(workload)
    if shares.get(layer) is None:
        return None
    return {"layer": layer, "share": shares[layer],
            "holds": shares[layer] > 0.5}


def _remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass


def _machine() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": model or platform.processor(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


# -- informational runs -----------------------------------------------

def _battery() -> int:
    """Per-cell seconds of the criterion-4 battery against its time gate."""
    from cmra import verify
    from cmra.equilibrium import DeviationFamily

    cells = []
    original = verify.check_expost

    def timed(profile, env, config, **kwargs):
        t0 = time.perf_counter()
        res = original(profile, env, config, **kwargs)
        cells.append({"cell": f"{profile}/{env.regime}",
                      "seconds": time.perf_counter() - t0,
                      "max_gain": res.max_gain, "replays": res.replays,
                      "members": res.members})
        return res

    verify.check_expost = timed
    try:
        t0 = time.perf_counter()
        res = verify.claim_expost_battery(theta_grid=11, tol=1e-4,
                                          refute_gain=1e-3,
                                          family=DeviationFamily())
        total = time.perf_counter() - t0
    finally:
        verify.check_expost = original
    print(json.dumps({"battery": cells, "passed": res.passed,
                      "total_s": total, "gate_s": BATTERY_GATE_S,
                      "headroom_s": BATTERY_GATE_S - total,
                      "machine": _machine()}, indent=2))
    return 0 if res.passed else 1


def _record_reference() -> int:
    """Run each workload's default-seed unit once; store fingerprints."""
    from workloads import WORKLOADS

    data = {"seed": DEFAULT_SEED, "workloads": {}}
    work = WORK / f"reference-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            unit = cls(DEFAULT_SEED, work).run()
            if unit.failures:
                raise BenchError(f"{name}: {unit.failures[0]}")
            data["workloads"][name] = [_jsonable(fp) for _, fp in unit.pieces]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        _remove_if_empty(WORK)
    # One line per fingerprint keeps the file diffable.
    blocks = [f" {json.dumps(name)}: [\n" + ",\n".join(
        "  " + json.dumps(fp, sort_keys=True) for fp in fps) + "\n ]"
        for name, fps in data["workloads"].items()]
    REFERENCE.write_text(f'{{"seed": {DEFAULT_SEED}, "workloads": {{\n'
                         + ",\n".join(blocks) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
