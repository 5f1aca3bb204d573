"""Span tracer and the layer hooks of the traced benchmark run.

The traced run wraps, from outside the package, the module-level names
through which each layer of ``cmra`` is called, records one span per
call (name, start, end, parent) and folds every span into per-name
counters as it closes.  A span's self time is its duration minus the
time its child spans cover; the tracer runs in one thread, so spans nest
strictly and a stack gives the parent of each one.

Hooks are looked up by name when they are installed.  A target that no
longer exists (a refactor deleted or renamed it) is recorded as absent
and every layer metric built on it is reported as absent; it is never
an error.  Hooks are removed again after each traced unit of work, so
untraced work in the same process runs the original code.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# Hook groups: (group, module, dotted attribute path).  A module-level
# function is replaced in every loaded ``cmra`` module that binds it, so
# callers that imported it by name are traced too.
HOOKS = (
    ("valuation", "cmra.valuation", "ValuationModel.value"),
    ("valuation", "cmra.valuation", "ValuationModel.indirect_surplus"),
    ("valuation", "cmra.valuation", "ValuationModel.truthful_demand"),
    ("bidbook.record", "cmra.bidbook", "BidBook.record_round_indexed"),
    ("bidbook.copy", "cmra.bidbook", "BidBook.copy"),
    ("mechanism.run", "cmra.mechanism", "run_cmra"),
    ("mechanism.closing", "cmra.mechanism", "solve_closing"),
    ("mechanism.refine", "cmra.mechanism", "_refine_close"),
    ("mechanism.log", "cmra.mechanism", "_log_round"),
    ("equilibrium.check", "cmra.equilibrium", "check_expost"),
    ("equilibrium.ladder", "cmra.equilibrium", "_Ladder.__init__"),
    ("equilibrium.screen_setup", "cmra.equilibrium", "_PairScreen.__init__"),
    ("equilibrium.screen_single", "cmra.equilibrium",
     "_PairScreen.screen_single_bids"),
    ("equilibrium.screen_drops", "cmra.equilibrium", "_PairScreen.screen_drops"),
    ("scenarios.write", "cmra.scenarios", "write_round_log"),
    ("scenarios.write", "cmra.scenarios", "_write_json"),
    ("audit", "cmra.audit", "audit_linear_prices"),
    ("strategies.init", "cmra.strategies", "ProxyStrategy.__init__"),
)

# Strategy emission methods, wrapped on every ProxyStrategy subclass that
# defines them in cmra.strategies and cmra.equilibrium.  The value is the
# per-price memo attribute the method may consult.
EMIT_METHODS = {"headline_index": "_h_memo",
                "additional_bid_arrays": "_a_memo"}
STRATEGY_MODULES = ("cmra.strategies", "cmra.equilibrium")

SPAN_CAP = 1_000_000  # spans kept for the trace file; counters see them all


class Tracer:
    """Collects spans and per-name counters while hooks are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {"memo_lookups": 0, "memo_hits": 0,
                                           "log_rows": 0, "members": 0}
        self.absent: list[str] = []          # "group: module.path"
        self.absent_groups: set[str] = set()
        self.strategies: list = []           # instances built in this op
        self.memo_peak = 0
        # frame: [name id, start, child seconds, span id]
        self._stack: list[list] = [[-1, 0.0, 0.0, -1]]
        self._next_span = 0
        self._span_id = array("q")
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("q")
        self._patches: list[tuple] = []

    # -- names and spans ----------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_s.append(0.0)
        return nid

    def _traced(self, fn, classify):
        """Wrap ``fn``; ``classify(args)`` gives the span's name id."""
        # Everything the hot path touches is bound to a local name.
        stack, push, pop = self._stack, self._stack.append, self._stack.pop
        clock = time.perf_counter
        calls, total, self_s = self.calls, self.total, self.self_s
        span_ids = self._span_id
        keep_id, keep_name = span_ids.append, self._span_name.append
        keep_start, keep_end = self._span_start.append, self._span_end.append
        keep_parent = self._span_parent.append
        tracer = self

        def wrapper(*args, **kwargs):
            nid = classify(args)
            span = tracer._next_span
            tracer._next_span = span + 1
            frame = [nid, 0.0, 0.0, span]
            push(frame)
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                dur = end - start
                parent = stack[-1]
                parent[2] += dur
                calls[nid] += 1
                total[nid] += dur
                self_s[nid] += dur - frame[2]
                if len(span_ids) < SPAN_CAP:
                    keep_id(span)
                    keep_name(nid)
                    keep_start(start)
                    keep_end(end)
                    keep_parent(parent[3])

        wrapper.__wrapped__ = fn
        return wrapper

    @property
    def span_count(self) -> int:
        return self._next_span

    def in_span(self, nid: int) -> bool:
        return any(f[0] == nid for f in self._stack)

    # -- per-operation bookkeeping ------------------------------------

    def end_op(self) -> None:
        """Fold the memo sizes of the strategies built in one operation."""
        entries = 0
        for strat in self.strategies:
            for attr in EMIT_METHODS.values():
                memo = getattr(strat, attr, None)
                if isinstance(memo, dict):
                    entries += len(memo)
        self.memo_peak = max(self.memo_peak, entries)
        self.strategies.clear()

    # -- installing hooks ---------------------------------------------

    def install(self) -> None:
        """Wrap every hook target that exists; record the absent ones."""
        self.absent.clear()
        self.absent_groups.clear()
        for group, module, path in HOOKS:
            if not self._hook(group, module, path):
                self.absent.append(f"{group}: {module}.{path}")
                self.absent_groups.add(group)
        if not self._hook_emitters():
            self.absent.append("strategies.emit: ProxyStrategy emitters")
            self.absent_groups.add("strategies.emit")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _hook(self, group, module, path) -> bool:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return False
        *owner_path, attr = path.split(".")
        owner = mod
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if owner is mod:
            original = getattr(mod, attr, None)
        else:
            original = vars(owner).get(attr)  # defined here, not inherited
        if not callable(original):
            return False
        wrapper = self._wrapper_for(group, path, original)
        if owner is not mod:
            self._patch(owner, attr, wrapper)
            return True
        for name, loaded in list(sys.modules.items()):
            if (name == "cmra" or name.startswith("cmra.")) \
                    and getattr(loaded, attr, None) is original:
                self._patch(loaded, attr, wrapper)
        return True

    def _wrapper_for(self, group, path, original):
        if group == "strategies.init":
            registry = self.strategies

            def init(obj, *args, **kwargs):
                registry.append(obj)
                return original(obj, *args, **kwargs)
            return init
        if group == "mechanism.run":
            replay = self.name_id("mechanism.run_cmra.replay")
            baseline = self.name_id("mechanism.run_cmra.baseline")
            deviations = _deviation_classes()
            return self._traced(original, lambda a: replay if any(
                isinstance(s, deviations) for s in a[:2]) else baseline)
        if group == "mechanism.closing":
            tick = self.name_id("mechanism.closing.tick")
            probe = self.name_id("mechanism.closing.probe")
            refine = self.name_id("mechanism.refine")
            return self._traced(
                original, lambda a: probe if self.in_span(refine) else tick)
        if group == "mechanism.log":
            nid = self.name_id("mechanism.log")
            counters = self.counters

            def log_round(log, *args, **kwargs):
                before = len(log)
                try:
                    return original(log, *args, **kwargs)
                finally:
                    counters["log_rows"] += len(log) - before
            return self._traced(log_round, lambda a: nid)
        if group == "equilibrium.check":
            nid = self.name_id("equilibrium.check")
            counters = self.counters

            def check(*args, **kwargs):
                result = original(*args, **kwargs)
                counters["members"] += getattr(result, "members", 0)
                return result
            return self._traced(check, lambda a: nid)
        nid = self.name_id(group if group != "valuation"
                           else "valuation." + path.rsplit(".", 1)[1])
        return self._traced(original, lambda a: nid)

    def _hook_emitters(self) -> bool:
        base = getattr(_module("cmra.strategies"), "ProxyStrategy", None)
        if base is None:
            return False
        outer = self.name_id("strategies.emit")
        nested = self.name_id("strategies.emit.nested")
        found = False
        for cls in _subclasses(base):
            for attr, memo_attr in EMIT_METHODS.items():
                fn = vars(cls).get(attr)
                if callable(fn):
                    self._patch(cls, attr, self._emitter(fn, attr, memo_attr,
                                                         outer, nested))
                    found = True
        return found

    def _emitter(self, fn, attr, memo_attr, outer, nested):
        stack = self._stack
        counters = self.counters
        emit_ids = (outer, nested)
        holder = []

        def counted(obj, *args, **kwargs):
            # Count a memo lookup only in the method the instance resolves
            # to, so super() and delegation calls are not counted twice.
            if args and getattr(type(obj), attr, None) is holder[0]:
                memo = getattr(obj, memo_attr, None)
                if isinstance(memo, dict):
                    counters["memo_lookups"] += 1
                    if args[0] in memo:
                        counters["memo_hits"] += 1
            return fn(obj, *args, **kwargs)

        wrapper = self._traced(
            counted, lambda a: nested if stack[-1][0] in emit_ids else outer)
        holder.append(wrapper)
        return wrapper

    # -- output -------------------------------------------------------

    def stat(self, name: str, field: str) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return {"calls": self.calls, "total": self.total,
                "self": self.self_s}[field][nid]

    def write_spans(self, path) -> int:
        """Write the kept spans as a compressed NumPy archive; returns count."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names),
            span=np.frombuffer(self._span_id, dtype=np.int64),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
            parent=np.frombuffer(self._span_parent, dtype=np.int64))
        return len(self._span_id)


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _subclasses(base):
    """``base`` and its subclasses defined in the strategy modules."""
    found = [base]
    for name in STRATEGY_MODULES:
        mod = _module(name)
        for obj in vars(mod).values() if mod else ():
            if isinstance(obj, type) and issubclass(obj, base) \
                    and obj is not base and obj.__module__ == name:
                found.append(obj)
    return found


def _deviation_classes() -> tuple:
    """Strategy classes of cmra.equilibrium: the deviations it replays."""
    base = getattr(_module("cmra.strategies"), "ProxyStrategy", None)
    if base is None:
        return ()
    return tuple(cls for cls in _subclasses(base)
                 if cls.__module__ == "cmra.equilibrium")


_VALUATION = ("valuation.value", "valuation.indirect_surplus",
              "valuation.truthful_demand")
_EMIT = ("strategies.emit", "strategies.emit.nested")
_RUN = ("mechanism.run_cmra.replay", "mechanism.run_cmra.baseline")
_CLOSING = ("mechanism.closing.tick", "mechanism.closing.probe")
_SCREEN = ("equilibrium.screen_setup", "equilibrium.screen_single",
           "equilibrium.screen_drops")


def layer_metrics(tr: Tracer, units: int, bytes_written: int) -> dict:
    """Per-layer metrics per traced unit of work; None marks an absent layer.

    Counts and seconds are totals over the traced units divided by their
    number; ratios and the memo peak are taken over all of them.
    """
    def total(names, field):
        return sum(tr.stat(n, field) for n in names)

    lookups = tr.counters["memo_lookups"]
    members = tr.counters["members"]
    replays = tr.stat(_RUN[0], "calls")
    table = {
        "valuation.calls": (total(_VALUATION, "calls"), ("valuation",)),
        "valuation.self_s": (total(_VALUATION, "self"), ("valuation",)),
        "strategies.emit_calls": (tr.stat(_EMIT[0], "calls"),
                                  ("strategies.emit",)),
        "strategies.emit_self_s": (total(_EMIT, "self"), ("strategies.emit",)),
        "strategies.memo_hit_ratio": (
            tr.counters["memo_hits"] / lookups if lookups else 0.0,
            ("strategies.emit",), False),
        "strategies.memo_entries": (tr.memo_peak, ("strategies.init",), False),
        "bidbook.record_calls": (tr.stat("bidbook.record", "calls"),
                                 ("bidbook.record",)),
        "bidbook.record_s": (tr.stat("bidbook.record", "total"),
                             ("bidbook.record",)),
        "bidbook.copy_calls": (tr.stat("bidbook.copy", "calls"),
                               ("bidbook.copy",)),
        "bidbook.copy_s": (tr.stat("bidbook.copy", "total"), ("bidbook.copy",)),
        "mechanism.auctions": (total(_RUN, "calls"), ("mechanism.run",)),
        "mechanism.ticks": (tr.stat(_CLOSING[0], "calls"),
                            ("mechanism.closing", "mechanism.refine")),
        "mechanism.refine_probes": (tr.stat(_CLOSING[1], "calls"),
                                    ("mechanism.closing", "mechanism.refine")),
        "mechanism.closing_s": (total(_CLOSING, "total"),
                                ("mechanism.closing",)),
        "mechanism.refine_s": (tr.stat("mechanism.refine", "total"),
                               ("mechanism.refine",)),
        "mechanism.engine_self_s": (total(_RUN, "self"), ("mechanism.run",)),
        "mechanism.log_rows": (tr.counters["log_rows"], ("mechanism.log",)),
        "equilibrium.ladder_s": (tr.stat("equilibrium.ladder", "total"),
                                 ("equilibrium.ladder",)),
        "equilibrium.screen_setup_s": (
            tr.stat("equilibrium.screen_setup", "total"),
            ("equilibrium.screen_setup",)),
        "equilibrium.screen_single_s": (
            tr.stat("equilibrium.screen_single", "total"),
            ("equilibrium.screen_single",)),
        "equilibrium.screen_drops_s": (
            tr.stat("equilibrium.screen_drops", "total"),
            ("equilibrium.screen_drops",)),
        "equilibrium.members": (members, ("equilibrium.check",)),
        "equilibrium.replays": (replays, ("mechanism.run",)),
        "equilibrium.replay_s": (tr.stat(_RUN[0], "total"), ("mechanism.run",)),
        "equilibrium.replay_ratio": (replays / members if members else 0.0,
                                     ("mechanism.run", "equilibrium.check"),
                                     False),
        "equilibrium.baseline_runs": (tr.stat(_RUN[1], "calls"),
                                      ("mechanism.run",)),
        "scenarios.write_s": (tr.stat("scenarios.write", "total"),
                              ("scenarios.write",)),
        "scenarios.bytes_written": (bytes_written, ()),
        "audit.calls": (tr.stat("audit", "calls"), ("audit",)),
        "audit.s": (tr.stat("audit", "total"), ("audit",)),
    }
    out = {}
    for name, (value, groups, *per_unit) in table.items():
        if any(g in tr.absent_groups for g in groups):
            out[name] = None
        else:
            out[name] = value / units if (per_unit or [True])[0] else value
    return out


def layer_shares(tr: Tracer) -> dict:
    """Where the traced time went, as shares of the top-level spans.

    A share whose hooks are absent is None, not 0.
    """
    def share(names, field, groups, top):
        if any(g in tr.absent_groups for g in groups):
            return None
        return sum(tr.stat(n, field) for n in names) / top

    check = tr.stat("equilibrium.check", "total")
    if check:
        return {
            "of": "equilibrium.check",
            "replay": share(_RUN[:1], "total", ("mechanism.run",), check),
            "screen": share(_SCREEN, "total", _SCREEN, check),
            "ladder": share(("equilibrium.ladder",), "total",
                            ("equilibrium.ladder",), check),
            "baseline": share(_RUN[1:], "total", ("mechanism.run",), check),
        }
    top = sum(tr.stat(n, "total") for n in
              (*_RUN, "scenarios.write", "audit"))
    if not top:
        return {}
    return {
        "of": "run_cmra + artifact writes + audits",
        "valuation_self": share(_VALUATION, "self", ("valuation",), top),
        "emit_self": share(_EMIT, "self", ("strategies.emit",), top),
        "bidbook": share(("bidbook.record", "bidbook.copy"), "total",
                         ("bidbook.record", "bidbook.copy"), top),
        "closing": share(_CLOSING, "total", ("mechanism.closing",), top),
        "engine_self": share(_RUN, "self", ("mechanism.run",), top),
        "writes": share(("scenarios.write",), "total", ("scenarios.write",),
                        top),
        "audit": share(("audit",), "total", ("audit",), top),
    }
