"""In-process tracing of the zerosum layers for the benchmark's traced run.

Spans are recorded at public entry points that the package keeps across
refactors (``GroupTables.__init__``, ``run_scan``, ``subsums``,
``verify_certificate``, ``cli.main``, the public functions of ``formulas``,
``constructions`` and ``verifier``) and kept in memory until the run ends.
The two calls made millions of times per run, ``GroupTables.translate`` and
the accumulator ``enter``/``leave``, are not spans: they are counted and
timed as leaf calls, and their time is subtracted from the enclosing span's
self time through a running total (``Tracer.leaf``) that each span samples
when it opens and when it closes.

Nothing under ``src/`` is edited: the wrappers are installed by rebinding
each wrapped function at every module attribute that holds it, so names
imported by value (``verifier.run_scan``, ``cli.verify_certificate``) are
wrapped too.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass

clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    command: int         # index of the command that caused it
    leaf_start: float    # Tracer.leaf[0] when the span opened
    leaf_end: float      # Tracer.leaf[0] when the span closed

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def net(self) -> float:
        """Duration minus the leaf-call time spent anywhere inside the span."""
        return (self.end - self.start) - (self.leaf_end - self.leaf_start)


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus its child spans' durations
    minus the leaf calls made directly in it.

    With ``net = duration - leaf time inside``, the direct leaf time of a span
    is its inside leaf time minus its children's, so
    ``self = net - sum(net of children)``.
    """
    out = [s.net for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.net
    return out


def outermost(spans: list[Span], layer: str) -> list[Span]:
    """Spans of one layer that have no ancestor in the same layer."""
    picked = []
    for s in spans:
        if s.layer != layer:
            continue
        p = s.parent
        while p >= 0 and spans[p].layer != layer:
            p = spans[p].parent
        if p < 0:
            picked.append(s)
    return picked


@dataclass
class ScanRecord:
    span: int
    nodes: int                   # total returned by run_scan
    root_nodes: list[int]        # enter calls per root task
    descends: int                # enter calls that returned True
    translate_calls: int         # translate calls made during the scan


class _AccProbe:
    """Wraps one accumulator; counts and times its enter/leave calls."""

    __slots__ = ("acc", "leaf", "stats", "enters", "descends")

    def __init__(self, acc, leaf: list[float], stats: list):
        self.acc = acc
        self.leaf = leaf
        self.stats = stats       # [acc seconds]
        self.enters = 0
        self.descends = 0

    def enter(self, path):
        t = clock()
        go = self.acc.enter(path)
        t = clock() - t
        self.enters += 1
        if go:
            self.descends += 1
        self.stats[0] += t
        self.leaf[0] += t
        return go

    def leave(self, path):
        t = clock()
        self.acc.leave(path)
        t = clock() - t
        self.stats[0] += t
        self.leaf[0] += t


class Tracer:
    """Span list plus leaf counters for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.open: list[int] = []
        self.command = -1
        self.leaf = [0.0]            # total seconds in leaf calls so far
        self.translate = [0, 0.0]    # calls, seconds
        self.acc = [0.0]             # seconds in accumulator enter/leave
        self.scans: list[ScanRecord] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.open[-1] if self.open else -1
        self.spans.append(Span(name, clock(), 0.0, parent, self.command,
                               self.leaf[0], 0.0))
        self.open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span.leaf_end = self.leaf[0]
        span.end = clock()
        self.open.pop()

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        wrapper.__wrapped__ = fn
        return wrapper


def _rebind(orig, new) -> None:
    """Replace ``orig`` by ``new`` at every zerosum module attribute holding it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "zerosum" or mod_name.startswith("zerosum."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def _public_functions(module):
    return [(name, fn) for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")]


def install(tracer: Tracer):
    """Wrap every traced entry point; return the wrapped ``cli.main``."""
    from zerosum import (certificates, cli, constructions, formulas, groups,
                         search, sequences, verifier)

    tables_init = groups.GroupTables.__init__
    groups.GroupTables.__init__ = tracer.span("groups.GroupTables.__init__",
                                              tables_init)

    translate = groups.GroupTables.translate
    counts, leaf = tracer.translate, tracer.leaf

    def traced_translate(tables, mask, g):
        t = clock()
        out = translate(tables, mask, g)
        t = clock() - t
        counts[0] += 1
        counts[1] += t
        leaf[0] += t
        return out
    groups.GroupTables.translate = traced_translate

    run_scan = search.run_scan

    def traced_run_scan(group, acc_factory, **kwargs):
        probes = []

        def factory():
            probe = _AccProbe(acc_factory(), leaf, tracer.acc)
            probes.append(probe)
            return probe
        calls_before = counts[0]
        idx = tracer.begin("search.run_scan")
        try:
            accs, nodes = run_scan(group, factory, **kwargs)
        finally:
            tracer.end(idx)
        tracer.scans.append(ScanRecord(
            idx, nodes, [p.enters for p in probes],
            sum(p.descends for p in probes), counts[0] - calls_before))
        return [p.acc for p in accs], nodes
    _rebind(run_scan, traced_run_scan)

    wrapped = [(sequences.subsums, "sequences.subsums"),
               (sequences.definitional_subsums, "sequences.definitional_subsums"),
               (certificates.certificate_json, "certificates.serialize"),
               (certificates.write_certificate, "certificates.serialize"),
               (certificates.load_certificate, "certificates.load"),
               (certificates.verify_certificate, "certificates.verify")]
    for module in (formulas, constructions, verifier):
        short = module.__name__.rsplit(".", 1)[1]
        wrapped += [(fn, f"{short}.{name}") for name, fn in _public_functions(module)]
    for fn, name in wrapped:
        _rebind(fn, tracer.span(name, fn))

    main = tracer.span("cli.main", cli.main)
    _rebind(cli.main, main)
    return main


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced run (times in seconds, inclusive
    unless the name says ``self``)."""
    spans = tracer.spans
    selfs = self_times(spans)

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(indices):
        return sum(spans[i].end - spans[i].start for i in indices)

    def layer_total(layer):
        return sum(s.end - s.start for s in outermost(spans, layer))

    scan_idx = named("search.run_scan")
    nodes = sum(r.nodes for r in tracer.scans)
    enters = sum(sum(r.root_nodes) for r in tracer.scans)
    scan_translates = sum(r.translate_calls for r in tracer.scans)
    # Scans run one after another; a pool over root tasks cannot finish a scan
    # before its largest task, so 1 / max_root_share bounds its speed-up.
    critical = sum(max(r.root_nodes, default=0) for r in tracer.scans)
    calls, translate_s = tracer.translate
    return {
        "cli.self_s": sum(selfs[i] for i in named("cli.main")),
        "groups.tables_built": len(named("groups.GroupTables.__init__")),
        "groups.tables_build_s": total(named("groups.GroupTables.__init__")),
        "groups.translate_calls": calls,
        "groups.translate_s": translate_s,
        "groups.translate_us_per_call": translate_s / calls * 1e6 if calls else 0.0,
        "search.scans": len(scan_idx),
        "search.nodes": nodes,
        "search.nodes_per_s": nodes / total(scan_idx) if scan_idx else 0.0,
        "search.self_s": sum(selfs[i] for i in scan_idx),
        "search.nodes_per_translate": nodes / scan_translates if scan_translates else 0.0,
        "search.acc_enter_calls": enters,
        "search.acc_descend_ratio": (sum(r.descends for r in tracer.scans) / enters
                                     if enters else 0.0),
        "search.acc_s": tracer.acc[0],
        "search.root_tasks": sum(len(r.root_nodes) for r in tracer.scans),
        "search.max_root_share": critical / nodes if nodes else 0.0,
        "sequences.subsums_calls": len(named("sequences.subsums")),
        "sequences.subsums_s": total(named("sequences.subsums")),
        "sequences.definitional_calls": len(named("sequences.definitional_subsums")),
        "sequences.definitional_s": total(named("sequences.definitional_subsums")),
        "formulas.s": layer_total("formulas"),
        "constructions.s": layer_total("constructions"),
        "verifier.checks": len(outermost(spans, "verifier")),
        "verifier.s": layer_total("verifier"),
        "certificates.serialize_s": sum(
            s.end - s.start for s in outermost(spans, "certificates")
            if s.name == "certificates.serialize"),
        "certificates.load_s": total(named("certificates.load")),
        "certificates.verify_s": sum(selfs[i] for i in named("certificates.verify")),
    }


def command_counts(tracer: Tracer, command: int, translate_calls: int) -> dict[str, int]:
    """Deterministic counts of one command, for comparison with a recording."""
    scans = [r for r in tracer.scans if tracer.spans[r.span].command == command]
    spans = [s for s in tracer.spans if s.command == command]
    return {
        "search.nodes": sum(r.nodes for r in scans),
        "search.acc_enter_calls": sum(sum(r.root_nodes) for r in scans),
        "search.root_tasks": sum(len(r.root_nodes) for r in scans),
        "groups.translate_calls": translate_calls,
        "sequences.subsums_calls": sum(s.name == "sequences.subsums" for s in spans),
        "sequences.definitional_calls": sum(
            s.name == "sequences.definitional_subsums" for s in spans),
    }
