"""The traced run: spans around calls into each layer, and the per-layer metrics.

Spans are recorded from the benchmark's own files.  The scan loop of
``atom_search`` is replicated here so that iteration, the t-degree filter and
each ``classify_candidate`` call get their own span; ``is_atom`` and
``classify`` are wrapped where ``enumeration`` and ``invariants`` look them
up, and ``GroupCtx.shift_mask`` is wrapped on the context to count calls.
The replicated loop must reproduce the untraced run's counters and digests
exactly, or the run is not correct.

Every span has a name, a start, an end and a parent and stays in memory
until the run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import itertools
import random
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter

import workloads as wl
from prodone import enumeration, invariants
from prodone.certificates import check_certificate
from prodone.enumeration import (
    SearchCounters,
    Stratum,
    StratumSpace,
    classify_candidate,
    digest_add,
    digest_empty,
    digest_hex,
    make_shards,
)
from prodone.sequences import Sequence

#: Per-layer metrics of a traced run, with their units.  Layers a workload
#: does not touch report 0.
PER_LAYER = [
    ("enumeration.visited", "count"),
    ("enumeration.checked", "count"),
    ("enumeration.filter_pass_ratio", "ratio"),
    ("enumeration.iter_s", "s"),
    ("enumeration.filter_s", "s"),
    ("enumeration.classify.abelian.calls", "count"),
    ("enumeration.classify.abelian.s", "s"),
    ("enumeration.classify.ordering.calls", "count"),
    ("enumeration.classify.ordering.s", "s"),
    ("enumeration.classify.dp.calls", "count"),
    ("enumeration.classify.dp.s", "s"),
    ("enumeration.ordering.waste_s", "s"),
    ("enumeration.pool.efficiency", "ratio"),
    ("enumeration.pool.imbalance", "ratio"),
    ("sequences.is_atom.calls", "count"),
    ("sequences.is_atom.s", "s"),
    ("sequences.dp.states", "count"),
    ("sequences.dp.states_per_s", "1/s"),
    ("sequences.dp.max_states", "count"),
    ("sequences.classify.calls", "count"),
    ("sequences.classify.s", "s"),
    ("group.shift_mask.calls", "count"),
    ("group.shift_mask.ns_per_call", "ns"),
    ("group.tables_s", "s"),
    ("invariants.dfs.nodes", "count"),
    ("invariants.dfs.nodes_per_s", "1/s"),
    ("invariants.dfs.self_s", "s"),
    ("invariants.extremal_atoms_s", "s"),
    ("invariants.scan.k0_s", "s"),
    ("invariants.scan.k1_s", "s"),
    ("invariants.scan.k2_s", "s"),
    ("certificates.check.inverse_report.s", "s"),
    ("certificates.check.checkpoint.s", "s"),
    ("certificates.check.davenport_small.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]

POOL_WORKERS = 2
SHIFT_BENCH_CALLS = 200_000
#: Checks of each certificate; one lasts milliseconds, so the run reports the median.
CERT_CHECK_REPEATS = 15


class Tracer:
    """Spans in parallel arrays; ``child`` accumulates the children's durations."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("I")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self._stack: list[int] = []
        self.shift_calls = 0
        self.visited = 0
        self.checked = 0
        self.dp_states = 0
        self.dp_max_states = 0

    def _id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def begin(self, name: str) -> int:
        span = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def finish(self, span: int, rename: str | None = None) -> float:
        now = perf_counter()
        self._stack.pop()
        self.end[span] = now
        duration = now - self.start[span]
        parent = self.parent[span]
        if parent >= 0:
            self.child[parent] += duration
        if rename is not None:
            self.name[span] = self._id(rename)
        return duration

    def summary(self) -> dict[str, list[float]]:
        """name -> [calls, total seconds, self seconds]."""
        out: dict[str, list[float]] = {}
        names = self.names
        for ident, t0, t1, child in zip(self.name, self.start, self.end, self.child):
            row = out.setdefault(names[ident], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child
        return out

    def durations(self, name: str) -> list[float]:
        ident = self._ids.get(name)
        return [t1 - t0 for i, t0, t1 in zip(self.name, self.start, self.end) if i == ident]


def lattice_states(seq: Sequence) -> int:
    states = 1
    for _, mult in seq.entries:
        states *= mult + 1
    return states


@contextmanager
def instrumented(tr: Tracer, ctx):
    """Wrap is_atom, classify and ctx.shift_mask for the duration of the block."""
    saved = (enumeration.is_atom, invariants.is_atom, invariants.classify)
    original_is_atom, original_classify = invariants.is_atom, invariants.classify

    def traced(name, fn):
        def call(c, seq, **kw):
            states = lattice_states(seq)
            tr.dp_states += states
            if states > tr.dp_max_states:
                tr.dp_max_states = states
            span = tr.begin(name)
            try:
                return fn(c, seq, **kw)
            finally:
                tr.finish(span)
        return call

    counter = itertools.count()
    tick = counter.__next__
    shift = ctx.shift_mask

    def counted_shift(mask, table):
        tick()
        return shift(mask, table)

    traced_is_atom = traced("sequences.is_atom", original_is_atom)
    enumeration.is_atom = invariants.is_atom = traced_is_atom
    invariants.classify = traced("sequences.classify", original_classify)
    ctx.shift_mask = counted_shift
    try:
        yield
    finally:
        enumeration.is_atom, invariants.is_atom, invariants.classify = saved
        del ctx.shift_mask
        tr.shift_calls += next(counter)


def traced_scan(tr: Tracer, ctx, stratum: Stratum, lo: int, hi: int, marks=()):
    """atom_search's loop over ranks [lo, hi), one span per iteration, filter and classify.

    Returns (counters, digest hex, atom texts, unverified texts, times) where
    ``times`` holds perf_counter readings taken when the loop reached each rank
    in ``marks``.
    """
    space = StratumSpace(ctx, stratum)
    counters = SearchCounters()
    digest = digest_empty()
    atoms: list[str] = []
    unverified: list[str] = []
    pending = list(marks)
    times = []
    begin, finish = tr.begin, tr.finish
    ranks = space.iter_range(lo, hi)
    while True:
        span = begin("enumeration.iter")
        item = next(ranks, None)
        finish(span)
        if item is None:
            break
        rank, content = item
        if pending and rank >= pending[0]:
            pending.pop(0)
            times.append(perf_counter())
        counters.visited += 1
        span = begin("enumeration.filter")
        passed = space.passes_filters(content)
        finish(span)
        if not passed:
            counters.filtered_out += 1
            continue
        counters.checked += 1
        span = begin("enumeration.classify")
        kind, method, _ = classify_candidate(ctx, content)
        finish(span, "enumeration.classify." + method)
        counters.note_method(method)
        if kind == "atom":
            counters.atoms += 1
            text = Sequence.from_indices(content).format(ctx)
            atoms.append(text)
            digest = digest_add(digest, text)
        elif kind == "non_atom":
            counters.non_atoms += 1
        elif kind == "not_product_one":
            counters.not_product_one += 1
        else:
            counters.unverified += 1
            unverified.append(Sequence.from_indices(content).format(ctx))
    tr.visited += counters.visited
    tr.checked += counters.checked
    return counters, digest_hex(digest), atoms, unverified, times


def shift_mask_ns(ctx, seed: int, calls: int = SHIFT_BENCH_CALLS) -> float:
    """ns per shift_mask call on seeded random masks and tables of this group."""
    rng = random.Random(seed)
    tables = [ctx.right_shift_table(g) for g in range(ctx.n)]
    pairs = [(rng.getrandbits(ctx.n), tables[rng.randrange(ctx.n)]) for _ in range(1024)]
    shift = ctx.shift_mask
    rounds = max(1, calls // len(pairs))
    t0 = perf_counter()
    for _ in range(rounds):
        for mask, table in pairs:
            shift(mask, table)
    return (perf_counter() - t0) / (rounds * len(pairs)) * 1e9


def tables_s(descriptor: str) -> float:
    t0 = perf_counter()
    wl.warm_group(descriptor)
    return perf_counter() - t0


def _check_certs(tr: Tracer, outcome) -> None:
    for cert in outcome.certs:
        for _ in range(CERT_CHECK_REPEATS):
            span = tr.begin("certificates.check." + cert.kind)
            result = check_certificate(cert)
            tr.finish(span)
        if not result.ok:
            outcome.add([f"{cert.kind} certificate fails its check"], 1)


# -- traced workloads -------------------------------------------------------------


def _trace_inverse(tr: Tracer, ctx, untraced, seed: int, metrics: dict) -> float:
    expected = untraced.detail["strata"]
    length = 2 * ctx.q
    k2_shards = make_shards(StratumSpace(ctx, Stratum(length, 2)).total, POOL_WORKERS)
    root = tr.begin("invariants.verify_inverse_theorem")
    with instrumented(tr, ctx):
        span = tr.begin("invariants.extremal_atoms_all")
        extremal = wl.extremal_texts(ctx)
        tr.finish(span)
        shard_marks = []
        for k in sorted(wl.INVERSE_TOTALS):
            stratum = Stratum(length=length, k=k)
            marks = [s.start_rank for s in k2_shards] if k == 2 else []
            span = tr.begin(f"invariants.scan.k{k}")
            counters, digest, atoms, unverified, times = traced_scan(
                tr, ctx, stratum, 0, StratumSpace(ctx, stratum).total, marks)
            tr.finish(span)
            if k == 2:
                shard_marks = times + [tr.end[span]]
            if counters.to_dict() != expected[k]["counters"] or digest != expected[k]["digest"]:
                untraced.add([f"traced k={k} scan does not reproduce the untraced counters"], 1)
            if any(text not in extremal for text in atoms) or unverified:
                untraced.add([f"traced k={k} scan found unexpected atoms"], 1)
    traced_wall = tr.finish(root)
    shard_s = [b - a for a, b in zip(shard_marks, shard_marks[1:])]
    metrics["enumeration.pool.imbalance"] = max(shard_s) / (sum(shard_s) / len(shard_s))
    # Serial reference for the pool: the untraced k=2 share, from the traced split.
    summary = tr.summary()
    k_share = summary["invariants.scan.k2"][1] / traced_wall
    serial_k2 = untraced.walls()[0] * k_share
    stratum = Stratum(length=length, k=2)
    result, pool_s = wl.pool_scan(ctx, stratum, POOL_WORKERS)
    if result.digest_hex != wl.INVERSE_K2_DIGEST:
        untraced.add(["sharded k=2 scan digest differs"], 1)
    metrics["enumeration.pool.efficiency"] = serial_k2 / (POOL_WORKERS * pool_s)
    hours, problems = wl.estimate_full_scope(ctx, seed)
    untraced.add(problems, len(problems))
    untraced.detail["estimate_full_scope_372_cpu_h"] = hours + untraced.walls()[0] / 3600
    untraced.detail["pool_wall_s"] = pool_s
    return traced_wall


def _trace_windows(tr: Tracer, ctx, untraced, seed: int, metrics: dict) -> float:
    stratum = Stratum(length=2 * ctx.q, k=2)
    space = StratumSpace(ctx, stratum)
    windows = wl.plan_windows(space.total, seed, len(untraced.detail["windows"]))
    root = tr.begin("enumeration.windows")
    with instrumented(tr, ctx):
        span = tr.begin("invariants.extremal_atoms_all")
        extremal = wl.extremal_texts(ctx)
        tr.finish(span)
        for shard, (counters_ref, digest_ref) in zip(windows, untraced.detail["windows"]):
            counters, digest, atoms, unverified, _ = traced_scan(
                tr, ctx, stratum, shard.start_rank, shard.end_rank)
            if counters.to_dict() != counters_ref or digest != digest_ref:
                untraced.add([f"traced window at {shard.start_rank} does not reproduce the untraced counters"], 1)
            if any(text not in extremal for text in atoms) or unverified:
                untraced.add([f"traced window at {shard.start_rank} found unexpected atoms"], 1)
    return tr.finish(root)


def _trace_davenport(tr: Tracer, ctx, untraced, seed: int, metrics: dict) -> float:
    with instrumented(tr, ctx):
        span = tr.begin("invariants.small_davenport")
        result = invariants.small_davenport(ctx)
        traced_wall = tr.finish(span)
    if (result.nodes, result.value) != (untraced.detail["nodes"], untraced.detail["value"]):
        untraced.add(["traced DFS does not reproduce the untraced node count"], 1)
    summary = tr.summary()
    metrics["invariants.dfs.nodes"] = result.nodes
    metrics["invariants.dfs.nodes_per_s"] = result.nodes / untraced.walls()[0]
    metrics["invariants.dfs.self_s"] = summary["invariants.small_davenport"][2]
    return traced_wall


_TRACED = {
    "inverse_k_le_2_372": _trace_inverse,
    "windows_k2_5113": _trace_windows,
    "davenport_small_3133": _trace_davenport,
}


def run_traced(workload: str, ctx, seed: int, seconds: float):
    """Untraced run, then the traced replica; returns (outcome, per-layer metrics)."""
    untraced = wl.run(workload, ctx, seed, seconds)
    tr = Tracer()
    metrics = {name: 0 for name, _ in PER_LAYER}
    traced_wall = _TRACED[workload](tr, ctx, untraced, seed, metrics)
    _check_certs(tr, untraced)
    summary = tr.summary()

    def total(name: str) -> float:
        return summary.get(name, [0, 0.0, 0.0])[1]

    def calls(name: str) -> int:
        return summary.get(name, [0, 0.0, 0.0])[0]

    visited, checked = tr.visited, tr.checked
    metrics["enumeration.visited"] = visited
    metrics["enumeration.checked"] = checked
    metrics["enumeration.filter_pass_ratio"] = checked / visited if visited else 0
    metrics["enumeration.iter_s"] = total("enumeration.iter")
    metrics["enumeration.filter_s"] = total("enumeration.filter")
    for method in ("abelian", "ordering", "dp"):
        metrics[f"enumeration.classify.{method}.calls"] = calls(f"enumeration.classify.{method}")
        metrics[f"enumeration.classify.{method}.s"] = total(f"enumeration.classify.{method}")
    metrics["enumeration.ordering.waste_s"] = summary.get("enumeration.classify.dp", [0, 0.0, 0.0])[2]
    metrics["sequences.is_atom.calls"] = calls("sequences.is_atom")
    metrics["sequences.is_atom.s"] = total("sequences.is_atom")
    metrics["sequences.classify.calls"] = calls("sequences.classify")
    metrics["sequences.classify.s"] = total("sequences.classify")
    dp_s = total("sequences.is_atom") + total("sequences.classify")
    metrics["sequences.dp.states"] = tr.dp_states
    metrics["sequences.dp.states_per_s"] = tr.dp_states / dp_s if dp_s else 0
    metrics["sequences.dp.max_states"] = tr.dp_max_states
    metrics["group.shift_mask.calls"] = tr.shift_calls
    metrics["group.shift_mask.ns_per_call"] = shift_mask_ns(ctx, seed)
    metrics["group.tables_s"] = tables_s(ctx.params.descriptor())
    metrics["invariants.extremal_atoms_s"] = total("invariants.extremal_atoms_all")
    for k in range(3):
        metrics[f"invariants.scan.k{k}_s"] = total(f"invariants.scan.k{k}")
    for kind in ("inverse_report", "checkpoint", "davenport_small"):
        times = tr.durations("certificates.check." + kind)
        metrics[f"certificates.check.{kind}.s"] = statistics.median(times) if times else 0
    metrics["trace.overhead_s"] = traced_wall - statistics.fmean(untraced.walls())
    metrics["trace.spans"] = len(tr.start)
    return untraced, metrics

