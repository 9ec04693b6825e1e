"""The benchmark's three workloads: their inputs, verdict checks and untraced runs.

Each workload is a closed loop with one caller: the next call into prodone
starts when the previous one has returned, and nothing runs in parallel.

* ``inverse_k_le_2_372``: ``verify_inverse_theorem`` at 3,7,2 with scope
  ``k_le_2``, exactly as the CLI runs it.  The ordering stage of the
  classifier does most of the work.
* ``windows_k2_5113``: rank windows of the k=2, length-22 stratum at 5,11,3
  (9.9e9 multisets), each scanned by ``atom_search(shard=...)``.  The lattice
  DP does most of the work.
* ``davenport_small_3133``: ``small_davenport`` at 3,13,3.  No enumeration
  and no classifier; the DFS and ``GroupCtx.shift_mask`` do the work.

Every verdict that is timed is checked, against facts any correct program
reproduces (stratum sizes, the k=2 atom digest, the Davenport value and node
count) or against the program's own extremal construction.
"""

from __future__ import annotations

import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from prodone.certificates import check_certificate, make_certificate  # noqa: E402
from prodone.enumeration import (  # noqa: E402
    Shard,
    Stratum,
    StratumSpace,
    atom_search,
    checkpoint_record,
    run_sharded,
)
from prodone.group import make_group  # noqa: E402
from prodone.invariants import (  # noqa: E402
    extremal_atoms_all,
    small_davenport,
    verify_inverse_theorem,
)
from prodone.sequences import Sequence, classify  # noqa: E402

WORKLOADS = ("inverse_k_le_2_372", "windows_k2_5113", "davenport_small_3133")

GROUP = {
    "inverse_k_le_2_372": "3,7,2",
    "windows_k2_5113": "5,11,3",
    "davenport_small_3133": "3,13,3",
}

#: Facts of the k<=2 scan at 3,7,2 that any correct program reproduces.
INVERSE_TOTALS = {0: 11_628, 1: 119_952, 2: 649_740}
INVERSE_N_F = 42
INVERSE_K2_DIGEST = "514f4fc30c17b41a6505567003134cf7c7d29b69179285ec4304adebff5fdfa3"

#: Facts of the small Davenport DFS at 3,13,3.
DAVENPORT_VALUE = 14
DAVENPORT_NODES = 5_498_712

#: Seconds one verdict of the two single-call workloads took on a 2-core
#: Xeon when the benchmark was written; a run makes round(seconds / nominal)
#: verdicts, at least one.
NOMINAL_S = {"inverse_k_le_2_372": 30.0, "davenport_small_3133": 42.0}

#: The window plan of ``windows_k2_5113``.  Windows are anchored at evenly
#: spaced ranks across the whole stratum and the seed shifts each window by
#: up to WINDOW_JITTER ranks.  The lattice DP runs on a few hundred
#: candidates per run, each costing 5 to 400 ms, so windows placed fully at
#: random make the run time differ by about 10% from seed to seed; the fixed
#: anchors keep that spread below the benchmark's bound while every seed
#: still scans different ranks.
WINDOW_RANKS = 2970
WINDOW_JITTER = 297
#: Ranks scanned per second on a 2-core Xeon when the benchmark was written,
#: used to size a run to the requested number of seconds.
WINDOW_RANKS_PER_S = 6500

#: Windows per k>=3 stratum, and their length, for the full-scope estimate.
ESTIMATE_WINDOWS = 3
ESTIMATE_RANKS = 1500

SETUP_REPEATS = 11

#: Seconds between speed samples during a scan; the duration of one sample
#: on a quiet 2-core Xeon, which defines the reference speed; and how many
#: samples SpeedProbe.scale takes the median of.
PROBE_INTERVAL_S = 0.1
REFERENCE_S = 135e-6
SAMPLE_GROUP = 5

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import prodone.certificates, prodone.enumeration, prodone.invariants
from prodone.group import make_group
ctx = make_group(sys.argv[2])
ctx.cayley()
for g in range(ctx.n):
    ctx.right_shift_table(g)
print(time.perf_counter() - t0)
"""


@dataclass
class Outcome:
    """What one run of a workload produced: timings, checks and certificates.

    ``regions`` holds, for each verdict, the (start, stop) perf_counter pairs
    of the work that produced it.
    """

    regions: list[list[tuple[float, float]]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    certs: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def add(self, problems: list[str], failed: int) -> None:
        self.problems.extend(problems)
        self.failed += failed

    def walls(self, probe: "SpeedProbe | None" = None) -> list[float]:
        """Seconds per verdict: as measured, or at the reference speed with ``probe``.

        A verdict's regions run back to back, so one scale over their whole
        span applies to all of them.
        """
        walls = []
        for verdict in self.regions:
            seconds = sum(b - a for a, b in verdict)
            if probe is not None:
                seconds *= probe.scale(verdict[0][0], verdict[-1][1])
            walls.append(seconds)
        return walls


def _reference_loop() -> int:
    """Fixed interpreter work that touches no prodone code: ints, a dict, a list, a sort."""
    table: dict[int, int] = {}
    items = []
    acc = 0
    for i in range(300):
        key = (i * 7919) & 127
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i) & 0xFFFFFFFF
        items.append((key, acc))
    items.sort()
    return acc + len(table)


class SpeedProbe:
    """Samples the host's speed while a run measures.

    The benchmark runs on shared hosts whose speed drifts by a factor of up
    to two within seconds as neighbours load the cores.  A sample times
    ``_reference_loop``, after running it once untimed so that it is warm:
    the loop touches no prodone code, so a faster program cannot make it
    faster.  A region's time at the reference speed is its wall time scaled
    by REFERENCE_S over the sampled duration.  Inside ``periodic()`` a
    SIGALRM handler takes a sample every PROBE_INTERVAL_S, which costs about
    0.3% of a scan.  The set-up interpreters, a second in all, take a sample
    around each one and are scaled by all the samples of that phase: over a
    second the host's speed barely drifts, and one sample is as noisy as
    the interpreter it would scale.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_signal) -> None:
        """Take one (time, seconds) sample; also the SIGALRM handler of ``periodic()``."""
        _reference_loop()
        t0 = perf_counter()
        _reference_loop()
        self.samples.append((t0, perf_counter() - t0))

    @contextmanager
    def periodic(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, stop: float) -> float:
        """Reference/sampled speed ratio over [start, stop].

        Samples inside the region are taken in runs of SAMPLE_GROUP, and the
        medians of the runs are averaged, so a stray slow sample counts
        little while a change of speed inside a long region still counts in
        proportion.  A region without enough samples inside takes the median
        of the SAMPLE_GROUP samples nearest to it.
        """
        inside = [REFERENCE_S / d for t, d in self.samples if start <= t <= stop]
        if len(inside) >= SAMPLE_GROUP:
            groups = [inside[i:i + SAMPLE_GROUP] for i in range(0, len(inside), SAMPLE_GROUP)]
            return statistics.fmean(statistics.median(g) for g in groups)
        nearest = sorted(self.samples, key=lambda s: max(start - s[0], s[0] - stop, 0.0))
        return statistics.median(REFERENCE_S / d for _, d in nearest[:SAMPLE_GROUP])

    def seconds(self, start: float, stop: float) -> float:
        return (stop - start) * self.scale(start, stop)


def warm_group(descriptor: str):
    """make_group plus the table warm-up that every timed call relies on."""
    ctx = make_group(descriptor)
    ctx.cayley()
    for g in range(ctx.n):
        ctx.right_shift_table(g)
    return ctx


def measure_setup(descriptor: str, probe: SpeedProbe, repeats: int = SETUP_REPEATS) -> list[float]:
    """Import + make_group + table warm-up, each time in a fresh interpreter.

    Returns the seconds each interpreter reports.  A speed sample is taken
    before and after each interpreter.
    """
    measured = []
    for _ in range(repeats):
        probe.sample()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), descriptor],
            capture_output=True, text=True, timeout=120, check=True,
        )
        measured.append(float(done.stdout.strip()))
    probe.sample()
    return measured


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verdict_count(seconds: float, workload: str) -> int:
    return max(1, round(seconds / NOMINAL_S[workload]))


# -- checks -------------------------------------------------------------------


def check_inverse(payload: dict) -> tuple[list[str], int]:
    """Problems with a k<=2 inverse report at 3,7,2, and the candidates they fail."""
    problems: list[str] = []
    failed = len(payload["exceptions"])
    if not payload["verified"]:
        problems.append("report is not verified")
    if payload["n_f"] != INVERSE_N_F or payload["matched"] != INVERSE_N_F:
        problems.append(f"n_f={payload['n_f']} matched={payload['matched']}, expected {INVERSE_N_F}")
    if payload["exceptions"]:
        problems.append(f"{len(payload['exceptions'])} atoms outside the extremal set")
    if sorted(st["k"] for st in payload["strata"]) != sorted(INVERSE_TOTALS):
        problems.append("strata are not k=0,1,2")
    for st in payload["strata"]:
        k = st["k"]
        failed += len(st["unverified"])
        if st["unverified"]:
            problems.append(f"k={k}: {len(st['unverified'])} unverified candidates")
        if st["total"] != INVERSE_TOTALS.get(k):
            problems.append(f"k={k}: stratum total {st['total']}")
            failed += 1
        if k == 2 and st["digest"] != INVERSE_K2_DIGEST:
            problems.append(f"k=2: digest {st['digest'][:12]}... differs from the expected one")
            failed += max(1, abs(len(st["atoms"]) - INVERSE_N_F))
        if k != 2 and st["atoms"]:
            problems.append(f"k={k}: {len(st['atoms'])} atoms")
            failed += len(st["atoms"])
    return problems, failed


def check_window(payload: dict, extremal: set[str], size: int) -> tuple[list[str], int]:
    """Problems with one scanned window of the k=2 stratum at 5,11,3."""
    problems: list[str] = []
    outside = [text for text in payload["atoms"] if text not in extremal]
    failed = len(outside) + len(payload["unverified"])
    if outside:
        problems.append(f"window at {payload['shard']['start_rank']}: atom outside the extremal set: {outside[0]}")
    if payload["unverified"]:
        problems.append(f"window at {payload['shard']['start_rank']}: {len(payload['unverified'])} unverified")
    if not payload["complete"] or payload["counters"]["visited"] != size:
        problems.append(f"window at {payload['shard']['start_rank']}: incomplete scan")
        failed += 1
    return problems, failed


def check_davenport(ctx, value: int, extremal: Sequence, nodes: int) -> list[str]:
    problems = []
    if value != DAVENPORT_VALUE:
        problems.append(f"small Davenport value {value}, expected {DAVENPORT_VALUE}")
    if len(extremal) != value or not classify(ctx, extremal).product_one_free:
        problems.append("extremal sequence is not a product-one-free witness of the value")
    if nodes != DAVENPORT_NODES:
        problems.append(f"DFS visited {nodes} nodes, expected {DAVENPORT_NODES}")
    return problems


def check_certs(outcome: Outcome) -> None:
    """Re-check every emitted certificate with check_certificate."""
    for cert in outcome.certs:
        result = check_certificate(cert)
        if not result.ok:
            outcome.add([f"{cert.kind} certificate fails its check: {result.messages}"], 1)


# -- window plans ---------------------------------------------------------------


def plan_windows(total: int, seed: int, count: int,
                 size: int = WINDOW_RANKS, jitter: int = WINDOW_JITTER) -> list[Shard]:
    """``count`` windows of ``size`` ranks at evenly spaced anchors, shifted by the seed."""
    rng = random.Random(seed)
    shards = []
    for i in range(count):
        anchor = (2 * i + 1) * (total - size - jitter) // (2 * count)
        start = anchor + rng.randrange(jitter)
        shards.append(Shard(index=i, n_shards=count, start_rank=start, end_rank=start + size))
    return shards


def random_windows(total: int, rng: random.Random, count: int, size: int) -> list[Shard]:
    """``count`` windows of ``size`` ranks placed uniformly at random."""
    size = min(size, total)
    starts = [rng.randrange(total - size + 1) for _ in range(count)]
    return [Shard(index=i, n_shards=count, start_rank=s, end_rank=s + size)
            for i, s in enumerate(starts)]


def window_count(seconds: float) -> int:
    return max(2, round(seconds * WINDOW_RANKS_PER_S / WINDOW_RANKS))


# -- untraced runs ----------------------------------------------------------------


def run_inverse(ctx, seconds: float) -> Outcome:
    out = Outcome()
    for _ in range(verdict_count(seconds, "inverse_k_le_2_372")):
        t0 = perf_counter()
        report = verify_inverse_theorem(ctx, "k_le_2")
        payload = report.to_payload()
        problems, failed = check_inverse(payload)
        out.regions.append([(t0, perf_counter())])
        out.attempted += sum(st["counters"]["checked"] for st in payload["strata"])
        out.add(problems, failed)
    out.certs.append(make_certificate("inverse_report", ctx.params.descriptor(), payload,
                                      seed=report.seed))
    out.detail["strata"] = {st["k"]: {"counters": st["counters"], "digest": st["digest"]}
                            for st in payload["strata"]}
    return out


def scan_windows(ctx, windows: list[Shard], extremal: set[str]) -> Outcome:
    """Scan each window with atom_search and check it; wall_s is the whole sample."""
    out = Outcome()
    stratum = Stratum(length=2 * ctx.q, k=2)
    regions = []
    payloads = []
    for shard in windows:
        t0 = perf_counter()
        result = atom_search(ctx, stratum, shard=shard)
        payload = checkpoint_record(
            ctx, stratum, shard, 0, result.counters, result.digest,
            [seq.format(ctx) for seq in result.atoms],
            [seq.format(ctx) for seq in result.unverified],
            result.last_rank, result.complete,
        )
        problems, failed = check_window(payload, extremal, shard.end_rank - shard.start_rank)
        regions.append((t0, perf_counter()))
        out.attempted += result.counters.checked
        out.add(problems, failed)
        out.certs.append(make_certificate("checkpoint", ctx.params.descriptor(), payload, seed=0))
        payloads.append(payload)
    out.regions.append(regions)
    out.detail["windows"] = [(p["counters"], p["digest"]) for p in payloads]
    space = StratumSpace(ctx, stratum)
    ranks = sum(w.end_rank - w.start_rank for w in windows)
    out.detail["estimate_k2_5113_cpu_h"] = out.walls()[0] / ranks * space.total / 3600
    return out


def extremal_texts(ctx) -> set[str]:
    return {form.sequence.format(ctx) for form in extremal_atoms_all(ctx)}


def run_windows(ctx, seed: int, seconds: float) -> Outcome:
    space = StratumSpace(ctx, Stratum(length=2 * ctx.q, k=2))
    windows = plan_windows(space.total, seed, window_count(seconds))
    return scan_windows(ctx, windows, extremal_texts(ctx))


def run_davenport(ctx, seconds: float) -> Outcome:
    out = Outcome()
    for _ in range(verdict_count(seconds, "davenport_small_3133")):
        t0 = perf_counter()
        result = small_davenport(ctx)
        problems = check_davenport(ctx, result.value, result.extremal, result.nodes)
        out.regions.append([(t0, perf_counter())])
        out.attempted += 1
        out.add(problems, 1 if problems else 0)
    out.certs.append(make_certificate("davenport_small", ctx.params.descriptor(),
                                      result.to_payload(ctx)))
    out.detail["nodes"] = result.nodes
    out.detail["value"] = result.value
    return out


def run(workload: str, ctx, seed: int, seconds: float) -> Outcome:
    if workload == "inverse_k_le_2_372":
        return run_inverse(ctx, seconds)
    if workload == "windows_k2_5113":
        return run_windows(ctx, seed, seconds)
    return run_davenport(ctx, seconds)


# -- sharded scans and estimates ----------------------------------------------------


def pool_scan(ctx, stratum: Stratum, workers: int):
    """``run_sharded`` over ``workers`` shards with ``workers`` processes.

    Refuses, before any process starts, a worker count above the machine's
    cores: a pool wider than the machine measures contention, not scaling.
    """
    cores = os.cpu_count() or 1
    if not 1 <= workers <= cores:
        raise ValueError(f"pool of {workers} workers requested; this machine has {cores} cores")
    t0 = perf_counter()
    result = run_sharded(ctx, stratum, n_shards=workers, workers=workers)
    return result, perf_counter() - t0


def estimate_full_scope(ctx, seed: int) -> tuple[float, list[str]]:
    """CPU-hours for ``verify-inverse --scope full``, from seeded windows of each k>=3 stratum.

    Returns the estimate (the measured k<=2 part is not included) and any
    problem found in the sampled windows: a k>=3 atom would falsify the claim.
    """
    rng = random.Random(seed)
    length = 2 * ctx.q
    seconds = 0.0
    problems = []
    for k in range(3, length + 1):
        stratum = Stratum(length=length, k=k)
        space = StratumSpace(ctx, stratum)
        windows = random_windows(space.total, rng, ESTIMATE_WINDOWS, ESTIMATE_RANKS)
        t0 = perf_counter()
        for shard in windows:
            result = atom_search(ctx, stratum, shard=shard)
            if result.atoms or result.unverified:
                problems.append(f"k={k} window at {shard.start_rank}: "
                                f"{len(result.atoms)} atoms, {len(result.unverified)} unverified")
        ranks = sum(w.end_rank - w.start_rank for w in windows)
        seconds += (perf_counter() - t0) / ranks * space.total
    return seconds / 3600, problems
