"""Self-contained certificates: serialized claims re-checkable without re-search.

Every certificate is UTF-8 JSON with sorted keys, a schema version, and a
digest over the canonical payload (timing excluded, so identical inputs and
seed reproduce identical digests).  ``check_certificate`` holds every kind
to one rule: it builds the expected payload with its producer's own builder
and requires the claim to equal it leaf by leaf as canonical JSON
(``_compare``).  The builder's inputs are what the checker re-derives
(engine verdicts, stratum sizes, the scan of every stratum with at most two
terms outside <a>, which settles whole rank ranges by arithmetic, the
extremal matches, the seeded or exhaustive lemma suites, the small Davenport
DFS) plus the claimed fields it cannot re-derive, after the checks those
fields admit.  The certificate's own ``seed`` must be its payload's for the
kinds that record one, and null otherwise.  One claim stays a caveat in the
verdict: the exhaustiveness of a k >= 3 scan.  A checkpoint whose shard label
(index of n_shards) is not ``shard_at``'s interval gets a caveat too: the
check covers the recorded rank interval, not the label.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field

from . import __version__
from .enumeration import (
    COUNTER_NAMES, SearchCounters, Shard, Stratum, StratumSpace, atom_search, checkpoint_record,
    digest_add, digest_empty, digest_hex, shard_at,
)
from .group import GroupParamError, make_group
from .invariants import (
    ElasticityWitness, StratumReport, inverse_report, scope_ks, small_davenport,
    verify_elasticity_witness,
)
from .sequences import Sequence, classify, is_atom

SCHEMA = "prodone-cert/1"

KINDS = (
    "atom",
    "non_atom",
    "davenport_small",
    "inverse_report",
    "elasticity_witness",
    "lemma_report",
    "checkpoint",
)


@dataclass
class Certificate:
    kind: str
    group: str | None
    payload: dict
    seed: int | None
    tool_version: str = __version__
    schema: str = SCHEMA
    timing: dict = field(default_factory=dict)
    digest: str = ""


def _body(cert: Certificate) -> dict:
    """The fields the digest covers: all but ``timing`` and the digest itself."""
    return {
        "schema": cert.schema,
        "kind": cert.kind,
        "group": cert.group,
        "payload": cert.payload,
        "seed": cert.seed,
        "tool_version": cert.tool_version,
    }


def _canonical_bytes(cert: Certificate) -> bytes:
    return json.dumps(_body(cert), sort_keys=True, separators=(",", ":")).encode()


def compute_digest(cert: Certificate) -> str:
    return hashlib.sha256(_canonical_bytes(cert)).hexdigest()


def make_certificate(
    kind: str,
    group: str | None,
    payload: dict,
    *,
    seed: int | None = None,
    wall_s: float | None = None,
) -> Certificate:
    if kind not in KINDS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    timing = {"created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    if wall_s is not None:
        timing["wall_s"] = round(wall_s, 3)
    cert = Certificate(kind=kind, group=group, payload=payload, seed=seed, timing=timing)
    cert.digest = compute_digest(cert)
    return cert


def certificate_to_json(cert: Certificate) -> str:
    body = _body(cert) | {"timing": cert.timing, "digest": cert.digest}
    return json.dumps(body, sort_keys=True, indent=2)


def parse_certificate(text: str) -> Certificate:
    data = json.loads(text)
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unsupported certificate schema {data.get('schema')!r}")
    missing = {"kind", "payload", "digest"} - set(data)
    if missing:
        raise ValueError(f"certificate missing fields: {sorted(missing)}")
    return Certificate(
        kind=data["kind"],
        group=data.get("group"),
        payload=data["payload"],
        seed=data.get("seed"),
        tool_version=data.get("tool_version", "?"),
        schema=data["schema"],
        timing=data.get("timing", {}),
        digest=data["digest"],
    )


def write_certificate(cert: Certificate, path: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(certificate_to_json(cert))
        handle.write("\n")
    os.replace(tmp, path)


def read_certificate(path: str) -> Certificate:
    with open(path, encoding="utf-8") as handle:
        return parse_certificate(handle.read())


@dataclass
class CheckResult:
    ok: bool
    kind: str
    messages: list[str] = field(default_factory=list)
    caveats: list[str] = field(default_factory=list)


def atom_payload(ctx, seq: Sequence) -> dict:
    """The payload of ``seq``'s atom or non-atom certificate: the engine's verdict, and
    for a non-atom its split into two product-one parts."""
    verdict = is_atom(ctx, seq)
    return {
        "sequence": seq.format(ctx),
        "length": len(seq),
        "verdict": {"product_one": verdict.product_one, "atom": verdict.atom},
        "witness": [part.format(ctx) for part in verdict.witness] if verdict.witness else None,
    }


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _compare(where: str, claimed, expected, fail) -> None:
    """Fail once per leaf where ``claimed`` and ``expected`` differ as canonical JSON.

    Dicts are compared key by key, lists by length and then entry by entry
    over their common prefix; anything else is one leaf.  So 42.0 is not 42,
    true is not 1, and an extra or missing key or entry fails.
    """
    if type(claimed) is dict and type(expected) is dict:
        for key in sorted(set(claimed) | set(expected), key=str):
            path = f"{where}.{key}" if where else str(key)
            if key not in claimed or key not in expected:
                have = _canonical(claimed[key]) if key in claimed else "(absent)"
                want = _canonical(expected[key]) if key in expected else "(absent)"
                fail(f"{path}: {have} != re-derived {want}")
            else:
                _compare(path, claimed[key], expected[key], fail)
    elif type(claimed) is list and type(expected) is list:
        if len(claimed) != len(expected):
            fail(f"{where}: {len(claimed)} entries != re-derived {len(expected)}")
        for index, (have, want) in enumerate(zip(claimed, expected)):
            _compare(f"{where}[{index}]", have, want, fail)
    elif _canonical(claimed) != _canonical(expected):
        fail(f"{where}: {_canonical(claimed)} != re-derived {_canonical(expected)}")


def _check_scan(space, lo: int, last_rank: int, record: dict, where: str, fail):
    """The counters, digest, atom and unverified lists of ranks [lo, last_rank] of ``space``.

    A k <= 2 stratum is scanned again, and the re-scan's fields are returned.
    Other strata return ``record``'s, after the checks they admit: counter
    identities, visit and filter counts, listed sequences in the stratum,
    exhibited atoms and findings digest.
    """
    ctx, stratum = space.ctx, space.stratum
    if stratum.k is not None and stratum.k <= 2:
        rescan = atom_search(ctx, stratum, shard=Shard(0, 1, lo, last_rank + 1))
        return rescan.counters, rescan.digest, rescan.atom_texts, rescan.unverified_texts
    counters = record["counters"]
    methods = counters["by_method"]
    values = [counters[name] for name in COUNTER_NAMES] + list(methods.values())
    if any(type(value) is not int or value < 0 for value in values):
        fail(f"{where}counters are not all non-negative ints")
    else:
        if sum(methods.values()) != counters["checked"]:
            fail(f"{where}by_method sums to {sum(methods.values())}, not checked "
                 f"{counters['checked']}")
        if counters["filtered_out"] + counters["checked"] != counters["visited"]:
            fail(f"{where}filter accounting broken")
        parts = (
            counters["atoms"] + counters["non_atoms"]
            + counters["not_product_one"] + counters["unverified"]
        )
        if parts != counters["checked"]:
            fail(f"{where}verdict accounting broken")
        if len(record["atoms"]) != counters["atoms"]:
            fail(f"{where}atom list length != counter")
        if len(record["unverified"]) != counters["unverified"]:
            fail(f"{where}unverified list length != counter")
    if counters["visited"] != last_rank - lo + 1:
        fail(f"{where}visited {counters['visited']} != ranks {lo}..{last_rank}")
    filtered = space.filtered_count(lo, last_rank + 1)
    if counters["filtered_out"] != filtered:
        fail(f"{where}filtered_out {counters['filtered_out']} != recomputed {filtered}")
    listed = {text: Sequence.parse(ctx, text) for text in record["atoms"] + record["unverified"]}
    for text, seq in listed.items():
        outside = sum(idx >= ctx.q for idx in seq.indices())
        if len(seq) != stratum.length or stratum.k not in (None, outside):
            fail(f"{where}listed sequence {text} is not in the stratum")
    digest = digest_empty()
    for text in record["atoms"]:
        if not is_atom(ctx, listed[text]).atom:
            fail(f"{where}exhibited atom fails re-check: {text}")
        digest = digest_add(digest, text)
    if digest_hex(digest) != record["digest"]:
        fail(f"{where}findings digest does not recompute")
    atoms, unverified = ([listed[text].format(ctx) for text in record[name]]
                         for name in ("atoms", "unverified"))
    return SearchCounters.from_dict(counters), int(record["digest"], 16), atoms, unverified


def check_certificate(cert: Certificate) -> CheckResult:
    """Re-verify a certificate from its fields alone.

    The payload must equal, leaf by leaf as canonical JSON, the one its
    producer's own builder gives from what the checker re-derives, plus the
    claimed fields it cannot re-derive, after the checks those fields admit.
    """
    result = CheckResult(ok=True, kind=cert.kind)

    def fail(message: str) -> None:
        result.ok = False
        result.messages.append(message)

    if cert.kind not in KINDS:
        fail(f"unknown certificate kind {cert.kind!r}")
        return result
    if compute_digest(cert) != cert.digest:
        fail("digest mismatch: certificate contents were altered")
        return result
    ctx = None
    if cert.group is not None:
        try:
            ctx = make_group(cert.group)
        except GroupParamError as exc:
            fail(f"invalid group descriptor: {exc}")
            return result

    payload = cert.payload
    try:
        # The kinds that record a seed carry it in the payload; the others record none.
        seeded = cert.kind in ("lemma_report", "checkpoint", "inverse_report")
        _compare("certificate seed", cert.seed, payload["seed"] if seeded else None, fail)
        if cert.kind in ("atom", "non_atom"):
            seq = Sequence.parse(ctx, payload["sequence"])
            expected = atom_payload(ctx, seq)
            if cert.kind != ("atom" if expected["verdict"]["atom"] else "non_atom"):
                fail(f"{cert.kind} certificate for a sequence whose re-derived verdict is "
                     f"{_canonical(expected['verdict'])}")
            witness = payload.get("witness")
            if witness is not None:
                if type(witness) is not list or len(witness) != 2:
                    raise ValueError("witness is not a list of two parts")
                part1, part2 = (Sequence.parse(ctx, text) for text in witness)
                if part1.cat(part2) != seq:
                    fail("witness parts do not multiply to the sequence")
                for part in (part1, part2):
                    if not classify(ctx, part).product_one:
                        fail(f"witness part {part.format(ctx)} is not product-one")
        elif cert.kind == "davenport_small":
            expected = small_davenport(ctx).to_payload(ctx)
        elif cert.kind == "inverse_report":
            # k <= 2 strata are scanned again; a k >= 3 record is taken from the
            # claim at its place in the scope's order, after its partial checks.
            # Every k of the scope needs a record.
            length = 2 * ctx.q
            strata = []
            for index, k in enumerate(scope_ks(payload["scope"], length)):
                if k > 2 and index >= len(payload["strata"]):
                    fail(f"strata do not cover the k-set of scope {payload['scope']!r}: "
                         f"no record for k={k}")
                    break
                space = StratumSpace(ctx, Stratum(length=length, k=k))
                record = payload["strata"][index] if k > 2 else None
                counters, digest, atoms, unverified = _check_scan(
                    space, 0, space.total - 1, record, f"stratum k={k}: ", fail)
                strata.append(StratumReport(k, space.total, counters.to_dict(), atoms,
                                            unverified, digest_hex(digest)))
            expected = inverse_report(ctx, payload["scope"], strata).to_payload()
            if any(rep.k > 2 for rep in strata):
                result.caveats.append(
                    "exhaustiveness of the k >= 3 scans requires re-running the search"
                )
        elif cert.kind == "elasticity_witness":
            witness = ElasticityWitness(
                product=Sequence.parse(ctx, payload["product"]),
                factors_short=tuple(Sequence.parse(ctx, t) for t in payload["factors_short"]),
                factors_long=tuple(Sequence.parse(ctx, t) for t in payload["factors_long"]),
            )
            expected = witness.to_payload(ctx)
            for problem in verify_elasticity_witness(ctx, witness):
                fail(problem)
        elif cert.kind == "lemma_report":
            # Every suite is seeded or exhaustive, so running it again is the check.
            # Imported here, as only this kind runs a suite.
            from .oracles import LEMMA_IDS, MAX_CYCLIC_N, MAX_TRIALS, run_lemma

            lemma, trials, seed = payload["lemma"], payload["trials"], payload["seed"]
            if lemma not in LEMMA_IDS:
                raise ValueError(f"unknown lemma {lemma!r}")
            if type(trials) is not int or trials < 0:
                raise ValueError(f"trials {trials!r} is not a non-negative int")
            if type(seed) is not int:
                raise ValueError(f"seed {seed!r} is not an int")
            cyclic = {}
            if lemma == "cyclic-extremal":
                # An exhaustive scan over C_n, named in the payload's group as C_n:mode.
                match = re.fullmatch(r"C_(\d+):(multiplicity|extremal)", str(payload["group"]))
                if match is None:
                    raise ValueError(f"payload group {payload['group']!r} is not C_n:mode")
                cyclic = {"n": int(match[1]), "mode": match[2]}
                if cyclic["n"] > MAX_CYCLIC_N:
                    raise ValueError(f"n {cyclic['n']} exceeds the cap of {MAX_CYCLIC_N}")
            elif trials > MAX_TRIALS:  # the exhaustive scan's count is not capped
                raise ValueError(f"trials {trials} exceeds the cap of {MAX_TRIALS}")
            expected = run_lemma(ctx, lemma, trials, seed, **cyclic).to_payload()
        elif cert.kind == "checkpoint":
            stratum = Stratum.from_dict(payload["stratum"])
            space = StratumSpace(ctx, stratum)
            shard = None if payload["shard"] is None else Shard(**payload["shard"])
            if shard is not None and not (
                    all(type(value) is int for value in vars(shard).values())
                    and 0 <= shard.index < shard.n_shards):
                raise ValueError(f"shard {payload['shard']!r} is not four ints with index in "
                                 "[0, n_shards)")
            lo, hi = (shard.start_rank, shard.end_rank) if shard else (0, space.total)
            last_rank = payload["last_rank"]
            if not 0 <= lo <= hi <= space.total:
                raise ValueError(f"rank interval [{lo}, {hi}) is not inside the stratum's "
                                 f"{space.total} ranks")
            if type(last_rank) is not int or not lo - 1 <= last_rank < hi:
                raise ValueError(f"last rank {last_rank!r} is not an int in [{lo - 1}, {hi})")
            expected = checkpoint_record(
                ctx, stratum, shard, 0, *_check_scan(space, lo, last_rank, payload, "", fail),
                last_rank, last_rank == hi - 1,
            )
            if last_rank != hi - 1:
                result.caveats.append("checkpoint covers a partial scan")
            if shard is not None and shard != shard_at(space.total, shard.n_shards, shard.index):
                result.caveats.append(
                    f"shard label {shard.index} of {shard.n_shards} does not name the rank "
                    f"interval [{lo}, {hi}); only the interval was checked"
                )
            if stratum.k is None or stratum.k > 2:
                result.caveats.append(
                    "coverage of the rank interval requires re-running the shard"
                )
        _compare("", payload, expected, fail)
    except (KeyError, ValueError, TypeError, AttributeError, IndexError) as exc:
        fail(f"malformed payload: {exc}")
    return result
