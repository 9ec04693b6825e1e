"""Self-contained certificates: serialized claims re-checkable without re-search.

Every certificate is UTF-8 JSON with sorted keys, a schema version, and a
digest over the canonical payload (timing excluded, so identical inputs and
seed reproduce identical digests).  ``check_certificate`` re-verifies claims
using only engine-level recomputation: atoms are re-checked, multiset
equalities re-summed, digests recomputed.  Scans of strata with at most two
terms outside <a> settle whole rank ranges by arithmetic, so the checker
runs them again and requires the record to equal the re-scan as canonical
JSON.  What cannot be re-checked without re-running a longer search
(exhaustiveness of a k >= 3 scan, absence of counterexamples) is stated as
a caveat in the verdict rather than silently assumed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field

from . import __version__
from .group import GroupParamError, make_group
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


_COUNTER_NAMES = (
    "visited", "filtered_out", "checked", "atoms", "non_atoms", "not_product_one", "unverified",
)


def _check_scan(space, lo: int, last_rank: int, record: dict, where: str, fail) -> None:
    """A scan of ranks [lo, last_rank] of ``space`` as ``record`` reports it.

    A k <= 2 stratum is scanned again: every counter, ``by_method`` included,
    the atom and unverified lists and the digest must equal the re-scan's as
    canonical JSON, so 42.0 is not 42.  Other strata: counter identities,
    visit and filter counts, listed sequences in the stratum, exhibited atoms
    and findings digest.
    """
    from .enumeration import Shard, atom_search, digest_add, digest_empty, digest_hex

    ctx, stratum, counters = space.ctx, space.stratum, record["counters"]
    if stratum.k is not None and stratum.k <= 2:
        rescan = atom_search(ctx, stratum, shard=Shard(0, 1, lo, last_rank + 1))
        expected = rescan.counters.to_dict()
        fields = [(name, counters.get(name), expected.get(name))
                  for name in sorted(set(counters) | set(expected))]
        fields += [
            ("atom list differs from the re-scan's:", record["atoms"],
             [seq.format(ctx) for seq in rescan.atoms]),
            ("unverified list differs from the re-scan's:", record["unverified"],
             [seq.format(ctx) for seq in rescan.unverified]),
            ("digest", record["digest"], rescan.digest_hex),
        ]
        for name, claimed, found in fields:
            claimed, found = (json.dumps(value, sort_keys=True) for value in (claimed, found))
            if claimed != found:
                fail(f"{where}{name} {claimed} != re-scan {found}")
        return
    methods = counters["by_method"]
    values = [counters[name] for name in _COUNTER_NAMES] + list(methods.values())
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
    for text in record["atoms"] + record["unverified"]:
        seq = Sequence.parse(ctx, text)
        outside = sum(idx >= ctx.q for idx in seq.indices())
        if len(seq) != stratum.length or stratum.k not in (None, outside):
            fail(f"{where}listed sequence {text} is not in the stratum")
    digest = digest_empty()
    for text in record["atoms"]:
        if not is_atom(ctx, Sequence.parse(ctx, text)).atom:
            fail(f"{where}exhibited atom fails re-check: {text}")
        digest = digest_add(digest, text)
    if digest_hex(digest) != record["digest"]:
        fail(f"{where}findings digest does not recompute")


def check_certificate(cert: Certificate) -> CheckResult:
    """Re-verify a certificate from its fields alone."""
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
        if cert.kind in ("atom", "non_atom"):
            seq = Sequence.parse(ctx, payload["sequence"])
            if payload["length"] != len(seq):
                fail(f"length {payload['length']!r} is not the sequence's length {len(seq)}")
            verdict = is_atom(ctx, seq)
            claimed = payload["verdict"]
            if verdict.product_one != claimed["product_one"]:
                fail("product-one flag does not re-verify")
            if verdict.atom != claimed["atom"]:
                fail("atom flag does not re-verify")
            if cert.kind == "atom" and not claimed["atom"]:
                fail("atom certificate claims a non-atom")
            if cert.kind == "non_atom" and claimed["atom"]:
                fail("non-atom certificate claims an atom")
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
            seq = Sequence.parse(ctx, payload["extremal"])
            if len(seq) != payload["value"]:
                fail("extremal example length differs from the claimed value")
            flags = classify(ctx, seq)
            if not flags.product_one_free:
                fail("extremal example is not product-one free")
            if payload.get("refuted_length") != payload["value"] + 1:
                fail("refuted length is not value + 1")
            nodes = payload["nodes"]
            if type(nodes) is not int or nodes < 1:
                fail(f"DFS node count {nodes!r} is not a positive int")
            # a^(q-1) t^(p-1) is product-one free: a product-one part has t-degree
            # 0 mod p, so it holds no t, and a^i is not e for 0 < i < q.
            floor = Sequence.from_indices([1] * (ctx.q - 1) + [ctx.q] * (ctx.p - 1))
            if not classify(ctx, floor).product_one_free:
                fail("a^(q-1) t^(p-1) does not re-verify as product-one free")
            elif payload["value"] < len(floor):
                fail(
                    f"value {payload['value']} is below {len(floor)}, the length of the "
                    "product-one-free a^(q-1) t^(p-1)"
                )
            result.caveats.append(
                "exhaustive refutation of longer sequences requires re-running the DFS"
            )
        elif cert.kind == "inverse_report":
            from .enumeration import Stratum, StratumSpace
            from .invariants import extremal_atoms_all

            forms = {f.sequence.format(ctx) for f in extremal_atoms_all(ctx)}
            if payload["n_f"] != len(forms):
                fail(f"recomputed extremal count {len(forms)} != recorded {payload['n_f']}")
            length = payload["length"]
            if length != 2 * ctx.q:
                fail(f"length {length} is not 2q = {2 * ctx.q}")
            scope_ks = {"k_le_2": [0, 1, 2], "full": list(range(length + 1))}
            if payload["scope"] not in scope_ks:
                fail(f"unknown scope {payload['scope']!r}")
            elif sorted(st["k"] for st in payload["strata"]) != scope_ks[payload["scope"]]:
                fail(f"strata do not cover exactly the k-set of scope {payload['scope']!r}")
            matched = 0
            n_atoms = 0
            unverified = 0
            for stratum in payload["strata"]:
                space = StratumSpace(ctx, Stratum(length=length, k=stratum["k"]))
                if stratum["total"] != space.total:
                    fail(f"stratum k={stratum['k']}: total {stratum['total']} != stratum size "
                         f"{space.total}")
                _check_scan(space, 0, space.total - 1, stratum, f"stratum k={stratum['k']}: ", fail)
                for text in stratum["atoms"]:
                    if stratum["k"] == 2 and text in forms:
                        matched += 1
                    else:
                        fail(f"stratum k={stratum['k']}: atom outside the extremal set: {text}")
                n_atoms += len(stratum["atoms"])
                unverified += len(stratum["unverified"])
            if payload["matched"] != matched:
                fail(f"recomputed matched count {matched} != recorded {payload['matched']}")
            if payload["atoms_found"] != n_atoms:
                fail(f"recomputed atom count {n_atoms} != recorded {payload['atoms_found']}")
            verified = (
                not payload["exceptions"] and not unverified
                and matched == len(forms) == n_atoms
            )
            if payload["verified"] != verified:
                fail(f"recomputed verified flag {verified} != recorded {payload['verified']}")
            if payload["exceptions"]:
                fail(f"report lists {len(payload['exceptions'])} exceptions")
            if any(st["k"] > 2 for st in payload["strata"]):
                result.caveats.append(
                    "exhaustiveness of the k >= 3 scans requires re-running the search"
                )
        elif cert.kind == "elasticity_witness":
            from .invariants import ElasticityWitness, verify_elasticity_witness

            witness = ElasticityWitness(
                product=Sequence.parse(ctx, payload["product"]),
                factors_short=tuple(Sequence.parse(ctx, t) for t in payload["factors_short"]),
                factors_long=tuple(Sequence.parse(ctx, t) for t in payload["factors_long"]),
            )
            if list(witness.lengths) != payload["lengths"]:
                fail("recorded factorization lengths are wrong")
            for problem in verify_elasticity_witness(ctx, witness):
                fail(problem)
        elif cert.kind == "lemma_report":
            from .oracles import LEMMA_IDS, check_cyclic_extremal, check_record

            lemma = payload["lemma"]
            if lemma not in LEMMA_IDS:
                raise ValueError(f"unknown lemma {lemma!r}")
            counts = {key: payload[key] for key in
                      ("trials", "trials_run", "generation_failures", "failures")}
            bad = [key for key, value in counts.items() if type(value) is not int or value < 0]
            if bad:
                raise ValueError(f"{', '.join(bad)} not a non-negative int")
            if counts["trials_run"] + counts["generation_failures"] > counts["trials"]:
                fail(f"{counts['trials_run']} trials run and {counts['generation_failures']} "
                     f"generation failures exceed the {counts['trials']} trials")
            record = payload.get("counterexample")
            # Every suite stops at its first counterexample.
            if counts["failures"] != (record is not None):
                fail(f"{counts['failures']} failures reported with "
                     f"{'a' if record is not None else 'no'} counterexample")
            if lemma == "cyclic-extremal":
                # An exhaustive scan over C_n, named in the payload's group as
                # C_n:mode, so the whole report is re-derived.
                match = re.fullmatch(r"C_(\d+):(multiplicity|extremal)", str(payload["group"]))
                if match is None:
                    fail(f"payload group {payload['group']!r} is not C_n:mode")
                elif check_cyclic_extremal(int(match[1]), match[2]).to_payload() != payload:
                    fail("cyclic-extremal report does not re-derive")
            else:
                if payload["group"] != cert.group:
                    fail(f"payload group {payload['group']!r} is not the certificate's "
                         f"{cert.group!r}")
                if record is not None:
                    # The lemma's own check, run on the recorded instance; a
                    # ValueError (hypotheses not met) fails the certificate.
                    if check_record(ctx, lemma, record) != record:
                        fail("counterexample does not re-verify")
                else:
                    result.caveats.append(
                        "absence of counterexamples re-verifiable only by re-running the trials"
                    )
        elif cert.kind == "checkpoint":
            from .enumeration import Stratum, StratumSpace

            space = StratumSpace(ctx, Stratum.from_dict(payload["stratum"]))
            total = space.total
            shard = payload["shard"]
            lo, hi = (shard["start_rank"], shard["end_rank"]) if shard else (0, total)
            last_rank = payload["last_rank"]
            complete = payload.get("complete", False)
            if not 0 <= lo <= hi <= total:
                fail(f"rank interval [{lo}, {hi}) is not inside the stratum's {total} ranks")
            elif complete and last_rank != hi - 1:
                fail(f"complete scan of [{lo}, {hi}) ends at rank {last_rank}")
            elif not lo - 1 <= last_rank < hi:
                fail(f"last rank {last_rank} is outside [{lo}, {hi})")
            else:
                _check_scan(space, lo, last_rank, payload, "", fail)
            if not complete:
                result.caveats.append("checkpoint covers a partial scan")
            if space.stratum.k is None or space.stratum.k > 2:
                result.caveats.append(
                    "coverage of the rank interval requires re-running the shard"
                )
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        fail(f"malformed payload: {exc}")
    return result
