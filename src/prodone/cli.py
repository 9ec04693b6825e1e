"""Command-line surface: every claim the tool emits is a re-checkable certificate.

Exit codes: 0 = claim verified, 1 = claim falsified / counterexample found,
2 = usage or resource error.  Diagnostics go to stderr; stdout carries one
JSON document per invocation.  ``search`` and ``verify-inverse`` take a
worker count for their process pool: ``--workers``, else PRODONE_THREADS; it
must be a positive integer and is capped at the CPU count.  ``search`` runs
a pool only with ``--shards`` above 1 and no ``--shard-index``, and rejects
an explicit ``--workers`` above 1 otherwise.  Without ``--shard-index``,
``--shards`` may not exceed a stratum's rank count (or 1).  ``search``,
``verify-inverse``, ``davenport`` and ``elasticity`` take no seed: their
verdicts, counters and digests are the same on every run and for every shard
plan.  ``search`` lists every atom of its rank range; its certificate's atom
list, counters and digest describe the same scan.  ``search --length`` and
``--max-candidates``, and ``elasticity --k`` and ``--uk-max-products``, must
be at least 1; ``search --k`` must lie in [0, length].  Only ``lemmas
--seed`` seeds randomized trials, and ``lemmas --trials`` must lie in
[0, ``oracles.MAX_TRIALS``]; its certificate records the report's seed (0 for the
exhaustive ``cyclic-extremal``).  ``elasticity --uk`` factors each product
through the one-pass length-set DP of ``sequences.length_set_bounded``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .certificates import (
    atom_payload,
    check_certificate,
    certificate_to_json,
    make_certificate,
    read_certificate,
    write_certificate,
)
from .enumeration import (
    Stratum,
    StratumSpace,
    atom_search,
    checkpoint_record,
    resolve_workers,
    run_sharded,
    shard_at,
)
from .group import GroupParamError, make_group
from .invariants import (
    build_rho_witness,
    elasticity_calculator,
    extremal_atom,
    small_davenport,
    uk_bounded,
    verify_inverse_theorem,
)
from .oracles import LEMMA_IDS, MAX_TRIALS, run_lemma
from .sequences import ResourceCapError, Sequence, classify, pi_set, subproducts_set


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _emit_certificate(cert, path: str | None) -> None:
    sys.stdout.write(certificate_to_json(cert))
    sys.stdout.write("\n")
    if path:
        write_certificate(cert, path)


def _add_group_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--group", required=True, help="group descriptor 'p,q,s'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodone",
        description="exact product-one sequence combinatorics over C_q : C_p",
    )
    parser.add_argument("--version", action="version", version=f"prodone {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="validate a group and print its structure census")
    _add_group_arg(p_group)

    p_seq = sub.add_parser("seq", help="sequence-level queries")
    seq_sub = p_seq.add_subparsers(dest="seq_command", required=True)
    p_check = seq_sub.add_parser("check", help="classify a sequence and emit an atom certificate")
    _add_group_arg(p_check)
    p_check.add_argument("--seq", required=True, help="sequence literal, e.g. '(0,1)^12,(1,0),(2,5)'")
    p_check.add_argument("--emit-cert", metavar="FILE")
    p_pi = seq_sub.add_parser("pi", help="print product and subproduct sets")
    _add_group_arg(p_pi)
    p_pi.add_argument("--seq", required=True)

    p_search = sub.add_parser("search", help="exhaustive atom search over one stratum")
    _add_group_arg(p_search)
    p_search.add_argument("--length", type=int, required=True)
    p_search.add_argument("--k", type=int, default=None,
                          help="terms outside the commutator subgroup (omit for all)")
    p_search.add_argument("--shards", type=int, default=1)
    p_search.add_argument("--shard-index", type=int, default=None)
    p_search.add_argument("--checkpoint", metavar="FILE")
    p_search.add_argument("--max-candidates", type=int, default=None)
    p_search.add_argument("--no-tau-filter", action="store_true",
                          help="disable the t-degree residue filter")
    p_search.add_argument("--workers", type=int, default=None)
    p_search.add_argument("--emit-cert", metavar="FILE")

    p_dav = sub.add_parser("davenport", help="small/large Davenport constant runs")
    _add_group_arg(p_dav)
    p_dav.add_argument("--which", choices=("small", "large"), required=True)
    p_dav.add_argument("--emit-cert", metavar="FILE")

    p_inv = sub.add_parser("verify-inverse", help="match all maximal atoms against the extremal set")
    _add_group_arg(p_inv)
    p_inv.add_argument("--scope", choices=("k_le_2", "full"), default="k_le_2")
    p_inv.add_argument("--workers", type=int, default=None)
    p_inv.add_argument("--shards", type=int, default=None)
    p_inv.add_argument("--checkpoint-dir", metavar="DIR")
    p_inv.add_argument("--emit-cert", metavar="FILE")

    p_ela = sub.add_parser("elasticity", help="elasticity table and refactorization witnesses")
    _add_group_arg(p_ela)
    p_ela.add_argument("--k", type=int, required=True)
    p_ela.add_argument("--uk", action="store_true", help="also run the bounded union-of-lengths search")
    p_ela.add_argument("--uk-max-products", type=int, default=64)
    p_ela.add_argument("--emit-cert", metavar="FILE")

    p_lem = sub.add_parser("lemmas", help="randomized/exhaustive trial suites")
    _add_group_arg(p_lem)
    p_lem.add_argument("--lemma", required=True, choices=LEMMA_IDS)
    p_lem.add_argument("--trials", type=int, default=1000)
    p_lem.add_argument("--seed", type=int, default=0)
    p_lem.add_argument("--n", type=int, default=None, help="cyclic order for cyclic-extremal")
    p_lem.add_argument("--mode", choices=("multiplicity", "extremal"), default="extremal")
    p_lem.add_argument("--emit-cert", metavar="FILE")

    p_chk = sub.add_parser("check-cert", help="re-verify a certificate file")
    p_chk.add_argument("path")
    return parser


def _cmd_group(args) -> int:
    ctx = make_group(args.group)
    census: dict[str, int] = {}
    for i in range(ctx.n):
        key = str(ctx.order_table[i])
        census[key] = census.get(key, 0) + 1
    _emit(
        {
            "group": ctx.params.descriptor(),
            "order": ctx.n,
            "order_census": census,
            "commutator_subgroup_size": ctx.q,
            "center_size": sum(
                1
                for g in range(ctx.n)
                if all(ctx.mul_idx(g, h) == ctx.mul_idx(h, g) for h in range(ctx.n))
            ),
        }
    )
    return 0


def _emit_atom_certificate(ctx, seq: Sequence, path: str | None) -> bool:
    """Classify ``seq``, emit its atom or non-atom certificate, and return whether it is an atom."""
    started = time.perf_counter()
    payload = atom_payload(ctx, seq)
    atom = payload["verdict"]["atom"]
    cert = make_certificate("atom" if atom else "non_atom", ctx.params.descriptor(), payload,
                            wall_s=time.perf_counter() - started)
    _emit_certificate(cert, path)
    return atom


def _cmd_seq_check(args) -> int:
    ctx = make_group(args.group)
    _emit_atom_certificate(ctx, Sequence.parse(ctx, args.seq), args.emit_cert)
    return 0


def _cmd_seq_pi(args) -> int:
    ctx = make_group(args.group)
    seq = Sequence.parse(ctx, args.seq)
    products = pi_set(ctx, seq)
    subproducts = subproducts_set(ctx, seq) if not seq.is_empty else products
    flags = classify(ctx, seq) if not seq.is_empty else None
    _emit(
        {
            "sequence": seq.format(ctx),
            "pi": [f"({a},{b})" for a, b in map(ctx.coords, products)],
            "subproducts": [f"({a},{b})" for a, b in map(ctx.coords, subproducts)],
            "product_one": flags.product_one if flags else True,
            "product_one_free": flags.product_one_free if flags else False,
        }
    )
    return 0


def _cmd_search(args) -> int:
    ctx = make_group(args.group)
    if args.length < 1:
        raise ValueError(f"--length must be at least 1, got {args.length}")
    if args.k is not None and not 0 <= args.k <= args.length:
        raise ValueError(f"--k must be in [0, {args.length}], got {args.k}")
    if args.max_candidates is not None and args.max_candidates < 1:
        raise ValueError(f"--max-candidates must be at least 1, got {args.max_candidates}")
    stratum = Stratum(
        length=args.length,
        k=args.k,
        tau_residue=None if args.no_tau_filter else 0,
    )
    if args.shards < 1:
        raise ValueError(f"--shards must be at least 1, got {args.shards}")
    if args.shard_index is not None and not 0 <= args.shard_index < args.shards:
        raise ValueError(
            f"--shard-index must be in [0, {args.shards}), got {args.shard_index}"
        )
    if args.shards > 1 and args.shard_index is None:
        for flag, value in (("--checkpoint", args.checkpoint),
                            ("--max-candidates", args.max_candidates)):
            if value is not None:
                raise ValueError(f"{flag} needs --shard-index when --shards is above 1")
    elif args.workers is not None and args.workers > 1:
        raise ValueError("--workers above 1 needs --shards above 1 and no --shard-index")
    workers = resolve_workers(args.workers)
    started = time.perf_counter()
    if args.shard_index is not None:
        shard = shard_at(StratumSpace(ctx, stratum).total, args.shards, args.shard_index)
        result = atom_search(
            ctx, stratum, shard=shard,
            checkpoint_path=args.checkpoint, max_candidates=args.max_candidates,
        )
    elif args.shards > 1:
        result = run_sharded(ctx, stratum, n_shards=args.shards, workers=workers)
    else:
        result = atom_search(
            ctx, stratum,
            checkpoint_path=args.checkpoint, max_candidates=args.max_candidates,
        )
    payload = checkpoint_record(
        ctx, stratum, result.shard,
        0, result.counters, result.digest,
        result.atom_texts, result.unverified_texts, result.last_rank, result.complete,
    )
    cert = make_certificate("checkpoint", ctx.params.descriptor(), payload,
                            seed=payload["seed"], wall_s=time.perf_counter() - started)
    _emit_certificate(cert, args.emit_cert)
    return 0 if result.complete and not result.unverified_texts else 1


def _cmd_davenport(args) -> int:
    ctx = make_group(args.group)
    started = time.perf_counter()
    if args.which == "small":
        result = small_davenport(ctx)
        flags = classify(ctx, result.extremal)
        cert = make_certificate(
            "davenport_small", ctx.params.descriptor(), result.to_payload(ctx),
            wall_s=time.perf_counter() - started,
        )
        _emit_certificate(cert, args.emit_cert)
        return 0 if flags.product_one_free else 1
    # One engine-checked atom of length 2q; that every length-2q atom is
    # extremal is certified by ``verify-inverse``.
    witness = extremal_atom(ctx, (1, 0), (0, 1)).sequence
    return 0 if _emit_atom_certificate(ctx, witness, args.emit_cert) else 1


def _cmd_verify_inverse(args) -> int:
    ctx = make_group(args.group)
    started = time.perf_counter()
    report = verify_inverse_theorem(
        ctx, args.scope,
        workers=resolve_workers(args.workers),
        n_shards=args.shards, checkpoint_dir=args.checkpoint_dir,
    )
    cert = make_certificate(
        "inverse_report", ctx.params.descriptor(), report.to_payload(),
        seed=report.seed, wall_s=time.perf_counter() - started,
    )
    _emit_certificate(cert, args.emit_cert)
    return 0 if report.verified else 1


def _cmd_elasticity(args) -> int:
    ctx = make_group(args.group)
    if args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    if args.uk_max_products < 1:
        raise ValueError(f"--uk-max-products must be at least 1, got {args.uk_max_products}")
    started = time.perf_counter()
    table = elasticity_calculator(2 * ctx.q, max(args.k // 2, 1))
    doc: dict = {"calculator": table.to_payload()}
    witness = None
    if args.k == 2:
        witness = build_rho_witness(ctx, "rho2")
    elif args.k == 3:
        witness = build_rho_witness(ctx, "rho3")
    if witness is not None:
        payload = witness.to_payload(ctx)
        cert = make_certificate(
            "elasticity_witness", ctx.params.descriptor(), payload,
            wall_s=time.perf_counter() - started,
        )
        doc["witness_certificate"] = json.loads(certificate_to_json(cert))
        if args.emit_cert:
            write_certificate(cert, args.emit_cert)
    if args.uk:
        result = uk_bounded(ctx, args.k, max_products=args.uk_max_products)
        doc["uk"] = {
            "k": result.k,
            "values": sorted(result.values),
            "complete": result.complete,
            "budget_exhausted": result.budget_exhausted,
        }
    _emit(doc)
    return 0


def _cmd_lemmas(args) -> int:
    ctx = make_group(args.group)
    if not 0 <= args.trials <= MAX_TRIALS:
        raise ValueError(f"--trials must lie in [0, {MAX_TRIALS}], got {args.trials}")
    started = time.perf_counter()
    report = run_lemma(ctx, args.lemma, args.trials, args.seed, n=args.n, mode=args.mode)
    cert = make_certificate(
        "lemma_report", ctx.params.descriptor(), report.to_payload(),
        seed=report.seed, wall_s=time.perf_counter() - started,
    )
    _emit_certificate(cert, args.emit_cert)
    return 0 if report.ok else 1


def _cmd_check_cert(args) -> int:
    cert = read_certificate(args.path)
    result = check_certificate(cert)
    _emit(
        {
            "path": args.path,
            "kind": result.kind,
            "ok": result.ok,
            "messages": result.messages,
            "caveats": result.caveats,
        }
    )
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "group": _cmd_group,
        "search": _cmd_search,
        "davenport": _cmd_davenport,
        "verify-inverse": _cmd_verify_inverse,
        "elasticity": _cmd_elasticity,
        "lemmas": _cmd_lemmas,
        "check-cert": _cmd_check_cert,
    }
    try:
        if args.command == "seq":
            handler = _cmd_seq_check if args.seq_command == "check" else _cmd_seq_pi
            return handler(args)
        return handlers[args.command](args)
    except GroupParamError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ResourceCapError as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
