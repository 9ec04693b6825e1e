"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 5 (the full-scope scan over every stratum) is an extended
multi-hour run; enable it with PRODONE_EXTENDED=1.  Everything else,
the k<=2 scope at 5,11,3 and 3,13,3 included, runs in a normal pytest
invocation and asserts both the stated results and the stated time
budgets.
"""

import itertools
import json
import os
import random
import time

import pytest

from prodone import enumeration, make_group
from prodone.certificates import check_certificate, make_certificate
from prodone.enumeration import (
    Stratum,
    atom_search,
    checkpoint_record,
    run_sharded,
)
from prodone.invariants import (
    build_rho_witness,
    elasticity_calculator,
    extremal_atom,
    small_davenport,
    verify_inverse_theorem,
)
from prodone.oracles import check_cyclic_extremal, naive_is_atom, naive_pi_set, run_lemma
from prodone.sequences import Sequence, is_atom, pi_set

N_F_372 = 42

EXTENDED = bool(os.environ.get("PRODONE_EXTENDED"))


def _report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"[criterion {number}] PASS: {label} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def inverse_report_372(ctx372):
    started = time.perf_counter()
    report = verify_inverse_theorem(ctx372, "k_le_2")
    return report, time.perf_counter() - started


def test_criterion_1_group_structure_census(ctx372):
    started = time.perf_counter()
    census: dict[int, int] = {}
    for i in range(ctx372.n):
        census[ctx372.order_table[i]] = census.get(ctx372.order_table[i], 0) + 1
    assert census == {1: 1, 7: 6, 3: 14}
    assert sum(1 for i in range(ctx372.n) if i < ctx372.q) == 7
    center = [
        g for g in range(ctx372.n)
        if all(ctx372.mul_idx(g, h) == ctx372.mul_idx(h, g) for h in range(ctx372.n))
    ]
    assert center == [0]
    for i, j, k in itertools.product(range(21), range(21), range(21)):
        assert ctx372.mul_idx(ctx372.mul_idx(i, j), k) == ctx372.mul_idx(i, ctx372.mul_idx(j, k))
    _report(1, "order census 1/6/14, |<a>| = 7, trivial center, associativity 21^3", started, 1.0)


def test_criterion_2_engine_vs_oracle(ctx372):
    started = time.perf_counter()
    # Exhaustive: every multiset of length <= 3 over all 21 elements.
    count = 0
    for length in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(range(21), length):
            seq = Sequence.from_indices(combo)
            assert pi_set(ctx372, seq).mask == naive_pi_set(ctx372, seq).mask
            count += 1
    assert count == 21 + 231 + 1771
    # Seeded random sequences of length <= 6.
    rng = random.Random(20_240_601)
    for _ in range(10_000):
        seq = Sequence.from_indices(rng.choices(range(21), k=rng.randrange(1, 7)))
        assert pi_set(ctx372, seq).mask == naive_pi_set(ctx372, seq).mask
    # Atom verdicts on length <= 8, full dataclass equality (same witness rule).
    for _ in range(1_000):
        seq = Sequence.from_indices(rng.choices(range(21), k=rng.randrange(1, 9)))
        assert is_atom(ctx372, seq) == naive_is_atom(ctx372, seq)
    _report(2, "pi and atom verdicts match the brute-force oracles", started, 120.0)


def test_criterion_3_extremal_atoms(ctx372, ctx3133):
    started = time.perf_counter()
    form = extremal_atom(ctx372, (1, 0), (0, 1))
    assert form.sequence.format(ctx372) == "(0,1)^12,(1,0),(2,5)"
    assert len(form.sequence) == 14
    verdict = is_atom(ctx372, form.sequence)
    assert verdict.product_one and verdict.atom
    form13 = extremal_atom(ctx3133, (1, 0), (0, 1))
    assert len(form13.sequence) == 26
    assert is_atom(ctx3133, form13.sequence).atom
    _report(3, "realized extremal sequences are atoms of length 2q", started, 5.0)


def test_criterion_4_inverse_theorem_stratum_scope(ctx372, inverse_report_372):
    report, search_elapsed = inverse_report_372
    started = time.perf_counter() - search_elapsed
    assert report.n_f == N_F_372
    by_k = {rep.k: rep for rep in report.strata}
    assert set(by_k) == {0, 1, 2}
    assert by_k[0].total == 11_628 and not by_k[0].atoms
    assert by_k[1].total == 119_952 and not by_k[1].atoms
    assert by_k[2].total == 649_740
    assert len(by_k[2].atoms) == N_F_372
    assert report.matched == N_F_372
    assert not report.exceptions
    assert report.unverified_total == 0
    assert report.verified
    # The fixture did the search; keep the whole criterion within budget anyway.
    _report(4, "length-14 atoms exist only in the k=2 stratum and all match", started, 600.0)


def _check_k_le_2_claim(ctx, n_f: int):
    started = time.perf_counter()
    descriptor = ctx.params.descriptor()
    report = verify_inverse_theorem(ctx, "k_le_2")
    assert report.n_f == report.matched == n_f
    assert not report.exceptions and report.unverified_total == 0 and report.verified
    cert = make_certificate("inverse_report", descriptor, report.to_payload(), seed=report.seed)
    outcome = check_certificate(cert)
    assert outcome.ok, outcome.messages
    assert outcome.caveats == []  # the checker scans every k<=2 stratum again
    _report(4, f"k<=2 inverse theorem at ({descriptor}), certificate re-checked", started, 60.0)
    return report


def test_inverse_theorem_k_le_2_at_5_11_3(ctx5113):
    # 9.9e9 ranks of k=2 and 2.0e7 of k=0, settled by the lemma of fact 9 and cut D.
    _check_k_le_2_claim(ctx5113, 220)


def test_inverse_theorem_k_le_2_at_3_13_3(ctx3133):
    # 1.5e11 ranks of k=2, of which the pair loop sees the blocks of 12 <a>-parts.
    _check_k_le_2_claim(ctx3133, 156)


def test_inverse_theorem_k_le_2_at_3_19_7():
    # The k=2 stratum has 1.2e16 passing candidates; the pair loop sees the
    # blocks of its 18 constant <a>-parts.
    report = _check_k_le_2_claim(make_group("3,19,7"), 342)
    k2 = next(rep for rep in report.strata if rep.k == 2)
    assert (k2.counters["atoms"], k2.counters["non_atoms"]) == (342, 11_663_470_612_291_793)


@pytest.mark.parametrize("descriptor, n_f", [("5,31,2", 1_860), ("7,29,16", 2_436)])
def test_inverse_theorem_k_le_2_at_q_near_30(descriptor, n_f):
    # n_f = q(q - 1)(p - 1)/2 atoms, confirmed by the engine once per Aut
    # orbit, (p - 1)/2 times, on each side.
    _check_k_le_2_claim(make_group(descriptor), n_f)


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="multi-hour run; set PRODONE_EXTENDED=1")
def test_criterion_5_inverse_theorem_full_scope(ctx372):
    started = time.perf_counter()
    workers = int(os.environ.get("PRODONE_THREADS", "8"))
    report = verify_inverse_theorem(
        ctx372, "full", workers=workers, n_shards=4 * workers,
    )
    assert report.verified, report.to_payload()
    for rep in report.strata:
        if rep.k >= 3:
            assert not rep.atoms
    # Differently-sharded rerun of one stratum reproduces the digest.
    stratum = Stratum(length=14, k=3)
    first = run_sharded(ctx372, stratum, n_shards=5, workers=workers)
    second = run_sharded(ctx372, stratum, n_shards=11, workers=workers)
    assert first.digest == second.digest
    assert first.counters.to_dict() == second.counters.to_dict()
    elapsed = time.perf_counter() - started
    print(f"[criterion 5] PASS: zero atoms in every k >= 3 stratum ({elapsed:.0f}s)")


def test_criterion_5_placeholder_when_not_extended():
    if not EXTENDED:
        print("[criterion 5] SKIPPED: extended full-scope scan (set PRODONE_EXTENDED=1)")


def test_criterion_6_small_davenport(ctx372, ctx3133):
    started = time.perf_counter()
    result = small_davenport(ctx372)
    assert result.value == 8
    seq = result.extremal
    from prodone.sequences import classify

    flags = classify(ctx372, seq)
    assert flags.product_one_free and len(seq) == 8
    _report(6, "small constant 8 at (3,7,2) with verified extremal example", started, 60.0)
    result13 = small_davenport(ctx3133)
    assert result13.value == 14
    assert result13.nodes == 5_498_712
    assert result13.extremal.format(ctx3133) == "(0,1)^12,(1,0)^2"
    assert classify(ctx3133, result13.extremal).product_one_free
    elapsed = time.perf_counter() - started
    print(f"[criterion 6] PASS: small constant 14 at (3,13,3) ({elapsed:.1f}s)")


def test_criterion_7_elasticity_witnesses(ctx372):
    started = time.perf_counter()
    rho2 = build_rho_witness(ctx372, "rho2")
    assert rho2.lengths == (2, 14)
    rho3 = build_rho_witness(ctx372, "rho3")
    assert rho3.lengths == (3, 16)
    table = elasticity_calculator(14, 1)
    assert table.rho_even == 14
    assert table.rho_odd_bounds == (16, 20)
    # Independent re-checker: certificate round trip through the validator.
    for witness in (rho2, rho3):
        cert = make_certificate("elasticity_witness", "3,7,2", witness.to_payload(ctx372))
        outcome = check_certificate(cert)
        assert outcome.ok, outcome.messages
    _report(7, "rho witnesses (2,14) and (3,16); odd bound 16 <= rho_3 <= 20", started, 5.0)


def test_criterion_8_lemma_suites(ctx372, ctx3133):
    started = time.perf_counter()
    for ctx in (ctx372, ctx3133):
        report = run_lemma(ctx, "cauchy-davenport", trials=10_000, seed=8)
        assert report.ok and report.trials_run == 10_000
    for n in (5, 7, 9):
        for mode in ("multiplicity", "extremal"):
            report = check_cyclic_extremal(n, mode)
            assert report.ok, report.counterexample
    for lemma in (
        "outer-term-spread",
        "outer-pair-spread",
        "full-support-spread",
        "closed-product-chain",
        "short-window",
        "coset-window",
    ):
        report = run_lemma(ctx372, lemma, trials=1_000, seed=8)
        assert report.ok, (lemma, report.counterexample)
        assert report.trials_run == 1_000, (lemma, report.generation_failures)
    _report(8, "zero counterexamples across all lemma suites", started, 300.0)


def test_criterion_9_infrastructure(ctx372, inverse_report_372, tmp_path, monkeypatch):
    started = time.perf_counter()
    # Sharded vs single-run digest equality.
    stratum = Stratum(length=6, k=2)
    single = atom_search(ctx372, stratum)
    merged = run_sharded(ctx372, stratum, n_shards=7, workers=1)
    assert merged.digest == single.digest
    assert merged.counters.to_dict() == single.counters.to_dict()

    # Checkpoint kill/resume digest equality.
    resume_stratum = Stratum(length=5, k=1)
    baseline = atom_search(ctx372, resume_stratum)
    path = str(tmp_path / "resume.json")
    monkeypatch.setattr(enumeration, "_CHECKPOINT_EVERY", 83)
    while True:
        partial = atom_search(ctx372, resume_stratum, checkpoint_path=path, max_candidates=500)
        if partial.complete:
            break
    assert partial.digest == baseline.digest
    assert partial.counters.to_dict() == baseline.counters.to_dict()

    # Certificate round trip for every kind.
    certs = {}
    seq = Sequence.parse(ctx372, "(0,1)^12,(1,0),(2,5)")
    verdict = is_atom(ctx372, seq)
    certs["atom"] = make_certificate(
        "atom", "3,7,2",
        {"sequence": seq.format(ctx372), "length": 14,
         "verdict": {"product_one": True, "atom": True}, "witness": None},
    )
    pair_seq = Sequence.parse(ctx372, "(1,0),(2,0),(0,1),(0,6)")
    pair_verdict = is_atom(ctx372, pair_seq)
    certs["non_atom"] = make_certificate(
        "non_atom", "3,7,2",
        {"sequence": pair_seq.format(ctx372), "length": 4,
         "verdict": {"product_one": True, "atom": False},
         "witness": [part.format(ctx372) for part in pair_verdict.witness]},
    )
    certs["davenport_small"] = make_certificate(
        "davenport_small", "3,7,2", small_davenport(ctx372).to_payload(ctx372)
    )
    certs["inverse_report"] = make_certificate(
        "inverse_report", "3,7,2", inverse_report_372[0].to_payload(), seed=0
    )
    certs["elasticity_witness"] = make_certificate(
        "elasticity_witness", "3,7,2",
        build_rho_witness(ctx372, "rho2").to_payload(ctx372),
    )
    certs["lemma_report"] = make_certificate(
        "lemma_report", "3,7,2",
        run_lemma(ctx372, "cauchy-davenport", trials=200, seed=9).to_payload(), seed=9,
    )
    search_result = atom_search(ctx372, Stratum(length=4, k=2))
    certs["checkpoint"] = make_certificate(
        "checkpoint", "3,7,2",
        checkpoint_record(
            ctx372, Stratum(length=4, k=2), None, 0,
            search_result.counters, search_result.digest,
            [s.format(ctx372) for s in search_result.atoms],
            [s.format(ctx372) for s in search_result.unverified],
            search_result.last_rank, search_result.complete,
        ),
        seed=0,
    )
    from prodone.certificates import parse_certificate, read_certificate, write_certificate

    for kind, cert in certs.items():
        file_path = str(tmp_path / f"{kind}.json")
        write_certificate(cert, file_path)
        loaded = read_certificate(file_path)
        outcome = check_certificate(loaded)
        assert outcome.ok, (kind, outcome.messages)

    # Tampered certificates are rejected.
    with open(str(tmp_path / "atom.json")) as handle:
        data = json.load(handle)
    data["payload"]["length"] = 13
    tampered = parse_certificate(json.dumps(data))
    assert not check_certificate(tampered).ok
    _report(9, "shard/checkpoint determinism and certificate round-trips", started, 120.0)
