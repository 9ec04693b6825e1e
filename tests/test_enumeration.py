import itertools
import json
import math
import multiprocessing
import os
import random

import pytest
from conftest import automorphism_tables

from prodone import enumeration, sequences
from prodone.certificates import check_certificate, make_certificate
from prodone.enumeration import (
    SearchCounters,
    Shard,
    Stratum,
    StratumSpace,
    atom_search,
    checkpoint_record,
    classify_candidate,
    digest_add,
    digest_empty,
    digest_hex,
    digest_merge,
    load_checkpoint,
    make_shards,
    multiset_count,
    next_multiset,
    rank_multiset,
    run_sharded,
    unrank_multiset,
)
from prodone.group import make_group
from prodone.invariants import extremal_atoms_all, extremal_family, verify_inverse_theorem
from prodone.sequences import AtomVerdict, Sequence, is_atom

EXTENDED = bool(os.environ.get("PRODONE_EXTENDED"))


# -- ranking ------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(1, 1), (4, 3), (6, 2), (5, 5), (7, 1), (6, 0)])
def test_rank_unrank_match_lex_order(n, k):
    expected = list(itertools.combinations_with_replacement(range(n), k))
    assert multiset_count(n, k) == len(expected)
    for rank, tup in enumerate(expected):
        assert rank_multiset(tup, n) == rank
        assert unrank_multiset(rank, n, k) == tup
    cursor = list(expected[0])
    walked = [tuple(cursor)]
    while next_multiset(cursor, n):
        walked.append(tuple(cursor))
    assert walked == expected


# -- strata --------------------------------------------------------------


def test_stratum_sizes(ctx372):
    assert StratumSpace(ctx372, Stratum(length=2, k=None)).total == 210
    space = StratumSpace(ctx372, Stratum(length=14, k=2))
    assert space.total == math.comb(15, 2) * math.comb(17, 5) == 649_740
    assert StratumSpace(ctx372, Stratum(length=3, k=5)).total == 0


def test_enumerate_visits_each_multiset_once(ctx372):
    space = StratumSpace(ctx372, Stratum(length=2, k=None))
    seen = [c for _, c in space.iter_range(0, space.total)]
    assert len(seen) == 210
    assert len(set(seen)) == 210
    assert seen == sorted(seen)
    brute = [
        tuple(sorted(c))
        for c in itertools.combinations_with_replacement(range(1, 21), 2)
    ]
    assert seen == sorted(brute)


def test_enumerate_fixed_k_contents(ctx372):
    space = StratumSpace(ctx372, Stratum(length=3, k=1))
    seen = [c for _, c in space.iter_range(0, space.total)]
    assert len(seen) == space.total
    for content in seen:
        assert sum(1 for i in content if i >= 7) == 1
        assert all(i != 0 for i in content)
        assert content == tuple(sorted(content))
    assert len(set(seen)) == len(seen)


def test_tau_filter(ctx372):
    space = StratumSpace(ctx372, Stratum(length=2, k=2))
    passed = [c for _, c in space.iter_range(0, space.total) if space.passes_filters(c)]
    # Pairs of outer terms with t-degrees summing to 0 mod 3: one from each class.
    assert len(passed) == 49
    for c in passed:
        assert {ctx372.tau_degree_idx(i) for i in c} == {1, 2}


def test_shards_partition(ctx372):
    space = StratumSpace(ctx372, Stratum(length=14, k=2))
    shards = make_shards(space.total, 8)
    assert shards[0].start_rank == 0 and shards[-1].end_rank == space.total
    assert sum(s.end_rank - s.start_rank for s in shards) == space.total
    sizes = [s.end_rank - s.start_rank for s in shards]
    assert max(sizes) - min(sizes) <= 1
    for left, right in zip(shards, shards[1:]):
        assert left.end_rank == right.start_rank


def test_shard_iteration_matches_slices(ctx372):
    stratum = Stratum(length=3, k=1)
    space = StratumSpace(ctx372, stratum)
    whole = [c for _, c in space.iter_range(0, space.total)]
    pieces = []
    for shard in make_shards(space.total, 7):
        pieces.extend(c for _, c in space.iter_range(shard.start_rank, shard.end_rank))
    assert pieces == whole


# -- candidate classification -----------------------------------------------


def test_classify_agrees_with_engine_small(ctx372):
    rng = random.Random(5)
    for _ in range(300):
        content = tuple(sorted(rng.choices(range(1, 21), k=rng.randrange(2, 7))))
        kind, _method, _verdict = classify_candidate(ctx372, content)
        verdict = is_atom(ctx372, Sequence.from_indices(content))
        if kind == "atom":
            assert verdict.atom
        elif kind == "non_atom":
            assert verdict.product_one and not verdict.atom
        else:
            assert kind == "not_product_one" and not verdict.product_one


def test_classify_agrees_with_engine_length_14(ctx372):
    rng = random.Random(6)
    space = StratumSpace(ctx372, Stratum(length=14, k=2))
    for _ in range(40):
        content = space.candidate_at(rng.randrange(space.total))
        kind, _method, _ = classify_candidate(ctx372, content)
        verdict = is_atom(ctx372, Sequence.from_indices(content))
        expected = (
            "atom" if verdict.atom
            else "non_atom" if verdict.product_one
            else "not_product_one"
        )
        assert kind == expected


# -- the outer-pair route -----------------------------------------------------


def _engine_kind(ctx, content):
    verdict = is_atom(ctx, Sequence.from_indices(content))
    return "atom" if verdict.atom else "non_atom" if verdict.product_one else "not_product_one"


def _outer_pair_kind(ctx, content):
    kind, method, _ = classify_candidate(ctx, content)
    assert method == "outer_pair"
    return kind


def test_outer_pair_matches_engine_up_to_length_six(ctx372):
    # Every content of length <= 6 with exactly two terms outside <a>, with
    # the identity allowed and no t-degree filter.
    q, n = ctx372.q, ctx372.n
    compared = 0
    for length in range(2, 7):
        for inner in itertools.combinations_with_replacement(range(q), length - 2):
            for outer in itertools.combinations_with_replacement(range(q, n), 2):
                content = inner + outer
                assert _outer_pair_kind(ctx372, content) == _engine_kind(ctx372, content), content
                compared += 1
    assert compared == 34_650


@pytest.mark.parametrize("descriptor,seed", [("5,11,3", 11), ("3,13,3", 13)])
def test_outer_pair_matches_engine_on_samples(descriptor, seed):
    ctx = make_group(descriptor)
    p, q, n = ctx.p, ctx.q, ctx.n
    rng = random.Random(seed)
    samples = []
    # Short random contents; in half of them the outer degrees cancel.
    for _ in range(300):
        x1 = rng.randrange(q, n)
        x2 = rng.randrange(q, n)
        if rng.random() < 0.5:
            x2 = (-(x1 // q)) % p * q + x2 % q
        inner = rng.choices(range(q), k=rng.randrange(0, 11))
        samples.append(tuple(sorted(inner + [x1, x2])))
    # Length-2q extremal atoms, and the same with one <a>-term replaced.
    for form in rng.sample(extremal_atoms_all(ctx), 6):
        content = list(form.sequence.indices())
        samples.append(tuple(content))
        inner_at = [i for i, idx in enumerate(content) if idx < q]
        for _ in range(3):
            near = list(content)
            near[rng.choice(inner_at)] = rng.randrange(1, q)
            samples.append(tuple(sorted(near)))
    kinds = set()
    for content in samples:
        kind = _outer_pair_kind(ctx, content)
        assert kind == _engine_kind(ctx, content), content
        kinds.add(kind)
    assert kinds == {"atom", "non_atom", "not_product_one"}


def test_outer_pair_verdicts_do_not_depend_on_visit_order(ctx372):
    # The <a>-part profile is memoized; visiting candidates out of lex order
    # changes which <a>-part is cached when, and must not change a verdict.
    space = StratumSpace(ctx372, Stratum(length=14, k=2))
    contents = [c for _, c in space.iter_range(0, 1_050)]
    contents += [c for _, c in space.iter_range(324_870, 325_920)]
    lex = [classify_candidate(ctx372, c)[0] for c in contents]
    assert "atom" in lex and "non_atom" in lex
    order = list(range(len(contents)))
    random.Random(3).shuffle(order)
    shuffled = {i: classify_candidate(ctx372, contents[i])[0] for i in order}
    assert [shuffled[i] for i in range(len(contents))] == lex


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="about ten minutes; set PRODONE_EXTENDED=1")
def test_outer_pair_matches_engine_on_whole_k2_stratum(ctx372):
    space = StratumSpace(ctx372, Stratum(length=14, k=2))
    checked = mismatches = atoms = 0
    for _, content in space.iter_range(0, space.total):
        if not space.passes_filters(content):
            continue
        checked += 1
        kind = _outer_pair_kind(ctx372, content)
        mismatches += kind != _engine_kind(ctx372, content)
        atoms += kind == "atom"
    assert (checked, mismatches, atoms) == (303_212, 0, 42)


# -- searches -----------------------------------------------------------------


def test_atom_search_length_two(ctx372):
    result = atom_search(ctx372, Stratum(length=2, k=None))
    assert len(result.atoms) == 10
    for seq in result.atoms:
        a, b = seq.indices()
        assert ctx372.inv_table[a] == b
    assert result.counters.visited == 210


def test_prune_soundness_small_lengths(ctx372):
    # Filters on (identity excluded, residue 0, stratified) find exactly the
    # atoms that a filter-free scan finds, for every length <= 6.
    for length in (2, 3, 4, 5, 6):
        unfiltered = atom_search(
            ctx372,
            Stratum(length=length, k=None, exclude_identity=False, tau_residue=None),
        )
        baseline = {seq.entries for seq in unfiltered.atoms}
        stratified = set()
        for k in range(length + 1):
            result = atom_search(ctx372, Stratum(length=length, k=k))
            stratified.update(seq.entries for seq in result.atoms)
        assert stratified == baseline


def test_pof_dfs_prune_never_loses_free_sequences(ctx372):
    # The DFS prunes when a sub-multiset multiplies to the identity in sorted
    # order.  That can over-visit (a later term may sit mid-ordering) but must
    # never skip a product-one-free multiset; validate against an unpruned scan.
    from prodone.sequences import classify

    ground = list(range(1, 21))
    tables = [ctx372.right_shift_table(g) for g in ground]
    shift = ctx372.shift_mask
    reached = set()

    def extend(start, sorted_products, chosen):
        if len(chosen) == 5:
            return
        for i in range(start, len(ground)):
            extended = sorted_products | shift(sorted_products | 1, tables[i])
            if extended & 1:
                continue
            chosen.append(ground[i])
            reached.add(tuple(chosen))
            extend(i, extended, chosen)
            chosen.pop()

    extend(0, 0, [])
    brute = set()
    for length in range(1, 6):
        for combo in itertools.combinations_with_replacement(ground, length):
            if classify(ctx372, Sequence.from_indices(combo)).product_one_free:
                brute.add(combo)
    assert brute <= reached
    # The walk plus the exact verification step identifies precisely the
    # product-one-free multisets.
    verified = {
        c for c in reached
        if classify(ctx372, Sequence.from_indices(c)).product_one_free
    }
    assert verified == brute


def test_atom_search_constant_runs_at_length_seven(ctx372):
    result = atom_search(ctx372, Stratum(length=7, k=0))
    assert sorted(seq.format(ctx372) for seq in result.atoms) == [
        f"(0,{b})^7" for b in range(1, 7)
    ]


def test_sharded_run_matches_single_run(ctx372):
    stratum = Stratum(length=6, k=2)
    single = atom_search(ctx372, stratum)
    merged = run_sharded(ctx372, stratum, n_shards=5, workers=1)
    assert merged.digest == single.digest
    assert merged.counters.to_dict() == single.counters.to_dict()
    # Shards merge in rank order, so the atom list is the single run's.
    assert merged.atoms == single.atoms
    two_workers = run_sharded(ctx372, stratum, n_shards=4, workers=2)
    assert two_workers.digest == single.digest
    assert two_workers.atoms == single.atoms


def test_checkpoint_resume_equals_uninterrupted(ctx372, tmp_path, monkeypatch):
    stratum = Stratum(length=5, k=1)
    baseline = atom_search(ctx372, stratum)
    path = os.path.join(tmp_path, "ckpt.json")
    monkeypatch.setattr(enumeration, "_CHECKPOINT_EVERY", 97)
    chunks = 0
    while True:
        result = atom_search(ctx372, stratum, checkpoint_path=path, max_candidates=400)
        chunks += 1
        if result.complete:
            break
        assert chunks < 100
    assert chunks > 1  # the run really was interrupted and resumed
    assert result.digest == baseline.digest
    assert result.counters.to_dict() == baseline.counters.to_dict()
    record = load_checkpoint(path)
    assert record["complete"]
    counters = record["counters"]
    assert counters["visited"] == StratumSpace(ctx372, stratum).total
    assert counters["filtered_out"] + counters["checked"] == counters["visited"]


def test_checkpoint_saved_at_every_interval(ctx372, tmp_path, monkeypatch):
    # The k=3 stratum at length 6 is scanned one candidate at a time; its
    # 31,360 ranks give one interval save and the final one.  The k=2 stratum
    # at length 14 (649,740 ranks) is walked in one pass and saves once, where
    # the call stops.  A k=2 run stopped at rank 300,000 and resumed ends as
    # the uninterrupted run.
    every = enumeration._CHECKPOINT_EVERY
    saved = []
    save = enumeration.save_checkpoint

    def capture(path, record):
        saved.append(json.loads(json.dumps(record)))
        save(path, record)

    monkeypatch.setattr(enumeration, "save_checkpoint", capture)
    k3 = Stratum(length=6, k=3)
    atom_search(ctx372, k3, checkpoint_path=str(tmp_path / "k3.json"))
    assert [(r["last_rank"], r["complete"]) for r in saved] == [(every - 1, False), (31_359, True)]
    saved.clear()
    stratum = Stratum(length=14, k=2)
    whole = atom_search(ctx372, stratum, checkpoint_path=str(tmp_path / "whole.json"))
    total = StratumSpace(ctx372, stratum).total
    assert [(r["last_rank"], r["complete"]) for r in saved] == [(total - 1, True)]
    uninterrupted, saved[:] = list(saved), []
    path = str(tmp_path / "resumed.json")
    first = atom_search(ctx372, stratum, checkpoint_path=path, max_candidates=300_000)
    assert not first.complete and first.last_rank == 299_999
    resumed = atom_search(ctx372, stratum, checkpoint_path=path)
    assert resumed.complete
    assert (resumed.digest, resumed.atoms) == (whole.digest, whole.atoms)
    assert resumed.counters.to_dict() == whole.counters.to_dict()
    assert [(r["last_rank"], r["complete"]) for r in saved] == [(299_999, False), (total - 1, True)]
    assert saved[-1] == uninterrupted[-1]


@pytest.mark.parametrize("descriptor", ["3,7,2", "5,11,3", "3,13,3"])
def test_checkpointed_k2_stratum_saves_once(descriptor, tmp_path, monkeypatch):
    # The walked k=2 stratum of length 2q runs in one pass whatever its size
    # (1.46e11 ranks at 3,13,3), so a checkpointed scan writes only its final
    # record, which is the unsliced run's and passes the checker's re-scan.
    ctx = make_group(descriptor)
    saved = []
    monkeypatch.setattr(enumeration, "save_checkpoint", lambda path, record: saved.append(record))
    stratum = Stratum(length=2 * ctx.q, k=2)
    atom_search(ctx, stratum, checkpoint_path=str(tmp_path / "ck.json"))
    assert len(saved) == 1
    record = json.loads(json.dumps(saved[0]))
    assert record["complete"] and record["last_rank"] == StratumSpace(ctx, stratum).total - 1
    assert record == _block_record(ctx, stratum)
    outcome = check_certificate(make_certificate("checkpoint", descriptor, record, seed=0))
    assert outcome.ok, outcome.messages


@pytest.mark.parametrize("last_rank,accepted", [
    (999, True), (1_999, True), (998, False), (2_000, False), (10**9, False),
], ids=["lo-1", "hi-1", "below-lo-1", "hi", "far-above"])
def test_checkpoint_last_rank_must_lie_in_the_shard(ctx372, tmp_path, last_rank, accepted):
    # A resumed scan starts after last_rank, so a rank outside [lo - 1, hi)
    # would report ranks it never scanned (or scan some twice) as complete.
    stratum = Stratum(length=6, k=3)
    shard = Shard(0, 1, 1_000, 2_000)
    path = str(tmp_path / "ck.json")
    atom_search(ctx372, stratum, shard=shard, checkpoint_path=path, max_candidates=1)
    record = load_checkpoint(path)
    record["last_rank"] = last_rank
    enumeration.save_checkpoint(path, record)
    if accepted:
        result = atom_search(ctx372, stratum, shard=shard, checkpoint_path=path)
        assert result.complete and result.last_rank == 1_999
    else:
        with pytest.raises(ValueError, match="last rank"):
            atom_search(ctx372, stratum, shard=shard, checkpoint_path=path)


def test_checkpoint_rejects_mismatched_search(ctx372, tmp_path):
    stratum = Stratum(length=4, k=1)
    path = os.path.join(tmp_path, "ckpt.json")
    atom_search(ctx372, stratum, checkpoint_path=path, max_candidates=50)
    with pytest.raises(ValueError):
        atom_search(ctx372, Stratum(length=5, k=1), checkpoint_path=path)


@pytest.mark.parametrize("k,state_cap,workers,expected,interval_saves", [
    (3, 16, 2, {"checked": 9408, "unverified": 9324, "atoms": 84}, 31),
    (2, 2, 1, {"checked": 6174, "unverified": 3738, "atoms": 0}, 0),
], ids=["k3-dp", "k2-block"])
def test_state_cap_sends_candidates_to_unverified(
        ctx372, tmp_path, monkeypatch, k, state_cap, workers, expected, interval_saves):
    # The engine reads its cap at call time, so a lowered cap reaches the k=3
    # DP and the k=2 walk's atom confirmations.  The pool leg (workers=2)
    # relies on forked workers inheriting the patched module value; under the
    # spawn or forkserver start method (macOS, Linux from Python 3.14) they
    # would scan with the unpatched cap.
    if workers > 1:
        assert multiprocessing.get_start_method() == "fork", (
            "the pool leg needs forked workers to see the patched state cap")
    monkeypatch.setattr(sequences, "DEFAULT_STATE_CAP", state_cap)
    stratum = Stratum(length=6, k=k)
    result = atom_search(ctx372, stratum)
    counters = result.counters.to_dict()
    assert {key: counters[key] for key in expected} == expected
    assert len(result.atoms) == counters["atoms"]
    assert len(result.unverified) == counters["unverified"]
    sharded = run_sharded(ctx372, stratum, n_shards=3, workers=workers)
    assert sharded.counters.to_dict() == counters
    assert sharded.unverified == result.unverified
    assert sharded.digest == result.digest
    # A short interval cuts the capped k=3 scan into slices at the checkpoint
    # boundaries, and the k=2 walk runs in one pass and saves once; both must
    # keep the same verdicts and lists.
    monkeypatch.setattr(enumeration, "_CHECKPOINT_EVERY", 1000)
    saves = []
    save = enumeration.save_checkpoint

    def capture(where, record):
        saves.append(record["last_rank"])
        save(where, record)

    monkeypatch.setattr(enumeration, "save_checkpoint", capture)
    path = str(tmp_path / "ckpt.json")
    sliced = atom_search(ctx372, stratum, checkpoint_path=path)
    total = StratumSpace(ctx372, stratum).total
    assert saves == [1000 * i - 1 for i in range(1, interval_saves + 1)] + [total - 1]
    assert (sliced.unverified, sliced.atoms, sliced.digest) == (result.unverified, result.atoms, result.digest)
    record = load_checkpoint(path)
    assert record["complete"] and record["counters"] == counters
    outcome = check_certificate(make_certificate("checkpoint", "3,7,2", record, seed=0))
    assert outcome.ok, outcome.messages


@pytest.mark.parametrize("k,lo,expected", [
    (13, 0, {"non_atoms": 749, "not_product_one": 7, "by_method": {"dp": 441, "ordering": 315}}),
    (6, 1_000_000, {"non_atoms": 343, "not_product_one": 0,
                    "by_method": {"dp": 1, "ordering": 342}}),
])
def test_k_ge_3_windows_keep_verdicts_and_routes(ctx372, k, lo, expected):
    # The ordering stage draws from a stream keyed by group and content, so
    # these route counts are fixed for every run.
    shard = Shard(index=0, n_shards=1, start_rank=lo, end_rank=lo + 2000)
    counters = atom_search(ctx372, Stratum(length=14, k=k), shard=shard).counters.to_dict()
    assert {key: counters[key] for key in expected} == expected
    assert counters["visited"] == 2000
    assert counters["atoms"] == counters["unverified"] == 0


def test_degree_route_settles_nonzero_degree_sums(ctx372, tmp_path, monkeypatch):
    # Every k=1 candidate has one outer term, so its t-degree sum is nonzero:
    # none is product-one, and the scan counts them without building one.
    # With residue 1 only the outer terms of degree 1 pass: 252 <a>-parts
    # times 7 of the 14 outer terms.
    def refuse(*args):
        raise AssertionError("classify_candidate called by the k=1 scan")

    for residue, checked in ((None, 3_528), (1, 1_764)):
        stratum = Stratum(length=6, k=1, tau_residue=residue)
        path = str(tmp_path / f"k1-{residue}.json")
        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "classify_candidate", refuse)
            result = atom_search(ctx372, stratum, checkpoint_path=path)
        counters = result.counters
        assert counters.visited == 3_528 and counters.filtered_out == 3_528 - checked
        assert counters.checked == counters.not_product_one == checked
        assert counters.atoms == counters.non_atoms == counters.unverified == 0
        assert counters.by_method == {"degree": checked}
        record = load_checkpoint(path)
        assert record["complete"]
        assert record == _reference_run(ctx372, stratum)[-1]
        outcome = check_certificate(make_certificate("checkpoint", "3,7,2", record, seed=0))
        assert outcome.ok, outcome.messages
    # At k=3 the route takes exactly the nonzero sums, and the engine agrees.
    space = StratumSpace(ctx372, Stratum(length=5, k=3, tau_residue=None))
    rng = random.Random(5)
    routes = set()
    for rank in rng.sample(range(space.total), 150):
        content = space.candidate_at(rank)
        kind, method, _ = classify_candidate(ctx372, content)
        degree = sum(idx // ctx372.q for idx in content) % ctx372.p
        assert (method == "degree") == (degree != 0)
        routes.add(method)
        if degree:
            assert kind == "not_product_one"
            assert not is_atom(ctx372, Sequence.from_indices(content)).product_one
    assert "degree" in routes and routes - {"degree"}


# -- the block scan against the per-candidate loop ---------------------------------


def _reference_run(ctx, stratum, shard=None, state=None, *, max_candidates=None, every=None):
    """One atom_search call as a loop over single candidates, returning its checkpoint records.

    The loop builds each content with ``iter_range``, filters it with
    ``passes_filters`` and classifies it with ``classify_candidate``.  It
    resumes from the checkpoint record ``state``, stops after
    ``max_candidates`` candidates, records a checkpoint after every
    ``every``-th candidate of the call, and ends with the final record.
    """
    space = StratumSpace(ctx, stratum)
    lo, hi = (shard.start_rank, shard.end_rank) if shard else (0, space.total)
    counters = SearchCounters.from_dict(state["counters"]) if state else SearchCounters()
    digest = int(state["digest"], 16) if state else digest_empty()
    atoms = list(state["atoms"]) if state else []
    unverified = list(state["unverified"]) if state else []
    start = state["last_rank"] + 1 if state else lo
    last_rank = start - 1
    records = []

    def record(complete):
        records.append(json.loads(json.dumps(checkpoint_record(
            ctx, stratum, shard, 0, counters, digest, atoms, unverified, last_rank, complete))))

    processed = 0
    complete = True
    for rank, content in space.iter_range(start, hi):
        if max_candidates is not None and processed >= max_candidates:
            complete = False
            break
        counters.visited += 1
        if not space.passes_filters(content):
            counters.filtered_out += 1
        else:
            counters.checked += 1
            kind, method, _ = classify_candidate(ctx, content)
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
        last_rank = rank
        processed += 1
        if every and processed % every == 0:
            record(False)
    record(complete)
    return records


def _block_record(ctx, stratum, shard=None):
    result = atom_search(ctx, stratum, shard=shard)
    return json.loads(json.dumps(checkpoint_record(
        ctx, stratum, shard, 0, result.counters, result.digest,
        [seq.format(ctx) for seq in result.atoms],
        [seq.format(ctx) for seq in result.unverified],
        result.last_rank, result.complete)))


WHOLE_STRATA = (
    [(14, k, 0) for k in (0, 1, 2)]
    + [(14, 0, residue) for residue in (1, None)]
    + [(length, k, residue)
       for length in (2, 5, 7) for k in (0, 1, 2) for residue in (0, 1, None)]
)


@pytest.mark.parametrize("length,k,residue", WHOLE_STRATA)
def test_block_scan_matches_reference_on_whole_strata(ctx372, length, k, residue):
    stratum = Stratum(length=length, k=k, tau_residue=residue)
    assert _block_record(ctx372, stratum) == _reference_run(ctx372, stratum)[-1]


def test_block_scan_matches_reference_with_identity(ctx372):
    for k in (0, 1, 2):
        stratum = Stratum(length=6, k=k, exclude_identity=False, tau_residue=None)
        assert _block_record(ctx372, stratum) == _reference_run(ctx372, stratum)[-1]


def test_block_scan_keeps_one_outer_table_per_group(ctx372):
    # 3,7,4 has the p and q of 3,7,2 but another s, so its k=2 targets differ
    # from those of the 3,7,2 outer table, which is built first.
    ctx374 = make_group("3,7,4")
    for length in (5, 7):
        stratum = Stratum(length=length, k=2)
        atom_search(ctx372, stratum)
        assert _block_record(ctx374, stratum) == _reference_run(ctx374, stratum)[-1]


@pytest.mark.parametrize("descriptor,seed", [("5,11,3", 21), ("3,13,3", 31)])
def test_block_scan_matches_reference_on_windows(descriptor, seed):
    ctx = make_group(descriptor)
    rng = random.Random(seed)
    cases = [(2, 0), (2, None), (0, 0)]
    for k, residue in cases:
        stratum = Stratum(length=2 * ctx.q, k=k, tau_residue=residue)
        space = StratumSpace(ctx, stratum)
        for index in range(3):
            start = rng.randrange(space.total - 3_000)
            shard = Shard(index, 3, start, start + rng.randrange(1_000, 3_000))
            # Both ends inside a block of one <a>-part, unless blocks are single ranks.
            assert k == 0 or shard.start_rank % space.x_count and shard.end_rank % space.x_count
            assert [c for _, c in space.iter_range(shard.start_rank, shard.start_rank + 200)] == [
                space.candidate_at(r) for r in range(shard.start_rank, shard.start_rank + 200)]
            block = _block_record(ctx, stratum, shard)
            assert block == _reference_run(ctx, stratum, shard)[-1], (k, residue, shard)
            if k == 2 and residue == 0:
                assert block["counters"]["by_method"] == {"outer_pair": block["counters"]["checked"]}


@pytest.mark.parametrize("length,k,residue,window,max_candidates,every", [
    (14, 2, 0, (1_000, 4_000), 400, 97),
    (14, 2, None, (50_013, 51_500), 350, 61),
    (14, 1, 0, (3, 5_000), 1_200, 250),
    (10, 0, 0, None, 700, 97),
    (6, 1, None, None, 300, 41),
    (6, 0, 0, None, 150, 40),
    (6, 3, 0, (1_000, 4_000), 1_100, 300),
    (4, None, 0, None, 2_500, 700),
])
def test_block_scan_checkpoints_match_reference(
        ctx372, tmp_path, monkeypatch, length, k, residue, window, max_candidates, every):
    # Resumed calls stopped by max_candidates write the records of a loop over
    # single candidates.  Strata scanned one candidate at a time (k = 0 up to
    # length q, k >= 3, k = None) also write one after every `every` ranks of
    # a call; the counted and walked strata write one only where a call stops.
    stratum = Stratum(length=length, k=k, tau_residue=residue)
    shard = Shard(0, 1, *window) if window else None
    one_at_a_time = k is None or k >= 3 or k == 0 and length <= ctx372.q
    written = []
    save = enumeration.save_checkpoint

    def capture(path, record):
        written.append(json.loads(json.dumps(record)))
        save(path, record)

    monkeypatch.setattr(enumeration, "save_checkpoint", capture)
    monkeypatch.setattr(enumeration, "_CHECKPOINT_EVERY", every)
    path = str(tmp_path / "ckpt.json")
    calls = 0
    while True:
        result = atom_search(ctx372, stratum, shard=shard, checkpoint_path=path,
                             max_candidates=max_candidates)
        calls += 1
        if result.complete:
            break
    expected = []
    state = None
    while state is None or not state["complete"]:
        expected += _reference_run(ctx372, stratum, shard, state, max_candidates=max_candidates,
                                   every=every if one_at_a_time else None)
        state = expected[-1]
    assert calls > 2
    assert len(expected) > calls if one_at_a_time else len(expected) == calls
    assert written == expected
    assert result.last_rank == expected[-1]["last_rank"]
    assert result.digest_hex == expected[-1]["digest"]


def test_sharded_k2_stratum_matches_single_run(ctx372):
    stratum = Stratum(length=14, k=2)
    single = atom_search(ctx372, stratum)
    merged = run_sharded(ctx372, stratum, n_shards=7, workers=1)
    assert merged.digest_hex == single.digest_hex
    assert merged.counters.to_dict() == single.counters.to_dict()
    assert merged.atoms == sorted(single.atoms)
    assert len(merged.atoms) == 42


def test_block_scan_builds_only_what_it_must(ctx372, monkeypatch):
    # The filter runs once per outer pair of a k=2 shape and never for k=1,
    # and neither k=1 contents, k=2 pairs nor k=0 contents longer than q
    # reach classify_candidate.
    monkeypatch.setattr(enumeration, "_OUTER_TABLES", {})
    tested = []
    passes = StratumSpace.passes_filters
    monkeypatch.setattr(StratumSpace, "passes_filters",
                        lambda self, content: tested.append(content) or passes(self, content))

    def refuse(*args, **kwargs):
        raise AssertionError("classify_candidate called by the block scan")

    monkeypatch.setattr(enumeration, "classify_candidate", refuse)
    k1 = atom_search(ctx372, Stratum(length=14, k=1))
    assert k1.counters.filtered_out == k1.counters.visited == 119_952
    assert tested == []
    k2 = atom_search(ctx372, Stratum(length=14, k=2), shard=Shard(0, 1, 0, 20_000))
    assert len(tested) == 105 and k2.counters.checked > 0
    tested.clear()
    again = atom_search(ctx372, Stratum(length=14, k=2), shard=Shard(0, 1, 20_000, 40_000))
    assert tested == [] and again.counters.checked > 0
    k0 = atom_search(ctx372, Stratum(length=14, k=0))
    assert k0.counters.to_dict() == {
        "visited": 11_628, "filtered_out": 0, "checked": 11_628, "atoms": 0,
        "non_atoms": 1_662, "not_product_one": 9_966, "unverified": 0,
        "by_method": {"abelian": 11_628}}


def test_zero_sum_count_matches_brute_force(ctx372):
    for length in (8, 14):
        for exclude_identity in (True, False):
            stratum = Stratum(length=length, k=0, exclude_identity=exclude_identity)
            space = StratumSpace(ctx372, stratum)
            zero = [sum(c) % ctx372.q == 0 for _, c in space.iter_range(0, space.total)]
            rng = random.Random(length)
            ranges = [(0, space.total), (space.total, space.total)] + [
                sorted(rng.randrange(space.total + 1) for _ in range(2)) for _ in range(30)]
            for lo, hi in ranges:
                assert space.zero_sum_count(lo, hi) == sum(zero[lo:hi]), (stratum, lo, hi)


def _brute_profile(q, inner):
    """(P, R) of the <a>-part ``inner`` from every split of its terms into B, Z and neither."""
    sums = split = 0
    for roles in itertools.product((0, 1, 2), repeat=len(inner)):
        b = sum(y for y, role in zip(inner, roles) if role == 1) % q
        z = [y for y, role in zip(inner, roles) if role == 2]
        sums |= 1 << b
        if z and sum(z) % q == 0:
            split |= 1 << b
    return sums, split


def _assert_split_mask_only_grows(q, parts):
    """Fold each part one term at a time: a full R stays full, and no step loses a bit of R.

    Parts of up to five terms are also checked against every split of their
    terms.  Returns how many parts reach a full R before their last term.
    """
    full = (1 << q) - 1
    early = 0
    for inner in parts:
        profile = enumeration._EMPTY_PROFILE
        was_full = False
        for i, y in enumerate(inner):
            grown = enumeration._profile_step(q, profile, y)
            before, after = profile[2] & full, grown[2] & full
            assert before & ~after == 0, inner[:i + 1]
            assert not was_full or after == full, inner[:i + 1]
            early += was_full and i == len(inner) - 1
            was_full, profile = after == full, grown
        if len(inner) <= 5:
            assert _brute_profile(q, inner) == (profile[1], profile[2] & full), inner
    return early


def test_split_mask_only_grows(ctx372):
    # Every <a>-part of the length-14 k=2 stratum at 3,7,2: 6,182 of the 6,188
    # have a full R (6,152 already before their last term), and only the
    # other 6 reach the pair loop.
    space = StratumSpace(ctx372, Stratum(length=14, k=2))
    parts = [inner for _, inner, _, _ in space.iter_blocks(0, space.total)]
    assert len(parts) == 6_188
    assert _assert_split_mask_only_grows(7, parts) == 6_152
    assert sum(enumeration._inner_profile(7, inner)[2] != 127 for inner in parts) == 6
    # Y = 1, 2, 6 has R = {0, 2}: ΣB = 2 beside Z = {1, 6}.
    assert enumeration._inner_profile(7, (1, 2, 6))[2] == 0b101
    # Shorter <a>-parts, with and without the identity, and R of a
    # sub-multiset inside R of the whole for random sub-multisets.
    for size in range(2, 12):
        for start in (0, 1):
            _assert_split_mask_only_grows(
                7, itertools.combinations_with_replacement(range(start, 7), size))
    rng = random.Random(7)
    for _ in range(300):
        whole = sorted(rng.randrange(7) for _ in range(rng.randrange(1, 14)))
        sub = tuple(sorted(rng.sample(whole, rng.randrange(len(whole) + 1))))
        assert enumeration._inner_profile(7, sub)[2] & ~enumeration._inner_profile(7, tuple(whole))[2] == 0


@pytest.mark.parametrize("descriptor,seed", [("5,11,3", 5), ("3,13,3", 13)])
def test_split_mask_only_grows_on_samples(descriptor, seed):
    ctx = make_group(descriptor)
    q = ctx.q
    rng = random.Random(seed)
    parts = []
    for _ in range(400):
        size = rng.choice([2 * q - 2, rng.randrange(2, 2 * q)])
        low = rng.randrange(2)  # 0 lets the identity in
        parts.append(tuple(sorted(rng.randrange(low, q) for _ in range(size))))
    assert _assert_split_mask_only_grows(q, parts) > 100


def test_prefix_walk_builds_few_profiles(ctx372, monkeypatch):
    # At length 14 = 2q the lemma (fact 9) lists the atoms of the 6 constant
    # <a>-parts 1^12 .. 6^12 directly and builds no profile; the walk would
    # build 1,934 prefix profiles there.  At length 13 the walk (fact 8)
    # still runs: 1,898 prefix profiles against 4,368 <a>-parts of 11 terms.
    steps = []
    step = enumeration._profile_step
    monkeypatch.setattr(enumeration, "_profile_step", lambda *args: steps.append(1) or step(*args))
    for length, built, atoms in ((14, 0, 42), (13, 1_898, 126)):
        steps.clear()
        result = atom_search(ctx372, Stratum(length=length, k=2))
        assert (len(steps), len(result.atoms)) == (built, atoms), length


def test_split_mask_is_full_unless_the_part_is_constant():
    # The lemma of fact 9, checked part by part over every <a>-part without
    # the identity: at 2q - 2 terms R is full iff the part is not constant (165
    # parts at q = 5, 6,188 at q = 7), and at 2q - 1 terms it is always full.
    for q, size in ((5, 8), (7, 12), (5, 9)):
        full, parts = (1 << q) - 1, 0
        for inner in itertools.combinations_with_replacement(range(1, q), size):
            constant = size == 2 * q - 2 and inner[0] == inner[-1]
            assert (enumeration._inner_profile(q, inner)[2] == full) != constant, inner
            parts += 1
        assert parts == multiset_count(q - 1, size)


def test_constant_part_misses_only_minus_y():
    # Fact 9: y^(2q - 2) has P = Z_q and R = Z_q without -y.
    for q in (5, 7, 11, 13):
        full = (1 << q) - 1
        for y in range(1, q):
            total, sums, split = enumeration._inner_profile(q, (y,) * (2 * q - 2))
            assert (total, sums, split) == (-2 * y % q, full, full & ~(1 << (-y % q))), (q, y)


@pytest.mark.parametrize("descriptor", ["3,7,2", "3,7,4", "5,11,3", "3,13,3", "7,29,16"])
def test_constant_part_atoms_are_the_pairs_hitting_minus_y(descriptor):
    # The direct listing of fact 9 against the target of every passing pair:
    # q(p - 1)/2 atoms per constant part, in outer-rank order, and none when
    # the filter's residue is nonzero.
    ctx = make_group(descriptor)
    for residue in (0, None, 1):
        space = StratumSpace(ctx, Stratum(length=2 * ctx.q, k=2, tau_residue=residue))
        passing, parts, _, _ = space.outer_table
        for y in range(1, ctx.q):
            expected = [
                (x, part) for x, part in zip(passing, parts)
                if enumeration._pair_target(ctx, *part, -2 * y % ctx.q) == 1 << (-y % ctx.q)]
            listed = enumeration._constant_part_atoms(space, y)
            assert listed == expected, (residue, y)
            assert len(listed) == (0 if residue == 1 else ctx.q * (ctx.p - 1) // 2)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(1) or original(*args))
    return calls


def test_lemma_path_builds_no_target_row(ctx372, monkeypatch):
    # A cold window of the length-22 k = 2 stratum at 5,11,3 that meets no
    # constant block, and the whole length-14 k = 2 stratum at 3,7,2, settle
    # with no call to _pair_target: only the prefix walk asks for rows.
    monkeypatch.setattr(enumeration, "_OUTER_TABLES", {})
    targets = _count_calls(monkeypatch, enumeration, "_pair_target")
    ctx = make_group("5,11,3")
    stratum = Stratum(length=22, k=2)
    space = StratumSpace(ctx, stratum)
    m, x_count = len(space.y_ground), space.x_count
    blocks = [rank_multiset((v,) * space.y_size, m) * x_count for v in range(m)]
    lo = 4_000_000_000
    assert not any(lo - x_count < first < lo + 3_000 for first in blocks)
    window = atom_search(ctx, stratum, shard=Shard(0, 1, lo, lo + 3_000))
    assert window.counters.checked > 0 and targets == []
    whole = atom_search(ctx372, Stratum(length=14, k=2))
    assert len(whole.atom_texts) == 42 and targets == []
    atom_search(ctx372, Stratum(length=13, k=2), shard=Shard(0, 1, 0, 50_000))
    assert targets


def test_k_le_2_claim_builds_one_sequence_per_atom(ctx372, monkeypatch):
    # With the family built, the k <= 2 claim at 3,7,2 builds each of its
    # n_f = 42 atoms once, to confirm it and to format it, and never parses
    # one back.
    family = extremal_family(ctx372)
    built = _count_calls(monkeypatch, Sequence, "__init__")
    report = verify_inverse_theorem(ctx372, "k_le_2")
    assert report.verified and report.n_f == len(family) == 42
    assert len(built) <= report.n_f


@pytest.mark.parametrize("length,exclude_identity", [(13, True), (14, True), (15, True), (14, False)])
def test_k2_dispatch_matches_reference_around_constant_blocks(ctx372, length, exclude_identity):
    # Windows across the first and last rank of each constant <a>-part's
    # block: length 13 and the identity in the ground set take the walk
    # (fact 8); length 14 takes the lemma with the constant parts as
    # exceptions and length 15 the lemma with none (fact 9).  The last
    # window spans the blocks of the last two constant parts and the gap
    # between them.
    for residue in (0, 1, None):
        stratum = Stratum(length=length, k=2, exclude_identity=exclude_identity, tau_residue=residue)
        space = StratumSpace(ctx372, stratum)
        m, x_count = len(space.y_ground), space.x_count
        firsts = [rank_multiset((v,) * space.y_size, m) * x_count for v in range(m)]
        windows = [(first + end - 20, first + end + 20) for first in firsts for end in (0, x_count)]
        windows.append((firsts[-2] + 50, firsts[-1] + 50))
        for lo, hi in windows:
            shard = Shard(0, 1, max(lo, 0), min(hi, space.total))
            assert _block_record(ctx372, stratum, shard) == _reference_run(ctx372, stratum, shard)[-1], shard


def _settled_subtrees(ctx, stratum, depth, rng, count):
    """``count`` (first y-rank, y-ranks) of random subtrees of ``depth``-term prefixes whose R is full.

    Only subtrees of three or more <a>-parts are kept.
    """
    space = StratumSpace(ctx, stratum)
    values, m, size = space.y_ground, len(space.y_ground), space.y_size
    full = (1 << ctx.q) - 1
    out = set()
    while len(out) < count:
        prefix = tuple(sorted(rng.randrange(m) for _ in range(depth)))
        ranks = multiset_count(m - prefix[-1], size - depth)
        if ranks > 2 and enumeration._inner_profile(ctx.q, tuple(values[v] for v in prefix))[2] == full:
            out.add((rank_multiset(prefix + (prefix[-1],) * (size - depth), m), ranks))
    return sorted(out)


@pytest.mark.parametrize("descriptor,length,depth", [
    ("3,7,2", 14, 8), ("3,7,2", 10, 7), ("5,11,3", 16, 11), ("3,13,3", 20, 14)])
def test_prefix_walk_matches_reference_on_windows_inside_settled_subtrees(descriptor, length, depth):
    # Windows with an end inside a settled subtree and inside one <a>-part's
    # block, so the walk settles part of the subtree: both ends in one
    # subtree, and windows across the subtree's first and last rank.
    ctx = make_group(descriptor)
    stratum = Stratum(length=length, k=2)
    x_count = StratumSpace(ctx, stratum).x_count
    rng = random.Random(length)
    for first, count in _settled_subtrees(ctx, stratum, depth, rng, 3):
        begin, end = first * x_count, (first + count) * x_count
        inside = begin + rng.randrange(1, count - 1) * x_count + rng.randrange(1, x_count)
        windows = [
            (inside, inside + rng.randrange(2, x_count + 2)),
            (begin - 2 * x_count - 5, begin + x_count + 3),
            (end - x_count - 3, end + 2 * x_count + 7),
        ]
        for lo, hi in windows:
            shard = Shard(0, 1, max(lo, 0), hi)
            assert _block_record(ctx, stratum, shard) == _reference_run(ctx, stratum, shard)[-1], shard


@pytest.mark.parametrize("descriptor,seed", [("3,7,2", 1), ("5,11,3", 2), ("3,13,3", 3)])
def test_prefix_walk_matches_reference_on_one_rank_windows(descriptor, seed):
    ctx = make_group(descriptor)
    rng = random.Random(seed)
    for length, exclude_identity in ((2 * ctx.q, True), (9, False), (2, True)):
        stratum = Stratum(length=length, k=2, exclude_identity=exclude_identity)
        space = StratumSpace(ctx, stratum)
        ranks = {0, space.total - 1} | {rng.randrange(space.total) for _ in range(40)}
        for rank in sorted(ranks):
            shard = Shard(0, 1, rank, rank + 1)
            record = _block_record(ctx, stratum, shard)
            assert record == _reference_run(ctx, stratum, shard)[-1], (length, rank)
            assert record["counters"]["visited"] == 1


def test_filtered_count_matches_the_filter(ctx372):
    for k, residue in [(0, 0), (1, 0), (1, 2), (2, 0), (2, 1), (2, None),
                       (3, 0), (3, 1), (4, 0), (None, 0), (None, 2)]:
        space = StratumSpace(ctx372, Stratum(length=5, k=k, tau_residue=residue))
        fails = [not space.passes_filters(c) for _, c in space.iter_range(0, space.total)]
        rng = random.Random(k)
        for _ in range(30):
            lo = rng.randrange(space.total + 1)
            hi = rng.randrange(lo, space.total + 1)
            assert space.filtered_count(lo, hi) == sum(fails[lo:hi])


def test_digest_is_order_independent():
    a = digest_add(digest_empty(), "first")
    ab = digest_add(a, "second")
    ba = digest_add(digest_add(digest_empty(), "second"), "first")
    assert ab == ba
    assert digest_merge(a, digest_add(digest_empty(), "second")) == ab
    assert len(digest_hex(ab)) == 64


# -- automorphism orbits -----------------------------------------------------------


def test_extremal_orbit_size_divides_aut_order(ctx372):
    auts = automorphism_tables(ctx372)
    seq = Sequence.parse(ctx372, "(0,1)^12,(1,0),(2,5)")
    size = len({seq.map_indices(table) for table in auts})
    assert len(auts) % size == 0


def test_orbit_members_take_their_representatives_verdict(monkeypatch):
    # A family member is confirmed by its representative's engine verdict,
    # kept in the scan's memo; a representative that the engine rejected
    # confirms nothing, so the member goes to the engine, and so does an atom
    # outside the family.
    ctx = make_group("3,7,2")
    calls = []

    def counted(c, seq):
        calls.append(seq)
        return is_atom(c, seq)

    monkeypatch.setattr(enumeration, "is_atom", counted)
    family = extremal_family(ctx)
    member = extremal_atoms_all(ctx)[5].sequence
    rep = family[member.format(ctx)]
    assert member != rep
    content, verdicts = member.indices(), {}
    assert classify_candidate(ctx, content, verdicts) == ("atom", "outer_pair", AtomVerdict(True, True))
    assert calls == [rep] and verdicts == {rep: AtomVerdict(True, True)}
    assert classify_candidate(ctx, content, verdicts)[0] == "atom"
    assert calls == [rep]
    verdicts[rep] = AtomVerdict(True, False)
    assert classify_candidate(ctx, content, verdicts)[0] == "atom"
    assert calls == [rep, member]
    short = Sequence.parse(ctx, "(0,1)^11,(1,0),(2,2)")  # an atom of length 13
    calls.clear()
    assert classify_candidate(ctx, short.indices(), verdicts)[0] == "atom"
    assert calls == [short]
