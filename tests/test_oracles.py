import random

import pytest

from prodone.oracles import (
    LEMMA_IDS,
    check_cauchy_davenport,
    check_cyclic_extremal,
    naive_is_atom,
    naive_pi_set,
    naive_subproducts_set,
    run_lemma,
    shortest_product_one,
)
from prodone import make_group
from prodone.sequences import Sequence, _Lattice, is_atom, pi_set, subproducts_set


def test_naive_pi_matches_engine_on_randoms(ctx372):
    rng = random.Random(7)
    for _ in range(200):
        seq = Sequence.from_indices(
            rng.choices(range(21), k=rng.randrange(1, 6))
        )
        assert naive_pi_set(ctx372, seq).mask == pi_set(ctx372, seq).mask


def test_naive_subproducts_match_engine_on_randoms(ctx372):
    rng = random.Random(8)
    for _ in range(200):
        seq = Sequence.from_indices(
            rng.choices(range(21), k=rng.randrange(1, 6))
        )
        assert naive_subproducts_set(ctx372, seq).mask == subproducts_set(ctx372, seq).mask


def test_naive_pi_abelian_example(ctx372):
    seq = Sequence.parse(ctx372, "(0,1),(0,2),(0,4)")
    assert naive_pi_set(ctx372, seq).indices() == (0,)


def test_naive_is_atom_examples(ctx372):
    pair = Sequence.parse(ctx372, "(1,0),(2,0)")
    assert naive_is_atom(ctx372, pair).atom
    double = pair.cat(pair)
    verdict = naive_is_atom(ctx372, double)
    assert not verdict.atom and verdict.witness is not None
    assert verdict == is_atom(ctx372, double)


def test_naive_guards_length(ctx372):
    with pytest.raises(ValueError):
        naive_pi_set(ctx372, Sequence.from_indices([1] * 9))


def test_cauchy_davenport_examples():
    assert check_cauchy_davenport(7, {0}, {0}) is None
    assert check_cauchy_davenport(7, {0, 1}, {0, 1}) is None
    assert check_cauchy_davenport(7, set(range(7)), set(range(7))) is None
    with pytest.raises(ValueError):
        check_cauchy_davenport(7, set(), {0})


def test_cauchy_davenport_sumset_value():
    # {0,1} + {0,1} = {0,1,2} in C_7: the bound 3 is met with equality.
    sums = {(a + b) % 7 for a in (0, 1) for b in (0, 1)}
    assert sums == {0, 1, 2}


def test_cyclic_extremal_small():
    for n in (5, 7):
        for mode in ("multiplicity", "extremal"):
            report = check_cyclic_extremal(n, mode)
            assert report.ok, report.counterexample
    report = check_cyclic_extremal(5, "extremal")
    assert any("maximal atom" in note for note in report.notes)


def test_cyclic_extremal_rejects_bad_input():
    with pytest.raises(ValueError):
        check_cyclic_extremal(6, "extremal")
    with pytest.raises(ValueError):
        check_cyclic_extremal(5, "bogus")


@pytest.mark.parametrize(
    "lemma",
    [l for l in LEMMA_IDS if l not in ("cauchy-davenport", "cyclic-extremal")],
)
def test_lemma_suites_find_no_counterexamples(ctx372, lemma):
    report = run_lemma(ctx372, lemma, trials=60, seed=11)
    assert report.ok, report.counterexample
    assert report.trials_run > 0
    # Deterministic for a fixed seed.
    again = run_lemma(ctx372, lemma, trials=60, seed=11)
    assert again.to_payload() == report.to_payload()


def test_cauchy_davenport_suite(ctx372):
    report = run_lemma(ctx372, "cauchy-davenport", trials=500, seed=3)
    assert report.ok and report.trials_run == 500


def test_outer_pair_spread_specific_instance(ctx372):
    # Two outer terms of t-degree 1 and a cube of (0,1): the product set fills C_7.
    seq = Sequence.parse(ctx372, "(1,0)^2,(0,1)^3")
    assert len(pi_set(ctx372, seq)) == 7
    assert len(naive_pi_set(ctx372, seq)) == 7


def test_full_support_spread_specific_instance(ctx372):
    seq = Sequence.parse(ctx372, "(1,0),(0,1)")
    assert len(pi_set(ctx372, seq)) == 2  # >= min(p, |S|) = 2


def test_short_window_self_witness(ctx372):
    seq = Sequence.parse(ctx372, "(0,1)^7")
    from prodone.sequences import subproducts_set

    assert 0 in subproducts_set(ctx372, seq)  # index 0 is the identity


def _shortest_by_full_lattice(ctx, seq):
    """The product-one state of least length, and of least index among those, over the filled lattice."""
    lattice = _Lattice(ctx, seq, 1 << 22)
    states = [t for t in range(1, lattice.nstates) if lattice.reach[t] & 1]
    if not states:
        return None
    return lattice.seq_of(min(states, key=lambda t: (lattice.lengths[t], t)))


@pytest.mark.parametrize("descriptor", ["3,7,2", "5,11,3"])
def test_shortest_product_one_matches_the_full_lattice(descriptor, monkeypatch):
    # The search by length returns the part a pass over the whole lattice
    # keeps, product-one free sequences included, and on a sequence with a
    # two-term product-one part it reaches no state of three terms.
    ctx = make_group(descriptor)
    rng = random.Random(11)
    cases = [Sequence.from_indices(rng.choices(range(rng.randrange(2), ctx.n), k=rng.randrange(1, 13)))
             for _ in range(150)]
    cases += [Sequence([(1, a), (3, b), (ctx.q + 1, c)]) for a in range(8) for b in range(4) for c in range(3)
              if a + b + c]
    for seq in cases:
        assert shortest_product_one(ctx, seq) == _shortest_by_full_lattice(ctx, seq), seq.format(ctx)
    g = ctx.q + 2
    seq = Sequence([(1, 3), (5, 2), (g, 1), (ctx.inv_table[g], 1), (ctx.n - 1, 4)])
    shifts = []
    shift = ctx.shift_mask
    monkeypatch.setattr(ctx, "shift_mask", lambda mask, table: shifts.append(1) or shift(mask, table))
    assert len(shortest_product_one(ctx, seq)) == 2
    assert len(shifts) <= 5 + 5 * 5


def test_run_lemma_rejects_unknown_id(ctx372):
    with pytest.raises(ValueError):
        run_lemma(ctx372, "no-such-lemma", trials=1, seed=0)


@pytest.mark.parametrize("lemma,hypothesis", [
    ("full-support-spread", "subgroup"), ("closed-product-chain", "pi")])
def test_lemma_check_reuses_the_proposers_hypothesis(ctx372, monkeypatch, lemma, hypothesis):
    # The check of an instance just proposed reads the hypothesis's cached
    # value: the generated subgroup (full support) or the factors' product
    # sets (chain) are not computed again.
    from prodone import oracles
    from prodone.group import GroupCtx

    calls = []
    generated, products = GroupCtx.subgroup_generated_idx, oracles.pi_set
    monkeypatch.setattr(GroupCtx, "subgroup_generated_idx",
                        lambda self, gens: calls.append("subgroup") or generated(self, gens))
    monkeypatch.setattr(oracles, "pi_set", lambda ctx, seq: calls.append("pi") or products(ctx, seq))
    propose, check = oracles._SUITES[lemma]
    checked = 0
    for index in range(30):
        instance = propose(ctx372, oracles._trial_rng(0, index, lemma))
        if instance is None:
            continue
        calls.clear()
        assert check(ctx372, instance) is None
        assert hypothesis not in calls
        checked += 1
    assert checked > 20
