import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodone import sequences
from prodone.group import make_group
from prodone.oracles import naive_is_atom, naive_pi_set
from prodone.sequences import (
    LengthSetResult,
    ProductSet,
    ResourceCapError,
    Sequence,
    _Lattice,
    cat_all,
    classify,
    is_atom,
    length_set_bounded,
    pi_set,
    subproducts_set,
)

FORMA_372 = "(0,1)^12,(1,0),(2,5)"


def seqs_372(min_len=1, max_len=6):
    return st.lists(
        st.integers(min_value=0, max_value=20), min_size=min_len, max_size=max_len
    ).map(Sequence.from_indices)


# -- data model ----------------------------------------------------------


def test_parse_format_round_trip(ctx372):
    seq = Sequence.parse(ctx372, "(1,0), (0,1)^12 ,(2,5)")
    assert seq.format(ctx372) == FORMA_372
    assert len(seq) == 14
    assert Sequence.parse(ctx372, seq.format(ctx372)) == seq
    assert Sequence.parse(ctx372, "t^1*a^0,(0,1)^2").format(ctx372) == "(0,1)^2,(1,0)"


def test_parse_rejects_garbage(ctx372):
    for bad in ("(1,0,", "(9,9)", "(1,0)^0^2", "foo"):
        with pytest.raises(ValueError):
            Sequence.parse(ctx372, bad)


def test_multiset_algebra(ctx372):
    a = Sequence.parse(ctx372, "(0,1)^2,(1,0)")
    b = Sequence.parse(ctx372, "(0,1),(2,5)")
    both = a.cat(b)
    assert both.format(ctx372) == "(0,1)^3,(1,0),(2,5)"
    def within(sub, seq):
        mine = dict(seq.entries)
        return all(mine.get(i, 0) >= m for i, m in sub.entries)

    assert within(a, both) and within(b, both)
    assert both.remove(b) == a
    assert not within(b, a)
    with pytest.raises(ValueError):
        a.remove(b)
    assert a.multiplicity(1) == 2
    assert a.count_in([1, 7]) == 3
    assert a.indices() == (1, 1, 7)


def test_inverse_multiset(ctx372):
    seq = Sequence.parse(ctx372, FORMA_372)
    mirrored = seq.inverse(ctx372)
    assert mirrored.format(ctx372) == "(0,6)^12,(1,4),(2,0)"
    assert mirrored.inverse(ctx372) == seq


# -- product sets ----------------------------------------------------------


def test_pi_of_empty_is_identity(ctx372):
    assert pi_set(ctx372, Sequence.empty()).indices() == (0,)


def test_pi_two_orderings(ctx372):
    ps = pi_set(ctx372, Sequence.parse(ctx372, "(1,0),(0,1)"))
    assert {ctx372.coords(i) for i in ps} == {(1, 1), (1, 2)}


def test_pi_constant_powers(ctx372):
    for g in ((0, 3), (1, 2), (2, 6)):
        for k in (1, 2, 5):
            seq = Sequence([(ctx372.idx(g), k)])
            assert pi_set(ctx372, seq).indices() == (ctx372.idx(ctx372.power(g, k)),)


def test_subproducts_examples(ctx372):
    ps = subproducts_set(ctx372, Sequence.parse(ctx372, "(1,0),(0,1)"))
    assert {ctx372.coords(i) for i in ps} == {(1, 0), (0, 1), (1, 1), (1, 2)}
    single = subproducts_set(ctx372, Sequence.parse(ctx372, "(2,3)"))
    assert {ctx372.coords(i) for i in single} == {(2, 3)}
    assert 0 in subproducts_set(ctx372, Sequence.parse(ctx372, "(0,1)^7"))  # 0 is e


def test_classify_flags(ctx372):
    free = classify(ctx372, Sequence.parse(ctx372, "(0,1)^6"))
    assert (free.product_one, free.product_one_free) == (False, True)
    one = classify(ctx372, Sequence.parse(ctx372, "(0,1)^7"))
    assert (one.product_one, one.product_one_free) == (True, False)
    mixed = classify(ctx372, Sequence.parse(ctx372, "(0,1)^6,(1,0)^2"))
    assert (mixed.product_one, mixed.product_one_free) == (False, True)
    # Oracle agreement on the mixed example.
    assert 0 not in naive_pi_set(ctx372, Sequence.parse(ctx372, "(0,1)^6,(1,0)^2"))


def test_product_set_algebra(ctx372):
    a = ProductSet(0b11, 21)
    b = ProductSet(1 << 7, 21)
    prod = a.product(ctx372, b)
    assert set(prod.indices()) == {ctx372.mul_idx(0, 7), ctx372.mul_idx(1, 7)}
    assert len(ProductSet(a.mask | b.mask, 21)) == 3


# -- atoms -------------------------------------------------------------------


def test_extremal_sequence_is_atom(ctx372):
    verdict = is_atom(ctx372, Sequence.parse(ctx372, FORMA_372))
    assert verdict.product_one and verdict.atom and verdict.witness is None


def test_non_atom_witness(ctx372):
    seq = Sequence.parse(ctx372, "(1,0),(2,0),(0,1),(0,6)")
    verdict = is_atom(ctx372, seq)
    assert verdict.product_one and not verdict.atom
    t1, t2 = verdict.witness
    assert {t1.format(ctx372), t2.format(ctx372)} == {"(1,0),(2,0)", "(0,1),(0,6)"}
    # Tie-break: the lexicographically least part (by length, then content) first.
    assert t1.format(ctx372) == "(0,1),(0,6)"
    assert t1.cat(t2) == seq
    assert classify(ctx372, t1).product_one and classify(ctx372, t2).product_one


def test_constant_run_is_atom(ctx372):
    assert is_atom(ctx372, Sequence.parse(ctx372, "(0,1)^7")).atom


def test_identity_term_law(ctx372):
    seq = Sequence.parse(ctx372, "(0,0),(0,1),(0,6)")
    verdict = is_atom(ctx372, seq)
    assert verdict.product_one and not verdict.atom
    assert is_atom(ctx372, Sequence.parse(ctx372, "(0,0)")).atom


def test_resource_guard(ctx372, monkeypatch):
    # 14 distinct terms need 2^14 states; the engine reads its cap at call time.
    wide = Sequence.from_indices(range(1, 15))
    monkeypatch.setattr(sequences, "DEFAULT_STATE_CAP", 512)
    with pytest.raises(ResourceCapError):
        pi_set(ctx372, wide)


@settings(max_examples=60, deadline=None)
@given(seq=seqs_372(min_len=1, max_len=6))
def test_engine_matches_naive_oracle(ctx372, seq):
    assert pi_set(ctx372, seq).mask == naive_pi_set(ctx372, seq).mask


@settings(max_examples=40, deadline=None)
@given(seq=seqs_372(min_len=1, max_len=6))
def test_atom_verdicts_match_naive(ctx372, seq):
    assert is_atom(ctx372, seq) == naive_is_atom(ctx372, seq)


@settings(max_examples=60, deadline=None)
@given(seq=seqs_372(min_len=1, max_len=7))
def test_pi_confined_to_commutator_coset(ctx372, seq):
    degree = sum(ctx372.tau_degree_idx(i) for i in seq.indices()) % 3
    for idx in pi_set(ctx372, seq):
        assert ctx372.tau_degree_idx(idx) == degree


@settings(max_examples=40, deadline=None)
@given(seq=seqs_372(min_len=2, max_len=6), data=st.data())
def test_complement_of_product_one_part_stays_in_commutator(ctx372, seq, data):
    # For product-one S and product-one T | S: pi(S . T^-1) lies in <a>.
    if not classify(ctx372, seq).product_one:
        return
    lattice = _Lattice(ctx372, seq, 1 << 16)
    po_states = [
        t for t in range(1, lattice.nstates - 1) if lattice.reach[t] & 1
    ]
    if not po_states:
        return
    t = data.draw(st.sampled_from(po_states))
    rest = seq.remove(lattice.seq_of(t))
    if rest.is_empty:
        return
    for idx in pi_set(ctx372, rest):
        assert idx < ctx372.q


def test_count_in(ctx372):
    seq = Sequence.parse(ctx372, FORMA_372)
    assert seq.count_in(ctx372.outside_commutator_indices) == 2
    assert seq.count_in(range(ctx372.q)) == 12
    assert seq.count_in([]) == 0


# -- length sets ----------------------------------------------------------------


def test_length_set_single_atom(ctx372):
    result = length_set_bounded(ctx372, Sequence.parse(ctx372, "(0,1),(0,6)"))
    assert result.lengths == frozenset({1})


def test_length_set_two_pairs(ctx372):
    seq = Sequence.parse(ctx372, "(1,0),(2,0),(0,1),(0,6)")
    result = length_set_bounded(ctx372, seq)
    assert result.lengths == frozenset({2})
    factors = result.factorization(2)
    assert cat_all(factors) == seq
    assert all(is_atom(ctx372, f).atom for f in factors)


def test_length_set_requires_product_one(ctx372):
    with pytest.raises(ValueError):
        length_set_bounded(ctx372, Sequence.parse(ctx372, "(0,1)"))


def test_length_set_consistency_bounds(ctx372):
    seq = Sequence.parse(ctx372, "(0,1)^7,(1,0),(2,0),(0,3),(0,4)")
    result = length_set_bounded(ctx372, seq)
    assert max(result.lengths) <= len(seq) // 2  # identity-free atoms have length >= 2
    assert min(result.lengths) >= len(seq) / 14  # no atom longer than 2q
    for ell in result.lengths:
        factors = result.factorization(ell)
        assert cat_all(factors) == seq
        assert all(is_atom(ctx372, f).atom for f in factors)


def test_length_set_budget_fallback(ctx372, monkeypatch):
    seq = Sequence.parse(ctx372, FORMA_372).cat(
        Sequence.parse(ctx372, FORMA_372).inverse(ctx372)
    )
    # Past its state cap the DP fails loudly; with room it is exact and witnessed.
    with monkeypatch.context() as patch:
        patch.setattr(sequences, "LENGTH_SET_STATE_CAP", 64)
        with pytest.raises(ResourceCapError):
            length_set_bounded(ctx372, seq)
    result = length_set_bounded(ctx372, seq)
    assert {2, 14} <= result.lengths
    for ell in result.lengths:
        factors = result.factorization(ell)
        assert cat_all(factors) == seq
        assert all(is_atom(ctx372, f).atom for f in factors)


def _reference_length_set(ctx, seq, max_states=1 << 20):
    """The former three-pass length-set DP, kept as the reference.

    It finds the atom states by testing every sub-state split, collects the
    states that are sums of atom states by a search from 0, then runs the
    forward DP over those states in ascending order.
    """
    lattice = _Lattice(ctx, seq, max_states)
    reach, width = lattice.reach, lattice.width
    po_states = [t for t in range(1, lattice.nstates) if reach[t] & 1]
    if lattice.full not in po_states:
        raise ValueError("sequence is not product-one")
    po_set = set(po_states)

    def sub_states(t):
        ranges = [range(d + 1) for d in lattice.digits_of(t)]
        for digits in itertools.product(*ranges):
            yield sum(d * stride for d, stride in zip(digits, lattice.strides))

    atoms = [
        t for t in po_states
        if not any(u not in (0, t) and u in po_set and t - u in po_set for u in sub_states(t))
    ]
    atom_digits = [lattice.digits_of(a) for a in atoms]
    reached, frontier = {0}, [0]
    while frontier:
        t = frontier.pop()
        td = lattice.digits_of(t)
        for a, ad in zip(atoms, atom_digits):
            if all(td[j] + ad[j] <= lattice.mults[j] for j in range(width)) and t + a not in reached:
                reached.add(t + a)
                frontier.append(t + a)
    lengths_at = {0: {0}}
    choice = {}
    for t in sorted(reached - {0}):
        td = lattice.digits_of(t)
        found = set()
        for a, ad in zip(atoms, atom_digits):
            if a > t:
                break
            if any(ad[j] > td[j] for j in range(width)):
                continue
            for val in lengths_at.get(t - a, ()):
                if val + 1 not in found:
                    found.add(val + 1)
                    choice[(t, val + 1)] = a
        if found:
            lengths_at[t] = found
    witnesses = {}
    for ell in lengths_at.get(lattice.full, set()):
        factors, t, val = [], lattice.full, ell
        while val:
            a = choice[(t, val)]
            factors.append(lattice.seq_of(a))
            t, val = t - a, val - 1
        witnesses[ell] = tuple(factors)
    return LengthSetResult(frozenset(witnesses), _witnesses=witnesses)


def _seeded_product_one(ctx, rng, length):
    """A product-one sequence: random terms closed by the inverse of their ordered product.

    Half of the draws take their terms from a pool of two to four elements,
    so that terms repeat.
    """
    ground = range(ctx.n) if rng.random() < 0.5 else rng.sample(range(ctx.n), rng.randint(2, 4))
    terms = [rng.choice(ground) for _ in range(length - 1)]
    acc = 0
    for idx in terms:
        acc = ctx.mul_idx(acc, idx)
    return Sequence.from_indices(terms + [ctx.inv_table[acc]])


@pytest.mark.parametrize("descriptor", ["3,7,2", "5,11,3", "3,13,3"])
def test_length_set_matches_three_pass_reference(descriptor):
    ctx = make_group(descriptor)
    rng = random.Random(descriptor)
    cases = [_seeded_product_one(ctx, rng, rng.randint(2, 10)) for _ in range(40)]
    # S . S^-1 factors in several ways, which gives length sets with more than one length.
    for _ in range(10):
        half = _seeded_product_one(ctx, rng, rng.randint(2, 5))
        cases.append(half.cat(half.inverse(ctx)))
    atoms = repeated = several = 0
    for seq in cases:
        result = length_set_bounded(ctx, seq)
        expected = _reference_length_set(ctx, seq)
        assert result.lengths == expected.lengths, seq.format(ctx)
        for ell in expected.lengths:
            assert result.factorization(ell) == expected.factorization(ell), (seq.format(ctx), ell)
        if is_atom(ctx, seq).atom:
            atoms += 1
            assert result.lengths == frozenset({1})
        repeated += any(m > 1 for _, m in seq.entries)
        several += len(result.lengths) > 1
    assert atoms and repeated and several
