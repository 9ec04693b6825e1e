import random
from types import SimpleNamespace

import pytest
from conftest import generator_pairs

from prodone import invariants, sequences
from prodone.group import make_group

from prodone.invariants import (
    atoms_ladder,
    build_rho_witness,
    elasticity_calculator,
    extremal_atom,
    extremal_atoms_all,
    extremal_family,
    small_davenport,
    uk_bounded,
    verify_elasticity_witness,
)
from prodone.sequences import Sequence, classify, is_atom

N_F_372 = 42    # distinct realized extremal multisets at (3,7,2); regression constant
N_F_3133 = 156  # same at (3,13,3)


# -- small Davenport constant ---------------------------------------------------


def test_small_davenport_372(ctx372):
    result = small_davenport(ctx372)
    assert result.value == 8  # p + q - 2
    flags = classify(ctx372, result.extremal)
    assert flags.product_one_free and len(result.extremal) == 8
    assert result.to_payload(ctx372) == {
        "value": 8,
        "nodes": 33_222,
        "extremal": "(0,1)^6,(1,0)^2",
        "refuted_length": 9,
    }


@pytest.mark.parametrize("ctx_name", ["ctx372", "ctx3133", "ctx5113"])
def test_inverse_bit_decides_identity_bit(ctx_name, request):
    """Bit 0 of M | shift(M | 1, g) is set iff g^-1 is in M (M without e, g != e)."""
    ctx = request.getfixturevalue(ctx_name)
    rng = random.Random(ctx.n)
    masks = [0] + [rng.getrandbits(ctx.n) & ~1 for _ in range(40)]
    masks += [1 << rng.randrange(1, ctx.n) for _ in range(10)]
    for g in range(1, ctx.n):
        table = ctx.right_shift_table(g)
        for mask in masks:
            extended = mask | ctx.shift_mask(mask | 1, table)
            assert (extended & 1) == ((mask >> ctx.inv_table[g]) & 1)


def reference_small_davenport(ctx, classify=classify):
    """The walk over the sorted products P: one right shift of P + {e} per child.

    Returns (value, extremal, nodes, record checks); small_davenport must
    reproduce all four.
    """
    ground = list(range(1, ctx.n))
    tables = [ctx.right_shift_table(g) for g in ground]
    inverse_bits = [1 << ctx.inv_table[g] for g in ground]
    best_len, best, nodes, checks = 0, [], 0, 0
    chosen = []

    def extend(start, sorted_products):
        nonlocal best_len, best, nodes, checks
        nodes += 1
        if len(chosen) > best_len:
            checks += 1
            if not classify(ctx, Sequence.from_indices(chosen)).product_one_free:
                return
            best_len = len(chosen)
            best = list(chosen)
        for i in range(start, len(ground)):
            if sorted_products & inverse_bits[i]:
                continue
            chosen.append(ground[i])
            extend(i, sorted_products | ctx.shift_mask(sorted_products | 1, tables[i]))
            chosen.pop()

    extend(0, 0)
    return best_len, Sequence.from_indices(best), nodes, checks


def _walk_with_checks(ctx, monkeypatch, check=classify):
    """small_davenport's (value, extremal, nodes, record checks) and its result."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(invariants, "classify", counted)
    result = small_davenport(ctx)
    return (result.value, result.extremal, result.nodes, len(calls)), result


@pytest.mark.parametrize("desc", ["3,7,2", "3,7,4"])
def test_small_davenport_matches_the_product_walk(desc, monkeypatch):
    # The record checks must match too: a tally that skipped one keeps the
    # node count whenever the skipped check would have failed.
    ctx = make_group(desc)
    walk, result = _walk_with_checks(ctx, monkeypatch)
    assert walk == reference_small_davenport(ctx)
    assert result.value == ctx.p + ctx.q - 2
    assert result.tabled > 0 and result.walked > 0  # both branches run


@pytest.mark.parametrize("desc", ["3,7,2", "3,7,4"])
@pytest.mark.parametrize("modulus", [2, 3, 5])
@pytest.mark.parametrize("rejected", [1, 300])
def test_small_davenport_rules_respect_failing_record_checks(desc, modulus, rejected, monkeypatch):
    # With the true check, every record check at these groups passes and no
    # node lies deeper than the record, so the tally's depth condition is
    # never tested.  A stand-in check that also rejects the free sequences
    # whose index sum is congruent to ``rejected`` (1, or 300: 0 mod 2, 3
    # and 5) makes checks fail and records come late; both walks use it and
    # must still agree.
    ctx = make_group(desc)

    def sometimes_free(ctx, seq):
        free = classify(ctx, seq).product_one_free
        rejects = (sum(seq.indices()) - rejected) % modulus == 0
        return SimpleNamespace(product_one_free=free and not rejects)

    walk, result = _walk_with_checks(ctx, monkeypatch, sometimes_free)
    reference = reference_small_davenport(ctx, sometimes_free)
    assert walk == reference
    assert reference[3] > reference[0]  # some record check failed
    assert result.tabled > 0 and result.walked > 0


def _walk_tails(ctx, prefix):
    """(number, greatest length) of the sorted-free A.R with R over the cosets
    t^i<a>, i >= 1, the empty R included, by the walk over the sorted products."""
    products = 0
    for g in prefix:
        products |= ctx.shift_mask(products | 1, ctx.right_shift_table(g))
    count = height = 0

    def extend(start, products, length):
        nonlocal count, height
        count += 1
        height = max(height, length)
        for g in range(start, ctx.n):
            if not products >> ctx.inv_table[g] & 1:
                extend(g, products | ctx.shift_mask(products | 1, ctx.right_shift_table(g)),
                       length + 1)

    extend(ctx.q, products, 0)
    return count, height


@pytest.mark.parametrize("desc", ["3,7,2", "3,7,4"])
def test_coset_tails_settle_every_prefix(desc):
    """For every zero-sum-free A over <a>, the tally narrowed from A's parent
    prefix, as the DFS narrows it, settles the sorted-free A.R: their number,
    the empty R included, and greatest length |R|."""
    ctx = make_group(desc)
    q = ctx.q
    tails = invariants.CosetTails(ctx)
    prefixes, seen = [([], tails.entries)], set()
    while prefixes:
        prefix, parent_entries = prefixes.pop()
        sums = {0}
        for y in prefix:
            sums |= {(u + y) % q for u in sums}
        zero_row = sum(1 << -u % q for u in sums)  # row 0 of D_A + {e}
        entries = tails.narrow(parent_entries, zero_row)
        assert tails.settle(entries) == _walk_tails(ctx, prefix), prefix
        seen.add(len(prefix))
        prefixes += [(prefix + [y], entries) for y in range(prefix[-1] if prefix else 1, q)
                     if -y % q not in sums]  # A.y stays zero-sum-free
    assert seen == set(range(q))  # A of every length up to q - 1


@pytest.mark.parametrize("ctx_name", ["ctx372", "ctx3133", "ctx5113"])
def test_child_live_set_is_one_mask(ctx_name, request):
    """The live set of child g of a node with forbidden set D is the live h >= g
    with g*h outside D + {e}; the walk computes it as live & ~g^-1 * (D + {e})
    from the image's rows at and after g's row, and for g in the last coset row
    from one rotation of row p-2 of D + {e}."""
    ctx = request.getfixturevalue(ctx_name)
    n, p, q = ctx.n, ctx.p, ctx.q
    last = (p - 1) * q
    row = (1 << q) - 1
    turns = {}
    for g in range(last, n):
        # g^-1 has t-degree 1: only row p-2 moves into the last row.
        into_last = [move for move in ctx.left_shift_plan(ctx.inv_table[g]) if move[1] == last]
        assert len(into_last) == 1 and into_last[0][0] == (p - 2) * q
        turns[g] = into_last[0][2]
    rng = random.Random(n)
    outcomes = set()
    for density in (0.3, 0.6, 0.85, 0.95):
        for _ in range(30):
            forbidden = sum(1 << x for x in range(1, n) if rng.random() < density)
            closed = forbidden | 1
            doubled = (closed >> (p - 2) * q & row) * (1 | 1 << q)
            for g in range(1, n):
                if forbidden >> g & 1:
                    continue
                live = ((1 << n) - 1) >> g << g & ~forbidden
                plan = ctx.left_shift_plan(ctx.inv_table[g])
                kids = live & ~ctx.left_shift(closed, plan)
                head = tuple(move for move in plan if move[1] >= g - g % q)
                assert kids == live & ~ctx.left_shift(closed, head)
                by_term = sum(1 << h for h in range(g, n)
                              if live >> h & 1 and not closed >> ctx.mul_idx(g, h) & 1)
                assert kids == by_term
                if g >= last:
                    assert kids == live & ~((doubled >> turns[g] & row) << last)
                outcomes.add((g >= last, kids == 0))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("desc", ["5,11,3", "7,29,16"])
def test_last_row_step_moves_rows_up(desc):
    """``CosetTails``'s step for a last-row child g, from the rotations of
    ``_child_moves``, gives the key, live set and rows of the child's
    D' + {e} that g^-1 * (D + {e}) gives.  At p >= 5 the rows 1 to p-3
    move too."""
    ctx = make_group(desc)
    n, p, q = ctx.n, ctx.p, ctx.q
    last, penult, third = (p - 1) * q, (p - 2) * q, (p - 3) * q
    row = (1 << q) - 1

    def rot(bits, back):
        return bits * (1 | 1 << q) >> back & row

    steps = invariants._child_moves(ctx)[2]
    rng = random.Random(n)
    for density in (0.2, 0.5, 0.8):
        for _ in range(4):
            forbidden = sum(1 << x for x in range(1, n) if rng.random() < density)
            closed = forbidden | 1
            packed = closed & (1 << penult) - 1
            penult_row, last_row = closed >> penult & row, forbidden >> last
            live = rng.getrandbits(q)
            for g in range(last, n):
                to_zero, to_last, to_penult, middle = steps[g - last]
                assert len(middle) == p - 3
                image = ctx.left_shift(closed, ctx.left_shift_plan(ctx.inv_table[g]))
                child = closed | image
                up = rot(penult_row, to_last)
                assert up == image >> last
                assert live & ~up == (live << last & ~image) >> last
                moved = packed | rot(last_row, to_zero)
                assert moved & row == child & row  # the child's key
                for src, dst, back in middle:
                    moved |= rot(packed >> src & row, back) << dst
                assert moved == child & (1 << penult) - 1
                assert penult_row | rot(packed >> third & row, to_penult) == child >> penult & row
                assert last_row | up == child >> last


def test_alpha_tau_extremal_example(ctx372):
    seq = Sequence.parse(ctx372, "(0,1)^6,(1,0)^2")
    assert classify(ctx372, seq).product_one_free


# -- extremal atoms --------------------------------------------------------------


def test_extremal_atom_realization(ctx372):
    form = extremal_atom(ctx372, (1, 0), (0, 1))
    assert form.s_eff == 2
    assert form.sequence.format(ctx372) == "(0,1)^12,(1,0),(2,5)"
    # The written-out ordering multiplies to the identity.
    acc = (0, 0)
    ordering = [(0, 1)] * 6 + [(1, 0)] + [(0, 1)] * 6 + [(2, 5)]
    for g in ordering:
        acc = ctx372.mul(acc, g)
    assert acc == (0, 0)


def test_extremal_atom_rejects_bad_pairs(ctx372):
    with pytest.raises(ValueError):
        extremal_atom(ctx372, (0, 1), (1, 0))


def test_extremal_enumeration_counts(ctx372, ctx3133):
    forms = extremal_atoms_all(ctx372)
    assert len(forms) == N_F_372
    assert len({f.sequence for f in forms}) == N_F_372
    assert len(extremal_atoms_all(ctx3133)) == N_F_3133


@pytest.mark.parametrize("descriptor", ["3,7,2", "3,7,4", "5,11,3", "3,13,3"])
def test_extremal_family_equals_the_generator_pair_construction(descriptor):
    # The orbit expansion gives the forms that realizing every generator pair
    # and keeping the first pair of each sequence gives, in the same order.
    ctx = make_group(descriptor)
    seen = {}
    for x, y, _ in generator_pairs(ctx):
        form = extremal_atom(ctx, x, y)
        seen.setdefault(form.sequence, form)
    assert extremal_atoms_all(ctx) == sorted(seen.values(), key=lambda f: f.sequence)
    family = extremal_family(ctx)
    assert len(family) == ctx.q * (ctx.q - 1) * (ctx.p - 1) // 2
    assert set(family) == {form.sequence.format(ctx) for form in seen.values()}
    # The representatives of d and p - d share an orbit; the first is kept.
    assert set(family.values()) == {
        extremal_atom(ctx, (d, 0), (0, 1)).sequence for d in range(1, (ctx.p + 1) // 2)}
    assert extremal_family(ctx) is family


def test_extremal_family_rejects_an_orbit_smaller_than_aut(monkeypatch):
    ctx = make_group("3,7,2")
    monkeypatch.setattr(invariants, "automorphisms", lambda ctx: [(1, 0), (1, 0)])
    with pytest.raises(AssertionError, match="1 members, not"):
        extremal_family(ctx)


def test_extremal_multiset_statistics(ctx372):
    for form in extremal_atoms_all(ctx372):
        seq = form.sequence
        assert len(seq) == 14
        assert seq.count_in(ctx372.outside_commutator_indices) == 2
        assert max_order_p_multiplicity(ctx372, seq) <= ctx372.q - 1


def test_mutated_extremal_is_rejected(ctx372):
    forms = {f.sequence for f in extremal_atoms_all(ctx372)}
    base = extremal_atom(ctx372, (1, 0), (0, 1)).sequence
    mutated = base.remove(Sequence.parse(ctx372, "(0,1)")).cat(Sequence.parse(ctx372, "(0,2)"))
    verdict = is_atom(ctx372, mutated)
    assert not (verdict.atom and mutated in forms)


def test_large_davenport_lower_witness(ctx372, ctx3133):
    # The atom of length 2q that davenport --which large emits as its witness.
    for ctx in (ctx372, ctx3133):
        witness = extremal_atom(ctx, (1, 0), (0, 1)).sequence
        seq = Sequence.parse(ctx, witness.format(ctx))
        assert len(seq) == 2 * ctx.q and is_atom(ctx, seq).atom
    assert ctx372.q == 7 and ctx3133.q == 13  # lengths 14 and 26


def order_p_subgroups(ctx):
    subs = {
        ctx.subgroup_generated_idx({idx})
        for idx in ctx.outside_commutator_indices
    }
    return sorted(subs, key=sorted)


def max_order_p_multiplicity(ctx, seq):
    """max_H v_H(S) over the order-p subgroups H."""
    return max(seq.count_in(sub) for sub in order_p_subgroups(ctx))


def test_order_p_subgroups(ctx372):
    subs = order_p_subgroups(ctx372)
    assert len(subs) == 7
    assert all(len(s) == 3 for s in subs)


# -- elasticity witnesses ----------------------------------------------------------


def test_rho2_witness(ctx372):
    witness = build_rho_witness(ctx372, "rho2")
    assert witness.lengths == (2, 14)
    assert verify_elasticity_witness(ctx372, witness) == []


def test_rho3_witness(ctx372):
    witness = build_rho_witness(ctx372, "rho3")
    assert witness.lengths == (3, 16)
    assert verify_elasticity_witness(ctx372, witness) == []
    s3 = witness.factors_short[2]
    assert s3.format(ctx372) == "(1,2),(1,4),(2,0),(2,4)"
    assert is_atom(ctx372, s3).atom
    u2 = witness.factors_long[1]
    a, b = u2.indices()
    assert ctx372.mul_idx(a, b) == 0 and ctx372.mul_idx(b, a) == 0
    assert {ctx372.coords(a), ctx372.coords(b)} == {(2, 5), (1, 4)}


def test_rho_witnesses_other_groups(ctx3133):
    assert build_rho_witness(ctx3133, "rho2").lengths == (2, 26)
    assert build_rho_witness(ctx3133, "rho3").lengths == (3, 28)


def test_rho3_long_atoms_sit_in_extremal_family(ctx372):
    # Computed observation: the two length-14 factors of the rho3 witness are
    # themselves members of the realized extremal family.
    witness = build_rho_witness(ctx372, "rho3")
    forms = {f.sequence for f in extremal_atoms_all(ctx372)}
    s1, s2, _s3 = witness.factors_short
    assert s1 in forms
    assert s2 in forms


def test_witness_verifier_catches_damage(ctx372):
    witness = build_rho_witness(ctx372, "rho2")
    broken = witness.__class__(
        product=witness.product,
        factors_short=witness.factors_short,
        factors_long=witness.factors_long[:-1],
    )
    assert verify_elasticity_witness(ctx372, broken)


# -- calculator ---------------------------------------------------------------------


def test_calculator_at_d14():
    table = elasticity_calculator(14, 1)
    assert table.rho_even == 14
    assert table.rho_odd_bounds == (16, 20)
    assert table.rho_limit == 7
    lam = table.lambda_table
    assert lam[1] == (1, 1)
    assert lam[14] == (2, 2)
    for n in range(2, 14):
        assert lam[n] == (2, 2)
    assert lam[15] == (3, 3) and lam[16] == (3, 3)  # j <= 2
    for n in range(14 + 7, 28):
        assert lam[n] == (4, 4)  # j >= D/2
    assert lam[18] == (3, 4)  # undetermined without the exact odd elasticity
    assert lam[28] == (4, 4)


def test_calculator_rejects_bad_parameters():
    with pytest.raises(ValueError):
        elasticity_calculator(13, 1)
    with pytest.raises(ValueError):
        elasticity_calculator(14, 0)


# -- bounded unions of sets of lengths ------------------------------------------------


def test_atoms_ladder_complete(ctx372):
    ladder = atoms_ladder(ctx372)
    assert sorted(ladder) == list(range(2, 15))
    for ell, seq in ladder.items():
        assert len(seq) == ell
        assert is_atom(ctx372, seq).atom


def test_uk_trivial(ctx372):
    result = uk_bounded(ctx372, 1)
    assert result.values == frozenset({1})


def test_uk_two_covers_full_interval(ctx372):
    result = uk_bounded(ctx372, 2, max_products=40)
    assert set(range(2, 15)) <= set(result.values)
    assert not result.complete
    table = elasticity_calculator(14, 1)
    lam_lo = table.lambda_table[2][0]
    assert all(lam_lo <= v <= table.rho_even for v in result.values)
    for ell, witness in result.witnesses.items():
        assert verify_elasticity_witness(ctx372, witness) == []
        assert witness.lengths == (2, ell) or witness.lengths[1] == ell


def test_uk_three_reaches_past_even_bound(ctx372):
    result = uk_bounded(ctx372, 3, max_products=2)
    assert 16 in result.values
    witness = result.witnesses[16]
    assert verify_elasticity_witness(ctx372, witness) == []
    table = elasticity_calculator(14, 1)
    assert max(result.values) <= table.rho_odd_bounds[1]


def test_uk_counts_a_capped_product_as_budget_exhausted(ctx372, monkeypatch):
    # max_products is above the 527 products tried at k=2, so only the state cap exhausts the budget.
    monkeypatch.setattr(sequences, "LENGTH_SET_STATE_CAP", 64)
    result = uk_bounded(ctx372, 2, max_products=10**6)
    assert result.budget_exhausted
    assert sorted(result.values) == [2, 3, 4, 7]
    for witness in result.witnesses.values():
        assert verify_elasticity_witness(ctx372, witness) == []
