import itertools
import random

import pytest
from conftest import automorphism_tables, generator_pairs

from prodone.group import (
    GroupParamError,
    GroupParams,
    automorphisms,
    extends_to_automorphism,
    format_element,
    make_group,
    parse_element,
)

AUT_COUNT_372 = 42  # brute-force count, frozen as a regression constant


class AffineRep:
    """Independent oracle: (i, j) acts as z -> s^i z + j on Z_q, composed left to right."""

    def __init__(self, p, q, s):
        self.p, self.q, self.s = p, q, s

    def as_map(self, g):
        a, b = g
        mult = pow(self.s, a, self.q)
        return tuple((mult * z + b) % self.q for z in range(self.q))

    def compose(self, g, h):
        first = self.as_map(g)
        second = self.as_map(h)
        return tuple(second[z] for z in first)


def test_make_group_accepts_valid_triples():
    for desc in ("3,7,2", "3,13,3", "5,11,3"):
        ctx = make_group(desc)
        assert ctx.params.descriptor() == desc


@pytest.mark.parametrize(
    "params, fragment",
    [
        ((4, 7, 2), "prime"),
        ((3, 9, 2), "prime"),
        ((2, 7, 2), "odd"),
        ((3, 11, 2), "divide"),
        ((3, 7, 3), "order"),
        ((3, 7, 1), "order"),
        ((3, 7, 0), "order"),
    ],
)
def test_make_group_rejects_bad_parameters(params, fragment):
    with pytest.raises(GroupParamError, match=fragment):
        make_group(params)


def test_make_group_rejects_oversized_orders():
    # 53 | 107-1 fails; use a valid-but-huge pair: 23 | 2347-1, ord_2347(s)=23 exists
    with pytest.raises(GroupParamError, match="exceeds"):
        make_group((23, 2347, pow(5, (2347 - 1) // 23, 2347)))


def test_descriptor_round_trip():
    params = GroupParams.from_descriptor("3,7,2")
    assert params == GroupParams(3, 7, 2)
    with pytest.raises(GroupParamError):
        GroupParams.from_descriptor("3,7")


def test_defining_relation_and_identity(ctx372):
    alpha, tau = (0, 1), (1, 0)
    assert ctx372.mul(alpha, tau) == (1, 2)  # a*t = t*a^s with s = 2
    assert ctx372.mul(alpha, tau) == ctx372.mul(tau, (0, 2))
    for g in map(ctx372.coords, range(ctx372.n)):
        assert ctx372.mul((0, 0), g) == g
        assert ctx372.mul(g, (0, 0)) == g


def test_multiplication_matches_affine_representation(ctx372):
    rep = AffineRep(3, 7, 2)
    maps = {g: rep.as_map(g) for g in map(ctx372.coords, range(ctx372.n))}
    assert len(set(maps.values())) == ctx372.n  # faithful
    for g in map(ctx372.coords, range(ctx372.n)):
        for h in map(ctx372.coords, range(ctx372.n)):
            assert maps[ctx372.mul(g, h)] == rep.compose(g, h)


def test_specific_products(ctx372):
    assert ctx372.mul((1, 3), (2, 5)) == (0, 3)


def test_inverse_and_powers(ctx372):
    assert ctx372.inv((1, 1)) == (2, 3)
    assert ctx372.mul((1, 1), (2, 3)) == (0, 0)
    assert ctx372.power((1, 1), 3) == (0, 0)
    assert ctx372.order((1, 1)) == 3
    assert ctx372.order((0, 4)) == 7
    assert ctx372.order((0, 0)) == 1
    for g in map(ctx372.coords, range(ctx372.n)):
        assert ctx372.power(g, ctx372.order(g)) == (0, 0)
        assert ctx372.power(g, -1) == ctx372.inv(g)


def test_power_closed_form(ctx372):
    # For a != 0: (a,b)^n = (a n mod p, b (s^(a n) - 1)/(s^a - 1) mod q).
    p, q, s = 3, 7, 2
    for g in map(ctx372.coords, range(ctx372.n)):
        a, b = g
        if a == 0:
            continue
        for n in range(0, 9):
            num = (pow(s, a * n, q) - 1) % q
            den_inv = pow(pow(s, a, q) - 1, -1, q)
            expected = ((a * n) % p, b * num * den_inv % q)
            assert ctx372.power(g, n) == expected


@pytest.mark.parametrize("desc", ["3,7,2", "3,13,3", "5,11,3"])
def test_associativity_exhaustive(desc):
    ctx = make_group(desc)
    idxs = range(ctx.n)
    for i, j, k in itertools.product(idxs, idxs, idxs):
        assert ctx.mul_idx(ctx.mul_idx(i, j), k) == ctx.mul_idx(i, ctx.mul_idx(j, k))


@pytest.mark.parametrize("desc", ["3,7,2", "3,13,3", "5,11,3"])
def test_left_shift_plan_multiplies_on_the_left(desc):
    """p row rotations turn M into {h*x : x in M}, for every h."""
    ctx = make_group(desc)
    rng = random.Random(ctx.n)
    masks = [0, 1, (1 << ctx.n) - 1] + [rng.getrandbits(ctx.n) for _ in range(20)]
    masks += [1 << rng.randrange(ctx.n) for _ in range(10)]
    for h in range(ctx.n):
        plan = ctx.left_shift_plan(h)
        assert len(plan) == ctx.p
        for mask in masks:
            expected = 0
            for x in range(ctx.n):
                if mask >> x & 1:
                    expected |= 1 << ctx.mul_idx(h, x)
            assert ctx.left_shift(mask, plan) == expected


def test_structure_census(ctx372):
    census = {}
    for i in range(ctx372.n):
        census[ctx372.order_table[i]] = census.get(ctx372.order_table[i], 0) + 1
    assert census == {1: 1, 7: 6, 3: 14}


def test_center_is_trivial(ctx372):
    center = [
        g
        for g in range(ctx372.n)
        if all(ctx372.mul_idx(g, h) == ctx372.mul_idx(h, g) for h in range(ctx372.n))
    ]
    assert center == [0]


def test_centralizer_equals_generated_subgroup(ctx372):
    for g in range(1, ctx372.n):
        centralizer = {
            h for h in range(ctx372.n) if ctx372.mul_idx(g, h) == ctx372.mul_idx(h, g)
        }
        assert centralizer == set(ctx372.subgroup_generated_idx({g}))


def test_subgroup_generated(ctx372):
    def generated(gens):
        return {ctx372.coords(i) for i in ctx372.subgroup_generated_idx({ctx372.idx(g) for g in gens})}

    assert len(generated({(0, 1)})) == 7
    assert len(generated({(1, 0), (0, 1)})) == 21
    gen = generated({(1, 4)})
    assert len(gen) == 3
    assert gen == {(0, 0), (1, 4), (2, 5)}
    for g in map(ctx372.coords, range(ctx372.n)):
        assert len(generated({g})) in (1, 3, 7)


def test_automorphisms(ctx372):
    assert automorphisms(ctx372)[0] == (1, 0)
    auts = automorphism_tables(ctx372)
    assert tuple(range(ctx372.n)) in auts
    assert len(auts) == AUT_COUNT_372
    # Multiplicative on all pq^2 pairs, order-preserving, commutator-preserving.
    for table in auts:
        for g in range(ctx372.n):
            assert ctx372.order_table[table[g]] == ctx372.order_table[g]
            assert (table[g] < ctx372.q) == (g < ctx372.q)
        for g in range(ctx372.n):
            for h in range(ctx372.n):
                assert table[ctx372.mul_idx(g, h)] == ctx372.mul_idx(table[g], table[h])
    # Closed under composition.
    aut_set = set(auts)
    first, second = auts[1], auts[2]
    composed = tuple(second[first[g]] for g in range(ctx372.n))
    assert composed in aut_set


def _brute_force_automorphisms(ctx):
    """Oracle: every pair of images (order p, order q) that respects the
    relation and whose induced coordinate map permutes the group."""
    order_p = [i for i in range(ctx.n) if ctx.order_table[i] == ctx.p]
    order_q = [i for i in range(ctx.n) if ctx.order_table[i] == ctx.q]
    result = []
    for ft in order_p:
        ft_el = ctx.coords(ft)
        for fa in order_q:
            fa_el = ctx.coords(fa)
            if ctx.mul(fa_el, ft_el) != ctx.mul(ft_el, ctx.power(fa_el, ctx.s)):
                continue
            pow_t = [ctx.idx(ctx.power(ft_el, i)) for i in range(ctx.p)]
            pow_a = [ctx.idx(ctx.power(fa_el, j)) for j in range(ctx.q)]
            image = tuple(ctx.mul_idx(pow_t[a], pow_a[b])
                          for a in range(ctx.p) for b in range(ctx.q))
            if len(set(image)) == ctx.n:
                result.append(image)
    return result


@pytest.mark.parametrize("descriptor", ["3,7,2", "3,7,4", "5,11,3", "3,13,3"])
def test_closed_form_automorphisms_match_the_brute_force_oracle(descriptor):
    # The closed form on every element against the brute-force maps.
    ctx = make_group(descriptor)
    pairs = automorphisms(ctx)
    auts = automorphism_tables(ctx)
    assert pairs[0] == (1, 0) and auts[0] == tuple(range(ctx.n))
    assert len(auts) == len(set(auts)) == ctx.q * (ctx.q - 1)
    assert set(auts) == set(_brute_force_automorphisms(ctx))
    # Each map is the one its generator images determine, and they pass the check.
    for (u, v), table in zip(pairs, auts):
        assert (ctx.coords(table[ctx.q]), ctx.coords(table[1])) == ((1, v), (0, u))
        assert extends_to_automorphism(ctx, ctx.coords(table[ctx.q]), ctx.coords(table[1]))


def test_broken_generator_images_are_rejected(ctx372):
    assert extends_to_automorphism(ctx372, (1, 3), (0, 2))
    # t -> (2, 0) has order 3, but (0,1)(2,0) = (2,4) != (2,0)(0,1)^2 = (2,2).
    assert not extends_to_automorphism(ctx372, (2, 0), (0, 1))
    assert not extends_to_automorphism(ctx372, (1, 0), (1, 1))  # a -> an element of order 3
    assert not extends_to_automorphism(ctx372, (0, 1), (0, 1))  # t -> an element of order 7
    assert not extends_to_automorphism(ctx372, (1, 0), (0, 0))  # a -> the identity


def test_generator_pairs(ctx372):
    pairs = generator_pairs(ctx372)
    assert len(pairs) == 14 * 6
    residues = set()
    for x, y, s_eff in pairs:
        assert ctx372.order(x) == 3
        assert ctx372.order(y) == 7
        assert ctx372.mul(y, x) == ctx372.mul(x, ctx372.power(y, s_eff))
        residues.add(s_eff)
    assert residues == {2, 4}
    canonical = [t for x, y, t in pairs if x == (1, 0) and y == (0, 1)]
    assert canonical == [2]


def test_element_text_forms(ctx372):
    assert format_element((1, 3)) == "(1,3)"
    assert parse_element(ctx372, "(1,3)") == (1, 3)
    assert parse_element(ctx372, "t^1*a^3") == (1, 3)
    with pytest.raises(ValueError):
        parse_element(ctx372, "(3,0)")
    with pytest.raises(ValueError):
        parse_element(ctx372, "x^2")
