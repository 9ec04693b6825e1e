import pytest

from prodone import make_group
from prodone.group import apply_automorphism, automorphisms


def generator_pairs(ctx):
    """All (x, y, s_eff) with ord(x) = p, ord(y) = q and y*x = x*y^s_eff, by brute force over the group.

    The oracle that the tests hold the closed forms of ``group.automorphisms``
    and ``invariants.extremal_family`` against.
    """
    pairs = []
    order_p = [ctx.coords(i) for i in range(ctx.n) if ctx.order_table[i] == ctx.p]
    order_q = [ctx.coords(i) for i in range(ctx.n) if ctx.order_table[i] == ctx.q]
    for x in order_p:
        x_inv = ctx.inv(x)
        for y in order_q:
            # x^-1 y x = y^t  with  t = (conjugate exponent) / (exponent of y)
            z = ctx.mul(ctx.mul(x_inv, y), x)
            t = z[1] * pow(y[1], -1, ctx.q) % ctx.q
            pairs.append((x, y, t))
    return pairs


def automorphism_tables(ctx):
    """Each automorphism of ``group.automorphisms`` as the tuple of its images of the indices 0 .. n-1."""
    return [tuple(apply_automorphism(ctx, u, v, idx) for idx in range(ctx.n))
            for u, v in automorphisms(ctx)]


@pytest.fixture(scope="session")
def ctx372():
    return make_group("3,7,2")


@pytest.fixture(scope="session")
def ctx3133():
    return make_group("3,13,3")


@pytest.fixture(scope="session")
def ctx5113():
    return make_group("5,11,3")
