"""Exact arithmetic and structure tables for the non-abelian groups C_q : C_p.

For odd primes p, q with p | q-1 and a residue s of multiplicative order p
mod q, the group is generated by t (order p) and a (order q) subject to
a*t = t*a^s.  Elements are the coordinate pairs (i, j) <-> t^i a^j with
0 <= i < p and 0 <= j < q, multiplied by

    (i1, j1) * (i2, j2) = (i1 + i2 mod p,  j1 * s^i2 + j2 mod q).

Coordinates pack densely into indices i*q + j; index 0 is the identity and
indices < q form the commutator subgroup <a>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

Element = tuple[int, int]

#: Largest supported group order; construction fails loudly beyond this.
MAX_GROUP_ORDER = 4096

#: Largest order for which the full multiplication table is cached.
_CAYLEY_CACHE_LIMIT = 1024


class GroupParamError(ValueError):
    """Raised when (p, q, s) does not define a supported group."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _multiplicative_order(s: int, q: int) -> int:
    if math.gcd(s, q) != 1:
        return 0
    value, k = s % q, 1
    while value != 1:
        value = value * s % q
        k += 1
    return k


@dataclass(frozen=True)
class GroupParams:
    """Raw parameters (p, q, s); validated by :func:`make_group`."""

    p: int
    q: int
    s: int

    def descriptor(self) -> str:
        return f"{self.p},{self.q},{self.s}"

    @classmethod
    def from_descriptor(cls, text: str) -> "GroupParams":
        parts = text.strip().split(",")
        if len(parts) != 3:
            raise GroupParamError(f"group descriptor must be 'p,q,s', got {text!r}")
        try:
            p, q, s = (int(part) for part in parts)
        except ValueError as exc:
            raise GroupParamError(f"non-integer group descriptor {text!r}") from exc
        return cls(p, q, s)


class GroupCtx:
    """Immutable context for one group: cached inverse/order tables and s-powers.

    Every operation is a pure read, so a single context may be shared freely
    across worker processes.
    """

    def __init__(self, params: GroupParams):
        p, q, s = params.p, params.q, params.s
        self.params = params
        self.p = p
        self.q = q
        self.s = s % q
        self.n = p * q
        self.spow = [pow(self.s, i, q) for i in range(p)]
        self.sigma = list(accumulate(self.spow[:-1], initial=0))  # sigma_d = 1 + s + ... + s^(d-1)
        self.inv_table = [0] * self.n
        for i in range(self.n):
            a, b = divmod(i, q)
            a2 = (-a) % p
            b2 = (-b * self.spow[a2]) % q
            self.inv_table[i] = a2 * q + b2
        self.order_table = [self._order_by_iteration(i) for i in range(self.n)]
        self._cayley: list[int] | None = None
        self._shift_tables: dict[int, list[int]] = {}
        self._conjugacy_classes: list[frozenset[int]] | None = None
        self._extremal_family = None  # built by ``invariants.extremal_family``

    # -- coordinates ---------------------------------------------------

    def idx(self, g: Element) -> int:
        return g[0] * self.q + g[1]

    def coords(self, i: int) -> Element:
        return divmod(i, self.q)

    def tau_degree_idx(self, i: int) -> int:
        return i // self.q

    @property
    def outside_commutator_indices(self) -> range:
        return range(self.q, self.n)

    # -- arithmetic ----------------------------------------------------

    def mul(self, g: Element, h: Element) -> Element:
        a1, b1 = g
        a2, b2 = h
        return ((a1 + a2) % self.p, (b1 * self.spow[a2 % self.p] + b2) % self.q)

    def mul_idx(self, i: int, j: int) -> int:
        q = self.q
        a1, b1 = divmod(i, q)
        a2, b2 = divmod(j, q)
        return ((a1 + a2) % self.p) * q + (b1 * self.spow[a2] + b2) % q

    def inv(self, g: Element) -> Element:
        return self.coords(self.inv_table[self.idx(g)])

    def inv_idx(self, i: int) -> int:
        return self.inv_table[i]

    def power(self, g: Element, exponent: int) -> Element:
        """g**exponent by square-and-multiply; negative exponents allowed."""
        i = self.idx(g)
        if exponent < 0:
            i = self.inv_table[i]
            exponent = -exponent
        exponent %= self.order_table[self.idx(g)]
        result = 0
        base = i
        while exponent:
            if exponent & 1:
                result = self.mul_idx(result, base)
            base = self.mul_idx(base, base)
            exponent >>= 1
        return self.coords(result)

    def order(self, g: Element) -> int:
        return self.order_table[self.idx(g)]

    def _order_by_iteration(self, i: int) -> int:
        k, acc = 1, i
        while acc != 0:
            acc = self.mul_idx(acc, i)
            k += 1
        return k

    # -- cached hot-path tables -----------------------------------------

    def cayley(self) -> list[int]:
        """Flat n*n multiplication table; only cached for small groups."""
        if self._cayley is None:
            if self.n > _CAYLEY_CACHE_LIMIT:
                raise GroupParamError(
                    f"full multiplication table unsupported for order {self.n} > {_CAYLEY_CACHE_LIMIT}"
                )
            n = self.n
            self._cayley = [self.mul_idx(i, j) for i in range(n) for j in range(n)]
        return self._cayley

    def right_shift_table(self, g_idx: int) -> list[int]:
        """Byte-chunk tables turning a bitset M into {h*g : h in M}.

        The returned flat list has 256 entries per 8-bit chunk of the group
        bitset, so applying the shift costs ceil(n/8) lookups.
        """
        cached = self._shift_tables.get(g_idx)
        if cached is not None:
            return cached
        n = self.n
        column = [self.mul_idx(h, g_idx) for h in range(n)]
        nchunks = (n + 7) // 8
        table = [0] * (nchunks * 256)
        for chunk in range(nchunks):
            base = chunk * 256
            lo = chunk * 8
            width = min(8, n - lo)
            for byte in range(1, 256):
                low = byte & -byte
                bit = low.bit_length() - 1
                if bit >= width:
                    continue
                table[base + byte] = table[base + (byte ^ low)] | (1 << column[lo + bit])
        self._shift_tables[g_idx] = table
        return table

    def shift_mask(self, mask: int, table: list[int]) -> int:
        """Apply a right-multiplication chunk table to a bitset."""
        out = 0
        base = 0
        while mask:
            out |= table[base + (mask & 255)]
            mask >>= 8
            base += 256
        return out

    def left_shift_plan(self, h_idx: int) -> tuple[tuple[int, int, int], ...]:
        """Row moves turning a bitset M into {h*x : x in M}; no table needed.

        Left multiplication by h = (a, b) sends x = (r, c) to
        (a + r, b*s^r + c): row r of the bitset (bits r*q .. r*q + q-1) moves
        to row a + r mod p and rotates by b*s^r mod q.  Each move is
        (r*q, (a + r mod p)*q, q - (b*s^r mod q)); the last entry rotates a
        row R because the doubled row R | R << q, shifted right by it and cut
        to q bits, is R rotated by b*s^r.
        """
        q = self.q
        a, b = divmod(h_idx, q)
        return tuple(
            (r * q, (a + r) % self.p * q, q - b * self.spow[r] % q)
            for r in range(self.p)
        )

    def left_shift(self, mask: int, plan: tuple[tuple[int, int, int], ...]) -> int:
        """Apply a left-multiplication plan to a bitset: p row rotations."""
        row = (1 << self.q) - 1
        double = 1 | 1 << self.q
        out = 0
        for src, dst, back in plan:
            out |= ((mask >> src & row) * double >> back & row) << dst
        return out

    # -- structure -----------------------------------------------------

    def subgroup_generated_idx(self, gens: set[int] | frozenset[int]) -> frozenset[int]:
        closure = {0}
        frontier = [0]
        gen_list = sorted(set(gens) | {self.inv_table[g] for g in gens})
        while frontier:
            h = frontier.pop()
            for g in gen_list:
                v = self.mul_idx(h, g)
                if v not in closure:
                    closure.add(v)
                    frontier.append(v)
        return frozenset(closure)

    def conjugacy_classes(self) -> list[frozenset[int]]:
        if self._conjugacy_classes is None:
            seen = [False] * self.n
            classes = []
            for i in range(self.n):
                if seen[i]:
                    continue
                cls = set()
                for g in range(self.n):
                    v = self.mul_idx(self.mul_idx(self.inv_table[g], i), g)
                    cls.add(v)
                for v in cls:
                    seen[v] = True
                classes.append(frozenset(cls))
            self._conjugacy_classes = classes
        return self._conjugacy_classes

    def __repr__(self) -> str:  # pragma: no cover
        return f"GroupCtx({self.params.descriptor()})"

    def __reduce__(self):
        # Rebuild from parameters; cached tables are cheap to recompute and
        # the byte-chunk tables would bloat pickles sent to workers.
        return (make_group, (self.params,))


def make_group(params: GroupParams | tuple[int, int, int] | str) -> GroupCtx:
    """Validate (p, q, s) and build the group context.

    Rejects, each with its own diagnostic: non-prime or even p or q,
    p not dividing q-1, s of multiplicative order != p mod q, and orders
    beyond MAX_GROUP_ORDER.
    """
    if isinstance(params, str):
        params = GroupParams.from_descriptor(params)
    elif isinstance(params, tuple):
        params = GroupParams(*params)
    p, q, s = params.p, params.q, params.s
    if not _is_prime(p):
        raise GroupParamError(f"p must be prime, got {p}")
    if p % 2 == 0:
        raise GroupParamError(f"p must be odd, got {p}")
    if not _is_prime(q):
        raise GroupParamError(f"q must be prime, got {q}")
    if q % 2 == 0:
        raise GroupParamError(f"q must be odd, got {q}")
    if (q - 1) % p != 0:
        raise GroupParamError(f"p must divide q-1, got p={p}, q={q}")
    if p * q > MAX_GROUP_ORDER:
        raise GroupParamError(f"group order {p * q} exceeds supported limit {MAX_GROUP_ORDER}")
    order = _multiplicative_order(s % q, q)
    if order != p:
        raise GroupParamError(
            f"s must have multiplicative order p mod q; ord_{q}({s % q}) = {order} != {p}"
        )
    # p | q-1 with both odd forces q = 1 mod 2p.
    assert q >= 2 * p + 1
    return GroupCtx(params)


def extends_to_automorphism(ctx: GroupCtx, t_image: Element, a_image: Element) -> bool:
    """The generator check: whether t -> ``t_image``, a -> ``a_image`` is an automorphism.

    It asks that ``t_image`` have order p, ``a_image`` order q, and
    a_image * t_image = t_image * a_image^s.  By von Dyck's theorem the
    defining relations then hold for the images, so t^d a^j ->
    t_image^d a_image^j is a homomorphism.  Its image holds an element of
    order p and one of order q, so it has order pq: it is onto, hence
    bijective.
    """
    return (
        ctx.order(t_image) == ctx.p
        and ctx.order(a_image) == ctx.q
        and ctx.mul(a_image, t_image) == ctx.mul(t_image, ctx.power(a_image, ctx.s))
    )


def automorphisms(ctx: GroupCtx) -> list[tuple[int, int]]:
    """The automorphism group as the pairs (u, v) of ``apply_automorphism``, the identity (1, 0) first.

    Every element outside <a> has order p, so an automorphism sends a to some
    (0, u), u != 0, and t to some (e, v); the relation reads
    (e, u*s^e + v) = (e, v + u*s), so s^(e-1) = 1 and e = 1.  The q(q-1)
    pairs t -> (1, v), a -> (0, u) are kept when they pass
    ``extends_to_automorphism``.
    """
    return [(u, v) for u in range(1, ctx.q) for v in range(ctx.q)
            if extends_to_automorphism(ctx, (1, v), (0, u))]


def apply_automorphism(ctx: GroupCtx, u: int, v: int, idx: int) -> int:
    """The image of the element of index ``idx`` under t -> (1, v), a -> (0, u).

    As (1, v)^d = (d, v*sigma_d) with sigma_d = 1 + s + ... + s^(d-1), and
    (0, u)^j = (0, u*j), the map is the closed form
    (d, j) -> (d, u*j + v*sigma_d).
    """
    d, j = divmod(idx, ctx.q)
    return d * ctx.q + (u * j + v * ctx.sigma[d]) % ctx.q


# -- text forms --------------------------------------------------------


def format_element(g: Element) -> str:
    return f"({g[0]},{g[1]})"


def parse_element(ctx: GroupCtx, text: str) -> Element:
    """Parse '(a,b)' or 't^a*a^b' into a validated element."""
    text = text.strip()
    if text.startswith("("):
        if not text.endswith(")"):
            raise ValueError(f"unbalanced element literal {text!r}")
        parts = text[1:-1].split(",")
        if len(parts) != 2:
            raise ValueError(f"element tuple must have two coordinates: {text!r}")
        a, b = (int(part) for part in parts)
    elif text.startswith("t^"):
        head, _, tail = text.partition("*")
        if not tail.startswith("a^"):
            raise ValueError(f"element word must look like 't^a*a^b': {text!r}")
        a = int(head[2:])
        b = int(tail[2:])
    else:
        raise ValueError(f"unrecognised element literal {text!r}")
    if not (0 <= a < ctx.p and 0 <= b < ctx.q):
        raise ValueError(f"element {text!r} out of range for group {ctx.params.descriptor()}")
    return (a, b)
