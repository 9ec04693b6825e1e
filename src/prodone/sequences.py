"""Multiset sequences over a group and the subset-product DP engine.

A sequence is an unordered multiset of group elements.  The engine answers,
for a sequence S:

* ``pi_set``         -- the set of full ordered products over all orderings,
* ``subproducts_set``-- the union of those sets over all nonempty subsequences,
* ``classify``       -- the product-one / product-one-free flags,
* ``is_atom``        -- whether S is a minimal product-one sequence, with a
                        re-checkable split witness when it is not,
* ``length_set_bounded`` -- the set of factorization lengths into atoms.

All of these are read off one graded dynamic program over the lattice of
sub-multisets: reach(T) = union over g in supp(T) of reach(T - g) * g, with
reach(empty) = {identity}.  States are mixed-radix indices over the
multiplicity vector, so the table has prod_g (v_g + 1) entries; product sets
are bitsets packed into Python ints.  ``length_set_bounded`` then makes one
ascending pass over the product-one states of that table, finding the atom
states and the length sets together (the proof is in its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .group import Element, GroupCtx, format_element, parse_element

#: Caps on DP states, read at call time: the engine functions' and that of
#: ``length_set_bounded``, which keeps a length set per state.  A sequence of
#: length 2q with all-distinct support would need 2^(2q) states, which must
#: fail loudly, not thrash.
DEFAULT_STATE_CAP = 1 << 26
LENGTH_SET_STATE_CAP = 1 << 20


class ResourceCapError(RuntimeError):
    """The DP state count would exceed the cap (sequence too wide)."""


class Sequence:
    """A multiset of group elements, stored as sorted (index, multiplicity) pairs."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[int, int]]):
        merged: dict[int, int] = {}
        for idx, mult in entries:
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} for element index {idx}")
            if mult:
                merged[idx] = merged.get(idx, 0) + mult
        self.entries: tuple[tuple[int, int], ...] = tuple(sorted(merged.items()))

    @classmethod
    def empty(cls) -> "Sequence":
        return cls(())

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "Sequence":
        return cls((idx, 1) for idx in indices)

    @classmethod
    def from_elements(cls, ctx: GroupCtx, elems: Iterable[Element]) -> "Sequence":
        return cls.from_indices(ctx.idx(g) for g in elems)

    # -- text form -------------------------------------------------------

    @classmethod
    def parse(cls, ctx: GroupCtx, text: str) -> "Sequence":
        """Parse the comma-separated term format, e.g. "(0,1)^12,(1,0),(2,5)"."""
        text = text.strip()
        if not text:
            return cls.empty()
        terms: list[tuple[int, int]] = []
        depth = 0
        start = 0
        chunks = []
        for pos, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                chunks.append(text[start:pos])
                start = pos + 1
        chunks.append(text[start:])
        for chunk in chunks:
            chunk = chunk.strip()
            if not chunk:
                raise ValueError(f"empty term in sequence literal {text!r}")
            if "^" in chunk and not chunk.startswith("t^"):
                elem_text, _, mult_text = chunk.rpartition("^")
                mult = int(mult_text)
            else:
                elem_text, mult = chunk, 1
            g = parse_element(ctx, elem_text)
            terms.append((ctx.idx(g), mult))
        return cls(terms)

    def format(self, ctx: GroupCtx) -> str:
        parts = []
        for idx, mult in self.entries:
            base = format_element(ctx.coords(idx))
            parts.append(base if mult == 1 else f"{base}^{mult}")
        return ",".join(parts)

    # -- basic multiset algebra -------------------------------------------

    def __len__(self) -> int:
        return sum(m for _, m in self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and self.entries == other.entries

    def __lt__(self, other: "Sequence") -> bool:
        return self.entries < other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Sequence({self.entries!r})"

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def multiplicity(self, idx: int) -> int:
        for i, m in self.entries:
            if i == idx:
                return m
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def indices(self) -> tuple[int, ...]:
        out: list[int] = []
        for i, m in self.entries:
            out.extend([i] * m)
        return tuple(out)

    def cat(self, other: "Sequence") -> "Sequence":
        return Sequence(self.entries + other.entries)

    def remove(self, sub: "Sequence") -> "Sequence":
        mine = dict(self.entries)
        for i, m in sub.entries:
            have = mine.get(i, 0)
            if have < m:
                raise ValueError("cannot remove: not a subsequence")
            mine[i] = have - m
        return Sequence(mine.items())

    def count_in(self, indices: Iterable[int]) -> int:
        wanted = set(indices)
        return sum(m for i, m in self.entries if i in wanted)

    def map_indices(self, table) -> "Sequence":
        return Sequence((table[i], m) for i, m in self.entries)

    def inverse(self, ctx: GroupCtx) -> "Sequence":
        return Sequence((ctx.inv_table[i], m) for i, m in self.entries)


def cat_all(seqs: Iterable[Sequence]) -> Sequence:
    entries: list[tuple[int, int]] = []
    for seq in seqs:
        entries.extend(seq.entries)
    return Sequence(entries)


@dataclass(frozen=True)
class ProductSet:
    """A subset of the group, packed one bit per element index."""

    mask: int
    group_order: int

    def __contains__(self, idx: int) -> bool:
        return bool((self.mask >> idx) & 1)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def product(self, ctx: GroupCtx, other: "ProductSet") -> "ProductSet":
        """The product-set {a*b : a in self, b in other}."""
        out = 0
        for a in self:
            for b in other:
                out |= 1 << ctx.mul_idx(a, b)
        return ProductSet(out, self.group_order)


@dataclass(frozen=True)
class SequenceClass:
    product_one: bool
    product_one_free: bool


@dataclass(frozen=True)
class AtomVerdict:
    """Atom/non-atom classification with a re-checkable split witness.

    When ``atom`` is false but ``product_one`` is true, ``witness`` holds the
    split (T1, T2) with S = T1.T2 and both sides product-one; T1 is the
    lexicographically least such part by (length, sorted content).
    """

    product_one: bool
    atom: bool
    witness: tuple[Sequence, Sequence] | None = None


class _Lattice:
    """Reach masks over the mixed-radix lattice of sub-multisets of a sequence.

    With ``fill=False`` only the lattice's shape is set up, and no reach
    mask is computed.
    """

    def __init__(self, ctx: GroupCtx, seq: Sequence, cap: int, fill: bool = True):
        self.ctx = ctx
        self.seq = seq
        self.support = [i for i, _ in seq.entries]
        self.mults = [m for _, m in seq.entries]
        self.width = len(self.support)
        nstates = 1
        for m in self.mults:
            nstates *= m + 1
            if nstates > cap:
                raise ResourceCapError(
                    f"sequence too wide: {nstates}+ DP states exceed cap {cap}"
                )
        self.nstates = nstates
        self.full = nstates - 1
        strides = []
        acc = 1
        for m in self.mults:
            strides.append(acc)
            acc *= m + 1
        self.strides = strides
        if fill:
            self._fill()

    def _fill(self) -> None:
        ctx = self.ctx
        shift = ctx.shift_mask
        tables = [ctx.right_shift_table(g) for g in self.support]
        reach = [0] * self.nstates
        lengths = [0] * self.nstates
        reach[0] = 1
        digits = [0] * self.width
        mults = self.mults
        strides = self.strides
        width = self.width
        for t in range(1, self.nstates):
            i = 0
            while digits[i] == mults[i]:
                digits[i] = 0
                i += 1
            digits[i] += 1
            lengths[t] = lengths[t - strides[i]] + 1
            acc = 0
            for j in range(width):
                if digits[j]:
                    acc |= shift(reach[t - strides[j]], tables[j])
            reach[t] = acc
        self.reach = reach
        self.lengths = lengths

    def digits_of(self, t: int) -> list[int]:
        out = []
        for m in self.mults:
            t, d = divmod(t, m + 1)
            out.append(d)
        return out

    def seq_of(self, t: int) -> Sequence:
        return Sequence(zip(self.support, self.digits_of(t)))


def pi_set(ctx: GroupCtx, seq: Sequence) -> ProductSet:
    """The set of full ordered products of ``seq`` (identity for the empty one)."""
    lattice = _Lattice(ctx, seq, DEFAULT_STATE_CAP)
    return ProductSet(lattice.reach[lattice.full], ctx.n)


def subproducts_set(ctx: GroupCtx, seq: Sequence) -> ProductSet:
    """Union of the product sets of all nonempty subsequences."""
    if seq.is_empty:
        raise ValueError("subproducts of the empty sequence are undefined")
    lattice = _Lattice(ctx, seq, DEFAULT_STATE_CAP)
    mask = 0
    for t in range(1, lattice.nstates):
        mask |= lattice.reach[t]
    return ProductSet(mask, ctx.n)


def classify(ctx: GroupCtx, seq: Sequence) -> SequenceClass:
    if seq.is_empty:
        raise ValueError("cannot classify the empty sequence")
    lattice = _Lattice(ctx, seq, DEFAULT_STATE_CAP)
    product_one = bool(lattice.reach[lattice.full] & 1)
    free = True
    for t in range(1, lattice.nstates):
        if lattice.reach[t] & 1:
            free = False
            break
    return SequenceClass(product_one=product_one, product_one_free=free)


def is_atom(ctx: GroupCtx, seq: Sequence) -> AtomVerdict:
    """Minimal-product-one check via a single DP table answering both split sides."""
    if seq.is_empty:
        raise ValueError("the empty sequence is not classified")
    lattice = _Lattice(ctx, seq, DEFAULT_STATE_CAP)
    reach = lattice.reach
    full = lattice.full
    if not reach[full] & 1:
        return AtomVerdict(product_one=False, atom=False)
    best_key: tuple[int, tuple[tuple[int, int], ...]] | None = None
    best_state = -1
    lengths = lattice.lengths
    for t in range(1, full):
        if reach[t] & 1 and reach[full - t] & 1:
            if best_key is not None and lengths[t] > best_key[0]:
                continue
            key = (lengths[t], lattice.seq_of(t).entries)
            if best_key is None or key < best_key:
                best_key = key
                best_state = t
    if best_state < 0:
        return AtomVerdict(product_one=True, atom=True)
    part = lattice.seq_of(best_state)
    return AtomVerdict(product_one=True, atom=False, witness=(part, seq.remove(part)))


@dataclass
class LengthSetResult:
    """Factorization lengths of a product-one sequence into atoms, each with a witness."""

    lengths: frozenset[int]
    _witnesses: dict[int, tuple[Sequence, ...]] = field(default_factory=dict, repr=False)

    def factorization(self, length: int) -> tuple[Sequence, ...] | None:
        return self._witnesses.get(length)


def length_set_bounded(ctx: GroupCtx, seq: Sequence) -> LengthSetResult:
    """The exact set of factorization lengths of ``seq`` into atoms.

    One ascending pass over the product-one states t of the filled lattice.
    An atom a found so far that fits digitwise in t, and whose remainder
    t - a has a length set, gives t the lengths v + 1 for v in that set; the
    first such a, in ascending order, is the recorded step for each length.
    When no such a exists, t is an atom with lengths {1}.  Two facts make
    this exact:

    * Every nonempty product-one state is a sum of atom states: a product-one
      sequence that is not an atom splits into two shorter product-one parts,
      and induction on the length factors each of them.  So the states with a
      length set are exactly the nonempty product-one ones.
    * A product-one t is a non-atom iff some atom a != t fits in t and leaves
      a product-one t - a.  If t = u + w with u, w nonempty and product-one,
      take an atom a of a factorization of u; then t - a = (u - a) + w is
      product-one (a concatenation of product-one parts).  The converse is
      the definition.  Mixed-radix order visits a and t - a before t, so both
      are settled when t is reached.

    Raises ``ResourceCapError`` when the sub-multiset lattice exceeds
    ``LENGTH_SET_STATE_CAP``; every reported length carries an explicit
    factorization.
    """
    if seq.is_empty:
        raise ValueError("the empty sequence has no factorization lengths")
    lattice = _Lattice(ctx, seq, LENGTH_SET_STATE_CAP)
    reach = lattice.reach
    if not reach[lattice.full] & 1:
        raise ValueError("sequence is not product-one")
    lengths_at: dict[int, set[int]] = {}
    choice: dict[tuple[int, int], int] = {}
    atoms: list[tuple[int, list[int]]] = []
    for t in range(1, lattice.nstates):
        if not reach[t] & 1:
            continue
        digits = lattice.digits_of(t)
        found: set[int] = set()
        for a, atom_digits in atoms:
            rest = lengths_at.get(t - a)
            if rest is None or any(d > e for d, e in zip(atom_digits, digits)):
                continue
            for val in rest:
                if val + 1 not in found:
                    found.add(val + 1)
                    choice[(t, val + 1)] = a
        if not found:
            found = {1}
            choice[(t, 1)] = t
            atoms.append((t, digits))
        lengths_at[t] = found
    witnesses: dict[int, tuple[Sequence, ...]] = {}
    for ell in lengths_at[lattice.full]:
        factors = []
        t, val = lattice.full, ell
        while val:
            a = choice[(t, val)]
            factors.append(lattice.seq_of(a))
            t -= a
            val -= 1
        witnesses[ell] = tuple(factors)
    return LengthSetResult(frozenset(lengths_at[lattice.full]), _witnesses=witnesses)
