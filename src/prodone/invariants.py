"""Group-level invariants: Davenport constants, maximal atoms, elasticity.

``small_davenport`` pins the longest product-one-free length by exhaustive
DFS (the prune is sound: supersequences of a non-free sequence stay
non-free).  The walk carries the forbidden set D, the inverses of the sorted
products: a child g is live iff g is not in D, a child g extends D by
g^-1 * (D + {e}) (p row rotations, ``GroupCtx.left_shift_plan``), and its
own live children are the node's live set less that image, one mask that
reads only the image's rows from g's row on (one rotation in the last coset
row).  Sorted order puts the terms in <a> first, so a node is A.R with A
over <a> and R over the other cosets, and A.R is sorted-free iff A is
zero-sum-free, R is sorted-free and no subset sum of A cancels the
<a>-coordinate of a sorted product of R that lies in <a> (the split lemma,
proved at ``small_davenport``).  ``CosetTails`` walks every such R once
and tallies it by row 0 of its forbidden set, those coordinates negated; the
walk takes the count of a prefix A's tails from the tally whenever no record
check could run among them.
``extremal_atom`` realizes the long-atom shape

    y^[q-1] . x . y^[q-1] . x^(p-1) y^(s_eff^(p-1)+1)

for a generator pair (x, y); ``extremal_family`` builds them all as
(p - 1)/2 orbits under Aut, and ``verify_inverse_theorem`` checks by
stratified exhaustive search that these are the only atoms of length 2q.
The verifier depends only on the search and the sequence engine, never on
the statements it is checking, so the verification is not circular.  It
confirms the family's atoms once per Aut orbit, through maps that pass a
generator check; that an automorphism maps atoms to atoms holds in any group.

The elasticity section builds explicit common multisets with two
factorizations into atoms (witnesses re-checkable from scratch), plus the
closed-form calculator for the k-th elasticities and the lambda table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .enumeration import Stratum, StratumSpace, run_sharded
from .group import Element, GroupCtx, apply_automorphism, automorphisms
from .sequences import (
    ResourceCapError,
    Sequence,
    cat_all,
    classify,
    is_atom,
    length_set_bounded,
)

# -- small Davenport constant -------------------------------------------------


@dataclass
class SmallDavenportResult:
    """Exact maximum length of a product-one-free sequence, with certificate data.

    ``tabled`` and ``walked`` count the <a>-prefixes whose coset tails the
    walk took from the tally and walked (see ``small_davenport``); the
    payload leaves them out.
    """

    value: int
    extremal: Sequence
    nodes: int
    tabled: int = 0
    walked: int = 0

    def to_payload(self, ctx: GroupCtx) -> dict:
        return {
            "value": self.value,
            "extremal": self.extremal.format(ctx),
            "nodes": self.nodes,
            "refuted_length": self.value + 1,
        }


def _child_moves(ctx: GroupCtx):
    """The row moves of g^-1 * (D + {e}) for each term g, split at g's row.

    ``heads[g]`` moves into g's row and the later rows, which a child's live
    set reads; ``tails[g]`` are the other moves, which complete D'.  For g in
    the last row, ``turns[g]`` is the rotation of its one head move.
    """
    q, last = ctx.q, (ctx.p - 1) * ctx.q
    heads, tails, turns = [], [], [0] * ctx.n
    for g in range(ctx.n):
        plan = ctx.left_shift_plan(ctx.inv_table[g])
        start = g - g % q
        heads.append(tuple(move for move in plan if move[1] >= start))
        tails.append(tuple(move for move in plan if move[1] < start))
        if g >= last:
            ((_, _, turns[g]),) = heads[g]
    return heads, tails, turns


class CosetTails:
    """The sorted-free R over the cosets t^i<a>, i >= 1, tallied once per group.

    The walk is ``small_davenport``'s without record checks.  Each R counts
    under row 0 of its forbidden set D_R, the negated <a>-coordinates of its
    sorted products in <a>, as (number of such R, greatest length); the
    empty R counts under 0.  A leaf needs only that row: one rotation.
    ``entries`` holds the tally as (C_R, number, greatest length), the
    row negated back once per key, so R extends A iff C_R misses -Sigma*(A),
    row 0 of D_A + {e}.
    """

    def __init__(self, ctx: GroupCtx):
        n, p, q = ctx.n, ctx.p, ctx.q
        heads, tails, turns = _child_moves(ctx)
        last = (p - 1) * q
        penult = last - q
        row = (1 << q) - 1
        double = 1 | 1 << q
        into_row0 = {g: move for g in range(q, n) for move in tails[g] if move[1] == 0}
        found = {0: [1, 0]}  # row 0 of D_R -> [count, greatest length]

        def walk(live: int, forbidden: int, depth: int) -> None:
            closed = forbidden | 1
            doubled = (closed >> penult & row) * double
            depth += 1
            while live:
                low = live & -live
                g = low.bit_length() - 1
                if g >= last:
                    image = (doubled >> turns[g] & row) << last
                else:
                    image = 0
                    for src, dst, back in heads[g]:
                        image |= ((closed >> src & row) * double >> back & row) << dst
                kids = live & ~image
                if kids:
                    for src, dst, back in tails[g]:
                        image |= ((closed >> src & row) * double >> back & row) << dst
                    walk(kids, forbidden | image, depth)
                else:
                    src, _, back = into_row0[g]
                    image = (closed >> src & row) * double >> back
                entry = found.get((forbidden | image) & row)
                if entry is None:
                    found[(forbidden | image) & row] = [1, depth]
                else:
                    entry[0] += 1
                    if entry[1] < depth:
                        entry[1] = depth
                live ^= low

        walk(((1 << n) - 1) >> q << q, 0, 0)
        del walk  # the closure refers to itself: let ``found`` go with the tally
        self.entries = []
        while found:  # popped as the entries grow, so the tally is never held twice
            mask, (count, longest) = found.popitem()
            self.entries.append((sum(1 << -c % q for c in range(q) if mask >> c & 1), count, longest))

    @staticmethod
    def narrow(entries: list, zero_row: int) -> list:
        """The entries of the R that extend a zero-sum-free A whose D_A + {e} has row 0 ``zero_row``.

        ``entries`` must hold them all: the tally's for the empty A, else
        those of A's parent prefix.  The parent's row lies in A's, so only
        A's new subset sums drop an entry.
        """
        return [entry for entry in entries if not entry[0] & zero_row]

    @staticmethod
    def settle(entries: list) -> tuple[int, int]:
        """(number, greatest length) of the R of ``entries``, as ``narrow`` left them."""
        return sum(entry[1] for entry in entries), max(entry[2] for entry in entries)


def small_davenport(ctx: GroupCtx) -> SmallDavenportResult:
    """Exact maximum product-one-free length by DFS over nondecreasing sequences.

    The walk prunes a subtree as soon as some sub-multiset of the prefix
    multiplies to the identity in index-sorted order.  That test is sound but
    incomplete in a non-abelian group (a later term can also land in the
    middle of an ordering), so the walk may over-visit; it never skips a
    product-one-free multiset, because prefixes of sorted product-one-free
    sequences stay product-one-free.  Exactness comes from the second check:
    any node that would raise the record is confirmed product-one-free by the
    engine, and nodes that fail are cut (their extensions cannot be free
    either).  The returned value therefore refutes length value+1
    exhaustively.

    The walk keeps the forbidden set D = {x : x^-1 in P} of a node, where P
    is the set of its sorted products.  P never holds e (e would enter with a
    child that the first rule below kills), so neither does D:

    * a child g != e dies iff some h in P + {e} has h*g = e, i.e. iff
      g^-1 is in P, i.e. iff g is in D;
    * the child's products are P' = P + (P + {e})*g, so x^-1 is in P' iff x
      is in D or x = g^-1 * y for some y in D + {e}:
      D' = D + g^-1 * (D + {e});
    * the live children of a node whose last term is g0 are the bits of
      suffix(g0) & ~D (the terms >= g0 outside D), walked lowest bit first,
      which is the order of an index loop over the children;
    * so the live children of its child g are the live h >= g of the node
      with h not in g^-1 * (D + {e}), i.e. with g*h not in D + {e}: the mask
      kids = live & ~g^-1 * (D + {e}), where live holds g and the node's
      later live children.  A child at depth <= the record needs no record
      check, and it is a leaf iff kids = 0.  Leaves are counted without a
      call.

    g^-1 * (D + {e}) is the left multiplication of
    ``GroupCtx.left_shift_plan``: p row rotations, inlined here, each moving
    a whole row of q bits.  If g lies in row i (the coset t^i<a>), every
    h >= g lies in row i or later, so kids reads only the image's rows i to
    p-1: p - i rotations.  The other i, which complete D', run only for
    children that are walked.  In the last row, i = p-1, g^-1 has t-degree 1
    and moves row r to row r + 1, so the one rotation reads row p-2 of
    D + {e}.  That row is doubled once per node, and each last-row child
    rotates it with one shift and mask.

    Split lemma.  Row 0 is <a>, and (0, u) * (0, c) = (0, u + c).  Sorted
    order puts the terms of row 0 first, so a node is A.R: A is the terms in
    <a> \\ {e}, R the terms in the cosets t^i<a>, i >= 1.  Let Sigma*(A) be
    the subset sums of A, 0 included, and C_R the <a>-coordinates of the
    sorted products of R that lie in <a>.  Then A.R is sorted-free iff A is
    zero-sum-free, R is sorted-free and u + c != 0 mod q for all u in
    Sigma*(A) and c in C_R.  Proof: a sub-multiset of A.R is U.V with U in
    A and V in R, and its sorted product is (0, u) * pi(V) with u the sum of
    U, pi(V) the sorted product of V and pi of the empty V equal to e.  That
    is e iff pi(V) = (0, -u).  With V empty this says u = 0 for some U that
    is not empty; with U empty, pi(V) = e for some V that is not empty; with
    both not empty, u + c = 0 for some u in Sigma*(A) \\ {0} and c in C_R.
    The pairs with u = 0 and c in C_R add nothing, as 0 is not in C_R when
    R is sorted-free.

    So the sorted-free R that extend a zero-sum-free A, and with them their
    number and greatest length, depend on A only through Sigma*(A).
    ``CosetTails`` walks every sorted-free R once and tallies it by row 0 of
    D_R, which is -C_R, so R extends A iff that row misses Sigma*(A).  D_A
    holds the inverses (0, -u) of A's products, so Sigma*(A) is the negated
    row 0 of D_A + {e}; equally, R extends A iff C_R misses that row.  The
    number of extensions of A, the empty R included, and their greatest
    length h are a sum and a maximum over the tally entries whose C_R
    misses it.  Sigma*(A) only grows along a path of prefixes, so each
    prefix filters its parent's entries (``CosetTails.narrow``).

    The walk runs the prefixes A with their record checks.  The children of
    A run in index order, so its children in <a> and their subtrees come
    before its first coset child; from there, the rest of A's subtree is the
    A.R with R not empty, at depths d+1 to d+h for A at depth d.  Only a
    record check, which runs at depth > best_len, can cut a subtree short or
    change the record, and best_len never decreases.  So if d + h <=
    best_len, no node of those tails runs a check, and the walk would visit
    every one of them: the tally counts them (``tabled``).  Otherwise the
    walk visits them, checks and all (``walked``).  Walk order, record
    checks, node count, value and extremal are those of the walk over P
    with one right shift of P + {e} per child.
    """
    n, p, q = ctx.n, ctx.p, ctx.q
    heads, tails, turns = _child_moves(ctx)
    last = (p - 1) * q
    penult = last - q
    row = (1 << q) - 1
    double = 1 | 1 << q
    coset_tails = CosetTails(ctx)
    narrow, settle = coset_tails.narrow, coset_tails.settle
    best_len = 0
    best: list[int] = []
    nodes = tabled = walked = 0
    chosen: list[int] = []

    def extend(live: int, forbidden: int, entries: list | None) -> None:
        """Walk the subtree of the node ``chosen``; ``entries`` narrow the
        tally to its coset tails when it is an <a>-prefix, else are None."""
        nonlocal best_len, best, nodes, tabled, walked
        nodes += 1
        depth = len(chosen)
        if depth > best_len:
            if not classify(ctx, Sequence.from_indices(chosen)).product_one_free:
                return
            best_len = depth
            best = list(chosen)
        closed = forbidden | 1
        doubled = (closed >> penult & row) * double
        prefix = entries is not None
        while live:
            low = live & -live
            g = low.bit_length() - 1
            if prefix and g >= q:  # the first coset child of the prefix A
                prefix = False
                count, height = settle(entries)
                if depth + height <= best_len:
                    nodes += count - 1
                    tabled += 1
                    break
                walked += 1
            if g >= last:
                image = (doubled >> turns[g] & row) << last
            else:
                image = 0
                for src, dst, back in heads[g]:
                    image |= ((closed >> src & row) * double >> back & row) << dst
            kids = live & ~image
            if depth < best_len and not kids:
                nodes += 1
                live ^= low
                continue
            for src, dst, back in tails[g]:
                image |= ((closed >> src & row) * double >> back & row) << dst
            chosen.append(g)
            child = forbidden | image
            extend(kids, child, narrow(entries, (child | 1) & row) if prefix else None)
            chosen.pop()
            live ^= low

    extend((1 << n) - 2, 0, coset_tails.entries)
    del extend  # as in ``CosetTails``: let the tally go with the walk
    return SmallDavenportResult(
        value=best_len,
        extremal=Sequence.from_indices(best),
        nodes=nodes,
        tabled=tabled,
        walked=walked,
    )


# -- the extremal length-2q atoms ----------------------------------------------


@dataclass(frozen=True)
class ExtremalForm:
    """A realized maximal atom together with the generator pair producing it."""

    x: Element
    y: Element
    s_eff: int
    sequence: Sequence


def pair_residue(ctx: GroupCtx, x: Element, y: Element) -> int:
    """The unique t with y*x = x*y^t for a generator pair (x, y)."""
    z = ctx.mul(ctx.mul(ctx.inv(x), y), x)
    if z[0] != 0 or y[0] != 0:
        raise ValueError("not a generator pair: conjugate leaves <a>")
    return z[1] * pow(y[1], -1, ctx.q) % ctx.q


def extremal_atom(ctx: GroupCtx, x: Element, y: Element) -> ExtremalForm:
    """Build y^[q-1].x.y^[q-1].x^(p-1)y^(s_eff^(p-1)+1) for the pair (x, y)."""
    if ctx.order(x) != ctx.p or ctx.order(y) != ctx.q:
        raise ValueError(
            f"invalid generator pair: ord{x} = {ctx.order(x)}, ord{y} = {ctx.order(y)}"
        )
    s_eff = pair_residue(ctx, x, y)
    exponent = pow(s_eff, ctx.p - 1, ctx.q) + 1
    closer = ctx.mul(ctx.power(x, ctx.p - 1), ctx.power(y, exponent))
    seq = Sequence(
        [
            (ctx.idx(y), 2 * ctx.q - 2),
            (ctx.idx(x), 1),
            (ctx.idx(closer), 1),
        ]
    )
    assert len(seq) == 2 * ctx.q
    assert seq.count_in(ctx.outside_commutator_indices) == 2
    return ExtremalForm(x=x, y=y, s_eff=s_eff, sequence=seq)


def extremal_family(ctx: GroupCtx) -> dict[str, Sequence]:
    """The extremal family of ``ctx`` as member text -> orbit representative, built once per context.

    An automorphism maps the form of a pair (x, y) to that of its image.  The
    pairs (u, v) of ``automorphisms`` take ((d, 0), (0, 1)) to
    ((d, v*sigma_d), (0, u)), and sigma_d is a unit mod q, so
    ``extremal_atom(ctx, (d, 0), (0, 1))``, d = 1 .. p-1, reach every form.
    The closer of degree p - d forms the same sequence with y, so d and p - d
    share an orbit: the first of each is kept.  Its three distinct terms are
    mapped by ``apply_automorphism`` under every pair, and an orbit with
    fewer than |Aut| members raises.  The engine does not run here.
    """
    family = ctx._extremal_family
    if family is None:
        auts = automorphisms(ctx)
        family = {}
        for d in range(1, ctx.p):
            rep = extremal_atom(ctx, (d, 0), (0, 1)).sequence
            if rep.format(ctx) in family:
                continue
            orbit = {Sequence((apply_automorphism(ctx, u, v, idx), mult) for idx, mult in rep.entries)
                     .format(ctx) for u, v in auts}
            if len(orbit) != len(auts):
                raise AssertionError(
                    f"the orbit of {rep.format(ctx)} has {len(orbit)} members, not |Aut| = {len(auts)}"
                )
            family.update(dict.fromkeys(orbit, rep))
        ctx._extremal_family = family
    return family


def extremal_atoms_all(ctx: GroupCtx) -> list[ExtremalForm]:
    """The distinct realized forms of all generator pairs, sorted by sequence.

    A form takes the lower outer term of its sequence as x, as the first of
    its two generator pairs does, and s_eff = s^d for x of degree d.
    ``verify_inverse_theorem`` is verified only when its scan lists every
    form, and the scan confirms each atom it lists, so a form that is not an
    atom makes the verdict false.
    """
    forms = []
    for seq in sorted(Sequence.parse(ctx, text) for text in extremal_family(ctx)):
        (y, _), (x, _), _ = seq.entries
        forms.append(ExtremalForm(ctx.coords(x), ctx.coords(y), ctx.spow[x // ctx.q], seq))
    return forms


# -- stratified scans -----------------------------------------------------------


@dataclass
class StratumReport:
    k: int
    total: int
    counters: dict
    atoms: list[str]
    unverified: list[str]
    digest: str

    def to_payload(self) -> dict:
        return {
            "k": self.k,
            "total": self.total,
            "counters": self.counters,
            "atoms": self.atoms,
            "unverified": self.unverified,
            "digest": self.digest,
        }


@dataclass
class InverseReport:
    """Outcome of the stratified scan for atoms of the maximal length 2q.

    An exception here falsifies the run, not the mathematics: any atom that
    does not match a realized extremal multiset is listed for independent
    re-checking.
    """

    group: str
    length: int
    scope: str
    n_f: int
    strata: list[StratumReport]
    matched: int
    exceptions: list[str]
    seed: int = 0  # no scan reads a seed; the field keeps the payload's shape

    @property
    def atoms_found(self) -> int:
        return sum(len(rep.atoms) for rep in self.strata)

    @property
    def unverified_total(self) -> int:
        return sum(len(rep.unverified) for rep in self.strata)

    @property
    def verified(self) -> bool:
        if self.exceptions or self.unverified_total:
            return False
        for rep in self.strata:
            if rep.k == 2:
                if len(rep.atoms) != self.n_f:
                    return False
            elif rep.atoms:
                return False
        return True

    def to_payload(self) -> dict:
        return {
            "group": self.group,
            "length": self.length,
            "scope": self.scope,
            "n_f": self.n_f,
            "strata": [rep.to_payload() for rep in self.strata],
            "matched": self.matched,
            "exceptions": self.exceptions,
            "seed": self.seed,
            "atoms_found": self.atoms_found,
            "verified": self.verified,
        }


def scope_ks(scope: str, length: int) -> list[int]:
    """The k of every stratum that ``scope`` covers at ``length``."""
    if scope == "k_le_2":
        return [0, 1, 2]
    if scope == "full":
        return list(range(length + 1))
    raise ValueError(f"unknown scope {scope!r}")


def inverse_report(ctx: GroupCtx, scope: str, strata: list[StratumReport]) -> InverseReport:
    """The report on the scanned ``strata`` of length 2q: their atoms matched against
    the realized extremal set, every other atom listed as an exception."""
    family = extremal_family(ctx)
    matched = 0
    exceptions: list[str] = []
    for rep in strata:
        for text in rep.atoms:
            if text in family and rep.k == 2:
                matched += 1
            else:
                exceptions.append(text)
    return InverseReport(
        group=ctx.params.descriptor(),
        length=2 * ctx.q,
        scope=scope,
        n_f=len(family),
        strata=strata,
        matched=matched,
        exceptions=exceptions,
    )


def verify_inverse_theorem(
    ctx: GroupCtx,
    scope: str = "k_le_2",
    *,
    workers: int = 1,
    n_shards: int | None = None,
    checkpoint_dir: str | None = None,
) -> InverseReport:
    """Exhaustively match all length-2q atoms against the realized extremal set.

    ``k_le_2`` covers the strata with at most two terms outside the
    commutator subgroup; ``full`` covers every stratum (extended runtime).
    Each stratum is scanned by ``run_sharded`` in ``n_shards`` shards
    (default: one per worker), with one checkpoint directory per stratum
    under ``checkpoint_dir``; ``inverse_report`` then matches the atoms.
    """
    length = 2 * ctx.q
    strata: list[StratumReport] = []
    for k in scope_ks(scope, length):
        stratum = Stratum(length=length, k=k)
        stratum_dir = None
        if checkpoint_dir is not None:
            stratum_dir = os.path.join(checkpoint_dir, f"len{length}-k{k}")
            os.makedirs(stratum_dir, exist_ok=True)
        result = run_sharded(
            ctx, stratum,
            n_shards=n_shards if n_shards is not None else max(1, workers),
            workers=workers, checkpoint_dir=stratum_dir,
        )
        strata.append(
            StratumReport(
                k=k,
                total=StratumSpace(ctx, stratum).total,
                counters=result.counters.to_dict(),
                atoms=result.atom_texts,
                unverified=result.unverified_texts,
                digest=result.digest_hex,
            )
        )
    return inverse_report(ctx, scope, strata)


# -- elasticity witnesses ---------------------------------------------------------


@dataclass(frozen=True)
class ElasticityWitness:
    """A common multiset with two explicit factorizations into atoms."""

    product: Sequence
    factors_short: tuple[Sequence, ...]
    factors_long: tuple[Sequence, ...]

    @property
    def lengths(self) -> tuple[int, int]:
        return (len(self.factors_short), len(self.factors_long))

    def to_payload(self, ctx: GroupCtx) -> dict:
        return {
            "product": self.product.format(ctx),
            "factors_short": [f.format(ctx) for f in self.factors_short],
            "factors_long": [f.format(ctx) for f in self.factors_long],
            "lengths": list(self.lengths),
        }


def verify_elasticity_witness(ctx: GroupCtx, witness: ElasticityWitness) -> list[str]:
    """Re-verify a witness from scratch; returns a list of problems (empty = ok)."""
    problems = []
    if cat_all(witness.factors_short) != witness.product:
        problems.append("short factorization does not multiply to the product")
    if cat_all(witness.factors_long) != witness.product:
        problems.append("long factorization does not multiply to the product")
    for label, factors in (("short", witness.factors_short), ("long", witness.factors_long)):
        for f in factors:
            verdict = is_atom(ctx, f)
            if not verdict.atom:
                problems.append(f"{label} factor {f.format(ctx)} is not an atom")
    return problems


def _pair(ctx: GroupCtx, g: Element, h: Element) -> Sequence:
    return Sequence.from_elements(ctx, [g, h])


def build_rho_witness(ctx: GroupCtx, kind: str) -> ElasticityWitness:
    """Deterministic witnesses for the even/odd elasticity lower bounds.

    ``rho2``: S . S^(-1) factors as two maximal atoms and as 2q inverse
    pairs, so 2q lies in the union of sets of lengths containing 2.
    ``rho3``: three atoms of lengths (2q, 2q, 4) refactor into 2q+2 atoms of
    length two, so 2q+2 lies in the union containing 3.
    """
    x: Element = (1, 0)
    y: Element = (0, 1)
    q, p = ctx.q, ctx.p
    s_eff = pair_residue(ctx, x, y)
    sigma = pow(s_eff, p - 1, q)
    x_inv = ctx.inv(x)
    y_inv = ctx.inv(y)
    if kind == "rho2":
        base = extremal_atom(ctx, x, y).sequence
        mirrored = base.inverse(ctx)
        product = base.cat(mirrored)
        long_factors = tuple(
            Sequence([(idx, 1), (ctx.inv_table[idx], 1)]) for idx in base.indices()
        )
        witness = ElasticityWitness(product, (base, mirrored), long_factors)
    elif kind == "rho3":
        closer = ctx.mul(x_inv, ctx.power(y, sigma + 1))
        s1 = Sequence(
            [(ctx.idx(y), 2 * q - 2), (ctx.idx(x), 1), (ctx.idx(closer), 1)]
        )
        s2 = Sequence(
            [
                (ctx.idx(y_inv), 2 * q - 2),
                (ctx.idx(ctx.mul(x_inv, y_inv)), 1),
                (ctx.idx(ctx.mul(x, y_inv)), 1),
            ]
        )
        s3 = Sequence.from_elements(
            ctx,
            [
                x_inv,
                ctx.mul(x, ctx.power(y, (-s_eff - 1) % q)),
                ctx.mul(x, ctx.power(y, s_eff)),
                ctx.mul(x_inv, ctx.power(y, sigma)),
            ],
        )
        u1 = _pair(ctx, x, x_inv)
        u2 = _pair(ctx, closer, ctx.mul(x, ctx.power(y, (-s_eff - 1) % q)))
        u3 = _pair(ctx, ctx.mul(x_inv, y_inv), ctx.mul(x, ctx.power(y, s_eff)))
        u4 = _pair(ctx, ctx.mul(x_inv, ctx.power(y, sigma)), ctx.mul(x, y_inv))
        u5 = _pair(ctx, y, y_inv)
        product = cat_all([s1, s2, s3])
        long_factors = (u1, u2, u3, u4) + (u5,) * (2 * q - 2)
        witness = ElasticityWitness(product, (s1, s2, s3), long_factors)
    else:
        raise ValueError(f"unknown witness kind {kind!r}")
    problems = verify_elasticity_witness(ctx, witness)
    if problems:
        raise AssertionError("; ".join(problems))
    return witness


# -- elasticity calculator ---------------------------------------------------------


@dataclass(frozen=True)
class ElasticityTable:
    d_constant: int
    k: int
    rho_even: int
    rho_odd_bounds: tuple[int, int]
    rho_limit: int
    lambda_table: dict[int, tuple[int, int]]

    def to_payload(self) -> dict:
        return {
            "D": self.d_constant,
            "k": self.k,
            "rho_even": self.rho_even,
            "rho_odd_bounds": list(self.rho_odd_bounds),
            "rho_limit": self.rho_limit,
            "lambda_table": {str(n): list(v) for n, v in sorted(self.lambda_table.items())},
        }


def elasticity_calculator(d_constant: int, k: int) -> ElasticityTable:
    """Closed-form elasticities for a group with even maximal atom length D.

    rho_{2k} = k*D exactly; rho_{2k+1} is pinned to [k*D+2, k*D+D/2-1].
    The lambda table maps each n = l*D + j from 1 to 2D to its value (as a
    (lo, hi) range, collapsed when the bounds determine it): 2l for j = 0,
    2l+1 for j in [1, rho_{2l+1}-l*D], 2l+2 up to j = D-1.
    """
    if d_constant % 2 != 0 or d_constant < 4:
        raise ValueError(f"even D >= 4 required, got {d_constant}")
    if k < 1:
        raise ValueError(f"k >= 1 required, got {k}")
    d = d_constant
    rho_even = k * d
    rho_odd_bounds = (k * d + 2, k * d + d // 2 - 1)
    table: dict[int, tuple[int, int]] = {}
    for n in range(1, 2 * d + 1):
        ell, j = divmod(n, d)
        if j == 0:
            table[n] = (2 * ell, 2 * ell)
        elif ell == 0:
            # One atom refactors only as itself, so j = 1 gives 1.
            table[n] = (1, 1) if j == 1 else (2, 2)
        elif j <= 2:
            table[n] = (2 * ell + 1, 2 * ell + 1)
        elif j >= d // 2:
            table[n] = (2 * ell + 2, 2 * ell + 2)
        else:
            table[n] = (2 * ell + 1, 2 * ell + 2)
    return ElasticityTable(
        d_constant=d,
        k=k,
        rho_even=rho_even,
        rho_odd_bounds=rho_odd_bounds,
        rho_limit=d // 2,
        lambda_table=table,
    )


# -- bounded unions of sets of lengths ----------------------------------------------


def atoms_ladder(ctx: GroupCtx) -> dict[int, Sequence]:
    """One verified atom of every length from 2 to 2q.

    Lengths up to q use constant-power atoms inside <a>; longer lengths use
    y^[l-2].x.(x^-1 y^c) with the closing exponent found by direct search.
    """
    q = ctx.q
    y_idx = 1
    x: Element = (1, 0)
    x_idx = ctx.idx(x)
    x_inv = ctx.inv(x)
    ladder: dict[int, Sequence] = {}
    for ell in range(2, q + 1):
        seq = Sequence([(y_idx, ell - 1), (q - ell + 1, 1)])
        if is_atom(ctx, seq).atom:
            ladder[ell] = seq
    for ell in range(q + 1, 2 * q + 1):
        for c in range(q):
            closer = ctx.mul(x_inv, (0, c))
            seq = Sequence([(y_idx, ell - 2), (x_idx, 1), (ctx.idx(closer), 1)])
            if is_atom(ctx, seq).atom:
                ladder[ell] = seq
                break
    missing = [ell for ell in range(2, 2 * q + 1) if ell not in ladder]
    if missing:
        raise AssertionError(f"no ladder atom found for lengths {missing}")
    return ladder


def default_atom_pool(ctx: GroupCtx) -> list[Sequence]:
    pool: set[Sequence] = set()
    for seq in atoms_ladder(ctx).values():
        pool.add(seq)
        pool.add(seq.inverse(ctx))
    rho3 = build_rho_witness(ctx, "rho3")
    pool.update(rho3.factors_short)
    pool.update(rho3.factors_long)
    return sorted(pool, key=lambda s: (len(s), s.entries))


@dataclass
class UkResult:
    """A certified subset of the union of sets of lengths containing k.

    Always a lower approximation: every reported length carries an explicit
    two-sided witness, and no claim of completeness is made.
    """

    k: int
    values: frozenset[int]
    witnesses: dict[int, ElasticityWitness]
    complete: bool
    budget_exhausted: bool


def uk_bounded(ctx: GroupCtx, k: int, *, max_products: int = 64) -> UkResult:
    """Witnessed lengths realizable alongside a factorization into k atoms.

    Products of k pool atoms are expanded through the exact length-set DP
    while the budget lasts; mirrored products A . A^(-1) (padded with inverse
    pairs) are tried first since they realize the extreme refactorizations.
    A product whose lattice exceeds the DP's state cap is skipped and sets
    ``budget_exhausted``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        base = extremal_atom(ctx, (1, 0), (0, 1)).sequence
        witness = ElasticityWitness(base, (base,), (base,))
        return UkResult(1, frozenset({1}), {1: witness}, complete=False, budget_exhausted=False)
    pool = default_atom_pool(ctx)
    pair = Sequence([(ctx.idx((1, 0)), 1), (ctx.inv_table[ctx.idx((1, 0))], 1)])
    products: list[tuple[Sequence, ...]] = []
    for atom in pool:
        factors = (atom, atom.inverse(ctx)) + (pair,) * (k - 2)
        products.append(factors)
    if k == 3:
        rho3 = build_rho_witness(ctx, "rho3")
        products.insert(0, rho3.factors_short)
    import itertools

    extra = itertools.combinations_with_replacement(pool, k)
    values: set[int] = set()
    witnesses: dict[int, ElasticityWitness] = {}
    budget_exhausted = False
    used = 0
    for factors in itertools.chain(products, extra):
        if used >= max_products:
            budget_exhausted = True
            break
        used += 1
        product = cat_all(factors)
        try:
            result = length_set_bounded(ctx, product)
        except ResourceCapError:
            budget_exhausted = True
            continue
        for ell in result.lengths:
            if ell in witnesses:
                continue
            witnesses[ell] = ElasticityWitness(product, tuple(factors), result.factorization(ell))
            values.add(ell)
    return UkResult(
        k=k,
        values=frozenset(values),
        witnesses=witnesses,
        complete=False,
        budget_exhausted=budget_exhausted,
    )

