"""Stratified exhaustive enumeration with sound filters, shards, and checkpoints.

A stratum is the family of multisets of a fixed length with a prescribed
number k of terms outside the commutator subgroup.  Candidates are visited in
lexicographic order of their sorted content via multiset ranking/unranking,
so a stratum splits into contiguous rank intervals (shards) that different
workers can process independently and deterministically.

Only provably sound hard filters are applied while hunting atoms:

* the identity term is excluded for lengths >= 2 (an identity term splits off
  as its own product-one factor), and
* the sum of t-degrees must vanish mod p (every ordered product of a sequence
  lies in the commutator coset fixed by that sum).

Membership-style prunes that depend on future extensions are deliberately
not used; minimality is not antitone under extension.

Per candidate the checker takes one exact route, chosen by the number k of
terms outside the commutator subgroup <a>; ``SearchCounters.by_method``
counts candidates per route:

* ``abelian`` (k = 0): all terms commute, so a candidate is product-one iff
  its exponent sum vanishes mod q, and then an atom iff the terms after the
  first have no nonempty sub-multiset summing to zero (one q-bit mask of
  subset sums; the proof is in ``_abelian_verdict``);
* ``outer_pair`` (k = 2): the closed form below, two bit tests against a
  profile of the <a>-part;
* ``degree`` (any other k): a t-degree sum that is nonzero mod p makes the
  candidate not product-one (fact 1 below), so neither of the next two
  routes runs; only a scan with a nonzero or no residue meets such a
  candidate, since the filter at residue 0 drops it;
* ``ordering`` / ``dp`` (any other k): 64 random orderings whose split
  witnesses are self-certifying, then the engine DP as the decision
  procedure for whatever survives.  The orderings are drawn from a
  stream keyed by the group and the content alone, so a candidate takes the
  same route in every scan, whatever the shard plan; the verdict never
  depends on the route.

Atom verdicts of the abelian and outer-pair routes are confirmed by the
engine, which attaches the ``AtomVerdict``; an atom of either route that the
engine rejects raises instead of being returned.  The atoms of the extremal
family, of length 2q with two outer terms, are confirmed once per orbit:

* the family is the union of (p - 1)/2 orbits under Aut, each expanded from
  a representative R, term by term (``invariants.extremal_family``, a map
  from each member's text to its R);
* each pair (u, v) of ``group.automorphisms`` passes a generator check that
  makes the closed form ``group.apply_automorphism`` an automorphism phi;
* phi maps the product-one orderings of a sequence, and its splits into two
  product-one parts, to those of the image, and phi^-1 maps them back, so
  phi(R) is an atom iff R is.

So a member of R's orbit, found by its text, takes the engine's verdict on
R, and a scan runs the engine once per orbit it meets (``_confirm_atom``).
A representative that the engine rejects, or caps, confirms nothing: its
orbit's members go to the engine one by one.

The outer-pair closed form.  Elements are (i, j) = t^i a^j with
(i1, j1)(i2, j2) = (i1 + i2, j1 s^i2 + j2).  Write a candidate as
S = Y . x1 . x2, where Y holds the terms (0, y) of <a>, x1 = (d1, j1) and
x2 = (d2, j2) with d1, d2 nonzero mod p, and let ΣB be the exponent sum mod
q of a sub-multiset B of Y.

1. Degree.  Every ordered product of a multiset T has first coordinate the
   sum of the t-degrees of T, mod p.  Since d1 and d2 are nonzero, a
   product-one T holds both outer terms or neither.  If d1 + d2 is nonzero
   mod p, S is not product-one (with the t-degree filter on, such candidates
   never reach the classifier).
2. Orderings.  Let d1 + d2 = 0 mod p, so s^d1 s^d2 = 1, and let T = Y_T.x1.x2
   with Y_T a sub-multiset of Y.  A product g.h is the identity iff h.g is,
   so T has a product-one ordering iff it has one that starts with x1:
   rotate any product-one ordering until x1 comes first.  Such an ordering
   is x1 B1 x2 B2 for a partition B1, B2 of Y_T; terms of <a> commute, so
   only the block sums matter, and multiplying out gives

       x1 B1 x2 B2 = (0, ΣY_T + (s^d2 - 1) ΣB1 + j1 s^d2 + j2).

   s has order p and d2 is nonzero mod p, so s^d2 - 1 is a unit mod q and
   this ordering is product-one iff ΣB1 = c with
   c = -(ΣY_T + j1 s^d2 + j2) / (s^d2 - 1).  B1 may be any sub-multiset of
   Y_T, so T is product-one iff c is a subset sum of Y_T.
3. Splits.  S is not an atom iff S = T.Z with T and Z nonempty and both
   product-one (such an S is product-one: concatenate the two orderings).
   By 1, one part, say T, holds both outer terms, so Z lies in <a> and is
   product-one iff ΣZ = 0.  Then ΣY_T = ΣY - ΣZ = ΣY: c is the same for
   every such T as for S itself (T = S, Z empty).  By 2, with B and Z
   ranging over sub-multisets of Y,

       S is product-one  iff  c lies in P = {ΣB : B in Y},
       S is a non-atom   iff  c lies in R = {ΣB : B, Z in Y disjoint,
                                             Z nonempty, ΣZ = 0}.

   R is contained in P, so the verdict is ``not_product_one`` when c is not
   in P, ``non_atom`` when c is in R, and ``atom`` otherwise.
4. Cost.  The profile (ΣY mod q, P, R) depends on q and the sorted Y alone,
   and ``_profile_step`` extends it by one term: each term of Y goes to B,
   to Z or to neither.  The step keeps every mask split[z] = {ΣB : ΣZ = z,
   Z nonempty} (R is split[0]), packed as q lanes of q bits in one integer,
   so rotating every lane by the term and moving each lane to lane z + y
   are a few big-int shifts and masks, whatever q.  A candidate then costs
   two bit tests; neither the ordering search nor the DP runs.

The scan.  A rank of a stratum with fixed k is y_rank * x_count + x_rank,
where y_rank ranks the <a>-part Y and x_rank the outer part X, so the outer
part varies fastest.  ``StratumSpace.iter_blocks`` cuts a rank range into
blocks, one Y with a slice [x_lo, x_hi) of outer ranks each, and
``iter_range`` is a loop over those blocks.  For k = 2 ``atom_search``
settles the <a>-parts by the lemma of fact 9 or walks the tree of their
sorted prefixes (fact 8) instead.  Fact 5 serves every scan, fact 6 the
k = 2 scan:

5. The filter reads the outer part alone.  A term (0, y) of <a> has t-degree
   0, so the t-degree sum of S = Y.X is that of X, and S passes the filter
   iff X does.  Let F be the set of the outer ranks that pass and
   f = x_count - |F|.  The ranks below r = y.x_count + x that fail the
   filter number y.f + x - #{F < x}.  ``filtered_count`` reads |F| and
   #{F < x} off a table of the outer parts counted by length, first ground
   position and t-degree residue (``_degree_counts``), walking the unranked
   outer part of x as ``rank_multiset`` does (``_count_below``), so it
   counts the failures of any rank range at every k, and no filtered
   candidate is built.  The k = 2 scan lists F (``StratumSpace.outer_table``,
   one filter test for each of the x_count outer pairs, at most
   C(n - q + 1, 2), once per group and outer shape).  With k = 1 the one
   outer term has nonzero degree, so by fact 1 no candidate is product-one:
   the passing ranks of a range are counted as ``not_product_one`` under
   the ``degree`` route, and none is built.
6. For k = 2 the target reads the pair and ΣY alone.  By 2, the verdict of
   S = Y.x1.x2 compares the bit 1 << c with the profile of Y, and c depends
   on x1, x2 and ΣY mod q only (``_pair_target``).  When d1 + d2 is
   nonzero mod p the bit is 0, no mask holds it, and the verdict is
   ``not_product_one``, as 1 requires.
   So a Y settles its passing pairs from its one profile: it takes their
   target bits from the row for its ΣY value and applies the same two bit
   tests as ``classify_candidate``.  ``StratumSpace.outer_table`` builds
   the row for a ΣY value when the prefix walk (fact 8) first asks for it
   and keeps it with F; the lemma of fact 9 asks for none.  Non-atoms and
   candidates that are not product-one are only counted; an atom is built
   and confirmed by the engine, in rank order.

Two cuts settle whole rank ranges by arithmetic, with no per-candidate work;
the prefix walk and a lemma carry the first across whole subtrees:

7. Cut A, a full split mask.  If R is all of Z_q, then so is P (R lies in
   P), and a pair's verdict reads whether its target bit is 0: a nonzero
   bit lies in R, so the pair is a non-atom, and a zero bit lies in no mask,
   so it is ``not_product_one``.  The bit is 0 exactly when d1 + d2 is
   nonzero mod p (fact 6), which the pair's degrees alone decide and ΣY
   does not, so ``StratumSpace.outer_table`` keeps zeros[i], the passing
   pairs among the first i whose degrees do not cancel, read off the
   degrees with no target computed.  Over the ranks below
   r = y.x_count + x, with i = #{F < x}, the passing pairs number
   y.|F| + i and those with a zero target y.zeros[|F|] + zeros[i], so two
   such counts settle any rank range whose every Y has a full R.
8. The prefix walk (k = 2).  Two facts let cut A settle a subtree at once:
   * R only grows: if Y is a sub-multiset of Y', then R(Y) lies in R(Y'),
     since a pair B, Z of Y is one of Y'.  So a sorted prefix of Y whose R
     is full has a full R in every completion.
   * Lex prefixes are rank intervals: the sorted <a>-parts that begin with
     a given prefix are consecutive in lex order.  Over m ground values and
     |Y| terms, the child that puts ground position v at index i of the
     prefix covers multiset_count(m - v, |Y| - i - 1) consecutive y-ranks,
     and the children of a node follow each other in v.
   ``_Scan.walk`` goes depth first through the prefixes, each node holding
   its prefix's profile.  A child whose ranks miss the scanned range is
   skipped unbuilt; a child with a full R is settled by cut A over the part
   of its interval in the range, however little of it that is; a full-length
   Y with R not full has its pairs settled as in 6, from the target row of
   its ΣY; any other child is walked.  At 3,7,2 the walk of the whole k = 2
   stratum of length 13 builds 1,898 prefix profiles and reaches the pair
   loop with 12 of 4,368 <a>-parts.  It serves the strata where fact 9 does not hold.
9. The lemma (k = 2, no identity term, |Y| >= 2q - 2).  Let Y be a sequence
   over Z_q without 0, with |Y| >= 2q - 2.  Then R is all of Z_q unless Y
   is a constant y^(2q - 2).
   * Y not constant.  Take q terms of Y, two of them distinct.  They hold a
     nonempty Z with ΣZ = 0, since D(C_q) = q, and a minimal such Z has
     |Z| <= q - 1: a minimal zero-sum sequence of length q over C_q is a
     constant g^q.  So Y without Z keeps at least q - 1 terms, all nonzero,
     and by the Cauchy-Davenport theorem (q is prime) the sums of their
     sub-multisets B, the empty one included, cover Z_q.  Each lies in R.
   * Y = y^m.  y is a unit, so ΣZ = 0 makes Z = y^(jq) with j >= 1, and
     R = {0, y, .., (m - q).y}.  This is all of Z_q iff m >= 2q - 1.
   So when the identity is not in the ground set and |Y| >= 2q - 2, the
   scan cuts [lo, hi) at the blocks of the q - 1 constant parts y^(2q - 2)
   (none when |Y| > 2q - 2), whose y-ranks are one ``rank_multiset`` call
   each.  Cut A's two prefix counts settle each gap between them.  A
   constant block's atoms are listed directly, with no profile and no
   target row:
   * For Y = y^(2q - 2), R = {0, y, .., (q - 2).y} misses exactly
     (q - 1).y = -y, and P = {0, y, .., (2q - 2).y} is all of Z_q.  So a
     passing pair is not product-one iff its degrees do not cancel, an atom
     iff its target c is -y, and a non-atom otherwise.
   * Let d1 + d2 = 0 mod p.  With ΣY = -2y, c = -y reads
     j2 = y.(1 + s^d2) - j1.s^d2 mod q by 2, since the unit s^d2 - 1
     cancels: one j2 for each x1 and d2.  An outer pair is sorted, x1 <= x2,
     so d1 <= d2, and d1 + d2 = p with p odd gives d1 < p/2 < d2 = p - d1.
     So the atoms are the pairs of x1 = (d1, j1), d1 = 1 .. (p - 1)/2 and
     j1 in Z_q, with their one partner x2 = (p - d1, j2): q(p - 1)/2 atoms
     per y, and q(q - 1)(p - 1)/2 = n_f in all.
   The scan lists the partners whose outer rank lies in the range, in rank
   order after a sort, and counts the block's other passing pairs with cut
   A's prefix counts: those whose degrees do not cancel are not
   product-one, the rest non-atoms.  At 3,7,2 the length-14 stratum builds
   no profile and no target row; the walk would build 1,934 profiles.
   Below 2q - 2 terms many non-constant parts have R not full, and terms 0
   add no sums (0^(2q - 2) has R = {0}), so those strata are walked.
10. Cut D, k = 0 and length above q.  A product-one S over the cyclic <a>
    with more than q terms is never an atom: S without its first term has
    at least q terms y_1 .. y_m, and two of the m + 1 prefix sums y_1 + ... +
    y_i (i = 0 .. m) agree mod q by pigeonhole, so a nonempty block of them
    sums to 0.  It misses the first term, and its complement sums to 0 as
    well, so S splits into two product-one parts.  So the verdicts of a
    rank range are counts of multisets by their sum mod q: those with sum 0
    are non-atoms and the others are not product-one.
    ``StratumSpace.zero_sum_count`` reads them off the same table and rank
    walk as ``filtered_count`` (``_count_below``, with exponents for
    degrees), and the scan credits them to ``abelian``.

The other strata, k = 0 up to length q, k >= 3 and k = None, are scanned
one candidate at a time (``StratumSpace.one_at_a_time``): each is built,
skipped when it fails the filter and classified by ``classify_candidate``;
fact 5 counts the skipped ones in every stratum.
Counters are sums over ranks and the atom and unverified lists grow in rank
order, so the state after a range does not depend on how the range was cut
up.  With a checkpoint, ``atom_search`` cuts a one-at-a-time scan into
slices of ``_CHECKPOINT_EVERY`` ranks and writes a record after each, at the
ranks where a loop over single candidates would; a counted or walked scan
settles its range in one pass and writes one record, where the call stops.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from math import comb
from random import Random
from typing import Iterator

from .group import GroupCtx, GroupParamError
from .sequences import AtomVerdict, ResourceCapError, Sequence, is_atom

_DIGEST_MOD = 1 << 256


# -- multiset ranking ----------------------------------------------------


def multiset_count(n: int, k: int) -> int:
    """Number of size-k multisets over an n-element ground set."""
    if k == 0:
        return 1
    if n == 0:
        return 0
    return comb(n + k - 1, k)


def rank_multiset(t: tuple[int, ...], n: int) -> int:
    """Lexicographic rank of a nondecreasing position tuple over [0, n)."""
    k = len(t)
    r = 0
    lo = 0
    for i, v in enumerate(t):
        rem = k - i - 1
        r += comb(n - lo + rem, rem + 1) - comb(n - v + rem, rem + 1)
        lo = v
    return r


def unrank_multiset(rank: int, n: int, k: int) -> tuple[int, ...]:
    out = []
    lo = 0
    for i in range(k):
        rem = k - i - 1
        v = lo
        while True:
            cnt = comb(n - v + rem - 1, rem)
            if rank < cnt:
                break
            rank -= cnt
            v += 1
        out.append(v)
        lo = v
    return tuple(out)


def next_multiset(t: list[int], n: int) -> bool:
    """Advance a nondecreasing position list to its lex successor in place."""
    k = len(t)
    for i in range(k - 1, -1, -1):
        if t[i] < n - 1:
            v = t[i] + 1
            for j in range(i, k):
                t[j] = v
            return True
    return False


# -- strata ---------------------------------------------------------------


@dataclass(frozen=True)
class Stratum:
    """Multisets of ``length`` terms, ``k`` of them outside the commutator subgroup.

    ``k=None`` leaves the split unconstrained.  ``tau_residue`` is the required
    t-degree sum mod p (``None`` disables the filter); ``exclude_identity``
    removes the identity from the ground set.
    """

    length: int
    k: int | None = None
    exclude_identity: bool = True
    tau_residue: int | None = 0

    def describe(self) -> dict:
        return {
            "length": self.length,
            "k": self.k,
            "exclude_identity": self.exclude_identity,
            "tau_residue": self.tau_residue,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Stratum":
        """The stratum ``describe`` gave; a field of another JSON type raises ValueError."""
        stratum = cls(
            length=data["length"],
            k=data.get("k"),
            exclude_identity=data.get("exclude_identity", True),
            tau_residue=data.get("tau_residue", 0),
        )
        if not (type(stratum.length) is int and type(stratum.exclude_identity) is bool
                and all(v is None or type(v) is int for v in (stratum.k, stratum.tau_residue))):
            raise ValueError(f"stratum fields of the wrong type: {data!r}")
        return stratum


# (F, its outer pairs, k = 2 zero-target prefix counts, k = 2 target rows by ΣY);
# see ``StratumSpace.outer_table``
_OuterTable = tuple[list[int], list[tuple[int, ...]], list[int], dict[int, list[int]]]


class StratumSpace:
    """A stratum resolved against a group: ground sets, size, rank access.

    A rank splits as ``y_rank * x_count + x_rank``: ``y_rank`` ranks the
    <a>-part Y (``y_size`` terms over ``y_ground``) and ``x_rank`` the outer
    part (``x_size`` terms over ``x_ground``), so the outer part varies
    fastest.  With ``k=None`` nothing is split off: Y is empty and the outer
    part is the whole content over the full ground set.
    """

    def __init__(self, ctx: GroupCtx, stratum: Stratum):
        self.ctx = ctx
        self.stratum = stratum
        q, n = ctx.q, ctx.n
        start = 1 if stratum.exclude_identity else 0
        k = stratum.k
        valid = k is None or 0 <= k <= stratum.length
        if k is None:
            self.y_ground, self.y_size = [], 0
            self.x_ground, self.x_size = list(range(start, n)), stratum.length
        elif valid:
            self.y_ground, self.y_size = list(range(start, q)), stratum.length - k
            self.x_ground, self.x_size = list(range(q, n)), k
        else:
            self.y_ground, self.y_size, self.x_ground, self.x_size = [], 0, [], 0
        self.y_count = multiset_count(len(self.y_ground), self.y_size) if valid else 0
        self.x_count = multiset_count(len(self.x_ground), self.x_size)
        self.total = self.y_count * self.x_count

    def candidate_at(self, rank: int) -> tuple[int, ...]:
        y_rank, x_rank = divmod(rank, self.x_count)
        ypos = unrank_multiset(y_rank, len(self.y_ground), self.y_size)
        xpos = unrank_multiset(x_rank, len(self.x_ground), self.x_size)
        return tuple(self.y_ground[i] for i in ypos) + tuple(self.x_ground[i] for i in xpos)

    def iter_blocks(self, lo: int, hi: int) -> Iterator[tuple[int, tuple[int, ...], int, int]]:
        """Split ranks [lo, hi) into blocks with one <a>-part each, in rank order.

        Yields ``(rank, inner, x_lo, x_hi)``: the ranks ``rank .. rank +
        x_hi - x_lo - 1`` are the contents ``inner + outer`` with ``inner``
        the sorted <a>-part and ``outer`` running over the outer parts of
        ranks ``[x_lo, x_hi)``.
        """
        if lo >= hi:
            return
        y_ground, x_count = self.y_ground, self.x_count
        y_rank, x_lo = divmod(lo, x_count)
        ypos = list(unrank_multiset(y_rank, len(y_ground), self.y_size))
        rank = lo
        while True:
            x_hi = min(x_count, x_lo + hi - rank)
            yield rank, tuple(y_ground[i] for i in ypos), x_lo, x_hi
            rank += x_hi - x_lo
            if rank >= hi:
                return
            next_multiset(ypos, len(y_ground))
            x_lo = 0

    def iter_range(self, lo: int, hi: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Yield (rank, content) for ranks in [lo, hi) in lex order."""
        x_ground, x_size = self.x_ground, self.x_size
        for first, inner, x_lo, x_hi in self.iter_blocks(lo, hi):
            xpos = list(unrank_multiset(x_lo, len(x_ground), x_size))
            for rank in range(first, first + x_hi - x_lo):
                yield rank, inner + tuple(x_ground[i] for i in xpos)
                next_multiset(xpos, len(x_ground))

    @property
    def one_at_a_time(self) -> bool:
        """Whether the scan builds and classifies each candidate: k = None, k >= 3, or k = 0 up to length q.

        The other strata (k = 1, k = 2, and k = 0 above length q) are
        counted or walked; see the module docstring.
        """
        k = self.stratum.k
        return k is None or k >= 3 or k == 0 and self.stratum.length <= self.ctx.q

    def passes_filters(self, content: tuple[int, ...]) -> bool:
        residue = self.stratum.tau_residue
        if residue is None:
            return True
        q = self.ctx.q
        degree = 0
        for idx in content:
            degree += idx // q
        return degree % self.ctx.p == residue

    @property
    def outer_table(self) -> _OuterTable:
        """(F, the passing outer pairs, zeros, target rows) of a k = 2 stratum.

        Terms of <a> have t-degree 0, so with a fixed k the t-degree filter
        reads the outer part alone (fact 5 of the module docstring).  F lists
        the passing outer ranks in rank order; zeros[i] counts the pairs
        among the first i passing ones whose degrees do not cancel, whose
        target is 0 in every row (fact 7).  Row ΣY lists the ``_pair_target``
        bit of each passing pair (fact 6); the prefix walk adds a row when it
        first asks for it, and the lemma of fact 9 asks for none.  The table
        depends on the group and the outer ground, size and residue alone, so
        it is built once per such shape and kept in ``_OUTER_TABLES``.
        """
        key = (self.ctx.params, tuple(self.x_ground), self.x_size, self.stratum.tau_residue)
        table = _OUTER_TABLES.get(key)
        if table is None:
            p, q = self.ctx.p, self.ctx.q
            outer = combinations_with_replacement(self.x_ground, self.x_size)
            passing = [(x, part) for x, part in enumerate(outer) if self.passes_filters(part)]
            zeros = list(accumulate((sum(i // q for i in part) % p != 0 for _, part in passing), initial=0))
            table = _OUTER_TABLES[key] = ([x for x, _ in passing], [part for _, part in passing], zeros, {})
        return table

    def filtered_count(self, lo: int, hi: int) -> int:
        """Ranks in [lo, hi) whose content fails the t-degree filter (fact 5 of the module docstring)."""
        residue = self.stratum.tau_residue
        if residue is None:
            return 0
        p, q, x_count = self.ctx.p, self.ctx.q, self.x_count
        degrees = tuple(idx // q for idx in self.x_ground)
        failing_per_block = x_count - _count_below(degrees, self.x_size, p, residue, x_count)

        def failing_below(rank: int) -> int:
            y_rank, x_rank = divmod(rank, x_count)
            passing = _count_below(degrees, self.x_size, p, residue, x_rank)
            return y_rank * failing_per_block + x_rank - passing

        return failing_below(hi) - failing_below(lo)

    def zero_sum_count(self, lo: int, hi: int) -> int:
        """Ranks in [lo, hi) of a k = 0 stratum whose terms sum to 0 mod q (fact 10 of the module docstring)."""
        values, size = tuple(self.y_ground), self.y_size
        return (_count_below(values, size, self.ctx.q, 0, hi)
                - _count_below(values, size, self.ctx.q, 0, lo))


_OUTER_TABLES: dict[tuple, _OuterTable] = {}


@lru_cache(maxsize=16)
def _degree_counts(degrees: tuple[int, ...], size: int, p: int) -> list[list[list[int]]]:
    """counts[r][i][d]: the nondecreasing r-tuples over ground positions [i, m) with t-degree sum d mod p.

    ``degrees`` lists the t-degree of each of the m ground positions.  A tuple
    either starts at position i or lies in [i + 1, m), which gives the
    recurrence; unrolled, counts[r + 1][i][d] sums counts[r][u][d - degrees[u]]
    over u >= i, the tuples whose first term is u.
    """
    m = len(degrees)
    counts = [[[int(d == 0) for d in range(p)] for _ in range(m + 1)]]
    for r in range(1, size + 1):
        row = [[0] * p for _ in range(m + 1)]
        for i in range(m - 1, -1, -1):
            below, here, deg = row[i + 1], counts[r - 1][i], degrees[i]
            row[i] = [below[d] + here[(d - deg) % p] for d in range(p)]
        counts.append(row)
    return counts


def _count_below(values: tuple[int, ...], size: int, modulus: int, residue: int, rank: int) -> int:
    """Nondecreasing size-tuples over the positions of ``values`` with rank below ``rank`` and sum ``residue``.

    The sum is of ``values`` at the tuple's positions, mod ``modulus``.  The
    walk over the unranked tuple of ``rank`` (``rank`` may be the count of
    all tuples) adds, at each position i, the tuples that agree before i and
    hold a smaller term there, read off ``_degree_counts``.
    """
    counts = _degree_counts(values, size, modulus)
    if rank == multiset_count(len(values), size):
        return counts[size][0][residue]
    below, need, first = 0, residue, 0
    for i, v in enumerate(unrank_multiset(rank, len(values), size)):
        below += counts[size - i][first][need] - counts[size - i][v][need]
        need, first = (need - values[v]) % modulus, v
    return below


# -- shards ----------------------------------------------------------------


@dataclass(frozen=True)
class Shard:
    index: int
    n_shards: int
    start_rank: int
    end_rank: int

    def describe(self) -> dict:
        return {
            "index": self.index,
            "n_shards": self.n_shards,
            "start_rank": self.start_rank,
            "end_rank": self.end_rank,
        }


def shard_at(total: int, n: int, index: int) -> Shard:
    """Shard ``index`` of ``n`` disjoint covering rank intervals; the first ``total % n`` hold one rank more."""
    if not 0 <= index < n:
        raise ValueError(f"shard index must be in [0, {n}), got {index}")
    base, extra = divmod(total, n)
    start = index * base + min(index, extra)
    return Shard(index=index, n_shards=n, start_rank=start, end_rank=start + base + (index < extra))


def make_shards(total: int, n: int) -> list[Shard]:
    """All ``n`` shards of ``shard_at`` in rank order: sizes within one of each other."""
    if n < 1:
        raise ValueError("shard count must be >= 1")
    return [shard_at(total, n, index) for index in range(n)]


# -- digests ----------------------------------------------------------------


def digest_empty() -> int:
    return 0


def digest_add(digest: int, text: str) -> int:
    h = int.from_bytes(hashlib.sha256(text.encode()).digest(), "big")
    return (digest + h) % _DIGEST_MOD


def digest_merge(a: int, b: int) -> int:
    return (a + b) % _DIGEST_MOD


def digest_hex(digest: int) -> str:
    return f"{digest:064x}"


# -- candidate classification ------------------------------------------------


@dataclass
class SearchCounters:
    visited: int = 0
    filtered_out: int = 0
    checked: int = 0
    atoms: int = 0
    non_atoms: int = 0
    not_product_one: int = 0
    unverified: int = 0
    by_method: dict[str, int] = field(default_factory=dict)

    def note_method(self, method: str, count: int = 1) -> None:
        self.by_method[method] = self.by_method.get(method, 0) + count

    def merge(self, other: "SearchCounters") -> None:
        for name in COUNTER_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for key, val in other.by_method.items():
            self.by_method[key] = self.by_method.get(key, 0) + val

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in COUNTER_NAMES}
        out["by_method"] = dict(sorted(self.by_method.items()))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SearchCounters":
        return cls(**{name: data[name] for name in COUNTER_NAMES},
                   by_method=dict(data.get("by_method", {})))


#: The verdict counters of ``SearchCounters``, in field order: every field but ``by_method``.
COUNTER_NAMES = tuple(f.name for f in fields(SearchCounters) if f.name != "by_method")


def _abelian_verdict(ctx: GroupCtx, content: tuple[int, ...]) -> str:
    """Exact verdict for candidates supported inside the commutator subgroup.

    All terms commute, so S is product-one iff ΣS = 0 mod q.  Let ΣS = 0.  S
    is a non-atom iff some nonempty proper Z has ΣZ = 0; the complement of Z
    then sums to 0 as well, and one of the two misses the first term of S.
    So S is a non-atom iff S without its first term has a nonempty
    sub-multiset summing to 0, which a q-bit mask of its nonempty subset
    sums shows.
    """
    q = ctx.q
    if sum(content) % q:
        return "not_product_one"
    full = (1 << q) - 1
    sums = 0
    for v in content[1:]:
        sums |= ((sums << v) | (sums >> (q - v))) & full | 1 << v
        if sums & 1:
            return "non_atom"
    return "atom"


@lru_cache(maxsize=16)
def _lane_masks(q: int) -> tuple[int, list[int], list[int]]:
    """(all q lanes, keep[y], wrap[y]) for the packed split masks of ``_profile_step``.

    Lane z is bits z.q .. z.q + q - 1.  keep[y] holds the bits at or above y
    of every lane, wrap[y] those below y.
    """
    ones = sum(1 << z * q for z in range(q))
    keep = [ones * ((1 << q) - (1 << y)) for y in range(q)]
    wrap = [ones * ((1 << y) - 1) for y in range(q)]
    return (1 << q * q) - 1, keep, wrap


# The profile of the empty <a>-part: ΣY = 0, P = {0}, no nonempty Z.
_EMPTY_PROFILE = (0, 1, 0)


def _profile_step(q: int, profile: tuple[int, int, int], y: int) -> tuple[int, int, int]:
    """The profile (ΣY mod q, P, packed split lanes) of Y plus one term y, 0 <= y < q.

    Lane z of the packed integer is the q-bit mask of ΣB over disjoint B, Z
    of Y with Z nonempty and ΣZ = z; lane 0 is R.  The new term goes to B
    (every lane rotated by y), to Z (lane z - y moves to lane z) or to
    neither, and it opens Z on its own for every B of the old P.
    """
    total, sums, split = profile
    lanes, keep, wrap = _lane_masks(q)
    spun = (split << y) & keep[y] | (split >> (q - y)) & wrap[y]
    moved = (split << y * q) & lanes | split >> (q - y) * q
    return (
        (total + y) % q,
        sums | ((sums << y) | (sums >> (q - y))) & ((1 << q) - 1),
        split | spun | moved | sums << y * q,
    )


@lru_cache(maxsize=1)
def _inner_profile(q: int, inner: tuple[int, ...]) -> tuple[int, int, int]:
    """(ΣY mod q, subset-sum mask P, split mask R) of the sorted <a>-part Y.

    Bit b of P is set when some sub-multiset B of Y has ΣB = b; bit b of R
    when some B is disjoint from a nonempty Z of Y with ΣZ = 0.  It folds
    ``_profile_step`` over Y for ``classify_candidate``; the prefix walk of
    fact 8 builds its profiles one step per prefix instead.  The one cached
    entry serves a run of candidates with the same <a>-part, which a loop
    over the ranks of a fixed-k stratum meets, since the outer part varies
    fastest.
    """
    profile = _EMPTY_PROFILE
    for y in inner:
        profile = _profile_step(q, profile, y)
    total, sums, split = profile
    return total, sums, split & ((1 << q) - 1)


def _pair_target(ctx: GroupCtx, x1: int, x2: int, total: int) -> int:
    """The bit 1 << c of the closed form for outer terms x1, x2 over an <a>-part with ΣY = total.

    0 when the t-degrees of x1 and x2 do not cancel: no content holding
    both is then product-one, and no bit of a mask matches.
    """
    p, q = ctx.p, ctx.q
    d1, j1 = divmod(x1, q)
    d2, j2 = divmod(x2, q)
    if (d1 + d2) % p:
        return 0
    s2 = ctx.spow[d2]
    return 1 << (-(total + j1 * s2 + j2) * pow(s2 - 1, -1, q) % q)


def _outer_pair_verdict(ctx: GroupCtx, inner: list[int], x1: int, x2: int) -> str:
    """Exact verdict for a content with exactly two terms outside <a>; see the module docstring."""
    total, sums, split = _inner_profile(ctx.q, tuple(sorted(inner)))
    target = _pair_target(ctx, x1, x2, total)
    if not sums & target:
        return "not_product_one"
    return "non_atom" if split & target else "atom"


def _engine_verdict(ctx: GroupCtx, seq: Sequence) -> AtomVerdict | None:
    """``is_atom``, or None when the engine hits its state cap."""
    try:
        return is_atom(ctx, seq)
    except ResourceCapError:
        return None


def _confirm_atom(
    ctx: GroupCtx, seq: Sequence, text: str, method: str, verdicts: dict | None = None
) -> tuple[str, AtomVerdict | None]:
    """Confirm a closed-form atom ``seq``, whose text is ``text``, with the engine, once per orbit of the extremal family.

    A length-2q ``outer_pair`` atom in the extremal family (built on first
    use) takes the verdict on its orbit's representative, which ``verdicts``
    (a scan's memo, keyed by representative) keeps; a representative that
    the engine rejects, or caps, confirms nothing.  Every other atom goes to
    the engine.  Returns ("atom", verdict), or ("unverified", None) when the
    engine hits its state cap; raises when the engine finds no atom.
    """
    verdict = None
    if method == "outer_pair" and len(seq) == 2 * ctx.q:
        family = ctx._extremal_family
        if family is None:
            from .invariants import extremal_family  # invariants imports this module

            family = extremal_family(ctx)
        rep = family.get(text)
        if rep is not None:
            verdicts = {} if verdicts is None else verdicts
            if rep not in verdicts:
                verdicts[rep] = _engine_verdict(ctx, rep)
            verdict = verdicts[rep]
    if verdict is None or not verdict.atom:
        verdict = _engine_verdict(ctx, seq)
        if verdict is None:
            return "unverified", None
    if not verdict.atom:
        raise RuntimeError(
            f"{method} verdict 'atom' contradicts the engine for {seq.indices()} "
            f"in group {ctx.params.descriptor()}"
        )
    return "atom", verdict


# Random orderings tried per candidate before the DP; see the module docstring.
_ORDERING_TRIES = 64


def _ordering_witness(ctx: GroupCtx, content: tuple[int, ...]) -> bool:
    """Whether one of ``_ORDERING_TRIES`` random orderings certifies a split.

    A repeated prefix product inside a product-one ordering certifies a
    consecutive product-one block whose complement is also product-one, i.e.
    a non-atom witness; the arithmetic of the prefix list is the proof.  The
    orderings come from a stream keyed by the group and the content; the
    leading "0:" of the key keeps the streams, and so the ``by_method``
    counts, that scans with the former default seed 0 drew.
    """
    key = f"0:{ctx.params.descriptor()}:{','.join(map(str, content))}"
    rng = Random(int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big"))
    try:
        mt = ctx.cayley()
    except GroupParamError:
        mt = None  # group too large for the flat table; fall back to mul_idx
    nn = ctx.n
    mul_idx = ctx.mul_idx
    order = list(content)
    size = len(order)
    shuffle = rng.shuffle
    for _ in range(_ORDERING_TRIES):
        shuffle(order)
        acc = 0
        prefixes = [0] * (size + 1)
        if mt is not None:
            for i in range(size):
                acc = mt[acc * nn + order[i]]
                prefixes[i + 1] = acc
        else:
            for i in range(size):
                acc = mul_idx(acc, order[i])
                prefixes[i + 1] = acc
        if acc != 0:
            continue
        seen: dict[int, int] = {}
        for i, value in enumerate(prefixes):
            j = seen.get(value)
            if j is not None and not (j == 0 and i == size):
                return True
            if j is None:
                seen[value] = i
    return False


def classify_candidate(
    ctx: GroupCtx, content: tuple[int, ...], verdicts: dict | None = None
) -> tuple[str, str, AtomVerdict | None]:
    """Classify one candidate multiset: (kind, method, verdict-for-atoms).

    Kinds: ``atom``, ``non_atom``, ``not_product_one``, ``unverified``.
    ``method`` names the route that settled the candidate (see the module
    docstring): ``abelian`` with no term outside <a>, ``outer_pair`` with
    exactly two, otherwise ``degree`` when the t-degree sum is nonzero mod p
    and ``ordering`` or ``dp`` when it is zero.  Every route is exact.
    Atom verdicts are confirmed by the engine, and ``unverified`` means the
    engine hit its state cap, ``sequences.DEFAULT_STATE_CAP``.  A scan
    passes its memo of orbit verdicts as ``verdicts`` (``_confirm_atom``).
    """
    inner = [idx for idx in content if idx < ctx.q]
    outer = [idx for idx in content if idx >= ctx.q]
    if len(outer) in (0, 2):
        if outer:
            method, kind = "outer_pair", _outer_pair_verdict(ctx, inner, *outer)
        else:
            method, kind = "abelian", _abelian_verdict(ctx, content)
        if kind != "atom":
            return kind, method, None
        seq = Sequence.from_indices(content)
        kind, verdict = _confirm_atom(ctx, seq, seq.format(ctx), method, verdicts)
        return kind, method, verdict
    if sum(idx // ctx.q for idx in outer) % ctx.p:
        return "not_product_one", "degree", None
    counts: dict[int, int] = {}
    for idx in content:
        counts[idx] = counts.get(idx, 0) + 1
    lattice_states = 1
    for mult in counts.values():
        lattice_states *= mult + 1
    # For tiny lattices the exact DP beats any amount of ordering search.
    if lattice_states > 256 and _ordering_witness(ctx, content):
        return "non_atom", "ordering", None
    try:
        verdict = is_atom(ctx, Sequence.from_indices(content))
    except ResourceCapError:
        return "unverified", "dp", None
    if not verdict.product_one:
        return "not_product_one", "dp", None
    if verdict.atom:
        return "atom", "dp", verdict
    return "non_atom", "dp", None


# -- search -------------------------------------------------------------------


@dataclass
class SearchResult:
    """What a scan found.  ``atom_texts`` and ``unverified_texts`` list its sequences as text, in rank order.

    Reports and checkpoints carry the texts; ``atoms`` and ``unverified``
    parse them on demand.
    """

    ctx: GroupCtx
    stratum: Stratum
    shard: Shard | None
    counters: SearchCounters
    atom_texts: list[str]
    unverified_texts: list[str]
    digest: int
    complete: bool
    last_rank: int

    @property
    def atoms(self) -> list[Sequence]:
        return [Sequence.parse(self.ctx, text) for text in self.atom_texts]

    @property
    def unverified(self) -> list[Sequence]:
        return [Sequence.parse(self.ctx, text) for text in self.unverified_texts]

    @property
    def digest_hex(self) -> str:
        return digest_hex(self.digest)


CHECKPOINT_SCHEMA = "prodone-checkpoint/1"


def checkpoint_record(
    ctx: GroupCtx,
    stratum: Stratum,
    shard: Shard | None,
    seed: int,
    counters: SearchCounters,
    digest: int,
    atoms: list[str],
    unverified: list[str],
    last_rank: int,
    complete: bool,
) -> dict:
    """The checkpoint of a scan; no scan reads a seed, so the program records ``seed`` 0."""
    return {
        "schema": CHECKPOINT_SCHEMA,
        "group": ctx.params.descriptor(),
        "stratum": stratum.describe(),
        "shard": shard.describe() if shard else None,
        "seed": seed,
        "counters": counters.to_dict(),
        "digest": digest_hex(digest),
        "atoms": atoms,
        "unverified": unverified,
        "last_rank": last_rank,
        "complete": complete,
    }


def save_checkpoint(path: str, record: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True, indent=1)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    if record.get("schema") != CHECKPOINT_SCHEMA:
        raise ValueError(f"unexpected checkpoint schema in {path}")
    return record


@dataclass
class _Scan:
    """What one ``atom_search`` call has found, and the loop that extends it.

    ``blocks`` settles a rank range of any stratum: by counts for k = 1 and
    for k = 0 above length q, by the lemma or the prefix walk
    (``settle_k2``) for k = 2, and
    one candidate at a time for the others (``StratumSpace.one_at_a_time``;
    see the module docstring).  Over the same ranks it leaves the counters,
    digest and lists that a loop over single candidates leaves.
    """

    space: StratumSpace
    counters: SearchCounters = field(default_factory=SearchCounters)
    digest: int = field(default_factory=digest_empty)
    atoms: list[str] = field(default_factory=list)
    unverified: list[str] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)  # extremal orbit representative -> engine verdict

    def classify(self, content: tuple[int, ...]) -> None:
        kind, method, _ = classify_candidate(self.space.ctx, content, self.verdicts)
        listed = kind in ("atom", "unverified")
        self.add(kind, method, Sequence.from_indices(content).format(self.space.ctx) if listed else None)

    def add(self, kind: str, method: str, text: str | None = None) -> None:
        """Count one verdict; an atom or an unverified candidate is listed as its ``text``."""
        counters = self.counters
        counters.note_method(method)
        if kind == "non_atom":
            counters.non_atoms += 1
        elif kind == "not_product_one":
            counters.not_product_one += 1
        elif kind == "atom":
            counters.atoms += 1
            self.atoms.append(text)
            self.digest = digest_add(self.digest, text)
        else:
            counters.unverified += 1
            self.unverified.append(text)

    def blocks(self, lo: int, hi: int) -> None:
        space, counters, k = self.space, self.counters, self.space.stratum.k
        filtered = space.filtered_count(lo, hi)
        checked = hi - lo - filtered
        counters.visited += hi - lo
        counters.filtered_out += filtered
        counters.checked += checked
        if not checked:
            return
        if space.one_at_a_time:
            for _, content in space.iter_range(lo, hi):
                if space.passes_filters(content):
                    self.classify(content)
        elif k == 1:  # one outer term, so a nonzero t-degree sum (fact 1)
            counters.not_product_one += checked
            counters.note_method("degree", checked)
        elif k == 2:
            self.settle_k2(lo, hi)
        elif k == 0:  # above length q: cut D, fact 10; () passes, so all ranks do
            product_one = space.zero_sum_count(lo, hi)
            counters.non_atoms += product_one
            counters.not_product_one += checked - product_one
            counters.note_method("abelian", checked)

    def settle_k2(self, lo: int, hi: int) -> None:
        """Settle ranks [lo, hi) of a k = 2 stratum: by the lemma of fact 9 where it holds, else by the prefix walk of fact 8."""
        space, ctx = self.space, self.space.ctx
        q, x_count, values, size = ctx.q, space.x_count, space.y_ground, space.y_size
        passing, parts, zeros, rows = space.outer_table
        n_pass, full = len(passing), (1 << q) - 1
        not_product_one = non_atoms = 0
        prefix: list[int] = []

        def below(rank: int) -> tuple[int, int]:
            """(passing pairs, those with a zero target) among the ranks below ``rank`` (fact 7)."""
            y, x = divmod(rank, x_count)
            i = bisect_left(passing, x)
            return y * n_pass + i, y * zeros[-1] + zeros[i]

        def cut_a(a: int, b: int) -> None:
            """Settle ranks [a, b), whose every <a>-part has a full R (cut A, fact 7)."""
            nonlocal not_product_one, non_atoms
            (pass_a, zero_a), (pass_b, zero_b) = below(a), below(b)
            not_product_one += zero_b - zero_a
            non_atoms += pass_b - pass_a - zero_b + zero_a

        def atom(content: tuple[int, ...]) -> None:
            seq = Sequence.from_indices(content)
            text = seq.format(ctx)
            kind, _ = _confirm_atom(ctx, seq, text, "outer_pair", self.verdicts)
            self.add(kind, "outer_pair", text)

        def pairs(y_rank: int, inner: tuple[int, ...], profile: tuple[int, int, int]) -> None:
            """Fact 6: the passing pairs of the <a>-part ``inner``, of y-rank ``y_rank``, inside [lo, hi)."""
            nonlocal not_product_one, non_atoms
            total, sums, split = profile
            split &= full
            i = bisect_left(passing, lo - y_rank * x_count)
            j = bisect_left(passing, hi - y_rank * x_count)
            row = rows.get(total)
            if row is None:
                row = rows[total] = [_pair_target(ctx, *part, total) for part in parts]
            for n, target in enumerate(row[i:j], i):
                if not sums & target:
                    not_product_one += 1
                elif split & target:
                    non_atoms += 1
                else:
                    atom(inner + parts[n])

        def constant(y_rank: int, y: int, a: int, b: int) -> None:
            """Fact 9: ranks [a, b) inside the block of y^(2q - 2), of y-rank ``y_rank``, its atoms listed directly."""
            nonlocal non_atoms
            cut_a(a, b)
            base = y_rank * x_count
            atoms = [pair for x, pair in _constant_part_atoms(space, y) if a <= base + x < b]
            non_atoms -= len(atoms)
            for pair in atoms:
                atom((y,) * size + pair)

        def visit(depth: int, first: int, y_rank: int, profile: tuple[int, int, int]) -> None:
            """The subtree of the ``depth``-term prefix ``prefix``, whose first y-rank is ``y_rank``."""
            if depth == size:
                pairs(y_rank, tuple(prefix), profile)
                return
            for v in range(first, len(values)):
                count = multiset_count(len(values) - v, size - depth - 1)
                a, b = y_rank * x_count, (y_rank + count) * x_count
                if a >= hi:
                    return
                if b > lo:
                    child = _profile_step(q, profile, values[v])
                    if child[2] & full == full:  # cut A over the whole subtree
                        cut_a(max(a, lo), min(b, hi))
                    else:
                        prefix.append(values[v])
                        visit(depth + 1, v, y_rank, child)
                        prefix.pop()
                y_rank += count

        if 0 in values or size < 2 * q - 2:
            visit(0, 0, 0, _EMPTY_PROFILE)
        else:  # fact 9: only the constant parts y^(2q - 2) have R not full
            start = lo
            for v in range(len(values)) if size == 2 * q - 2 else ():
                y_rank = rank_multiset((v,) * size, len(values))
                a, b = y_rank * x_count, (y_rank + 1) * x_count
                if a >= hi:
                    break
                if b > lo:
                    cut_a(start, max(a, lo))
                    start = min(b, hi)
                    constant(y_rank, values[v], max(a, lo), start)
            cut_a(start, hi)
        counters = self.counters
        counters.not_product_one += not_product_one
        counters.non_atoms += non_atoms
        if not_product_one + non_atoms:
            counters.note_method("outer_pair", not_product_one + non_atoms)


def _constant_part_atoms(space: StratumSpace, y: int) -> list[tuple[int, tuple[int, int]]]:
    """(outer rank, pair) for each passing pair x1.x2 that makes y^(2q - 2).x1.x2 an atom, in rank order.

    The pairs of fact 9 of the module docstring.  Their degrees sum to p, so
    they pass the filter iff its residue is 0 or None.  The outer ground of
    a k = 2 stratum is the indices q .. n - 1.
    """
    if space.stratum.tau_residue not in (0, None):
        return []
    ctx = space.ctx
    p, q, m = ctx.p, ctx.q, len(space.x_ground)
    atoms = []
    for d1 in range(1, (p + 1) // 2):
        s2 = ctx.spow[p - d1]
        for j1 in range(q):
            pair = (d1 * q + j1, (p - d1) * q + (y * (1 + s2) - j1 * s2) % q)
            atoms.append((rank_multiset((pair[0] - q, pair[1] - q), m), pair))
    return sorted(atoms)


# Ranks between the interval checkpoints that ``atom_search`` writes.
_CHECKPOINT_EVERY = 25_000


def atom_search(
    ctx: GroupCtx,
    stratum: Stratum,
    *,
    shard: Shard | None = None,
    checkpoint_path: str | None = None,
    max_candidates: int | None = None,
) -> SearchResult:
    """Find all atoms in a stratum (or one shard of it).

    Every candidate gets an exact verdict; per-candidate resource failures
    are returned in ``unverified`` rather than silently dropped.  With
    ``checkpoint_path`` the scan resumes after the last completed rank, which
    must lie in the shard or just before it, and the checkpoint is written
    where the call stops; a stratum scanned one candidate at a time
    (``StratumSpace.one_at_a_time``) also writes it after every
    ``_CHECKPOINT_EVERY`` ranks of the call.  ``max_candidates`` bounds the
    work of a single call (the result is then marked incomplete).
    """
    space = StratumSpace(ctx, stratum)
    lo = shard.start_rank if shard else 0
    hi = shard.end_rank if shard else space.total
    scan = _Scan(space)
    start = lo
    if checkpoint_path and os.path.exists(checkpoint_path):
        record = load_checkpoint(checkpoint_path)
        if record["group"] != ctx.params.descriptor() or record["stratum"] != stratum.describe():
            raise ValueError("checkpoint does not match this search")
        if record["shard"] != (shard.describe() if shard else None):
            raise ValueError("checkpoint belongs to a different shard plan")
        scan.counters = SearchCounters.from_dict(record["counters"])
        scan.digest = int(record["digest"], 16)
        scan.atoms = list(record["atoms"])
        scan.unverified = list(record["unverified"])
        if not lo - 1 <= record["last_rank"] < hi:
            raise ValueError(f"checkpoint last rank {record['last_rank']} is outside [{lo}, {hi})")
        start = record["last_rank"] + 1
    stop = hi if max_candidates is None else max(start, min(hi, start + max_candidates))
    last_rank = start - 1

    def persist(complete: bool) -> None:
        if checkpoint_path:
            save_checkpoint(
                checkpoint_path,
                checkpoint_record(
                    ctx, stratum, shard, 0, scan.counters, scan.digest,
                    scan.atoms, scan.unverified, last_rank, complete,
                ),
            )

    # Slices end where the per-candidate loop would write a checkpoint.
    sliced = bool(checkpoint_path) and space.one_at_a_time
    every = _CHECKPOINT_EVERY if sliced else max(1, stop - start)
    for first in range(start, stop, every):
        end = min(first + every, stop)
        scan.blocks(first, end)
        last_rank = end - 1
        if sliced and end - first == every:
            persist(False)
    complete = stop >= hi
    persist(complete)
    return SearchResult(
        ctx=ctx,
        stratum=stratum,
        shard=shard,
        counters=scan.counters,
        atom_texts=scan.atoms,
        unverified_texts=scan.unverified,
        digest=scan.digest,
        complete=complete,
        last_rank=last_rank,
    )


# -- parallel driver -------------------------------------------------------------


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: ``requested``, else ``PRODONE_THREADS``, else 1.

    The count is capped at ``os.cpu_count()``.  A count below 1, or a
    ``PRODONE_THREADS`` that is not an integer, raises ``ValueError``.
    """
    source = "--workers"
    if requested is None:
        source = "PRODONE_THREADS"
        env = os.environ.get(source) or "1"
        try:
            requested = int(env)
        except ValueError:
            raise ValueError(f"{source} must be a positive integer, got {env!r}") from None
    if requested < 1:
        raise ValueError(f"{source} must be at least 1, got {requested}")
    return min(requested, os.cpu_count() or 1)


def _shard_worker(args: tuple) -> SearchResult:
    ctx, stratum, shard, path = args
    return atom_search(ctx, stratum, shard=shard, checkpoint_path=path)


def run_sharded(
    ctx: GroupCtx,
    stratum: Stratum,
    *,
    n_shards: int = 1,
    workers: int | None = None,
    checkpoint_dir: str | None = None,
) -> SearchResult:
    """Process a stratum as disjoint shards, merging digests and counters.

    Aggregation is associative and commutative, and the shards are merged in
    rank order, so the merged result equals one ``atom_search`` over the
    whole stratum, whatever the shard plan and worker schedule.  A shard
    count outside [1, max(1, total)] raises: above it, shards would be empty.
    """
    space = StratumSpace(ctx, stratum)
    if not 1 <= n_shards <= max(1, space.total):
        raise ValueError(f"--shards must be in [1, {max(1, space.total)}], got {n_shards}")
    shards = make_shards(space.total, n_shards)
    workers = resolve_workers(workers)
    jobs = []
    for shard in shards:
        path = None
        if checkpoint_dir:
            path = os.path.join(
                checkpoint_dir, f"shard-{shard.index:04d}-of-{shard.n_shards:04d}.json")
        jobs.append((ctx, stratum, shard, path))
    if workers == 1 or len(jobs) == 1:
        results = [_shard_worker(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(_shard_worker, jobs))
    merged = SearchResult(
        ctx=ctx,
        stratum=stratum,
        shard=None,
        counters=SearchCounters(),
        atom_texts=[],
        unverified_texts=[],
        digest=digest_empty(),
        complete=True,
        last_rank=space.total - 1,
    )
    for result in results:
        merged.counters.merge(result.counters)
        merged.digest = digest_merge(merged.digest, result.digest)
        merged.atom_texts.extend(result.atom_texts)
        merged.unverified_texts.extend(result.unverified_texts)
        merged.complete = merged.complete and result.complete
    return merged
