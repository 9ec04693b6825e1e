"""Slow direct-from-definition checkers and randomized trial suites.

``naive_pi_set`` and ``naive_is_atom`` recompute products by explicit
permutation / full sub-multiset scan and serve as ground truth for the
optimized engine.  The ``run_lemma`` suites generate hypothesis-satisfying
instances of product-set and subsequence facts from the paper's proofs,
and report any counterexample (these facts are theorems, so a counterexample
is a falsifiable engine-bug signal, never an expected outcome).  No scan uses
them; only ``lemmas`` and the ``lemma_report`` checker import this module.

Each randomized lemma is a proposer and a check, paired in ``_SUITES``.
``propose(ctx, rng)`` draws one instance from a trial's seeded stream, or
returns None when its retry loop runs out (a generation failure).
``check(ctx, instance)`` raises ValueError when the instance misses the
lemma's hypotheses; otherwise it returns None, or the counterexample record:
the instance in text plus the values it measured.  A proposer retries on the
same predicate its check requires.  ``run_lemma`` runs the proposer and then
the check on every trial.  Each trial draws from a stream keyed by the seed,
and ``cyclic-extremal`` is an exhaustive scan, so the ``lemma_report``
checker runs the suite again and requires the same report.

Lemma ids:

* ``cauchy-davenport``      |AB| >= min(q, |A|+|B|-1) in C_q
* ``cyclic-extremal``       structure of long zero-sum-free sequences in C_n
* ``outer-term-spread``     |pi(g.S)| >= min(q, |g.S|), S in <a>, g outside
* ``outer-pair-spread``     |pi(g1.g2.S)| >= min(q, 2|S|+1)
* ``full-support-spread``   |pi(S)| >= min(p, |S|) when supp(S) generates G
* ``closed-product-chain``  chained bound for conjugation-closed product sets
* ``short-window``          |S| >= q+2p-3 forces a product-one T, |T| <= q
* ``coset-window``          |T| >= q with products in <a> forces product-one
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache

from .group import GroupCtx
from .sequences import AtomVerdict, ProductSet, Sequence, _Lattice, classify, pi_set

NAIVE_MAX_LEN = 8

#: Most trials of a randomized suite: ``lemmas --trials`` and the
#: ``lemma_report`` checker reject more, so re-checking a report is bounded.
#: The slowest suite, ``outer-term-spread``, runs 10^4 trials in about 1 s
#: at 3,7,2 and 10 s at 3,13,3 (2-vCPU Xeon).  The exhaustive
#: ``cyclic-extremal`` counts the sequences it scans as trials; ``MAX_CYCLIC_N``
#: bounds it instead.
MAX_TRIALS = 10_000

#: Largest n of the ``cyclic-extremal`` scan over C_n: ``lemmas --n`` and the
#: ``lemma_report`` checker reject more.  The scan grows about x1.9 per step
#: of 2 in n: 0.10 s at n = 19, 1.0-1.1 s at 27 and 4.4-4.9 s at 31 (1,301,610
#: sequences; 2-vCPU Xeon), so a report at the cap re-checks within the time
#: ``MAX_TRIALS`` allows a randomized suite.  The default n = q passes for q <= 31.
MAX_CYCLIC_N = 31

LEMMA_IDS = (
    "cauchy-davenport",
    "cyclic-extremal",
    "outer-term-spread",
    "outer-pair-spread",
    "full-support-spread",
    "closed-product-chain",
    "short-window",
    "coset-window",
)


class OracleLengthError(ValueError):
    """Input too long for the factorial-cost reference implementation."""


def _trial_rng(seed: int, index: int, tag: str = "trial") -> random.Random:
    digest = hashlib.sha256(f"{tag}:{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- reference implementations -----------------------------------------


def naive_pi_set(ctx: GroupCtx, seq: Sequence) -> ProductSet:
    """Products over all distinct permutations of the multiset; |S| <= 8."""
    if len(seq) > NAIVE_MAX_LEN:
        raise OracleLengthError(f"naive pi limited to length {NAIVE_MAX_LEN}, got {len(seq)}")
    terms = seq.indices()
    mask = 0
    if not terms:
        return ProductSet(1, ctx.n)
    for perm in set(itertools.permutations(terms)):
        acc = 0
        for g in perm:
            acc = ctx.mul_idx(acc, g)
        mask |= 1 << acc
    return ProductSet(mask, ctx.n)


def naive_subproducts_set(ctx: GroupCtx, seq: Sequence) -> ProductSet:
    if not 1 <= len(seq) <= NAIVE_MAX_LEN:
        raise OracleLengthError(f"naive subproducts limited to length {NAIVE_MAX_LEN}")
    mask = 0
    for sub in _sub_multisets(seq):
        if sub.is_empty or sub == seq:
            continue
        mask |= naive_pi_set(ctx, sub).mask
    mask |= naive_pi_set(ctx, seq).mask
    return ProductSet(mask, ctx.n)


def _sub_multisets(seq: Sequence):
    ranges = [range(m + 1) for _, m in seq.entries]
    support = seq.support()
    for counts in itertools.product(*ranges):
        yield Sequence(zip(support, counts))


def naive_is_atom(ctx: GroupCtx, seq: Sequence) -> AtomVerdict:
    """Full scan over proper nonempty sub-multisets using naive products."""
    if not 1 <= len(seq) <= NAIVE_MAX_LEN:
        raise OracleLengthError(f"naive atom check limited to length {NAIVE_MAX_LEN}")
    pi_cache: dict[Sequence, int] = {}

    def po(sub: Sequence) -> bool:
        cached = pi_cache.get(sub)
        if cached is None:
            cached = naive_pi_set(ctx, sub).mask
            pi_cache[sub] = cached
        return bool(cached & 1)

    if not po(seq):
        return AtomVerdict(product_one=False, atom=False)
    candidates = [s for s in _sub_multisets(seq) if not s.is_empty and s != seq]
    candidates.sort(key=lambda s: (len(s), s.entries))
    for sub in candidates:
        if po(sub) and po(seq.remove(sub)):
            return AtomVerdict(product_one=True, atom=False, witness=(sub, seq.remove(sub)))
    return AtomVerdict(product_one=True, atom=True)


# -- reports -----------------------------------------------------------


@dataclass
class LemmaReport:
    lemma: str
    group: str | None
    trials: int
    trials_run: int
    failures: int
    counterexample: dict | None
    generation_failures: int
    seed: int
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_payload(self) -> dict:
        return {
            "lemma": self.lemma,
            "group": self.group,
            "trials": self.trials,
            "trials_run": self.trials_run,
            "failures": self.failures,
            "counterexample": self.counterexample,
            "generation_failures": self.generation_failures,
            "seed": self.seed,
            "notes": list(self.notes),
        }


# -- cyclic helpers (standalone C_n machinery, independent of GroupCtx) --


def _rotate(mask: int, shift: int, n: int) -> int:
    full = (1 << n) - 1
    shift %= n
    return ((mask << shift) | (mask >> (n - shift))) & full


def _zero_sum_free_multisets(n: int):
    """DFS over nondecreasing zero-sum-free multisets over C_n \\ {0}.

    Yields (values, subset_sum_mask); pruning on a zero subset sum is sound
    because subset sums only grow under extension.
    """
    stack: list[tuple[list[int], int, int]] = [([], 0, 1)]
    while stack:
        values, ss_mask, start = stack.pop()
        if values:
            yield values
        for v in range(start, n):
            new_mask = ss_mask | _rotate(ss_mask, v, n) | (1 << v)
            if new_mask & 1:
                continue
            stack.append((values + [v], new_mask, v))


def check_cauchy_davenport(q: int, a_set: set[int], b_set: set[int]) -> dict | None:
    """Return a counterexample record if |A+B| < min(q, |A|+|B|-1) in C_q."""
    if not a_set or not b_set or not a_set | b_set <= set(range(q)):
        raise ValueError("Cauchy-Davenport needs nonempty subsets of C_q")
    sums = {(a + b) % q for a in a_set for b in b_set}
    bound = min(q, len(a_set) + len(b_set) - 1)
    if len(sums) >= bound:
        return None
    return {
        "q": q,
        "A": sorted(a_set),
        "B": sorted(b_set),
        "sumset_size": len(sums),
        "bound": bound,
    }


def check_cyclic_extremal(n: int, mode: str) -> LemmaReport:
    """Exhaustive structure checks for zero-sum-free sequences over C_n.

    ``multiplicity``: every zero-sum-free S with |S| >= (n+1)/2 has a value of
    multiplicity >= 2|S| - n + 1.  ``extremal``: the longest zero-sum-free
    sequences have length exactly n-1 and are the constant ones; combined with
    the length-n constant witness this pins the maximal atom length at n.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError(f"odd n >= 3 required, got {n}")
    if mode not in ("multiplicity", "extremal"):
        raise ValueError(f"unknown mode {mode!r}")
    trials_run = 0
    counterexample = None
    notes: list[str] = []
    max_len = 0
    extremal_constant = True
    for values in _zero_sum_free_multisets(n):
        trials_run += 1
        size = len(values)
        max_len = max(max_len, size)
        if mode == "multiplicity" and 2 * size >= n + 1:
            need = 2 * size - n + 1
            best = max(values.count(v) for v in set(values))
            if best < need:
                counterexample = {"n": n, "sequence": values, "max_multiplicity": best, "bound": need}
                break
        if mode == "extremal" and size == n - 1 and len(set(values)) != 1:
            extremal_constant = False
            counterexample = {"n": n, "sequence": values, "reason": "length n-1 but not constant"}
            break
    failures = 0 if counterexample is None else 1
    if mode == "extremal" and counterexample is None:
        if max_len != n - 1:
            failures = 1
            counterexample = {"n": n, "max_zero_sum_free_length": max_len, "expected": n - 1}
        else:
            # 1^[n] is product-one and minimal: no proper nonempty subset of
            # fewer than n ones sums to 0 mod n.
            notes.append(f"constant witness of length {n} is a maximal atom")
            notes.append(
                "no longer atom exists: deleting a term from an atom leaves a "
                f"zero-sum-free sequence, and the exhaustive scan caps those at {n - 1}"
            )
    return LemmaReport(
        lemma="cyclic-extremal",
        group=f"C_{n}:{mode}",
        trials=trials_run,
        trials_run=trials_run,
        failures=failures,
        counterexample=counterexample,
        generation_failures=0,
        seed=0,
        notes=notes,
    )


# -- randomized suites over the non-abelian group -----------------------

RETRY_CAP = 10_000


def _random_multiset(rng: random.Random, ground: range, length: int) -> Sequence:
    return Sequence.from_indices(rng.choices(ground, k=length) if length else [])


def _require(holds: bool, hypothesis: str) -> None:
    if not holds:
        raise ValueError(f"instance misses the hypothesis: {hypothesis}")


def _spread_record(ctx: GroupCtx, seq: Sequence, bound: int) -> dict | None:
    size = len(pi_set(ctx, seq))
    if size >= bound:
        return None
    return {"sequence": seq.format(ctx), "pi_size": size, "bound": bound}


def _propose_cauchy_davenport(ctx: GroupCtx, rng: random.Random) -> tuple[set[int], set[int]]:
    q = ctx.q
    a_set = set(rng.sample(range(q), rng.randrange(1, q + 1)))
    return a_set, set(rng.sample(range(q), rng.randrange(1, q + 1)))


def _propose_outer_term(ctx: GroupCtx, rng: random.Random) -> Sequence:
    s_seq = _random_multiset(rng, range(1, ctx.q), rng.randrange(0, min(ctx.q + 2, 13)))
    return s_seq.cat(Sequence.from_indices([rng.choice(range(ctx.q, ctx.n))]))


def _check_outer_term(ctx: GroupCtx, seq: Sequence) -> dict | None:
    outer = sum(m for i, m in seq.entries if i >= ctx.q)
    _require(not seq.multiplicity(0) and outer == 1, "one term outside <a>, none equal to e")
    return _spread_record(ctx, seq, min(ctx.q, len(seq)))


def _outer_pair(ctx: GroupCtx, seq: Sequence) -> bool:
    outer = [i for i in seq.indices() if i >= ctx.q]
    return (not seq.multiplicity(0) and len(outer) == 2
            and sum(map(ctx.tau_degree_idx, outer)) % ctx.p != 0)


def _propose_outer_pair(ctx: GroupCtx, rng: random.Random) -> Sequence | None:
    s_seq = _random_multiset(rng, range(1, ctx.q), rng.randrange(0, (ctx.q + 1) // 2 + 2))
    outside = range(ctx.q, ctx.n)
    for _ in range(RETRY_CAP):
        seq = s_seq.cat(Sequence.from_indices([rng.choice(outside), rng.choice(outside)]))
        if _outer_pair(ctx, seq):
            return seq
    return None


def _check_outer_pair(ctx: GroupCtx, seq: Sequence) -> dict | None:
    _require(_outer_pair(ctx, seq), "two terms outside <a> with t-degree sum not 0 mod p, none equal to e")
    return _spread_record(ctx, seq, min(ctx.q, 2 * (len(seq) - 2) + 1))


# ``_full_support`` and ``_chain_factor`` keep their last few values: a
# proposer accepts an instance on the same predicate that its check then
# requires, so the check of the instance just proposed reads the cache.
@lru_cache(maxsize=8)
def _full_support(ctx: GroupCtx, seq: Sequence) -> bool:
    return not seq.multiplicity(0) and len(ctx.subgroup_generated_idx(set(seq.support()))) == ctx.n


def _propose_full_support(ctx: GroupCtx, rng: random.Random) -> Sequence | None:
    length = rng.randrange(2, 9)
    for _ in range(RETRY_CAP):
        seq = _random_multiset(rng, range(1, ctx.n), length)
        if _full_support(ctx, seq):
            return seq
    return None


def _check_full_support(ctx: GroupCtx, seq: Sequence) -> dict | None:
    _require(_full_support(ctx, seq), "support generating G, no term equal to e")
    return _spread_record(ctx, seq, min(ctx.p, len(seq)))


@lru_cache(maxsize=64)
def _chain_factor(ctx: GroupCtx, seq: Sequence, closed: bool) -> ProductSet | None:
    """pi(seq) when ``seq`` may stand in a chain, else None.

    A factor has two or more terms, |pi| >= |seq| and a product other than
    e; every factor but the last has a conjugation-closed product set.
    """
    if len(seq) < 2:
        return None
    ps = pi_set(ctx, seq)
    if len(ps) < len(seq) or ps.mask & ~1 == 0:
        return None
    if closed:
        members = set(ps.indices())
        if not all(c <= members or c.isdisjoint(members) for c in ctx.conjugacy_classes()):
            return None
    return ps


def _propose_chain_factor(ctx: GroupCtx, rng: random.Random) -> Sequence:
    outside, non_identity = range(ctx.q, ctx.n), range(1, ctx.n)
    style = rng.randrange(3)
    if style == 0:
        g = rng.choice(outside)
        h = rng.choice(non_identity)
        return Sequence.from_indices([g, ctx.inv_idx(g), h])
    if style == 1:
        return _random_multiset(rng, non_identity, rng.randrange(2, 5))
    g = rng.choice(outside)
    extra = _random_multiset(rng, non_identity, rng.randrange(1, 4))
    return Sequence.from_indices([g, ctx.inv_idx(g)]).cat(extra)


def _propose_chain(ctx: GroupCtx, rng: random.Random) -> list[Sequence] | None:
    r = rng.randrange(1, 4)
    factors: list[Sequence] = []
    for i in range(r):
        for _ in range(RETRY_CAP):
            cand = _propose_chain_factor(ctx, rng)
            if _chain_factor(ctx, cand, i < r - 1) is not None:
                factors.append(cand)
                break
        else:
            return None
    return factors


def _check_chain(ctx: GroupCtx, factors: list[Sequence]) -> dict | None:
    products = [_chain_factor(ctx, f, i < len(factors) - 1) for i, f in enumerate(factors)]
    _require(bool(products) and None not in products, "a nonempty chain of admissible factors")
    chained = products[0]
    for ps in products[1:]:
        chained = chained.product(ctx, ps)
    total_terms = sum(len(f) for f in factors)
    total_pi = sum(len(ps) for ps in products)
    record = {
        "factors": [f.format(ctx) for f in factors],
        "chain_size": len(chained),
        "total_terms": total_terms,
        "total_pi_sizes": total_pi,
    }
    q = ctx.q
    if len(chained) < min(q - 1, total_pi) or len(chained) < min(q - 1, total_terms):
        record["violated"] = "lower bound"
        return record
    if total_terms >= q + 1 and len(chained) != q:
        record["violated"] = "saturation"
        return record
    return None


def shortest_product_one(ctx: GroupCtx, seq: Sequence) -> Sequence | None:
    """A shortest nonempty product-one subsequence of ``seq``, or None if it is product-one free.

    The sub-multisets are reached one length at a time, each from those one
    term shorter, as reach(T) = union over g in supp(T) of reach(T - g) * g.
    The search stops at the first length that holds a product-one part, so
    it fills only the lattice's levels up to that length; the short-window
    lemma promises a part of at most q terms.  Of that length it returns the
    part of least lattice state, the one a pass over the whole lattice in
    state order would keep.
    """
    lattice = _Lattice(ctx, seq, 1 << 22, fill=False)
    shift = ctx.shift_mask
    steps = [(stride, mult + 1, ctx.right_shift_table(g), mult)
             for stride, mult, g in zip(lattice.strides, lattice.mults, lattice.support)]
    level = {0: 1}
    while level:
        grown: dict[int, int] = {}
        for t, reach in level.items():
            for stride, radix, table, mult in steps:
                if t // stride % radix < mult:
                    u = t + stride
                    grown[u] = grown.get(u, 0) | shift(reach, table)
        found = [t for t, reach in grown.items() if reach & 1]
        if found:
            return lattice.seq_of(min(found))
        level = grown
    return None


def _propose_short_window(ctx: GroupCtx, rng: random.Random) -> Sequence:
    length = ctx.q + 2 * ctx.p - 3 + rng.randrange(0, 3)
    return _random_multiset(rng, range(1, ctx.n), length)


def _check_short_window(ctx: GroupCtx, seq: Sequence) -> dict | None:
    _require(len(seq) >= ctx.q + 2 * ctx.p - 3, "at least q + 2p - 3 terms")
    found = shortest_product_one(ctx, seq)
    if found is not None and len(found) <= ctx.q and classify(ctx, found).product_one:
        return None
    return {
        "sequence": seq.format(ctx),
        "found": found.format(ctx) if found else None,
        "bound": ctx.q,
    }


def _coset_window(ctx: GroupCtx, seq: Sequence) -> bool:
    return len(seq) >= ctx.q and sum(ctx.tau_degree_idx(i) * m for i, m in seq.entries) % ctx.p == 0


def _propose_coset_window(ctx: GroupCtx, rng: random.Random) -> Sequence | None:
    length = ctx.q + rng.randrange(0, 3)
    for _ in range(RETRY_CAP):
        seq = _random_multiset(rng, range(1, ctx.n), length)
        if _coset_window(ctx, seq):
            return seq
    return None


def _check_coset_window(ctx: GroupCtx, seq: Sequence) -> dict | None:
    _require(_coset_window(ctx, seq), "at least q terms, t-degrees summing to 0 mod p")
    found = shortest_product_one(ctx, seq)
    if found is not None and classify(ctx, found).product_one:
        return None
    return {"sequence": seq.format(ctx), "found": None}


#: lemma id -> (proposer, check) for every randomized lemma.
_SUITES = {
    "cauchy-davenport": (
        _propose_cauchy_davenport, lambda ctx, sets: check_cauchy_davenport(ctx.q, *sets),
    ),
    "outer-term-spread": (_propose_outer_term, _check_outer_term),
    "outer-pair-spread": (_propose_outer_pair, _check_outer_pair),
    "full-support-spread": (_propose_full_support, _check_full_support),
    "closed-product-chain": (_propose_chain, _check_chain),
    "short-window": (_propose_short_window, _check_short_window),
    "coset-window": (_propose_coset_window, _check_coset_window),
}


def run_lemma(
    ctx: GroupCtx,
    lemma_id: str,
    trials: int,
    seed: int = 0,
    *,
    n: int | None = None,
    mode: str = "extremal",
) -> LemmaReport:
    """Dispatch a lemma suite by id; see module docstring for the catalogue."""
    if lemma_id == "cyclic-extremal":
        return check_cyclic_extremal(n if n is not None else ctx.q, mode)
    if lemma_id not in _SUITES:
        raise ValueError(f"unknown lemma id {lemma_id!r}; known: {', '.join(LEMMA_IDS)}")
    propose, check = _SUITES[lemma_id]
    counterexample = None
    generation_failures = 0
    trials_run = 0
    for i in range(trials):
        instance = propose(ctx, _trial_rng(seed, i, lemma_id))
        if instance is None:
            generation_failures += 1
            continue
        trials_run += 1
        counterexample = check(ctx, instance)
        if counterexample is not None:
            break
    return LemmaReport(
        lemma=lemma_id,
        group=ctx.params.descriptor(),
        trials=trials,
        trials_run=trials_run,
        failures=int(counterexample is not None),
        counterexample=counterexample,
        generation_failures=generation_failures,
        seed=seed,
    )
