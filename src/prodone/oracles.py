"""Slow direct-from-definition checkers and randomized trial suites.

``naive_pi_set`` and ``naive_is_atom`` recompute products by explicit
permutation / full sub-multiset scan and serve as ground truth for the
optimized engine.  The ``run_lemma`` suites generate hypothesis-satisfying
instances of the product-set and subsequence facts the search machinery
leans on, and report any counterexample (these facts are theorems, so a
counterexample is a falsifiable engine-bug signal, never an expected
outcome).

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

from .group import GroupCtx
from .sequences import AtomVerdict, ProductSet, Sequence, _Lattice, classify, pi_set

NAIVE_MAX_LEN = 8

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
    if not a_set or not b_set:
        raise ValueError("Cauchy-Davenport needs nonempty subsets")
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


def _random_multiset(rng: random.Random, ground: list[int], length: int) -> Sequence:
    return Sequence.from_indices(rng.choices(ground, k=length) if length else [])


def _run_trials(ctx, lemma, trials, seed, one_trial) -> LemmaReport:
    failures = 0
    counterexample = None
    generation_failures = 0
    trials_run = 0
    for i in range(trials):
        rng = _trial_rng(seed, i, lemma)
        outcome = one_trial(rng)
        if outcome == "generation-failed":
            generation_failures += 1
            continue
        trials_run += 1
        if outcome is not None:
            failures += 1
            counterexample = outcome
            break
    return LemmaReport(
        lemma=lemma,
        group=ctx.params.descriptor() if ctx is not None else None,
        trials=trials,
        trials_run=trials_run,
        failures=failures,
        counterexample=counterexample,
        generation_failures=generation_failures,
        seed=seed,
    )


def check_product_set_lemmas(ctx: GroupCtx, lemma_id: str, trials: int, seed: int = 0) -> LemmaReport:
    q, p, n = ctx.q, ctx.p, ctx.n
    non_identity = list(range(1, n))
    commutator_nontrivial = list(range(1, q))
    outside = list(range(q, n))

    if lemma_id == "outer-term-spread":

        def one_trial(rng: random.Random):
            length = rng.randrange(0, min(q + 2, 13))
            s_seq = _random_multiset(rng, commutator_nontrivial, length)
            g = rng.choice(outside)
            whole = s_seq.cat(Sequence.from_indices([g]))
            size = len(pi_set(ctx, whole))
            bound = min(q, len(whole))
            if size >= bound:
                return None
            return {"sequence": whole.format(ctx), "pi_size": size, "bound": bound}

    elif lemma_id == "outer-pair-spread":

        def one_trial(rng: random.Random):
            length = rng.randrange(0, (q + 1) // 2 + 2)
            s_seq = _random_multiset(rng, commutator_nontrivial, length)
            for _ in range(RETRY_CAP):
                g1, g2 = rng.choice(outside), rng.choice(outside)
                if (ctx.tau_degree_idx(g1) + ctx.tau_degree_idx(g2)) % p != 0:
                    break
            else:
                return "generation-failed"
            whole = s_seq.cat(Sequence.from_indices([g1, g2]))
            size = len(pi_set(ctx, whole))
            bound = min(q, 2 * length + 1)
            if size >= bound:
                return None
            return {"sequence": whole.format(ctx), "pi_size": size, "bound": bound}

    elif lemma_id == "full-support-spread":

        def one_trial(rng: random.Random):
            length = rng.randrange(2, 9)
            for _ in range(RETRY_CAP):
                s_seq = _random_multiset(rng, non_identity, length)
                if len(ctx.subgroup_generated_idx(set(s_seq.support()))) == n:
                    break
            else:
                return "generation-failed"
            size = len(pi_set(ctx, s_seq))
            bound = min(p, length)
            if size >= bound:
                return None
            return {"sequence": s_seq.format(ctx), "pi_size": size, "bound": bound}

    elif lemma_id == "closed-product-chain":
        class_of: dict[int, frozenset[int]] = {}
        for cls in ctx.conjugacy_classes():
            for idx in cls:
                class_of[idx] = cls

        def conj_closed(ps: ProductSet) -> bool:
            members = set(ps.indices())
            return all(class_of[i] <= members for i in members)

        def admissible(seq: Sequence, need_closed: bool) -> ProductSet | None:
            if len(seq) < 2:
                return None
            ps = pi_set(ctx, seq)
            if len(ps) < len(seq):
                return None
            if ps.mask & ~1 == 0:
                return None
            if need_closed and not conj_closed(ps):
                return None
            return ps

        def propose(rng: random.Random) -> Sequence:
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

        def one_trial(rng: random.Random):
            r = rng.randrange(1, 4)
            factors: list[Sequence] = []
            products: list[ProductSet] = []
            for i in range(r):
                need_closed = i < r - 1
                for _ in range(RETRY_CAP):
                    cand = propose(rng)
                    ps = admissible(cand, need_closed)
                    if ps is not None:
                        factors.append(cand)
                        products.append(ps)
                        break
                else:
                    return "generation-failed"
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
            if len(chained) < min(q - 1, total_pi) or len(chained) < min(q - 1, total_terms):
                record["violated"] = "lower bound"
                return record
            if total_terms >= q + 1 and len(chained) != q:
                record["violated"] = "saturation"
                return record
            return None

    else:
        raise ValueError(f"unknown product-set lemma {lemma_id!r}")

    return _run_trials(ctx, lemma_id, trials, seed, one_trial)


def shortest_product_one(ctx: GroupCtx, seq: Sequence) -> Sequence | None:
    """A shortest nonempty product-one subsequence of ``seq``, or None if it is product-one free."""
    lattice = _Lattice(ctx, seq, 1 << 22)
    best_state, best_len = -1, None
    for t in range(1, lattice.nstates):
        if lattice.reach[t] & 1:
            if best_len is None or lattice.lengths[t] < best_len:
                best_state, best_len = t, lattice.lengths[t]
    if best_state < 0:
        return None
    return lattice.seq_of(best_state)


def check_subsequence_lemmas(ctx: GroupCtx, lemma_id: str, trials: int, seed: int = 0) -> LemmaReport:
    q, p, n = ctx.q, ctx.p, ctx.n
    non_identity = list(range(1, n))

    if lemma_id == "short-window":
        base_len = q + 2 * p - 3

        def one_trial(rng: random.Random):
            length = base_len + rng.randrange(0, 3)
            s_seq = _random_multiset(rng, non_identity, length)
            found = shortest_product_one(ctx, s_seq)
            if found is not None and len(found) <= q and classify(ctx, found).product_one:
                return None
            return {
                "sequence": s_seq.format(ctx),
                "found": found.format(ctx) if found else None,
                "bound": q,
            }

    elif lemma_id == "coset-window":

        def one_trial(rng: random.Random):
            length = q + rng.randrange(0, 3)
            for _ in range(RETRY_CAP):
                s_seq = _random_multiset(rng, non_identity, length)
                degree = sum(ctx.tau_degree_idx(i) * m for i, m in s_seq.entries)
                if degree % p == 0:
                    break
            else:
                return "generation-failed"
            found = shortest_product_one(ctx, s_seq)
            if found is not None and classify(ctx, found).product_one:
                return None
            return {"sequence": s_seq.format(ctx), "found": None}

    else:
        raise ValueError(f"unknown subsequence lemma {lemma_id!r}")

    return _run_trials(ctx, lemma_id, trials, seed, one_trial)


def run_lemma(
    ctx: GroupCtx | None,
    lemma_id: str,
    trials: int,
    seed: int = 0,
    *,
    n: int | None = None,
    mode: str = "extremal",
) -> LemmaReport:
    """Dispatch a lemma suite by id; see module docstring for the catalogue."""
    if lemma_id == "cauchy-davenport":
        if ctx is None:
            raise ValueError("cauchy-davenport needs a group for its modulus")
        q = ctx.q

        def one_trial(rng: random.Random):
            a_set = set(rng.sample(range(q), rng.randrange(1, q + 1)))
            b_set = set(rng.sample(range(q), rng.randrange(1, q + 1)))
            return check_cauchy_davenport(q, a_set, b_set)

        return _run_trials(ctx, lemma_id, trials, seed, one_trial)
    if lemma_id == "cyclic-extremal":
        target = n if n is not None else (ctx.q if ctx is not None else None)
        if target is None:
            raise ValueError("cyclic-extremal needs n or a group")
        return check_cyclic_extremal(target, mode)
    if lemma_id in ("outer-term-spread", "outer-pair-spread", "full-support-spread", "closed-product-chain"):
        if ctx is None:
            raise ValueError(f"{lemma_id} needs a group")
        return check_product_set_lemmas(ctx, lemma_id, trials, seed)
    if lemma_id in ("short-window", "coset-window"):
        if ctx is None:
            raise ValueError(f"{lemma_id} needs a group")
        return check_subsequence_lemmas(ctx, lemma_id, trials, seed)
    raise ValueError(f"unknown lemma id {lemma_id!r}; known: {', '.join(LEMMA_IDS)}")


def recheck_counterexample(ctx: GroupCtx | None, lemma: str, record: dict) -> bool:
    """Re-verify a reported counterexample by direct recomputation."""
    if lemma == "cauchy-davenport":
        again = check_cauchy_davenport(record["q"], set(record["A"]), set(record["B"]))
        return again is not None
    if lemma == "cyclic-extremal":
        n_val = record["n"]
        seq = record.get("sequence")
        if seq is None:
            # A claim on the longest zero-sum-free length: re-run the scan.
            return check_cyclic_extremal(n_val, "extremal").counterexample == record
        mask = 0
        ok_zsf = True
        for v in seq:
            mask = mask | _rotate(mask, v, n_val) | (1 << v)
            if mask & 1:
                ok_zsf = False
        return ok_zsf
    if ctx is None:
        return False
    if lemma in ("outer-term-spread", "outer-pair-spread", "full-support-spread"):
        seq = Sequence.parse(ctx, record["sequence"])
        return len(pi_set(ctx, seq)) == record["pi_size"] and record["pi_size"] < record["bound"]
    if lemma == "closed-product-chain":
        factors = [Sequence.parse(ctx, text) for text in record["factors"]]
        chained = pi_set(ctx, factors[0])
        for f in factors[1:]:
            chained = chained.product(ctx, pi_set(ctx, f))
        return len(chained) == record["chain_size"]
    if lemma in ("short-window", "coset-window"):
        # Claimed failure means no qualifying subsequence exists; recompute.
        shortest = shortest_product_one(ctx, Sequence.parse(ctx, record["sequence"]))
        if lemma == "coset-window":
            return shortest is None
        return shortest is None or len(shortest) > record["bound"]
    return False
