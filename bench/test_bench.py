"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import re
import unittest
from pathlib import Path
from unittest import mock

import run
import tracing
import workloads as wl
from prodone.enumeration import Shard, Stratum, StratumSpace
from prodone.sequences import Sequence

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def inverse_payload() -> dict:
    """A k<=2 report at 3,7,2 carrying the expected facts."""
    ctx = wl.make_group("3,7,2")
    atoms = sorted(wl.extremal_texts(ctx))

    def stratum(k, found):
        counters = {"checked": 1, "visited": wl.INVERSE_TOTALS[k]}
        digest = wl.INVERSE_K2_DIGEST if k == 2 else "0" * 64
        return {"k": k, "total": wl.INVERSE_TOTALS[k], "counters": counters,
                "atoms": found, "unverified": [], "digest": digest}

    return {"verified": True, "n_f": 42, "matched": 42, "exceptions": [],
            "strata": [stratum(0, []), stratum(1, []), stratum(2, atoms)]}


class CheckTests(unittest.TestCase):
    def test_inverse_check_accepts_seed_state_and_rejects_tampered_digest(self):
        payload = inverse_payload()
        self.assertEqual(wl.check_inverse(payload), ([], 0))
        payload["strata"][2]["digest"] = "f" + wl.INVERSE_K2_DIGEST[1:]
        problems, failed = wl.check_inverse(payload)
        self.assertTrue(problems)
        self.assertGreaterEqual(failed, 1)

    def test_inverse_check_rejects_wrong_stratum_total(self):
        payload = inverse_payload()
        payload["strata"][1]["total"] -= 1
        problems, failed = wl.check_inverse(payload)
        self.assertTrue(problems)
        self.assertGreaterEqual(failed, 1)

    def test_davenport_check_rejects_value_13(self):
        ctx = wl.make_group("3,13,3")
        free = Sequence([(1, 12), (ctx.idx((1, 0)), 2)])
        self.assertEqual(wl.check_davenport(ctx, 14, free, wl.DAVENPORT_NODES), [])
        shorter = Sequence([(1, 12), (ctx.idx((1, 0)), 1)])
        self.assertTrue(wl.check_davenport(ctx, 13, shorter, wl.DAVENPORT_NODES))

    def test_window_check_rejects_atom_outside_extremal_set(self):
        ctx = wl.make_group("5,11,3")
        extremal = wl.extremal_texts(ctx)
        payload = {"atoms": [], "unverified": [], "complete": True,
                   "counters": {"visited": 10}, "shard": {"start_rank": 0}}
        self.assertEqual(wl.check_window(payload, extremal, 10), ([], 0))
        payload["atoms"] = ["(0,1)^20,(1,0),(4,0)"]
        problems, failed = wl.check_window(payload, extremal, 10)
        self.assertTrue(problems)
        self.assertEqual(failed, 1)


class PlanTests(unittest.TestCase):
    def test_same_seed_same_windows_other_seed_other_windows(self):
        total = StratumSpace(wl.make_group("5,11,3"), Stratum(length=22, k=2)).total
        first = wl.plan_windows(total, 1, 40)
        self.assertEqual(first, wl.plan_windows(total, 1, 40))
        self.assertNotEqual(first, wl.plan_windows(total, 2, 40))
        for shard in first:
            self.assertLessEqual(shard.end_rank, total)
            self.assertEqual(shard.end_rank - shard.start_rank, wl.WINDOW_RANKS)

    def test_pool_refuses_more_workers_than_cores_without_starting_any(self):
        ctx = wl.make_group("3,7,2")
        with mock.patch.object(wl, "run_sharded") as sharded:
            with self.assertRaises(ValueError):
                wl.pool_scan(ctx, Stratum(length=14, k=2), (os.cpu_count() or 1) + 1)
        sharded.assert_not_called()


class MetricNameTests(unittest.TestCase):
    def test_names_are_well_formed_and_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for name, _ in run.END_TO_END + tracing.PER_LAYER:
            self.assertRegex(name, NAME)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], [n for n, _ in run.END_TO_END])
        self.assertEqual([m["name"] for m in spec["per_layer"]], [n for n, _ in tracing.PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(run.WORKLOADS, wl.WORKLOADS)


class TracerTests(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tr = tracing.Tracer()
        outer = tr.begin("outer")
        inner = tr.begin("inner")
        tr.finish(inner)
        tr.finish(outer, rename="renamed")
        summary = tr.summary()
        calls, total, own = summary["renamed"]
        self.assertEqual(calls, 1)
        self.assertAlmostEqual(total - own, summary["inner"][1])
        self.assertEqual(tr.parent[inner], outer)

    def test_traced_scan_reproduces_atom_search(self):
        ctx = wl.warm_group("3,7,2")
        stratum = Stratum(length=14, k=2)
        # The first ranks hold narrow lattices, which go straight to the DP.
        shard = Shard(index=0, n_shards=1, start_rank=0, end_rank=3000)
        reference = wl.atom_search(ctx, stratum, shard=shard)
        tr = tracing.Tracer()
        with tracing.instrumented(tr, ctx):
            counters, digest, _, _, _ = tracing.traced_scan(
                tr, ctx, stratum, shard.start_rank, shard.end_rank)
        self.assertEqual(counters.to_dict(), reference.counters.to_dict())
        self.assertEqual(digest, reference.digest_hex)
        self.assertGreater(tr.shift_calls, 0)
        self.assertNotIn("shift_mask", vars(ctx))


if __name__ == "__main__":
    unittest.main()
