import dataclasses
import json
import time

import pytest

from prodone import certificates, enumeration, invariants
from prodone.certificates import (
    check_certificate,
    certificate_to_json,
    make_certificate,
    parse_certificate,
    read_certificate,
    write_certificate,
)
from prodone.cli import main
from prodone.enumeration import (
    Shard,
    Stratum,
    StratumSpace,
    atom_search,
    checkpoint_record,
    classify_candidate,
    digest_add,
    digest_empty,
    digest_hex,
    make_shards,
)
from prodone.group import make_group
from prodone.invariants import (
    build_rho_witness,
    extremal_atoms_all,
    small_davenport,
    verify_inverse_theorem,
)
from prodone.oracles import MAX_CYCLIC_N, MAX_TRIALS, run_lemma
from prodone.sequences import Sequence, is_atom


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- certificate plumbing ------------------------------------------------------


def test_atom_certificate_round_trip(ctx372, tmp_path):
    seq = Sequence.parse(ctx372, "(0,1)^12,(1,0),(2,5)")
    verdict = is_atom(ctx372, seq)
    payload = {
        "sequence": seq.format(ctx372),
        "length": len(seq),
        "verdict": {"product_one": verdict.product_one, "atom": verdict.atom},
        "witness": None,
    }
    cert = make_certificate("atom", "3,7,2", payload)
    path = str(tmp_path / "atom.json")
    write_certificate(cert, path)
    loaded = read_certificate(path)
    assert loaded.digest == cert.digest
    result = check_certificate(loaded)
    assert result.ok, result.messages


def test_digest_ignores_timing(ctx372):
    payload = {"sequence": "(0,1)^7", "length": 7,
               "verdict": {"product_one": True, "atom": True}, "witness": None}
    one = make_certificate("atom", "3,7,2", payload, seed=5)
    two = make_certificate("atom", "3,7,2", payload, seed=5, wall_s=123.0)
    assert one.digest == two.digest
    body_one = json.loads(certificate_to_json(one))
    body_two = json.loads(certificate_to_json(two))
    body_one.pop("timing"), body_two.pop("timing")
    assert body_one == body_two


def test_certificate_digest_is_pinned():
    # The digest covers schema, kind, group, payload, seed and tool version as
    # canonical JSON; this value was computed before the body was shared with
    # certificate_to_json.
    payload = {"sequence": "(0,1)^12,(1,0),(2,5)", "length": 14,
               "verdict": {"product_one": True, "atom": True}, "witness": None}
    cert = make_certificate("atom", "3,7,2", payload, seed=0)
    assert cert.digest == "bfa3d3402754cb4c21b9424a69b55d9b3fdf05c18e61922c2fdc9768fe796269"
    body = json.loads(certificate_to_json(cert))
    assert sorted(body) == ["digest", "group", "kind", "payload", "schema", "seed", "timing",
                            "tool_version"]
    assert parse_certificate(json.dumps(body)).digest == cert.digest


def test_tampered_certificate_is_rejected(ctx372, tmp_path):
    payload = {"sequence": "(0,1)^7", "length": 7,
               "verdict": {"product_one": True, "atom": True}, "witness": None}
    cert = make_certificate("atom", "3,7,2", payload, seed=0)
    data = json.loads(certificate_to_json(cert))
    data["payload"]["sequence"] = "(0,2)^7"
    tampered = parse_certificate(json.dumps(data))
    result = check_certificate(tampered)
    assert not result.ok
    assert any("digest" in m for m in result.messages)


def test_wrong_claim_is_rejected(ctx372):
    # Correctly signed but mathematically false: flags that do not re-verify.
    payload = {"sequence": "(0,1)^6", "length": 6,
               "verdict": {"product_one": True, "atom": True}, "witness": None}
    cert = make_certificate("atom", "3,7,2", payload, seed=0)
    result = check_certificate(cert)
    assert not result.ok
    assert any("re-derived" in m for m in result.messages)


def test_non_atom_certificate_with_witness(ctx372):
    seq = Sequence.parse(ctx372, "(1,0),(2,0),(0,1),(0,6)")
    verdict = is_atom(ctx372, seq)
    payload = {
        "sequence": seq.format(ctx372),
        "length": len(seq),
        "verdict": {"product_one": True, "atom": False},
        "witness": [part.format(ctx372) for part in verdict.witness],
    }
    cert = make_certificate("non_atom", "3,7,2", payload)
    assert check_certificate(cert).ok


def _atom_payload(ctx, text):
    seq = Sequence.parse(ctx, text)
    verdict = is_atom(ctx, seq)
    witness = None if verdict.witness is None else [p.format(ctx) for p in verdict.witness]
    return {
        "sequence": seq.format(ctx),
        "length": len(seq),
        "verdict": {"product_one": verdict.product_one, "atom": verdict.atom},
        "witness": witness,
    }


ATOM_TEXT = "(0,1)^12,(1,0),(2,5)"
NON_ATOM_TEXT = "(1,0),(2,0),(0,1),(0,6)"


@pytest.mark.parametrize("kind, text, forge", [
    ("atom", ATOM_TEXT, lambda pl: pl["verdict"].update(product_one=False)),
    ("atom", ATOM_TEXT, lambda pl: pl["verdict"].update(atom=False)),
    ("atom", ATOM_TEXT, lambda pl: pl.update(length=13)),
    ("atom", NON_ATOM_TEXT, lambda pl: None),
    ("atom", ATOM_TEXT, lambda pl: pl.update(witness=[ATOM_TEXT, ATOM_TEXT])),
    ("non_atom", NON_ATOM_TEXT, lambda pl: pl["verdict"].update(product_one=False)),
    ("non_atom", NON_ATOM_TEXT, lambda pl: pl["verdict"].update(atom=True)),
    ("non_atom", ATOM_TEXT, lambda pl: None),
    ("non_atom", NON_ATOM_TEXT, lambda pl: pl.update(witness=["(0,1),(0,6)", "(0,2),(0,5)"])),
    ("non_atom", NON_ATOM_TEXT, lambda pl: pl.update(witness=["(0,1),(1,0)", "(0,6),(2,0)"])),
    ("non_atom", NON_ATOM_TEXT, lambda pl: pl.update(witness=["(0,1),(0,6)"])),
    ("non_atom", NON_ATOM_TEXT, lambda pl: pl["witness"].append("(0,1),(0,6)")),
    ("non_atom", NON_ATOM_TEXT, lambda pl: pl.update(witness=["", pl["sequence"]])),
    ("non_atom", NON_ATOM_TEXT, lambda pl: pl.update(witness=[1, 2])),
], ids=["atom-product-one-flip", "atom-atom-flip", "atom-length", "atom-kind-on-non-atom",
        "atom-witness-not-concatenating", "non-atom-product-one-flip", "non-atom-atom-flip",
        "non-atom-kind-on-atom", "witness-not-concatenating", "witness-part-not-product-one",
        "witness-one-part", "witness-three-parts", "witness-empty-part", "witness-not-text"])
def test_atom_certificate_forgeries_are_rejected(ctx372, kind, text, forge):
    payload = _atom_payload(ctx372, text)
    forge(payload)
    assert not check_certificate(make_certificate(kind, "3,7,2", payload)).ok


def test_atom_certificate_matrix_baselines_pass(ctx372):
    for kind, text in (("atom", ATOM_TEXT), ("non_atom", NON_ATOM_TEXT)):
        payload = _atom_payload(ctx372, text)
        outcome = check_certificate(make_certificate(kind, "3,7,2", payload))
        assert outcome.ok, outcome.messages


def _merge_first_long_factors(pl):
    first, second = pl["factors_long"][:2]
    pl["factors_long"][:2] = [f"{first},{second}"]
    pl["lengths"][1] -= 1


def _drop_long_factor(pl):
    pl["factors_long"].pop()
    pl["lengths"][1] -= 1


@pytest.mark.parametrize("forge", [
    lambda pl: pl.update(lengths=[pl["lengths"][0], pl["lengths"][1] + 1]),
    lambda pl: pl.update(lengths=pl["lengths"][::-1]),
    _drop_long_factor,
    _merge_first_long_factors,
    lambda pl: pl.update(product=pl["product"].replace("(0,1)^12", "(0,1)^11,(0,2)")),
], ids=["lengths", "lengths-swapped", "factor-dropped", "non-atom-factor", "product-changed"])
def test_elasticity_witness_forgeries_are_rejected(ctx372, forge):
    payload = build_rho_witness(ctx372, "rho3").to_payload(ctx372)
    forge(payload)
    assert not check_certificate(make_certificate("elasticity_witness", "3,7,2", payload)).ok


def test_davenport_small_certificate(ctx372):
    result = small_davenport(ctx372)
    cert = make_certificate("davenport_small", "3,7,2", result.to_payload(ctx372))
    outcome = check_certificate(cert)
    assert outcome.ok
    assert outcome.caveats == []  # the checker runs the DFS again


def _shift_value(payload, delta):
    payload["value"] += delta
    payload["refuted_length"] += delta


@pytest.mark.parametrize("forge", [
    lambda pl: _shift_value(pl, 1),
    lambda pl: _shift_value(pl, -1),
    lambda pl: pl.update(refuted_length=pl["value"]),
    lambda pl: pl.update(refuted_length=pl["value"] + 2),
    lambda pl: pl.update(extremal="(0,1)^5,(0,2),(1,0),(2,0)"),
    lambda pl: pl.update(extremal="(0,1)^6,(1,0)"),
    lambda pl: pl.update(nodes=-1),
    lambda pl: pl.update(nodes=0),
    lambda pl: pl.update(nodes=str(pl["nodes"])),
    lambda pl: pl.update(nodes=float(pl["nodes"])),
    lambda pl: pl.update(nodes=True),
    lambda pl: pl.pop("nodes"),
    lambda pl: pl.update(value=7, extremal="(0,1)^6,(1,0)", nodes=33222, refuted_length=8),
], ids=["value+1", "value-1", "refuted=value", "refuted=value+2", "extremal-product-one",
        "extremal-length", "nodes-negative", "nodes-zero", "nodes-str", "nodes-float",
        "nodes-bool", "nodes-missing", "understated-value"])
def test_davenport_small_forgeries_are_rejected(ctx372, forge):
    payload = small_davenport(ctx372).to_payload(ctx372)
    forge(payload)
    assert not check_certificate(make_certificate("davenport_small", "3,7,2", payload)).ok


def test_davenport_small_understated_value_is_rejected(ctx372):
    # Consistent in itself: a product-one-free sequence of the claimed length,
    # refuted length value + 1; but a^6 t is shorter than a^6 t^2.
    payload = {"value": 7, "extremal": "(0,1)^6,(1,0)", "nodes": 33222, "refuted_length": 8}
    outcome = check_certificate(make_certificate("davenport_small", "3,7,2", payload))
    assert not outcome.ok
    assert "value: 7 != re-derived 8" in outcome.messages


def test_davenport_small_genuine_values_pass_the_lower_bound():
    # The 3,13,3 payload as small_davenport emits it; the checker recounts
    # its 5,498,712 DFS nodes.
    payload = {"value": 14, "extremal": "(0,1)^12,(1,0)^2", "nodes": 5_498_712,
               "refuted_length": 15}
    outcome = check_certificate(make_certificate("davenport_small", "3,13,3", payload))
    assert outcome.ok, outcome.messages


def test_davenport_small_forged_extremal_is_product_one(ctx372):
    from prodone.sequences import classify

    assert classify(ctx372, Sequence.parse(ctx372, "(0,1)^5,(0,2),(1,0),(2,0)")).product_one


def test_elasticity_certificate(ctx372):
    witness = build_rho_witness(ctx372, "rho3")
    cert = make_certificate("elasticity_witness", "3,7,2", witness.to_payload(ctx372))
    assert check_certificate(cert).ok


def test_lemma_certificate(ctx372):
    report = run_lemma(ctx372, "cauchy-davenport", trials=50, seed=1)
    cert = make_certificate("lemma_report", "3,7,2", report.to_payload(), seed=1)
    outcome = check_certificate(cert)
    assert outcome.ok
    assert outcome.caveats == []  # the checker runs the seeded trials again


def test_lemma_report_claiming_more_trials_than_the_cap_fails_without_running_them(ctx372):
    payload = run_lemma(ctx372, "outer-term-spread", trials=5, seed=1).to_payload()
    payload["trials"] = 10**9
    started = time.perf_counter()
    outcome = check_certificate(make_certificate("lemma_report", "3,7,2", payload, seed=1))
    assert time.perf_counter() - started < 1.0
    assert not outcome.ok
    assert outcome.messages == [f"malformed payload: trials 1000000000 exceeds the cap of {MAX_TRIALS}"]


def test_cyclic_extremal_report_above_the_n_cap_fails_without_scanning(ctx372):
    payload = run_lemma(ctx372, "cyclic-extremal", trials=0).to_payload()
    payload["group"] = "C_1000001:extremal"
    started = time.perf_counter()
    outcome = check_certificate(make_certificate("lemma_report", "3,7,2", payload, seed=0))
    assert time.perf_counter() - started < 1.0
    assert not outcome.ok
    assert outcome.messages == [f"malformed payload: n 1000001 exceeds the cap of {MAX_CYCLIC_N}"]


def test_lemma_reports_at_the_cap_pass(ctx372):
    # A randomized suite at exactly MAX_TRIALS trials, and the exhaustive
    # cyclic-extremal scan, whose count of scanned sequences is not capped
    # (13,296 at n = 17).
    report = run_lemma(ctx372, "cauchy-davenport", trials=MAX_TRIALS, seed=1)
    assert check_certificate(make_certificate("lemma_report", "3,7,2", report.to_payload(), seed=1)).ok
    report = run_lemma(ctx372, "cyclic-extremal", trials=0, n=17)
    assert report.trials > MAX_TRIALS
    assert check_certificate(make_certificate("lemma_report", "3,7,2", report.to_payload(), seed=0)).ok


def _cauchy_davenport_payload(ctx372):
    return run_lemma(ctx372, "cauchy-davenport", trials=50, seed=1).to_payload()


def _cyclic_extremal_payload(ctx372):
    return run_lemma(ctx372, "cyclic-extremal", trials=0).to_payload()


def _trials_payload(lemma):
    """A factory for the five-trial report of ``lemma`` at seed 0, named after the lemma."""
    def make(ctx372):
        return run_lemma(ctx372, lemma, trials=5, seed=0).to_payload()

    make.__name__ = f"_{lemma.replace('-', '_')}_payload"
    return make


def _claims(record):
    """Forge the report into one failing trial with ``record`` as its counterexample."""
    return lambda pl: pl.update(failures=1, trials_run=1, counterexample=record)


def _forged(lemma, record, row_id):
    return pytest.param(_trials_payload(lemma), _claims(record), id=row_id)


_CHAIN_CLAIM = {"factors": ["(1,0),(2,0),(0,1)"], "chain_size": 3, "total_terms": 3,
                "total_pi_sizes": 3, "violated": "lower bound"}
_UNIT_CHAIN_CLAIM = {"factors": ["(0,1),(0,6)"], "chain_size": 1, "total_terms": 2,
                     "total_pi_sizes": 1, "violated": "lower bound"}


@pytest.mark.parametrize("make_payload,forge", [
    pytest.param(_cauchy_davenport_payload, lambda pl: pl.update(trials_run=pl["trials"] + 1),
                 id="trials-run-above-trials"),
    pytest.param(_cauchy_davenport_payload, lambda pl: pl.update(generation_failures=1),
                 id="run-plus-generation-above-trials"),
    pytest.param(_cauchy_davenport_payload, lambda pl: pl.update(lemma="no-such-lemma"),
                 id="unknown-lemma"),
    pytest.param(_cauchy_davenport_payload, lambda pl: pl.update(group="3,13,3"), id="group"),
    pytest.param(_cauchy_davenport_payload, lambda pl: pl.update(trials=float(pl["trials"])),
                 id="trials-float"),
    pytest.param(_cauchy_davenport_payload, lambda pl: pl.update(trials="50"), id="trials-str"),
    pytest.param(_cauchy_davenport_payload, lambda pl: pl.update(trials_run=True),
                 id="trials-run-bool"),
    pytest.param(_cauchy_davenport_payload, lambda pl: pl.update(failures=-1),
                 id="failures-negative"),
    pytest.param(_cauchy_davenport_payload, lambda pl: pl.pop("trials"), id="trials-missing"),
    pytest.param(_cauchy_davenport_payload, lambda pl: pl.update(failures=1),
                 id="failures-without-counterexample"),
    pytest.param(_cauchy_davenport_payload, lambda pl: pl.update(
        failures=0, counterexample={"q": 7, "A": [0], "B": [0], "sumset_size": 1, "bound": 1}),
        id="counterexample-without-failures"),
    pytest.param(_cauchy_davenport_payload, lambda pl: pl.update(
        failures=1, counterexample={"q": 7, "A": [0, 1], "B": [0, 1], "sumset_size": 2,
                                    "bound": 3}),
        id="fabricated-counterexample"),
    pytest.param(_cyclic_extremal_payload, lambda pl: pl.update(
        failures=1, counterexample={"n": 7, "max_zero_sum_free_length": 5, "expected": 6}),
        id="cyclic-structural-counterexample"),
    pytest.param(_cyclic_extremal_payload, lambda pl: pl.update(trials=pl["trials"] + 1),
                 id="cyclic-trials"),
    pytest.param(_cyclic_extremal_payload, lambda pl: pl.update(group="C_5:extremal"),
                 id="cyclic-other-n"),
    pytest.param(_cyclic_extremal_payload, lambda pl: pl.update(group="3,7,2"),
                 id="cyclic-group-not-cyclic"),
    pytest.param(_cyclic_extremal_payload, lambda pl: pl.update(notes=[]),
                 id="cyclic-notes-dropped"),
    # Claims whose measured values are not what the lemma's check measures.
    _forged("cauchy-davenport", {"q": 7, "A": [0, 1], "B": [0, 1], "sumset_size": 3, "bound": 3},
            "cauchy-davenport-bound-met"),
    _forged("cauchy-davenport", {"q": 4, "A": [0, 2], "B": [0, 2], "sumset_size": 2, "bound": 3},
            "cauchy-davenport-other-modulus"),
    _forged("outer-term-spread", {"sequence": "(1,0),(0,1)", "pi_size": 1, "bound": 2},
            "outer-term-spread-pi-size"),
    _forged("outer-term-spread", {"sequence": "(1,0),(0,1)", "pi_size": 2, "bound": 5},
            "outer-term-spread-bound"),
    _forged("closed-product-chain", _CHAIN_CLAIM, "closed-product-chain-no-violation"),
    # Instances that miss the lemma's hypotheses.
    _forged("cauchy-davenport", {"q": 7, "A": [0, 7], "B": [0], "sumset_size": 1, "bound": 2},
            "cauchy-davenport-outside-cq"),
    _forged("outer-term-spread", {"sequence": "(0,0)^3,(1,0)", "pi_size": 1, "bound": 4},
            "outer-term-spread-identity-terms"),
    _forged("outer-pair-spread", {"sequence": "(1,0),(0,1)", "pi_size": 2, "bound": 7},
            "outer-pair-spread-one-outer-term"),
    _forged("outer-pair-spread", {"sequence": "(0,1)^3,(1,0),(2,0)", "pi_size": 5, "bound": 7},
            "outer-pair-spread-degrees-cancel"),
    _forged("full-support-spread", {"sequence": "(0,1),(0,1)", "pi_size": 1, "bound": 2},
            "full-support-spread-support-in-a"),
    _forged("full-support-spread", {"sequence": "(0,0)^4,(0,1),(1,0)", "pi_size": 2, "bound": 3},
            "full-support-spread-identity-terms"),
    _forged("closed-product-chain", _UNIT_CHAIN_CLAIM, "closed-product-chain-trivial-factor"),
    _forged("short-window", {"sequence": "(0,1)", "found": None, "bound": 7},
            "short-window-one-term"),
    _forged("short-window", {"sequence": "(0,1)^6,(1,0)^2", "found": None, "bound": 7},
            "short-window-below-q+2p-3"),
    _forged("coset-window", {"sequence": "(0,1)", "found": None}, "coset-window-one-term"),
    _forged("coset-window", {"sequence": "(0,1)^6,(1,0)^2", "found": None},
            "coset-window-degree-not-0"),
])
def test_lemma_report_forgeries_are_rejected(ctx372, make_payload, forge):
    payload = make_payload(ctx372)
    seed = payload["seed"]
    forge(payload)
    assert not check_certificate(make_certificate("lemma_report", "3,7,2", payload, seed=seed)).ok


@pytest.mark.parametrize("make_payload", [_cauchy_davenport_payload, _cyclic_extremal_payload] + [
    _trials_payload(lemma) for lemma in ("outer-term-spread", "outer-pair-spread",
                                         "full-support-spread", "closed-product-chain",
                                         "short-window", "coset-window")
])
def test_lemma_report_matrix_baselines_pass(ctx372, make_payload):
    payload = make_payload(ctx372)
    outcome = check_certificate(make_certificate("lemma_report", "3,7,2", payload,
                                                 seed=payload["seed"]))
    assert outcome.ok, outcome.messages
    assert outcome.caveats == []  # the checker runs the suite again


def test_lemma_counterexample_from_the_check_re_verifies(ctx372, monkeypatch):
    # A check that demands one product more than the lemma does finds a
    # counterexample, and the checker accepts it because it runs that check.
    from prodone import oracles

    propose, check = oracles._SUITES["outer-term-spread"]

    def strict(ctx, seq):
        check(ctx, seq)
        return oracles._spread_record(ctx, seq, min(ctx.q, len(seq)) + 1)

    monkeypatch.setitem(oracles._SUITES, "outer-term-spread", (propose, strict))
    payload = run_lemma(ctx372, "outer-term-spread", trials=50, seed=0).to_payload()
    assert payload["failures"] == 1
    outcome = check_certificate(make_certificate("lemma_report", "3,7,2", payload, seed=0))
    assert outcome.ok, outcome.messages
    payload["counterexample"]["bound"] += 1
    assert not check_certificate(make_certificate("lemma_report", "3,7,2", payload, seed=0)).ok


def test_cli_check_cert_rejects_lemma_instance_outside_hypotheses(ctx372, capsys, tmp_path):
    payload = run_lemma(ctx372, "coset-window", trials=5, seed=0).to_payload()
    _claims({"sequence": "(0,1)^6,(1,0)^2", "found": None})(payload)
    path = str(tmp_path / "lemma.json")
    write_certificate(make_certificate("lemma_report", "3,7,2", payload, seed=0), path)
    code, out, _ = run_cli(capsys, "check-cert", path)
    assert code == 1
    assert not json.loads(out)["ok"]


def test_checkpoint_certificate(ctx372):
    stratum = Stratum(length=4, k=2)
    result = atom_search(ctx372, stratum)
    payload = checkpoint_record(
        ctx372, stratum, None, 0, result.counters, result.digest,
        [s.format(ctx372) for s in result.atoms],
        [s.format(ctx372) for s in result.unverified],
        result.last_rank, result.complete,
    )
    cert = make_certificate("checkpoint", "3,7,2", payload, seed=0)
    assert check_certificate(cert).ok


def _stratum_record(k, total, atoms, filtered_out, not_product_one=0):
    digest = digest_empty()
    for text in atoms:
        digest = digest_add(digest, text)
    checked = total - filtered_out
    counters = {
        "visited": total, "filtered_out": filtered_out, "checked": checked,
        "atoms": len(atoms), "non_atoms": checked - len(atoms) - not_product_one,
        "not_product_one": not_product_one,
        "unverified": 0,
        # A scan notes no route that settled nothing.
        "by_method": {"abelian" if k == 0 else "outer_pair": checked} if checked else {},
    }
    return {"k": k, "total": total, "counters": counters, "atoms": list(atoms),
            "unverified": [], "digest": digest_hex(digest)}


def _inverse_payload(ctx):
    """A k<=2 report at length 2q whose offline-checkable claims all hold, built without a scan."""
    forms = [form.sequence.format(ctx) for form in extremal_atoms_all(ctx)]
    length = 2 * ctx.q
    spaces = {k: StratumSpace(ctx, Stratum(length=length, k=k)) for k in (0, 1, 2)}
    strata = [
        _stratum_record(k, space.total, forms if k == 2 else [],
                        space.filtered_count(0, space.total),
                        space.total - space.zero_sum_count(0, space.total) if k == 0 else 0)
        for k, space in spaces.items()
    ]
    return {
        "group": ctx.params.descriptor(), "length": length, "scope": "k_le_2",
        "n_f": len(forms), "strata": strata, "matched": len(forms), "exceptions": [],
        "seed": 0, "atoms_found": len(forms), "verified": True,
    }


def _check_inverse(payload):
    return check_certificate(make_certificate("inverse_report", "3,7,2", payload, seed=0))


def test_inverse_report_checker_accepts_consistent_report(ctx372):
    # The checker scans every k<=2 stratum again, so no exhaustiveness caveat
    # remains; a report that lists a k>=3 stratum keeps it.
    payload = _inverse_payload(ctx372)
    outcome = _check_inverse(payload)
    assert outcome.ok, outcome.messages
    assert not any("exhaustiveness" in c for c in outcome.caveats)
    payload["scope"] = "full"
    payload["strata"].append(_stratum_record(3, 42, [], 42))
    outcome = _check_inverse(payload)
    assert not outcome.ok
    assert any("exhaustiveness of the k >= 3" in c for c in outcome.caveats)


def test_inverse_report_forged_stratum_size_is_rejected(ctx372):
    # A "full" report with one k=2 stratum that claims to be 42 multisets.
    payload = _inverse_payload(ctx372)
    payload["scope"] = "full"
    payload["strata"] = [_stratum_record(2, 42, payload["strata"][2]["atoms"], 0)]
    outcome = _check_inverse(payload)
    assert not outcome.ok
    # The k=0, 1 and 2 strata the full scope starts with are re-derived, so the
    # one-stratum list differs from them, and no record covers k=3.
    assert any(m.startswith("strata: ") and " != re-derived " in m for m in outcome.messages)
    assert any("k-set" in m for m in outcome.messages)


def _grow_k0_stratum(payload):
    stratum = payload["strata"][0]
    stratum["total"] += 1
    stratum["counters"]["visited"] += 1
    stratum["counters"]["filtered_out"] += 1


def _hide_unverified(payload):
    counters = payload["strata"][1]["counters"]
    counters["unverified"] += 1
    counters["checked"] += 1
    counters["filtered_out"] -= 1


def _full_cut_after_k3(payload):
    # A "full" report whose strata stop after a k=3 record that passes its
    # partial checks.
    space = StratumSpace(make_group(payload["group"]), Stratum(length=payload["length"], k=3))
    payload["scope"] = "full"
    payload["strata"].append(
        _stratum_record(3, space.total, [], space.filtered_count(0, space.total)))


@pytest.mark.parametrize("forge", [
    lambda pl: pl.update(length=pl["length"] + 2),
    lambda pl: pl.update(scope="k_le_1"),
    lambda pl: pl.update(scope="full"),
    _full_cut_after_k3,
    lambda pl: pl["strata"].pop(1),
    _grow_k0_stratum,
    lambda pl: pl.update(matched=pl["matched"] - 1),
    lambda pl: pl.update(atoms_found=pl["atoms_found"] + 1),
    lambda pl: pl.update(verified=False),
    _hide_unverified,
    lambda pl: pl["strata"][0]["unverified"].append("(0,1)^14"),
], ids=["length", "scope", "full-scope", "full-cut-after-k3", "missing-stratum", "total",
        "matched", "atoms_found", "verified", "unverified-counter", "unverified-list"])
def test_inverse_report_forgeries_are_rejected(ctx372, forge):
    payload = _inverse_payload(ctx372)
    forge(payload)
    assert not _check_inverse(payload).ok


def _shift_filtered(payload, delta):
    counters = payload["strata"][2]["counters"]
    counters["filtered_out"] += delta
    counters["checked"] -= delta
    counters["non_atoms"] -= delta


def test_inverse_report_forged_filter_count_is_rejected(ctx372):
    for delta in (1, -1):
        payload = _inverse_payload(ctx372)
        _shift_filtered(payload, delta)
        outcome = _check_inverse(payload)
        assert not outcome.ok
        assert any("filtered_out" in m for m in outcome.messages)


@pytest.fixture(scope="module")
def inverse_payload_11232():
    ctx = make_group("11,23,2")
    return verify_inverse_theorem(ctx, "k_le_2").to_payload()


@pytest.mark.parametrize("counter", ["atoms", "non_atoms", "not_product_one"])
def test_inverse_report_forged_k2_counter_at_11_23_2_is_rejected(inverse_payload_11232, counter):
    # A genuine report at a pair with p = 11, one k = 2 counter raised by one
    # and the certificate digested again: only the checker's re-scan can
    # catch it.
    payload = json.loads(json.dumps(inverse_payload_11232))
    assert check_certificate(make_certificate("inverse_report", "11,23,2", payload, seed=0)).ok
    payload["strata"][2]["counters"][counter] += 1
    outcome = check_certificate(make_certificate("inverse_report", "11,23,2", payload, seed=0))
    assert not outcome.ok
    assert any(m.startswith(f"strata[2].counters.{counter}: ") for m in outcome.messages)


def _checkpoint_payload(ctx, max_candidates=None, k=2, shard=None):
    """A scan of ``shard``, else of ranks [1000, 4000) labelled shard 1 of 3, of the stratum
    with ``k`` outer terms at length 2q, as atom_search records it."""
    stratum = Stratum(length=2 * ctx.q, k=k)
    shard = shard or Shard(index=1, n_shards=3, start_rank=1_000, end_rank=4_000)
    result = atom_search(ctx, stratum, shard=shard, max_candidates=max_candidates)
    return checkpoint_record(
        ctx, stratum, shard, 0, result.counters, result.digest,
        [s.format(ctx) for s in result.atoms], [s.format(ctx) for s in result.unverified],
        result.last_rank, result.complete,
    )


def _check_checkpoint(payload):
    return check_certificate(make_certificate("checkpoint", "3,7,2", payload, seed=0))


def test_checkpoint_checker_accepts_genuine_records(ctx372):
    complete = _check_checkpoint(_checkpoint_payload(ctx372))
    assert complete.ok, complete.messages
    partial = _check_checkpoint(_checkpoint_payload(ctx372, max_candidates=1_234))
    assert partial.ok, partial.messages
    assert any("partial" in c for c in partial.caveats)
    k0 = _check_checkpoint(_checkpoint_payload(ctx372, k=0))
    assert k0.ok, k0.messages


def test_checkpoint_shard_label_off_shard_at_is_a_caveat(ctx372):
    # Ranks [1000, 4000) are not shard 1 of 3 as shard_at cuts the stratum:
    # the record passes with a caveat, and shard_at's own shard 1 without it.
    outcome = _check_checkpoint(_checkpoint_payload(ctx372))
    assert outcome.ok, outcome.messages
    assert any("only the interval was checked" in c for c in outcome.caveats), outcome.caveats
    total = StratumSpace(ctx372, Stratum(length=2 * ctx372.q, k=2)).total
    outcome = _check_checkpoint(_checkpoint_payload(ctx372, shard=make_shards(total, 3)[1]))
    assert outcome.ok, outcome.messages
    assert outcome.caveats == []


def _raise_visits(payload, delta):
    payload["counters"]["visited"] += delta
    payload["counters"]["filtered_out"] += delta


def _shift_checkpoint_filter(payload, delta):
    counters = payload["counters"]
    counters["filtered_out"] += delta
    counters["checked"] -= delta
    counters["non_atoms"] -= delta


def _list_unverified(payload, text):
    payload["unverified"].append(text)
    payload["counters"]["unverified"] += 1
    payload["counters"]["non_atoms"] -= 1


def _shard_past_end(payload):
    total = 649_740
    payload["shard"].update(start_rank=total - 3_000, end_rank=total + 10)
    payload["last_rank"] = total + 9


@pytest.mark.parametrize("forge", [
    lambda pl: _raise_visits(pl, 500),
    lambda pl: _raise_visits(pl, -1),
    lambda pl: pl.update(last_rank=10**9),
    lambda pl: pl.update(last_rank=pl["last_rank"] - 1),
    lambda pl: pl.update(complete=False, last_rank=pl["last_rank"] - 7),
    lambda pl: _shift_checkpoint_filter(pl, 1),
    lambda pl: _shift_checkpoint_filter(pl, -1),
    lambda pl: _list_unverified(pl, "(0,1)^13"),
    lambda pl: _list_unverified(pl, "(0,1)^14"),
    lambda pl: _list_unverified(pl, "(0,1)^11,(1,0),(1,1),(2,0)"),
    _shard_past_end,
    lambda pl: pl["shard"].update(start_rank=5_000),
], ids=["visited+500", "visited-1", "last-rank-huge", "last-rank-short", "partial-visited",
        "filtered+1", "filtered-1", "unverified-length", "unverified-k0", "unverified-k3",
        "shard-past-end", "shard-reversed"])
def test_checkpoint_forgeries_are_rejected(ctx372, forge):
    payload = _checkpoint_payload(ctx372)
    forge(payload)
    assert not _check_checkpoint(payload).ok


def _move_k0_verdict(record):
    record["counters"]["non_atoms"] -= 1
    record["counters"]["not_product_one"] += 1


def _list_k0_atom(record):
    # A product-one k=0 content, listed with its counter, digest and accounting consistent.
    text = "(0,1)^7,(0,6)^7"
    record["atoms"].append(text)
    record["counters"]["atoms"] += 1
    record["counters"]["non_atoms"] -= 1
    record["digest"] = digest_hex(digest_add(int(record["digest"], 16), text))


@pytest.mark.parametrize("forge", [_move_k0_verdict, _list_k0_atom], ids=["moved", "atom"])
@pytest.mark.parametrize("kind", ["inverse_report", "checkpoint"])
def test_k0_verdict_forgeries_are_rejected(ctx372, kind, forge):
    # At length 14 > q every k=0 verdict is a sum count, which the checker recomputes.
    if kind == "checkpoint":
        payload = _checkpoint_payload(ctx372, k=0)
        forge(payload)
        outcome = _check_checkpoint(payload)
    else:
        payload = _inverse_payload(ctx372)
        forge(payload["strata"][0])
        outcome = _check_inverse(payload)
    assert not outcome.ok
    assert any("non_atoms: " in m and " != re-derived " in m for m in outcome.messages), outcome.messages


def _move_k2_verdict(record):
    # One non-atom recounted as not product-one: every accounting identity
    # still holds, and only a second scan shows the verdict is wrong.
    record["counters"]["non_atoms"] -= 1
    record["counters"]["not_product_one"] += 1


@pytest.mark.parametrize("kind", ["inverse_report", "checkpoint"])
def test_k2_verdict_forgeries_are_rejected(ctx372, kind):
    if kind == "checkpoint":
        payload = _checkpoint_payload(ctx372)
        _move_k2_verdict(payload)
        outcome = _check_checkpoint(payload)
    else:
        payload = _inverse_payload(ctx372)
        _move_k2_verdict(payload["strata"][2])
        outcome = _check_inverse(payload)
    assert not outcome.ok
    for name in ("non_atoms", "not_product_one"):
        assert any(f"{name}: " in m and " != re-derived " in m for m in outcome.messages), outcome.messages


@pytest.mark.parametrize("kind", ["inverse_report", "checkpoint"])
def test_k2_non_atom_listed_as_unverified_is_rejected(ctx372, kind):
    # A genuine non-atom of the scanned range moved to the unverified list,
    # with its counter moved to match: every accounting identity holds.  All
    # scans run with the same state cap, so the re-scan lists no candidate.
    space = StratumSpace(ctx372, Stratum(length=14, k=2))
    text = next(
        Sequence.from_indices(content).format(ctx372)
        for _, content in space.iter_range(1_000, 4_000)
        if space.passes_filters(content) and classify_candidate(ctx372, content)[0] == "non_atom"
    )
    if kind == "checkpoint":
        payload = _checkpoint_payload(ctx372)
        _list_unverified(payload, text)
        outcome = _check_checkpoint(payload)
    else:
        payload = _inverse_payload(ctx372)
        _list_unverified(payload["strata"][2], text)
        outcome = _check_inverse(payload)
    assert not outcome.ok
    assert any("unverified: " in m and " != re-derived " in m for m in outcome.messages), outcome.messages


def test_k2_checkpoint_is_scanned_again(ctx372):
    # A genuine k=2 window passes with no coverage caveat, and a record whose
    # atom list drops an atom (counter and digest kept consistent) fails.
    payload = _checkpoint_payload(ctx372, k=2)
    outcome = _check_checkpoint(payload)
    assert outcome.ok, outcome.messages
    assert not any("coverage" in c for c in outcome.caveats)
    stratum = Stratum(length=14, k=2)
    shard = Shard(index=0, n_shards=1, start_rank=0, end_rank=649_740)
    result = atom_search(ctx372, stratum, shard=shard)
    counters = result.counters
    counters.atoms -= 1
    counters.non_atoms += 1
    atoms = [s.format(ctx372) for s in result.atoms][1:]
    digest = digest_empty()
    for text in atoms:
        digest = digest_add(digest, text)
    payload = checkpoint_record(ctx372, stratum, shard, 0, counters, digest, atoms, [],
                                result.last_rank, True)
    outcome = _check_checkpoint(payload)
    assert not outcome.ok
    assert any(m.startswith("atoms: ") and " != re-derived " in m for m in outcome.messages), outcome.messages


def _float_counter(record):
    counters = record["counters"]
    counters["atoms"] = float(counters["atoms"])  # 42.0 in the inverse report's k=2 stratum


def _true_counter(record):
    # In the one-rank checkpoint the genuine value is 1, which a == comparison accepts.
    record["counters"]["visited"] = True


def _extra_counter(record):
    record["counters"]["bonus"] = 0


@pytest.mark.parametrize("forge", [_float_counter, _true_counter, _extra_counter],
                         ids=["float", "true", "extra-key"])
@pytest.mark.parametrize("target", ["checkpoint-k2", "inverse-k0", "inverse-k2"])
def test_k_le_2_counters_are_compared_type_exactly(ctx372, target, forge):
    if target == "checkpoint-k2":
        payload = _checkpoint_payload(ctx372, max_candidates=1)
        assert payload["counters"]["visited"] == 1
        forge(payload)
        outcome = _check_checkpoint(payload)
    else:
        payload = _inverse_payload(ctx372)
        forge(payload["strata"][0 if target == "inverse-k0" else 2])
        outcome = _check_inverse(payload)
    assert not outcome.ok
    assert any(" != re-derived " in m for m in outcome.messages), outcome.messages


def test_k_le_2_claim_runs_the_engine_once_per_atom(ctx372, ctx5113, monkeypatch):
    # Verifying confirms each listed atom by the engine's verdict on its Aut
    # orbit's representative, one call per orbit, (p - 1)/2 in all; checking
    # does the same in the re-scan, on a context of its own.
    calls = []
    real = is_atom

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (enumeration, invariants, certificates):
        monkeypatch.setattr(module, "is_atom", counted)
    for ctx, n_f, orbits in ((ctx372, 42, 1), (ctx5113, 220, 2)):
        calls.clear()
        report = verify_inverse_theorem(ctx, "k_le_2")
        assert report.n_f == report.matched == n_f and report.verified
        assert len(calls) == orbits
        calls.clear()
        cert = make_certificate("inverse_report", ctx.params.descriptor(), report.to_payload(),
                                seed=report.seed)
        outcome = check_certificate(cert)
        assert outcome.ok, outcome.messages
        assert len(calls) == orbits


def test_verify_inverse_reports_a_non_atom_form_as_not_verified(capsys, monkeypatch):
    # The realized family is not confirmed before the scan: a form that is not
    # an atom is never listed by the scan, so the claim fails with exit 1.
    real = invariants.extremal_atom

    def forged(ctx, x, y):
        form = real(ctx, x, y)
        if (x, y) != ((1, 0), (0, 1)):
            return form
        # y^[2q-2] . x . x has t-degree 2, so it is not product-one.
        seq = Sequence([(ctx.idx(y), 2 * ctx.q - 2), (ctx.idx(x), 2)])
        assert not is_atom(ctx, seq).atom
        return dataclasses.replace(form, sequence=seq)

    monkeypatch.setattr(invariants, "extremal_atom", forged)
    code, out, err = run_cli(capsys, "verify-inverse", "--group", "3,7,2", "--workers", "1")
    assert code == 1, err
    assert json.loads(out)["payload"]["verified"] is False
    assert "Traceback" not in err


def _window_payload(ctx, k):
    """Ranks [100, 2100) of the length-5 stratum with ``k`` outer terms, as atom_search records it."""
    stratum = Stratum(length=5, k=k)
    shard = Shard(index=0, n_shards=1, start_rank=100, end_rank=2_100)
    result = atom_search(ctx, stratum, shard=shard)
    return checkpoint_record(
        ctx, stratum, shard, 0, result.counters, result.digest,
        [s.format(ctx) for s in result.atoms], [s.format(ctx) for s in result.unverified],
        result.last_rank, result.complete,
    )


def _filter_five_checked(payload):
    # by_method keeps summing to checked, so only the recomputed filter count catches it.
    counters = payload["counters"]
    counters["filtered_out"] += 5
    counters["checked"] -= 5
    counters["non_atoms"] -= 5
    counters["by_method"]["dp"] -= 5


def _shift_by_method(payload):
    payload["counters"]["by_method"]["dp"] += 1


def _negative_counter(payload):
    counters = payload["counters"]
    counters["non_atoms"] += counters["not_product_one"] + 1
    counters["not_product_one"] = -1


@pytest.mark.parametrize("k", [3, None], ids=["k3", "kNone"])
def test_checkpoint_window_baselines_pass(ctx372, k):
    outcome = _check_checkpoint(_window_payload(ctx372, k))
    assert outcome.ok, outcome.messages


@pytest.mark.parametrize("forge,message", [
    (_filter_five_checked, "filtered_out"),
    (_shift_by_method, "by_method"),
    (_negative_counter, "non-negative"),
    (lambda pl: pl["counters"].update(atoms=float(pl["counters"]["atoms"])), "non-negative"),
], ids=["filtered+5", "by-method-sum", "negative", "non-int"])
@pytest.mark.parametrize("k", [3, None], ids=["k3", "kNone"])
def test_checkpoint_window_forgeries_are_rejected(ctx372, k, forge, message):
    payload = _window_payload(ctx372, k)
    forge(payload)
    outcome = _check_checkpoint(payload)
    assert not outcome.ok
    assert any(message in m for m in outcome.messages), outcome.messages


@pytest.mark.parametrize("part,field,value", [
    ("stratum", "length", 14.0),
    ("stratum", "k", 2.0),
    ("stratum", "exclude_identity", 1),
    ("stratum", "tau_residue", 0.0),
    ("shard", "index", 1.0),
    ("shard", "n_shards", 3.0),
    ("shard", "start_rank", 1_000.0),
    ("shard", "end_rank", 4_000.0),
    ("shard", "index", 3),
    ("shard", "index", -1),
])
def test_checkpoint_stratum_and_shard_fields_are_typed(ctx372, part, field, value):
    # The checker takes these fields from the claim, so each must have the
    # JSON type describe() writes: 2.0 scans like 2 and 1 like true, and the
    # re-derived record would echo the claimed value back.
    payload = _checkpoint_payload(ctx372)
    payload[part][field] = value
    outcome = _check_checkpoint(payload)
    assert not outcome.ok
    assert any(m.startswith("malformed payload: ") and part in m for m in outcome.messages), (
        outcome.messages)


def test_checkpoint_forged_partial_record_is_rejected(ctx372):
    payload = _checkpoint_payload(ctx372, max_candidates=1_234)
    payload["complete"] = True
    assert not _check_checkpoint(payload).ok


def test_checkpoint_unverified_list_must_match_counter(ctx372):
    stratum = Stratum(length=4, k=2)
    result = atom_search(ctx372, stratum)
    counters = result.counters
    counters.unverified += 1
    counters.non_atoms -= 1
    payload = checkpoint_record(
        ctx372, stratum, None, 0, counters, result.digest,
        [s.format(ctx372) for s in result.atoms], [], result.last_rank, result.complete,
    )
    outcome = check_certificate(make_certificate("checkpoint", "3,7,2", payload, seed=0))
    assert not outcome.ok
    assert "counters.unverified: 1 != re-derived 0" in outcome.messages, outcome.messages


# -- CLI ------------------------------------------------------------------------


def test_cli_group_census(capsys):
    code, out, _ = run_cli(capsys, "group", "--group", "3,7,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 21
    assert doc["order_census"] == {"1": 1, "3": 14, "7": 6}
    assert doc["center_size"] == 1


def test_cli_rejects_bad_group(capsys):
    code, _, err = run_cli(capsys, "group", "--group", "3,7,3")
    assert code == 2
    assert "order" in err


def test_cli_seq_check_atom(capsys, tmp_path):
    path = str(tmp_path / "cert.json")
    code, out, _ = run_cli(
        capsys, "seq", "check", "--group", "3,7,2",
        "--seq", "(0,1)^12,(1,0),(2,5)", "--emit-cert", path,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "atom"
    assert doc["payload"]["verdict"] == {"product_one": True, "atom": True}
    code, out, _ = run_cli(capsys, "check-cert", path)
    assert code == 0 and json.loads(out)["ok"]


def test_cli_seq_pi(capsys):
    code, out, _ = run_cli(capsys, "seq", "pi", "--group", "3,7,2", "--seq", "(1,0),(0,1)")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["pi"]) == ["(1,1)", "(1,2)"]
    assert doc["product_one"] is False


def test_cli_davenport_small(capsys):
    code, out, _ = run_cli(capsys, "davenport", "--group", "3,7,2", "--which", "small")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "davenport_small"
    assert doc["payload"]["value"] == 8


def test_cli_davenport_large_witness(capsys, tmp_path):
    for group, length in (("3,7,2", 14), ("3,13,3", 26)):
        path = str(tmp_path / f"large-{group}.json")
        code, out, _ = run_cli(
            capsys, "davenport", "--group", group, "--which", "large", "--emit-cert", path,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "atom" and doc["seed"] is None
        assert doc["payload"]["length"] == length and doc["payload"]["verdict"]["atom"]
        # The same certificate as seq check builds for the witness.
        _, again, _ = run_cli(capsys, "seq", "check", "--group", group,
                              "--seq", doc["payload"]["sequence"])
        assert json.loads(again)["digest"] == doc["digest"]
        code, out, _ = run_cli(capsys, "check-cert", path)
        assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize("mode", ["exhaustive_at_2q", "exhaustive_full"])
def test_cli_davenport_large_rejects_removed_modes(capsys, mode):
    with pytest.raises(SystemExit) as exit_info:
        main(["davenport", "--group", "3,7,2", "--which", "large", "--mode", mode])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == "" and "--mode" in captured.err


@pytest.mark.parametrize("argv,flag", [
    (["search", "--group", "3,7,2", "--length", "2", "--seed", "1"], "--seed"),
    (["search", "--group", "3,7,2", "--length", "2", "--heuristic-tries", "0"],
     "--heuristic-tries"),
    (["verify-inverse", "--group", "3,7,2", "--seed", "1"], "--seed"),
    (["davenport", "--group", "3,7,2", "--which", "small", "--seed", "1"], "--seed"),
    (["davenport", "--group", "3,7,2", "--which", "large", "--mode", "lower_witness"],
     "--mode"),
    (["elasticity", "--group", "3,7,2", "--k", "2", "--seed", "1"], "--seed"),
    (["search", "--group", "3,7,2", "--length", "14", "--k", "2", "--mode", "up_to_aut"],
     "--mode"),
    (["davenport", "--group", "3,7,2", "--which", "small", "--workers", "2"], "--workers"),
], ids=["search-seed", "search-heuristic-tries", "verify-inverse-seed", "davenport-seed",
        "davenport-mode", "elasticity-seed", "search-mode", "davenport-workers"])
def test_cli_rejects_removed_scan_flags(capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == "" and flag in captured.err


def test_cli_search_small_stratum(capsys, tmp_path):
    path = str(tmp_path / "search.json")
    code, out, _ = run_cli(
        capsys, "search", "--group", "3,7,2", "--length", "2",
        "--emit-cert", path,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "checkpoint"
    assert doc["payload"]["counters"]["atoms"] == 10
    code, out, _ = run_cli(capsys, "check-cert", path)
    assert code == 0


def test_cli_search_rejects_bad_shard_plan(capsys):
    for plan in (("--shards", "2", "--shard-index", "5"),
                 ("--shards", "2", "--shard-index", "-1"),
                 ("--shards", "0")):
        code, out, err = run_cli(capsys, "search", "--group", "3,7,2", "--length", "2", *plan)
        assert code == 2, plan
        assert out == ""
        assert "--shard" in err and "Traceback" not in err


def test_cli_sharded_scan_has_at_most_one_shard_per_rank(capsys):
    # No shard may be empty: total + 1 shards are refused before any is built,
    # and total shards of one rank each merge to the one-shard scan.
    total = StratumSpace(make_group("3,7,2"), Stratum(length=2)).total
    search = ("search", "--group", "3,7,2", "--length", "2", "--workers", "1")
    code, out, err = run_cli(capsys, *search, "--shards", str(total + 1))
    assert code == 2 and out == ""
    assert "--shards" in err and "Traceback" not in err
    payloads = []
    for n in (1, total):
        code, out, err = run_cli(capsys, *search, "--shards", str(n))
        assert code == 0, err
        payloads.append(json.loads(out)["payload"])
    one, many = payloads
    assert many["counters"] == one["counters"] and many["digest"] == one["digest"]
    assert many["atoms"] == one["atoms"]
    # verify-inverse shards each stratum by the same rule; its k=0 stratum has 11,628 ranks.
    for n in ("0", "11629"):
        code, out, err = run_cli(capsys, "verify-inverse", "--group", "3,7,2", "--workers", "1",
                                 "--shards", n)
        assert code == 2 and out == ""
        assert "--shards" in err and "Traceback" not in err


def test_cli_search_shard_index_matches_make_shards(capsys):
    # The CLI computes one shard's bounds; they must be make_shards' entry.
    total = StratumSpace(make_group("3,7,2"), Stratum(length=2, k=2)).total
    for n in range(1, 41):
        shards = make_shards(total, n)
        assert sum(s.end_rank - s.start_rank for s in shards) == total
        for i in range(n):
            code, out, _ = run_cli(capsys, "search", "--group", "3,7,2", "--length", "2",
                                   "--k", "2", "--shards", str(n), "--shard-index", str(i))
            assert code == 0
            assert json.loads(out)["payload"]["shard"] == shards[i].describe(), (n, i)


def test_cli_search_shard_index_builds_no_shard_list(capsys, tmp_path, monkeypatch):
    # 10**12 shards of the 210 ranks at length 2: shard 3 is rank 3 alone, and
    # no list of 10**12 records is built to find it.
    def refuse(*args):
        raise AssertionError("make_shards called for one shard")

    monkeypatch.setattr(enumeration, "make_shards", refuse)
    path = str(tmp_path / "shard.json")
    code, out, err = run_cli(capsys, "search", "--group", "3,7,2", "--length", "2",
                             "--shards", str(10**12), "--shard-index", "3", "--emit-cert", path)
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert payload["shard"] == {"index": 3, "n_shards": 10**12, "start_rank": 3, "end_rank": 4}
    assert payload["counters"]["visited"] == 1 and payload["complete"]
    code, _, _ = run_cli(capsys, "check-cert", path)
    assert code == 0


def test_cli_search_rejects_checkpoint_outside_the_shard(capsys, tmp_path, monkeypatch):
    # Resuming after rank 10**9 of 31,360 would report ranks it never scanned
    # as a complete scan.
    monkeypatch.chdir(tmp_path)
    search = ("search", "--group", "3,7,2", "--length", "6", "--k", "3", "--checkpoint", "ck.json")
    code, _, _ = run_cli(capsys, *search, "--max-candidates", "100")
    assert code == 1
    record = json.loads((tmp_path / "ck.json").read_text())
    record["last_rank"] = 10**9
    (tmp_path / "ck.json").write_text(json.dumps(record))
    code, out, err = run_cli(capsys, *search)
    assert code == 2
    assert out == "" and "last rank" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (("--length", "-3"), "--length"),
    (("--length", "0"), "--length"),
    (("--length", "6", "--k", "-1"), "--k"),
    (("--length", "6", "--k", "9"), "--k"),
    (("--length", "6", "--max-candidates", "0"), "--max-candidates"),
    (("--length", "6", "--max-candidates", "-5"), "--max-candidates"),
], ids=["length-negative", "length-zero", "k-negative", "k-above-length",
        "max-candidates-zero", "max-candidates-negative"])
def test_cli_search_rejects_bad_bounds(capsys, tmp_path, monkeypatch, argv, flag):
    # An out-of-range bound must not yield a certificate over no ranks or an
    # empty checkpoint.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "search", "--group", "3,7,2", *argv,
                             "--checkpoint", "ck.json")
    assert code == 2
    assert out == "" and flag in err and "Traceback" not in err
    assert not (tmp_path / "ck.json").exists()


@pytest.mark.parametrize("limit", [("--checkpoint", "ck.json"), ("--max-candidates", "10")],
                         ids=["checkpoint", "max-candidates"])
def test_cli_search_sharded_run_rejects_limits(capsys, tmp_path, monkeypatch, limit):
    # run_sharded takes neither limit, so without --shard-index it would scan everything.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "search", "--group", "3,7,2", "--length", "5", "--k", "1",
                             "--shards", "2", *limit)
    assert code == 2
    assert out == "" and limit[0] in err and "Traceback" not in err
    assert not (tmp_path / "ck.json").exists()


@pytest.mark.parametrize("plan", [(), ("--shards", "1"), ("--shards", "2", "--shard-index", "0")],
                         ids=["no-shards", "one-shard", "shard-index"])
def test_cli_search_rejects_workers_without_a_pool(capsys, plan):
    # Only run_sharded runs a pool; elsewhere --workers 2 would change nothing.
    search = ("search", "--group", "3,7,2", "--length", "6", "--k", "3", *plan)
    code, out, err = run_cli(capsys, *search, "--workers", "2")
    assert code == 2
    assert out == "" and "--workers" in err
    code, _, _ = run_cli(capsys, *search, "--workers", "1")
    assert code == 0


def test_cli_rejects_bad_worker_count(capsys, monkeypatch):
    search = ("search", "--group", "3,7,2", "--length", "2", "--shards", "2")
    for workers in ("0", "-3"):
        code, out, err = run_cli(capsys, *search, "--workers", workers)
        assert code == 2, workers
        assert out == "" and "--workers" in err
    monkeypatch.setenv("PRODONE_THREADS", "abc")
    for argv in (search, ("verify-inverse", "--group", "3,7,2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "PRODONE_THREADS" in err


def test_cli_lemmas(capsys):
    code, out, _ = run_cli(
        capsys, "lemmas", "--group", "3,7,2", "--lemma", "cauchy-davenport",
        "--trials", "100", "--seed", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["failures"] == 0


def test_cli_lemmas_rejects_negative_trials(capsys):
    code, out, err = run_cli(
        capsys, "lemmas", "--group", "3,7,2", "--lemma", "cauchy-davenport", "--trials", "-3",
    )
    assert code == 2
    assert out == "" and "--trials" in err


def test_cli_lemmas_rejects_trials_above_the_cap(capsys):
    code, out, err = run_cli(
        capsys, "lemmas", "--group", "3,7,2", "--lemma", "cauchy-davenport",
        "--trials", str(MAX_TRIALS + 1),
    )
    assert code == 2
    assert out == "" and "--trials" in err and str(MAX_TRIALS) in err


@pytest.mark.parametrize("argv", [("--group", "3,97,35"), ("--group", "3,7,2", "--n", "33")],
                         ids=["default-n-is-q", "explicit-n"])
def test_cli_lemmas_rejects_cyclic_n_above_the_cap(capsys, argv):
    code, out, err = run_cli(capsys, "lemmas", "--lemma", "cyclic-extremal", *argv)
    assert code == 2
    assert out == "" and "--n" in err and str(MAX_CYCLIC_N) in err


def test_cli_elasticity(capsys, tmp_path):
    path = str(tmp_path / "rho2.json")
    code, out, _ = run_cli(
        capsys, "elasticity", "--group", "3,7,2", "--k", "2", "--emit-cert", path,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["calculator"]["rho_even"] == 14
    assert doc["calculator"]["rho_odd_bounds"] == [16, 20]
    assert doc["witness_certificate"]["payload"]["lengths"] == [2, 14]
    code, _, _ = run_cli(capsys, "check-cert", path)
    assert code == 0


@pytest.mark.parametrize("argv, flag", [
    (("--k", "0"), "--k"),
    (("--k", "-3"), "--k"),
    (("--k", "2", "--uk", "--uk-max-products", "0"), "--uk-max-products"),
    (("--k", "2", "--uk", "--uk-max-products", "-1"), "--uk-max-products"),
], ids=["k-zero", "k-negative", "uk-max-products-zero", "uk-max-products-negative"])
def test_cli_elasticity_rejects_bad_bounds(capsys, argv, flag):
    # --k 0 must not print the K=1 table, nor a zero budget an empty union.
    code, out, err = run_cli(capsys, "elasticity", "--group", "3,7,2", *argv)
    assert code == 2
    assert out == "" and flag in err and "Traceback" not in err


def test_worker_count_env_override(monkeypatch):
    from prodone.enumeration import resolve_workers

    monkeypatch.setattr("os.cpu_count", lambda: 8)
    monkeypatch.delenv("PRODONE_THREADS", raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv("PRODONE_THREADS", "6")
    assert resolve_workers() == 6
    monkeypatch.setenv("PRODONE_THREADS", "64")
    assert resolve_workers() == 8
    for bogus in ("bogus", "0", "-2", "1.5"):
        monkeypatch.setenv("PRODONE_THREADS", bogus)
        with pytest.raises(ValueError, match="PRODONE_THREADS"):
            resolve_workers()


def test_cli_tampered_cert_exits_one(capsys, tmp_path):
    path = str(tmp_path / "cert.json")
    run_cli(capsys, "seq", "check", "--group", "3,7,2", "--seq", "(0,1)^7",
            "--emit-cert", path)
    with open(path) as handle:
        data = json.load(handle)
    data["payload"]["length"] = 8
    with open(path, "w") as handle:
        json.dump(data, handle)
    code, out, _ = run_cli(capsys, "check-cert", path)
    assert code == 1
    assert not json.loads(out)["ok"]
