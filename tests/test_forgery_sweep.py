"""Every single-leaf forgery of a genuine certificate must fail ``check_certificate``.

Genuine certificates of every kind are made by the CLI at 3,7,2.  Each
payload leaf, and the first two entries of each list, is changed in turn
(int + 1, int to float, bool flipped, string + "0", list shortened or
extended, null to 0), as is the certificate's own ``seed``; the digest is
then recomputed, so only the checker's re-derivation can catch the change.
"""

import contextlib
import copy
import dataclasses
import io

import pytest

from prodone.certificates import check_certificate, compute_digest, read_certificate
from prodone.cli import main

PRODUCERS = {
    "inverse_k_le_2": ["verify-inverse", "--workers", "1"],
    "checkpoint_len4_k2": ["search", "--length", "4", "--k", "2"],
    "checkpoint_len5_k3": ["search", "--length", "5", "--k", "3"],
    "checkpoint_len3_kNone": ["search", "--length", "3"],
    "davenport_small": ["davenport", "--which", "small"],
    "davenport_large": ["davenport", "--which", "large"],
    "non_atom": ["seq", "check", "--seq", "(0,1),(0,6),(1,0),(2,0)"],
    "rho3": ["elasticity", "--k", "3"],
    "cauchy_davenport": ["lemmas", "--lemma", "cauchy-davenport", "--trials", "50", "--seed", "3"],
    "cyclic_extremal": ["lemmas", "--lemma", "cyclic-extremal"],
}


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    folder = tmp_path_factory.mktemp("certs")
    certs = {}
    for name, argv in PRODUCERS.items():
        path = str(folder / f"{name}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            main([*argv, "--group", "3,7,2", "--emit-cert", path])
        certs[name] = read_certificate(path)
    return certs


def _mutations(value):
    """(label, new value) for each change of the one leaf ``value``."""
    if type(value) is bool:
        yield "flipped", not value
    elif type(value) is int:
        yield "+1", value + 1
        yield "as float", float(value)
    elif type(value) is str:
        yield '+"0"', value + "0"
    elif value is None:
        yield "0 for null", 0
    elif type(value) is list:
        if value:
            yield "shortened", value[:-1]
        yield "extended", value + value[-1:] if value else [0]


def _leaves(value, path=()):
    """(path, value) for every dict entry below ``value`` and each list's first two entries."""
    if type(value) is dict:
        children = value.items()
    elif type(value) is list:
        children = enumerate(value[:2])
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from _leaves(child, path + (key,))


def _name(path):
    return "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path).lstrip(".")


def _forgeries(cert):
    """(path, label, forged certificate) for every single-leaf change, digest recomputed."""
    def redigest(**changes):
        forged = dataclasses.replace(cert, **changes)
        return dataclasses.replace(forged, digest=compute_digest(forged))

    for label, seed in [*_mutations(cert.seed), ("x", "x")]:
        yield "certificate seed", label, redigest(seed=seed)
    for path, value in _leaves(cert.payload):
        for label, new in _mutations(value):
            payload = copy.deepcopy(cert.payload)
            node = payload
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = new
            yield _name(path), label, redigest(payload=payload)


@pytest.mark.parametrize("name", PRODUCERS)
def test_every_single_leaf_forgery_is_rejected(genuine, name):
    cert = genuine[name]
    outcome = check_certificate(cert)
    assert outcome.ok, outcome.messages
    accepted, tried = [], 0
    for path, label, forged in _forgeries(cert):
        tried += 1
        if check_certificate(forged).ok:
            accepted.append(f"{path} {label}")
    assert tried > 5
    assert accepted == [], accepted
