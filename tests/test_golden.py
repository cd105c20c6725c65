"""Golden outputs: colorings and serialized traces on a fixed corpus.

Each entry pins the sha256 of one colorer's output on one graph, taken over
the coloring's color list and the serialized audit trace.  A change to any
color, step, set or number shows up as a digest mismatch, so refactors of
the colorers must keep these byte-identical (or say why they changed).

The corpus: the first 20 sampled members of order 9 per colorer class, the
tightness witnesses, and every graph in test_colorers.py that reaches a
named branch, each colored by every colorer whose class admits it.  The
larger kite witnesses (joins of three and four Grotzsch graphs, the Schlafli
complement, and its join with one Grotzsch graph) are colored by the
KiteFree colorer only, the colorer whose bound they are tight for.

Two more digests pin the membership-preserving walks: the hunt results of
every colorer class at order 16, and mutate_within_class runs from the
Grotzsch graph and the Schlafli complement.
"""

import hashlib
import json
from pathlib import Path

import pytest

from chibound import (
    COLORERS,
    Graph,
    ProofTrace,
    SampleConfig,
    SampleExhausted,
    class_by_name,
    complete,
    disjoint_union,
    hunt,
    is_member,
    mutate_within_class,
    named_graph,
    sample_class,
    write_graph6,
)
from chibound.generators import extremal_family

SAMPLES_PER_CLASS = 20

# K4 on 0..3 with a tail 0-4-5.
CLIQUE_NBHD = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5)])


def _sampled() -> dict[str, Graph]:
    out = {}
    for cls in COLORERS:
        p = 0.25 if cls == "K4Free" else 0.5
        seed = 0
        found = 0
        while found < SAMPLES_PER_CLASS:
            cfg = SampleConfig(n=9, p=p, seed=seed, class_name=cls, max_tries=300)
            try:
                out[f"sample-{cls}-{seed}/{cls}"] = sample_class(cfg)
                found += 1
            except SampleExhausted:
                pass
            seed += 1
    return out


def _fixed() -> dict[str, Graph]:
    graphs = {
        "grotzsch": named_graph("grotzsch"),
        "schlafli_complement": named_graph("schlafli_complement"),
        "kite-even-2": extremal_family("kite-even", 2),
        "hammer-split-seed-10": sample_class(
            SampleConfig(n=9, p=0.5, seed=10, class_name="KiteFree")
        ),
        "k3-plus-k2": disjoint_union(complete(3), complete(2)),
        "2k3": named_graph("2k3"),
        "clique-nbhd": CLIQUE_NBHD,
    }
    out = {}
    for name, g in graphs.items():
        for cls in COLORERS:
            if is_member(g, class_by_name(cls)):
                out[f"{name}/{cls}"] = g
    return out


def _kite_witnesses() -> dict[str, Graph]:
    families = (("kite-even", 3), ("kite-even", 4), ("kite-odd", 1), ("kite-odd", 2))
    return {f"{f}-{k}/KiteFree": extremal_family(f, k) for f, k in families}


CASES: dict[str, Graph] = {**_sampled(), **_fixed(), **_kite_witnesses()}


def _digest(colors, trace: ProofTrace) -> str:
    h = hashlib.sha256()
    h.update(",".join(map(str, colors)).encode())
    h.update(b"\n")
    h.update(trace.serialize().encode())
    return h.hexdigest()


def case_digest(key: str) -> str:
    g = CASES[key]
    coloring, trace = COLORERS[key.rsplit("/", 1)[1]](g)
    return _digest(coloring.colors, trace)


def hunt_walks_digest() -> str:
    """hunt(C, 16, 200, s) for every colorer class C and s in {1, 2}."""
    h = hashlib.sha256()
    for cls in sorted(COLORERS):
        for seed in (1, 2):
            r = hunt(cls, 16, 200, seed)
            line = (write_graph6(r.graph), r.chi, r.omega, r.evaluations)
            h.update(repr(line).encode() + b"\n")
    return h.hexdigest()


def mutate_walks_digest() -> str:
    """40 in-class toggles from two witnesses, in two classes, seeds 0-4."""
    h = hashlib.sha256()
    for name in ("grotzsch", "schlafli_complement"):
        g = named_graph(name)
        for cls in ("KiteFree", "K4Free"):
            for seed in range(5):
                out = mutate_within_class(g, cls, 40, seed)
                h.update(write_graph6(out).encode() + b"\n")
    return h.hexdigest()


GOLDEN: dict[str, str] = json.loads(
    (Path(__file__).parent / "golden_digests.json").read_text()
)
WALK_DIGESTS = {"hunt-walks": hunt_walks_digest, "mutate-walks": mutate_walks_digest}


def test_corpus_matches_golden_keys():
    assert sorted(CASES) == sorted(k for k in GOLDEN if k not in WALK_DIGESTS)


@pytest.mark.parametrize("key", sorted(CASES))
def test_golden_digest(key):
    assert case_digest(key) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(WALK_DIGESTS))
def test_walk_digest(key):
    assert WALK_DIGESTS[key]() == GOLDEN[key]
