"""Golden trajectories: seeded explorations must not change.

A speed-up of the search layer (sorting, ranking, order sampling,
digests) must leave every RNG draw, proposal and record as it was.  Each
constant below fingerprints one seeded exploration: the number of
candidates explored, every stored key with its record's metrics and
``instants_digest``, and the digests of the final front.  They were
computed before the search layer's fast paths landed, so any later change
that alters a trajectory fails here.

A trajectory change that is intended (a new strategy behaviour, a new
metric) re-pins the constants and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from repro.campaign import ResultStore
from repro.dse import MappingExplorer

SEED = 5

#: Per problem: exploration budget and problem parameters.  chain runs many
#: NSGA-II generations on two objectives; lte (three objectives) takes the
#: general non-dominated sort; didactic saturates its small space.
PROBLEMS = {
    "chain": (400, {"items": 6}),
    "didactic": (48, {"items": 6}),
    "lte": (96, {"items": 4, "processors": 3, "dsps": 3}),
}

GOLDEN = {
    ("chain", "nsga2"): "1ed093d7f4040add84e9448fe62d56ac2e7055d1521c0e35ef4326f9d1a8ca2e",
    ("chain", "annealing"): "010341c8c569a8ee29841be9d2c88fe1961d69c26c022d3d7bcceb651b243d74",
    ("chain", "random"): "5e6810d19945bbc664ac32a25902a33198a0ece46cfb08fde25abff9c35c81e9",
    ("didactic", "nsga2"): "7dca82ffed3d306765389606d1cf3e4566186f284ca94ffc5b7d375a34773ac8",
    ("didactic", "annealing"): "93d1c2b520ff0f6794618504bc84bb5df1d617d15f98100bf86ef872c3b658e3",
    ("didactic", "random"): "65460e4b821134f42cbf1be617481a5ea73ea2637d49d312fd1653ca88ed832b",
    ("lte", "nsga2"): "db124a52e73e1c0653e90c1d97ba8b86aab06a5170b1775de09c68d7eb9a7cd5",
    ("lte", "annealing"): "7651b368b4f5daed89d31d30f629cd30fb3e81bc2d47a60a4bb093883118c542",
    ("lte", "random"): "c9b93be7c50a2a4486f74a868433a1ea454ebdb7eac6e4199de8c2570199907b",
}


def fingerprint(problem: str, strategy: str) -> str:
    """SHA-256 over what one seeded exploration explored, stored and kept."""
    budget, parameters = PROBLEMS[problem]
    store = ResultStore.in_memory()
    report = MappingExplorer(
        problem,
        strategy=strategy,
        budget=budget,
        seed=SEED,
        parameters=parameters,
        store=store,
    ).run()
    records = [
        [key, store.get(key)["metrics"], store.get(key)["instants_digest"]]
        for key in sorted(store.digests())
    ]
    payload = {
        "explored": report.explored,
        "records": records,
        "front": report.front.digests(),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("problem, strategy", sorted(GOLDEN))
def test_seeded_exploration_matches_its_golden_fingerprint(problem, strategy):
    assert fingerprint(problem, strategy) == GOLDEN[(problem, strategy)]
