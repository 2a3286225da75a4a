"""Template-compilation equivalence (the ISSUE acceptance criterion).

``CompiledProblem`` specialisation must produce output instants exactly
equal to the from-scratch ``build_equivalent_spec`` path for *every*
enumerated candidate of the ``didactic`` problem -- feasible candidates
objective for objective, infeasible candidates reason for reason.  The
batched array engine inherits the obligation: one ``evaluate_batch``
sweep over the whole space, on either sweep (the ``backend`` fixture of the
repository ``conftest.py``: the pure-Python reference, then the compiled
kernel), must reproduce the same
evaluations bit for bit, whatever the batch and its order: every
candidate is lowered from the problem's template alone, so nothing may
carry over from the candidate scored before it.
"""

import dataclasses
import random

import pytest

from repro.dse import CompiledProblem, evaluate_candidate, get_problem
from repro.dse.engine import resolve_backend

ITEMS = 4


class TestCompiledEquivalence:
    def test_every_didactic_candidate_matches_uncompiled_exactly(self, reference_sweep):
        problem = get_problem("didactic")
        compiled = CompiledProblem(problem, {"items": ITEMS})
        space = problem.space({"items": ITEMS})
        checked = feasible = 0
        for candidate in space.enumerate_candidates():
            fast = compiled.evaluate(candidate)
            slow = evaluate_candidate(problem, candidate, {"items": ITEMS}, compiled=False)
            for field in dataclasses.fields(fast):
                if field.name == "wall_seconds":
                    continue
                assert getattr(fast, field.name) == getattr(slow, field.name), (
                    f"{field.name} differs for {candidate.describe()}"
                )
            checked += 1
            feasible += fast.feasible
        assert checked == 315  # the whole space, not a sample
        assert 0 < feasible < checked  # both code paths exercised

    def test_compiled_specialisation_matches_node_counts(self):
        problem = get_problem("chain")
        compiled = CompiledProblem(problem, {"items": ITEMS, "stages": 2})
        space = problem.space({"items": ITEMS, "stages": 2}, explore_orders=False)
        for candidate in space.enumerate_candidates(limit=10):
            fast = compiled.evaluate(candidate)
            slow = evaluate_candidate(
                problem, candidate, {"items": ITEMS, "stages": 2}, compiled=False
            )
            assert fast.tdg_nodes == slow.tdg_nodes
            assert fast.output_instants == slow.output_instants


class TestBatchedEquivalence:
    def test_whole_space_batch_matches_uncompiled_exactly(self, backend):
        """One batched sweep over the entire didactic space equals the
        from-scratch path, field for field, on either sweep."""
        problem = get_problem("didactic")
        compiled = CompiledProblem(problem, {"items": ITEMS})
        candidates = list(problem.space({"items": ITEMS}).enumerate_candidates())
        batched = compiled.evaluate_batch(candidates)
        assert len(batched) == 315
        feasible = 0
        for candidate, fast in zip(candidates, batched):
            slow = evaluate_candidate(problem, candidate, {"items": ITEMS}, compiled=False)
            for field in dataclasses.fields(fast):
                if field.name in ("wall_seconds", "backend"):
                    continue
                assert getattr(fast, field.name) == getattr(slow, field.name), (
                    f"{field.name} differs for {candidate.describe()}"
                )
            assert fast.backend == backend
            feasible += fast.feasible
        assert 0 < feasible < len(batched)


#: (problem, parameters, distinct candidates): seeded samples with service
#: orders explored.  Loose order sampling reaches infeasible orders
#: (zero-delay cycles), so both outcomes are compared.  Sized for tier-1:
#: the from-scratch reference costs 1-3 ms per candidate at this horizon.
ORDER_CASES = [
    pytest.param("chain", {"items": ITEMS, "stages": 2}, 500, id="chain"),
    pytest.param("lte", {"items": ITEMS}, 300, id="lte"),
    pytest.param("fork", {"items": ITEMS}, 60, id="fork"),
]


def _order_sample(problem, parameters, count, rng):
    """Up to ``count`` distinct loose-order candidates, in sampling order."""
    space = problem.space(parameters, strict=False)
    unique = {}
    for _ in range(20 * count):
        candidate = space.random_candidate(rng)
        unique.setdefault(candidate.digest(), candidate)
        if len(unique) == count:
            break
    return list(unique.values())


class TestBatchOrderIndependence:
    @pytest.mark.parametrize("name,parameters,count", ORDER_CASES)
    def test_any_batch_order_matches_uncompiled_exactly(
        self, name, parameters, count, request
    ):
        """A shuffled batch, the reversed batch and one candidate at a time
        all equal the from-scratch path, field for field -- infeasibility
        messages included -- on one compiled problem reused throughout; so
        does the shuffled batch on the reference sweep, and every record
        names the sweep that produced it."""
        problem = get_problem(name)
        rng = random.Random(2014)
        candidates = _order_sample(problem, parameters, count, rng)
        reference = {
            c.digest(): evaluate_candidate(problem, c, parameters, compiled=False)
            for c in candidates
        }
        assert any(not e.feasible for e in reference.values())  # infeasible path reached
        assert any(e.feasible for e in reference.values())
        compiled = CompiledProblem(problem, parameters)
        shuffled = rng.sample(candidates, len(candidates))
        runs = {
            "shuffled": list(zip(shuffled, compiled.evaluate_batch(shuffled))),
            "reversed": list(zip(candidates[::-1], compiled.evaluate_batch(candidates[::-1]))),
            "single": [(c, compiled.evaluate(c)) for c in candidates],
        }
        backends = dict.fromkeys(runs, resolve_backend(None))
        request.getfixturevalue("reference_sweep")
        runs["reference"] = zip(shuffled, compiled.evaluate_batch(shuffled))
        backends["reference"] = "python"
        for way, scored in runs.items():
            for candidate, fast in scored:
                slow = reference[candidate.digest()]
                for field in dataclasses.fields(fast):
                    if field.name == "wall_seconds":
                        continue
                    if field.name == "backend":
                        expected = backends[way]
                    else:
                        expected = getattr(slow, field.name)
                    assert getattr(fast, field.name) == expected, (
                        f"{way}: {field.name} differs for {candidate.describe()}"
                    )
