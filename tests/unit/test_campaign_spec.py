"""Unit tests for campaign specs, digests and seed derivation."""

import copy
import dataclasses
import hashlib
import pickle
import struct
from collections.abc import Mapping
from typing import Any, Dict

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import JobSpec, ResultStore, ScenarioSpec, canonical_json, derive_seed
from repro.campaign import spec as spec_module
from repro.campaign.registry import default_registry
from repro.campaign.results import (
    INSTANTS_DIGEST_PREFIX,
    instants_digest,
    int64_digest,
    pack_instants,
    packed_digest,
)
from repro.dse import MappingCandidate, MappingExplorer, get_problem
from repro.dse.scenario import DSE_SCENARIO
from repro.errors import CampaignError


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_tuples_normalise_to_lists(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_rejects_non_serialisable_values(self):
        with pytest.raises(CampaignError):
            canonical_json({"f": object()})

    def test_rejects_non_finite_floats(self):
        with pytest.raises(CampaignError):
            canonical_json({"x": float("nan")})

    def test_rejects_non_string_keys(self):
        with pytest.raises(CampaignError):
            canonical_json({1: "x"})


class TestDeriveSeed:
    def test_replication_zero_is_identity(self):
        assert derive_seed(7, 0) == 7
        assert derive_seed(123456, 0) == 123456

    def test_later_replications_are_decorrelated_and_stable(self):
        first = derive_seed(7, 1)
        assert first == derive_seed(7, 1)
        assert first != 7
        assert derive_seed(7, 1) != derive_seed(7, 2)
        assert derive_seed(7, 1) != derive_seed(8, 1)

    def test_derived_seeds_are_63_bit_non_negative(self):
        for replication in range(1, 10):
            seed = derive_seed(2014, replication)
            assert 0 <= seed < 2 ** 63

    def test_negative_replication_rejected(self):
        with pytest.raises(CampaignError):
            derive_seed(1, -1)


class TestScenarioSpec:
    def test_digest_stable_under_parameter_ordering(self):
        a = ScenarioSpec("s", {"x": 1, "y": 2})
        b = ScenarioSpec("s", {"y": 2, "x": 1})
        assert a.digest() == b.digest()

    def test_digest_sensitive_to_content(self):
        base = ScenarioSpec("s", {"x": 1})
        assert base.digest() != ScenarioSpec("s", {"x": 2}).digest()
        assert base.digest() != ScenarioSpec("t", {"x": 1}).digest()

    def test_digest_ignores_replications_and_record_instants(self):
        base = ScenarioSpec("s", {"x": 1})
        assert base.digest() == ScenarioSpec("s", {"x": 1}, replications=5).digest()
        assert base.digest() == ScenarioSpec("s", {"x": 1}, record_instants=True).digest()

    def test_seed_property(self):
        assert ScenarioSpec("s", {"seed": 42}).seed == 42
        assert ScenarioSpec("s", {}).seed == 0
        with pytest.raises(CampaignError):
            _ = ScenarioSpec("s", {"seed": "nope"}).seed

    def test_jobs_expansion(self):
        spec = ScenarioSpec("s", {"seed": 5}, replications=3)
        jobs = spec.jobs()
        assert [job.replication for job in jobs] == [0, 1, 2]
        assert jobs[0].seed == 5
        assert len({job.seed for job in jobs}) == 3
        assert len({job.digest() for job in jobs}) == 3

    def test_job_index_validation(self):
        spec = ScenarioSpec("s", replications=2)
        with pytest.raises(CampaignError):
            spec.job(2)
        with pytest.raises(CampaignError):
            spec.job(-1)

    def test_requires_name_and_replications(self):
        with pytest.raises(CampaignError):
            ScenarioSpec("")
        with pytest.raises(CampaignError):
            ScenarioSpec("s", replications=0)

    def test_rejects_unserialisable_parameters(self):
        with pytest.raises(CampaignError):
            ScenarioSpec("s", {"fn": lambda: None})


class TestJobSpecPayload:
    def test_payload_round_trip(self):
        spec = ScenarioSpec("s", {"seed": 9, "items": 10}, replications=4,
                            record_instants=True)
        job = spec.job(2)
        rebuilt = JobSpec.from_payload(job.payload())
        assert rebuilt == job
        assert rebuilt.digest() == job.digest()
        assert rebuilt.seed == job.seed
        assert rebuilt.spec.record_instants is True

    def test_payload_is_json_types_only(self):
        import json

        payload = ScenarioSpec("s", {"seed": 9}).job(0).payload()
        assert json.loads(json.dumps(payload)) == payload

    def test_missing_field_rejected(self):
        with pytest.raises(CampaignError):
            JobSpec.from_payload({"scenario": "s"})


# -- golden identities --------------------------------------------------------
# Hex literals computed before candidate and job digests were memoised and
# the canonical walk was rewritten: stores written by earlier versions must
# still hit, so none of these may ever change.

GOLDEN_CANDIDATES = {
    "didactic": "ce911be2bf25c1aace86452fae612b8889ecf4692321da3f99852d379eabf790",
    "chain": "c784a2628fc81bab313879b8a030894f1269891c2cdd4ae8f117439ebce4fe9c",
    "lte": "eb4138abfd0538439c4643485e2acdd48a407bb423a9d744b13f9c5779abb06c",
}


def _dse_spec() -> ScenarioSpec:
    problem = get_problem("chain")
    parameters: Dict[str, Any] = {"problem": "chain"}
    parameters.update(problem.parameters({"items": 8}))
    parameters.update(problem.space({"items": 8}).default_candidate().to_parameters())
    return ScenarioSpec(DSE_SCENARIO, parameters, replications=3)


def _table1_spec() -> ScenarioSpec:
    spec = default_registry().get("table1-sweep").specs(replications=3)[1]
    assert spec.parameters == {"items": 400, "seed": 2014, "stages": 2}
    return spec


SPEC_BUILDERS = {"dse": _dse_spec, "table1": _table1_spec}

#: ``ScenarioSpec.digest()`` and ``JobSpec.digest()`` per replication.
GOLDEN_SPECS = {
    "dse": (
        "5790414c466c56bcba0cea404b8db67c02c22ea176360ef90d6df3fb8059be69",
        {
            0: "9ac912ce79e18404bbb7067abffcd26f40b5aa1a0ba885e585842d3bb221d8db",
            2: "e67997c4a52d98c157829b1b0f2d6c0efd206b6a5767204d7bf867656849252d",
        },
    ),
    "table1": (
        "9fe7f35706396bb46d29e33d36de8b9cbc89412a5399848cbb111399fcf8933c",
        {
            0: "5156a227431d35c77e60d670e2a445422cc433ff9c0e8575aabe73d86f4eb086",
            2: "c418fea1084b0eea8606b5dae0c2048a95848c0e6ad7483f568fbfb367d667fa",
        },
    ),
}

#: ``instants_digest([5, None, 7])``: the versioned SHA-256 over one tag
#: byte, the ε mask and little-endian int64 instants.  Re-pinned when the
#: digest stopped hashing decimal text; job digests (the store keys) did not
#: change, so stores written before still hit.
GOLDEN_INSTANTS = "i64:d545ab382139d7e8b010921b4c827b33b9c007894a8304ea3e91d64e2648c2c1"

#: The same sequence in the format stores written before the prefix hold:
#: a bare SHA-256 of the decimal text ``5,-,7``.
GOLDEN_INSTANTS_DECIMAL = "8c07e8b59973a8898e166e471457e2e4c1486cf7f64bc8e6c1168d7ca760f84a"


class TestGoldenIdentities:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CANDIDATES))
    def test_default_candidate_digest(self, name):
        candidate = get_problem(name).space().default_candidate()
        assert candidate.digest() == GOLDEN_CANDIDATES[name]
        assert candidate.digest() == GOLDEN_CANDIDATES[name]  # memo hit

    @pytest.mark.parametrize("family", sorted(GOLDEN_SPECS))
    def test_spec_and_job_digests(self, family):
        spec = SPEC_BUILDERS[family]()
        spec_digest, job_digests = GOLDEN_SPECS[family]
        assert spec.digest() == spec_digest
        for replication, digest in job_digests.items():
            assert spec.job(replication).digest() == digest

    def test_rebuilt_job_keeps_its_digest(self):
        for spec in (_dse_spec(), _table1_spec()):
            job = spec.job(2)
            assert JobSpec.from_payload(job.payload()).digest() == job.digest()

    def test_instants_digest_with_none(self):
        assert instants_digest([5, None, 7]) == GOLDEN_INSTANTS
        # The golden value is the documented byte string, hashed.
        packed = b"\x01" + bytes([0, 1, 0]) + struct.pack("<3q", 5, 0, 7)
        assert GOLDEN_INSTANTS == "i64:" + hashlib.sha256(packed).hexdigest()

    def test_old_format_golden_is_the_decimal_text_digest(self):
        assert hashlib.sha256(b"5,-,7").hexdigest() == GOLDEN_INSTANTS_DECIMAL
        assert GOLDEN_INSTANTS != GOLDEN_INSTANTS_DECIMAL


# -- the instants digest format ----------------------------------------------

INT64_MAX = 2**63 - 1
int64s = st.integers(min_value=-(2**63), max_value=INT64_MAX)
instants_lists = st.lists(st.one_of(st.none(), int64s, st.sampled_from([0, 1, -1])), max_size=12)


def _decimal_digest(instants) -> str:
    """The digest stores written before the ``i64:`` prefix hold."""
    text = ",".join("-" if value is None else str(value) for value in instants)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class TestInstantsDigestFormat:
    @settings(max_examples=200, deadline=None)
    @given(instants_lists)
    def test_carries_the_version_prefix_and_never_equals_an_old_value(self, instants):
        digest = instants_digest(instants)
        assert digest.startswith(INSTANTS_DIGEST_PREFIX) and len(digest) == 68
        assert digest != _decimal_digest(instants)

    @settings(max_examples=300, deadline=None)
    @given(instants_lists, instants_lists)
    def test_distinct_sequences_get_distinct_digests(self, left, right):
        assert (instants_digest(left) == instants_digest(right)) == (left == right)

    @pytest.mark.parametrize(
        "left, right",
        [
            ([None, 5], [5, None]),
            ([None], [0]),
            ([0, None], [None, 0]),
            ([None, None, 1], [None, 1, None]),
            ([], [None]),
        ],
    )
    def test_epsilon_placement_changes_the_digest(self, left, right):
        assert instants_digest(left) != instants_digest(right)

    def test_int64_bounds_are_distinct_and_beyond_them_is_an_error(self):
        edges = [INT64_MAX, INT64_MAX - 1, -(2**63), -(2**63) + 1, 0, None]
        assert len({instants_digest([value]) for value in edges}) == len(edges)
        for value in (2**63, -(2**63) - 1, 2**64):
            for instants in ([value], [1, value], [None, value]):
                with pytest.raises(CampaignError, match="not an int64"):
                    instants_digest(instants)

    def test_non_integers_are_an_error(self):
        for value in (1.0, "7", b"7"):
            with pytest.raises(CampaignError, match="not an int64"):
                instants_digest([value])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(int64s, max_size=40))
    def test_packed_bytes_are_numpy_little_endian_int64(self, instants):
        numpy = pytest.importorskip("numpy")
        packed = numpy.asarray(instants, dtype="<i8").tobytes()
        assert pack_instants(instants) == packed
        assert int64_digest(instants) == packed_digest(packed) == instants_digest(instants)
        half = 8 * (len(instants) // 2)
        assert packed_digest(packed[:half], packed[half:]) == instants_digest(instants)

    def test_int64_digest_declines_what_it_cannot_pack(self):
        assert int64_digest([1, None]) is None
        assert int64_digest([2**63]) is None


class TestOldFormatStores:
    """Stores may mix formats: records written before the prefix keep their
    decimal-text digests and are still served on a warm re-run."""

    def test_warm_rerun_serves_old_records_untouched(self, tmp_path):
        def explore(store):
            return MappingExplorer(
                "didactic",
                strategy="random",
                budget=8,
                seed=5,
                parameters={"items": 6},
                store=store,
                record_instants=True,
            ).run()

        fresh = ResultStore(tmp_path / "fresh.jsonl")
        scored = explore(fresh).evaluated
        assert scored >= 5
        old = ResultStore(tmp_path / "old.jsonl")
        for key in fresh.digests():
            record = dict(fresh.get(key))
            new_value = record["instants_digest"]
            assert new_value == instants_digest(record["output_instants"])
            record["instants_digest"] = _decimal_digest(record["output_instants"])
            assert record["instants_digest"] != new_value
            old.put(key, record)
        before = (tmp_path / "old.jsonl").read_bytes()

        report = explore(ResultStore(tmp_path / "old.jsonl"))
        assert report.evaluated == 0 and report.cache_hits == scored
        assert (tmp_path / "old.jsonl").read_bytes() == before
        reread = ResultStore(tmp_path / "old.jsonl")
        for key in reread.digests():
            assert not reread.get(key)["instants_digest"].startswith(INSTANTS_DIGEST_PREFIX)


# -- the canonical walk against the path-tracking original --------------------


def _oracle(value: Any, path: str = "parameters") -> Any:
    """The canonical walk as first written: it builds every element's path."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise CampaignError(f"{path} must be finite, got {value!r}")
        return value
    if isinstance(value, (list, tuple)):
        return [_oracle(item, f"{path}[{index}]") for index, item in enumerate(value)]
    if isinstance(value, Mapping):
        normalised: Dict[str, Any] = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise CampaignError(f"{path} keys must be strings, got {key!r}")
            normalised[key] = _oracle(value[key], f"{path}.{key}")
        return normalised
    raise CampaignError(
        f"{path} must be JSON-serialisable (str/int/float/bool/list/dict), "
        f"got {type(value).__name__}"
    )


class Level(int):
    pass


class Tag(str):
    pass


class FrozenMapping(Mapping):
    """A read-only ``Mapping`` that is not a ``dict``."""

    def __init__(self, data):
        self._data = dict(data)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(Level),
    st.text(max_size=4),
    st.text(max_size=4).map(Tag),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.binary(max_size=3),
    st.sets(st.integers(), max_size=2),
)
_keys = st.one_of(st.text(max_size=3), st.text(max_size=3).map(Tag), st.integers(-2, 2))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=3).map(FrozenMapping),
    )


_values = st.recursive(_leaves, _containers, max_leaves=24)


def _outcome(walk, value, root):
    try:
        return "ok", walk(value, root)
    except Exception as error:  # noqa: BLE001 -- the type is the comparison
        return type(error), str(error)


def _assert_same_outcome(value, root="parameters"):
    expected = _outcome(_oracle, value, root)
    actual = _outcome(spec_module._normalise, value, root)
    assert actual[0] == expected[0]
    assert actual[1] == expected[1]
    if expected[0] == "ok":
        assert spec_module._dumps(actual[1]) == spec_module._dumps(expected[1])
        # Idempotent: the normalised value walks to itself.
        assert spec_module._normalise(actual[1]) == actual[1]


class TestCanonicalWalk:
    @settings(max_examples=400, deadline=None)
    @given(_values, st.sampled_from(["parameters", "value"]))
    def test_matches_the_path_tracking_walk(self, value, root):
        _assert_same_outcome(value, root)

    @pytest.mark.parametrize(
        "value",
        [
            {"a": [{"b": ({"c": [1, float("nan")]},)}]},
            {"a": [{"b": ({"c": [1, {"d": float("-inf")}]},)}]},
            [[[[{"x": {1: 2}}]]]],
            [[[[FrozenMapping({"k": [b"raw"]})]]]],
            {"outer": FrozenMapping({"inner": [0, 1, {Tag("t"): {2, 3}}]})},
            {"deep": [[[[[Level(3), Tag("s"), True, None, 1.5]]]]]},
            {"mixed": {1: "a", "b": 2}},
            {"k": (1, 2, (3, (4, float("inf"))))},
        ],
    )
    def test_deep_and_adversarial_values(self, value):
        _assert_same_outcome(value)

    def test_error_names_the_full_path(self):
        with pytest.raises(CampaignError) as caught:
            ScenarioSpec("s", {"grid": [{"x": 1}, {"x": float("nan")}]})
        assert str(caught.value) == "parameters.grid[1].x must be finite, got nan"


# -- memoised identities --------------------------------------------------------


def _fresh_digest(candidate: MappingCandidate) -> str:
    text = canonical_json(candidate.to_parameters())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestDigestMemo:
    def test_candidate_copies_and_replacements(self):
        space = get_problem("chain").space({"items": 8})
        candidate = space.default_candidate()
        digest = candidate.digest()
        assert copy.copy(candidate).digest() == digest
        assert copy.deepcopy(candidate).digest() == digest
        assert pickle.loads(pickle.dumps(candidate)).digest() == digest
        other = candidate.allocation[:-1] + ((candidate.allocation[-1][0], "P1"),)
        replaced = dataclasses.replace(candidate, allocation=other)
        assert replaced.digest() == _fresh_digest(replaced)
        assert replaced.digest() != digest

    def test_equal_candidates_built_independently(self):
        space = get_problem("chain").space({"items": 8})
        first = space.default_candidate()
        second = MappingCandidate.from_parameters(first.to_parameters())
        assert second == first and hash(second) == hash(first)
        assert second.digest() == first.digest() == _fresh_digest(first)
        assert "_digest" not in [field.name for field in dataclasses.fields(first)]

    def test_spec_and_job_copies_and_replacements(self):
        spec = _dse_spec()
        job = spec.job(1)
        digests = (spec.digest(), job.digest())
        for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            assert clone(spec).digest() == digests[0]
            assert clone(job).digest() == digests[1]
        moved = dataclasses.replace(job, replication=2)
        assert moved.digest() == spec.job(2).digest() != digests[1]
        renamed = dataclasses.replace(spec, parameters={**spec.parameters, "items": 9})
        assert renamed.digest() == ScenarioSpec(DSE_SCENARIO, renamed.parameters).digest()
        assert renamed.digest() != digests[0]

    def test_walks_per_fresh_candidate(self, monkeypatch):
        """Top-level canonical walks in a seeded exploration.

        Measured 2.39 per fresh candidate (239 walks for 100): the
        explorer builds each candidate's spec once and never rebuilds it
        from a payload.  The path-tracking walk without memoised digests
        did 11.98 here.
        """
        walks = []
        original = spec_module._normalise

        def counting(value, root="parameters"):
            walks.append(root)
            return original(value, root)

        monkeypatch.setattr(spec_module, "_normalise", counting)
        report = MappingExplorer(
            "chain",
            strategy="nsga2",
            budget=100,
            seed=3,
            parameters={"items": 8},
            store=ResultStore.in_memory(),
        ).run()
        assert report.evaluated == 100
        assert len(walks) / report.evaluated <= 3
