"""Declarative scenario specifications and deterministic job identity.

A campaign is described entirely by data: a :class:`ScenarioSpec` names a
registered scenario family, fixes its parameters (including the base
``seed``), and says how many stochastic replications to run.  Everything
else -- architecture factories, stimuli, padding -- is rebuilt from that
data inside the worker process, so nothing unpicklable ever crosses a
process boundary.

Identity is content-addressed: :meth:`ScenarioSpec.digest` hashes the
canonical JSON form of ``(scenario, parameters)`` and
:meth:`JobSpec.digest` additionally folds in the replication index.  The
digests key the :class:`~repro.campaign.store.ResultStore` cache, so
re-running a campaign only simulates points whose content changed.  The
replication count and the ``record_instants`` flag are deliberately *not*
part of the digest: raising ``--replications`` reuses the already-stored
replications, and a result recorded with instants can serve later runs
that do not need them.  The ``evaluator`` mode is excluded for the same
reason: every mode is certified to produce identical objectives, so it is
provenance, not identity.

Each identity is derived once per object.  A spec's ``parameters`` pass
through one canonical walk on construction (plain JSON types, sorted keys,
finite floats; the path of a rejected value is assembled only on error),
and both digests serialise that normalised content directly and keep the
hex string in the instance ``__dict__``.  The memo is not a dataclass
field, so equality and hashing ignore it; copies and pickles carry it
along with the content it was derived from.

Seeds derive deterministically per job: replication 0 uses the spec's
``seed`` parameter verbatim (an explicit ``--seed`` really is the seed
that reaches the stimulus), later replications get decorrelated 63-bit
seeds hashed from ``(seed, replication)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from ..errors import CampaignError

__all__ = ["ScenarioSpec", "JobSpec", "canonical_json", "plain_canonical_json", "derive_seed"]


_INFINITIES = (float("inf"), float("-inf"))


class _Invalid(Exception):
    """A value the canonical walk rejects.

    Raised at the failing leaf with the tail of the message; every enclosing
    list or mapping appends its path segment (``[index]`` or ``.key``) as the
    exception unwinds, so the path costs nothing unless a value is rejected.
    """

    def __init__(self, problem: str) -> None:
        super().__init__(problem)
        self.problem = problem
        self.segments: List[str] = []


def _walk(value: Any) -> Any:
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in _INFINITIES:
            raise _Invalid(f" must be finite, got {value!r}")
        return value
    if isinstance(value, (list, tuple)):
        items: List[Any] = []
        index = 0
        try:
            for index, item in enumerate(value):
                items.append(_walk(item))
        except _Invalid as error:
            error.segments.append(f"[{index}]")
            raise
        return items
    if isinstance(value, Mapping):
        normalised: Dict[str, Any] = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise _Invalid(f" keys must be strings, got {key!r}")
            try:
                normalised[key] = _walk(value[key])
            except _Invalid as error:
                error.segments.append(f".{key}")
                raise
        return normalised
    raise _Invalid(
        " must be JSON-serialisable (str/int/float/bool/list/dict), "
        f"got {type(value).__name__}"
    )


def _normalise(value: Any, root: str = "parameters") -> Any:
    """Coerce ``value`` to plain JSON types, rejecting anything non-serialisable.

    Idempotent: an already-normalised value comes back equal.  A rejected
    value raises :class:`CampaignError` naming its path from ``root``.
    """
    try:
        return _walk(value)
    except _Invalid as error:
        path = root + "".join(reversed(error.segments))
        raise CampaignError(path + error.problem) from None


#: The digest serialisation: sorted keys, no whitespace.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(value: Any) -> str:
    """Stable JSON encoding (sorted keys, no whitespace) used for digests."""
    return _dumps(_normalise(value, "value"))


def plain_canonical_json(value: Any) -> str:
    """:func:`canonical_json` of a value the caller knows is already plain.

    Plain means dicts with ``str`` keys, lists or tuples, ``str``, ``int``
    and ``None`` -- values the canonical walk returns unchanged -- so the
    walk is skipped and the text is the same byte for byte.
    """
    return _dumps(value)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def derive_seed(seed: int, replication: int) -> int:
    """Deterministic per-replication seed.

    Replication 0 returns ``seed`` unchanged so explicitly chosen seeds
    thread through to the stimuli verbatim; replication ``r > 0`` returns a
    63-bit integer hashed from ``(seed, r)``, stable across platforms and
    processes.
    """
    if replication < 0:
        raise CampaignError("replication index must be non-negative")
    if replication == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{replication}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-resolved experiment point: scenario family + parameters."""

    scenario: str
    parameters: Mapping[str, Any] = field(default_factory=dict)
    replications: int = 1
    record_instants: bool = False
    #: Candidate scoring path for DSE scenarios (``replay``/``auto``, see
    #: :data:`repro.dse.EVALUATOR_MODES`).  Deliberately *not*
    #: part of :meth:`canonical`/:meth:`digest`: every mode produces the same
    #: objectives instant for instant, so a record scored in one mode serves
    #: runs requesting another -- like ``record_instants``, it is execution
    #: strategy, not experiment identity.
    evaluator: str = "replay"

    def __post_init__(self) -> None:
        if not self.scenario:
            raise CampaignError("a scenario spec needs a scenario name")
        if self.replications < 1:
            raise CampaignError("a scenario spec needs at least one replication")
        if self.evaluator not in ("replay", "auto"):
            raise CampaignError(
                f"unknown evaluator mode {self.evaluator!r}; expected 'replay' or 'auto'"
            )
        object.__setattr__(self, "parameters", _normalise(dict(self.parameters)))

    @property
    def seed(self) -> int:
        """Base seed of the spec (the ``seed`` parameter, 0 when absent)."""
        value = self.parameters.get("seed", 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise CampaignError(f"the 'seed' parameter must be an integer, got {value!r}")
        return value

    def canonical(self) -> Dict[str, Any]:
        """The content that identifies this spec (scenario + parameters)."""
        return {"scenario": self.scenario, "parameters": dict(self.parameters)}

    def digest(self) -> str:
        """Content hash identifying the experiment point (not its replications)."""
        memo = self.__dict__.get("_digest")
        if memo is None:
            # ``parameters`` were normalised on construction; no second walk.
            memo = self.__dict__["_digest"] = _sha256(_dumps(self.canonical()))
        return memo

    def job(self, replication: int) -> "JobSpec":
        if not 0 <= replication < self.replications:
            raise CampaignError(
                f"replication {replication} out of range [0, {self.replications})"
            )
        return JobSpec(spec=self, replication=replication)

    def jobs(self) -> List["JobSpec"]:
        """Expand the spec into one job per replication."""
        return [JobSpec(spec=self, replication=r) for r in range(self.replications)]


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: a spec point at a specific replication index."""

    spec: ScenarioSpec
    replication: int

    @property
    def seed(self) -> int:
        """The seed this job's stimuli and workloads actually use."""
        return derive_seed(self.spec.seed, self.replication)

    def digest(self) -> str:
        """Cache key of this job in the result store."""
        memo = self.__dict__.get("_digest")
        if memo is None:
            content = self.spec.canonical()
            content["replication"] = self.replication
            memo = self.__dict__["_digest"] = _sha256(_dumps(content))
        return memo

    def payload(self) -> Dict[str, Any]:
        """JSON-safe form shipped to worker processes."""
        return {
            "scenario": self.spec.scenario,
            "parameters": dict(self.spec.parameters),
            "replication": self.replication,
            "replications": self.spec.replications,
            "record_instants": self.spec.record_instants,
            "evaluator": self.spec.evaluator,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JobSpec":
        """Rebuild a job from :meth:`payload` output (worker-side entry)."""
        try:
            spec = ScenarioSpec(
                scenario=payload["scenario"],
                parameters=payload["parameters"],
                replications=payload.get("replications", 1),
                record_instants=payload.get("record_instants", False),
                evaluator=payload.get("evaluator", "replay"),
            )
            return cls(spec=spec, replication=payload["replication"])
        except KeyError as missing:
            raise CampaignError(f"job payload is missing field {missing}") from None
