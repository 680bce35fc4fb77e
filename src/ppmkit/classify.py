"""Perspicuity classification and per-session reports.

A model is perspicuous when its normalized form translates to a sound
workflow net. Everything short of that carries a stage tag saying where it
fell out of the pipeline: a mixed gateway (no repair exists), a net whose
parts do not all lie between source and sink, an unsound net, or a state
space too large to decide.

The stage is not stored: it follows from the evidence a verdict carries,
the normalization outcome and the soundness report, as does `perspicuous`.
A report read back from JSON must say the same as its evidence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .blocks import Block, detect_blocks
from .eventlog import EventLog, expand_reconnect, parse_timestamp
from .metrics import SessionMetrics, compute_session_metrics
from .model import ProcessModel, typed
from .normalize import AppliedRule, NormalizationOutcome, normalize
from .replay import replay
from .soundness import (
    DEFAULT_MAX_STATES,
    SOUND,
    UNKNOWN,
    VIOLATION_KINDS,
    SoundnessReport,
    Violation,
    check_soundness,
)
from .wfnet import to_wfnet

STAGES = ("MixedGateway", "NotWFStructured", "Unsound", "StateSpaceExceeded", "Sound")


def _strings(value, name: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; anything else raises TypeError."""
    if type(value) is not list or not set(map(type, value)) <= {str}:
        raise TypeError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class PerspicuityVerdict:
    normalization: NormalizationOutcome
    soundness: SoundnessReport | None  # None exactly when normalization rejected

    def __post_init__(self) -> None:
        if (self.soundness is None) != self.normalization.rejected:
            given = "null" if self.soundness is None else "given"
            raise ValueError(f"soundness {given} does not match rejected "
                             f"{self.normalization.rejected}")

    @cached_property  # the fields are frozen, and stats reads it several times a report
    def stage(self) -> str:
        """Where the model fell out of the pipeline, read off the evidence."""
        if self.soundness is None:
            return "MixedGateway"
        verdict = self.soundness.verdict
        if verdict == UNKNOWN:
            return "StateSpaceExceeded"
        if any(v.kind == "NotWFStructured" for v in self.soundness.violations):
            return "NotWFStructured"
        return "Sound" if verdict == SOUND else "Unsound"

    @property
    def perspicuous(self) -> bool:
        return self.stage == "Sound"

    def to_dict(self) -> dict:
        return {
            "perspicuous": self.perspicuous,
            "stage": self.stage,
            "normalization": self.normalization.to_dict(),
            "soundness": self.soundness.to_dict() if self.soundness else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PerspicuityVerdict":
        """Rebuild from to_dict output. The written rejected, soundness
        verdict, stage and perspicuous must equal what the evidence gives:
        a disagreement raises ValueError, a value of the wrong type
        TypeError."""
        norm = data["normalization"]
        rejected = typed(norm["rejected"], "rejected", bool)
        reason = typed(norm["reason"], "reason", str, type(None))
        applied = [AppliedRule(typed(r["rule"], "applied rule", str),
                               _strings(r["nodes"], "applied rule nodes"))
                   for r in norm["applied_rules"]]
        outcome = NormalizationOutcome(
            model=None,  # the JSON form does not carry the normalized model
            reason=reason,
            applied_rules=tuple(applied),
        )
        if rejected != outcome.rejected:
            raise ValueError(f"rejected {rejected} does not match reason {reason!r}")
        sound = None
        if data["soundness"] is not None:
            s = data["soundness"]
            violations = []
            for v in s["violations"]:
                if v["kind"] not in VIOLATION_KINDS:
                    raise TypeError(f"violation kind must be one of {', '.join(VIOLATION_KINDS)}"
                                    f", got {v['kind']!r}")
                trace = None if v["trace"] is None else _strings(v["trace"], "trace")
                violations.append(Violation(v["kind"], v["witness"], trace))
            sound = SoundnessReport(tuple(violations),
                                    typed(s["states_explored"], "states_explored", int))
            if s["verdict"] != sound.verdict:
                raise ValueError(f"soundness verdict {s['verdict']!r} does not match "
                                 f"{sound.verdict!r} from its violations")
        perspicuous, stage = typed(data["perspicuous"], "perspicuous", bool), data["stage"]
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        if perspicuous != (stage == "Sound"):
            raise ValueError(f"perspicuous {perspicuous} does not match stage {stage!r}")
        verdict = cls(normalization=outcome, soundness=sound)
        if stage != verdict.stage:
            raise ValueError(f"stage {stage!r} does not match {verdict.stage!r} "
                             "from its evidence")
        return verdict


def classify_model(model: ProcessModel,
                   max_states: int = DEFAULT_MAX_STATES) -> PerspicuityVerdict:
    """Normalize, translate, check soundness; the verdict's stage tells
    where it stopped."""
    if not model.nodes:
        raise ValueError("empty model")
    outcome = normalize(model)
    if outcome.rejected:
        return PerspicuityVerdict(outcome, None)
    return PerspicuityVerdict(outcome, check_soundness(to_wfnet(outcome.model), max_states))


@dataclass(frozen=True)
class SessionReport:
    session_id: str
    metrics: SessionMetrics
    blocks: tuple[Block, ...]
    verdict: PerspicuityVerdict

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "metrics": self.metrics.to_dict(),
            "blocks": [b.to_dict() for b in self.blocks],
            "verdict": self.verdict.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "SessionReport":
        """Rebuild from to_dict output; a missing key or a value of the
        wrong type raises ValueError."""
        def block(b: dict) -> Block:
            split, join, pair, whole = b["split"], b["join"], b["interval"], b["whole"]
            # One comparison, not a typed() call per field: a report holds many blocks.
            if (type(split), type(join), type(whole)) != (str, str, bool):
                raise TypeError("block split and join must be strings and whole a bool, "
                                f"got {split!r}, {join!r}, {whole!r}")
            if type(pair) is not list or len(pair) != 2:
                raise TypeError(f"interval must be a list of two strings, got {pair!r}")
            # parse_timestamp raises TypeError for a stamp that is no string
            interval = parse_timestamp(pair[0]), parse_timestamp(pair[1])
            members = frozenset(_strings(b["members"], "members"))
            # completion_seq is not serialized; JSON-level round-trip only
            return Block(split, join, members, 0, interval, whole)

        try:
            blocks = tuple(map(block, data["blocks"]))
            return cls(
                session_id=typed(data["session_id"], "session_id", str),
                metrics=SessionMetrics.from_dict(data["metrics"]),
                blocks=blocks,
                verdict=PerspicuityVerdict.from_dict(data["verdict"]),
            )
        except KeyError as exc:
            raise ValueError(f"missing key {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ValueError(f"wrong value type: {exc}") from None
        except OverflowError as exc:  # Fraction() of an infinite float
            raise ValueError(f"bad number: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "SessionReport":
        return cls.from_dict(json.loads(text))


def classify_session(log: EventLog, max_states: int = DEFAULT_MAX_STATES) -> SessionReport:
    """Replay, measure, and classify one session end to end."""
    expanded = expand_reconnect(log)
    final = replay(expanded)
    blocks = detect_blocks(final, expanded)
    return SessionReport(
        session_id=log.session_id,
        metrics=compute_session_metrics(expanded, blocks),
        blocks=tuple(blocks),
        verdict=classify_model(final, max_states),
    )
