"""Stream pairing and the release state machine.

Torque classifications (one per sliding window) are paired with the
nearest vision verdict inside a bounded timestamp skew; each pair
computes the AND of the two modality votes. ``ReleaseFsm`` is every
pipeline's one decision core: idle -> armed -> released, releasing on the
``debounce_frames``-th agreeing vote of a run consecutive in time (an
unpaired torque event is a non-vote, so it breaks the run). Episode logs
hold every FSM input and transition: replay decodes each step, so every
computed fact is checked, and the log must be the core's output line for line.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .classifier import NormalizationStats, classify_windows, torque_vote
from .core import (
    INLINE,
    RELEASE_ACTIONS,
    ActionClass,
    ActionScores,
    JsonCodec,
    ReleaseDecision,
    dumps_canonical,
    json_value,
)
from .nn_kernel import Network
from .synth import SAMPLE_DT_MS, ScenarioScript, WINDOW_SAMPLES
from .vision_gate import VisionVerdict, grasp_verdicts

DEFAULT_STRIDE_SAMPLES = 5  # 125 ms between sliding-window classifications


class FsmState(Enum):
    HOLDING_IDLE = "holding_idle"
    RELEASE_ARMED = "release_armed"
    RELEASED = "released"


class Pipeline(Enum):
    TORQUE_ONLY = "torque_only"
    VISION_ONLY = "vision_only"
    FUSED = "fused"


@dataclass(frozen=True)
class SyncConfig(JsonCodec):
    pairing_window_ms: int = 100
    debounce_frames: int = 3

    def __post_init__(self) -> None:
        if self.pairing_window_ms <= 0:
            raise ValueError("pairing_window_ms must be positive")
        if self.debounce_frames < 1:
            raise ValueError("debounce_frames must be >= 1")


@dataclass(frozen=True)
class TorqueEvent(JsonCodec):
    scores: ActionScores = field(metadata=INLINE)  # logged beside the timestamp
    timestamp: int


@dataclass(frozen=True)
class FusedSample(JsonCodec):
    """A torque event and its paired verdict; computes their AND vote and stamp skew."""

    torque: TorqueEvent
    vision: VisionVerdict
    fused_vote: bool = field(init=False)
    skew_ms: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fused_vote", torque_vote(self.torque.scores) and self.vision.vote)
        object.__setattr__(self, "skew_ms", self.torque.timestamp - self.vision.evaluated_at)


@dataclass
class SyncResult:
    partners: list[FusedSample | None]  # per torque event, in order; None when unpaired

    @property
    def samples(self) -> list[FusedSample]:
        """The fused samples of the paired torque events, in order."""
        return [s for s in self.partners if s is not None]


def _check_ordered(stamps: Sequence[int], name: str) -> None:
    for k in range(1, len(stamps)):
        if stamps[k] < stamps[k - 1]:
            raise ValueError(
                f"{name} stream out of order at index {k}: "
                f"{stamps[k]} ms after {stamps[k - 1]} ms"
            )


def synchronize(
    torque_events: Sequence[TorqueEvent],
    vision_verdicts: Sequence[VisionVerdict],
    config: SyncConfig = SyncConfig(),
) -> SyncResult:
    """Pair each torque event with its nearest vision verdict in time.

    Eligible partners lie within ``pairing_window_ms`` of the torque
    timestamp; the closest wins, ties going to the later verdict. A torque
    event with no eligible partner has partner None. Both input streams
    must be individually time-ordered.
    """
    _check_ordered([e.timestamp for e in torque_events], "torque")
    _check_ordered([v.evaluated_at for v in vision_verdicts], "vision")
    partners: list[FusedSample | None] = []
    v_stamps = np.asarray([v.evaluated_at for v in vision_verdicts], dtype=np.int64)
    for event in torque_events:
        idx = int(np.searchsorted(v_stamps, event.timestamp))
        best: tuple[int, int, int] | None = None  # (gap, -stamp, index)
        for cand in (idx - 1, idx):
            if 0 <= cand < len(vision_verdicts):
                gap = abs(event.timestamp - int(v_stamps[cand]))
                if gap <= config.pairing_window_ms:
                    key = (gap, -int(v_stamps[cand]), cand)
                    if best is None or key < best:
                        best = key
        partners.append(None if best is None else FusedSample(event, vision_verdicts[best[2]]))
    return SyncResult(partners)


class ReleaseFsm:
    """Three-state release automaton, the package's only debounce.

    ``advance`` takes one (time, vote) step. An agreeing vote moves
    holding-idle to release-armed, a disagreeing one moves release-armed
    back to holding-idle and restarts the count, and the
    ``debounce_frames``-th consecutive agreeing vote moves to released.
    Released is terminal: stepping it is an error and at most one release
    is ever emitted.
    """

    def __init__(self, config: SyncConfig = SyncConfig()) -> None:
        self.config = config
        self.state = FsmState.HOLDING_IDLE
        self.transitions: list[tuple[int, FsmState, FsmState]] = []
        self._agreeing = 0

    def _move(self, at_ms: int, new_state: FsmState) -> None:
        self.transitions.append((at_ms, self.state, new_state))
        self.state = new_state

    def advance(self, at_ms: int, vote: bool) -> bool:
        """Feed one step; True when it releases."""
        if self.state is FsmState.RELEASED:
            raise ValueError("FSM already released; start a new episode")
        if not vote:
            self._agreeing = 0
            if self.state is FsmState.RELEASE_ARMED:
                self._move(at_ms, FsmState.HOLDING_IDLE)
            return False
        self._agreeing += 1
        if self.state is FsmState.HOLDING_IDLE:
            self._move(at_ms, FsmState.RELEASE_ARMED)
        if self._agreeing >= self.config.debounce_frames:
            self._move(at_ms, FsmState.RELEASED)
        return self.state is FsmState.RELEASED

    def step(self, sample: FusedSample) -> ReleaseDecision | None:
        """Advance on a fused sample's AND vote."""
        ts = sample.torque.timestamp
        if not self.advance(ts, sample.fused_vote):
            return None
        return ReleaseDecision(action=sample.torque.scores.predicted, decided_at=ts)


# ---------------------------------------------------------------------------
# episode execution
# ---------------------------------------------------------------------------

# one FSM input: its episode-log line, plus the fused sample if it is one
Step = tuple[dict[str, Any], FusedSample | None]


def _run_fsm(config: SyncConfig, steps: Iterable[Step]) -> tuple[list[dict[str, Any]], int | None]:
    """Feed steps through a fresh FSM until it releases.

    Returns the log (each consumed step, then its transitions and any
    fused decision) and the release time.
    """
    fsm = ReleaseFsm(config)
    log: list[dict[str, Any]] = []
    for line, sample in steps:
        seen = len(fsm.transitions)
        if sample is None:  # a single-modality vote, or an unpaired torque event's non-vote
            decision, released = None, fsm.advance(line["t"], line["type"] != "unpaired_torque" and line["vote"])
        else:
            decision = fsm.step(sample)
            released = decision is not None
        log.append(line)
        log.extend(
            {"type": "transition", "t": at_ms, "from": prev.value, "to": new.value}
            for at_ms, prev, new in fsm.transitions[seen:]
        )
        if decision is not None:
            log.append({"type": "decision", **decision.to_json_dict()})
        if released:
            return log, fsm.transitions[-1][0]
    return log, None


@dataclass
class EpisodeOutcome:
    """An episode's result; ``events`` holds its log lines, header to summary."""

    pipeline: Pipeline
    released: bool
    release_time_ms: int | None
    events: list[dict[str, Any]] = field(default_factory=list, repr=False)


def torque_event_stream(script: ScenarioScript, net: Network, stats: NormalizationStats) -> list[TorqueEvent]:
    """Classify sliding one-second windows; events stamped at window end."""
    starts = range(0, script.torques.shape[1] - WINDOW_SAMPLES + 1, DEFAULT_STRIDE_SAMPLES)
    return [
        TorqueEvent(
            scores=s,
            timestamp=script.torque_start_ms + (start + WINDOW_SAMPLES) * SAMPLE_DT_MS,
        )
        for start, s in zip(starts, classify_windows(net, stats, starts, script.torques))
    ]


def run_episode(
    script: ScenarioScript,
    net: Network,
    stats: NormalizationStats,
    config: SyncConfig = SyncConfig(),
    pipeline: Pipeline = Pipeline.FUSED,
) -> EpisodeOutcome:
    """Run one scripted episode through a pipeline variant to completion.

    Each pipeline builds its own step stream; one ``ReleaseFsm`` loop
    decides. The outcome records whether (and when) the episode released,
    plus a replayable event log.
    """
    pipeline = Pipeline(pipeline)
    dropped = 0
    if pipeline is Pipeline.VISION_ONLY:
        verdicts = grasp_verdicts(script.frames, script.slab)
        if not verdicts:
            raise ValueError("episode has no vision frames")
        n_samples = len(verdicts)
        steps = (({
            "type": "vote_sample", "source": "vision", "t": v.evaluated_at,
            "vote": bool(v.vote), "fingers_in_slab": v.fingers_in_slab,
            "thumb_in_slab": v.thumb_in_slab,
        }, None) for v in verdicts)
    elif pipeline is Pipeline.TORQUE_ONLY:
        events = torque_event_stream(script, net, stats)
        if not events:
            raise ValueError("episode torque stream is too short for one window")
        n_samples = len(events)
        steps = (({
            "type": "vote_sample", "source": "torque", "t": e.timestamp,
            "vote": bool(torque_vote(e.scores)), "predicted": int(e.scores.predicted),
        }, None) for e in events)
    else:
        events = torque_event_stream(script, net, stats)
        verdicts = grasp_verdicts(script.frames, script.slab)
        if not events or not verdicts:
            raise ValueError("fused episode requires both streams to be non-empty")
        partners = synchronize(events, verdicts, config).partners
        dropped = partners.count(None)
        n_samples = len(events) - dropped
        steps = (
            ({"type": "unpaired_torque", "t": e.timestamp}, None) if s is None
            else ({"type": "fused_sample", **s.to_json_dict()}, s)
            for e, s in zip(events, partners)
        )

    log, release_time = _run_fsm(config, steps)
    header = {
        "type": "header",
        "pipeline": pipeline.value,
        "action": int(script.action),
        "sync_config": config.to_json_dict(),
        "slab": script.slab.to_json_dict(),
        "faults": list(script.faults),
    }
    summary = {
        "type": "summary",
        "released": release_time is not None,
        "release_time_ms": release_time,
        "dropped_torque_events": dropped,
        "n_samples": n_samples,
    }
    return EpisodeOutcome(
        pipeline=pipeline, released=release_time is not None,
        release_time_ms=release_time, events=[header, *log, summary],
    )


# ---------------------------------------------------------------------------
# episode logs and replay
# ---------------------------------------------------------------------------

def write_episode_log(path: str | Path, outcome: EpisodeOutcome) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for line in outcome.events:
            fh.write(dumps_canonical(line) + "\n")


@dataclass
class ReplayResult:
    matched: bool
    released: bool
    release_time_ms: int | None
    n_events: int
    mismatches: list[str]


# the pipeline whose log holds each kind of step line, by type and source
_STEP_PIPELINE = {("fused_sample", None): Pipeline.FUSED, ("unpaired_torque", None): Pipeline.FUSED,
                  ("vote_sample", "torque"): Pipeline.TORQUE_ONLY, ("vote_sample", "vision"): Pipeline.VISION_ONLY}
# each summary count and the log steps it counts
_SUMMARY_COUNTS = {"n_samples": ("vote_sample", "fused_sample"), "dropped_torque_events": ("unpaired_torque",)}


def _logged_step(number: int, line: dict[str, Any], pipeline: Pipeline, window_ms: int) -> Step:
    """Log line ``number``, a step of a ``pipeline`` log, decoded, so its
    JSON types and computed facts are checked; a torque vote must be its
    predicted action's, and a fused pair must lie within the ``window_ms``
    pairing window. A failed check raises an error naming the line."""
    try:
        if _STEP_PIPELINE.get((line["type"], line.get("source"))) is not pipeline:
            raise ValueError(f"a {pipeline.value} log holds no {line['type']} step from {line.get('source')}")
        if line["type"] == "fused_sample":
            sample = FusedSample.from_json_dict(line)
            if abs(sample.skew_ms) > window_ms:
                raise ValueError(f"skew_ms {sample.skew_ms} lies outside the {window_ms} ms pairing window")
            return line, sample
        json_value(int, line["t"])
        if line.get("source") == "vision":
            VisionVerdict.from_json_dict({**line, "evaluated_at": line["t"]})
        elif line["type"] == "vote_sample":
            predicted = ActionClass(json_value(int, line["predicted"]))
            if json_value(bool, line["vote"]) != (predicted in RELEASE_ACTIONS):
                raise ValueError(f"torque vote {line['vote']} is not the vote of predicted action {int(predicted)}")
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"line {number}: {exc}") from None
    return line, None


def replay_episode_log(path: str | Path) -> ReplayResult:
    """Re-run the decision core over a logged episode and diff the outcome.

    A log is a header, the lines the decision core wrote, and one summary.
    Any other shape, a step of another pipeline's kind or no later than the
    step before it, or a step that contradicts itself (``_logged_step``)
    raises ``ValueError`` (``TypeError`` for a value of the wrong JSON
    type). Replay feeds the steps through a fresh ``ReleaseFsm``; the first
    line that differs from the log that gives is a mismatch naming its
    number, as is a summary whose decision differs, or whose counts are
    below the logged steps, or above them in an episode that did not release.
    """
    lines, numbers = [], []
    for number, text in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if text.strip():
            try:
                line = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {number} is not JSON ({exc})") from None
            if not isinstance(line, dict) or "type" not in line:
                raise ValueError(f"line {number} is not a JSON object with a type")
            lines.append(line)
            numbers.append(number)
    if not lines or lines[0]["type"] != "header":
        raise ValueError("episode log must start with a header line")
    if lines[-1]["type"] != "summary" or [l["type"] for l in lines].count("summary") != 1:
        raise ValueError("episode log must end with its one summary line")
    header, body, logged_summary = lines[0], lines[1:-1], lines[-1]
    pipeline, config = Pipeline(header["pipeline"]), SyncConfig.from_json_dict(header["sync_config"])
    counts = {key: json_value(int, logged_summary[key]) for key in _SUMMARY_COUNTS}
    if min(counts.values()) < 0:
        raise ValueError(f"summary counts must be non-negative, got {counts}")

    steps: list[Step] = []
    for number, line in zip(numbers[1:], body):
        if line["type"] in ("vote_sample", "fused_sample", "unpaired_torque"):
            line, sample = _logged_step(number, line, pipeline, config.pairing_window_ms)
            t = sample.torque.timestamp if sample else line["t"]
            if steps and t <= after:
                raise ValueError(f"line {number}: step at {t} ms does not come after the one before it, at {after} ms")
            steps.append((line, sample))
            after = t
    log, release_time = _run_fsm(config, steps)
    released = release_time is not None
    # the first line that differs; the summary's number if the replay runs on past the body
    mismatches = [f"line {n} differs: replay {replayed} vs log {logged}"
                  for n, replayed, logged in zip(numbers[1:], [*log, None], [*body, None]) if replayed != logged][:1]
    for key, value in (("released", released), ("release_time_ms", release_time)):
        if value != logged_summary[key]:
            mismatches.append(f"{key} differs: replay {value} vs log {logged_summary[key]}")
    # the summary counts the whole stream; the logged steps stop at a release
    for key, kinds in _SUMMARY_COUNTS.items():
        n_logged = sum(l["type"] in kinds for l in body)
        if counts[key] < n_logged or (counts[key] > n_logged and not released):
            mismatches.append(f"{key} differs: the log holds {n_logged} such steps vs summary {counts[key]}")
    return ReplayResult(matched=not mismatches, released=released, release_time_ms=release_time,
                        n_events=len(lines), mismatches=mismatches)
