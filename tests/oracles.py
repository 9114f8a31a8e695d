"""Brute-force references the tests hold the package to.

Each oracle is the plain, one-thing-at-a-time form of a stage that the
package computes in bulk: a window scored by the frozen network's own
forward, frames turned into a block one detection at a time, pairing by
scanning every verdict, and the release rule walked state by state.
``reference_episode`` composes them into the log ``run_episode`` writes.
"""
from collections.abc import Sequence

import numpy as np

from handover import nn_kernel as nn
from handover.classifier import NormalizationStats, normalize_input, torque_vote
from handover.core import (
    SAMPLE_DT_MS,
    WINDOW_SAMPLES,
    ActionScores,
    DetectionBlock,
    DetectionFrame,
    FingerType,
    TorqueWindow,
)
from handover.fusion import DEFAULT_STRIDE_SAMPLES, FusedSample, Pipeline, SyncConfig, TorqueEvent
from handover.synth import ScenarioScript
from handover.vision_gate import VisionVerdict, evaluate_grasp


def scores(probabilities) -> ActionScores:
    """Scores holding a probability vector (and so its argmax)."""
    return ActionScores(probabilities=np.asarray(probabilities, dtype=np.float64))


def window_scores(net: nn.Network, stats: NormalizationStats, window: TorqueWindow) -> ActionScores:
    """One window through the frozen network's layer-by-layer forward."""
    return scores(nn.softmax(net.frozen().forward(normalize_input(window.samples[None], stats)))[0])


def block_from_frames(frames: Sequence[DetectionFrame]) -> DetectionBlock:
    """The block holding ``frames``, one detection at a time."""
    detections = [d for frame in frames for d in frame.detections]
    return DetectionBlock(
        stamps=[frame.timestamp for frame in frames],
        offsets=np.cumsum([0, *(len(frame.detections) for frame in frames)]),
        boxes=[d.box for d in detections],
        positions=[d.position_3d for d in detections],
        confidence=[d.confidence for d in detections],
        thumb=[d.finger_type is FingerType.THUMB for d in detections],
        timestamps=[d.timestamp for d in detections],
    )


LADDER = ["holding_idle", "release_armed", "released"]


def reference_automaton(steps, debounce):
    """The release rule state by state: (transitions, release time or None).

    The state follows the run of agreeing votes: an empty run is
    holding-idle, a short one armed, ``debounce`` long released. Moving up
    passes every state in between; moving down is one step.
    """
    state, run, trail = "holding_idle", 0, []
    for t, vote in steps:
        run = run + 1 if vote else 0
        target = LADDER[(run > 0) + (run >= debounce)]
        here, there = LADDER.index(state), LADDER.index(target)
        for nxt in LADDER[here + 1:there + 1] if there >= here else [target]:
            trail.append((t, state, nxt))
            state = nxt
        if state == "released":
            return trail, t
    return trail, None


def nearest_verdict(t: int, verdicts: Sequence[VisionVerdict], window_ms: int) -> VisionVerdict | None:
    """The verdict nearest ``t`` within ``window_ms``, a tie going to the
    later one, found by scanning them all."""
    best = None
    for v in verdicts:
        key = (abs(t - v.evaluated_at), -v.evaluated_at)
        if key[0] <= window_ms and (best is None or key < (abs(t - best.evaluated_at), -best.evaluated_at)):
            best = v
    return best


def reference_episode(
    script: ScenarioScript, net: nn.Network, stats: NormalizationStats,
    config: SyncConfig, pipeline: Pipeline,
) -> list[dict]:
    """The episode log, header to summary, from the oracles: each window
    scored alone, each frame's detections judged alone, each torque event
    paired by a scan, the FSM's steps walked by ``reference_automaton``."""
    starts = range(0, script.torques.shape[1] - WINDOW_SAMPLES + 1, DEFAULT_STRIDE_SAMPLES)
    events = []
    for start in starts:
        at_ms = script.torque_start_ms + start * SAMPLE_DT_MS
        window = TorqueWindow(script.torques[:, start:start + WINDOW_SAMPLES], start_time=at_ms)
        events.append(TorqueEvent(window_scores(net, stats, window), at_ms + WINDOW_SAMPLES * SAMPLE_DT_MS))
    verdicts = [evaluate_grasp(f.detections, script.slab, at_ms=f.timestamp) for f in script.frames]

    steps = []  # (line, time, vote)
    if pipeline is Pipeline.VISION_ONLY:
        for v in verdicts:
            line = {"type": "vote_sample", "source": "vision", "t": v.evaluated_at, "vote": v.vote,
                    "fingers_in_slab": v.fingers_in_slab, "thumb_in_slab": v.thumb_in_slab}
            steps.append((line, v.evaluated_at, v.vote))
    elif pipeline is Pipeline.TORQUE_ONLY:
        for e in events:
            line = {"type": "vote_sample", "source": "torque", "t": e.timestamp,
                    "vote": torque_vote(e.scores), "predicted": int(e.scores.predicted)}
            steps.append((line, e.timestamp, line["vote"]))
    else:
        for e in events:
            v = nearest_verdict(e.timestamp, verdicts, config.pairing_window_ms)
            if v is None:
                steps.append(({"type": "unpaired_torque", "t": e.timestamp}, e.timestamp, False))
                continue
            vote = torque_vote(e.scores) and v.vote
            # the oracle's own AND and skew, written over the ones FusedSample computes
            line = {"type": "fused_sample", **FusedSample(torque=e, vision=v).to_json_dict(),
                    "fused_vote": vote, "skew_ms": e.timestamp - v.evaluated_at}
            steps.append((line, e.timestamp, vote))
    dropped = sum(line["type"] == "unpaired_torque" for line, _, _ in steps)

    trail, released_at = reference_automaton([(t, vote) for _, t, vote in steps], config.debounce_frames)
    body = []
    for line, t, _ in steps:  # step times rise strictly, so a time names its step
        body.append(line)
        body += [{"type": "transition", "t": at, "from": a, "to": b} for at, a, b in trail if at == t]
        if t == released_at:
            if pipeline is Pipeline.FUSED:
                body.append({"type": "decision", "action": line["torque"]["predicted"], "decided_at": t})
            break
    header = {
        "type": "header", "pipeline": pipeline.value, "action": int(script.action),
        "sync_config": config.to_json_dict(), "slab": script.slab.to_json_dict(),
        "faults": list(script.faults),
    }
    summary = {
        "type": "summary", "released": released_at is not None, "release_time_ms": released_at,
        "dropped_torque_events": dropped, "n_samples": len(steps) - dropped,
    }
    return [header, *body, summary]
