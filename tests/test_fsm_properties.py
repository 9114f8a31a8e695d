"""Property tests of the release FSM and of episode-log replay."""
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from handover.core import ActionClass
from handover.fusion import (
    DEFAULT_STRIDE_SAMPLES,
    FsmState,
    Pipeline,
    ReleaseFsm,
    SyncConfig,
    replay_episode_log,
    run_episode,
    write_episode_log,
)
from handover.synth import SAMPLE_DT_MS, FaultProfile, generate_scenario

LADDER = ["holding_idle", "contact_pending", "release_armed", "released"]


def reference_automaton(steps, debounce):
    """The release rule state by state: (transitions, release time or None).

    After contact the state follows the run of agreeing votes: an empty run
    is contact-pending, a short one armed, ``debounce`` long released.
    Moving up passes every state in between; moving down is one step.
    """
    state, run, trail = "holding_idle", 0, []
    for t, vote, contact in steps:
        if state == "holding_idle" and not contact:
            continue
        run = run + 1 if vote else 0
        target = LADDER[1 + (run > 0) + (run >= debounce)]
        here, there = LADDER.index(state), LADDER.index(target)
        if there > here:
            hops = LADDER[here + 1:there + 1]
        else:
            hops = [target] if there < here else []
        for nxt in hops:
            trail.append((t, state, nxt))
            state = nxt
        if state == "released":
            return trail, t
    return trail, None


vote_streams = st.lists(st.tuples(st.booleans(), st.booleans()), max_size=40)


@given(vote_streams, st.integers(min_value=1, max_value=4))
def test_advance_matches_reference_automaton(stream, debounce):
    steps = [(10 * k, vote, contact) for k, (vote, contact) in enumerate(stream)]
    fsm = ReleaseFsm(SyncConfig(debounce_frames=debounce))
    release_time = None
    for t, vote, contact in steps:
        if fsm.advance(t, vote, contact):
            release_time = t
            break
    got = [(t, a.value, b.value) for t, a, b in fsm.transitions]
    assert (got, release_time) == reference_automaton(steps, debounce)
    assert (fsm.state is FsmState.RELEASED) == (release_time is not None)
    if release_time is not None:
        with pytest.raises(ValueError, match="released"):
            fsm.advance(release_time + 10, True, True)


def test_agree_agree_disagree_arms_then_disarms():
    fsm = ReleaseFsm(SyncConfig(debounce_frames=3))
    assert not any(fsm.advance(t, vote, True) for t, vote in [(0, True), (10, True), (20, False)])
    assert [(t, a.value, b.value) for t, a, b in fsm.transitions] == [
        (0, "holding_idle", "contact_pending"),
        (0, "contact_pending", "release_armed"),
        (20, "release_armed", "contact_pending"),
    ]
    assert fsm.state is FsmState.CONTACT_PENDING


PROFILES = [FaultProfile.clean(), FaultProfile.torque_degraded(),
            FaultProfile.vision_degraded(), FaultProfile.fused_nominal()]

episodes = st.fixed_dictionaries({
    "action": st.sampled_from(list(ActionClass)),
    "profile": st.sampled_from(PROFILES),
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
    # narrow pairing windows leave torque events unpaired
    "config": st.builds(SyncConfig, pairing_window_ms=st.sampled_from([5, 15, 40, 100]),
                        debounce_frames=st.integers(min_value=1, max_value=4)),
})


def _run(small_model, pipeline, episode):
    net, stats, _ = small_model
    script = generate_scenario(episode["action"], episode["profile"], episode["seed"])
    return run_episode(script, net, stats, episode["config"], pipeline)


@pytest.mark.parametrize("pipeline", list(Pipeline))
@settings(max_examples=20)
@given(episode=episodes)
def test_replay_of_logged_run_matches(small_model, pipeline, episode):
    outcome = _run(small_model, pipeline, episode)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "episode.jsonl"
        write_episode_log(path, outcome)
        result = replay_episode_log(path)
    assert result.matched, result.mismatches
    assert (result.released, result.release_time_ms) == (outcome.released, outcome.release_time_ms)


@settings(max_examples=30)
@given(episode=episodes)
def test_fused_release_needs_votes_consecutive_in_time(small_model, episode):
    outcome = _run(small_model, Pipeline.FUSED, episode)
    steps = [e for e in outcome.events if e["type"] in ("fused_sample", "unpaired_torque")]
    stamps = [e["t"] if e["type"] == "unpaired_torque" else e["torque"]["timestamp"] for e in steps]
    # every torque event up to the decision is fed, paired or not
    period = DEFAULT_STRIDE_SAMPLES * SAMPLE_DT_MS
    assert stamps == list(range(stamps[0], stamps[0] + period * len(stamps), period))
    if not outcome.released:
        assert len(steps) == outcome.n_samples + outcome.dropped_torque_events
        return
    debounce = episode["config"].debounce_frames
    assert len(steps) >= debounce and stamps[-1] == outcome.release_time_ms
    assert all(e["type"] == "fused_sample" and e["fused_vote"] for e in steps[-debounce:])
