"""Property tests of the release FSM and of episode-log replay."""
import tempfile
from collections import Counter
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
from handover.harness import default_fault_profiles
from handover.synth import SAMPLE_DT_MS, FaultProfile, generate_scenario
from oracles import reference_automaton, reference_episode


def first_full_debounce(steps, debounce):
    """Brute force: the stamp of the first step whose last ``debounce`` votes are all true."""
    for k in range(debounce - 1, len(steps)):
        if all(vote for _, vote in steps[k - debounce + 1:k + 1]):
            return steps[k][0]
    return None


def release_time(fsm, steps):
    for t, vote in steps:
        if fsm.advance(t, vote):
            return t
    return None


vote_streams = st.lists(st.booleans(), max_size=40)


@given(vote_streams, st.integers(min_value=1, max_value=4))
def test_advance_matches_reference_automaton(votes, debounce):
    steps = [(10 * k, vote) for k, vote in enumerate(votes)]
    fsm = ReleaseFsm(SyncConfig(debounce_frames=debounce))
    released_at = release_time(fsm, steps)
    got = [(t, a.value, b.value) for t, a, b in fsm.transitions]
    assert (got, released_at) == reference_automaton(steps, debounce)
    assert (fsm.state is FsmState.RELEASED) == (released_at is not None)
    if released_at is not None:
        with pytest.raises(ValueError, match="released"):
            fsm.advance(released_at + 10, True)


# stamps need not be distinct or ordered: the release time is a function of the votes alone
@given(st.lists(st.tuples(st.integers(min_value=-10**6, max_value=10**6), st.booleans()), max_size=40),
       st.integers(min_value=1, max_value=5))
def test_release_time_is_first_full_debounce_window(steps, debounce):
    fsm = ReleaseFsm(SyncConfig(debounce_frames=debounce))
    assert release_time(fsm, steps) == first_full_debounce(steps, debounce)


def test_agree_agree_disagree_arms_then_disarms():
    fsm = ReleaseFsm(SyncConfig(debounce_frames=3))
    assert not any(fsm.advance(t, vote) for t, vote in [(0, True), (10, True), (20, False)])
    assert [(t, a.value, b.value) for t, a, b in fsm.transitions] == [
        (0, "holding_idle", "release_armed"),
        (20, "release_armed", "holding_idle"),
    ]
    assert fsm.state is FsmState.HOLDING_IDLE


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


STEP_TYPES = ("vote_sample", "fused_sample", "unpaired_torque")


def logged_vote(event):
    """(time, vote) of one logged FSM input, read from its own fields."""
    if event["type"] == "fused_sample":
        return event["torque"]["timestamp"], event["fused_vote"]
    return event["t"], event["type"] == "vote_sample" and event["vote"]


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
    # the logged FSM inputs up to the decision, checked against the brute-force rule
    steps = [logged_vote(e) for e in outcome.events if e["type"] in STEP_TYPES]
    assert first_full_debounce(steps, episode["config"].debounce_frames) == outcome.release_time_ms


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
        summary = outcome.events[-1]
        assert len(steps) == summary["n_samples"] + summary["dropped_torque_events"]
        return
    debounce = episode["config"].debounce_frames
    assert len(steps) >= debounce and stamps[-1] == outcome.release_time_ms
    assert all(e["type"] == "fused_sample" and e["fused_vote"] for e in steps[-debounce:])


@pytest.mark.parametrize("pipeline", list(Pipeline))
@settings(max_examples=20)
@given(episode=episodes)
def test_log_lines_state_each_fact_once_and_agree(small_model, pipeline, episode):
    outcome = _run(small_model, pipeline, episode)
    *body, summary = outcome.events
    assert summary["type"] == "summary"
    assert (summary["released"], summary["release_time_ms"]) == (outcome.released, outcome.release_time_ms)
    # the summary counts the whole stream; the log's steps stop at the release
    counts = Counter(e["type"] for e in body)
    stepped = (counts["vote_sample"] + counts["fused_sample"], counts["unpaired_torque"])
    totals = (summary["n_samples"], summary["dropped_torque_events"])
    if outcome.released:
        assert stepped[0] <= totals[0] and stepped[1] <= totals[1]
    else:
        assert stepped == totals
    released_at = [e["t"] for e in body if e["type"] == "transition" and e["to"] == "released"]
    assert released_at == ([summary["release_time_ms"]] if outcome.released else [])
    # a decision line if and only if a fused episode released, holding its
    # last fused sample's action and the release time, nothing more
    decisions = [e for e in body if e["type"] == "decision"]
    assert len(decisions) == (pipeline is Pipeline.FUSED and outcome.released)
    if decisions:
        last_sample = [e for e in body if e["type"] == "fused_sample"][-1]
        assert decisions == [{"type": "decision", "action": last_sample["torque"]["predicted"],
                              "decided_at": summary["release_time_ms"]}]


def without_probabilities(line):
    """A log line and the torque probabilities it holds (None for a line with none)."""
    if line["type"] != "fused_sample":
        return line, None
    torque = dict(line["torque"])
    return {**line, "torque": torque}, torque.pop("probabilities")


@given(
    action=st.sampled_from(list(ActionClass)),
    profile=st.sampled_from([FaultProfile.clean(), *default_fault_profiles().values()]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    # a torque event lies 0, 8, 17, 25 or 33 ms from the frames either side,
    # so windows of 8, 17 and 25 ms put a candidate exactly on their edge
    config=st.builds(SyncConfig, pairing_window_ms=st.sampled_from([8, 17, 25]) | st.integers(1, 200),
                     debounce_frames=st.integers(1, 5)),
    pipeline=st.sampled_from(list(Pipeline)),
)
def test_run_episode_equals_the_brute_force_episode(small_model, action, profile, seed, config, pipeline):
    # every stage at once against its oracle: per-window forward, per-frame
    # grasp rule, pairing by scan, and the release rule walked state by state
    net, stats, _ = small_model
    script = generate_scenario(action, profile, seed)
    got = run_episode(script, net, stats, config, pipeline).events
    want = reference_episode(script, net, stats, config, pipeline)
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        (got_line, got_probs), (want_line, want_probs) = map(without_probabilities, (got_line, want_line))
        assert got_line == want_line
        if want_probs is not None:
            assert max(abs(a - b) for a, b in zip(got_probs, want_probs)) <= 1e-9
