import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import handover.fusion as fusion
from handover import cli
from handover.classifier import classify_window
from handover.core import ActionClass, FingertipDetection, TorqueWindow
from handover.fusion import (
    FsmState,
    FusedSample,
    Pipeline,
    ReleaseFsm,
    SyncConfig,
    SyncResult,
    TorqueEvent,
    replay_episode_log,
    run_episode,
    synchronize,
    torque_event_stream,
    write_episode_log,
)
from handover.harness import ExperimentConfig, run_experiment
from handover.synth import FaultProfile, ScenarioScript, generate_scenario
from handover.vision_gate import VisionVerdict, grasp_verdicts
from oracles import block_from_frames, scores, window_scores


def scores_for(action):
    return scores(np.eye(6)[int(action)])


def verdict(vote, ts, fingers=None):
    if fingers is None:
        fingers = 4 if vote else 0
    v = VisionVerdict(fingers_in_slab=fingers, thumb_in_slab=bool(vote or fingers >= 4), evaluated_at=ts)
    assert v.vote == vote
    return v


def fused(action, vision_vote, ts, fingers=None):
    return FusedSample(torque=TorqueEvent(scores=scores_for(action), timestamp=ts),
                       vision=verdict(vision_vote, ts, fingers))


class TestSynchronize:
    def torque_at(self, *stamps):
        return [TorqueEvent(scores=scores_for(ActionClass.PULL), timestamp=t) for t in stamps]

    def test_pairs_within_window(self):
        result = synchronize(self.torque_at(1000), [verdict(True, 960)], SyncConfig())
        assert len(result.samples) == 1
        assert result.samples[0].skew_ms == 40
        assert result.partners.count(None) == 0

    def test_drops_event_outside_window(self):
        result = synchronize(self.torque_at(1000), [verdict(True, 880)], SyncConfig())
        assert result.samples == []
        assert result.partners.count(None) == 1

    def test_tie_goes_to_later_verdict(self):
        verdicts = [verdict(False, 960), verdict(True, 1040)]
        result = synchronize(self.torque_at(1000), verdicts, SyncConfig())
        assert result.samples[0].vision.evaluated_at == 1040
        assert result.samples[0].skew_ms == -40

    def test_prefers_nearest_not_latest(self):
        verdicts = [verdict(True, 990), verdict(False, 1080)]
        result = synchronize(self.torque_at(1000), verdicts, SyncConfig())
        assert result.samples[0].vision.evaluated_at == 990

    def test_out_of_order_torque_rejected(self):
        events = self.torque_at(1000, 900)
        with pytest.raises(ValueError, match="out of order"):
            synchronize(events, [verdict(True, 950)], SyncConfig())

    def test_out_of_order_vision_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            synchronize(self.torque_at(1000), [verdict(True, 950), verdict(True, 940)], SyncConfig())

    def test_output_is_time_ordered_and_skew_bounded(self, rng):
        config = SyncConfig(pairing_window_ms=60)
        t_stamps = sorted(int(v) for v in rng.integers(0, 3000, 40))
        v_stamps = sorted(int(v) for v in rng.integers(0, 3000, 55))
        events = self.torque_at(*t_stamps)
        verdicts = [verdict(bool(rng.random() < 0.5), t) for t in v_stamps]
        result = synchronize(events, verdicts, config)
        stamps = [s.torque.timestamp for s in result.samples]
        assert stamps == sorted(stamps)
        assert all(abs(s.skew_ms) <= 60 for s in result.samples)
        assert len(result.samples) + result.partners.count(None) == len(events)
        # each event's partner, if any, is the fused sample of that event
        assert all(s is None or s.torque is e for e, s in zip(events, result.partners))

    def test_matches_brute_force_pairing_oracle(self, rng):
        config = SyncConfig(pairing_window_ms=70)
        for _ in range(30):
            t_stamps = sorted(int(v) for v in rng.integers(0, 2000, 25))
            v_stamps = sorted(int(v) for v in rng.integers(0, 2000, 20))
            events = self.torque_at(*t_stamps)
            verdicts = [verdict(bool(rng.random() < 0.5), t) for t in v_stamps]
            got = synchronize(events, verdicts, config)
            # oracle: scan every verdict for each event
            want = []
            for e in events:
                best = None
                for v in verdicts:
                    gap = abs(e.timestamp - v.evaluated_at)
                    if gap > config.pairing_window_ms:
                        continue
                    key = (gap, -v.evaluated_at)
                    if best is None or key < best[0]:
                        best = (key, v)
                if best is not None:
                    want.append((e.timestamp, best[1].evaluated_at))
            assert [(s.torque.timestamp, s.vision.evaluated_at) for s in got.samples] == want

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyncConfig(pairing_window_ms=0)
        with pytest.raises(ValueError):
            SyncConfig(debounce_frames=0)


class TestFusedSample:
    @pytest.mark.parametrize("tq,vi", [(True, True), (True, False), (False, True), (False, False)])
    def test_and_truth_table(self, tq, vi):
        action = ActionClass.PULL if tq else ActionClass.PUSH
        sample = fused(action, vi, ts=100)
        assert sample.fused_vote == (tq and vi)

    def test_wrong_fused_vote_rejected(self):
        doc = FusedSample(torque=TorqueEvent(scores=scores_for(ActionClass.PUSH), timestamp=0),
                          vision=verdict(True, 0)).to_json_dict()
        with pytest.raises(ValueError, match="^fused_vote true is not false, which torque, vision give$"):
            FusedSample.from_json_dict({**doc, "fused_vote": True})

    def test_json_roundtrip(self):
        sample = fused(ActionClass.PULL, True, ts=1500)
        back = FusedSample.from_json_dict(sample.to_json_dict())
        assert back.fused_vote == sample.fused_vote
        assert back.torque.timestamp == 1500


class TestReleaseFsm:
    def test_three_consecutive_trues_release_on_third(self):
        fsm = ReleaseFsm(SyncConfig(debounce_frames=3))
        decisions = [fsm.step(fused(ActionClass.PULL, True, ts)) for ts in (100, 200, 300)]
        assert decisions[0] is None and decisions[1] is None
        decision = decisions[2]
        assert decision is not None
        assert decision.action is ActionClass.PULL
        assert decision.decided_at == 300
        assert fsm.state is FsmState.RELEASED

    def test_transitions_pass_through_all_states(self):
        fsm = ReleaseFsm(SyncConfig(debounce_frames=2))
        fsm.step(fused(ActionClass.HOLD, True, 10))
        fsm.step(fused(ActionClass.HOLD, True, 20))
        names = [(a.value, b.value) for _, a, b in fsm.transitions]
        assert names == [
            ("holding_idle", "release_armed"),
            ("release_armed", "released"),
        ]

    def test_push_stream_never_releases(self):
        fsm = ReleaseFsm(SyncConfig(debounce_frames=3))
        for ts in range(0, 1000, 100):
            assert fsm.step(fused(ActionClass.PUSH, True, ts)) is None
        assert fsm.state is FsmState.HOLDING_IDLE
        assert fsm.transitions == []

    def test_pull_without_vision_never_releases(self):
        fsm = ReleaseFsm(SyncConfig(debounce_frames=3))
        for ts in range(0, 1000, 100):
            assert fsm.step(fused(ActionClass.PULL, False, ts)) is None
        assert fsm.state is FsmState.HOLDING_IDLE

    def test_debounce_counter_resets_on_false(self):
        fsm = ReleaseFsm(SyncConfig(debounce_frames=3))
        votes = [True, True, False, True, True, True]
        released_at = None
        for k, vote in enumerate(votes, start=1):
            sample = fused(ActionClass.PULL, vote, ts=k, fingers=4 if vote else 2)
            decision = fsm.step(sample)
            if decision is not None:
                released_at = k
        assert released_at == 6

    def test_stepping_released_state_rejected(self):
        fsm = ReleaseFsm(SyncConfig(debounce_frames=1))
        assert fsm.step(fused(ActionClass.PULL, True, 10)) is not None
        with pytest.raises(ValueError, match="released"):
            fsm.step(fused(ActionClass.PULL, True, 20))

    def test_at_most_one_decision(self):
        fsm = ReleaseFsm(SyncConfig(debounce_frames=2))
        emitted = []
        for ts in range(6):
            if fsm.state is FsmState.RELEASED:
                break
            decision = fsm.step(fused(ActionClass.HOLD, True, ts))
            if decision:
                emitted.append(decision)
        assert len(emitted) == 1

    def test_monotone_safety_when_one_modality_stays_false(self, rng):
        # random vote streams: if either modality is false all episode, the
        # FSM must never release
        for trial in range(40):
            mute_torque = trial % 2 == 0
            fsm = ReleaseFsm(SyncConfig(debounce_frames=2))
            for ts in range(30):
                if mute_torque:
                    action = ActionClass.PUSH
                    vision = bool(rng.random() < 0.7)
                else:
                    action = ActionClass.PULL if rng.random() < 0.7 else ActionClass.BUMP
                    vision = False
                decision = fsm.step(fused(action, vision, ts, fingers=2 if not vision else 4))
                assert decision is None
            assert fsm.state is not FsmState.RELEASED


class TestRunEpisode:
    def test_pull_scenario_releases(self, small_model):
        net, stats, _ = small_model
        script = generate_scenario(ActionClass.PULL, FaultProfile.clean(), seed=41)
        outcome = run_episode(script, net, stats)
        assert outcome.released
        (decision,) = [e for e in outcome.events if e["type"] == "decision"]
        assert decision["action"] in (ActionClass.PULL, ActionClass.HOLD, ActionClass.PULL_UP)
        assert outcome.release_time_ms is not None
        assert outcome.release_time_ms >= script.action_onset_ms

    def test_bump_scenario_stays_closed(self, small_model):
        net, stats, _ = small_model
        script = generate_scenario(ActionClass.BUMP, FaultProfile.clean(), seed=42)
        outcome = run_episode(script, net, stats)
        assert not outcome.released
        assert not [e for e in outcome.events if e["type"] == "decision"]

    def test_vision_only_wrongly_releases_on_push(self, small_model):
        net, stats, _ = small_model
        script = generate_scenario(ActionClass.PUSH, FaultProfile.clean(), seed=43)
        fused_out = run_episode(script, net, stats, pipeline=Pipeline.FUSED)
        vision_out = run_episode(script, net, stats, pipeline=Pipeline.VISION_ONLY)
        assert not fused_out.released  # torque vetoes the wrap
        assert vision_out.released

    def test_torque_only_releases_on_pull(self, small_model):
        net, stats, _ = small_model
        script = generate_scenario(ActionClass.PULL, FaultProfile.clean(), seed=44)
        outcome = run_episode(script, net, stats, pipeline=Pipeline.TORQUE_ONLY)
        assert outcome.released

    def test_deterministic_across_reruns(self, small_model):
        net, stats, _ = small_model
        script = generate_scenario(ActionClass.HOLD, FaultProfile.clean(), seed=45)
        a = run_episode(script, net, stats)
        b = run_episode(script, net, stats)
        assert a.events == b.events
        assert a.release_time_ms == b.release_time_ms

    def test_fused_samples_respect_and_gate(self, small_model):
        net, stats, _ = small_model
        script = generate_scenario(ActionClass.HOLD, FaultProfile.clean(), seed=46)
        events = torque_event_stream(script, net, stats)
        verdicts = grasp_verdicts(script.frames, script.slab)
        result = synchronize(events, verdicts, SyncConfig())
        assert result.samples, "expected paired samples"
        for sample in result.samples:
            tq = sample.torque.scores.predicted in (
                ActionClass.HOLD, ActionClass.PULL, ActionClass.PULL_UP,
            )
            assert sample.fused_vote == (tq and sample.vision.vote)

    def test_empty_vision_stream_rejected(self, small_model):
        net, stats, _ = small_model
        script = generate_scenario(ActionClass.PULL, FaultProfile.clean(), seed=47)
        stripped = ScenarioScript(
            action=script.action, torques=script.torques,
            torque_start_ms=script.torque_start_ms, frames=block_from_frames(()),
            slab=script.slab, faults=script.faults,
            action_onset_ms=script.action_onset_ms, grasp_at_ms=script.grasp_at_ms,
        )
        with pytest.raises(ValueError, match="vision frames|non-empty"):
            run_episode(stripped, net, stats, pipeline=Pipeline.VISION_ONLY)
        with pytest.raises(ValueError, match="non-empty"):
            run_episode(stripped, net, stats, pipeline=Pipeline.FUSED)

    @pytest.mark.parametrize("pipeline", [Pipeline.FUSED, Pipeline.TORQUE_ONLY, Pipeline.VISION_ONLY])
    def test_out_of_range_torque_sample_rejected(self, small_model, pipeline):
        # the script checks its torques as a TorqueWindow does, so no
        # pipeline, not even vision-only, runs an out-of-range stream
        net, stats, _ = small_model
        script = generate_scenario(ActionClass.PULL, FaultProfile.clean(), seed=48)
        torques = np.array(script.torques)
        torques[3, 57] = 40.0
        with pytest.raises(ValueError, match="out of range"):
            spiked = ScenarioScript(
                action=script.action, torques=torques,
                torque_start_ms=script.torque_start_ms, frames=script.frames,
                slab=script.slab, faults=script.faults,
                action_onset_ms=script.action_onset_ms, grasp_at_ms=script.grasp_at_ms,
            )
            run_episode(spiked, net, stats, pipeline=pipeline)

    def test_event_stream_matches_single_windows(self, small_model):
        net, stats, _ = small_model
        script = generate_scenario(ActionClass.HOLD, FaultProfile.clean(), seed=49)
        events = torque_event_stream(script, net, stats)
        assert len(events) == 17
        for start, event in zip(range(0, 81, 5), events):
            window = TorqueWindow(
                samples=script.torques[:, start:start + 40],
                start_time=script.torque_start_ms + start * 25,
            )
            want = window_scores(net, stats, window)
            for got in (event.scores, classify_window(net, stats, window)):
                assert np.max(np.abs(got.probabilities - want.probabilities)) <= 1e-9
                assert got.predicted is want.predicted


def skew_off_by_one(fused_line):
    fused_line["skew_ms"] += 1


def pair_5_s_apart(fused_line):
    fused_line["vision"]["evaluated_at"] -= 5000
    fused_line["skew_ms"] += 5000


def torque_vote_on_no_action(vote_line):
    vote_line["predicted"] = int(ActionClass.NO_ACTION)


def vision_vote_without_fingers(vote_line):
    vote_line["fingers_in_slab"] = 0


class TestEpisodeLogReplay:
    def run_and_log(self, small_model, tmp_path, action, pipeline, seed):
        net, stats, _ = small_model
        script = generate_scenario(action, FaultProfile.clean(), seed=seed)
        outcome = run_episode(script, net, stats, pipeline=pipeline)
        path = tmp_path / f"{pipeline.value}_{action.name}.jsonl"
        write_episode_log(path, outcome)
        return path, outcome

    @pytest.mark.parametrize("pipeline", list(Pipeline))
    def test_replay_reproduces_decisions(self, small_model, tmp_path, pipeline):
        path, outcome = self.run_and_log(small_model, tmp_path, ActionClass.PULL, pipeline, 50)
        result = replay_episode_log(path)
        assert result.matched, result.mismatches
        assert result.released == outcome.released
        assert result.release_time_ms == outcome.release_time_ms

    def test_replay_detects_tampered_summary(self, small_model, tmp_path):
        path, _ = self.run_and_log(small_model, tmp_path, ActionClass.PULL, Pipeline.FUSED, 51)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[-1])
        assert doc["type"] == "summary"
        doc["released"] = not doc["released"]
        lines[-1] = json.dumps(doc, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        result = replay_episode_log(path)
        assert not result.matched
        assert any("released differs" in m for m in result.mismatches)

    @staticmethod
    def edit_summary(path, **changes):
        lines = path.read_text().splitlines()
        doc = json.loads(lines[-1])
        assert doc["type"] == "summary"
        doc.update(changes)
        lines[-1] = json.dumps(doc, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("changes, error, match", [
        ({"n_samples": 999, "dropped_torque_events": -5}, ValueError, "non-negative"),
        ({"n_samples": -1}, ValueError, "non-negative"),
        ({"n_samples": "12"}, TypeError, "expected a JSON int"),
        ({"dropped_torque_events": 0.0}, TypeError, "expected a JSON int"),
        ({"n_samples": True}, TypeError, "expected a JSON int"),
    ], ids=["negative-dropped", "negative-samples", "string-samples", "float-dropped", "bool-samples"])
    def test_replay_rejects_summary_counts_that_are_not_counts(self, small_model, tmp_path, changes, error, match):
        path, _ = self.run_and_log(small_model, tmp_path, ActionClass.PULL, Pipeline.FUSED, 51)
        self.edit_summary(path, **changes)
        with pytest.raises(error, match=match):
            replay_episode_log(path)

    @pytest.mark.parametrize("pipeline", list(Pipeline))
    @pytest.mark.parametrize("key", ["n_samples", "dropped_torque_events"])
    def test_replay_checks_the_counts_of_an_unreleased_log(self, small_model, tmp_path, monkeypatch, pipeline, key):
        # a PUSH never releases on torque; vision alone sees no grasp here
        monkeypatch.setattr(fusion, "grasp_verdicts", lambda *args: [verdict(False, t) for t in range(0, 3000, 100)])
        path, outcome = self.run_and_log(small_model, tmp_path, ActionClass.PUSH, pipeline, 53)
        assert not outcome.released
        logged = outcome.events[-1][key]
        for count in (logged + 1, logged - 1):
            if count >= 0:
                self.edit_summary(path, **{key: count})
                result = replay_episode_log(path)
                assert not result.matched
                assert any(f"{key} differs" in m for m in result.mismatches)

    @pytest.mark.parametrize("key", ["n_samples", "dropped_torque_events"])
    def test_replay_checks_the_counts_of_a_released_log(self, small_model, tmp_path, key):
        path, outcome = self.run_and_log(small_model, tmp_path, ActionClass.PULL, Pipeline.FUSED, 51)
        assert outcome.released
        kinds = {"n_samples": ("fused_sample",), "dropped_torque_events": ("unpaired_torque",)}[key]
        steps = sum(line["type"] in kinds for line in outcome.events)
        # the stream may go on past the release, never stop before its logged steps
        self.edit_summary(path, **{key: steps + 1000})
        assert replay_episode_log(path).matched
        if steps:
            self.edit_summary(path, **{key: steps - 1})
            result = replay_episode_log(path)
            assert not result.matched
            assert any(f"{key} differs" in m for m in result.mismatches)

    def test_replay_rejects_non_finite_probabilities(self, small_model, tmp_path):
        path, _ = self.run_and_log(small_model, tmp_path, ActionClass.PULL, Pipeline.FUSED, 52)
        lines = path.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if '"fused_sample"' in line)
        doc = json.loads(lines[k])
        doc["torque"]["probabilities"][0] = float("nan")
        lines[k] = json.dumps(doc, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="finite"):
            replay_episode_log(path)

    @pytest.mark.parametrize("pipeline, kind, edit, match", [
        (Pipeline.FUSED, "fused_sample", skew_off_by_one, "skew_ms"),
        (Pipeline.FUSED, "fused_sample", pair_5_s_apart, "pairing window"),
        (Pipeline.TORQUE_ONLY, "vote_sample", torque_vote_on_no_action, "predicted"),
        (Pipeline.VISION_ONLY, "vote_sample", vision_vote_without_fingers, "fingers_in_slab"),
    ], ids=["skew", "pair-outside-window", "torque-vote", "vision-vote"])
    def test_replay_rejects_a_step_that_contradicts_itself(self, small_model, tmp_path, pipeline, kind, edit, match):
        # each edit leaves the FSM's inputs as they were, so the decisions still match
        path, _ = self.run_and_log(small_model, tmp_path, ActionClass.PULL, pipeline, 51)
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        # the first such step (a vote sample that votes), which replay reads before any release
        k = next(i for i, doc in enumerate(docs) if doc["type"] == kind and doc.get("vote", True))
        edit(docs[k])
        path.write_text("".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs))
        with pytest.raises(ValueError, match=f"^line {k + 1}: .*{match}"):
            replay_episode_log(path)
        assert cli.main(["replay", "--log", str(path)]) == 2

    def test_replay_accepts_a_pair_on_the_pairing_window_edge(self, small_model, tmp_path):
        # the torque events at 1125 ms and every 250 ms after lie 8 ms from a frame
        net, stats, _ = small_model
        script = generate_scenario(ActionClass.PUSH, FaultProfile.clean(), seed=51)
        outcome = run_episode(script, net, stats, SyncConfig(pairing_window_ms=8), Pipeline.FUSED)
        assert 8 in [abs(e["skew_ms"]) for e in outcome.events if e["type"] == "fused_sample"]
        path = tmp_path / "edge.jsonl"
        write_episode_log(path, outcome)
        assert replay_episode_log(path).matched

    def test_replay_requires_header(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"type": "summary", "released": false}\n')
        with pytest.raises(ValueError, match="header"):
            replay_episode_log(path)


class TestDebounceOverTime:
    """The debounce counts votes that are consecutive in time, not in pairing."""

    def test_unpaired_torque_events_reset_the_debounce(self, monkeypatch, tmp_path):
        # PULL every 125 ms, camera verdicts only at 1000, 1500 and 1600 ms:
        # the events at 1125, 1250 and 1375 ms find no partner within 100 ms
        events = [
            TorqueEvent(scores=scores_for(ActionClass.PULL), timestamp=t)
            for t in range(1000, 1626, 125)
        ]
        verdicts = [verdict(True, t) for t in (1000, 1500, 1600)]
        monkeypatch.setattr(fusion, "torque_event_stream", lambda *args: events)
        monkeypatch.setattr(fusion, "grasp_verdicts", lambda *args: verdicts)
        script = generate_scenario(ActionClass.PULL, FaultProfile.clean(), seed=60)
        outcome = run_episode(script, None, None, SyncConfig(debounce_frames=3))
        assert outcome.events[-1]["dropped_torque_events"] == 3
        assert not outcome.released
        unpaired = [e["t"] for e in outcome.events if e["type"] == "unpaired_torque"]
        assert unpaired == [1125, 1250, 1375]
        path = tmp_path / "gap.jsonl"
        write_episode_log(path, outcome)
        assert replay_episode_log(path).matched


class TestNoDetectionObjects:
    """The pipelines read the scenario's detection arrays; no caller of
    run_episode or run_experiment builds a FingertipDetection."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        original = FingertipDetection.__post_init__

        def counting(detection):
            count[0] += 1
            original(detection)

        monkeypatch.setattr(FingertipDetection, "__post_init__", counting)
        return count

    @pytest.mark.parametrize("pipeline", list(Pipeline))
    def test_run_episode(self, small_model, built, pipeline):
        net, stats, _ = small_model
        script = generate_scenario(ActionClass.PULL, FaultProfile.clean(), seed=70)
        run_episode(script, net, stats, pipeline=pipeline)
        assert built[0] == 0
        script.frames[0]  # the first access builds every frame, 4 fingers each
        assert built[0] == 4 * len(script.frames)

    def test_run_experiment(self, small_model, built, tmp_path):
        net, stats, _ = small_model
        config = ExperimentConfig(
            trials_per_action=1, actions=(ActionClass.PULL,),
            pipelines=(Pipeline.VISION_ONLY, Pipeline.FUSED), out_dir=str(tmp_path),
        )
        _table, records = run_experiment(config, model=(net, stats))
        assert len(records) == 2
        assert built[0] == 0


def logged_docs(small_model, path, action, pipeline, seed):
    """One clean episode's log lines as documents, written to ``path``."""
    net, stats, _ = small_model
    outcome = run_episode(generate_scenario(action, FaultProfile.clean(), seed=seed), net, stats,
                          pipeline=pipeline)
    write_episode_log(path, outcome)
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_docs(path, docs):
    path.write_text("".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs))


STEP_KINDS = ("vote_sample", "fused_sample", "unpaired_torque")


class TestReplayLineOrder:
    """The header comes first, one summary comes last, and the lines between
    are the decision core's log of the logged steps, line for line."""

    @pytest.fixture
    def released(self, small_model, tmp_path):
        path = tmp_path / "fused.jsonl"
        docs = logged_docs(small_model, path, ActionClass.PULL, Pipeline.FUSED, 51)
        assert docs[-1]["released"]
        return path, docs

    def test_a_copied_step_after_the_release_is_refused(self, released):
        path, docs = released
        last_step = max(i for i, doc in enumerate(docs) if doc["type"] in STEP_KINDS)
        docs.insert(len(docs) - 1, docs[last_step])
        write_docs(path, docs)
        with pytest.raises(ValueError, match=f"^line {len(docs) - 1}: "):
            replay_episode_log(path)
        assert cli.main(["replay", "--log", str(path)]) == 2

    def test_a_later_step_after_the_release_is_a_mismatch(self, released):
        # a step that agrees with itself and comes after every other step
        path, docs = released
        step = json.loads(json.dumps(next(doc for doc in reversed(docs) if doc["type"] == "fused_sample")))
        step["torque"]["timestamp"] += 125
        step["vision"]["evaluated_at"] += 125
        docs.insert(len(docs) - 1, step)
        write_docs(path, docs)
        result = replay_episode_log(path)
        assert not result.matched
        assert any(m.startswith(f"line {len(docs) - 1} ") for m in result.mismatches), result.mismatches

    def test_a_transition_moved_to_line_2_is_a_mismatch(self, released):
        path, docs = released
        k = next(i for i, doc in enumerate(docs) if doc["type"] == "transition")
        docs.insert(1, docs.pop(k))
        write_docs(path, docs)
        result = replay_episode_log(path)
        assert not result.matched
        assert any(m.startswith("line 2 ") for m in result.mismatches), result.mismatches

    def test_a_transition_time_written_as_a_float_is_a_mismatch(self, released):
        # 2250.0 == 2250 in Python, but the decision core writes the integer
        path, docs = released
        k = next(i for i, doc in enumerate(docs) if doc["type"] == "transition")
        docs[k]["t"] = float(docs[k]["t"])
        write_docs(path, docs)
        result = replay_episode_log(path)
        assert not result.matched
        assert any(m.startswith(f"line {k + 1} ") for m in result.mismatches), result.mismatches
        assert cli.main(["replay", "--log", str(path)]) == 1

    @pytest.mark.parametrize("key, retype", [("released", int), ("release_time_ms", float)])
    def test_a_summary_decision_of_another_json_type_is_refused(self, released, key, retype):
        # 1 == True and 2500.0 == 2500 in Python, yet neither is the JSON type the summary holds
        path, docs = released
        docs[-1][key] = retype(docs[-1][key])
        write_docs(path, docs)
        with pytest.raises(TypeError, match="expected a JSON"):
            replay_episode_log(path)
        assert cli.main(["replay", "--log", str(path)]) == 2

    @pytest.mark.parametrize("edit", ["moved-to-line-2", "repeated", "repeated-on-line-2"])
    def test_the_summary_must_be_the_one_last_line(self, released, edit):
        path, docs = released
        summary = docs[-1]
        if edit == "moved-to-line-2":
            docs.insert(1, docs.pop())
        elif edit == "repeated":
            docs.append(summary)
        else:
            docs.insert(1, summary)
        write_docs(path, docs)
        with pytest.raises(ValueError, match="summary"):
            replay_episode_log(path)
        assert cli.main(["replay", "--log", str(path)]) == 2


class TestReplayStepKinds:
    """The header's pipeline fixes which step lines its log may hold."""

    @pytest.mark.parametrize("pipeline, stranger", [
        (Pipeline.FUSED, "torque"), (Pipeline.FUSED, "vision"),
        (Pipeline.TORQUE_ONLY, "vision"), (Pipeline.TORQUE_ONLY, "unpaired"),
        (Pipeline.VISION_ONLY, "torque"), (Pipeline.VISION_ONLY, "unpaired"),
    ])
    def test_a_step_of_another_pipeline_is_refused(self, small_model, tmp_path, pipeline, stranger):
        # the stranger replaces the first step at its time and with its vote
        # (that step votes no), so the decision core sees the same inputs
        path = tmp_path / "log.jsonl"
        docs = logged_docs(small_model, path, ActionClass.PULL, pipeline, 51)
        k = next(i for i, doc in enumerate(docs) if doc["type"] in STEP_KINDS)
        if docs[k]["type"] == "fused_sample":
            t, vote = docs[k]["torque"]["timestamp"], docs[k]["fused_vote"]
        else:
            t, vote = docs[k]["t"], docs[k]["vote"]
        assert not vote
        docs[k] = {
            "torque": {"type": "vote_sample", "source": "torque", "t": t, "vote": vote,
                       "predicted": int(ActionClass.PULL if vote else ActionClass.NO_ACTION)},
            "vision": {"type": "vote_sample", "source": "vision", "t": t, "vote": vote,
                       "fingers_in_slab": 4 if vote else 0, "thumb_in_slab": vote},
            "unpaired": {"type": "unpaired_torque", "t": t},
        }[stranger]
        write_docs(path, docs)
        with pytest.raises(ValueError, match=f"^line {k + 1}: "):
            replay_episode_log(path)
        assert cli.main(["replay", "--log", str(path)]) == 2


def computed_key_edits(docs):
    """(line index, edit) for every key a log line computes from its others."""
    def flip(*keys):
        def edit(doc):
            for key in keys[:-1]:
                doc = doc[key]
            doc[keys[-1]] = not doc[keys[-1]]
        return edit

    def shift_skew(doc):
        doc["skew_ms"] += 1

    def other_prediction(doc):
        doc["torque"]["predicted"] = (doc["torque"]["predicted"] + 1) % len(ActionClass)

    def other_release_time(doc):
        doc["release_time_ms"] = 0 if doc["release_time_ms"] is None else None

    edits = []
    for i, doc in enumerate(docs):
        if doc["type"] == "vote_sample":
            edits.append((i, flip("vote")))
        elif doc["type"] == "fused_sample":
            edits += [(i, flip("fused_vote")), (i, flip("vision", "vote")), (i, shift_skew), (i, other_prediction)]
        elif doc["type"] == "summary":
            edits += [(i, flip("released")), (i, other_release_time)]
    return edits


def leaves_another_streams_log(docs, dropped):
    """True when dropping line ``dropped`` leaves a log of another stream: a
    step that voted no while holding idle (no transition follows it) in a
    released log. Such a step moved no state, and the summary counts the
    whole stream, so the log holds no trace of it, as it holds no trace of
    the raw data behind a vote."""
    doc = docs[dropped]
    votes = doc["type"] == "vote_sample" and doc["vote"] or doc["type"] == "fused_sample" and doc["fused_vote"]
    return (docs[-1]["released"] and doc["type"] in STEP_KINDS and not votes
            and docs[dropped + 1]["type"] != "transition")


@settings(max_examples=300)
@given(pipeline=st.sampled_from(list(Pipeline)), action=st.sampled_from(list(ActionClass)),
       seed=st.integers(0, 2**16), edit=st.sampled_from(["computed", "drop", "duplicate", "move", "append"]),
       data=st.data())
def test_replay_refuses_any_edit_of_what_a_log_computes_or_orders(small_model, tmp_path_factory, pipeline,
                                                                 action, seed, edit, data):
    path = tmp_path_factory.mktemp("edits") / "log.jsonl"
    docs = logged_docs(small_model, path, action, pipeline, seed)
    lines = list(range(1, len(docs)))  # any line but the header
    if edit == "computed":
        k, change = data.draw(st.sampled_from(computed_key_edits(docs)))
        change(docs[k])
    elif edit == "drop":
        k = data.draw(st.sampled_from(lines))
        assume(not leaves_another_streams_log(docs, k))
        docs.pop(k)
    elif edit == "duplicate":
        k, at = data.draw(st.sampled_from(lines)), data.draw(st.integers(1, len(docs)))
        docs.insert(at, docs[k])
    elif edit == "move":
        k, at = data.draw(st.sampled_from(lines)), data.draw(st.integers(0, len(docs) - 1))
        assume(at != k)
        docs.insert(at, docs.pop(k))
    else:
        step = data.draw(st.sampled_from([doc for doc in docs if doc["type"] in STEP_KINDS]))
        docs.insert(len(docs) - 1, step)
    write_docs(path, docs)
    try:
        result = replay_episode_log(path)
    except (TypeError, ValueError):
        return
    assert not result.matched, (edit, docs)
