"""Acceptance gates: every criterion runs end to end at its stated tolerance
and prints one pass/fail line. Run with `pytest tests/test_acceptance.py -s`
to see the lines on a passing suite."""
import itertools
import json
import math
import time

import numpy as np
import pytest

import handover.nn_kernel as nn
from handover.classifier import TorqueNetConfig, save_model, train
from handover.cli import main as cli_main
from handover.core import ActionClass, FingerType, FingertipDetection, ObjectSlab
from handover.fusion import (
    FusedSample,
    Pipeline,
    ReleaseFsm,
    SyncConfig,
    TorqueEvent,
    run_episode,
)
from handover.harness import ExperimentConfig, run_experiment
from handover.multibox import (
    Box,
    GroundTruth,
    MultiboxInstance,
    Prediction,
    confidence_loss,
    iou,
    localization_loss,
    match_boxes,
    total_loss,
)
from handover.core import ActionScores
from handover.synth import FaultProfile, default_signature_model, generate_dataset, generate_scenario
from handover.vision_gate import evaluate_grasp


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="session")
def benchmark_model():
    """Criterion-3 training run, shared with criterion 7."""
    started = time.perf_counter()
    dataset = generate_dataset(default_signature_model(), per_class_count=300, seed=0)
    net, stats, report = train(dataset, TorqueNetConfig(seed=7, epochs=30))
    elapsed = time.perf_counter() - started
    return net, stats, report, elapsed


# ---------------------------------------------------------------------------
# criterion 1: numeric kernels vs brute-force oracles
# ---------------------------------------------------------------------------

def conv1d_brute_force(x, weight, bias):
    out_ch, in_ch, k = weight.shape
    length = x.shape[1]
    p = (k - 1) // 2
    out = np.zeros((out_ch, length))
    for o in range(out_ch):
        for t in range(length):
            acc = bias[o]
            for i in range(in_ch):
                for j in range(k):
                    src = t + j - p
                    if 0 <= src < length:
                        acc += weight[o, i, j] * x[i, src]
            out[o, t] = acc
    return out


def test_criterion_1_numeric_kernel_oracles():
    gen = np.random.default_rng(101)
    started = time.perf_counter()

    worst_conv = 0.0
    for case in range(1000):
        in_ch = int(gen.integers(1, 9))
        out_ch = int(gen.integers(1, 9))
        k = int(gen.choice([1, 3, 5]))
        length = int(gen.integers(max(k, 2), 65))
        layer = nn.Conv1D(gen.standard_normal((out_ch, in_ch, k)), gen.standard_normal(out_ch))
        x = gen.standard_normal((in_ch, length))
        got = layer.forward(x[None])[0]
        want = conv1d_brute_force(x, layer.weight, layer.bias)
        worst_conv = max(worst_conv, float(np.abs(got - want).max()))
    assert worst_conv < 1e-9

    worst_bn = 0.0
    for case in range(1000):
        channels = int(gen.integers(1, 5))
        batch = int(gen.integers(1, 5))
        length = int(gen.integers(2, 12))
        layer = nn.BatchNorm1D(gen.uniform(0.5, 2.0, channels), gen.uniform(-1.0, 1.0, channels),
                               np.zeros(channels), np.ones(channels))
        x = gen.standard_normal((batch, channels, length)) * 2.0 + gen.uniform(-1, 1)
        out = layer.forward(x, training=True)
        # brute-force statistics per channel
        for c in range(channels):
            values = [x[b, c, t] for b in range(batch) for t in range(length)]
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            want = [
                layer.gamma[c] * (v - mean) / math.sqrt(var + nn.BATCHNORM_EPSILON) + layer.beta[c]
                for v in values
            ]
            got = [out[b, c, t] for b in range(batch) for t in range(length)]
            worst_bn = max(worst_bn, max(abs(a - b) for a, b in zip(got, want)))
    assert worst_bn < 1e-6

    worst_gap = 0.0
    for case in range(1000):
        x = gen.standard_normal((int(gen.integers(1, 8)), int(gen.integers(1, 40))))
        want = [sum(row) / len(row) for row in x]
        worst_gap = max(worst_gap, float(np.abs(nn.GlobalAvgPool1D().forward(x) - want).max()))
    assert worst_gap < 1e-9

    worst_soft = 0.0
    for case in range(1000):
        z = gen.standard_normal(int(gen.integers(2, 12))) * float(gen.choice([1.0, 10.0, 100.0]))
        exps = [math.exp(v - max(z)) for v in z]
        want = [e / sum(exps) for e in exps]
        worst_soft = max(worst_soft, float(np.abs(nn.softmax(z) - want).max()))
    assert worst_soft < 1e-9

    worst_ce = 0.0
    for case in range(1000):
        p = gen.uniform(0.01, 1.0, int(gen.integers(2, 10)))
        p /= p.sum()
        target = int(gen.integers(p.size))
        want = -math.log(p[target])
        worst_ce = max(worst_ce, abs(nn.cross_entropy_loss(p, target) - want))
    assert worst_ce < 1e-9

    elapsed = time.perf_counter() - started
    check(
        "1 numeric kernels",
        elapsed < 30.0,
        f"5x1000 cases, worst errors conv {worst_conv:.1e} bn {worst_bn:.1e} "
        f"gap {worst_gap:.1e} softmax {worst_soft:.1e} ce {worst_ce:.1e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: analytic gradients vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_check():
    started = time.perf_counter()
    gen = np.random.default_rng(202)

    def he_uniform(*shape):
        bound = np.sqrt(6.0 / np.prod(shape[1:]))
        return gen.uniform(-bound, bound, size=shape)

    layers = []
    for in_ch in (1, 4, 4):
        bn = nn.BatchNorm1D(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4))
        layers += [nn.Conv1D(he_uniform(4, in_ch, 3), np.zeros(4)), bn, nn.ReLU()]
    net = nn.Network(layers + [nn.GlobalAvgPool1D(), nn.Linear(he_uniform(6, 4), np.zeros(6))])
    x = gen.standard_normal((6, 1, 20))
    targets = gen.integers(0, 6, 6)
    nn.backward(net, x, targets)

    def loss_now():
        logits = net.forward(x, training=True)
        return nn.mean_cross_entropy(nn.softmax(logits), targets)

    slots = []
    for li, layer in enumerate(net.layers):
        for name, arr in layer.params().items():
            slots.append((li, name, arr))
    h = 1e-4
    worst = 0.0
    for _ in range(100):
        li, name, arr = slots[int(gen.integers(len(slots)))]
        flat = arr.ravel()
        idx = int(gen.integers(flat.size))
        orig = flat[idx]
        flat[idx] = orig + h
        plus = loss_now()
        flat[idx] = orig - h
        minus = loss_now()
        flat[idx] = orig
        numeric = (plus - minus) / (2 * h)
        analytic = net.layers[li].grads[name].ravel()[idx]
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3))
    elapsed = time.perf_counter() - started
    check(
        "2 gradient check",
        worst < 1e-4 and elapsed < 60.0,
        f"100 coordinates, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: classifier accuracy gate on the default synthetic benchmark
# ---------------------------------------------------------------------------

def test_criterion_3_classifier_gate(benchmark_model):
    _, _, report, elapsed = benchmark_model
    check(
        "3 classifier gate",
        report.holdout_accuracy >= 0.95 and elapsed < 300.0,
        f"held-out accuracy {report.holdout_accuracy:.4f} on 1800 windows "
        f"(300/class, 30 epochs), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: multibox losses and matching vs independent recomputation
# ---------------------------------------------------------------------------

def _encode(box):
    w = box.x_max - box.x_min
    h = box.y_max - box.y_min
    return [box.x_min + w / 2, box.y_min + h / 2, math.log(w), math.log(h)]


def _conf_oracle(inst):
    matched = dict(inst.match.pairs)
    total = 0.0
    for i, pred in enumerate(inst.predicted):
        cls = inst.ground_truth[matched[i]].class_index if i in matched else 0
        total += -math.log(max(pred.confidences[cls], 1e-12))
    return total


def _loc_oracle(inst):
    total = 0.0
    for i, j in inst.match.pairs:
        deltas = [a - b for a, b in zip(_encode(inst.predicted[i].box), _encode(inst.ground_truth[j].box))]
        total += sum(0.5 * d * d if abs(d) < 1.0 else abs(d) - 0.5 for d in deltas)
    return total


def _match_oracle(pred_boxes, gts):
    overlaps = [[iou(p, g.box) for g in gts] for p in pred_boxes]
    pairs = []
    free_pred = set(range(len(pred_boxes)))
    free_gt = set(range(len(gts)))
    while free_pred and free_gt:
        best = None
        for i in sorted(free_pred):
            for j in sorted(free_gt):
                if best is None or overlaps[i][j] > best[0]:
                    best = (overlaps[i][j], i, j)
        _, i, j = best
        pairs.append((i, j))
        free_pred.remove(i)
        free_gt.remove(j)
    for i in sorted(free_pred):
        if not gts:
            break
        best_j = max(range(len(gts)), key=lambda j: (overlaps[i][j], -j))
        if overlaps[i][best_j] >= 0.5:
            pairs.append((i, best_j))
    return sorted(pairs)


def _random_box(gen):
    x0 = gen.uniform(0.0, 0.9)
    y0 = gen.uniform(0.0, 0.9)
    return Box(x0, y0, x0 + gen.uniform(0.02, min(0.5, 1.0 - x0)),
               y0 + gen.uniform(0.02, min(0.5, 1.0 - y0)))


def test_criterion_4_multibox_oracle():
    gen = np.random.default_rng(404)
    worst = 0.0
    matches_checked = 0
    for case in range(500):
        n_pred = int(gen.integers(1, 7))
        n_gt = int(gen.integers(0, 4))
        n_classes = int(gen.integers(1, 4))
        preds = []
        for _ in range(n_pred):
            conf = gen.uniform(0.05, 1.0, n_classes + 1)
            conf /= conf.sum()
            preds.append(Prediction(_random_box(gen), tuple(conf)))
        gts = [
            GroundTruth(_random_box(gen), int(gen.integers(1, n_classes + 1)))
            for _ in range(n_gt)
        ]
        inst = MultiboxInstance.build(preds, gts, alpha=float(gen.uniform(0.0, 3.0)))
        n = inst.match.matched_count
        want = 0.0 if n == 0 else (_conf_oracle(inst) + inst.alpha * _loc_oracle(inst)) / n
        worst = max(worst, abs(total_loss(inst) - want))
        assert sorted(inst.match.pairs) == _match_oracle([p.box for p in preds], gts)
        matches_checked += 1
    assert worst < 1e-12

    # perfect predictions are exactly zero
    for case in range(50):
        boxes = [_random_box(gen) for _ in range(int(gen.integers(1, 4)))]
        classes = [int(gen.integers(1, 4)) for _ in boxes]
        preds = []
        for b, c in zip(boxes, classes):
            conf = [0.0] * 4
            conf[c] = 1.0
            preds.append(Prediction(b, tuple(conf)))
        inst = MultiboxInstance.build(preds, [GroundTruth(b, c) for b, c in zip(boxes, classes)])
        assert total_loss(inst) == 0.0

    check(
        "4 multibox oracle",
        True,
        f"500 random instances within {worst:.1e} of recomputed loss, "
        f"{matches_checked} matchings equal the exhaustive matcher, perfect instances exactly 0",
    )


# ---------------------------------------------------------------------------
# criterion 5: vision gate exhaustive enumeration
# ---------------------------------------------------------------------------

def test_criterion_5_vision_gate_exhaustive():
    slab = ObjectSlab(z_front=0.4, z_back=0.6)
    states = list(itertools.product([True, False], [True, False]))
    cases = 0
    for combo in itertools.product(states, repeat=5):
        detections = [
            FingertipDetection(
                box=(0.1, 0.1, 0.2, 0.2),
                finger_type=FingerType.THUMB if is_thumb else FingerType.OTHER,
                position_3d=(0.0, 0.0, 0.5 if inside else 0.2),
                confidence=0.9,
                timestamp=cases,
            )
            for inside, is_thumb in combo
        ]
        verdict = evaluate_grasp(detections, slab)
        inside = [s for s in combo if s[0]]
        want = len(inside) >= 3 and any(t for _, t in inside)
        assert verdict.vote == want, combo
        cases += 1
    check("5 vision gate", cases == 1024, f"all {cases} enumerated configurations match the rule")


# ---------------------------------------------------------------------------
# criterion 6: fusion logic (AND table, single release, debounce reset)
# ---------------------------------------------------------------------------

def _sample(action, vision_vote, ts, fingers=None):
    probs = np.zeros(6)
    probs[int(action)] = 1.0
    scores = ActionScores(probabilities=probs)
    if fingers is None:
        fingers = 4 if vision_vote else 0
    from handover.vision_gate import VisionVerdict

    verdict = VisionVerdict(
        fingers_in_slab=fingers, thumb_in_slab=bool(vision_vote or fingers >= 4), evaluated_at=ts,
    )
    assert verdict.vote == vision_vote
    return FusedSample(torque=TorqueEvent(scores=scores, timestamp=ts), vision=verdict)


def test_criterion_6_fusion_logic(benchmark_model):
    # AND truth table on every emitted sample
    combos = [
        (ActionClass.PULL, True, True), (ActionClass.PULL, False, False),
        (ActionClass.PUSH, True, False), (ActionClass.PUSH, False, False),
    ]
    for action, vision, want in combos:
        assert _sample(action, vision, 0).fused_vote == want

    # at most one release per episode, FSM refuses further steps
    fsm = ReleaseFsm(SyncConfig(debounce_frames=3))
    decisions = []
    for ts in range(10):
        if fsm.state.value == "released":
            break
        d = fsm.step(_sample(ActionClass.PULL, True, ts))
        if d:
            decisions.append(d)
    assert len(decisions) == 1
    with pytest.raises(ValueError):
        fsm.step(_sample(ActionClass.PULL, True, 99))

    # debounce reset: T T F T T T releases exactly at sample 6
    fsm = ReleaseFsm(SyncConfig(debounce_frames=3))
    released_at = None
    for k, vote in enumerate([True, True, False, True, True, True], start=1):
        d = fsm.step(_sample(ActionClass.PULL, vote, k, fingers=4 if vote else 2))
        if d is not None:
            released_at = k
    assert released_at == 6

    # end-to-end: an episode emits samples that all satisfy the AND gate
    net, stats, _, _ = benchmark_model
    script = generate_scenario(ActionClass.HOLD, FaultProfile.clean(), seed=606)
    outcome = run_episode(script, net, stats)
    emitted = [e for e in outcome.events if e["type"] == "fused_sample"]
    release_set = {int(ActionClass.HOLD), int(ActionClass.PULL), int(ActionClass.PULL_UP)}
    for e in emitted:
        tq = e["torque"]["predicted"] in release_set
        assert e["fused_vote"] == (tq and e["vision"]["vote"])
    assert sum(1 for e in outcome.events if e["type"] == "decision") <= 1

    check(
        "6 fusion logic",
        True,
        f"AND table holds, single release enforced, debounce reset at sample 6, "
        f"{len(emitted)} episode samples audited",
    )


# ---------------------------------------------------------------------------
# criterion 7: calibrated simulation reproduces the per-action structure
# ---------------------------------------------------------------------------

def test_criterion_7_simulation_structure(benchmark_model):
    net, stats, _, _ = benchmark_model
    started = time.perf_counter()
    config = ExperimentConfig(trials_per_action=30, seed=123)
    table, records = run_experiment(config, model=(net, stats))
    elapsed = time.perf_counter() - started

    vision_push_successes, _ = table.per_action[Pipeline.VISION_ONLY][ActionClass.PUSH]
    fused = table.rate(Pipeline.FUSED)
    torque = table.rate(Pipeline.TORQUE_ONLY)
    vision = table.rate(Pipeline.VISION_ONLY)

    assert len(records) == 30 * 6 * 3
    assert vision_push_successes == 0
    assert fused >= 0.95
    assert fused >= torque and fused >= vision
    check(
        "7 simulation structure",
        elapsed < 600.0,
        f"vision push 0/30, fused {fused:.1%} >= torque {torque:.1%} "
        f"and vision {vision:.1%}, {elapsed:.0f}s for 540 trials",
    )


# ---------------------------------------------------------------------------
# criterion 8: byte-identical artifacts for identical seeds
# ---------------------------------------------------------------------------

def test_criterion_8_simulate_determinism(benchmark_model, tmp_path):
    net, stats, _, _ = benchmark_model
    model_path = tmp_path / "model.json"
    save_model(model_path, net, stats)
    outs = []
    for sub in ("first", "second"):
        out_dir = tmp_path / sub
        code = cli_main([
            "simulate", "--seed", "42", "--trials", "2",
            "--out-dir", str(out_dir), "--model", str(model_path),
        ])
        assert code == 0
        outs.append(out_dir)
    trials_same = (outs[0] / "trials.jsonl").read_bytes() == (outs[1] / "trials.jsonl").read_bytes()
    report_same = (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    check(
        "8 determinism",
        trials_same and report_same,
        "simulate twice with seed 42: trials.jsonl and report.json byte-identical",
    )
