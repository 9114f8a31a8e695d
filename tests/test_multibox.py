import math

import numpy as np
import pytest

from handover.multibox import (
    IOU_MATCH_THRESHOLD,
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


# ---------------------------------------------------------------------------
# oracles: independent re-derivations used to check the implementation
# ---------------------------------------------------------------------------

def match_oracle(pred_boxes, gts):
    """Greedy bipartite + threshold matching, re-derived with plain loops."""
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
        best_j = 0
        for j in range(len(gts)):
            if overlaps[i][j] > overlaps[i][best_j]:
                best_j = j
        if overlaps[i][best_j] >= IOU_MATCH_THRESHOLD:
            pairs.append((i, best_j))
    return sorted(pairs)


def smooth_l1_oracle(deltas):
    total = 0.0
    for d in deltas:
        total += 0.5 * d * d if abs(d) < 1.0 else abs(d) - 0.5
    return total


def encode_oracle(box):
    w = box.x_max - box.x_min
    h = box.y_max - box.y_min
    return [box.x_min + w / 2, box.y_min + h / 2, math.log(w), math.log(h)]


def confidence_oracle(instance):
    matched = dict(instance.match.pairs)
    total = 0.0
    for i, pred in enumerate(instance.predicted):
        cls = instance.ground_truth[matched[i]].class_index if i in matched else 0
        total += -math.log(max(pred.confidences[cls], 1e-12))
    return total


def localization_oracle(instance):
    total = 0.0
    for i, j in instance.match.pairs:
        li = encode_oracle(instance.predicted[i].box)
        gj = encode_oracle(instance.ground_truth[j].box)
        total += smooth_l1_oracle([a - b for a, b in zip(li, gj)])
    return total


def random_box(gen, max_size=0.5):
    x0 = gen.uniform(0.0, 0.9)
    y0 = gen.uniform(0.0, 0.9)
    w = gen.uniform(0.02, min(max_size, 1.0 - x0))
    h = gen.uniform(0.02, min(max_size, 1.0 - y0))
    return Box(x0, y0, x0 + w, y0 + h)


def random_instance(gen, n_classes=3, max_pred=6, max_gt=3, alpha=None):
    n_pred = int(gen.integers(1, max_pred + 1))
    n_gt = int(gen.integers(0, max_gt + 1))
    preds = []
    for _ in range(n_pred):
        conf = gen.uniform(0.05, 1.0, n_classes + 1)
        conf /= conf.sum()
        preds.append(Prediction(box=random_box(gen), confidences=tuple(conf)))
    gts = [
        GroundTruth(box=random_box(gen), class_index=int(gen.integers(1, n_classes + 1)))
        for _ in range(n_gt)
    ]
    alpha = float(gen.uniform(0.0, 3.0)) if alpha is None else alpha
    return MultiboxInstance.build(preds, gts, alpha=alpha)


class TestBox:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Box(-0.1, 0.0, 0.5, 0.5)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Box(0.5, 0.0, 0.5, 0.5)

    def test_encode_matches_oracle(self, rng):
        for _ in range(20):
            b = random_box(rng)
            assert np.allclose(b.encode(), encode_oracle(b), atol=1e-12)


class TestIou:
    def test_identical_boxes(self):
        b = Box(0.1, 0.1, 0.4, 0.3)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(Box(0.0, 0.0, 0.2, 0.2), Box(0.5, 0.5, 0.7, 0.7)) == 0.0

    def test_exact_third_overlap(self):
        # intersection 0.1*0.2 = 0.02, union 0.04 + 0.04 - 0.02 = 0.06
        a = Box(0.0, 0.0, 0.2, 0.2)
        b = Box(0.1, 0.0, 0.3, 0.2)
        assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_symmetry_and_range(self, rng):
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0

    def test_touching_boxes_have_zero_iou(self):
        assert iou(Box(0.0, 0.0, 0.2, 0.2), Box(0.2, 0.0, 0.4, 0.2)) == 0.0


class TestMatchBoxes:
    def test_identical_pair_matches(self):
        b = Box(0.1, 0.1, 0.5, 0.5)
        result = match_boxes([b], [GroundTruth(b, 1)])
        assert result.matched_count == 1
        assert result.pairs == ((0, 0),)
        assert result.matrix.tolist() == [[1]]

    def test_no_ground_truth_matches_nothing(self):
        result = match_boxes([Box(0.1, 0.1, 0.5, 0.5)], [])
        assert result.matched_count == 0
        assert result.matrix.shape == (1, 0)

    def test_empty_predictions_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            match_boxes([], [(Box(0.1, 0.1, 0.5, 0.5), 1)])

    def test_every_ground_truth_gets_its_best_box(self):
        far = Box(0.7, 0.7, 0.9, 0.9)
        near = Box(0.1, 0.1, 0.32, 0.3)
        gt = GroundTruth(Box(0.1, 0.1, 0.3, 0.3), 2)
        result = match_boxes([far, near], [gt])
        assert result.pairs == ((1, 0),)

    def test_threshold_pass_adopts_overlapping_predictions(self):
        gt_box = Box(0.1, 0.1, 0.5, 0.5)
        close = Box(0.1, 0.1, 0.5, 0.45)  # IoU 0.9 with gt
        result = match_boxes([gt_box, close], [GroundTruth(gt_box, 1)])
        assert set(result.pairs) == {(0, 0), (1, 0)}
        assert result.matched_count == 2

    def test_below_threshold_prediction_stays_unmatched(self):
        gt_box = Box(0.1, 0.1, 0.5, 0.5)
        weak = Box(0.4, 0.4, 0.8, 0.8)  # IoU ~0.037
        result = match_boxes([gt_box, weak], [GroundTruth(gt_box, 1)])
        assert set(result.pairs) == {(0, 0)}

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(300):
            inst = random_instance(rng)
            got = sorted(inst.match.pairs)
            want = match_oracle([p.box for p in inst.predicted], list(inst.ground_truth))
            assert got == want

    def test_each_prediction_matched_at_most_once(self, rng):
        for _ in range(100):
            inst = random_instance(rng)
            assert np.all(inst.match.matrix.sum(axis=1) <= 1)
            assert inst.match.matched_count == inst.match.matrix.sum()

    def test_invariant_under_ground_truth_permutation(self, rng):
        # general position: every prediction overlaps every ground truth with
        # a distinct positive IoU, so index tie-breaking never kicks in
        for _ in range(50):
            gts = []
            for k in range(3):
                x0 = 0.05 + 0.1 * k
                gts.append(GroundTruth(Box(x0, 0.1, x0 + 0.35, 0.6 + 0.05 * k), k + 1))
            boxes = []
            for _ in range(int(rng.integers(2, 7))):
                x0 = float(rng.uniform(0.0, 0.25))
                y0 = float(rng.uniform(0.0, 0.15))
                boxes.append(Box(x0, y0, x0 + float(rng.uniform(0.3, 0.4)),
                                 y0 + float(rng.uniform(0.4, 0.55))))
            perm = rng.permutation(len(gts))
            shuffled = [gts[k] for k in perm]
            base = {(i, id(gts[j])) for i, j in match_boxes(boxes, gts).pairs}
            again = {(i, id(shuffled[j])) for i, j in match_boxes(boxes, shuffled).pairs}
            assert base == again


class TestConfidenceLoss:
    def perfect_instance(self):
        gt_box = Box(0.1, 0.1, 0.5, 0.5)
        preds = [
            Prediction(gt_box, confidences=(0.0, 1.0, 0.0)),   # matched, class 1
            Prediction(Box(0.6, 0.6, 0.9, 0.9), confidences=(1.0, 0.0, 0.0)),  # background
        ]
        return MultiboxInstance.build(preds, [GroundTruth(gt_box, 1)], alpha=1.0)

    def test_perfect_prediction_is_zero(self):
        assert confidence_loss(self.perfect_instance()) == 0.0

    def test_uniform_confidences_analytic(self):
        k = 2
        uniform = tuple([1.0 / (k + 1)] * (k + 1))
        gt_box = Box(0.1, 0.1, 0.5, 0.5)
        preds = [
            Prediction(gt_box, uniform),
            Prediction(Box(0.6, 0.6, 0.9, 0.9), uniform),
            Prediction(Box(0.2, 0.6, 0.4, 0.9), uniform),
        ]
        inst = MultiboxInstance.build(preds, [GroundTruth(gt_box, 1)])
        assert confidence_loss(inst) == pytest.approx(3 * math.log(k + 1), abs=1e-12)

    def test_matches_summation_oracle(self, rng):
        for _ in range(100):
            inst = random_instance(rng)
            assert confidence_loss(inst) == pytest.approx(confidence_oracle(inst), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            MultiboxInstance.build(
                [
                    Prediction(Box(0.1, 0.1, 0.5, 0.5), (0.5, 0.5)),
                    Prediction(Box(0.2, 0.2, 0.6, 0.6), (0.4, 0.3, 0.3)),
                ],
                [],
            )


class TestLocalizationLoss:
    def test_exact_match_is_zero(self):
        b = Box(0.2, 0.3, 0.6, 0.7)
        inst = MultiboxInstance.build(
            [Prediction(b, (0.0, 1.0))], [GroundTruth(b, 1)], alpha=1.0
        )
        assert localization_loss(inst) == 0.0

    def test_no_matches_is_zero(self):
        inst = MultiboxInstance.build(
            [Prediction(Box(0.1, 0.1, 0.4, 0.4), (1.0, 0.0))], [], alpha=1.0
        )
        assert localization_loss(inst) == 0.0

    def test_matches_smooth_l1_oracle(self, rng):
        for _ in range(100):
            inst = random_instance(rng)
            assert localization_loss(inst) == pytest.approx(localization_oracle(inst), abs=1e-12)


class TestTotalLoss:
    def test_perfect_instance_is_exactly_zero(self):
        gt_box = Box(0.1, 0.1, 0.5, 0.5)
        inst = MultiboxInstance.build(
            [Prediction(gt_box, (0.0, 1.0, 0.0))], [GroundTruth(gt_box, 1)], alpha=1.0
        )
        assert total_loss(inst) == 0.0

    def test_zero_matches_defined_as_zero(self):
        inst = MultiboxInstance.build(
            [Prediction(Box(0.1, 0.1, 0.4, 0.4), (1.0, 0.0))], [], alpha=1.0
        )
        assert total_loss(inst) == 0.0

    def test_alpha_zero_drops_localization(self, rng):
        for _ in range(20):
            inst = random_instance(rng, alpha=0.0)
            if inst.match.matched_count == 0:
                continue
            want = confidence_oracle(inst) / inst.match.matched_count
            assert total_loss(inst) == pytest.approx(want, abs=1e-12)

    def test_compositional_oracle(self, rng):
        for _ in range(100):
            inst = random_instance(rng)
            n = inst.match.matched_count
            want = 0.0 if n == 0 else (
                confidence_oracle(inst) + inst.alpha * localization_oracle(inst)
            ) / n
            assert total_loss(inst) == pytest.approx(want, abs=1e-12)

    def test_always_non_negative(self, rng):
        for _ in range(100):
            assert total_loss(random_instance(rng)) >= 0.0

    def test_continuous_in_box_coordinates_away_from_match_boundaries(self, rng):
        # nudge one matched prediction by epsilon; with the matching fixed,
        # the loss moves by O(epsilon)
        eps = 1e-7
        checked = 0
        for _ in range(50):
            inst = random_instance(rng)
            if inst.match.matched_count == 0:
                continue
            i = inst.match.pairs[0][0]
            box = inst.predicted[i].box
            if box.x_max + eps > 1.0:
                continue
            moved = Prediction(
                Box(box.x_min + eps, box.y_min, box.x_max + eps, box.y_max),
                inst.predicted[i].confidences,
            )
            preds = list(inst.predicted)
            preds[i] = moved
            shifted = MultiboxInstance.build(preds, list(inst.ground_truth), inst.alpha)
            if shifted.match.pairs != inst.match.pairs:
                continue  # landed on a matching-decision boundary
            assert abs(total_loss(shifted) - total_loss(inst)) < 1e-4
            checked += 1
        assert checked > 10

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            MultiboxInstance.build(
                [Prediction(Box(0.1, 0.1, 0.4, 0.4), (1.0, 0.0))], [], alpha=-0.5
            )


class TestInstanceJson:
    def test_golden_instance_losses(self):
        inst = MultiboxInstance.build(
            [
                Prediction(Box(0.10, 0.10, 0.50, 0.50), (0.1, 0.8, 0.1)),
                Prediction(Box(0.55, 0.55, 0.90, 0.95), (0.7, 0.2, 0.1)),
            ],
            [GroundTruth(Box(0.10, 0.10, 0.50, 0.50), 1)],
            alpha=1.0,
        )
        assert inst.match.pairs == ((0, 0),)
        # matched box: -log 0.8; unmatched box against background: -log 0.7
        want_conf = -math.log(0.8) - math.log(0.7)
        assert confidence_loss(inst) == pytest.approx(want_conf, abs=1e-12)
        assert localization_loss(inst) == 0.0  # matched pair coincides
        assert total_loss(inst) == pytest.approx(want_conf / 1, abs=1e-12)

    def test_ground_truth_class_validation(self):
        with pytest.raises(ValueError, match="object class"):
            GroundTruth(Box(0.1, 0.1, 0.2, 0.2), 0)
        with pytest.raises(ValueError, match="confidence vector"):
            MultiboxInstance.build(
                [Prediction(Box(0.1, 0.1, 0.4, 0.4), (0.5, 0.5))],
                [GroundTruth(Box(0.1, 0.1, 0.2, 0.2), 5)],
            )
