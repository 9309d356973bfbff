import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cyclecast.dataset import PhaseLabel
from cyclecast.errors import BadKError, EmptyInputError, InvalidPhaseCodeError, LengthMismatchError
from cyclecast.evaluation import (
    ConfusionMatrix,
    EvaluationReport,
    accuracy,
    argmax_predictions,
    build_report,
    collapse_two_label,
    confusion_matrix,
    f_scores,
    render_report,
    report_from_json,
    topk_accuracy,
    topk_mass,
)

# Reference MLR confusion matrices (rows = predicted, columns = true).
US_MLR = ConfusionMatrix.from_array(
    [[9, 19, 0, 2], [2, 70, 2, 1], [0, 0, 6, 2], [0, 0, 7, 20]]
)
EZ_MLR = ConfusionMatrix.from_array(
    [[12, 2, 0, 4], [8, 34, 4, 0], [2, 5, 11, 3], [5, 3, 5, 20]]
)


def random_distributions(rng, n):
    raw = rng.random((n, 4)) + 1e-6
    return raw / raw.sum(axis=1, keepdims=True)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0

    def test_all_wrong(self):
        assert accuracy([1, 1, 1], [2, 3, 4]) == 0.0

    def test_us_mlr_diagononal_share(self):
        arr = US_MLR.as_array()
        assert arr.trace() / arr.sum() == pytest.approx(0.75, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            accuracy([1, 2], [1])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            accuracy([], [])


class TestTopK:
    def test_k4_always_one(self, rng):
        dist = random_distributions(rng, 25)
        truth = rng.integers(1, 5, 25)
        assert topk_accuracy(dist, truth, 4) == 1.0

    def test_rank2_hit(self):
        dist = [[0.5, 0.3, 0.1, 0.1]]
        assert topk_accuracy(dist, [PhaseLabel.EXPANSION], 2) == 1.0
        assert topk_accuracy(dist, [PhaseLabel.EXPANSION], 1) == 0.0

    def test_k1_equals_argmax_accuracy(self, rng):
        dist = random_distributions(rng, 40)
        truth = rng.integers(1, 5, 40)
        preds = argmax_predictions(dist)
        assert topk_accuracy(dist, truth, 1) == accuracy(preds, truth)

    def test_monotone_in_k(self, rng):
        dist = random_distributions(rng, 30)
        truth = rng.integers(1, 5, 30)
        values = [topk_accuracy(dist, truth, k) for k in (1, 2, 3, 4)]
        assert values == sorted(values)

    def test_bad_k(self):
        with pytest.raises(BadKError):
            topk_accuracy([[0.25] * 4], [1], 5)

    def test_mass_diagnostic(self):
        assert topk_mass([[0.25] * 4], 2) == pytest.approx(0.5, abs=1e-12)
        assert topk_mass([[0.7, 0.1, 0.1, 0.1]], 1) == pytest.approx(0.7, abs=1e-12)


class TestConfusionMatrix:
    def test_perfect_diagonal(self):
        preds = [1] * 2 + [2] * 3 + [3] * 4 + [4] * 5
        cm = confusion_matrix(preds, preds)
        assert np.array_equal(np.diag(cm.as_array()), [2, 3, 4, 5])
        assert cm.total == 14

    def test_single_off_diagonal(self):
        cm = confusion_matrix([PhaseLabel.SLOWDOWN], [PhaseLabel.RECESSION])
        assert cm.counts[2][3] == 1
        assert cm.total == 1

    def test_conservation(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 60))
            cm = confusion_matrix(rng.integers(1, 5, n), rng.integers(1, 5, n))
            assert cm.total == n

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfusionMatrix.from_array(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            ConfusionMatrix.from_array(-np.ones((4, 4)))


class TestFScores:
    def test_us_mlr_per_class(self):
        scores = f_scores(US_MLR)
        # order: recovery, expansion, slowdown, recession
        assert scores.per_class[1] * 100 == pytest.approx(85.36, abs=0.01)
        assert scores.per_class[0] * 100 == pytest.approx(43.90, abs=0.01)
        assert scores.per_class[3] * 100 == pytest.approx(76.92, abs=0.01)
        assert scores.per_class[2] * 100 == pytest.approx(52.17, abs=0.01)
        assert scores.macro * 100 == pytest.approx(64.59, abs=0.01)

    def test_ez_mlr_per_class(self):
        scores = f_scores(EZ_MLR)
        assert scores.per_class[1] * 100 == pytest.approx(75.55, abs=0.02)
        assert scores.per_class[0] * 100 == pytest.approx(53.33, abs=0.01)
        assert scores.per_class[3] * 100 == pytest.approx(66.66, abs=0.01)
        assert scores.per_class[2] * 100 == pytest.approx(53.66, abs=0.01)
        assert scores.macro * 100 == pytest.approx(62.30, abs=0.01)

    def test_zero_convention(self):
        cm = ConfusionMatrix.from_array(
            [[0, 5, 0, 0], [0, 10, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        scores = f_scores(cm)
        assert scores.per_class[0] == 0.0  # no true recoveries, no hits
        assert scores.per_class[2] == 0.0  # empty row and column

    def test_macro_is_mean(self, rng):
        cm = confusion_matrix(rng.integers(1, 5, 80), rng.integers(1, 5, 80))
        scores = f_scores(cm)
        assert scores.macro == pytest.approx(np.mean(scores.per_class), abs=1e-12)

    def test_empty_matrix(self):
        with pytest.raises(EmptyInputError):
            f_scores(ConfusionMatrix.from_array(np.zeros((4, 4))))


class TestCollapse:
    def test_same_super_class_counts(self):
        assert collapse_two_label([PhaseLabel.SLOWDOWN], [PhaseLabel.RECESSION]) == 1.0

    def test_cross_super_class_does_not(self):
        assert collapse_two_label([PhaseLabel.EXPANSION], [PhaseLabel.RECESSION]) == 0.0

    def test_dominates_four_label_accuracy(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 50))
            p = rng.integers(1, 5, n)
            t = rng.integers(1, 5, n)
            assert collapse_two_label(p, t) >= accuracy(p, t)


class TestPhaseCodes:
    """A code outside 1..4 is a data error wherever it enters, never a count."""

    def test_zero_is_not_counted_as_a_recession(self):
        with pytest.raises(InvalidPhaseCodeError) as exc:
            confusion_matrix([0], [1])
        assert exc.value.value == 0

    def test_five_is_not_an_index_error(self):
        with pytest.raises(InvalidPhaseCodeError) as exc:
            confusion_matrix([5], [1])
        assert exc.value.value == 5

    def test_matching_bad_codes_are_not_accurate(self):
        with pytest.raises(InvalidPhaseCodeError):
            accuracy([0, 9], [0, 9])

    @pytest.mark.parametrize("bad", [0, 5, -1, 2.5, float("nan"), "2"])
    def test_every_measure_checks_truth(self, bad):
        dist = [[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1]]
        truth = [1, bad]
        for measure in (
            lambda: accuracy([1, 2], truth),
            lambda: collapse_two_label([1, 2], truth),
            lambda: topk_accuracy(dist, truth, 2),
            lambda: build_report(dist, truth),
        ):
            with pytest.raises(InvalidPhaseCodeError):
                measure()


class TestReports:
    def make_report(self, rng, n=60):
        dist = random_distributions(rng, n)
        truth = rng.integers(1, 5, n)
        return build_report(dist, truth)

    def test_text_percent_formatting(self, rng):
        dist = np.array([[0.9, 0.05, 0.03, 0.02]] * 3 + [[0.05, 0.9, 0.03, 0.02]])
        truth = [1, 1, 1, 1]
        report = build_report(dist, truth)
        text = render_report(report, "text")
        assert "75.00%" in text
        assert "rows = predicted" in text

    def test_rendered_bytes(self):
        dist = [[0.9, 0.05, 0.03, 0.02]] * 3 + [[0.05, 0.9, 0.03, 0.02], [0, 0, 0.5, 0.5], [0.1, 0.2, 0.3, 0.4]]
        report = build_report(dist, [1, 1, 2, 3, 3, 4])
        assert render_report(report, "text") == (
            "Confusion matrix (rows = predicted, columns = true)\n"
            "              recovery  expansion   slowdown  recession\n"
            "recovery             2          1          0          0\n"
            "expansion            0          0          1          0\n"
            "slowdown             0          0          1          0\n"
            "recession            0          0          0          1\n"
            "\n"
            "F recovery   80.00%\n"
            "F expansion  0.00%\n"
            "F slowdown   66.67%\n"
            "F recession  100.00%\n"
            "F macro      61.67%\n"
            "F weighted   65.56%\n"
            "Top-1        66.67%\n"
            "Top-2        83.33%\n"
            "Two-label    83.33%\n"
        )
        assert render_report(report, "csv") == (
            "metric,value\nf_recovery,80.00%\nf_expansion,0.00%\nf_slowdown,66.67%\nf_recession,100.00%\n"
            "macro,61.67%\nweighted,65.56%\ntop1,66.67%\ntop2,83.33%\ntwo_label,83.33%\n"
        )
        assert render_report(report, "json") == (
            '{"confusion":[[2,1,0,0],[0,0,1,0],[0,0,1,0],[0,0,0,1]],"macro_f":0.6166666666666667,'
            '"per_class_f":[0.8,0.0,0.6666666666666666,1.0],"schema_version":1,"top1":0.6666666666666666,'
            '"top2":0.8333333333333334,"two_label_accuracy":0.8333333333333334,"weighted_f":0.6555555555555556}\n'
        )

    def test_json_round_trip(self, rng):
        report = self.make_report(rng)
        assert report_from_json(render_report(report, "json")) == report

    def test_csv_layout(self, rng):
        report = self.make_report(rng)
        lines = render_report(report, "csv").strip().splitlines()
        assert lines[0] == "metric,value"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == [
            "f_recovery",
            "f_expansion",
            "f_slowdown",
            "f_recession",
            "macro",
            "weighted",
            "top1",
            "top2",
            "two_label",
        ]

    def test_unknown_format(self, rng):
        with pytest.raises(ValueError):
            render_report(self.make_report(rng), "yaml")

    def test_report_invariants(self, rng):
        report = self.make_report(rng, n=100)
        assert report.top2 >= report.top1
        assert report.macro_f == pytest.approx(np.mean(report.per_class_f), abs=1e-12)
        arr = report.confusion.as_array()
        assert arr.trace() / arr.sum() == pytest.approx(report.top1, abs=1e-12)


@st.composite
def scored_samples(draw):
    """Phase distributions (ties and all-zero rows included) with true phase codes."""
    n = draw(st.integers(1, 20))
    weights = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    dist = draw(hnp.arrays(float, (n, 4), elements=weights))
    return dist, draw(hnp.arrays(int, n, elements=st.integers(1, 4)))


LAWS = settings(derandomize=True, max_examples=25, deadline=None)


def reference_ranking(row) -> list[PhaseLabel]:
    return sorted(PhaseLabel, key=lambda phase: (-row[int(phase) - 1], int(phase)))


def reference_report(distributions, truth) -> EvaluationReport:
    """The protocol row by row: each row ranked by ``sorted``, every count a loop."""
    ranked = [reference_ranking(row) for row in np.asarray(distributions, dtype=float)]
    t = [int(v) for v in truth]
    preds = [int(r[0]) for r in ranked]
    counts = np.zeros((4, 4), dtype=int)
    for p, true_code in zip(preds, t):
        counts[p - 1, true_code - 1] += 1
    arr = counts.astype(float)
    total = arr.sum()
    diag, row_sums, col_sums = np.diag(arr), arr.sum(axis=1), arr.sum(axis=0)
    per_class = []
    for c in range(4):
        denom = row_sums[c] + col_sums[c]
        per_class.append(0.0 if denom == 0 else float(2.0 * diag[c] / denom))

    def top(k):
        return sum(true_code in [int(phase) for phase in r[:k]] for r, true_code in zip(ranked, t)) / len(t)

    upswing = {1, 2}
    return EvaluationReport(
        confusion=ConfusionMatrix.from_array(counts),
        per_class_f=tuple(per_class),
        macro_f=float(np.mean(per_class)),
        weighted_f=float(sum(f * s for f, s in zip(per_class, col_sums)) / total),
        top1=top(1),
        top2=top(2),
        two_label_accuracy=sum((p in upswing) == (c in upswing) for p, c in zip(preds, t)) / len(t),
    )


class TestEvaluationLaws:
    @LAWS
    @given(sample=scored_samples())
    def test_topk_never_falls_as_k_grows(self, sample):
        dist, truth = sample
        scores = [topk_accuracy(dist, truth, k) for k in (1, 2, 3, 4)]
        assert scores == sorted(scores)
        assert scores[-1] == 1.0

    @LAWS
    @given(sample=scored_samples())
    def test_top1_is_argmax_accuracy(self, sample):
        dist, truth = sample
        assert topk_accuracy(dist, truth, 1) == accuracy(argmax_predictions(dist), truth)

    @LAWS
    @given(sample=scored_samples())
    def test_two_label_accuracy_is_at_least_top1(self, sample):
        dist, truth = sample
        preds = argmax_predictions(dist)
        assert collapse_two_label(preds, truth) >= topk_accuracy(dist, truth, 1)

    @LAWS
    @given(sample=scored_samples())
    def test_confusion_counts_every_sample_once(self, sample):
        dist, truth = sample
        counts = confusion_matrix(argmax_predictions(dist), truth).as_array()
        assert counts.sum() == truth.size
        np.testing.assert_array_equal(counts.sum(axis=0), np.bincount(truth - 1, minlength=4))

    @LAWS
    @given(n=st.integers(1, 10), level=st.floats(0.0, 1.0))
    def test_uniform_row_ranks_recovery_first(self, n, level):
        assert argmax_predictions(np.full((n, 4), level)) == [PhaseLabel.RECOVERY] * n

    @LAWS
    @given(sample=scored_samples())
    def test_report_matches_the_row_by_row_reference(self, sample):
        dist, truth = sample
        expected = [reference_ranking(row)[0] for row in dist]
        preds = argmax_predictions(dist)
        assert preds == expected and all(type(p) is PhaseLabel for p in preds)
        assert render_report(build_report(dist, truth), "json") == render_report(
            reference_report(dist, truth), "json"
        )
        for k in (1, 2, 3, 4):
            mass = np.mean([sum(row[int(ph) - 1] for ph in reference_ranking(row)[:k]) for row in dist])
            assert topk_mass(dist, k) == pytest.approx(mass, rel=1e-12, abs=1e-15)

    @LAWS
    @given(sample=scored_samples())
    def test_json_report_round_trips(self, sample):
        report = build_report(*sample)
        assert report_from_json(render_report(report, "json")) == report
