import itertools
import math
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from toposhadow import classify, evaluation
from toposhadow.classify import detect
from toposhadow.errors import FormatError, TriangleCapError
from toposhadow.evaluation import (
    FoldSpec,
    MetricsReport,
    confusion,
    evaluate_folds,
    fit_normal_target,
    grid_search,
    load_folds,
    oracle_predictor,
    perturb_sweep,
    topol_predictor,
    trajectory_rmse,
    write_folds,
)
from toposhadow.saliency import Params
from toposhadow.synth import PhantomSpec, make_dataset, synth_phantom


def small_dataset(n=6):
    frames, entries = make_dataset(n_frames=n, seed=3, n_groups=3, n_folds=3)
    return frames, entries, FoldSpec(entries)


def clean_dataset(n=2):
    """All-tissue phantoms: no shadow columns at all."""
    return {
        f"frame{i:03d}": synth_phantom(PhantomSpec(shadow_intervals=(), seed=20 + i))
        for i in range(n)
    }


def plain_pooled(dataset, params):
    """Pooled confusion of full detect() runs, one per frame."""
    pooled = MetricsReport(0, 0, 0, 0)
    for fid in sorted(dataset):
        img, truth = dataset[fid]
        pooled = pooled + confusion(detect(img, params).labels, truth)
    return pooled


def plain_grid_search(dataset, grid):
    """Row-major grid search over detect(); ties keep the earlier point."""
    best = None
    for combo in itertools.product(*grid.values()):
        params = replace(Params(), **dict(zip(grid, combo)))
        acc = plain_pooled(dataset, params).acc
        if best is None or acc > best[1]:
            best = (params, acc)
    return best


# ---------------------------------------------------------------- metrics


def test_worked_confusion_example():
    rep = MetricsReport(tp=8, tn=90, fp=1, fn=1)
    assert rep.acc == 0.98
    assert rep.tpr == pytest.approx(8.0 / 9.0, rel=1e-12)
    assert rep.tnr == pytest.approx(90.0 / 91.0, rel=1e-12)
    assert rep.ppv == pytest.approx(8.0 / 9.0, rel=1e-12)


def test_perfect_prediction():
    truth = np.zeros(100, dtype=np.uint8)
    truth[:9] = 1
    rep = confusion(truth, truth)
    assert (rep.tp, rep.tn, rep.fp, rep.fn) == (9, 91, 0, 0)
    assert rep.acc == 1.0 and rep.tpr == 1.0 and rep.tnr == 1.0 and rep.ppv == 1.0


def test_metric_identities_randomized():
    rng = np.random.default_rng(123)
    for _ in range(200):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, size=4))
        rep = MetricsReport(tp=tp, tn=tn, fp=fp, fn=fn)
        total = tp + tn + fp + fn
        if total:
            assert abs(rep.acc - (tp + tn) / total) < 1e-12
        if tp + fn:
            assert abs(rep.tpr - tp / (tp + fn)) < 1e-12
        if tn + fp:
            assert abs(rep.tnr - tn / (tn + fp)) < 1e-12
        if tp + fp:
            assert abs(rep.ppv - tp / (tp + fp)) < 1e-12


def test_degenerate_denominators_are_nan():
    rep = confusion(np.zeros(10, dtype=np.uint8), np.zeros(10, dtype=np.uint8))
    assert math.isnan(rep.tpr)
    assert math.isnan(rep.ppv)
    assert rep.tnr == 1.0 and rep.acc == 1.0


def test_report_pooling():
    a = MetricsReport(tp=1, tn=2, fp=3, fn=4)
    b = MetricsReport(tp=10, tn=20, fp=30, fn=40)
    c = a + b
    assert (c.tp, c.tn, c.fp, c.fn) == (11, 22, 33, 44)


def test_confusion_length_mismatch():
    with pytest.raises(ValueError):
        confusion(np.zeros(5, dtype=np.uint8), np.zeros(6, dtype=np.uint8))


# ---------------------------------------------------------------- folds


def test_foldspec_roundtrip(tmp_path):
    _, entries, folds = small_dataset()
    path = tmp_path / "folds.txt"
    write_folds(entries, path)
    again = load_folds(path)
    assert again.folds() == folds.folds()
    assert again.frame_ids() == folds.frame_ids()
    for fold in folds.folds():
        for role in ("seen", "unseen"):
            assert again.members(fold, role) == folds.members(fold, role)
    for fid in folds.frame_ids():
        assert again.group_of(fid) == folds.group_of(fid)


def test_foldspec_groups_never_split():
    _, entries, folds = small_dataset()
    for fold in folds.folds():
        for role in ("seen", "unseen"):
            groups = {folds.group_of(f) for f in folds.members(fold, role)}
            other = {
                folds.group_of(f)
                for f in folds.members(fold, "seen" if role == "unseen" else "unseen")
            }
            assert not groups & other


def test_foldspec_rejects_bad_role():
    with pytest.raises(FormatError):
        FoldSpec([("f0", "g0", 1, "validation")])


def test_foldspec_rejects_duplicate_frame_in_fold():
    with pytest.raises(FormatError):
        FoldSpec([("f0", "g0", 1, "seen"), ("f0", "g0", 1, "unseen")])


def test_foldspec_rejects_group_split():
    with pytest.raises(FormatError):
        FoldSpec(
            [
                ("f0", "g0", 1, "seen"),
                ("f1", "g0", 1, "unseen"),
            ]
        )


def test_foldspec_rejects_inconsistent_group():
    with pytest.raises(FormatError):
        FoldSpec([("f0", "g0", 1, "seen"), ("f0", "g1", 2, "seen")])


def test_foldspec_rejects_bad_fold_number():
    with pytest.raises(FormatError):
        FoldSpec([("f0", "g0", 0, "seen")])


def test_load_folds_rejects_malformed_line(tmp_path):
    path = tmp_path / "folds.txt"
    path.write_text("frame000 g0 1\n")
    with pytest.raises(FormatError):
        load_folds(path)


# ---------------------------------------------------------------- harness


def test_oracle_predictor_all_ones():
    dataset, _, folds = small_dataset()
    report = evaluate_folds(dataset, folds, oracle_predictor())
    assert report.rows
    for row in report.rows:
        rep = row.metrics
        assert rep.acc == 1.0 and rep.tnr == 1.0
        assert rep.tpr == 1.0 and rep.ppv == 1.0
    assert report.averages["unseen"]["acc"] == 1.0


def test_evaluate_deterministic():
    dataset, _, folds = small_dataset()
    r1 = evaluate_folds(dataset, folds, topol_predictor())
    r2 = evaluate_folds(dataset, folds, topol_predictor())
    assert r1 == r2


def test_evaluate_workers_agree():
    dataset, _, folds = small_dataset()
    r1 = evaluate_folds(dataset, folds, topol_predictor(workers=1))
    r2 = evaluate_folds(dataset, folds, topol_predictor(workers=3))
    assert r1 == r2


def test_average_is_mean_of_fold_ratios():
    dataset, _, folds = small_dataset()
    report = evaluate_folds(dataset, folds, topol_predictor())
    for role in ("seen", "unseen"):
        per_fold = [r.metrics.acc for r in report.rows if r.role == role]
        assert report.averages[role]["acc"] == pytest.approx(
            sum(per_fold) / len(per_fold), rel=1e-12
        )


def test_evaluate_and_sweep_run_one_engine():
    # each frame is unseen in one fold; pooled over those rows, the topol
    # predictor counts what a sweep of the same Params counts
    dataset, _, folds = small_dataset()
    params = Params(gamma=3.0, epsilon=50.0, tau=3)
    report = evaluate_folds(dataset, folds, topol_predictor(params))
    unseen = [fid for fold in folds.folds() for fid in folds.members(fold, "unseen")]
    assert sorted(unseen) == sorted(dataset)
    pooled = MetricsReport(0, 0, 0, 0)
    for row in report.rows:
        if row.role == "unseen":
            pooled = pooled + row.metrics
    ((_, swept),) = perturb_sweep(dataset, "tau", [params.tau], params)
    assert pooled == swept
    assert pooled.total > 0


def count_stages(monkeypatch, dataset):
    """Frame ids of the deviation maps built and of the salient clouds
    made from them, in call order, and the number of maps that were
    alive as each build started."""
    frame_of = {id(img): fid for fid, (img, _) in dataset.items()}
    record = {"maps": [], "clouds": [], "alive": []}
    built, map_of = [], {}
    real_texture, real_cloud = evaluation.texture, evaluation.salient_cloud

    def texture(img, params):
        record["alive"].append(sum(ref() is not None for ref in built))
        saliency = real_texture(img, params)
        record["maps"].append(frame_of[id(img)])
        built.append(weakref.ref(saliency))
        map_of[id(saliency)] = frame_of[id(img)]
        return saliency

    def salient_cloud(saliency, params):
        record["clouds"].append(map_of[id(saliency)])
        return real_cloud(saliency, params)

    monkeypatch.setattr(evaluation, "texture", texture)
    monkeypatch.setattr(evaluation, "salient_cloud", salient_cloud)
    return record


def test_fold_independent_predictor_runs_once_per_frame(monkeypatch):
    # the topol predictor builds one deviation map and makes one
    # prediction per frame, whatever the folds and the worker count; a
    # new predictor per fold predicts each frame once per fold
    dataset, entries, folds = small_dataset()
    record = count_stages(monkeypatch, dataset)
    calls = []
    frame_of = {id(img): fid for fid, (img, _) in dataset.items()}

    def per_fold(fold, seen):
        del fold, seen

        def predict(frames):
            calls.extend(frame_of[id(img)] for img, _ in frames)
            return [detect(img).labels for img, _ in frames]

        return predict

    reports = {}
    for workers in (1, 3):
        for seen in (*record.values(), calls):
            seen.clear()
        reports["shared", workers] = evaluate_folds(dataset, folds, topol_predictor(None, workers))
        assert Counter(record["maps"]) == Counter(folds.frame_ids())
        assert Counter(record["clouds"]) == Counter(folds.frame_ids())
        reports["per fold", workers] = evaluate_folds(dataset, folds, per_fold)
        assert Counter(calls) == Counter(fid for fid, _, _, _ in entries)
        assert len(calls) == len(folds.frame_ids()) * len(folds.folds())
    assert all(report == reports["shared", 1] for report in reports.values())


def test_pipeline_holds_at_most_two_maps(monkeypatch):
    # one worker builds each (frame, texture group) map once, and as one
    # is built at most one other is alive: the one the helper finishes
    dataset, _, folds = small_dataset(n=4)
    record = count_stages(monkeypatch, dataset)
    grid = {"sigma_u": [1.2, 1.5, 1.8], "phi1": [10.0, 12.0, 14.0]}
    best = grid_search(dataset, grid, workers=1)
    assert Counter(Counter(record["maps"]).values()) == {len(grid["sigma_u"]): len(dataset)}
    assert Counter(record["clouds"]) == Counter(
        {fid: len(grid["sigma_u"]) * len(grid["phi1"]) for fid in dataset}
    )
    assert max(record["alive"]) <= 1
    for values in record.values():
        values.clear()
    evaluate_folds(dataset, folds, topol_predictor(workers=1))
    assert sorted(record["maps"]) == sorted(dataset)
    assert max(record["alive"]) <= 1
    monkeypatch.undo()
    assert best == plain_grid_search(dataset, grid)


def test_pipeline_raises_the_first_error_in_frame_order(monkeypatch):
    # the first frame's triangles exceed the cap while the next frame's
    # map fails to build: the cap error comes first, at every worker
    # count; without the cap the map's error is raised
    dataset, _, folds = small_dataset(n=3)
    late = {}
    real = evaluation.texture

    def texture(img, params):
        if img is late["img"]:
            raise MemoryError("no room for the map")
        return real(img, params)

    monkeypatch.setattr(evaluation, "texture", texture)
    # the frames in the order each command runs them
    commands = (
        (sorted(dataset), lambda params, workers: grid_search(
            dataset, {"triangle_cap": [params.triangle_cap]}, workers=workers)),
        (folds.members(1, "seen"), lambda params, workers: evaluate_folds(
            dataset, folds, topol_predictor(params, workers))),
    )
    for frames, run in commands:
        late["img"] = dataset[frames[1]][0]
        for workers in (1, 2):
            with pytest.raises(TriangleCapError):
                run(Params(triangle_cap=3), workers)
            with pytest.raises(MemoryError, match="no room"):
                run(Params(), workers)


# ---------------------------------------------------------------- targets


def test_target_constant_vector():
    t = fit_normal_target([0.4, 0.4, 0.4, 0.4, 0.4])
    assert t.tolist() == [0.4] * 5


def test_target_endpoints_n101():
    measured = np.zeros(101)
    measured[50] = 1.0
    t = fit_normal_target(measured)
    assert t[50] == 1.0
    # direct evaluation of the bell at the first index
    expect = math.exp(-(50.0**2) / (2.0 * (101.0 / 6.0) ** 2))
    assert t[0] == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.012139, abs=1e-6)


def test_target_symmetry():
    rng = np.random.default_rng(2)
    m = rng.uniform(0.0, 1.0, size=31)
    t = fit_normal_target(m)
    assert np.array_equal(t, t[::-1])


def test_target_needs_three_frames():
    with pytest.raises(ValueError):
        fit_normal_target([0.1, 0.2])


def test_rmse_zero_and_offset():
    t = np.linspace(0.0, 1.0, 11)
    assert trajectory_rmse(t, t) == 0.0
    assert trajectory_rmse(t + 0.5, t) == 0.5
    assert trajectory_rmse(t - 0.5, t) == 0.5


# ---------------------------------------------------------------- sweeps


def test_sweep_row_shape():
    dataset, _, _ = small_dataset()
    rows = perturb_sweep(dataset, "epsilon", [50.0, 60.0])
    assert [v for v, _ in rows] == [50.0, 60.0]
    for _, rep in rows:
        for metric in (rep.acc, rep.tnr, rep.tpr, rep.ppv):
            assert math.isnan(metric) or 0.0 <= metric <= 1.0


def test_sweep_single_base_value_matches_eval():
    dataset, _, _ = small_dataset()
    rows = perturb_sweep(dataset, "epsilon", [60.0])
    base = perturb_sweep(dataset, "tau", [2])
    assert rows[0][1] == base[0][1]


def test_sweep_extreme_gamma():
    dataset, _, _ = small_dataset()
    ((_, rep),) = perturb_sweep(dataset, "gamma", [100.0])
    # nothing crosses the bar: everything is labeled shadow
    assert rep.tpr == 1.0
    assert rep.tnr == 0.0


def test_sweep_rejects_unknown_name():
    dataset, _, _ = small_dataset(n=3)
    with pytest.raises(ValueError):
        perturb_sweep(dataset, "kappa", [1.0])


def test_sweep_rejects_fractional_int_field():
    dataset, _, _ = small_dataset(n=3)
    with pytest.raises(ValueError):
        perturb_sweep(dataset, "tau", [2.5])


def test_grid_search_single_point():
    dataset, _, _ = small_dataset()
    best, score = grid_search(dataset, {"epsilon": [60.0], "tau": [2]})
    assert best == Params()
    ((_, rep),) = perturb_sweep(dataset, "epsilon", [60.0])
    assert score == rep.acc


def test_grid_search_prefers_earlier_tie():
    # an all-tissue miniature: tau=1 and tau=2 both classify perfectly,
    # so the first grid point must win the tie
    best, score = grid_search(clean_dataset(), {"tau": [1, 2]})
    assert score == 1.0
    assert best.tau == 1


def test_grid_search_argmax_property():
    dataset, _, _ = small_dataset()
    grid = {"epsilon": [40.0, 60.0]}
    best, score = grid_search(dataset, grid)
    for eps in grid["epsilon"]:
        ((_, rep),) = perturb_sweep(dataset, "epsilon", [eps])
        assert score >= rep.acc
        if rep.acc == score:
            break
    assert best.epsilon in grid["epsilon"]


# ---------------------------------------------------------------- stage reuse


def test_grid_search_matches_plain_loop():
    dataset, _, _ = small_dataset(n=4)
    grid = {"gamma": [4.0, 3.0], "epsilon": [50.0, 60.0], "tau": [1, 3]}
    expect = plain_grid_search(dataset, grid)
    assert grid_search(dataset, grid) == expect
    assert grid_search(dataset, grid, workers=2) == expect


def test_perturb_sweep_matches_plain_loop():
    dataset, _, _ = small_dataset(n=4)
    for name, values in (
        ("gamma", [3.0, 4.0, 3.0]),
        ("epsilon", [40.0, 70.0]),
        ("tau", [1, 3]),
        ("stack_size", [4, 6]),
    ):
        rows = perturb_sweep(dataset, name, values, workers=2)
        assert [v for v, _ in rows] == values
        for value, rep in rows:
            assert rep == plain_pooled(dataset, replace(Params(), **{name: value}))


def test_grid_search_tie_across_front_ends_keeps_earlier():
    # gamma=100 leaves no salient point, so it labels every clean column
    # shadow; both tau values classify perfectly at gamma=4
    clean = clean_dataset()
    grid = {"tau": [1, 2], "gamma": [100.0, 4.0]}
    best, score = grid_search(clean, grid)
    assert (best.tau, best.gamma, score) == (1, 4.0, 1.0)
    assert (best, score) == plain_grid_search(clean, grid)


def test_grid_search_rejects_bad_point_before_any_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("front end ran")

    monkeypatch.setattr(evaluation, "texture", fail)
    dataset, _, _ = small_dataset(n=3)
    with pytest.raises(ValueError, match="epsilon"):
        grid_search(dataset, {"tau": [1, 2], "epsilon": [60.0, -1.0]})


def count_filter_stacks(monkeypatch):
    # one deviation map is one filter stack
    calls = []
    real = classify.deviation_map

    def counting(img, params):
        calls.append((params.sigma_u, params.sigma_v, params.stack_size))
        return real(img, params)

    monkeypatch.setattr(classify, "deviation_map", counting)
    return calls


def test_sweep_shares_filter_stack_across_cloud_fields(monkeypatch):
    dataset, _, _ = small_dataset(n=3)
    calls = count_filter_stacks(monkeypatch)
    for name, values, workers in (("gamma", [3.0, 4.0, 5.0], 1), ("sigma_w", [10.0, 20.0], 2)):
        calls.clear()
        rows = perturb_sweep(dataset, name, values, workers=workers)
        assert len(rows) == len(values)
        assert len(calls) == len(dataset), name


def test_grid_over_texture_field_builds_one_filter_stack_per_texture(monkeypatch):
    dataset, _, _ = small_dataset(n=3)
    calls = count_filter_stacks(monkeypatch)
    grid = {"gamma": [3.0, 4.0], "sigma_u": [1.5, 1.8], "tau": [1, 2]}
    best = grid_search(dataset, grid)
    assert len(calls) == 2 * len(dataset)
    assert sorted(Counter(calls).values()) == [len(dataset)] * 2
    assert best == plain_grid_search(dataset, grid)



def test_grid_builds_triangles_once_per_epsilon(monkeypatch):
    # tau only thresholds the scan-line counts: a 3 x 3 epsilon-tau grid
    # builds one triangle set per frame and epsilon, not per combination
    dataset, _, _ = small_dataset(n=3)
    calls = []
    real = classify.rips_triangles

    def counting(cloud, epsilon, cap):
        calls.append(epsilon)
        return real(cloud, epsilon, cap)

    monkeypatch.setattr(classify, "rips_triangles", counting)
    grid = {"epsilon": [50.0, 60.0, 70.0], "tau": [1, 2, 3]}
    for workers in (1, 2):
        calls.clear()
        best = grid_search(dataset, grid, workers=workers)
        assert sorted(Counter(calls).items()) == [(e, len(dataset)) for e in grid["epsilon"]]
        assert best == plain_grid_search(dataset, grid)


def test_grid_cap_error_comes_from_the_first_combination_past_it():
    # combinations run in grid order; the first whose triangles exceed its
    # cap raises, whether or not a later one shares its triangles
    dataset, _, _ = small_dataset(n=2)
    for workers in (1, 2):
        with pytest.raises(TriangleCapError) as caught:
            grid_search(dataset, {"tau": [1, 2], "triangle_cap": [10**6, 7, 3]}, workers=workers)
        assert caught.value.cap == 7
