"""Tests of the benchmark's own checks, and a smoke run of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q

Each check is fed an output known to be correct, which it must pass, and
the same output with one corruption, which it must reject.
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from toposhadow import Params, cli, detect  # noqa: E402


def test_frame_check_rejects_one_flipped_label_column():
    img, truth = inputs.TiltStream(seed=3, n=40).sweep(0)[0]
    res = detect(img)
    epsilon = Params().epsilon
    assert checks.check_frame(res.labels, res.confidence, truth, epsilon) == []
    col = int(np.flatnonzero(checks.far_shadow(truth, epsilon))[0])
    labels = res.labels.copy()
    labels[col] ^= 1
    assert checks.check_frame(labels, res.confidence, truth, epsilon)
    confidence = res.confidence.copy()
    confidence[-1, col] = 0.5
    assert checks.check_frame(res.labels, confidence, truth, epsilon)


def _bell_trajectory(n=40, seed=0):
    i = np.arange(n)
    bell = np.exp(-((i - (n - 1) / 2.0) ** 2) / (2.0 * (n / 6.0) ** 2))
    jitter = np.random.default_rng(seed).normal(0.0, 0.02, size=n)
    return 0.1 + 0.7 * bell + jitter


def test_trajectory_check_rejects_reversed_and_shifted_trajectories():
    traj = _bell_trajectory()
    assert checks.check_trajectory(traj) == []
    # reversed: highest at the ends of the sweep, lowest in its middle
    assert checks.check_trajectory(traj.max() + traj.min() - traj)
    # peak a fifth of the sweep off the middle
    assert checks.check_trajectory(np.roll(traj, len(traj) // 5))
    # right shape, too far from the bell
    wavy = traj + 0.5 * np.sin(np.arange(len(traj)))
    assert checks.trajectory_rmse(wavy) > checks.TRAJECTORY_RMSE_LIMIT
    assert checks.check_trajectory(wavy)


def _evaluate_csv(tmp_path):
    frames, entries = inputs.dataset(seed=5, n_frames=6)
    inputs.write_dataset(frames, entries, tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["evaluate", "--dataset", str(tmp_path),
                         "--folds", str(tmp_path / "folds.txt"), "--method", "oracle"])
    assert code == 0
    cells = {}
    for _, _, fold, role in entries:
        cells[(fold, role)] = cells.get((fold, role), 0) + 1
    return out.getvalue(), cells


def test_evaluate_check_rejects_one_changed_count(tmp_path):
    text, cells = _evaluate_csv(tmp_path)
    errors, unseen = checks.check_evaluate(text, cells, inputs.W)
    assert errors == []
    assert sum(unseen) == 6 * inputs.W and unseen[2] == unseen[3] == 0
    lines = text.splitlines()
    parts = lines[1].split(",")
    parts[3] = str(int(parts[3]) - 1)
    lines[1] = ",".join(parts)
    errors, _ = checks.check_evaluate("\n".join(lines) + "\n", cells, inputs.W)
    assert errors


def test_evaluate_check_rejects_ratio_that_disagrees_with_counts(tmp_path):
    text, cells = _evaluate_csv(tmp_path)
    lines = text.splitlines()
    parts = lines[1].split(",")
    parts[6] = repr(float(parts[6]) - 1e-9)
    lines[1] = ",".join(parts)
    errors, _ = checks.check_evaluate("\n".join(lines) + "\n", cells, inputs.W)
    assert errors


def test_gridsearch_check_rejects_winner_outside_grid():
    grid = {"epsilon": [50.0, 60.0, 70.0], "tau": [1.0, 2.0, 3.0]}
    assert checks.check_gridsearch("epsilon=60.0\ntau=2\naccuracy=0.99\n", grid, 0.98) == []
    assert checks.check_gridsearch("epsilon=65.0\ntau=2\naccuracy=0.99\n", grid, 0.98)
    assert checks.check_gridsearch("epsilon=60.0\ntau=4\naccuracy=0.99\n", grid, 0.98)
    assert checks.check_gridsearch("epsilon=60.0\ntau=2\naccuracy=0.97\n", grid, 0.98)


def test_stream_frames_never_repeat():
    stream = inputs.TiltStream(seed=1, n=10, pool=2)
    frames = [img.tobytes() for p in range(3) for img, _ in stream.sweep(p)]
    assert len(set(frames)) == len(frames)
    again = inputs.TiltStream(seed=1, n=10, pool=2).sweep(1)
    assert [img.tobytes() for img, _ in again] == frames[10:20]


@pytest.mark.parametrize("workload", ["live-scan", "tune", "fallback-scan"])
def test_smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert not list((ROOT / ".bench_build").glob("perfbench-*"))
