import os
import subprocess
import sys

import numpy as np
import pytest

from toposhadow import classify, cli
from toposhadow.frame_io import load_image, write_image


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "toposhadow.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def write_constant_frame(path, value=40):
    write_image(np.full((300, 600), value, dtype=np.uint8), path)


def tree_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dirpath, name)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


def test_detect_constant_frame(tmp_path):
    frame = tmp_path / "flat.pgm"
    write_constant_frame(frame)
    labels = tmp_path / "flat.labels"
    r = run_cli("detect", "--input", str(frame), "--out-labels", str(labels))
    assert r.returncode == 0, r.stderr
    assert labels.read_text() == "1" * 600 + "\n"
    assert "mean_confidence=0.0" in r.stdout
    # timing goes to stderr, never stdout
    assert "ms" in r.stderr and "ms" not in r.stdout


def test_detect_missing_input(tmp_path):
    r = run_cli("detect", "--input", str(tmp_path / "nope.pgm"))
    assert r.returncode == 2
    assert "nope.pgm" in r.stderr


def test_detect_overlay_dimensions(tmp_path):
    frame = tmp_path / "f.pgm"
    write_constant_frame(frame)
    overlay = tmp_path / "f.ppm"
    r = run_cli("detect", "--input", str(frame), "--overlay", str(overlay))
    assert r.returncode == 0, r.stderr
    header = overlay.read_bytes().split(b"\n", 3)
    assert header[0] == b"P6"
    assert header[1].split() == [b"600", b"300"]


def test_detect_confidence_map(tmp_path):
    frame = tmp_path / "f.pgm"
    write_constant_frame(frame)
    conf = tmp_path / "conf.pgm"
    r = run_cli("detect", "--input", str(frame), "--out-confidence", str(conf))
    assert r.returncode == 0
    img = load_image(conf)
    assert img.shape == (200, 600)  # cropped region only
    assert not img.any()


def test_overlay_reuses_the_detection(tmp_path, monkeypatch):
    out = tmp_path / "data"
    assert cli.main(["synth", "--out", str(out), "--frames", "1"]) == 0
    calls = []
    real = classify.deviation_map

    def counting(img, params):
        calls.append(1)
        return real(img, params)

    monkeypatch.setattr(classify, "deviation_map", counting)
    frame = next(out.glob("*.pgm"))
    overlay = tmp_path / "o.ppm"
    assert cli.main(["detect", "--input", str(frame), "--overlay", str(overlay)]) == 0
    assert len(calls) == 1
    assert overlay.stat().st_size > 0


def test_out_of_memory_exit_4(tmp_path, monkeypatch, capsys):
    frame = tmp_path / "f.pgm"
    write_constant_frame(frame)
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--frames", "2"]) == 0

    def boom(message):
        def stage(*args, **kwargs):
            raise MemoryError(*message)

        return stage

    monkeypatch.setattr(classify, "deviation_map", boom(["Unable to allocate 847. PiB"]))
    capsys.readouterr()
    assert cli.main(["detect", "--input", str(frame)]) == 4
    err = capsys.readouterr().err
    assert err == "error: detect ran out of memory: Unable to allocate 847. PiB\n"

    monkeypatch.undo()
    monkeypatch.setattr(classify, "rips_triangles", boom([]))
    assert cli.main(["gridsearch", "--dataset", str(data), "--grid", "tau=1,2"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: gridsearch ran out of memory\n"
    assert captured.out == ""


def test_usage_error_exit_1():
    r = run_cli("detect")  # missing required --input
    assert r.returncode == 1
    r = run_cli("frobnicate")
    assert r.returncode == 1


def test_bad_config_exit_3(tmp_path):
    frame = tmp_path / "f.pgm"
    write_constant_frame(frame)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_parameter = 7\n")
    r = run_cli("detect", "--input", str(frame), "--config", str(cfg))
    assert r.returncode == 3
    assert "not_a_parameter" in r.stderr


def test_invalid_param_value_exit_3(tmp_path):
    frame = tmp_path / "f.pgm"
    write_constant_frame(frame)
    cfg = tmp_path / "bad.cfg"
    for key, value in (
        ("gamma", "0"),
        ("epsilon", "nan"),
        ("sigma_u", "inf"),
        ("sigma_w", "1e-300"),
        ("triangle_cap", "100000000000000000000"),
    ):
        cfg.write_text(f"{key} = {value}\n")
        r = run_cli("detect", "--input", str(frame), "--config", str(cfg))
        assert r.returncode == 3, (key, r.stderr)
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr
        assert key in r.stderr
        assert "Warning" not in r.stderr


def test_invalid_grid_or_sweep_value_exit_3(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--frames", "1"]) == 0
    for key, argv in (
        ("tau", ["gridsearch", "--grid", "tau=inf"]),
        ("tau", ["gridsearch", "--grid", "tau=nan"]),
        ("tau", ["gridsearch", "--grid", "tau=2.5"]),
        ("tau", ["gridsearch", "--grid", "tau=1e400"]),
        ("triangle_cap", ["gridsearch", "--grid", "triangle_cap=1e30"]),
        ("tau", ["sweep", "--param", "tau", "--values", "inf"]),
        ("kappa", ["sweep", "--param", "kappa", "--values", "1"]),
    ):
        capsys.readouterr()
        assert cli.main(argv + ["--dataset", str(data)]) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
        assert key in captured.err, argv


def test_integer_fields_take_whole_numbers(tmp_path, capsys):
    frame = tmp_path / "f.pgm"
    write_constant_frame(frame)
    cfg = tmp_path / "whole.cfg"
    cfg.write_text("tau = 2.0\ncrop_rows = 1e2\nstack_size = 6\n")
    assert cli.main(["detect", "--input", str(frame)]) == 0
    default = capsys.readouterr().out
    assert cli.main(["detect", "--input", str(frame), "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == default


def each_backend():
    """The kernel modules this session can run: pure, and compiled if built."""
    from toposhadow import _kernels

    yield _kernels.get_backend("pure")
    try:
        yield _kernels.get_backend("compiled")
    except ImportError:
        pass


def test_out_of_range_values_name_their_field(tmp_path, monkeypatch, capsys):
    # crop_rows past the frame is bad data (3), a stack that cannot be held
    # is out of memory (4); either way one short line names the field
    from toposhadow import _kernels

    frame = tmp_path / "f.pgm"
    write_constant_frame(frame)
    cfg = tmp_path / "big.cfg"
    for impl in each_backend():
        for name in _kernels.KERNELS:
            monkeypatch.setattr(_kernels, name, getattr(impl, name))
        for key, value, code in (
            ("crop_rows", "1e300", 3),
            ("crop_rows", "300", 3),
            ("stack_size", "1e15", 4),
            ("stack_size", "1e300", 4),
        ):
            cfg.write_text(f"{key} = {value}\n")
            capsys.readouterr()
            assert cli.main(["detect", "--input", str(frame), "--config", str(cfg)]) == code
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err
            assert err.startswith("error: ") and err.count("\n") == 1, (impl.__name__, err)
            assert key in err and len(err) < 160, (impl.__name__, err)
            if key == "crop_rows":
                assert "300" in err  # the frame height


def test_triangle_cap_exit_4(tmp_path):
    out = tmp_path / "data"
    assert run_cli("synth", "--out", str(out), "--frames", "1").returncode == 0
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("triangle_cap = 1\n")
    frame = next(out.glob("*.pgm"))
    r = run_cli("detect", "--input", str(frame), "--config", str(cfg))
    assert r.returncode == 4
    assert "1" in r.stderr


def test_synth_then_evaluate_oracle(tmp_path):
    out = tmp_path / "data"
    r = run_cli("synth", "--out", str(out), "--frames", "6")
    assert r.returncode == 0, r.stderr
    assert (out / "folds.txt").exists()
    r = run_cli(
        "evaluate",
        "--dataset",
        str(out),
        "--folds",
        str(out / "folds.txt"),
        "--method",
        "oracle",
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "fold,role,tp,tn,fp,fn,acc,tnr,tpr,ppv"
    data = [l for l in lines[1:] if not l.startswith("avg")]
    for line in data:
        fields = line.split(",")
        assert fields[6] == "1.0"  # acc
    avg = [l for l in lines if l.startswith("avg")]
    assert len(avg) == 2


def test_evaluate_thresh_fit_kappa(tmp_path):
    out = tmp_path / "data"
    assert run_cli("synth", "--out", str(out), "--frames", "6").returncode == 0
    r = run_cli(
        "evaluate",
        "--dataset",
        str(out),
        "--folds",
        str(out / "folds.txt"),
        "--method",
        "thresh",
        "--fit-kappa",
    )
    assert r.returncode == 0, r.stderr
    fitted = [l for l in r.stdout.splitlines() if l.startswith("# fold")]
    assert len(fitted) == 3
    for line in fitted:
        assert "kappa=" in line


def test_evaluate_thresh_requires_kappa(tmp_path):
    out = tmp_path / "data"
    assert run_cli("synth", "--out", str(out), "--frames", "3").returncode == 0
    r = run_cli(
        "evaluate",
        "--dataset",
        str(out),
        "--folds",
        str(out / "folds.txt"),
        "--method",
        "thresh",
    )
    assert r.returncode != 0


def test_trajectory(tmp_path):
    seq = tmp_path / "seq"
    r = run_cli("synth", "--out", str(seq), "--tilt", "5")
    assert r.returncode == 0, r.stderr
    r = run_cli("trajectory", "--frames-dir", str(seq))
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "frame,mean_confidence,target"
    assert lines[-1].startswith("# rmse=")
    assert len(lines) == 5 + 2  # frames + header + footer


def test_trajectory_too_few_frames(tmp_path):
    seq = tmp_path / "seq"
    seq.mkdir()
    write_constant_frame(seq / "a.pgm")
    write_constant_frame(seq / "b.pgm")
    r = run_cli("trajectory", "--frames-dir", str(seq))
    assert r.returncode == 3


def test_sweep_single_value(tmp_path):
    out = tmp_path / "data"
    assert run_cli("synth", "--out", str(out), "--frames", "3").returncode == 0
    r = run_cli(
        "sweep",
        "--dataset",
        str(out),
        "--param",
        "epsilon",
        "--values",
        "60",
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "value,acc,tnr,tpr,ppv"
    assert len(lines) == 2


def test_sweep_empty_dataset_prints_nan_rows(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    for name, values in (("gamma", "3,4,5"), ("stack_size", "3,4.0,5e0")):
        argv = ["sweep", "--dataset", str(empty), "--param", name, "--values", values]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (
            "value,acc,tnr,tpr,ppv\n"
            "3.0,nan,nan,nan,nan\n"
            "4.0,nan,nan,nan,nan\n"
            "5.0,nan,nan,nan,nan\n"
        )


def test_gridsearch_single_point(tmp_path):
    out = tmp_path / "data"
    assert run_cli("synth", "--out", str(out), "--frames", "3").returncode == 0
    r = run_cli(
        "gridsearch",
        "--dataset",
        str(out),
        "--grid",
        "epsilon=60",
        "--grid",
        "tau=2",
    )
    assert r.returncode == 0, r.stderr
    assert "epsilon=60.0" in r.stdout
    assert "tau=2" in r.stdout
    assert "accuracy=" in r.stdout


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("synth", "--out", str(a), "--frames", "4").returncode == 0
    assert run_cli("synth", "--out", str(b), "--frames", "4").returncode == 0
    assert tree_bytes(a) == tree_bytes(b)


def test_evaluate_deterministic_and_workers(tmp_path):
    out = tmp_path / "data"
    assert run_cli("synth", "--out", str(out), "--frames", "6").returncode == 0
    args = (
        "evaluate",
        "--dataset",
        str(out),
        "--folds",
        str(out / "folds.txt"),
        "--method",
        "topol",
    )
    r1 = run_cli(*args)
    r2 = run_cli(*args)
    r3 = run_cli(*args, "--workers", "2")
    assert r1.returncode == 0, r1.stderr
    assert r1.stdout == r2.stdout == r3.stdout
