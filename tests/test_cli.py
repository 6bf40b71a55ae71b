import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toposhadow import classify, cli
from toposhadow.evaluation import load_folds
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


def test_detect_stderr_names_the_kernels(tmp_path, capsys):
    # stdout holds the data alone; the stderr line gives the time, the
    # thinned cloud and triangle counts and the kernels that ran
    from toposhadow import _kernels
    from toposhadow.synth import PhantomSpec, synth_phantom

    frame = tmp_path / "f.pgm"
    write_image(synth_phantom(PhantomSpec(seed=123))[0], frame)
    res = classify.detect(load_image(frame))
    capsys.readouterr()
    assert cli.main(["detect", "--input", str(frame)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"mean_confidence={cli._float_repr(res.mean_confidence)}\n"
    head, tail = captured.err.split(" ms, ")
    assert head.startswith("detect: ") and float(head[len("detect: "):]) > 0
    assert tail == (
        f"cloud {res.cloud_size}, triangles {res.triangle_count}, kernels {_kernels.NAME}\n"
    )
    assert _kernels.NAME in ("pure", "compiled/avx512f", "compiled/baseline")
    assert _kernels.NAME.startswith(_kernels.BACKEND)


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


def test_workers_below_one_is_a_usage_error(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--frames", "1"]) == 0
    for argv in (
        ["evaluate", "--folds", str(data / "folds.txt"), "--method", "oracle"],
        ["sweep", "--param", "tau", "--values", "1"],
        ["gridsearch", "--grid", "tau=1"],
    ):
        for workers in (["--workers", "0"], ["--workers", "-5"], ["--workers=-5"],
                        ["--workers", "1.5"]):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + ["--dataset", str(data), *workers])
            assert exc.value.code == 1, (argv, workers)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: argument --workers: " in captured.err, (argv, workers)
        assert cli.main(argv + ["--dataset", str(data), "--workers", "1"]) == 0


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
        ("sigma_v", "-1"),
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
    # crop_rows past the frame and taps past any array are bad data (3), a
    # stack or taps that cannot be held are out of memory (4); either way
    # one short line names the field
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
            ("sigma_u", "1e300", 3),
            ("sigma_v", "1e300", 3),
            ("sigma_u", "1e15", 4),
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


def test_sigma_past_float_triple_exits_3(tmp_path):
    # 3 sigma overflows to inf, which has no ceil: still bad data that
    # names the field, not a traceback
    frame = tmp_path / "f.pgm"
    write_constant_frame(frame)
    cfg = tmp_path / "big.cfg"
    cfg.write_text("sigma_u = 1e308\n")
    r = run_cli("detect", "--input", str(frame), "--config", str(cfg))
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("error: sigma_u 1e+308 needs") and r.stderr.count("\n") == 1


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


def test_evaluate_fit_kappa_names_a_fold_with_no_seen_frames(tmp_path, capsys):
    # three frames all fall unseen in fold 1, which leaves --fit-kappa no
    # frames to fit on there: a data error that names the fold
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--frames", "3"]) == 0
    assert load_folds(data / "folds.txt").members(1, "seen") == []
    capsys.readouterr()
    argv = ["evaluate", "--dataset", str(data), "--folds", str(data / "folds.txt"),
            "--method", "thresh", "--fit-kappa"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fold 1 has an empty seen split" in captured.err


def test_evaluate_kappa_and_fit_kappa_exclude_each_other(tmp_path, capsys):
    # a given kappa would leave --fit-kappa nothing to fit: a usage error
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--frames", "3"]) == 0
    argv = ["evaluate", "--dataset", str(data), "--folds", str(data / "folds.txt"),
            "--method", "thresh"]
    for flags in (["--kappa", "5000", "--fit-kappa"], ["--fit-kappa", "--kappa", "5000"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + flags)
        assert exc.value.code == 1, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err, flags
    assert cli.main(argv + ["--kappa", "5000"]) == 0


def test_synth_bad_counts_leave_no_directory(tmp_path, capsys):
    for flags in (["--frames", "0"], ["--tilt", "2"]):
        out = tmp_path / "out"
        assert cli.main(["synth", "--out", str(out), *flags]) == 3, flags
        assert not out.exists(), flags
        assert "error: " in capsys.readouterr().err


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


# the README's exit-code table
EXIT_CODES = {0, 1, 2, 3, 4}

_header = st.builds(
    lambda magic, w, h, maxval, sep: f"{magic}{sep}{w} {h}{sep}{maxval}\n".encode(),
    st.sampled_from(["P5", "P2", "P6", "P5 ", "p5", ""]),
    st.sampled_from(["0", "1", "7", "12", "-3", "x", "99999999999"]),
    st.sampled_from(["0", "1", "9", "12", "-1", ""]),
    st.sampled_from(["255", "0", "65535", "70000", "abc"]),
    st.sampled_from(["\n", " ", "\t", "\n# note\n"]),
)
_pgm = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda head, body: head + body, _header, st.binary(max_size=200)),
)
_config = st.lists(
    st.builds(
        "{} {} {}".format,
        st.sampled_from(["gamma", "crop_rows", "sigma_w", "tau", "epsilon", "phi1", "bogus", ""]),
        st.sampled_from(["=", ":", ""]),
        st.sampled_from(["0", "1", "2.5", "-1", "nan", "1e400", "x", "", "10" * 30]),
    ),
    max_size=4,
).map(lambda lines: "\n".join(lines) + "\n")
_labels = st.text(alphabet="01 2x\n", max_size=16)
_folds = st.lists(
    st.builds(
        "{} {} {} {}".format,
        st.sampled_from(["f", "g", "missing"]),
        st.sampled_from(["g0", "g1", ""]),
        st.sampled_from(["1", "2", "0", "x"]),
        st.sampled_from(["seen", "unseen", "other"]),
    ),
    max_size=4,
).map("\n".join)


# a frame whose header and body match, for runs that get past the input
# checks: with crop_rows 0 in the config it is detected, and with its
# labels and one fold it is evaluated
_FRAME = b"P5\n12 12\n255\n" + bytes(i * 17 % 256 for i in range(144))
_CROP_0 = "crop_rows = 0\n"


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.sampled_from(["detect", "evaluate"]),
    _pgm,
    _config,
    _labels,
    _folds,
    st.booleans(),
    st.booleans(),
)
def test_malformed_inputs_fail_by_contract(
    command, pgm, config, labels, folds, use_config, blocked
):
    # whatever the files hold, a run exits with a code from the README's
    # table, prints exactly one `error:` line when it fails and none when
    # it succeeds, and leaves no partial output behind
    run_by_contract(command, pgm, config, labels, folds, use_config, blocked)


def test_valid_inputs_succeed_or_fail_late_by_contract():
    # runs that get past the input checks: they succeed, or fail when the
    # last output cannot be written, detect after it has written its labels
    for command, labels, folds in (("detect", "", ""), ("evaluate", "010101010101\n", "f g0 1 seen")):
        for blocked, expected in ((False, 0), (True, 2)):
            code = run_by_contract(command, _FRAME, _CROP_0, labels, folds, True, blocked)
            assert code == expected, (command, blocked)


def run_by_contract(command, pgm, config, labels, folds, use_config, blocked):
    """Run `command` through cli.main on these input files and check the
    failure contract; return the exit code.  With `blocked`, the
    command's last output path is a directory, which it cannot write."""
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "data")
        os.mkdir(root)
        with open(os.path.join(root, "f.pgm"), "wb") as fh:
            fh.write(pgm)
        with open(os.path.join(root, "f.labels"), "w") as fh:
            fh.write(labels)
        folds_path = os.path.join(tmp, "folds.txt")
        with open(folds_path, "w") as fh:
            fh.write(folds)
        config_path = os.path.join(tmp, "run.cfg")
        with open(config_path, "w") as fh:
            fh.write(config)
        outputs = [os.path.join(tmp, "out", name) for name in ("a.labels", "a.pgm", "a.csv")]
        if command == "detect":
            argv = ["detect", "--input", os.path.join(root, "f.pgm"),
                    "--out-labels", outputs[0], "--out-confidence", outputs[1]]
        else:
            argv = ["evaluate", "--dataset", root, "--folds", folds_path, "--out", outputs[2]]
        if use_config:
            argv += ["--config", config_path]
        os.mkdir(os.path.join(tmp, "out"))
        last = outputs[1] if command == "detect" else outputs[2]
        if blocked:
            os.mkdir(last)
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in EXIT_CODES, (code, err.getvalue())
        errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
        assert len(errors) == (0 if code == 0 else 1), err.getvalue()
        left = sorted(os.listdir(os.path.join(tmp, "out")))
        if code != 0:
            assert left == ([os.path.basename(last)] if blocked else []), (code, err.getvalue())
        else:
            assert not blocked and left, err.getvalue()
        return code
