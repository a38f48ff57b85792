import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import worldtrack
from worldtrack import losses
from worldtrack.cli import _write_json, main

SYNTH = [
    "synth", "--preset", "orbit-dynamic", "--width", "24", "--height", "18",
    "--frames", "4", "--focal", "30", "--seed", "5",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(SYNTH + ["--out", str(root / "clean.seq")]) == 0
    assert main(SYNTH + [
        "--noise", "0.05", "--drift", "0.01", "--out", str(root / "noisy.seq"),
    ]) == 0
    assert main([
        "adapt", "--seq", str(root / "noisy.seq"), "--out", str(root / "adapted.seq"),
        "--steps", "12",
    ]) == 0
    return root


def test_synth_writes_loadable_sequence(workdir):
    from worldtrack.seqio import load_sequence

    seq = load_sequence(workdir / "clean.seq")
    assert seq.num_frames == 4
    assert seq.spec.preset == "orbit-dynamic"
    noisy = load_sequence(workdir / "noisy.seq")
    assert noisy.meta["corruption"]["noise"] == 0.05


def test_synth_reruns_are_byte_identical(workdir, tmp_path):
    assert main(SYNTH + ["--out", str(tmp_path / "again.seq")]) == 0
    for p in sorted((workdir / "clean.seq").iterdir()):
        assert (tmp_path / "again.seq" / p.name).read_bytes() == p.read_bytes()


def test_solve_camera_report(workdir):
    assert main(["solve-camera", "--seq", str(workdir / "clean.seq")]) == 0
    report = json.loads((workdir / "clean.seq.cameras.json").read_text())
    assert abs(report["focal"] - 30.0) / 30.0 < 1e-5
    assert len(report["frames"]) == 4
    assert report["frames"][0]["rotation"] == np.eye(3).tolist()
    for fr in report["frames"]:
        assert fr["rms_px"] < 1e-4


def test_solve_camera_with_a_frame_zero_point_behind_the_camera(tmp_path):
    # that point once made frame 0's RMS inf, which the JSON report refused
    import dataclasses

    from worldtrack.geometry import PointmapVideo
    from worldtrack.seqio import load_sequence, save_sequence

    clean, bad = tmp_path / "clean.seq", tmp_path / "bad.seq"
    assert main(["synth", "--preset", "orbit-dynamic", "--width", "32", "--height", "24",
                 "--frames", "4", "--out", str(clean)]) == 0
    seq = load_sequence(clean)
    video = seq.recon_pointmaps
    points = np.array(video.points)
    points[0, 5, 9, 2] = -1.0
    assert video.valid[0, 5, 9]
    recon = PointmapVideo("recon", points, video.valid)
    save_sequence(bad, dataclasses.replace(seq, recon_pointmaps=recon))
    out = tmp_path / "cameras.json"
    assert main(["solve-camera", "--seq", str(bad), "--out", str(out)]) == 0
    frame = json.loads(out.read_text())["frames"][0]
    assert frame["rms_px"] < 1e-4 and frame["num_inliers"] == video.valid[0].sum() - 1


def test_adapt_trace_and_meta(workdir):
    from worldtrack.seqio import load_sequence

    lines = (workdir / "adapted.seq" / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "step,traj,depth,align,total"
    assert len(lines) == 1 + 12 + 1  # header + per-step + final evaluation
    totals = [float(row.split(",")[4]) for row in lines[1:]]
    assert totals[-1] < totals[0]
    adapted = load_sequence(workdir / "adapted.seq")
    assert adapted.meta["adaptation"]["steps"] == 12


def test_eval_reports_improvement(workdir, tmp_path):
    args = ["eval", "--gt", str(workdir / "clean.seq")]
    assert main(args + ["--pred", str(workdir / "noisy.seq"),
                        "--out", str(tmp_path / "before.json")]) == 0
    assert main(args + ["--pred", str(workdir / "adapted.seq"),
                        "--out", str(tmp_path / "after.json")]) == 0
    before = json.loads((tmp_path / "before.json").read_text())
    after = json.loads((tmp_path / "after.json").read_text())
    assert after["tracks"]["all"]["epe"] < before["tracks"]["all"]["epe"]
    assert after["tracks"]["all"]["apd"] >= before["tracks"]["all"]["apd"]
    assert before["recon"]["num_pairs"] > 0


def test_eval_self_is_perfect_modulo_storage(workdir, tmp_path):
    """float32 storage keeps self-eval under a millimeter of error."""
    assert main([
        "eval", "--pred", str(workdir / "clean.seq"), "--gt", str(workdir / "clean.seq"),
        "--alignment", "none", "--out", str(tmp_path / "self.json"),
    ]) == 0
    rep = json.loads((tmp_path / "self.json").read_text())
    assert rep["tracks"]["all"]["apd"] == 100.0
    assert rep["tracks"]["all"]["epe"] < 1e-3
    assert rep["recon"]["apd"] == 100.0


def test_eval_max_queries_subsamples(workdir, capsys):
    assert main([
        "eval", "--pred", str(workdir / "clean.seq"), "--gt", str(workdir / "clean.seq"),
        "--mode", "tracks", "--max-queries", "20", "--out", "-",
    ]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["tracks"]["all"]["num_pairs"] <= 20 * 4
    assert "recon" not in rep


@pytest.mark.parametrize(
    "size, shape",
    [(["--width", "16", "--height", "12"], "16x12x4"), (["--frames", "3"], "24x18x3")],
    ids=["grid", "frames"],
)
def test_eval_refuses_mismatched_sequences(workdir, tmp_path, capsys, size, shape):
    other, clean = tmp_path / "other.seq", workdir / "clean.seq"
    assert main(SYNTH + size + ["--out", str(other)]) == 0
    capsys.readouterr()
    out = tmp_path / "eval.json"
    for pred, gt, first, second in [
        (other, clean, shape, "24x18x4"),
        (clean, other, "24x18x4", shape),
    ]:
        assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --pred is {first} but --gt is {second} (width x height x frames)\n"
        assert not out.exists()


def test_check_grads_pass_and_fail(capsys, monkeypatch):
    assert main(["check-grads", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out

    real = losses._traj_terms

    def flipped(*args, **kwargs):
        loss, grad, dropped, checks = real(*args, **kwargs)
        return loss, -grad, dropped, checks

    monkeypatch.setattr(losses, "_traj_terms", flipped)
    assert main(["check-grads", "--trials", "1"]) == 1
    assert "FAIL traj_loss" in capsys.readouterr().out


def test_check_grads_catches_a_halved_camera_point_gradient(capsys, monkeypatch):
    """The projection chain of the adaptation objective is audited too."""
    real = losses._trajectory

    def halved(*args, **kwargs):
        loss, g_Y = real(*args, **kwargs)
        return loss, 0.5 * g_Y

    monkeypatch.setattr(losses, "_trajectory", halved)
    assert main(["check-grads", "--trials", "1"]) == 1
    assert "FAIL traj_loss" in capsys.readouterr().out


def test_check_grads_audits_the_live_pose_routing(capsys, monkeypatch):
    """The pose check runs the live step's pull-back, 1/T scaling included."""
    real = losses._recon_gradient

    def unscaled(g_rec, g_R, *args):
        return real(g_rec, len(g_rec) * g_R, *args)

    monkeypatch.setattr(losses, "_recon_gradient", unscaled)
    assert main(["check-grads", "--trials", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL live_pose_step" in out and out.count("PASS") == 3


def test_reports_refuse_non_finite_values_and_write_nothing(tmp_path):
    report = tmp_path / "report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_json(report, {"epe": float("nan")})
    assert not report.exists()


def test_missing_input_exits_one(tmp_path, capsys):
    code = main(["eval", "--pred", str(tmp_path / "nope"), "--gt", str(tmp_path / "nope")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unwritable_output_exits_one(workdir, tmp_path, capsys):
    code = main(["solve-camera", "--seq", str(workdir / "clean.seq"), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--preset", "no-such-preset", "--out", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"), ("--lr", "-0.01"), ("--lr", "abc"),
     ("--w-traj", "nan"), ("--w-depth", "-1"), ("--w-align", "inf")],
)
def test_adapt_rejects_bad_step_size_and_weights(tmp_path, capsys, flag, value):
    # the input does not exist: exit 2 shows the value was refused before any work
    with pytest.raises(SystemExit) as exc:
        main(["adapt", "--seq", str(tmp_path / "missing.seq"),
              "--out", str(tmp_path / "out"), flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [SYNTH + ["--width", "0"], SYNTH + ["--height", "-4"], SYNTH + ["--frames", "0"],
     SYNTH + ["--focal", "-1"], SYNTH + ["--noise", "-0.1"], SYNTH + ["--drift", "nan"],
     ["adapt", "--seq", "{seq}", "--steps", "-1"],
     ["adapt", "--seq", "{seq}", "--seed", "-1"],
     pytest.param(["adapt", "--seq", "{seq}", "--seed", "2.5"], id="adapt--seed-not-an-integer"),
     ["solve-camera", "--seq", "{seq}", "--seed", "-1"],
     SYNTH + ["--seed", "-1"], SYNTH + ["--corrupt-seed", "-1"],
     ["eval", "--pred", "{seq}", "--gt", "{seq}", "--seed", "-1"],
     ["check-grads", "--seed", "-1"],
     ["eval", "--pred", "{seq}", "--gt", "{seq}", "--window", "0"],
     ["eval", "--pred", "{seq}", "--gt", "{seq}", "--max-queries", "-5"],
     ["check-grads", "--trials", "0"],
     pytest.param(SYNTH + ["--width", "5"], id="synth--width-below-minimum")],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_usage_errors_exit_two_before_any_work(workdir, tmp_path, capsys, argv):
    # a real input: without the refusal each command would run and write
    argv = [a.format(seq=workdir / "clean.seq") for a in argv]
    flag = argv[-2]
    if argv[0] != "check-grads":
        argv += ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err
    assert list(tmp_path.iterdir()) == []


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``solve-camera``, ``adapt``, frozen and live, and ``eval`` of the live
    output under sim3 alignment, whose covariance is a BLAS product, write
    the same bytes under one and under two OpenBLAS threads. OpenBLAS
    splits a long dot product over its threads, so a sum it forms rounds by
    the thread count; on orbit-dynamic inputs of 96x72 such a sum once
    reached trace.csv, while 64x48 hid it. Only the children's environment
    is set."""
    seq, clean = tmp_path / "in.seq", tmp_path / "clean.seq"
    synth = ["synth", "--preset", "orbit-dynamic", "--width", "96", "--height", "72",
             "--frames", "4", "--seed", "1"]
    assert main([*synth, "--noise", "0.05", "--drift", "0.01", "--out", str(seq)]) == 0
    assert main([*synth, "--out", str(clean)]) == 0
    src = str(Path(worldtrack.__file__).parents[1])
    entry = "import sys; from worldtrack.cli import main; sys.exit(main(sys.argv[1:]))"
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        adapt = ["adapt", "--seq", str(seq), "--steps", "2"]
        evaluate = ["eval", "--pred", str(out / "live.seq"), "--gt", str(clean),
                    "--mode", "both", "--alignment", "sim3", "--out", str(out / "eval.json")]
        for argv in (["solve-camera", "--seq", str(seq), "--out", str(out / "cameras.json")],
                     adapt + ["--out", str(out / "frozen.seq")],
                     adapt + ["--out", str(out / "live.seq"), "--unfreeze-recon"],
                     evaluate):
            subprocess.run([sys.executable, "-c", entry, *argv], env=env, check=True,
                           capture_output=True)
        outputs[threads] = {
            p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }
    assert Path("frozen.seq/trace.csv") in outputs["1"]
    assert Path("live.seq/trace.csv") in outputs["1"]
    assert {"tracks", "recon"} <= json.loads(outputs["1"][Path("eval.json")]).keys()
    assert outputs["1"].keys() == outputs["2"].keys()
    differ = [str(name) for name, data in outputs["1"].items() if outputs["2"][name] != data]
    assert differ == []
