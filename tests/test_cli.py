import json

import numpy as np
import pytest

from worldtrack import losses
from worldtrack.cli import main

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

    real = losses.traj_loss

    def flipped(*args, **kwargs):
        loss, grad, dropped = real(*args, **kwargs)
        return loss, -grad, dropped

    monkeypatch.setattr(losses, "traj_loss", flipped)
    assert main(["check-grads", "--trials", "1"]) == 1
    assert "FAIL traj_loss" in capsys.readouterr().out


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
