"""Exit codes, config-file resolution, and artifact layout of the CLI."""

import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from kinterp import cli
from kinterp import numcore as nc
from kinterp.cli import (
    EXIT_DIMENSION,
    EXIT_FORMAT,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from kinterp.kspace import read_volume, write_volume
from kinterp.model import full_config, tiny_config
from kinterp.pipeline import TrainConfig, infer, load_manifest
from kinterp.sampling import apply_mask, load_mask


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A dataset, a 2-step checkpoint, and a mask, all made through the CLI."""
    root = tmp_path_factory.mktemp("cli_ws")
    data = root / "data"
    run = root / "run"
    masks = root / "masks"
    assert main([
        "dataset", "--out", str(data), "--dims", "16,16,2",
        "--n-train", "2", "--n-test", "1", "--seed", "0",
    ]) == EXIT_OK
    assert main([
        "train", "--tiny", "--out", str(run), "--manifest", str(data / "manifest.txt"),
        "--steps", "2", "--seed", "0",
    ]) == EXIT_OK
    assert main([
        "mask", "--out", str(masks), "--dims", "16,16,2", "--R", "4", "--seed", "1",
    ]) == EXIT_OK
    return {"root": root, "data": data, "run": run, "masks": masks}


def test_dataset_artifacts(workspace):
    data = workspace["data"]
    manifest = data / "manifest.txt"
    assert manifest.exists()
    table = load_manifest(manifest)
    assert len(table["train"]) == 2 and len(table["test"]) == 1
    assert len(list(data.glob("*.kvol"))) == 6
    echoed = (data / "resolved_config.txt").read_text()
    assert "dims = 16,16,2" in echoed
    assert "n_train = 2" in echoed


def test_mask_artifacts(workspace):
    path = workspace["masks"] / "mask.kmask"
    mask = load_mask(path)
    assert (mask.y_dim, mask.t_dim) == (16, 2)
    assert mask.r_nominal == 4.0
    assert np.all(mask.bits.sum(axis=0) == 4)


def test_train_artifacts(workspace):
    run = workspace["run"]
    assert (run / "checkpoint.kgin").exists()
    log = (run / "loss_log.csv").read_text().splitlines()
    assert log[0] == "step,lr,l1,hdr,total"
    assert len(log) == 3
    echoed = (run / "resolved_config.txt").read_text()
    assert "dims = 16,16,2" in echoed  # probed from the manifest
    assert "tiny = true" in echoed


def test_infer_artifacts(workspace, tmp_path, capsys):
    data, run, masks = workspace["data"], workspace["run"], workspace["masks"]
    mask = load_mask(masks / "mask.kmask")
    gt = read_volume(data / "test_000.kspace.kvol")
    masked, _ = apply_mask(gt, mask)
    under = tmp_path / "under.kvol"
    write_volume(masked, under)
    out = tmp_path / "recon"
    code = main([
        "infer", str(under), "--out", str(out),
        "--checkpoint", str(run / "checkpoint.kgin"),
        "--mask", str(masks / "mask.kmask"),
    ])
    assert code == EXIT_OK
    recon = read_volume(out / "recon.kvol")
    assert (recon.x_dim, recon.y_dim, recon.t_dim) == (16, 16, 2)
    assert recon.domain == "image"
    assert len(list((out / "frames").glob("*.pgm"))) == 2
    assert "recon.kvol" in capsys.readouterr().out


def test_infer_computes_in_float32_by_default(workspace, tmp_path):
    """A fresh process infers in numcore's default mode, "train" (float32)."""
    data, masks = workspace["data"], workspace["masks"]
    checkpoint = workspace["run"] / "checkpoint.kgin"
    mask = load_mask(masks / "mask.kmask")
    masked, _ = apply_mask(read_volume(data / "test_000.kspace.kvol"), mask)
    under = tmp_path / "under.kvol"
    write_volume(masked, under)
    out = tmp_path / "recon"
    proc = subprocess.run(
        [
            sys.executable, "-m", "kinterp", "infer", str(under), "--out", str(out),
            "--checkpoint", str(checkpoint), "--mask", str(masks / "mask.kmask"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    written = {}
    for mode in ("train", "test"):
        path = tmp_path / f"{mode}.kvol"
        with nc.use_mode(mode):
            write_volume(infer(checkpoint, masked, mask).image, path)
        written[mode] = path.read_bytes()
    child = (out / "recon.kvol").read_bytes()
    assert child == written["train"]
    assert child != written["test"]  # the comparison tells the two modes apart


def test_eval_artifacts(workspace, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main([
        "eval", "--out", str(out),
        "--checkpoint", str(workspace["run"] / "checkpoint.kgin"),
        "--manifest", str(workspace["data"] / "manifest.txt"),
        "--R", "2,4", "--seed", "0",
    ])
    assert code == EXIT_OK
    report = (out / "report.csv").read_text().splitlines()
    baseline = (out / "baseline.csv").read_text().splitlines()
    assert report[0] == "R,sequence,nmse,ssim,psnr"
    assert len(report) == 1 + 2 * 1 + 2  # one test sequence, two accelerations
    assert len(baseline) == len(report)
    stdout = capsys.readouterr().out
    assert "R=2 model psnr=" in stdout
    assert "zero-filled psnr=" in stdout


def test_workflow_at_an_extent_that_is_not_a_power_of_two(tmp_path):
    """24x20x4: every command runs, and the frames keep the volume's extent."""
    data, run, masks = tmp_path / "data", tmp_path / "run", tmp_path / "masks"
    manifest, checkpoint = data / "manifest.txt", run / "checkpoint.kgin"
    assert main([
        "dataset", "--out", str(data), "--dims", "24,20,4",
        "--n-train", "1", "--n-test", "1", "--seed", "0",
    ]) == EXIT_OK
    assert main([
        "train", "--tiny", "--out", str(run), "--manifest", str(manifest),
        "--steps", "2", "--seed", "0",
    ]) == EXIT_OK
    assert main([
        "eval", "--out", str(tmp_path / "eval"), "--checkpoint", str(checkpoint),
        "--manifest", str(manifest), "--R", "4",
    ]) == EXIT_OK
    assert main([
        "mask", "--out", str(masks), "--dims", "24,20,4", "--R", "4", "--seed", "1",
    ]) == EXIT_OK
    mask = load_mask(masks / "mask.kmask")
    masked, _ = apply_mask(read_volume(data / "test_000.kspace.kvol"), mask)
    under = tmp_path / "under.kvol"
    write_volume(masked, under)
    out = tmp_path / "recon"
    assert main([
        "infer", str(under), "--out", str(out), "--checkpoint", str(checkpoint),
        "--mask", str(masks / "mask.kmask"),
    ]) == EXIT_OK
    frames = sorted((out / "frames").glob("*.pgm"))
    assert len(frames) == 4
    for frame in frames:
        assert frame.read_bytes().startswith(b"P5\n24 20\n255\n")


# ----------------------------------------------------------- config handling


def test_flags_override_config_file(workspace, tmp_path):
    cfg = tmp_path / "mask.cfg"
    cfg.write_text("# comment line\n\nseed = 7\ndims = 16,16,2\nR = 4\n")
    out_a = tmp_path / "a"
    assert main(["mask", "--config", str(cfg), "--out", str(out_a), "--seed", "3"]) == 0
    out_b = tmp_path / "b"
    assert main(["mask", "--out", str(out_b), "--dims", "16,16,2", "--R", "4",
                 "--seed", "3"]) == 0
    assert (out_a / "mask.kmask").read_text() == (out_b / "mask.kmask").read_text()
    assert "seed = 3" in (out_a / "resolved_config.txt").read_text()


def test_resolved_config_reruns_identically(workspace, tmp_path):
    """The echoed file is a complete recipe: feeding it back reproduces the
    run bitwise (with only the output directory overridden)."""
    run_a = tmp_path / "a"
    data = workspace["data"]
    assert main([
        "train", "--tiny", "--out", str(run_a),
        "--manifest", str(data / "manifest.txt"), "--steps", "2", "--seed", "5",
    ]) == EXIT_OK
    run_b = tmp_path / "b"
    assert main([
        "train", "--config", str(run_a / "resolved_config.txt"), "--out", str(run_b),
    ]) == EXIT_OK
    assert (run_a / "checkpoint.kgin").read_bytes() == (
        run_b / "checkpoint.kgin"
    ).read_bytes()
    assert (run_a / "loss_log.csv").read_text() == (run_b / "loss_log.csv").read_text()
    a_lines = set((run_a / "resolved_config.txt").read_text().splitlines())
    b_lines = set((run_b / "resolved_config.txt").read_text().splitlines())
    assert {l for l in a_lines if not l.startswith("out ")} == {
        l for l in b_lines if not l.startswith("out ")
    }


def _record_train(monkeypatch) -> list[TrainConfig]:
    """Stand in for the training run; the CLI still resolves and echoes."""
    seen = []

    def fake_train(cfg, out_dir):
        seen.append(cfg)
        return SimpleNamespace(checkpoint_path="ckpt", log_path="log")

    monkeypatch.setattr(cli, "train", fake_train)
    return seen


def test_train_echo_lists_every_key(workspace, tmp_path, monkeypatch):
    """With only the required flags, train echoes every default in table order."""
    _record_train(monkeypatch)
    out = tmp_path / "run"
    manifest = workspace["data"] / "manifest.txt"
    assert main(["train", "--tiny", "--out", str(out), "--manifest", str(manifest)]) == EXIT_OK
    assert (out / "resolved_config.txt").read_text().splitlines() == [
        "seed = 0",
        f"out = {out}",
        f"manifest = {manifest}",
        "dims = 16,16,2",
        "R = 4.0",
        "steps = 200",
        "tiny = true",
        "max_lr = 0.0001",
        "warmup_fraction = 0.3",
        "initial_div = 25.0",
        "final_div = 10000.0",
        "embed_dim = 32",
        "n_heads = 4",
        "n_layers = 2",
        "mlp_ratio = 4",
        "kirm_patch = 4",
        "kirm_planes = ky-t,kx-t,kx-ky",
        "loss_weight_hdr = 1.0",
        "hdr_eps = 0.5",
    ]


@pytest.mark.parametrize("flags, preset", [(["--tiny"], tiny_config), ([], full_config)],
                         ids=["tiny", "full"])
def test_train_config_is_the_preset(workspace, tmp_path, monkeypatch, flags, preset):
    """The CLI adds no defaults of its own (checked without building the model)."""
    seen = _record_train(monkeypatch)
    manifest = workspace["data"] / "manifest.txt"
    assert main(["train", *flags, "--out", str(tmp_path), "--manifest", str(manifest)]) == 0
    assert seen == [TrainConfig(model=preset(16, 16, 2), manifest=manifest)]


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("momentum = 0.9\n")
    assert main(["mask", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE


def test_malformed_config_line_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed 7\n")
    assert main(["mask", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    cfg.write_bytes(b"seed = \xff\n")  # not UTF-8
    assert main(["mask", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE


def test_repeated_config_key_rejected(workspace, tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("steps = 1\n# a comment\nsteps = 3\n")
    manifest = str(workspace["data"] / "manifest.txt")
    code = main(["train", "--tiny", "--config", str(cfg), "--out", str(tmp_path / "run"),
                 "--manifest", manifest])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'steps'" in err and ":3:" in err and "line 1" in err
    assert not (tmp_path / "run").exists()


def test_missing_config_file(tmp_path):
    code = main(["mask", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == EXIT_MISSING_FILE


# -------------------------------------------------------------- exit codes


def test_usage_errors(workspace, tmp_path):
    manifest = str(workspace["data"] / "manifest.txt")
    assert main(["mask"]) == EXIT_USAGE  # --out is required
    assert main(["mask", "--out", str(tmp_path), "--dims", "16,16"]) == EXIT_USAGE
    assert main(["mask", "--out", str(tmp_path), "--dims", "16,16,2",
                 "--R", "1"]) == EXIT_USAGE  # R must exceed 1
    assert main(["train", "--tiny", "--out", str(tmp_path), "--manifest", manifest,
                 "--steps", "0"]) == EXIT_USAGE
    assert main(["infer", "--out", str(tmp_path), "--checkpoint", "x",
                 "--mask", "y"]) == EXIT_USAGE  # no input volume anywhere
    # schedule and loss values that only a config file sets, NaN included
    cfg = tmp_path / "bad.cfg"
    for line in ("max_lr = -1", "warmup_fraction = 1.5", "final_div = 0.5",
                 "max_lr = nan", "hdr_eps = nan", "hdr_eps = inf",
                 "kirm_planes = ky-t\nkirm_patch = -1", "kirm_planes = diagonal"):
        cfg.write_text(line + "\n")
        assert main(["train", "--tiny", "--config", str(cfg), "--out", str(tmp_path),
                     "--manifest", manifest, "--steps", "2"]) == EXIT_USAGE, line
    # a negative seed, before any work starts
    checkpoint = str(workspace["run"] / "checkpoint.kgin")
    for argv in (
        ["dataset", "--n-train", "1", "--n-test", "1"],
        ["mask", "--dims", "16,16,2"],
        ["train", "--tiny", "--manifest", manifest, "--steps", "2"],
        ["eval", "--checkpoint", checkpoint, "--manifest", manifest],
    ):
        assert main([*argv, "--out", str(tmp_path), "--seed", "-1"]) == EXIT_USAGE, argv[0]
    # --out naming an existing file, before any work starts
    not_a_dir = tmp_path / "file.txt"
    not_a_dir.write_text("x\n")
    for argv in (
        ["dataset", "--n-train", "1", "--n-test", "1"],
        ["mask", "--dims", "16,16,2"],
        ["eval", "--checkpoint", checkpoint, "--manifest", manifest],
    ):
        for out in (not_a_dir, not_a_dir / "sub"):  # the file itself, or a path under it
            assert main([*argv, "--out", str(out)]) == EXIT_USAGE, (argv[0], out)
    # phantom extents out of range, before --out is created
    for dims in ("7,8,2", "32,32,1"):
        assert main(["dataset", "--out", str(tmp_path / "D"), "--dims", dims]) == EXIT_USAGE
        assert not (tmp_path / "D").exists(), dims


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_missing_file_errors(workspace, tmp_path):
    assert main([
        "train", "--tiny", "--out", str(tmp_path),
        "--manifest", str(tmp_path / "none.txt"),
    ]) == EXIT_MISSING_FILE
    assert main([
        "infer", str(tmp_path / "none.kvol"), "--out", str(tmp_path),
        "--checkpoint", str(workspace["run"] / "checkpoint.kgin"),
        "--mask", str(workspace["masks"] / "mask.kmask"),
    ]) == EXIT_MISSING_FILE
    assert main([
        "eval", "--out", str(tmp_path), "--checkpoint", str(tmp_path / "none.kgin"),
        "--manifest", str(workspace["data"] / "manifest.txt"),
    ]) == EXIT_MISSING_FILE
    # a directory given as an input file, or a path under a file
    checkpoint = str(workspace["run"] / "checkpoint.kgin")
    manifest = workspace["data"] / "manifest.txt"
    assert main([
        "infer", str(workspace["data"] / "test_000.kspace.kvol"), "--out", str(tmp_path),
        "--checkpoint", str(tmp_path), "--mask", str(workspace["masks"] / "mask.kmask"),
    ]) == EXIT_MISSING_FILE
    for bad_manifest in (tmp_path, manifest / "x"):
        assert main([
            "eval", "--out", str(tmp_path), "--checkpoint", checkpoint,
            "--manifest", str(bad_manifest),
        ]) == EXIT_MISSING_FILE, bad_manifest
    assert main([
        "train", "--tiny", "--config", str(tmp_path), "--out", str(tmp_path),
        "--manifest", str(manifest),
    ]) == EXIT_MISSING_FILE


def test_format_errors(workspace, tmp_path):
    junk = tmp_path / "junk.kvol"
    junk.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK")
    assert main([
        "infer", str(junk), "--out", str(tmp_path),
        "--checkpoint", str(workspace["run"] / "checkpoint.kgin"),
        "--mask", str(workspace["masks"] / "mask.kmask"),
    ]) == EXIT_FORMAT
    bad_mask = tmp_path / "bad.kmask"
    rows = b"1010101010101010\n" * 2
    for header in (b"KMASK v1 -4 2 4 0\n", b"KMASK v1 16 2 4 \xe9\n", b"KMASK v1 16 2 nan 0\n"):
        bad_mask.write_bytes(header + rows)
        assert main([
            "infer", str(workspace["data"] / "test_000.kspace.kvol"), "--out", str(tmp_path),
            "--checkpoint", str(workspace["run"] / "checkpoint.kgin"), "--mask", str(bad_mask),
        ]) == EXIT_FORMAT
    # a payload holding NaN
    nan_kvol = tmp_path / "nan.kvol"
    blob = bytearray((workspace["data"] / "test_000.kspace.kvol").read_bytes())
    blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    nan_kvol.write_bytes(bytes(blob))
    assert main([
        "infer", str(nan_kvol), "--out", str(tmp_path),
        "--checkpoint", str(workspace["run"] / "checkpoint.kgin"),
        "--mask", str(workspace["masks"] / "mask.kmask"),
    ]) == EXIT_FORMAT
    # an image-domain volume where k-space is expected: a wrong header tag
    assert main([
        "infer", str(workspace["data"] / "test_000.image.kvol"), "--out", str(tmp_path),
        "--checkpoint", str(workspace["run"] / "checkpoint.kgin"),
        "--mask", str(workspace["masks"] / "mask.kmask"),
    ]) == EXIT_FORMAT
    bad_ckpt = tmp_path / "bad.kgin"
    bad_ckpt.write_bytes(b"XXXX" + b"\x00" * 64)
    assert main([
        "eval", "--out", str(tmp_path), "--checkpoint", str(bad_ckpt),
        "--manifest", str(workspace["data"] / "manifest.txt"),
    ]) == EXIT_FORMAT
    # a checkpoint holding NaN, then inf, in its last tensor: named at load
    blob = (workspace["run"] / "checkpoint.kgin").read_bytes()
    for value in (np.nan, np.inf):
        bad_ckpt.write_bytes(blob[:-4] + np.array([value], dtype="<f4").tobytes())
        assert main([
            "eval", "--out", str(tmp_path), "--checkpoint", str(bad_ckpt),
            "--manifest", str(workspace["data"] / "manifest.txt"),
        ]) == EXIT_FORMAT


def test_dimension_errors(workspace, tmp_path):
    manifest = str(workspace["data"] / "manifest.txt")
    # model dims contradict the 16x16x2 training volumes
    assert main([
        "train", "--tiny", "--out", str(tmp_path), "--manifest", manifest,
        "--dims", "16,16,4", "--steps", "1",
    ]) == EXIT_DIMENSION
    # undersampled input does not match the checkpoint geometry
    wrong = tmp_path / "wrong.kvol"
    gt = read_volume(workspace["data"] / "test_000.kspace.kvol")
    write_volume(gt, wrong)
    big = tmp_path / "mask32"
    assert main(["mask", "--out", str(big), "--dims", "32,32,2", "--R", "4"]) == 0
    assert main([
        "infer", str(wrong), "--out", str(tmp_path),
        "--checkpoint", str(workspace["run"] / "checkpoint.kgin"),
        "--mask", str(big / "mask.kmask"),
    ]) == EXIT_DIMENSION


def test_error_messages_reach_stderr(tmp_path, capsys):
    assert main(["mask", "--out", str(tmp_path), "--dims", "16,16"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: config:")


def test_end_to_end_smoke_under_five_minutes(tmp_path):
    """Default desk-scale workflow: dataset -> 200-step training -> eval."""
    import time

    started = time.monotonic()
    data = tmp_path / "data"
    run = tmp_path / "run"
    scores = tmp_path / "scores"
    assert main(["dataset", "--out", str(data), "--n-train", "2", "--n-test", "1",
                 "--seed", "0"]) == EXIT_OK
    assert main(["train", "--tiny", "--out", str(run),
                 "--manifest", str(data / "manifest.txt"),
                 "--steps", "200", "--seed", "0"]) == EXIT_OK
    assert main(["eval", "--out", str(scores),
                 "--checkpoint", str(run / "checkpoint.kgin"),
                 "--manifest", str(data / "manifest.txt"), "--R", "4"]) == EXIT_OK
    assert (scores / "report.csv").exists()
    assert time.monotonic() - started < 300.0
