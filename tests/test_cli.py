"""Exit codes, config-file resolution, and artifact layout of the CLI."""

import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import kinterp
from kinterp import cli, kspace, pipeline
from kinterp import numcore as nc
from kinterp.cli import (
    EXIT_DIMENSION,
    EXIT_FORMAT,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    main,
)
from kinterp.kspace import read_volume, write_volume
from kinterp.model import full_config, load_params, tiny_config
from kinterp.pipeline import TrainConfig, infer, load_manifest
from kinterp.sampling import apply_mask, load_mask

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


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
    # the extents are the first training volume's, and no key states them
    config, _ = load_params(run / "checkpoint.kgin")
    assert (config.x_dim, config.y_dim, config.t_dim) == (16, 16, 2)
    echoed = (run / "resolved_config.txt").read_text()
    assert not any(line.startswith("dims") for line in echoed.splitlines())
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
    # infer masks its own input, so the fully sampled volume gives the same bytes
    full = tmp_path / "recon_full"
    assert main([
        "infer", str(data / "test_000.kspace.kvol"), "--out", str(full),
        "--checkpoint", str(run / "checkpoint.kgin"),
        "--mask", str(masks / "mask.kmask"),
    ]) == EXIT_OK
    assert (full / "recon.kvol").read_bytes() == (out / "recon.kvol").read_bytes()


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


def test_eval_rejects_a_repeated_acceleration(workspace, tmp_path, capsys):
    """Report rows are keyed by R, so a repeat, in any spelling, exits 2
    with nothing written."""
    out = tmp_path / "eval"
    for r_list in ("4,4", "4,4.0", "2,4,2.00"):
        code = main([
            "eval", "--out", str(out),
            "--checkpoint", str(workspace["run"] / "checkpoint.kgin"),
            "--manifest", str(workspace["data"] / "manifest.txt"),
            "--R", r_list,
        ])
        assert code == EXIT_USAGE, r_list
        assert f"acceleration list '{r_list}' repeats a value" in capsys.readouterr().err
        assert not out.exists()


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


def test_train_reads_each_volume_once(tmp_path, monkeypatch):
    """``train`` sizes the model from the first training volume's header and
    reads each volume's payload once: 16 reads for 16 volumes."""
    data = tmp_path / "data"
    assert main([
        "dataset", "--out", str(data), "--dims", "16,16,2",
        "--n-train", "16", "--n-test", "1", "--seed", "0",
    ]) == EXIT_OK
    reads = []

    def counted(path):
        reads.append(Path(path).name)
        return read_volume(path)

    for module in (kspace, pipeline, cli):
        monkeypatch.setattr(module, "read_volume", counted)
    assert main([
        "train", "--tiny", "--out", str(tmp_path / "run"),
        "--manifest", str(data / "manifest.txt"), "--steps", "1",
    ]) == EXIT_OK
    assert sorted(reads) == [f"train_{i:03d}.kspace.kvol" for i in range(16)]


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


def test_usage_errors(workspace, tmp_path, monkeypatch, capsys):
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
    # --out naming an existing file, or empty, before any work starts
    not_a_dir = tmp_path / "file.txt"
    not_a_dir.write_text("x\n")
    empty_out = tmp_path / "empty_out.cfg"
    empty_out.write_text("out =\n")
    monkeypatch.chdir(tmp_path)  # where an empty --out would write
    before = sorted(tmp_path.iterdir())
    for argv in (
        ["dataset", "--n-train", "1", "--n-test", "1"],
        ["mask", "--dims", "16,16,2"],
        ["eval", "--checkpoint", checkpoint, "--manifest", manifest],
    ):
        for out in (
            ["--out", str(not_a_dir)],
            ["--out", str(not_a_dir / "sub")],  # a path under a file
            ["--out", ""],
            ["--config", str(empty_out)],
        ):
            assert main([*argv, *out]) == EXIT_USAGE, (argv[0], out)
    assert sorted(tmp_path.iterdir()) == before
    # infer's frames directory is held to --out's rule before any work runs
    infer_out = tmp_path / "infer_out"
    infer_out.mkdir()
    (infer_out / "frames").write_text("x\n")
    assert main([
        "infer", str(workspace["data"] / "test_000.kspace.kvol"), "--out", str(infer_out),
        "--checkpoint", checkpoint, "--mask", str(workspace["masks"] / "mask.kmask"),
    ]) == EXIT_USAGE
    assert sorted(p.name for p in infer_out.iterdir()) == ["frames"]
    # a directory at an output name, before any work runs or anything is written
    volume = str(workspace["data"] / "test_000.kspace.kvol")
    mask = str(workspace["masks"] / "mask.kmask")
    for argv, name in (
        (["dataset", "--n-train", "1", "--n-test", "1"], "manifest.txt"),
        (["dataset", "--n-train", "2", "--n-test", "1"], "train_000.kspace.kvol"),
        (["dataset", "--n-train", "2", "--n-test", "1"], "test_000.kspace.kvol"),
        (["mask", "--dims", "16,16,2"], "resolved_config.txt"),
        (["train", "--tiny", "--manifest", manifest, "--steps", "2"], "checkpoint.kgin"),
        (["infer", volume, "--checkpoint", checkpoint, "--mask", mask], "recon.kvol"),
        (["infer", volume, "--checkpoint", checkpoint, "--mask", mask],
         "frames/frame_001.pgm"),
        (["eval", "--checkpoint", checkpoint, "--manifest", manifest], "report.csv"),
    ):
        blocked = tmp_path / f"blocked_{argv[0]}_{name.replace('/', '_')}"
        (blocked / name).mkdir(parents=True)
        assert main([*argv, "--out", str(blocked)]) == EXIT_USAGE, name
        assert [p.name for p in blocked.iterdir()] == [name.split("/")[0]], name
        assert not any((blocked / name).iterdir()), name
    # an empty input path, which would name ".", or an empty --config: before
    # any work, whether a flag or a config file gives it
    empty_out = tmp_path / "empty_in"
    empty_manifest = tmp_path / "empty_manifest.cfg"
    empty_manifest.write_text("manifest =\n")
    for argv in (
        ["train", "--tiny", "--manifest", ""],
        ["train", "--tiny", "--config", str(empty_manifest)],
        ["eval", "--checkpoint", "", "--manifest", manifest],
        ["eval", "--checkpoint", checkpoint, "--manifest", ""],
        ["infer", "", "--checkpoint", checkpoint, "--mask", mask],
        ["infer", volume, "--checkpoint", "", "--mask", mask],
        ["infer", volume, "--checkpoint", checkpoint, "--mask", ""],
        ["mask", "--config", ""],
        ["train", "--tiny", "--manifest", manifest, "--config", ""],
    ):
        assert main([*argv, "--out", str(empty_out)]) == EXIT_USAGE, argv
        assert not empty_out.exists(), argv
    # train has no dims key: its extents are its data's, and an echo written
    # before the key went is refused by name
    with pytest.raises(SystemExit) as exc:
        main(["train", "--tiny", "--out", str(empty_out), "--manifest", manifest,
              "--dims", "16,16,2"])
    assert exc.value.code == EXIT_USAGE
    old_echo = tmp_path / "old_echo.cfg"
    old_echo.write_text(f"manifest = {manifest}\ndims = 16,16,2\ntiny = true\n")
    assert main(["train", "--config", str(old_echo), "--out", str(empty_out)]) == EXIT_USAGE
    assert "unknown config key 'dims'" in capsys.readouterr().err
    assert not empty_out.exists()
    # phantom extents out of range, before --out is created
    for dims in ("7,8,2", "32,32,1"):
        assert main(["dataset", "--out", str(tmp_path / "D"), "--dims", dims]) == EXIT_USAGE
        assert not (tmp_path / "D").exists(), dims


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_missing_file_errors(workspace, tmp_path):
    # train reads the manifest before its --out is made
    out = tmp_path / "train"
    assert main([
        "train", "--tiny", "--out", str(out), "--manifest", str(tmp_path / "none.txt"),
    ]) == EXIT_MISSING_FILE
    assert not out.exists()
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
    # a malformed manifest, one naming a malformed volume, or one whose k-space
    # slot names an image-domain volume: train's --out is not made
    image = workspace["data"] / "train_000.image.kvol"
    bad_manifest = tmp_path / "bad_manifest.txt"
    for text in (
        "nonsense\n",
        f"train image {junk}\ntrain kspace {junk}\n",
        f"train image {image}\ntrain kspace {image}\n",
    ):
        bad_manifest.write_text(text)
        out = tmp_path / "train"
        assert main([
            "train", "--tiny", "--out", str(out), "--manifest", str(bad_manifest),
            "--steps", "1",
        ]) == EXIT_FORMAT, text
        assert not out.exists(), text
    bad_mask = tmp_path / "bad.kmask"
    rows = b"1010101010101010\n" * 2
    for header in (b"KMASK v1 -4 2 4 0\n", b"KMASK v1 16 2 4 \xe9\n", b"KMASK v1 16 2 nan 0\n",
                   b"KMASK v1 16 2 4 -5\n"):
        bad_mask.write_bytes(header + rows)
        out = tmp_path / "recon"
        assert main([
            "infer", str(workspace["data"] / "test_000.kspace.kvol"), "--out", str(out),
            "--checkpoint", str(workspace["run"] / "checkpoint.kgin"), "--mask", str(bad_mask),
        ]) == EXIT_FORMAT, header
        assert not out.exists(), header
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
    # a first training volume whose header holds but whose payload does not:
    # train sizes the model from the header, then exits 4 at the payload
    short_kvol = tmp_path / "short.kvol"
    short_kvol.write_bytes(bytes(blob[:-4]))
    for volume in (nan_kvol, short_kvol):
        bad_manifest.write_text(f"train image {volume}\ntrain kspace {volume}\n")
        out = tmp_path / "train"
        assert main([
            "train", "--tiny", "--out", str(out), "--manifest", str(bad_manifest),
            "--steps", "1",
        ]) == EXIT_FORMAT, volume.name
        assert not out.exists(), volume.name
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
    # a refinement plane bit that no plane owns: eval writes nothing
    planes_at = 8 + 8 * 4  # magic, version, eight integers
    bad_ckpt.write_bytes(blob[:planes_at] + struct.pack("<I", 0b100111) + blob[planes_at + 4:])
    out = tmp_path / "scores"
    assert main([
        "eval", "--out", str(out), "--checkpoint", str(bad_ckpt),
        "--manifest", str(workspace["data"] / "manifest.txt"),
    ]) == EXIT_FORMAT
    assert not out.exists()


def test_eval_rejects_a_reference_that_is_not_an_image(workspace, tmp_path, capsys):
    """A manifest whose test image line names the k-space file: its volume
    would otherwise be scored as the ground-truth image."""
    kspace = workspace["data"] / "test_000.kspace.kvol"
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"test image {kspace}\ntest kspace {kspace}\n")
    out = tmp_path / "eval"
    assert main([
        "eval", "--out", str(out), "--checkpoint", str(workspace["run"] / "checkpoint.kgin"),
        "--manifest", str(manifest), "--R", "4",
    ]) == EXIT_FORMAT
    assert capsys.readouterr().err.startswith("error: format:")
    assert not (out / "report.csv").exists()


def test_unreadable_input_exits_missing_file(workspace, tmp_path, monkeypatch, capsys):
    """A permission error is reported like a missing input, not as a
    traceback.  Reading is refused by patching, since a root process can
    read a file whatever its mode."""
    manifest = workspace["data"] / "manifest.txt"
    read_text = Path.read_text

    def refuse_manifest(self, *args, **kwargs):
        if self == manifest:
            raise PermissionError(13, "Permission denied", str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refuse_manifest)
    assert main([
        "eval", "--out", str(tmp_path), "--checkpoint", str(workspace["run"] / "checkpoint.kgin"),
        "--manifest", str(manifest),
    ]) == EXIT_MISSING_FILE
    assert capsys.readouterr().err.startswith("error: missing-file:")


def test_dimension_errors(workspace, tmp_path):
    # the second training volume's extents disagree with the first's, which
    # set the model's; --out is not made
    mixed = tmp_path / "mixed"
    assert main(["dataset", "--out", str(mixed), "--dims", "16,16,4",
                 "--n-train", "1", "--n-test", "0"]) == EXIT_OK
    for kind in ("image", "kspace"):  # a 16x16x2 sequence that sorts first
        shutil.copy(workspace["data"] / f"train_000.{kind}.kvol", mixed / f"a.{kind}.kvol")
        with open(mixed / "manifest.txt", "a") as fh:
            fh.write(f"train {kind} a.{kind}.kvol\n")
    out = tmp_path / "train"
    assert main([
        "train", "--tiny", "--out", str(out), "--manifest", str(mixed / "manifest.txt"),
        "--steps", "1",
    ]) == EXIT_DIMENSION
    assert not out.exists()
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


# The exit-code contract: each exported error class, and each OS error the CLI
# reports as a missing file, with its exit code and stderr kind.
EXIT_CONTRACT = {
    kinterp.ConfigError: (EXIT_USAGE, "config"),
    kinterp.FormatError: (EXIT_FORMAT, "format"),
    kinterp.DomainError: (EXIT_FORMAT, "format"),
    kinterp.DimensionError: (EXIT_DIMENSION, "dimension"),
    kinterp.DegenerateInputError: (EXIT_RUNTIME, "runtime"),
    kinterp.TrainingError: (EXIT_RUNTIME, "runtime"),
    kinterp.KInterpError: (EXIT_RUNTIME, "runtime"),
    FileNotFoundError: (EXIT_MISSING_FILE, "missing-file"),
    PermissionError: (EXIT_MISSING_FILE, "missing-file"),
    IsADirectoryError: (EXIT_MISSING_FILE, "missing-file"),
    NotADirectoryError: (EXIT_MISSING_FILE, "missing-file"),
}


def test_every_error_maps_to_its_exit_code(tmp_path, monkeypatch, capsys):
    exported = {getattr(kinterp, name) for name in kinterp.__all__ if name != "__version__"}
    assert exported <= EXIT_CONTRACT.keys(), "every exported class needs a row"
    for exc_type, (code, kind) in EXIT_CONTRACT.items():
        def fail(*args, exc_type=exc_type):
            raise exc_type("probe")

        monkeypatch.setattr(cli, "generate_mask", fail)
        assert main(["mask", "--out", str(tmp_path / "m")]) == code, exc_type.__name__
        assert capsys.readouterr().err == f"error: {kind}: probe\n", exc_type.__name__
    assert not (tmp_path / "m").exists()


def test_error_messages_reach_stderr(tmp_path, capsys):
    assert main(["mask", "--out", str(tmp_path), "--dims", "16,16"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: config:")


# -------------------------------------------------------------- BLAS threads


def _child_env(**threads: str) -> dict[str, str]:
    """This environment without any BLAS thread variable, plus ``threads``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return {**env, **threads}


def test_cli_defaults_to_one_blas_thread():
    """Importing the CLI pins OpenBLAS to one thread unless a thread variable
    is set, read with the benchmark's lookup.  OpenBLAS caps a count at the
    cores it may use."""
    probe = (
        "import sys, kinterp.cli; "
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r}); "
        "from worker import blas_threads; print(blas_threads())"
    )
    two = min(2, len(os.sched_getaffinity(0)))
    for threads, expected in (
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, two),
        ({"OMP_NUM_THREADS": "2"}, two),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=_child_env(**threads),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        count = proc.stdout.split()[-1]
        if count == "None":
            pytest.skip("NumPy is not linked against OpenBLAS")
        assert int(count) == expected, threads


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """train and eval write the same bytes with one BLAS thread and with
    two: at 32x32x8, where every attention call is one chunk, and at
    16x32x16, where the ky-t plane and the decoder attend over 512 tokens
    in four chunks.  There a process that may use two CPUs runs each call's
    two head halves on two threads, and a third run, pinned to one CPU,
    runs them on one."""
    pinned = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
    for dims, runs in (
        ("32,32,8", [("1", ""), ("2", "")]),
        ("16,32,16", [("1", ""), ("2", ""), ("1", pinned)]),
    ):
        data = tmp_path / dims / "data"
        assert main(["dataset", "--out", str(data), "--dims", dims,
                     "--n-train", "2", "--n-test", "1", "--seed", "0"]) == EXIT_OK
        manifest = str(data / "manifest.txt")
        written = []
        for i, (threads, pin) in enumerate(runs):
            run, scores = tmp_path / dims / f"run{i}", tmp_path / dims / f"scores{i}"
            script = pin + (
                "from kinterp.cli import main; "
                f"assert main(['train', '--tiny', '--out', {str(run)!r}, '--manifest', {manifest!r}, "
                "'--steps', '10', '--seed', '0']) == 0; "
                f"assert main(['eval', '--out', {str(scores)!r}, '--manifest', {manifest!r}, "
                f"'--checkpoint', {str(run / 'checkpoint.kgin')!r}, '--R', '4,8']) == 0"
            )
            proc = subprocess.run(
                [sys.executable, "-c", script], env=_child_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            written.append([
                (run / "checkpoint.kgin").read_bytes(),
                (run / "loss_log.csv").read_bytes(),
                (scores / "report.csv").read_bytes(),
            ])
        assert all(w == written[0] for w in written[1:]), dims


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
