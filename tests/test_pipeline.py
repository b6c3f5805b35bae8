"""Metrics against brute-force oracles, training loop contracts, inference
data-consistency, and evaluation report plumbing."""

import dataclasses
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from kinterp import numcore as nc
from kinterp import pipeline
from kinterp import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    TrainingError,
)
from kinterp.kspace import (
    DOMAIN_KSPACE,
    fft2,
    ifft2,
    magnitude,
    normalize,
    read_volume,
)
from kinterp.model import (
    PLANE_KX_T,
    KSpaceInterpolator,
    from_checkpoint,
    save_params,
    tiny_config,
    total_loss,
    volume_to_array,
)
from kinterp.numcore import OptimizerState, adam_step
from kinterp.phantom import DatasetSpec, PhantomSpec, generate, make_dataset
from kinterp.pipeline import (
    TrainConfig,
    evaluate,
    infer,
    load_manifest,
    nmse,
    psnr,
    ssim,
    train,
    write_pgm_frames,
    write_report_csv,
    zero_filled,
)
from kinterp.sampling import apply_mask, generate_mask

RNG = np.random.default_rng(21)


@pytest.fixture(scope="module")
def small_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("small_data")
    manifest = make_dataset(root, 2, 2, DatasetSpec(16, 16, 2), seed=0)
    return {"root": root, "manifest": manifest}


@pytest.fixture(scope="module")
def short_checkpoint(small_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("short_train")
    cfg = TrainConfig(
        model=tiny_config(16, 16, 2),
        manifest=small_root["manifest"],
        r_train=4.0,
        steps=3,
        seed=0,
    )
    return train(cfg, out)


# ------------------------------------------------------------------- metrics


def test_psnr_values():
    r = RNG.random((8, 8, 2))
    r[0, 0, 0] = 1.0  # pin the peak
    assert psnr(r, r) == np.inf
    e = r + 0.1
    assert abs(psnr(e, r) - 20.0) < 1e-9


def test_psnr_against_oracle():
    e = RNG.random((9, 9, 3))
    r = RNG.random((9, 9, 3))
    assert abs(psnr(e, r) - oracles.brute_psnr(e, r)) < 1e-9


def test_psnr_validation():
    with pytest.raises(DimensionError):
        psnr(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        psnr(np.zeros((0,)), np.zeros((0,)))
    with pytest.raises(DegenerateInputError):
        psnr(np.ones((2, 2)), np.zeros((2, 2)))


def test_nmse_values():
    r = RNG.random((8, 8, 2)) + 0.5
    assert nmse(r, r) == 0.0
    assert abs(nmse(2 * r, r) - 1.0) < 1e-12
    e = RNG.random((8, 8, 2))
    assert abs(nmse(e, r) - oracles.brute_nmse(e, r)) < 1e-12
    with pytest.raises(DegenerateInputError):
        nmse(np.ones((2, 2)), np.zeros((2, 2)))


def test_ssim_identical_is_one():
    r = RNG.random((10, 10, 2))
    assert abs(ssim(r, r) - 1.0) < 1e-12


def test_ssim_against_oracle():
    e = RNG.random((12, 11, 2))
    r = RNG.random((12, 11, 2))
    assert abs(ssim(e, r) - oracles.brute_ssim(e, r)) < 1e-9


@given(
    x=st.integers(7, 12),
    y=st.integers(7, 12),
    t=st.integers(1, 3),
    seed=st.integers(0, 2**31),
)
@example(x=7, y=7, t=1, seed=0)
@example(x=12, y=12, t=3, seed=1)
@example(x=7, y=12, t=2, seed=2)
def test_ssim_box_windows_match_brute_force(x, y, t, seed):
    rng = np.random.default_rng(seed)
    r = rng.random((x, y, t))
    e = r + 0.3 * rng.standard_normal((x, y, t))
    assert abs(ssim(e, r) - oracles.brute_ssim(e, r)) <= 1e-12


def test_ssim_constant_inputs():
    c = np.full((8, 8, 1), 3.0)
    assert ssim(c, c) == 1.0
    assert ssim(np.full((8, 8, 1), 5.0), c) == 1.0  # both constant
    with pytest.raises(DegenerateInputError):
        ssim(RNG.random((8, 8, 1)), c)


def test_ssim_penalizes_inversion():
    checker = np.indices((16, 16)).sum(axis=0) % 2
    r = np.repeat(checker[:, :, None], 2, axis=2).astype(np.float64)
    assert ssim(1.0 - r, r) < 0.5


def test_ssim_validation():
    with pytest.raises(DimensionError):
        ssim(np.zeros((6, 8, 1)), np.zeros((6, 8, 1)))  # under the window size
    with pytest.raises(DimensionError):
        ssim(np.zeros((8, 8)), np.zeros((8, 8)))


def test_zero_filled_full_mask_is_exact():
    image = generate(PhantomSpec(16, 16, 2, seed=1))
    k = fft2(image)
    zf = zero_filled(k)
    assert oracles.rel_err(magnitude(zf), magnitude(image)) < 1e-10


def test_zero_filled_undersampling_aliases():
    image = generate(PhantomSpec(32, 32, 4, seed=2))
    k = fft2(image)
    masked, _ = apply_mask(k, generate_mask(32, 4, 4.0, seed=0))
    zf = zero_filled(masked)
    assert nmse(magnitude(zf), magnitude(image)) > 0.01


# ----------------------------------------------------------------- manifests


def test_load_manifest(small_root):
    table = load_manifest(small_root["manifest"])
    assert sorted(table) == ["test", "train"]
    assert len(table["train"]) == 2 and len(table["test"]) == 2
    for image_path, kspace_path in table["train"] + table["test"]:
        assert image_path.exists() and kspace_path.exists()
        assert ".image." in image_path.name and ".kspace." in kspace_path.name
    stems = [p.name for p, _ in table["train"]]
    assert stems == sorted(stems)


def test_load_manifest_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_manifest(tmp_path / "missing.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("train image a.image.kvol extra\n")
    with pytest.raises(FormatError):
        load_manifest(bad)
    bad.write_text("valid image a.image.kvol\n")
    with pytest.raises(FormatError):
        load_manifest(bad)
    bad.write_text("train image a.image.kvol\n")  # kspace half missing
    with pytest.raises(FormatError):
        load_manifest(bad)
    bad.write_bytes(b"train image \xff.image.kvol\n")  # not UTF-8
    with pytest.raises(FormatError):
        load_manifest(bad)


def test_load_manifest_tolerates_blank_lines(small_root):
    text = small_root["manifest"].read_text()
    copy = small_root["root"] / "spaced.txt"
    copy.write_text("\n" + text.replace("\n", "\n\n"))
    assert load_manifest(copy) == load_manifest(small_root["manifest"])


# ------------------------------------------------------------------ training


def test_train_validation(small_root):
    good = TrainConfig(model=tiny_config(16, 16, 2), manifest=small_root["manifest"])
    with pytest.raises(ConfigError):
        train(TrainConfig(**{**good.__dict__, "steps": 0}), "unused")
    with pytest.raises(ConfigError):
        train(TrainConfig(**{**good.__dict__, "r_train": 1.0}), "unused")
    with pytest.raises(ConfigError, match="seed"):
        train(TrainConfig(**{**good.__dict__, "seed": -1}), "unused")


def test_train_checks_r_before_building(small_root, tmp_path, monkeypatch):
    def no_model(*args, **kwargs):
        raise AssertionError("the model was built before R was checked")

    monkeypatch.setattr(KSpaceInterpolator, "__init__", no_model)
    cfg = TrainConfig(
        model=tiny_config(32, 32, 2), manifest=small_root["manifest"], r_train=64.0
    )
    with pytest.raises(ConfigError):
        train(cfg, tmp_path / "out")


def test_train_requires_train_split(small_root, tmp_path):
    lines = small_root["manifest"].read_text().splitlines()
    test_only = tmp_path / "test_only.txt"
    test_only.write_text(
        "\n".join(l for l in lines if l.startswith("test ")) + "\n"
    )
    cfg = TrainConfig(model=tiny_config(16, 16, 2), manifest=test_only)
    with pytest.raises(FormatError):
        train(cfg, tmp_path / "out")


def test_train_rejects_dimension_mismatch(small_root, tmp_path):
    cfg = TrainConfig(model=tiny_config(16, 16, 4), manifest=small_root["manifest"])
    with pytest.raises(DimensionError):
        train(cfg, tmp_path / "out")


def test_train_outputs(short_checkpoint):
    result = short_checkpoint
    assert result.checkpoint_path.exists()
    assert result.log_path.exists()
    assert len(result.losses) == 3
    for step, lr, l1v, hdrv, totalv in result.losses:
        assert lr > 0
        assert np.isfinite([l1v, hdrv, totalv]).all()
        assert abs(totalv - (l1v + hdrv)) < 1e-6  # default hdr weight is 1
    lines = result.log_path.read_text().splitlines()
    assert lines[0] == "step,lr,l1,hdr,total"
    assert len(lines) == 1 + 3
    loaded = from_checkpoint(result.checkpoint_path)
    assert loaded.config == tiny_config(16, 16, 2)


def test_train_determinism(small_root, tmp_path):
    cfg = TrainConfig(
        model=tiny_config(16, 16, 2),
        manifest=small_root["manifest"],
        steps=1,
        seed=3,
    )
    a = train(cfg, tmp_path / "a")
    b = train(cfg, tmp_path / "b")
    assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()
    assert a.losses == b.losses


def test_adam_buffers_reach_every_holder_of_a_parameter(small_root):
    # ``train``'s step, plus a single-plane model that shares the parameter
    # tensors the way a benchmark replica swaps them between models.
    cfg = tiny_config(16, 16, 2)
    volume = read_volume(small_root["root"] / "train_000.kspace.kvol")
    with nc.use_mode("train"):
        model = KSpaceInterpolator(cfg, seed=0)
        single = KSpaceInterpolator(dataclasses.replace(cfg, kirm_planes=(PLANE_KX_T,)))
        single.params = {name: model.params[name] for name in single.params}
        params = model.parameters()
        state = OptimizerState()

        def step(seed):
            mask = generate_mask(16, 2, 4.0, seed)
            normed = normalize(apply_mask(volume, mask)[0])
            target = volume_to_array(volume) / (normed.scale / volume.scale)
            total, _, _ = total_loss(model.forward(normed, mask), target, 1.0, cfg.hdr_eps)
            total.backward()
            adam_step(params, [p.grad for _, p in params], state, 1e-3)
            model.zero_grads()

        shared = model.params[f"kirm.{PLANE_KX_T}.proj_in.w"]
        initial = shared.data.copy()
        for seed in range(3):
            step(seed)
    holders = [p for _, p in params] + list(single.params.values())
    assert all(np.shares_memory(p.data, state.params) for p in holders)
    assert not np.array_equal(shared.data, initial)

    # A rebound ``.data`` is copied into the buffer and updated from there.
    rebound = shared.data + 10.0
    shared.data = rebound.copy()
    with nc.use_mode("train"):
        step(3)
    assert np.shares_memory(shared.data, state.params)
    # One step moves an entry by a few lr at most; the stale values are 10 away.
    assert not np.array_equal(shared.data, rebound)
    assert np.abs(shared.data - rebound).max() < 1e-2


def test_train_rejects_non_finite_loss(small_root, tmp_path, monkeypatch):
    # Ops do not scan their outputs; the loss check in the loop is the boundary
    # that turns a forward gone non-finite into a TrainingError.
    original = pipeline.total_loss

    def overflowing(*args, **kwargs):
        total, l1v, hdrv = original(*args, **kwargs)
        with np.errstate(over="ignore"):
            return total * 1e30 * 1e30, l1v, hdrv  # finite factors, float32 inf

    monkeypatch.setattr(pipeline, "total_loss", overflowing)
    cfg = TrainConfig(
        model=tiny_config(16, 16, 2), manifest=small_root["manifest"], steps=1
    )
    with pytest.raises(TrainingError, match="non-finite loss at step 0"):
        train(cfg, tmp_path / "out")


def test_train_reads_only_train_kspace(small_root, tmp_path, monkeypatch):
    seen = []
    original = pipeline.read_volume

    def spy(path):
        seen.append(str(path))
        return original(path)

    monkeypatch.setattr(pipeline, "read_volume", spy)
    cfg = TrainConfig(
        model=tiny_config(16, 16, 2), manifest=small_root["manifest"], steps=1
    )
    train(cfg, tmp_path / "out")
    assert seen, "training must read its volumes through read_volume"
    for path in seen:
        assert "train_" in path and ".kspace." in path
        assert "test_" not in path


# ----------------------------------------------------------------- inference


def test_infer_full_mask_recovers_reference():
    image = generate(PhantomSpec(16, 16, 2, seed=5))
    k = fft2(image)
    model = KSpaceInterpolator(tiny_config(16, 16, 2), seed=0)
    mask = pipeline.SamplingMask(np.ones((16, 2)), 1.0)
    recon = infer(model, k, mask)
    assert oracles.rel_err(recon.image.re, image.re) < 1e-12
    assert oracles.rel_err(recon.image.im, image.im) < 1e-12
    assert recon.image.scale == 1.0


def test_infer_enforces_data_consistency_bitwise():
    image = generate(PhantomSpec(16, 16, 2, seed=6))
    k = fft2(image)
    mask = generate_mask(16, 2, 4.0, seed=1)
    model = KSpaceInterpolator(tiny_config(16, 16, 2), seed=0)
    recon = infer(model, k, mask)
    masked, _ = apply_mask(k, mask)
    normed = normalize(masked)
    keep = mask.bits.astype(bool)
    assert np.array_equal(recon.kspace_consistent.re[:, keep], normed.re[:, keep])
    assert np.array_equal(recon.kspace_consistent.im[:, keep], normed.im[:, keep])
    # unsampled columns come from the network, and at least some must differ
    assert not np.array_equal(recon.kspace_estimate.re, normed.re)
    assert recon.scale == pytest.approx(normed.scale)


def test_infer_accepts_checkpoint_path(short_checkpoint):
    image = generate(PhantomSpec(16, 16, 2, seed=7))
    k = fft2(image)
    mask = generate_mask(16, 2, 4.0, seed=2)
    path = short_checkpoint.checkpoint_path
    a = infer(path, k, mask)
    b = infer(from_checkpoint(path), k, mask)
    assert np.array_equal(a.image.re, b.image.re)
    assert np.array_equal(a.image.im, b.image.im)


def test_infer_rejects_dimension_mismatch():
    model = KSpaceInterpolator(tiny_config(16, 16, 2), seed=0)
    v = oracles.xyt_volume(
        np.zeros((16, 16, 4)), np.zeros((16, 16, 4)), DOMAIN_KSPACE
    )
    with pytest.raises(DimensionError):
        infer(model, v, generate_mask(16, 4, 4.0, seed=0))


# ---------------------------------------------------------------- evaluation


def test_evaluate_reports(short_checkpoint, small_root):
    model_reports, baseline_reports = evaluate(
        short_checkpoint.checkpoint_path,
        small_root["manifest"],
        r_values=[2.0, 4.0],
        seed=0,
    )
    assert [r.r_nominal for r in model_reports] == [2.0, 4.0]
    for report in model_reports:
        assert len(report.rows) == 2  # one per test sequence
        agg = report.aggregate()
        assert set(agg) == {"nmse", "ssim", "psnr"}
        for row in report.rows:
            assert row.sequence.startswith("test_")
            assert 0 <= row.ssim <= 1
            assert row.nmse >= 0
    assert [len(report.rows) for report in baseline_reports] == [2, 2]


def test_evaluate_determinism(short_checkpoint, small_root):
    a, _ = evaluate(
        short_checkpoint.checkpoint_path, small_root["manifest"], [4.0], seed=1
    )
    b, _ = evaluate(
        short_checkpoint.checkpoint_path, small_root["manifest"], [4.0], seed=1
    )
    assert [r.psnr for r in a[0].rows] == [r.psnr for r in b[0].rows]


def test_baseline_degrades_with_acceleration(short_checkpoint, small_root):
    _, baselines = evaluate(
        short_checkpoint.checkpoint_path,
        small_root["manifest"],
        r_values=[2.0, 4.0, 8.0],
        seed=0,
    )
    means = [b.aggregate()["nmse"][0] for b in baselines]
    assert means[0] < means[1] < means[2]


def test_evaluate_validation(short_checkpoint, small_root, tmp_path):
    with pytest.raises(ConfigError):
        evaluate(short_checkpoint.checkpoint_path, small_root["manifest"], [])
    lines = small_root["manifest"].read_text().splitlines()
    train_only = tmp_path / "train_only.txt"
    train_only.write_text(
        "\n".join(l for l in lines if l.startswith("train ")) + "\n"
    )
    with pytest.raises(FormatError):
        evaluate(short_checkpoint.checkpoint_path, train_only, [4.0])


def test_evaluate_rows_equal_the_public_metrics_bitwise(short_checkpoint, small_root):
    """Every row equals nmse/ssim/psnr on magnitudes recomputed pair by pair."""
    r_values = [2.0, 4.0]
    seed = 3
    model_reports, baseline_reports = evaluate(
        short_checkpoint.checkpoint_path, small_root["manifest"], r_values, seed=seed
    )
    model = from_checkpoint(short_checkpoint.checkpoint_path)
    pairs = load_manifest(small_root["manifest"])["test"]
    for r_index, r in enumerate(r_values):
        for seq_index, (image_path, kspace_path) in enumerate(pairs):
            ref_mag = magnitude(read_volume(image_path))
            gt_kspace = read_volume(kspace_path)
            mask = generate_mask(
                gt_kspace.y_dim, gt_kspace.t_dim, r,
                pipeline._mask_seed(seed, 2 + r_index, seq_index),
            )
            masked, _ = apply_mask(gt_kspace, mask)
            for reports, estimate in (
                (model_reports, infer(model, masked, mask).image),
                (baseline_reports, zero_filled(masked)),
            ):
                mag = magnitude(estimate)
                row = reports[r_index].rows[seq_index]
                assert row.sequence == image_path.name.replace(".image.kvol", "")
                assert (row.nmse, row.ssim, row.psnr) == (
                    nmse(mag, ref_mag), ssim(mag, ref_mag), psnr(mag, ref_mag)
                )


def test_evaluate_reads_each_volume_once(short_checkpoint, small_root, monkeypatch):
    reads = []
    original = pipeline.read_volume

    def spy(path):
        reads.append(path)
        return original(path)

    monkeypatch.setattr(pipeline, "read_volume", spy)
    evaluate(short_checkpoint.checkpoint_path, small_root["manifest"], [2.0, 4.0, 8.0])
    n_test = len(load_manifest(small_root["manifest"])["test"])
    assert len(reads) == 2 * n_test
    assert len(set(reads)) == 2 * n_test


def test_evaluate_checks_every_r_before_any_forward(short_checkpoint, small_root, monkeypatch):
    def no_forward(*args, **kwargs):
        raise AssertionError("a forward ran before every R was checked")

    monkeypatch.setattr(pipeline, "infer", no_forward)
    for bad in (64.0, 1.0, float("nan")):  # Y = 16: above Y, not above 1, not a number
        with pytest.raises(ConfigError):
            evaluate(short_checkpoint.checkpoint_path, small_root["manifest"], [4.0, bad])


def test_write_report_csv(short_checkpoint, small_root, tmp_path):
    reports, _ = evaluate(
        short_checkpoint.checkpoint_path, small_root["manifest"], [2.0, 4.0], seed=0
    )
    path = tmp_path / "report.csv"
    write_report_csv(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "R,sequence,nmse,ssim,psnr"
    assert len(lines) == 1 + 2 * 2 + 2  # per-sequence rows plus aggregates
    assert sum(",aggregate," in line for line in lines) == 2
    assert "+-" in lines[-1]


# -------------------------------------------------------------- frame export


def test_write_pgm_frames(tmp_path):
    image = generate(PhantomSpec(16, 8, 2, seed=8))
    paths = write_pgm_frames(image, tmp_path)
    assert [p.name for p in paths] == ["frame_000.pgm", "frame_001.pgm"]
    blob = paths[0].read_bytes()
    header = b"P5\n16 8\n255\n"
    assert blob.startswith(header)
    raster = np.frombuffer(blob[len(header):], dtype=np.uint8)
    assert raster.size == 16 * 8
    assert raster.max() == 255 and raster.min() == 0


def test_write_pgm_constant_frame(tmp_path):
    v = oracles.xyt_volume(
        np.full((8, 8, 1), 2.0), np.zeros((8, 8, 1)), DOMAIN_KSPACE
    )
    paths = write_pgm_frames(v, tmp_path)
    blob = paths[0].read_bytes()
    assert set(blob[len(b"P5\n8 8\n255\n"):]) == {0}


# ------------------------------------------------------------ desk script


def _desk_run():
    script = Path(__file__).resolve().parents[1] / "scripts" / "desk_run.py"
    spec = importlib.util.spec_from_file_location("desk_run", script)
    desk_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(desk_run)
    return desk_run


def test_desk_run_smoke(tmp_path, capsys):
    desk_run = _desk_run()
    out = tmp_path / "desk"
    assert desk_run.main([
        "--out", str(out), "--dims", "16,16,2",
        "--n-train", "1", "--n-test", "1", "--steps", "2",
    ]) == 0
    phases = {"dataset": "data", "train": "run", "eval": "scores", "mask": "mask",
              "infer": "recon"}
    assert sorted(p.name for p in out.iterdir()) == sorted(phases.values())
    for directory in phases.values():
        assert (out / directory / "resolved_config.txt").is_file(), directory
    for name in ("scores/report.csv", "scores/baseline.csv", "mask/mask.kmask"):
        assert (out / name).is_file(), name
    for name in ("frames", "reference", "zero_filled"):
        assert len(list((out / "recon" / name).glob("*.pgm"))) == 2, name
    printed = capsys.readouterr().out
    for phase in phases:  # one wall-time line per phase
        found = re.findall(rf"^ +{phase} took \d+\.\ds$", printed, re.MULTILINE)
        assert len(found) == 1, phase
    assert re.search(r"^loss \d+\.\d{4} -> \d+\.\d{4}$", printed, re.MULTILINE)
    # A failed phase ends the run with its command's exit code and message.
    failed = tmp_path / "failed"
    assert desk_run.main(["--out", str(failed), "--dims", "7,7,2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: config: phantom needs X, Y >= 8 and T >= 2\n"
    assert "[2/5]" not in captured.out
    assert not failed.exists()


def test_desk_run_without_a_test_split_fails_before_any_phase(tmp_path, capsys):
    """``eval`` needs a test sequence, so the run stops before training."""
    desk_run = _desk_run()
    out = tmp_path / "desk"
    for n_test in ("0", "-1"):
        assert desk_run.main(["--out", str(out), "--n-test", n_test, "--steps", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: config: --n-test must be at least 1: eval scores the test split\n"
        )
        assert captured.out == ""
        assert not out.exists()
