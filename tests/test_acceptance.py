"""The eight acceptance gates.

Each test records a PASS/FAIL verdict that conftest echoes after the pytest
summary, so a full run ends with one line per criterion.  Criteria 5 and 6
share the session-scoped training fixtures; criterion 8 shells out to the
installed CLI twice and compares artifacts byte for byte.
"""

import functools
import subprocess
import sys
import time

import numpy as np
import pytest

import conftest
import oracles
from kinterp import numcore as nc
from kinterp.kspace import fft2, magnitude, normalize, read_volume
from kinterp.model import (
    ALL_PLANES,
    KSpaceInterpolator,
    ModelConfig,
    hdr_loss,
    tiny_config,
    total_loss,
)
from kinterp.numcore import Tensor
from kinterp.phantom import PhantomSpec, generate
from kinterp.pipeline import evaluate, infer, nmse, psnr, ssim, zero_filled
from kinterp.sampling import (
    SamplingMask,
    apply_mask,
    center_band,
    data_consistency,
    generate_mask,
)

RNG = np.random.default_rng(777)


def records(number: int, description: str):
    """Append a PASS/FAIL line for the terminal summary, then let pytest see
    the original outcome."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_LINES.append((number, description, "FAIL"))
                raise
            conftest.ACCEPTANCE_LINES.append((number, description, "PASS"))

        return inner

    return wrap


def _grad_matches_fd(build, *arrays, tol):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    build(*tensors).backward()
    for i, t in enumerate(tensors):

        def scalar(x, i=i):
            args = [Tensor(a.copy()) for a in arrays]
            args[i] = Tensor(x)
            return build(*args).item()

        fd = oracles.fd_gradient(scalar, arrays[i])
        assert oracles.rel_err(t.grad, fd) < tol, f"operand {i}"


def _with_attention_block(block, build):
    """``build`` run with ``nc.ATTENTION_BLOCK`` set to ``block``; the chunk
    layout is fixed in the forward pass, so backward needs no patch."""

    def inner(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nc, "ATTENTION_BLOCK", block)
            return build(*args)

    return inner


def _recon_vs_zero_filled_psnr(checkpoint, image_path, kspace_path, r, mask_seed):
    reference = read_volume(image_path)
    gt = read_volume(kspace_path)
    mask = generate_mask(gt.y_dim, gt.t_dim, r, mask_seed)
    masked, _ = apply_mask(gt, mask)
    with nc.use_mode("train"):  # the precision `kinterp infer` runs at
        recon = infer(checkpoint, masked, mask)
    ref_mag = magnitude(reference)
    return (
        psnr(magnitude(recon.image), ref_mag),
        psnr(magnitude(zero_filled(masked)), ref_mag),
    )


@records(1, "autodiff matches finite differences")
def test_criterion_1_gradient_suite():
    started = time.monotonic()

    # -- every differentiable op against the FD oracle (rel 1e-4)
    rows = np.arange(5)
    RNG.shuffle(rows)
    row_table = rows[:, None] * 3 + np.arange(3)  # whole rows of a 5 x 3 operand
    # keep |.| inputs away from the kink at zero
    safe = RNG.uniform(0.2, 1.0, size=(4, 3)) * RNG.choice([-1.0, 1.0], size=(4, 3))
    draw = lambda *shape: RNG.normal(size=shape)
    # The fused ops draw from their own stream, so every other check here
    # keeps the inputs it had before they joined the table.
    fused_rng = np.random.default_rng(778)
    fused_draw = lambda *shape: fused_rng.normal(size=shape)
    chunked_rng = np.random.default_rng(779)
    chunked_draw = lambda *shape: chunked_rng.normal(size=shape)
    gather_rng = np.random.default_rng(780)
    # every entry of a 2 x 4 operand once, then entry 3 twice more
    gather_index = np.concatenate([gather_rng.permutation(8), [3, 3]]).reshape(2, 5)
    permute_rng = np.random.default_rng(781)
    permute_index = permute_rng.permutation(8).reshape(4, 2)
    permute_inverse = np.argsort(permute_index, axis=None).reshape(2, 4)
    per_op = {
        "add": (lambda a, b: nc.mean_all((a + b) * (a + b)), [draw(3, 4), draw(4)]),
        "sub": (lambda a, b: nc.mean_all((a - b) * (a - b)), [draw(3, 4), draw(3, 4)]),
        "mul": (lambda a, b: nc.mean_all(a * b * a), [draw(2, 5), draw(2, 5)]),
        # matmul, transpose and softmax_lastaxis are the oracles' copies: they
        # build the unfused references the fused linear and attention meet.
        "matmul": (
            lambda a, b: nc.mean_all(oracles.matmul(a, b) * oracles.matmul(a, b)),
            [draw(3, 4), draw(4, 2)],
        ),
        "transpose": (
            lambda a: nc.mean_all(oracles.matmul(oracles.transpose(a, (1, 0)), a)),
            [draw(4, 3)],
        ),
        "reshape": (lambda a: nc.mean_all(nc.reshape(a, (2, 6)) * 2.0), [draw(3, 4)]),
        "concat_rows": (
            lambda a, b: nc.mean_all(nc.concat_rows([a, b]) * nc.concat_rows([a, b])),
            [draw(2, 3), draw(4, 3)],
        ),
        "gather (rows)": (
            lambda a: nc.mean_all(nc.gather(a, row_table) * nc.gather(a, row_table)),
            [draw(5, 3)],
        ),
        "gather": (
            lambda a, w: nc.mean_all(nc.gather(a, gather_index) * w),
            [gather_rng.normal(size=(2, 4)), gather_rng.normal(size=(2, 5))],
        ),
        "permute": (
            lambda a, w: nc.mean_all(nc.permute(a, permute_index, permute_inverse) * w),
            [permute_rng.normal(size=(2, 4)), permute_rng.normal(size=(4, 2))],
        ),
        "gelu": (lambda a: nc.mean_all(nc.gelu(a) * nc.gelu(a)), [draw(4, 4)]),
        "layernorm": (
            lambda a, g, b: nc.mean_all(nc.layernorm(a, g, b) * nc.layernorm(a, g, b)),
            [draw(3, 6), draw(6), draw(6)],
        ),
        "softmax_lastaxis": (
            lambda a, w: nc.mean_all(oracles.softmax_lastaxis(a) * w),
            [draw(3, 5), draw(3, 5)],
        ),
        "linear": (
            lambda x, w, b: nc.mean_all(nc.linear(x, w, b) * nc.linear(x, w, b)),
            [fused_draw(3, 4), fused_draw(4, 2), fused_draw(2)],
        ),
        "attention": (
            lambda q, k, v, w: nc.mean_all(nc.attention(q, k, v, 2) * w),
            [fused_draw(5, 4), fused_draw(5, 4), fused_draw(5, 4), fused_draw(5, 4)],
        ),
        # 2 heads x 7 rows: chunks of 2 + 2 + 2 + 1 query rows, only the
        # first kept by the 28-entry block, the rest recomputed in backward
        "attention (chunked)": (
            _with_attention_block(
                28, lambda q, k, v, w: nc.mean_all(nc.attention(q, k, v, 2) * w)
            ),
            [chunked_draw(7, 4) for _ in range(4)],
        ),
        "abs": (lambda a: nc.mean_all(nc.abs_(a) * nc.abs_(a)), [safe]),
        "mean_all": (lambda a: nc.mean_all(a * a), [draw(7)]),
    }
    for name, (build, arrays) in per_op.items():
        _grad_matches_fd(build, *arrays, tol=1e-4)

    # -- HDR stop-gradient: frozen-vs-unfrozen denominator oracle
    base = RNG.uniform(0.5, 1.5, size=(2, 4))
    target = RNG.uniform(-0.5, 0.5, size=(2, 4))
    stage = Tensor(base.copy(), requires_grad=True)
    hdr_loss([stage], target, eps=0.5).backward()
    frozen = oracles.hdr_denominators([Tensor(base)], eps=0.5)
    frozen_at = lambda x: oracles.frozen_hdr_loss([Tensor(x)], target, frozen).item()
    assert frozen_at(base) == hdr_loss([Tensor(base)], target, 0.5).item()
    fd_frozen = oracles.fd_gradient(frozen_at, base)
    fd_live = oracles.fd_gradient(
        lambda x: hdr_loss([Tensor(x)], target, 0.5).item(), base
    )
    assert oracles.rel_err(stage.grad, fd_frozen) < 1e-6
    assert oracles.rel_err(stage.grad, fd_live) > 1e-3

    # -- end-to-end total_loss on a tiny model (rel 1e-3)
    cfg = ModelConfig(4, 4, 2, embed_dim=8, n_heads=2, n_layers=1, mlp_ratio=2)
    model = KSpaceInterpolator(cfg, seed=11)
    rng = np.random.default_rng(12)
    for plane in cfg.kirm_planes:
        w = model.params[f"kirm.{plane}.proj_out.w"]
        w.data = rng.normal(0, 0.05, size=w.data.shape)
    bits = np.zeros((4, 2))
    bits[[0, 2], 0] = 1
    bits[[1, 3], 1] = 1
    mask = SamplingMask(bits, 2.0)
    from kinterp.kspace import DOMAIN_KSPACE

    v = oracles.xyt_volume(
        rng.standard_normal((4, 4, 2)), rng.standard_normal((4, 4, 2)), DOMAIN_KSPACE
    )
    target4 = rng.standard_normal((2, 4, 4, 2))
    result = model.forward(v, mask)
    denoms = oracles.hdr_denominators(result.stages, eps=cfg.hdr_eps)
    total, _, _ = total_loss(result, target4, 1.0, cfg.hdr_eps)
    assert oracles.frozen_total_loss(result, target4, 1.0, denoms).item() == total.item()
    total.backward()
    for name, p in model.parameters():
        assert p.grad is not None, name
        base_data = p.data.copy()
        for i in sorted({0, base_data.size - 1}):

            def objective(value):
                p.data = base_data.copy()
                p.data.reshape(-1)[i] = value
                res = model.forward(v, mask)
                return oracles.frozen_total_loss(res, target4, 1.0, denoms).item()

            x0 = base_data.reshape(-1)[i]
            fd = (objective(x0 + 1e-6) - objective(x0 - 1e-6)) / 2e-6
            ad = p.grad.reshape(-1)[i]
            assert abs(ad - fd) < 1e-6 + 1e-3 * abs(fd), f"{name}[{i}]"
        p.data = base_data

    assert time.monotonic() - started < 60.0


@records(2, "fft and metric oracles")
def test_criterion_2_oracles():
    started = time.monotonic()
    from kinterp.kspace import DOMAIN_IMAGE

    v = oracles.xyt_volume(
        RNG.standard_normal((8, 8, 1)), RNG.standard_normal((8, 8, 1)), DOMAIN_IMAGE
    )
    k = fft2(v)
    got = k.re + 1j * k.im
    want = oracles.direct_dft2(v.re + 1j * v.im)
    assert oracles.rel_err(got.real, want.real) < 1e-9
    assert oracles.rel_err(got.imag, want.imag) < 1e-9

    e = RNG.random((9, 9, 2))
    r = RNG.random((9, 9, 2))
    assert abs(psnr(e, r) - oracles.brute_psnr(e, r)) < 1e-6
    assert abs(nmse(e, r) - oracles.brute_nmse(e, r)) < 1e-6
    assert abs(ssim(e, r) - oracles.brute_ssim(e, r)) < 1e-6
    assert time.monotonic() - started < 10.0


@records(3, "data consistency bit-exact")
def test_criterion_3_data_consistency():
    started = time.monotonic()
    model = KSpaceInterpolator(tiny_config(16, 16, 4), seed=0)
    rng = np.random.default_rng(0)
    for trial in range(20):
        r = float(rng.choice([2.0, 3.0, 4.0, 6.0, 8.0]))
        seed = int(rng.integers(2**31))
        image = generate(PhantomSpec(16, 16, 4, seed=seed % 997))
        gt = fft2(image)
        mask = generate_mask(16, 4, r, seed)
        masked, _ = apply_mask(gt, mask)
        recon = infer(model, masked, mask)
        normed = normalize(masked)
        keep = mask.bits.astype(bool)
        assert np.array_equal(
            recon.kspace_consistent.re[:, keep], normed.re[:, keep]
        ), f"trial {trial} (R={r}, seed={seed})"
        assert np.array_equal(
            recon.kspace_consistent.im[:, keep], normed.im[:, keep]
        )
        again = data_consistency(recon.kspace_consistent, normed, mask)
        assert np.array_equal(again.re, recon.kspace_consistent.re)
        assert np.array_equal(again.im, recon.kspace_consistent.im)
    assert time.monotonic() - started < 30.0


@records(4, "mask line budget")
def test_criterion_4_mask_properties():
    started = time.monotonic()
    y_dim, t_dim = 32, 8
    band = center_band(y_dim)
    for r in (4.0, 6.0, 8.0):
        for seed in range(50):
            mask = generate_mask(y_dim, t_dim, r, seed)
            per_frame = mask.bits.sum(axis=0)
            assert np.all(per_frame == round(y_dim / r))
            assert np.all(np.abs(per_frame / y_dim - 1.0 / r) <= 1.0 / y_dim + 1e-12)
            assert np.all(mask.bits[band, :] == 1)
    assert time.monotonic() - started < 5.0


@records(5, "single-sequence overfit")
def test_criterion_5_overfit(overfit_run, dataset_manifests):
    result = overfit_run["result"]
    assert result.duration_seconds < 300.0
    first_total = result.losses[0][4]
    last_total = result.losses[-1][4]
    assert last_total < 0.5 * first_total, (
        f"loss only reached {last_total / first_total:.3f} of its start"
    )
    root = dataset_manifests["root"]
    model_psnr, zf_psnr = _recon_vs_zero_filled_psnr(
        result.checkpoint_path,
        root / "train_000.image.kvol",
        root / "train_000.kspace.kvol",
        r=4.0,
        mask_seed=3,
    )
    assert model_psnr >= zf_psnr + 3.0, (
        f"model {model_psnr:.2f} dB vs zero-filled {zf_psnr:.2f} dB"
    )


@records(6, "held-out gain at R=4,6,8")
def test_criterion_6_variable_r_generalization(generalize_run, dataset_manifests):
    result = generalize_run["result"]
    with nc.use_mode("train"):  # the precision `kinterp eval` runs at
        model_reports, baseline_reports = evaluate(
            result.checkpoint_path,
            dataset_manifests["full"],
            r_values=[4.0, 6.0, 8.0],
            seed=0,
        )
    for model_rep, base_rep in zip(model_reports, baseline_reports):
        assert len(model_rep.rows) == 5
        mean_model = model_rep.aggregate()["psnr"][0]
        mean_base = base_rep.aggregate()["psnr"][0]
        assert mean_model > mean_base, (
            f"R={model_rep.r_nominal:g}: model {mean_model:.2f} dB "
            f"vs zero-filled {mean_base:.2f} dB"
        )
        for m_row, b_row in zip(model_rep.rows, base_rep.rows):
            assert m_row.psnr > b_row.psnr, (
                f"R={model_rep.r_nominal:g} {m_row.sequence}: "
                f"{m_row.psnr:.2f} vs {b_row.psnr:.2f}"
            )


@records(7, "zero-residual refinement init")
def test_criterion_7_zero_residual_init():
    started = time.monotonic()
    from kinterp.kspace import DOMAIN_KSPACE

    rng = np.random.default_rng(5)
    v = oracles.xyt_volume(
        rng.standard_normal((16, 16, 2)), rng.standard_normal((16, 16, 2)), DOMAIN_KSPACE
    )
    mask = generate_mask(16, 2, 4.0, seed=0)

    fresh = KSpaceInterpolator(tiny_config(16, 16, 2), seed=0)
    result = fresh.forward(v, mask)
    for stage in result.stages:
        assert np.array_equal(stage.data, result.interpolated.data)

    subsets = [
        (),
        ("ky-t",),
        ("kx-t",),
        ("kx-ky",),
        ("ky-t", "kx-ky"),
        ALL_PLANES,
    ]
    for planes in subsets:
        cfg = tiny_config(16, 16, 2, kirm_planes=planes)
        model = KSpaceInterpolator(cfg, seed=1)
        for plane in planes:  # make enabled corrections visibly nonzero
            w = model.params[f"kirm.{plane}.proj_out.w"]
            w.data = rng.normal(0, 0.1, size=w.data.shape)
        res = model.forward(v, mask)
        previous = res.interpolated
        for plane, stage in zip(ALL_PLANES, res.stages):
            if plane in planes:
                assert not np.array_equal(stage.data, previous.data), (planes, plane)
            else:
                assert np.array_equal(stage.data, previous.data), (planes, plane)
            previous = stage
    assert time.monotonic() - started < 10.0


@records(8, "bitwise reproducible CLI runs")
def test_criterion_8_cli_reproducibility(tmp_path):
    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "kinterp", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    data = tmp_path / "data"
    cli(
        "dataset", "--out", str(data), "--dims", "16,16,2",
        "--n-train", "2", "--n-test", "1", "--seed", "0",
    )
    manifest = str(data / "manifest.txt")
    runs = []
    for label in ("a", "b"):
        out = tmp_path / f"train_{label}"
        cli(
            "train", "--tiny", "--out", str(out), "--manifest", manifest,
            "--steps", "25", "--seed", "0",
        )
        runs.append(out)
    ckpt_a, ckpt_b = (run / "checkpoint.kgin" for run in runs)
    assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
    assert (runs[0] / "loss_log.csv").read_text() == (
        runs[1] / "loss_log.csv"
    ).read_text()

    evals = []
    for label in ("a", "b"):
        out = tmp_path / f"eval_{label}"
        cli(
            "eval", "--out", str(out), "--checkpoint", str(ckpt_a),
            "--manifest", manifest, "--R", "2,4", "--seed", "0",
        )
        evals.append(out)
    assert (evals[0] / "report.csv").read_text() == (evals[1] / "report.csv").read_text()
    assert (evals[0] / "baseline.csv").read_text() == (
        evals[1] / "baseline.csv"
    ).read_text()
