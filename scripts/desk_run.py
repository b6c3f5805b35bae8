"""End-to-end desk-scale experiment: phantoms -> training -> scoring -> frames.

Generates a small synthetic dataset, trains the tiny interpolation model at
R=4, scores it (and the zero-filled baseline) at R=4/6/8 on the held-out
split, reconstructs one test sequence, and exports PGM frames for eyeballing.

    python3 scripts/desk_run.py --out /tmp/desk --steps 800 --n-train 16
"""

import argparse
import sys
import time
from pathlib import Path

from kinterp.kspace import magnitude, read_volume
from kinterp.model import tiny_config
from kinterp.phantom import DatasetSpec, make_dataset
from kinterp.pipeline import (
    TrainConfig,
    evaluate,
    infer,
    load_manifest,
    train,
    write_pgm_frames,
    write_report_csv,
    zero_filled,
)
from kinterp.sampling import apply_mask, generate_mask, save_mask


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True, help="workspace directory")
    p.add_argument("--dims", default="32,32,8", help="volume extents X,Y,T")
    p.add_argument("--n-train", type=int, default=16)
    p.add_argument("--n-test", type=int, default=5)
    p.add_argument("--steps", type=int, default=800)
    p.add_argument("--r-train", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args(argv)


def print_elapsed(phase, started):
    print(f"      {phase} took {time.monotonic() - started:.1f}s")


def main(argv=None):
    args = parse_args(argv)
    x_dim, y_dim, t_dim = (int(v) for v in args.dims.split(","))
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    print(f"[1/4] dataset: {args.n_train} train / {args.n_test} test phantoms "
          f"at {x_dim}x{y_dim}x{t_dim}")
    started = time.monotonic()
    manifest = make_dataset(
        out / "data", args.n_train, args.n_test,
        DatasetSpec(x_dim, y_dim, t_dim), args.seed,
    )
    print_elapsed("dataset", started)

    print(f"[2/4] training: {args.steps} steps at R={args.r_train:g}")
    cfg = TrainConfig(
        model=tiny_config(x_dim, y_dim, t_dim),
        manifest=manifest,
        r_train=args.r_train,
        steps=args.steps,
        seed=args.seed,
        log_interval=max(1, args.steps // 100),
    )
    started = time.monotonic()
    result = train(cfg, out / "run")
    print_elapsed("training", started)
    first, last = result.losses[0][4], result.losses[-1][4]
    print(f"      loss {first:.4f} -> {last:.4f}")

    print("[3/4] scoring held-out sequences at R=4, 6, 8")
    started = time.monotonic()
    model_reports, baseline_reports = evaluate(
        result.checkpoint_path, manifest, [4.0, 6.0, 8.0], seed=args.seed
    )
    write_report_csv(model_reports, out / "report.csv")
    write_report_csv(baseline_reports, out / "baseline.csv")
    print_elapsed("scoring", started)
    for m_rep, b_rep in zip(model_reports, baseline_reports):
        m, b = m_rep.aggregate(), b_rep.aggregate()
        print(f"      R={m_rep.r_nominal:g}: model "
              f"psnr={m['psnr'][0]:.2f} ssim={m['ssim'][0]:.4f} "
              f"nmse={m['nmse'][0]:.5f} | zero-filled psnr={b['psnr'][0]:.2f}")

    print("[4/4] reconstructing one held-out sequence for visual frames")
    image_path, kspace_path = load_manifest(manifest)["test"][0]
    gt = read_volume(kspace_path)
    mask = generate_mask(y_dim, t_dim, args.r_train, args.seed + 99)
    save_mask(mask, out / "mask.kmask")
    masked, _ = apply_mask(gt, mask)
    recon = infer(result.checkpoint_path, masked, mask)
    write_pgm_frames(read_volume(image_path), out / "frames" / "reference")
    write_pgm_frames(zero_filled(masked), out / "frames" / "zero_filled")
    write_pgm_frames(recon.image, out / "frames" / "recon")
    peak = float(magnitude(recon.image).max())
    print(f"      wrote frames under {out / 'frames'} (recon peak {peak:.3f})")
    print(f"done: checkpoint {result.checkpoint_path}, reports in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
