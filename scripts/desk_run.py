"""End-to-end desk-scale experiment: the README's command sequence, in process.

Runs ``kinterp dataset``, ``train --tiny``, ``eval --R 4,6,8``, ``mask`` and
``infer`` (on the first held-out sequence), each into its own subdirectory of
``--out`` with its own ``resolved_config.txt``, and prints each phase's wall
time.  Beside ``infer``'s frames it writes the reference and zero-filled
frames for eyeballing.  A failed phase ends the run with that command's exit
code, after the command's one-line ``error:`` message; an ``--n-test`` below
1, which ``eval`` would reject only after training, exits 2 before any phase.

    python3 scripts/desk_run.py --out /tmp/desk --steps 800 --n-train 16
"""

import argparse
import csv
import sys
import time
from pathlib import Path

# First, so the CLI's one-thread BLAS default is set before NumPy loads.
from kinterp import cli
from kinterp.kspace import read_volume
from kinterp.pipeline import write_pgm_frames, zero_filled
from kinterp.sampling import apply_mask, load_mask


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


def main(argv=None):
    args = parse_args(argv)
    if args.n_test < 1:  # eval would find no test sequence, after training in full
        print("error: config: --n-test must be at least 1: eval scores the test split",
              file=sys.stderr)
        return cli.EXIT_USAGE
    out = args.out
    manifest = out / "data" / "manifest.txt"
    checkpoint = out / "run" / "checkpoint.kgin"
    mask = out / "mask" / "mask.kmask"
    kspace = out / "data" / "test_000.kspace.kvol"
    phases = [
        ["dataset", "--out", out / "data", "--dims", args.dims, "--seed", args.seed,
         "--n-train", args.n_train, "--n-test", args.n_test],
        ["train", "--tiny", "--out", out / "run", "--manifest", manifest,
         "--steps", args.steps, "--R", args.r_train, "--seed", args.seed],
        ["eval", "--out", out / "scores", "--checkpoint", checkpoint,
         "--manifest", manifest, "--R", "4,6,8", "--seed", args.seed],
        ["mask", "--out", mask.parent, "--dims", args.dims, "--R", args.r_train,
         "--seed", args.seed + 99],
        ["infer", kspace, "--out", out / "recon", "--checkpoint", checkpoint,
         "--mask", mask],
    ]
    for number, phase in enumerate(phases, start=1):
        argv = [str(arg) for arg in phase]
        print(f"[{number}/{len(phases)}] kinterp {' '.join(argv)}")
        started = time.monotonic()
        code = cli.main(argv)
        print(f"      {argv[0]} took {time.monotonic() - started:.1f}s")
        if code != cli.EXIT_OK:
            return code

    with open(out / "run" / "loss_log.csv", newline="") as fh:
        totals = [float(row["total"]) for row in csv.DictReader(fh)]
    print(f"loss {totals[0]:.4f} -> {totals[-1]:.4f}")
    masked, _ = apply_mask(read_volume(kspace), load_mask(mask))
    write_pgm_frames(read_volume(out / "data" / "test_000.image.kvol"),
                     out / "recon" / "reference")
    write_pgm_frames(zero_filled(masked), out / "recon" / "zero_filled")
    print(f"wrote reference and zero-filled frames beside {out / 'recon' / 'frames'}")
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
