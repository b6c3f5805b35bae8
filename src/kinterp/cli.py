"""Command-line entry point: dataset, mask, train, infer, eval subcommands.

Every option can also come from a flat ``key = value`` config file passed via
``--config``; explicit flags win over file values, unknown keys are rejected
by name, and the fully resolved configuration is echoed into the output
directory so any run can be repeated exactly.  One table per subcommand gives
its keys, flags, and echo order; model and training defaults come only from
the ``tiny_config``/``full_config`` presets and ``TrainConfig``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import (
    CheckpointError,
    ConfigError,
    DimensionError,
    DomainError,
    FormatError,
    KInterpError,
    SpecError,
)
from .kspace import read_volume, write_volume
from .model import ModelConfig, full_config, tiny_config
from .phantom import DatasetSpec, make_dataset
from .pipeline import (
    TrainConfig,
    evaluate,
    infer,
    load_manifest,
    train,
    write_pgm_frames,
    write_report_csv,
)
from .sampling import generate_mask, load_mask, save_mask

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_FORMAT = 4
EXIT_DIMENSION = 5


def _parse_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: config file is not UTF-8 text") from exc
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{p}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"{p}:{lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        values[key] = raw.strip()
    return values


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _cast_bool(raw: str) -> bool:
    lowered = str(raw).strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _cast_dims(raw: str) -> tuple[int, int, int]:
    parts = str(raw).split(",")
    if len(parts) != 3:
        raise ConfigError(f"dims must be 'X,Y,T', got {raw!r}")
    try:
        x, y, t = (int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"dims must be integers, got {raw!r}") from exc
    return x, y, t


def _cast_r_list(raw: str) -> list[float]:
    try:
        values = [float(p) for p in str(raw).split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad acceleration list {raw!r}") from exc
    if not values:
        raise ConfigError("acceleration list is empty")
    return values


def _cast_planes(raw: str) -> tuple[str, ...]:
    """Split the list; ``ModelConfig`` checks the names."""
    return tuple(p.strip() for p in str(raw).split(",") if p.strip())


def _cast_int(raw) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"expected an integer, got {raw!r}") from exc


def _cast_seed(raw) -> int:
    seed = _cast_int(raw)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


def _cast_out(raw) -> str:
    """An output directory: the nearest existing path at or above it must be a
    directory (what is missing below it is made)."""
    out = Path(raw)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output path {out}: {existing} exists and is not a directory")
    return raw


def _cast_float(raw) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"expected a number, got {raw!r}") from exc


# ---- config keys -----------------------------------------------------------


class _Key(NamedTuple):
    """One config key; ``flag`` is "option" (--name), "switch" (--name, no
    value), "positional", or None when only a config file sets the key."""

    name: str
    cast: Callable = str
    default: object = None
    required: bool = False
    flag: str | None = "option"
    help: str | None = None


_MODEL_FIELDS = {f.name for f in fields(ModelConfig)}
_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)} - {"model", "manifest"}


class _Resolver:
    """Cast one command's keys from flags, config file, and table defaults."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.keys = _COMMANDS[command].keys
        file_cfg = _parse_config_file(args.config) if args.config else {}
        allowed = {key.name for key in self.keys}
        for name in file_cfg:
            if name not in allowed:
                raise ConfigError(f"unknown config key {name!r} for command {command!r}")
        self.values: dict[str, object] = {}
        for key in self.keys:
            flag = getattr(args, key.name, None)
            if flag is not None:
                value = key.cast(flag)
            elif key.name in file_cfg:
                value = key.cast(file_cfg[key.name])
            else:
                value = key.default
            if value is None and key.required:
                raise ConfigError(f"missing required option {key.name!r} for {command!r}")
            if value is not None:
                self.values[key.name] = value

    def write_echo(self, out_dir: Path, built: dict | None = None) -> Path:
        """Echo every key in table order: as set, else as ``built`` holds it."""
        merged = {**(built or {}), **self.values}
        lines = [
            f"{key.name} = {_format_value(merged[key.name])}"
            for key in self.keys
            if merged.get(key.name) is not None
        ]
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "resolved_config.txt"
        path.write_text("\n".join(lines) + "\n")
        return path


# ---- subcommands -----------------------------------------------------------


def _cmd_dataset(args) -> int:
    res = _Resolver("dataset", args)
    v = res.values
    out = Path(v["out"])
    manifest = make_dataset(out, v["n_train"], v["n_test"], DatasetSpec(*v["dims"]), v["seed"])
    res.write_echo(out)
    print(f"wrote {manifest}")
    return EXIT_OK


def _cmd_mask(args) -> int:
    res = _Resolver("mask", args)
    v = res.values
    out = Path(v["out"])
    mask = generate_mask(v["dims"][1], v["dims"][2], v["R"], v["seed"])
    out.mkdir(parents=True, exist_ok=True)
    path = out / "mask.kmask"
    save_mask(mask, path)
    res.write_echo(out)
    print(f"wrote {path}")
    return EXIT_OK


def _train_config(values: dict) -> TrainConfig:
    """Apply the explicitly set keys to the chosen preset and TrainConfig."""
    manifest = Path(values["manifest"])
    dims = values.get("dims")
    if dims is None:
        pairs = load_manifest(manifest).get("train", [])
        if not pairs:
            raise FormatError(f"manifest {manifest} has no train sequences")
        probe = read_volume(pairs[0][1])
        dims = (probe.x_dim, probe.y_dim, probe.t_dim)
    preset = tiny_config if values["tiny"] else full_config
    model = preset(*dims, **{k: v for k, v in values.items() if k in _MODEL_FIELDS})
    overrides = {k: v for k, v in values.items() if k in _TRAIN_FIELDS}
    if "R" in values:
        overrides["r_train"] = values["R"]
    return TrainConfig(model=model, manifest=manifest, **overrides)


def _cmd_train(args) -> int:
    res = _Resolver("train", args)
    cfg = _train_config(res.values)
    out = Path(res.values["out"])
    result = train(cfg, out)
    m = cfg.model
    built = {**vars(m), **vars(cfg), "R": cfg.r_train, "dims": (m.x_dim, m.y_dim, m.t_dim)}
    res.write_echo(out, built)
    print(f"wrote {result.checkpoint_path} and {result.log_path}")
    return EXIT_OK


def _cmd_infer(args) -> int:
    res = _Resolver("infer", args)
    out, input_path, checkpoint, mask_path = (
        Path(res.values[k]) for k in ("out", "input", "checkpoint", "mask")
    )
    volume = read_volume(input_path)
    mask = load_mask(mask_path)
    recon = infer(checkpoint, volume, mask)
    out.mkdir(parents=True, exist_ok=True)
    recon_path = out / "recon.kvol"
    write_volume(recon.image, recon_path)
    frames = write_pgm_frames(recon.image, out / "frames")
    res.write_echo(out)
    print(f"wrote {recon_path} and {len(frames)} PGM frames")
    return EXIT_OK


def _cmd_eval(args) -> int:
    res = _Resolver("eval", args)
    v = res.values
    out, checkpoint, manifest = (Path(v[k]) for k in ("out", "checkpoint", "manifest"))
    model_reports, baseline_reports = evaluate(checkpoint, manifest, v["R"], v["seed"])
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.csv"
    baseline_path = out / "baseline.csv"
    write_report_csv(model_reports, report_path)
    write_report_csv(baseline_reports, baseline_path)
    res.write_echo(out)
    for report, baseline in zip(model_reports, baseline_reports):
        agg = report.aggregate()
        base = baseline.aggregate()
        print(
            f"R={report.r_nominal:g} model psnr={agg['psnr'][0]:.3f} "
            f"ssim={agg['ssim'][0]:.4f} nmse={agg['nmse'][0]:.5f} | "
            f"zero-filled psnr={base['psnr'][0]:.3f}"
        )
    print(f"wrote {report_path} and {baseline_path}")
    return EXIT_OK


_OUT = _Key("out", _cast_out, required=True, help="output directory")
_SEED = _Key("seed", _cast_seed, 0)


class _Command(NamedTuple):
    help: str
    run: Callable[[argparse.Namespace], int]
    keys: tuple[_Key, ...]


# Each command lists the keys it accepts, in echo order.  Keys that feed
# ModelConfig or TrainConfig have no default here: they take the dataclass's.
_COMMANDS = {
    "dataset": _Command("generate a phantom dataset with manifest", _cmd_dataset, (
        _SEED,
        _OUT,
        _Key("dims", _cast_dims, (32, 32, 8), help="volume extents X,Y,T"),
        _Key("n_train", _cast_int, 4),
        _Key("n_test", _cast_int, 2),
    )),
    "mask": _Command("generate a ky-t undersampling mask", _cmd_mask, (
        _SEED,
        _OUT,
        _Key("dims", _cast_dims, (32, 32, 8), help="volume extents X,Y,T (Y and T are used)"),
        _Key("R", _cast_float, 4.0, help="nominal acceleration factor"),
    )),
    "train": _Command("train an interpolation model", _cmd_train, (
        _Key("seed", _cast_seed),
        _OUT,
        _Key("manifest", required=True),
        _Key("dims", _cast_dims, help="volume extents X,Y,T (default: from manifest)"),
        _Key("R", _cast_float, help="training acceleration factor"),
        _Key("steps", _cast_int),
        _Key("tiny", _cast_bool, False, flag="switch", help=tiny_config.__doc__),
        *(
            _Key(name, _cast_float, flag=None)
            for name in ("max_lr", "warmup_fraction", "initial_div", "final_div")
        ),
        *(
            _Key(name, _cast_int, flag=None)
            for name in ("embed_dim", "n_heads", "n_layers", "mlp_ratio", "kirm_patch")
        ),
        _Key("kirm_planes", _cast_planes, flag=None),
        _Key("loss_weight_hdr", _cast_float, flag=None),
        _Key("hdr_eps", _cast_float, flag=None),
    )),
    "infer": _Command("reconstruct one undersampled volume", _cmd_infer, (
        _OUT,
        _Key("input", required=True, flag="positional", help="undersampled k-space .kvol"),
        _Key("checkpoint", required=True),
        _Key("mask", required=True, help="path to the .kmask sampling pattern"),
    )),
    "eval": _Command("score a checkpoint on the test split", _cmd_eval, (
        _SEED,
        _OUT,
        _Key("checkpoint", required=True),
        _Key("manifest", required=True),
        _Key("R", _cast_r_list, [4.0], help="comma-separated acceleration factors"),
    )),
}


# ---- wiring -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinterp",
        description="Transformer k-space interpolation for dynamic MRI (desk scale)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="flat key = value config file")
        # --out leads the listing, as it does for every command.
        for key in sorted(command.keys, key=lambda k: k.name != "out"):
            if key.flag == "positional":
                p.add_argument(key.name, nargs="?", default=None, help=key.help)
            elif key.flag == "switch":
                p.add_argument(f"--{key.name}", action="store_const", const=True,
                               default=None, help=key.help)
            elif key.flag == "option":
                p.add_argument(f"--{key.name.replace('_', '-')}", dest=key.name,
                               help=key.help)
        p.set_defaults(func=command.run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SpecError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # The OS owns "a readable file is here": a missing input, a directory
    # given as one, or a path under a file.
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: missing-file: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    # Every volume the CLI sees comes from a file, so a wrong domain is a
    # wrong header tag in that file.
    except (FormatError, CheckpointError, DomainError) as exc:
        print(f"error: format: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except DimensionError as exc:
        print(f"error: dimension: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except KInterpError as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
