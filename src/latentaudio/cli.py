"""Command-line interface.

Subcommands: train, synth step|meso|extend, som build|clusters|concat,
bench, export-latents. Every option lives in a flat key=value config
namespace: flags override values from --config <file>, which override
defaults, and each artifact gets a sidecar <artifact>.cfg holding the
fully resolved configuration. Re-running a command with --config
<sidecar> regenerates the artifact bit-exactly, sampled modes included.

Exit codes: 0 success, 2 usage or input error, 3 non-finite training loss.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import (
    AudioBuffer, load_wav, peak_normalize, resample, save_wav, window, window_count,
)
from .container import atomic_write
from .exceptions import (
    ConfigMismatchError,
    EmptyDatasetError,
    LatentAudioError,
    NonFiniteLossError,
)
from .features import FeatureConfig, extract_thumbnail
from .interpolate import (
    SynthesisMode,
    decode_path,
    encode_audio,
    export_latents,
    extended_interpolate,
    generate_curve,
    stepwise_interpolate,
)
from .som import (
    assign_clusters,
    concatenate_cluster,
    default_grid_side,
    load_som,
    save_som,
    train_som,
)
from .vae import (
    VaeHyperParams,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    train,
)


@dataclass(frozen=True)
class Field:
    """One config key: its text conversion, default, and CLI help."""

    name: str
    ftype: str  # int | float | str | bool | ints | path
    default: object = None
    required: bool = False
    help: str = ""
    choices: tuple = ()


def _convert(raw, field: Field):
    if field.ftype == "int":
        value = int(raw)
    elif field.ftype == "float":
        value = float(raw)
    elif field.ftype == "bool":
        value = raw if isinstance(raw, bool) else bool(int(raw))
    elif field.ftype == "ints":
        text = str(raw).strip()
        value = tuple(int(part) for part in text.split(",")) if text else ()
    else:  # str | path
        value = str(raw)
    if field.choices and value not in field.choices:
        raise ConfigMismatchError(
            f"{field.name} must be one of {', '.join(field.choices)}, got {value!r}"
        )
    return value


def _to_text(value, ftype: str) -> str:
    if ftype == "bool":
        return str(int(value))
    if ftype == "ints":
        return ",".join(str(v) for v in value)
    if ftype == "float":
        return repr(float(value))
    return str(value)


def _add_flags(parser: argparse.ArgumentParser, fields) -> None:
    parser.add_argument(
        "--config", default=None, help="key=value file to take defaults from"
    )
    for f in fields:
        flag = "--" + f.name.replace("_", "-")
        if f.ftype == "bool":
            parser.add_argument(
                flag, action=argparse.BooleanOptionalAction, default=None, help=f.help
            )
        else:
            parser.add_argument(flag, default=None, help=f.help, metavar=f.ftype.upper())


def _read_config(path, command: str, fields) -> dict:
    by_name = {f.name: f for f in fields}
    values = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise ConfigMismatchError(f"{path}:{line_no}: expected key=value")
        if key == "command":
            if raw != command:
                raise ConfigMismatchError(
                    f"{path} is a {raw!r} config, but {command!r} was invoked"
                )
            continue
        if key not in by_name:
            raise ConfigMismatchError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = _convert(raw, by_name[key])
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags; absolutize paths."""
    fields = args.fields
    values = {f.name: f.default for f in fields}
    if args.config:
        values.update(_read_config(args.config, args.cmd_name, fields))
    for f in fields:
        raw = getattr(args, f.name)
        if raw is not None:
            values[f.name] = _convert(raw, f)
    for f in fields:
        if f.required and values[f.name] is None:
            raise ConfigMismatchError(
                f"missing required option --{f.name.replace('_', '-')}"
            )
        if f.ftype == "path" and values[f.name] is not None:
            values[f.name] = str(Path(values[f.name]).resolve())
    return values


def _write_sidecar(artifact_path, cmd_name: str, fields, values: dict) -> None:
    lines = [f"command={cmd_name}"]
    for f in fields:
        if values[f.name] is not None:
            lines.append(f"{f.name}={_to_text(values[f.name], f.ftype)}")
    with atomic_write(str(artifact_path) + ".cfg", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _sorted_wavs(dataset_dir) -> list:
    root = Path(dataset_dir)
    if not root.is_dir():
        raise EmptyDatasetError(f"dataset directory {dataset_dir} does not exist")
    files = sorted(p for p in root.iterdir() if p.suffix.lower() == ".wav")
    if not files:
        raise EmptyDatasetError(f"no .wav files in {dataset_dir}")
    return files


def _load_input(path, sample_rate: int, normalize: bool) -> AudioBuffer:
    buf = resample(load_wav(path), sample_rate)
    return peak_normalize(buf) if normalize else buf


# ---------------------------------------------------------------- train

TRAIN_FIELDS = (
    Field("dataset_dir", "path", required=True, help="directory of training WAVs"),
    Field("out", "path", required=True, help="checkpoint output path"),
    Field("window_size", "int", 1024),
    Field("latent_dim", "int", 256),
    Field("hidden_sizes", "ints", (512,), help="comma-separated hidden widths"),
    Field("alpha", "float", 1e-4, help="KL weight"),
    Field("learning_rate", "float", 1e-4),
    Field("epochs", "int", 500),
    Field("batch_size", "int", 128),
    Field("sample_rate", "int", 44100),
    Field("hop", "int", 256, help="training window hop"),
    Field("seed", "int", 0),
)


def _cmd_train(args, cfg: dict) -> int:
    hyper = VaeHyperParams(
        window_size=cfg["window_size"],
        latent_dim=cfg["latent_dim"],
        hidden_sizes=cfg["hidden_sizes"],
        alpha=cfg["alpha"],
        learning_rate=cfg["learning_rate"],
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        sample_rate=cfg["sample_rate"],
        seed=cfg["seed"],
    )
    sets = []
    for path in _sorted_wavs(cfg["dataset_dir"]):
        buf = _load_input(path, hyper.sample_rate, True)
        sets.append(window(buf, hyper.window_size, cfg["hop"]))
    ckpt = train(sets, hyper)
    save_checkpoint(ckpt, cfg["out"])
    loss_path = cfg["out"] + ".loss.txt"
    with atomic_write(loss_path, "w", encoding="utf-8") as fh:
        for epoch, (recon, kl) in enumerate(ckpt.loss_history, start=1):
            fh.write(f"{epoch} {recon} {kl}\n")
    _write_sidecar(cfg["out"], args.cmd_name, args.fields, cfg)
    n_windows = sum(len(ws) for ws in sets)
    print(
        f"trained on {n_windows} windows from {len(sets)} files; "
        f"wrote {cfg['out']} and {loss_path}"
    )
    return 0


# ---------------------------------------------------------------- synth

SYNTH_FIELDS = (
    Field("checkpoint", "path", required=True),
    Field("in1", "path", required=True, help="input recording 1 (weighted by w)"),
    Field("in2", "path", required=True, help="input recording 2 (weighted by 1-w)"),
    Field("out", "path", required=True, help="output WAV path"),
    Field("mode", "str", "mean", choices=("mean", "sample")),
    Field("seed", "int", 0, help="eps seed for sample mode"),
    Field("range", "float", 1.0, help="stepwise sweep endpoint r"),
    Field("step", "float", 0.25, help="stepwise increment s"),
    Field("curve", "str", "lin:0:1", help="curve spec for meso/extend"),
    Field("hop", "int", 256, help="window hop for extend"),
    Field("crossfade", "int", 0, help="seam crossfade in samples"),
    Field("normalize", "bool", False, help="peak-normalize inputs on load"),
)


def _cmd_synth(args, cfg: dict) -> int:
    model = model_from_checkpoint(load_checkpoint(cfg["checkpoint"]))
    rate = model.hyper.sample_rate
    a = _load_input(cfg["in1"], rate, cfg["normalize"])
    b = _load_input(cfg["in2"], rate, cfg["normalize"])
    if cfg["mode"] == "mean":
        mode = SynthesisMode.mean_only()
    else:
        mode = SynthesisMode.sampled(cfg["seed"])

    if args.strategy == "step":
        out_buf = stepwise_interpolate(
            model, a, b, cfg["range"], cfg["step"], mode, cfg["crossfade"]
        )
    else:
        hop = model.hyper.window_size if args.strategy == "meso" else cfg["hop"]
        count = window_count(min(len(a), len(b)), model.hyper.window_size, hop)
        curve = generate_curve(cfg["curve"], count)
        out_buf = extended_interpolate(model, a, b, curve, mode, hop, cfg["crossfade"])
    save_wav(out_buf, cfg["out"], encoding="float32")
    _write_sidecar(cfg["out"], args.cmd_name, args.fields, cfg)
    print(f"wrote {cfg['out']}: {out_buf.duration:.2f} s at {out_buf.sample_rate} Hz")
    return 0


# ---------------------------------------------------------------- som

SOM_BUILD_FIELDS = (
    Field("dataset_dir", "path", required=True),
    Field("out", "path", required=True, help="map output path"),
    Field("width", "int", help="grid width (default: sized from corpus)"),
    Field("height", "int", help="grid height (default: sized from corpus)"),
    Field("som_epochs", "int", 100),
    Field("som_lr", "float", 0.5),
    Field("som_radius", "float", help="initial radius (default: half the longer side)"),
    Field("seed", "int", 0),
    Field("feat_rate", "int", 44100, help="analysis sample rate"),
    Field("frame_size", "int", 2048),
    Field("feat_hop", "int", 1024),
    Field("n_mfcc", "int", 13),
    Field("n_mels", "int", 26),
    Field("centroid", "bool", True, help="include spectral centroid"),
    Field("rms", "bool", True, help="include RMS energy"),
)


def _feature_config(cfg: dict) -> FeatureConfig:
    return FeatureConfig(
        sample_rate=cfg["feat_rate"],
        frame_size=cfg["frame_size"],
        hop=cfg["feat_hop"],
        n_mfcc=cfg["n_mfcc"],
        n_mels=cfg["n_mels"],
        include_centroid=cfg["centroid"],
        include_rms=cfg["rms"],
    )


def _corpus_thumbnails(dataset_dir, config: FeatureConfig) -> list:
    thumbs = []
    for p in _sorted_wavs(dataset_dir):
        buf = load_wav(p)
        # label with the bare name so listings stay portable across machines
        buf = AudioBuffer(buf.samples, buf.sample_rate, source_label=p.name)
        thumbs.append(extract_thumbnail(buf, config))
    return thumbs


def _cmd_som_build(args, cfg: dict) -> int:
    config = _feature_config(cfg)
    thumbs = _corpus_thumbnails(cfg["dataset_dir"], config)
    side = default_grid_side(len(thumbs))
    for key in ("width", "height"):
        if cfg[key] is None:
            cfg[key] = side
    som = train_som(
        thumbs,
        width=cfg["width"],
        height=cfg["height"],
        epochs=cfg["som_epochs"],
        lr0=cfg["som_lr"],
        radius0=cfg["som_radius"],
        seed=cfg["seed"],
        feature_config=config,
    )
    cfg["som_radius"] = som.radius0  # the sidecar records the radius used, default included
    save_som(som, cfg["out"])
    _write_sidecar(cfg["out"], args.cmd_name, args.fields, cfg)
    print(
        f"mapped {len(thumbs)} files onto a {som.width}x{som.height} grid; "
        f"wrote {cfg['out']} (final quantization error {som.qe_history[-1]:.4f})"
    )
    return 0


SOM_CLUSTERS_FIELDS = (
    Field("map", "path", required=True),
    Field("dataset_dir", "path", required=True),
    Field("out", "path", help="write the listing here instead of stdout"),
)


def _cluster_lines(som, thumbs) -> list:
    clusters = assign_clusters(som, thumbs)
    return [
        f"{c.unit[0]},{c.unit[1]}: " + ";".join(c.members) for c in clusters
    ]


def _cmd_som_clusters(args, cfg: dict) -> int:
    som = load_som(cfg["map"])
    thumbs = _corpus_thumbnails(cfg["dataset_dir"], som.feature_config)
    lines = _cluster_lines(som, thumbs)
    if cfg["out"]:
        with atomic_write(cfg["out"], "w") as fh:
            fh.write("\n".join(lines) + "\n")
        _write_sidecar(cfg["out"], args.cmd_name, args.fields, cfg)
        print(f"wrote {len(lines)} clusters to {cfg['out']}")
    else:
        for line in lines:
            print(line)
    return 0


SOM_CONCAT_FIELDS = (
    Field("map", "path", required=True),
    Field("dataset_dir", "path", required=True),
    Field("unit", "str", required=True, help="grid coordinate as x,y"),
    Field("out", "path", required=True, help="output WAV path"),
)


def _cmd_som_concat(args, cfg: dict) -> int:
    som = load_som(cfg["map"])
    thumbs = _corpus_thumbnails(cfg["dataset_dir"], som.feature_config)
    try:
        x, y = (int(part) for part in cfg["unit"].split(","))
    except ValueError as exc:
        raise ConfigMismatchError(f"unit must be x,y integers, got {cfg['unit']!r}") from exc
    clusters = [c for c in assign_clusters(som, thumbs) if c.unit == (x, y)]
    if not clusters:
        raise LatentAudioError(f"no cluster at unit {x},{y}")
    root = Path(cfg["dataset_dir"])
    buf = concatenate_cluster(clusters[0], lambda ref: load_wav(root / ref))
    save_wav(buf, cfg["out"], encoding="float32")
    _write_sidecar(cfg["out"], args.cmd_name, args.fields, cfg)
    print(
        f"wrote {cfg['out']}: {buf.duration:.2f} s from "
        f"{len(clusters[0].members)} files"
    )
    return 0


# ---------------------------------------------------------------- bench

BENCH_FIELDS = (
    Field("checkpoint", "path", required=True),
    Field("seconds", "float", 1.0, help="audio duration per decode"),
    Field("reps", "int", 50, help="timed repetitions (floor 30)"),
    Field("warmup", "int", 5),
    Field("seed", "int", 0, help="random latent seed"),
)


@dataclass(frozen=True)
class BenchReport:
    n_windows: int
    reps: int
    median_ms: float
    p95_ms: float


def run_bench(model, seconds: float = 1.0, reps: int = 50, warmup: int = 5, seed: int = 0) -> BenchReport:
    """Time decode_path on random latents covering the requested duration.

    Uses mean_only decoding over ceil(seconds * rate / window_size)
    windows, warms the caches first, and reports median and p95 wall
    time over at least 30 repetitions.
    """
    hyper = model.hyper
    n_windows = math.ceil(seconds * hyper.sample_rate / hyper.window_size)
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_windows, hyper.latent_dim)).astype(np.float32)
    stds = np.zeros_like(means)
    mode = SynthesisMode.mean_only()
    for _ in range(max(warmup, 1)):
        decode_path(model, means, stds, mode)
    times = np.empty(max(reps, 30))
    for i in range(len(times)):
        start = time.perf_counter()
        decode_path(model, means, stds, mode)
        times[i] = time.perf_counter() - start
    return BenchReport(
        n_windows=n_windows,
        reps=len(times),
        median_ms=float(np.median(times) * 1e3),
        p95_ms=float(np.percentile(times, 95) * 1e3),
    )


def _cmd_bench(args, cfg: dict) -> int:
    model = model_from_checkpoint(load_checkpoint(cfg["checkpoint"]))
    report = run_bench(
        model, cfg["seconds"], cfg["reps"], cfg["warmup"], cfg["seed"]
    )
    verdict = "met" if report.median_ms < 10.0 else "missed"
    print(
        f"decoded {report.n_windows} windows ({cfg['seconds']:g} s at "
        f"{model.hyper.sample_rate} Hz) x {report.reps} reps: "
        f"median {report.median_ms:.3f} ms, p95 {report.p95_ms:.3f} ms "
        f"(10 ms reference target {verdict})"
    )
    return 0


# ---------------------------------------------------------------- export

EXPORT_FIELDS = (
    Field("checkpoint", "path", required=True),
    Field("input", "path", required=True, help="WAV to encode"),
    Field("out", "path", required=True, help="CSV output path"),
    Field("hop", "int", help="encode hop (default: window size)"),
    Field("normalize", "bool", False),
)


def _cmd_export_latents(args, cfg: dict) -> int:
    model = model_from_checkpoint(load_checkpoint(cfg["checkpoint"]))
    buf = _load_input(cfg["input"], model.hyper.sample_rate, cfg["normalize"])
    hop = model.hyper.window_size if cfg["hop"] is None else cfg["hop"]
    path = encode_audio(model, buf, hop)
    export_latents(path, cfg["out"])
    _write_sidecar(cfg["out"], args.cmd_name, args.fields, cfg)
    print(f"wrote {len(path)} latent rows to {cfg['out']}")
    return 0


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentaudio",
        description="Train a raw-audio VAE, map corpora with a SOM, and "
        "synthesize by latent interpolation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def register(parent, name: str, fields, handler, cmd_name: str, **kwargs):
        p = parent.add_parser(name, **kwargs)
        _add_flags(p, fields)
        p.set_defaults(handler=handler, fields=fields, cmd_name=cmd_name)
        return p

    register(sub, "train", TRAIN_FIELDS, _cmd_train, "train",
             help="train a model on a directory of WAVs")

    synth = sub.add_parser("synth", help="blend two recordings in latent space")
    strategies = synth.add_subparsers(dest="strategy", required=True)
    for strategy, text in (
        ("step", "global weight swept in discrete steps"),
        ("meso", "per-window weight curve, duration preserved"),
        ("extend", "per-window curve over overlapped windows, duration stretched"),
    ):
        register(strategies, strategy, SYNTH_FIELDS, _cmd_synth,
                 f"synth {strategy}", help=text)

    som = sub.add_parser("som", help="organize a corpus on a self-organizing map")
    som_sub = som.add_subparsers(dest="som_command", required=True)
    register(som_sub, "build", SOM_BUILD_FIELDS, _cmd_som_build, "som build",
             help="extract thumbnails and train a map")
    register(som_sub, "clusters", SOM_CLUSTERS_FIELDS, _cmd_som_clusters,
             "som clusters", help="list the file partition by map unit")
    register(som_sub, "concat", SOM_CONCAT_FIELDS, _cmd_som_concat, "som concat",
             help="concatenate one cluster into a single WAV")

    register(sub, "bench", BENCH_FIELDS, _cmd_bench, "bench",
             help="measure decode latency")
    register(sub, "export-latents", EXPORT_FIELDS, _cmd_export_latents,
             "export-latents", help="encode a WAV and dump its latents as CSV")
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import, and shared by later calls:
    # parsing reads the tree without changing it
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args)
        return args.handler(args, cfg)
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LatentAudioError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
