"""Command-line interface.

Subcommands: train, synth step|meso|extend, som build|clusters|concat,
bench, export-latents. Every option lives in a flat key=value config
namespace: flags override values from --config <file>, which override
defaults. Each command maps its resolved config to a report; main writes
the sidecar <out>.cfg holding that config when out is set, then prints
the report. Re-running a command with --config <sidecar> regenerates
the artifact bit-exactly, sampled modes included.

Exit codes: 0 success, 1 stdout closed before the whole report was
written, 2 usage or input error (a MemoryError included: a count too
large to allocate), 3 non-finite training loss.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
import time
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import (
    MAX_FLOAT32_SAMPLES, AudioBuffer, _decode_wav, frame_view, load_wav, peak_normalize,
    resample, save_wav, window_count, write_wav,
)
from .container import TEXT_FORMS, atomic_write
from .exceptions import (
    ConfigMismatchError,
    EmptyDatasetError,
    LatentAudioError,
    LoudInputError,
    NonFiniteLossError,
    TooShortError,
)
from .features import FeatureConfig, Thumbnail, extract_thumbnail
from .interpolate import (
    RECIPE,
    SynthesisMode,
    decode_path,
    encode_blocks,
    export_latents,
    generate_curve,
    render_extended,
    render_stepwise,
)
from .som import (
    assign_clusters,
    concatenate_cluster,
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


# the type of a record field's default -> the ftype of its Field
_KINDS = {bool: "bool", int: "int", float: "float", tuple: "ints"}
# ftype -> (value to text, text to value): int, float, bool and ints values
# are spelled as container headers spell them, str and path values as given
_FORMS = {**{kind: TEXT_FORMS[t] for t, kind in _KINDS.items()},
          "str": (str, str), "path": (str, str)}


def _flag(field: Field) -> str:
    return "--" + field.name.replace("_", "-")


def _convert(raw, field: Field, source: str):
    """raw as field's value; errors name source, the flag or config line raw came from."""
    # a --flag/--no-flag switch gives a bool, every other source gives text
    try:
        value = raw if isinstance(raw, bool) else _FORMS[field.ftype][1](raw)
    except ValueError as exc:
        raise ConfigMismatchError(f"{source}: {exc}") from None
    if field.choices and value not in field.choices:
        raise ConfigMismatchError(
            f"{source}: must be one of {', '.join(map(str, field.choices))}, got {value!r}"
        )
    return value


def _record_fields(cls, keys, helps) -> tuple:
    """One Field per field of the dataclass cls, named keys.get(name, name),
    with the field's default and the help text helps gives that key."""
    return tuple(Field(keys.get(f.name, f.name), _KINDS[type(f.default)], f.default,
                       help=helps.get(keys.get(f.name, f.name), ""))
                 for f in dataclasses.fields(cls))


def _record(cls, cfg: dict, keys):
    """The cls instance holding the values of the keys _record_fields named."""
    return cls(**{f.name: cfg[keys.get(f.name, f.name)] for f in dataclasses.fields(cls)})


def _add_flags(parser: argparse.ArgumentParser, fields) -> None:
    parser.add_argument(
        "--config", default=None, help="key=value file to take defaults from"
    )
    for f in fields:
        if f.ftype == "bool":
            parser.add_argument(
                _flag(f), action=argparse.BooleanOptionalAction, default=None, help=f.help
            )
        else:
            parser.add_argument(_flag(f), default=None, help=f.help, metavar=f.ftype.upper())


def _read_config(path, command: str, fields) -> dict:
    by_name = {f.name: f for f in fields}
    # a config without a recipe key was written before recipe 2 existed
    values = {"recipe": 1} if "recipe" in by_name else {}
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigMismatchError(f"{path}: {exc}") from None
    first_line = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise ConfigMismatchError(f"{path}:{line_no}: expected key=value")
        if key in first_line:
            raise ConfigMismatchError(
                f"{path}:{line_no}: key {key!r} is set again (first on line {first_line[key]})"
            )
        first_line[key] = line_no
        if key == "command":
            if raw != command:
                raise ConfigMismatchError(
                    f"{path} is a {raw!r} config, but {command!r} was invoked"
                )
            continue
        if key not in by_name:
            # a synth sidecar written when every strategy took every key
            if command.startswith("synth ") and key in _SYNTH_KEYS:
                continue
            raise ConfigMismatchError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = _convert(raw, by_name[key], f"{path}:{line_no}: {key}")
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
            values[f.name] = _convert(raw, f, _flag(f))
    for f in fields:
        if f.required and values[f.name] is None:
            raise ConfigMismatchError(f"missing required option {_flag(f)}")
        if f.ftype == "path" and values[f.name] is not None:
            values[f.name] = str(Path(values[f.name]).resolve())
    out = values.get("out")
    if out is not None:  # refused here, before the command spends its work
        if os.path.isdir(out):
            raise ConfigMismatchError(f"--out {out} is a directory")
        if not os.path.isdir(os.path.dirname(out)):
            raise ConfigMismatchError(
                f"--out {out}: {os.path.dirname(out)} is not an existing directory")
        # main writes the sidecar, and train its loss log, beside out
        for path in [out + ".cfg"] + ([out + _LOSS_LOG] if args.cmd_name == "train" else []):
            if os.path.isdir(path):
                raise ConfigMismatchError(f"--out {out}: {path} is a directory")
    return values


def _write_sidecar(artifact_path, cmd_name: str, fields, values: dict) -> None:
    lines = [f"command={cmd_name}"]
    for f in fields:
        if values[f.name] is not None:
            lines.append(f"{f.name}={_FORMS[f.ftype][0](values[f.name])}")
    with atomic_write(str(artifact_path) + ".cfg", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _sorted_wavs(dataset_dir) -> list:
    root = Path(dataset_dir)
    if not root.is_dir():
        raise EmptyDatasetError(f"dataset directory {dataset_dir} does not exist")
    files = sorted(p for p in root.iterdir() if p.suffix.lower() == ".wav" and p.is_file())
    if not files:
        raise EmptyDatasetError(f"no .wav files in {dataset_dir}")
    return files


def _load_input(path, hyper: VaeHyperParams, normalize: bool) -> AudioBuffer:
    """The WAV at path at the model's rate, peak-normalized if asked;
    TooShortError naming path if it is shorter than one model window."""
    buf = resample(load_wav(path), hyper.sample_rate)
    if len(buf) < hyper.window_size:
        raise TooShortError(f"{path}: {len(buf)} samples at {hyper.sample_rate} Hz are "
                            f"shorter than one {hyper.window_size}-sample window")
    return peak_normalize(buf) if normalize else buf


# ---------------------------------------------------------------- train

TRAIN_FIELDS = (
    Field("dataset_dir", "path", required=True, help="directory of training WAVs"),
    Field("out", "path", required=True, help="checkpoint output path"),
    *_record_fields(VaeHyperParams, {}, {"hidden_sizes": "comma-separated hidden widths",
                                         "alpha": "KL weight"}),
    Field("hop", "int", 256, help="training window hop"),
)
_LOSS_LOG = ".loss.txt"  # train's loss history, beside the checkpoint


def _cmd_train(cfg: dict) -> str:
    hyper = _record(VaeHyperParams, cfg, {})
    sets = []
    for path in _sorted_wavs(cfg["dataset_dir"]):
        buf = _load_input(path, hyper, True)
        sets.append(frame_view(buf.samples, hyper.window_size, cfg["hop"]))
    ckpt = train(sets, hyper)
    save_checkpoint(ckpt, cfg["out"])
    loss_path = cfg["out"] + _LOSS_LOG
    with atomic_write(loss_path, "w", encoding="utf-8") as fh:
        for epoch, (recon, kl) in enumerate(ckpt.loss_history, start=1):
            fh.write(f"{epoch} {recon} {kl}\n")
    n_windows = sum(len(ws) for ws in sets)
    return (f"trained on {n_windows} windows from {len(sets)} files; "
            f"wrote {cfg['out']} and {loss_path}")


# ---------------------------------------------------------------- synth

# synth and export-latents; _read_config resolves a config file without it to 1
_RECIPE = Field("recipe", "int", RECIPE, choices=tuple(range(1, RECIPE + 1)),
                help="encoding recipe: 2 encodes in blocks, 1 as runs before it did")
SYNTH_FIELDS = (  # read by every strategy
    Field("checkpoint", "path", required=True),
    Field("in1", "path", required=True, help="input recording 1 (weighted by w)"),
    Field("in2", "path", required=True, help="input recording 2 (weighted by 1-w)"),
    Field("out", "path", required=True, help="output WAV path"),
    Field("mode", "str", "mean", choices=("mean", "sample")),
    Field("seed", "int", 0, help="eps seed for sample mode"),
    Field("crossfade", "int", 0, help="seam crossfade in samples"),
    Field("normalize", "bool", False, help="peak-normalize inputs on load"),
    _RECIPE,
)
_CURVE = Field("curve", "str", "lin:0:1", help="per-window weight curve spec")
SYNTH_STRATEGIES = {  # strategy -> (help, the options it adds to SYNTH_FIELDS)
    "step": ("global weight swept in discrete steps",
             (Field("range", "float", 1.0, help="sweep endpoint r"),
              Field("step", "float", 0.25, help="sweep increment s"))),
    "meso": ("per-window weight curve, duration preserved", (_CURVE,)),
    "extend": ("per-window curve over overlapped windows, duration stretched",
               (_CURVE, Field("hop", "int", 256, help="window hop"))),
}
_SYNTH_KEYS = frozenset(f.name for _, own in SYNTH_STRATEGIES.values() for f in own)


def _cmd_synth(strategy: str, cfg: dict) -> str:
    if cfg["mode"] == "mean":
        mode = SynthesisMode.mean_only()
        cfg["seed"] = None  # mean mode draws nothing, so its sidecar records no seed
    else:
        mode = SynthesisMode.sampled(cfg["seed"])
    model = model_from_checkpoint(load_checkpoint(cfg["checkpoint"]))
    a = _load_input(cfg["in1"], model.hyper, cfg["normalize"])
    b = _load_input(cfg["in2"], model.hyper, cfg["normalize"])

    if strategy == "step":
        length, blocks = render_stepwise(model, a, b, cfg["range"], cfg["step"], mode,
                                         cfg["crossfade"], cfg["recipe"])
    else:
        hop = cfg.get("hop", model.hyper.window_size)  # meso has no hop: windows abut
        count = window_count(min(len(a), len(b)), model.hyper.window_size, hop)
        curve = generate_curve(cfg["curve"], count)
        length, blocks = render_extended(model, a, b, curve, mode, hop, cfg["crossfade"],
                                         cfg["recipe"])
    rate = model.hyper.sample_rate
    try:  # each block is decoded as the writer reaches it: memory holds a few, not the output
        write_wav(blocks, length, rate, cfg["out"])
    except LoudInputError as exc:  # name the input by its path
        raise LoudInputError(exc.index, exc.window, cfg[("in1", "in2")[exc.index]]) from None
    return f"wrote {cfg['out']}: {length / rate:.2f} s at {rate} Hz"


# ---------------------------------------------------------------- som

_FEATURE_KEYS = {"sample_rate": "feat_rate", "hop": "feat_hop"}  # the rest keep the field name
# train_som argument and SomMap field -> som build option; unset, train_som picks the value
_MAP_KEYS = {"width": "width", "height": "height", "epochs": "som_epochs",
             "lr0": "som_lr", "radius0": "som_radius", "seed": "seed"}

SOM_BUILD_FIELDS = (
    Field("dataset_dir", "path", required=True),
    Field("out", "path", required=True, help="map output path"),
    Field("width", "int", help="grid width (default: sized from corpus)"),
    Field("height", "int", help="grid height (default: sized from corpus)"),
    Field("som_epochs", "int"),
    Field("som_lr", "float"),
    Field("som_radius", "float", help="initial radius (default: half the longer side)"),
    Field("seed", "int"),
    *_record_fields(FeatureConfig, _FEATURE_KEYS, {"feat_rate": "analysis sample rate",
                                                   "centroid": "include spectral centroid",
                                                   "rms": "include RMS energy"}),
)


@dataclass(frozen=True)
class _CorpusThumbnails:
    """Each file's thumbnail, produced when iteration reaches it; sized like a list.

    A file whose content key, (byte size, CRC32), is in rows takes its row;
    any other is extracted, and its row joins rows. So a renamed file hits
    and an edited one misses.
    """

    files: list
    config: FeatureConfig
    rows: dict

    def __len__(self) -> int:
        return len(self.files)

    def __iter__(self):
        for path in self.files:
            data = path.read_bytes()
            key = (len(data), zlib.crc32(data))
            # name by the bare file name so listings stay portable across machines
            if key in self.rows:
                yield Thumbnail(self.rows[key], path.name)
            else:
                try:  # decode the bytes already read, not the file again
                    thumb = extract_thumbnail(_decode_wav(data, path), self.config, path.name)
                except TooShortError as exc:
                    raise TooShortError(f"{path}: {exc}") from None
                self.rows[key] = thumb.features
                yield thumb


def _cmd_som_build(cfg: dict) -> str:
    config = _record(FeatureConfig, cfg, _FEATURE_KEYS)
    files = _sorted_wavs(cfg["dataset_dir"])
    given = {arg: cfg[key] for arg, key in _MAP_KEYS.items() if cfg[key] is not None}
    corpus = _CorpusThumbnails(files, config, {})
    som = train_som(corpus, feature_config=config, **given)
    som.thumbnail_rows = corpus.rows
    # the sidecar records every setting the map holds, defaults included
    cfg.update({key: getattr(som, arg) for arg, key in _MAP_KEYS.items()})
    save_som(som, cfg["out"])
    return (f"mapped {len(files)} files onto a {som.width}x{som.height} grid; "
            f"wrote {cfg['out']} (final quantization error {som.qe_history[-1]:.4f})")


SOM_CLUSTERS_FIELDS = (
    Field("map", "path", required=True),
    Field("dataset_dir", "path", required=True),
    Field("out", "path", help="write the listing here instead of stdout"),
)


def _map_clusters(cfg: dict) -> list:
    """The clusters of the dataset's files on the map, thumbnails from its rows."""
    som = load_som(cfg["map"])
    files = _sorted_wavs(cfg["dataset_dir"])
    thumbs = list(_CorpusThumbnails(files, som.feature_config, som.thumbnail_rows))
    return assign_clusters(som, thumbs)


def _cmd_som_clusters(cfg: dict) -> str:
    lines = [f"{c.unit[0]},{c.unit[1]}: " + ";".join(c.members) for c in _map_clusters(cfg)]
    if not cfg["out"]:
        return "\n".join(lines)
    with atomic_write(cfg["out"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return f"wrote {len(lines)} clusters to {cfg['out']}"


SOM_CONCAT_FIELDS = (
    Field("map", "path", required=True),
    Field("dataset_dir", "path", required=True),
    Field("unit", "str", required=True, help="grid coordinate as x,y"),
    Field("out", "path", required=True, help="output WAV path"),
)


def _cmd_som_concat(cfg: dict) -> str:
    try:
        x, y = (int(part) for part in cfg["unit"].split(","))
    except ValueError as exc:
        raise ConfigMismatchError(f"unit must be x,y integers, got {cfg['unit']!r}") from exc
    clusters = [c for c in _map_clusters(cfg) if c.unit == (x, y)]
    if not clusters:
        raise LatentAudioError(f"no cluster at unit {x},{y}")
    root = Path(cfg["dataset_dir"])
    buf = concatenate_cluster(clusters[0], lambda ref: load_wav(root / ref))
    save_wav(buf, cfg["out"])
    return f"wrote {cfg['out']}: {buf.duration:.2f} s from {len(clusters[0].members)} files"


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
    time over at least 30 repetitions. ValueError unless seed >= 0,
    seconds > 0 and the decoded audio fits in one float32 WAV.
    """
    hyper = model.hyper
    windows = seconds * hyper.sample_rate / hyper.window_size
    if not (seconds > 0 and windows <= MAX_FLOAT32_SAMPLES // hyper.window_size):
        raise ValueError(f"seconds must be > 0 and fit one float32 WAV, got {seconds}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n_windows = math.ceil(windows)
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


def _cmd_bench(cfg: dict) -> str:
    model = model_from_checkpoint(load_checkpoint(cfg["checkpoint"]))
    report = run_bench(model, cfg["seconds"], cfg["reps"], cfg["warmup"], cfg["seed"])
    verdict = "met" if report.median_ms < 10.0 else "missed"
    return (f"decoded {report.n_windows} windows ({cfg['seconds']:g} s at "
            f"{model.hyper.sample_rate} Hz) x {report.reps} reps: "
            f"median {report.median_ms:.3f} ms, p95 {report.p95_ms:.3f} ms "
            f"(10 ms reference target {verdict})")


# ---------------------------------------------------------------- export

EXPORT_FIELDS = (
    Field("checkpoint", "path", required=True),
    Field("input", "path", required=True, help="WAV to encode"),
    Field("out", "path", required=True, help="CSV output path"),
    Field("hop", "int", help="encode hop (default: window size)"),
    Field("normalize", "bool", False),
    _RECIPE,
)


def _cmd_export_latents(cfg: dict) -> str:
    model = model_from_checkpoint(load_checkpoint(cfg["checkpoint"]))
    buf = _load_input(cfg["input"], model.hyper, cfg["normalize"])
    hop = model.hyper.window_size if cfg["hop"] is None else cfg["hop"]
    # each block of rows is encoded as the writer reaches it
    n_rows = export_latents(encode_blocks(model, buf, hop, cfg["recipe"]), cfg["out"])
    return f"wrote {n_rows} latent rows to {cfg['out']}"


# ---------------------------------------------------------------- wiring

# the commands that take a subcommand -> (the dest usage and errors call it by, help)
_GROUPS = {"synth": ("strategy", "blend two recordings in latent space"),
           "som": ("som_command", "organize a corpus on a self-organizing map")}
# command -> (options, handler, help), in the order --help lists them
COMMANDS = {
    "train": (TRAIN_FIELDS, _cmd_train, "train a model on a directory of WAVs"),
    **{f"synth {strategy}": (SYNTH_FIELDS + own, functools.partial(_cmd_synth, strategy), text)
       for strategy, (text, own) in SYNTH_STRATEGIES.items()},
    "som build": (SOM_BUILD_FIELDS, _cmd_som_build, "extract thumbnails and train a map"),
    "som clusters": (SOM_CLUSTERS_FIELDS, _cmd_som_clusters, "list the file partition by map unit"),
    "som concat": (SOM_CONCAT_FIELDS, _cmd_som_concat, "concatenate one cluster into a single WAV"),
    "bench": (BENCH_FIELDS, _cmd_bench, "measure decode latency"),
    "export-latents": (EXPORT_FIELDS, _cmd_export_latents,
                       "encode a WAV and dump its latents as CSV"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentaudio",
        description="Train a raw-audio VAE, map corpora with a SOM, and "
        "synthesize by latent interpolation.",
    )
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (fields, handler, text) in COMMANDS.items():
        group, _, word = name.rpartition(" ")
        if group not in subs:
            dest, group_text = _GROUPS[group]
            group_parser = subs[""].add_parser(group, help=group_text)
            subs[group] = group_parser.add_subparsers(dest=dest, required=True)
        p = subs[group].add_parser(word, help=text)
        _add_flags(p, fields)
        p.set_defaults(handler=handler, fields=fields, cmd_name=name)
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
        # the active filters still decide which warnings show; a shown one is
        # one line, printed the way errors are
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                             file=sys.stderr)
            cfg = _resolve(args)
            report = args.handler(cfg)
            if cfg.get("out"):
                _write_sidecar(cfg["out"], args.cmd_name, args.fields, cfg)
        try:
            print(report, flush=True)
        except BrokenPipeError:
            # the reader is gone; devnull takes what the flush at exit writes
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LatentAudioError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
