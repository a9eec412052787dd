"""Span recorder that times calls into the program's public functions.

The recorder wraps each traced function in every latentaudio module that
binds its name (cli imports window, load_checkpoint and friends by name,
so patching only the defining module would miss those calls). A span is
(name, start, end, parent, operation id, work count); spans stay in
memory and are written as JSON lines at the end of the run. Self time is
a span's duration minus the durations of its traced children, which run
one after another on this single thread.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict


def _size(path) -> int:
    return os.path.getsize(path)


def _resampled(a, result) -> int:
    return 0 if result is a["buffer"] else len(result)


# (module, function) -> work counter, called with the bound arguments and the result
TRACED = {
    ("cli", "main"): None,
    ("container", "read_container"): lambda a, r: _size(a["path"]),
    ("container", "write_container"): lambda a, r: _size(a["path"]),
    ("audio", "load_wav"): lambda a, r: _size(a["path"]),
    ("audio", "save_wav"): lambda a, r: _size(a["path"]),
    ("audio", "resample"): _resampled,
    ("audio", "peak_normalize"): None,
    ("audio", "window"): lambda a, r: len(r),
    ("vae", "load_checkpoint"): None,
    ("vae", "model_from_checkpoint"): None,
    ("vae", "save_checkpoint"): None,
    ("vae", "encode_frames"): lambda a, r: len(a["frames"]),
    ("vae", "decode_frames"): lambda a, r: len(a["z"]),
    ("vae", "train"): None,
    ("vae", "adam_step"): None,
    ("interpolate", "encode_audio"): None,
    ("interpolate", "generate_curve"): None,
    ("interpolate", "stepwise_interpolate"): None,
    ("interpolate", "meso_interpolate"): None,
    ("interpolate", "extended_interpolate"): None,
    ("interpolate", "decode_path"): None,
    ("interpolate", "export_latents"): None,
    ("features", "extract_thumbnail"): None,
    ("som", "train_som"): lambda a, r: int(a["epochs"]) * len(a["thumbnails"]),
    ("som", "assign_clusters"): None,
    ("som", "load_som"): None,
    ("som", "save_som"): None,
    ("som", "concatenate_cluster"): None,
}

# per-layer metric -> (span name, statistic, unit); statistics are per traced round
LAYER_METRICS = {
    "cli.main.self_ms": ("cli.main", "self_ms", "ms"),
    "cli.main.calls": ("cli.main", "calls", "count"),
    "container.read_container.ms": ("container.read_container", "ms", "ms"),
    "container.read_container.bytes": ("container.read_container", "work", "bytes"),
    "container.write_container.ms": ("container.write_container", "ms", "ms"),
    "container.write_container.bytes": ("container.write_container", "work", "bytes"),
    "vae.load_checkpoint.self_ms": ("vae.load_checkpoint", "self_ms", "ms"),
    "vae.model_from_checkpoint.ms": ("vae.model_from_checkpoint", "ms", "ms"),
    "vae.save_checkpoint.self_ms": ("vae.save_checkpoint", "self_ms", "ms"),
    "vae.encode_frames.ms": ("vae.encode_frames", "ms", "ms"),
    "vae.encode_frames.windows": ("vae.encode_frames", "work", "count"),
    "vae.decode_frames.ms": ("vae.decode_frames", "ms", "ms"),
    "vae.decode_frames.windows": ("vae.decode_frames", "work", "count"),
    "vae.train.self_ms": ("vae.train", "self_ms", "ms"),
    "vae.adam_step.ms": ("vae.adam_step", "ms", "ms"),
    "vae.adam_step.calls": ("vae.adam_step", "calls", "count"),
    "audio.load_wav.ms": ("audio.load_wav", "ms", "ms"),
    "audio.load_wav.bytes": ("audio.load_wav", "work", "bytes"),
    "audio.resample.ms": ("audio.resample", "ms", "ms"),
    "audio.resample.samples": ("audio.resample", "work", "count"),
    "audio.peak_normalize.ms": ("audio.peak_normalize", "ms", "ms"),
    "audio.window.ms": ("audio.window", "ms", "ms"),
    "audio.window.frames": ("audio.window", "work", "count"),
    "audio.save_wav.ms": ("audio.save_wav", "ms", "ms"),
    "audio.save_wav.bytes": ("audio.save_wav", "work", "bytes"),
    "interpolate.encode_audio.self_ms": ("interpolate.encode_audio", "self_ms", "ms"),
    "interpolate.stepwise_interpolate.self_ms": ("interpolate.stepwise_interpolate", "self_ms", "ms"),
    "interpolate.meso_interpolate.self_ms": ("interpolate.meso_interpolate", "self_ms", "ms"),
    "interpolate.extended_interpolate.self_ms": ("interpolate.extended_interpolate", "self_ms", "ms"),
    "interpolate.generate_curve.ms": ("interpolate.generate_curve", "ms", "ms"),
    "interpolate.decode_path.self_ms": ("interpolate.decode_path", "self_ms", "ms"),
    "interpolate.export_latents.ms": ("interpolate.export_latents", "ms", "ms"),
    "features.extract_thumbnail.ms": ("features.extract_thumbnail", "ms", "ms"),
    "features.extract_thumbnail.calls": ("features.extract_thumbnail", "calls", "count"),
    "features.thumbnails_per_file": ("features.extract_thumbnail", "per_file", "count/file"),
    "som.train_som.ms": ("som.train_som", "ms", "ms"),
    "som.train_som.presentations": ("som.train_som", "work", "count"),
    "som.assign_clusters.ms": ("som.assign_clusters", "ms", "ms"),
    "som.load_som.ms": ("som.load_som", "ms", "ms"),
    "som.save_som.ms": ("som.save_som", "ms", "ms"),
    "som.concatenate_cluster.self_ms": ("som.concatenate_cluster", "self_ms", "ms"),
}


class Recorder:
    """Collects spans while installed; the untraced program is left untouched."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id, work]
        self._stack = []
        self._patches = []  # (module, attribute, original)
        self.op = None
        self.files = set()  # distinct file refs thumbnailed

    def _wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack
        thumbnail = name == "features.extract_thumbnail"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counter(bound.arguments, result)
            if thumbnail:
                self.files.add(result.file_ref)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("latentaudio")]
        for (module, fn_name), counter in TRACED.items():
            original = getattr(sys.modules[f"latentaudio.{module}"], fn_name)
            wrapped = self._wrap(f"{module}.{fn_name}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def top_level_ns(self, op) -> int:
        return sum(s[2] - s[1] for s in self.spans if s[4] == op and s[3] is None)

    def stats(self) -> dict:
        """name -> {calls, ns, self_ns, work}, summed over every span."""
        child_ns = defaultdict(int)
        for s in self.spans:
            if s[3] is not None:
                child_ns[s[3]] += s[2] - s[1]
        out = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "work": 0})
        for i, s in enumerate(self.spans):
            row = out[s[0]]
            row["calls"] += 1
            row["ns"] += s[2] - s[1]
            row["self_ns"] += s[2] - s[1] - child_ns[i]
            row["work"] += s[5]
        return dict(out)

    def layer_metrics(self, rounds: int) -> dict:
        stats = self.stats()
        metrics = {}
        for metric, (name, stat, unit) in LAYER_METRICS.items():
            row = stats.get(name, {"calls": 0, "ns": 0, "self_ns": 0, "work": 0})
            if stat == "ms":
                value = row["ns"] / 1e6 / rounds
            elif stat == "self_ms":
                value = row["self_ns"] / 1e6 / rounds
            elif stat == "per_file":
                value = row["calls"] / rounds / len(self.files) if self.files else 0.0
            else:
                value = row[stat] / rounds
            metrics[metric] = {"value": value, "unit": unit}
        return metrics

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, work in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "work": work}) + "\n")
