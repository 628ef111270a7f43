"""Per-layer tracing of qfcsim from outside the package.

``Tracer.install`` replaces each public function of the layer modules with a
timing wrapper, in every qfcsim namespace that binds the function's name:
``channel``, ``bell``, ``drive`` and ``tomography`` import
``assert_density_matrix`` and ``concurrence`` by name, so wrapping only the
defining module would miss those calls. ``uninstall`` restores the
originals. ``linalg`` and ``errors`` are helpers and are not wrapped, so
their time counts as self time of their callers.

Wrappers record spans (name, parent span, start, end, ok) only while
``recording()`` is active; self time is a span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import subprocess
import sys
import time

import numpy as np

LAYERS = ("drive", "channel", "states", "bell", "tomography", "spectral", "cli")

# functions whose arguments or results feed a per-layer ratio; references are
# kept during the pass and evaluated afterwards, outside every span
_PROBED = ("tomography.mle_reconstruct", "bell.chsh_sweep", "spectral.compute_jsa",
           "spectral.temporal_intensity")

_PERCENTILES = {"p50_ms": 50, "p90_ms": 90}

# library eigenvalue cut-off of spectral.temporal_intensity
_KEPT_EIGENVALUE = 1e-9


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end, ok]
        self.probes = {name: [] for name in _PROBED}
        self._stack = []
        self._patches = []       # (namespace, attribute, original)
        self._active = False

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"qfcsim.{layer}")
            if module is None:
                continue
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{attr}")
        for modname, module in list(sys.modules.items()):
            if modname != "qfcsim" and not modname.startswith("qfcsim."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        cli = sys.modules.get("qfcsim.cli")
        if cli is not None:
            schema_lib = cli.jsonschema
            self._patch(schema_lib, "validate",
                        self._wrap(schema_lib.validate, "cli.summary_validate"))

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def _patch(self, namespace, attr, replacement) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def _wrap(self, fn, name):
        probe = self.probes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[4] = True
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                probe.append((args, result))
            return result

        return traced

    @contextlib.contextmanager
    def recording(self):
        self._active = True
        try:
            yield
        finally:
            self._active = False

    # -- reduction -----------------------------------------------------------

    def layer_stats(self) -> dict:
        """name -> {"calls", "self_s", "durations", "failed"}."""
        covered = [0.0] * len(self.spans)
        for _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        stats = {}
        for i, (name, _, t0, t1, ok) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": [],
                                        "failed": 0})
            s["calls"] += 1
            s["self_s"] += (t1 - t0) - covered[i]
            s["durations"].append(t1 - t0)
            s["failed"] += not ok
        return stats

    def span_metrics(self, names) -> dict:
        """Values of the metrics among ``names`` that are span fields.

        ``<span>.calls``, ``.self_s``, ``.failed`` and ``.p50_ms``/``.p90_ms``
        (percentiles of the span's duration); spans never entered give 0.
        """
        stats = self.layer_stats()
        empty = {"calls": 0, "self_s": 0.0, "failed": 0, "durations": []}
        out = {}
        for name in names:
            span, _, field = name.rpartition(".")
            if name == "cli.summary_validate_s":
                span, field = "cli.summary_validate", "self_s"
            s = stats.get(span, empty)
            if field in _PERCENTILES:
                durations = s["durations"]
                out[name] = (statistics.quantiles(durations, n=100)[_PERCENTILES[field] - 1] * 1e3
                             if len(durations) >= 2 else 0.0)
            elif field in ("calls", "self_s", "failed"):
                out[name] = s[field]
        return out

    def probe_metrics(self) -> dict:
        fits = [tuple(rec.counts for rec in args[0])
                for args, _ in self.probes["tomography.mle_reconstruct"]]
        intensity = [args[0].mat for args, _ in self.probes["spectral.temporal_intensity"]]
        kept = sum(int(np.sum(np.linalg.eigvalsh(m) > _KEPT_EIGENVALUE)) for m in intensity)
        grid_points = [res.amp.shape[0] for _, res in self.probes["spectral.compute_jsa"]]
        return {
            "tomography.mle_reconstruct.unique_input_frac":
                len(set(fits)) / len(fits) if fits else 0.0,
            "bell.chsh_sweep.points":
                sum(len(args[1]) for args, _ in self.probes["bell.chsh_sweep"]),
            "spectral.grid_bytes": max((n * n * 16 for n in grid_points), default=0),
            "spectral.temporal_intensity.kept_mode_frac":
                kept / sum(len(m) for m in intensity) if intensity else 0.0,
        }


def import_times(env: dict, repeats: int = 3) -> dict:
    """Median ``python -X importtime -c "import qfcsim.cli"`` figures, in s.

    ``import.total_s`` is the cumulative time of the top-level qfcsim
    entries; the others are the cumulative time of a module where it is
    first imported, 0 when it is not imported at all.
    """
    wanted = {"numpy": "import.numpy_s", "scipy.special": "import.scipy_special_s",
              "scipy.optimize": "import.scipy_optimize_s", "jsonschema": "import.jsonschema_s"}
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qfcsim.cli"],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120, check=True)
        found = dict.fromkeys(["import.total_s", *wanted.values()], 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative_s = int(parts[1]) * 1e-6
            name = parts[2].rstrip()
            if name.startswith(" qfcsim"):  # depth 0: one space after the bar
                found["import.total_s"] += cumulative_s
            key = wanted.get(name.strip())
            if key is not None and found[key] == 0.0:
                found[key] = cumulative_s
        samples.append(found)
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
