"""Per-layer counters and timers, installed from outside the program.

``LayerTrace.install()`` wraps public functions of the program's modules
and rebinds every name in every ``hfourier`` module that refers to the
original object, so a call is counted wherever the calling module bound
it (``hfourier.wigner.hermite_selected``, ``hfourier.cli.forward_factored``,
...).  ``*.s`` is inclusive wall time, counted only at the outermost
level of a recursive or nested call to the same function; ``*.calls``
counts every call.
"""

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _lam_values(args, kw, result):
    return {"freq_space.FreqFunction.lam_values": int(np.size(args[3] if len(args) > 3 else kw["lam"]))}


def _hermite_values(args, kw, result):
    return {"hermite.hermite_rows.values": int(np.size(result))}


def _wigner_points(args, kw, result):
    return {"wigner.wigner_eval.points": int(np.size(result))}


def _file_bytes(args, kw, result):
    return {"fields.bytes": os.path.getsize(args[1] if len(args) > 1 else args[0])}


def _read_bytes(args, kw, result):
    return {"fields.bytes": os.path.getsize(args[0])}


# (module, attribute, metric prefix, extra counter)
TARGETS = [
    ("hfourier.cli", "main", "cli.main", None),
    ("hfourier.transform", "forward_factored", "transform.forward_factored", None),
    ("hfourier.transform", "inverse_on_grid", "transform.inverse_on_grid", None),
    ("hfourier.transform", "table_to_csv", "transform.table_to_csv", None),
    ("hfourier.transform", "table_from_csv", "transform.table_from_csv", None),
    ("hfourier.transform", "plancherel_norms", "transform.plancherel_norms", None),
    ("hfourier.transform", "forward_direct", "transform.forward_direct", None),
    ("hfourier.transform", "rep_matrix_coeff", "transform.rep_matrix_coeff", None),
    ("hfourier.hermite", "hermite_rows", "hermite.hermite_rows", _hermite_values),
    ("hfourier.hermite", "hermite_selected", "hermite.hermite_selected", None),
    ("hfourier.wigner", "wigner_eval", "wigner.wigner_eval", _wigner_points),
    ("hfourier.wigner", "wigner_conj_grid", "wigner.wigner_conj_grid", None),
    ("hfourier.wigner", "boundary_kernel", "wigner.boundary_kernel", None),
    ("hfourier.freq_space", "integrate", "freq_space.integrate", None),
    ("hfourier.distributions", "pair", "distributions.pair", None),
    ("hfourier.distributions", "fourier_distribution", "distributions.fourier_distribution", None),
    ("hfourier.distributions", "g_hat_boundary_batch", "distributions.g_hat_boundary_batch", None),
    ("hfourier.distributions", "_diagonal_band_sum", "distributions.band_sum", None),
    ("hfourier.profiles", "_bump_ratio", "profiles.bump_ratio", None),
    ("hfourier.fields", "read_field", "fields.read_field", _read_bytes),
    ("hfourier.fields", "write_field", "fields.write_field", _file_bytes),
]

# FreqFunction.__call__ is a method: it is wrapped on the class
FREQ_CALL = "freq_space.FreqFunction"

# every per-layer metric a traced run reports, zero where a layer is idle
METRICS = sorted(
    [f"{prefix}.s" for _, _, prefix, _ in TARGETS]
    + [f"{prefix}.calls" for _, _, prefix, _ in TARGETS]
    + [f"{FREQ_CALL}.s", f"{FREQ_CALL}.calls", f"{FREQ_CALL}.lam_values",
       "hermite.hermite_rows.values", "wigner.wigner_eval.points", "fields.bytes"]
)


class LayerTrace:
    """Counters for one process; ``snapshot()`` returns and clears them."""

    def __init__(self):
        self.values = defaultdict(float)
        self._active = defaultdict(int)
        self._undo = []
        self._paused = False

    def _wrap(self, fn, prefix, extra):
        values = self.values
        active = self._active

        def wrapper(*args, **kw):
            if self._paused:
                return fn(*args, **kw)
            values[prefix + ".calls"] += 1
            if active[prefix]:
                result = fn(*args, **kw)
            else:
                active[prefix] += 1
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kw)
                finally:
                    values[prefix + ".s"] += time.perf_counter() - t0
                    active[prefix] -= 1
            if extra is not None:
                for key, v in extra(args, kw, result).items():
                    values[key] += v
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hfourier" or name.startswith("hfourier."))]
        for mod_name, attr, prefix, extra in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(original, prefix, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        freq_cls = sys.modules["hfourier.freq_space"].FreqFunction
        self._undo.append((freq_cls, "__call__", freq_cls.__call__))
        freq_cls.__call__ = self._wrap(freq_cls.__call__, FREQ_CALL, _lam_values)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not counted."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def snapshot(self):
        out = {name: float(self.values.get(name, 0.0)) for name in METRICS}
        self.values.clear()
        return out
