"""In-memory span tracer that wraps recurlab's public functions from outside.

``Tracer.install`` replaces each named function at every ``recurlab``
module where it is bound (``recurlab.cli.classify`` and
``recurlab.recurrence.classify`` are one function bound twice), so calls
made through any of those names are recorded. ``recurlab`` itself is not
modified on disk. A span holds its name, start, end, parent span and pass
id, plus work counts taken from the call's arguments and result. Spans
stay in memory until ``save`` writes them once.

A function that no longer exists in recurlab is skipped: its metrics are
absent from the report, never an error.
"""

import functools
import importlib
import os
import sys
import time

import numpy as np


def _nbytes_mb(path):
    return os.path.getsize(path) / 1e6


def _translation_counts(ts):
    return {"entries": len(ts.entries),
            "accepted": sum(1 for e in ts.entries if e.accepted),
            "refined": sum(1 for e in ts.entries if e.refined)}


#: layer name -> work counts of one call, from (args, kwargs, result).
#: "kernels" stands for the module recurlab._kernels.
COUNTS = {
    "cli.run_config": None,
    "catalog.build_forcing": lambda a, k, r: {"samples": len(r)},
    "signal.write_signal_csv": lambda a, k, r: {"mb": _nbytes_mb(a[1] if len(a) > 1 else k["path"])},
    "signal.read_signal_csv": lambda a, k, r: {"mb": _nbytes_mb(a[0] if a else k["path"])},
    "signal.sup_distance": None,
    "maps.discrete_fiber_count": None,
    "recurrence.classify": None,
    "recurrence.translation_set_global": None,
    "recurrence.translation_set_remote": lambda a, k, r: _translation_counts(r),
    "recurrence.remotely_tau_periodic_test": None,
    "recurrence.remotely_stationary_test": None,
    "recurrence.omega_limit_sample": None,
    "recurrence.equi_ap_test": None,
    "recurrence.minimality_test": None,
    "kernels.sup_diff_capped": lambda a, k, r: {"melems": len(a[0]) / 1e6},
    "kernels.min_sliding_probe": lambda a, k, r: {"gops": len(a[2]) * len(a[3]) / 1e9},
    "kernels.min_sliding_sup": lambda a, k, r: {"offsets": len(a[2])},
    "kernels.aberth_grid": lambda a, k, r: {"points": np.shape(a[0])[0]},
    "algebra.roots_grid": lambda a, k, r: {"points": np.shape(r)[0]},
    "algebra.track_branches": None,
    "algebra.classify_branches": None,
    "algebra.zhikov_pipeline": None,
    "flows.integrate": None,
    "flows.hull_solutions": None,
    "flows.condition_h_margin": None,
    "flows.uniform_stability_probe": None,
    "flows.fiber_count": None,
    "delay.integrate_dde": lambda a, k, r: {"steps": len(r) - 1},
}

#: functions that get no span of their own: their counts are added to the
#: span that is open when they run (scipy's solve_ivp as bound in flows)
PROBES = {
    "flows.solve_ivp": lambda a, k, r: {"nfev": int(r.nfev)},
}


def module_of(layer):
    mod = layer.rsplit(".", 1)[0]
    return "recurlab._kernels" if mod == "kernels" else f"recurlab.{mod}"


def lookup(layer):
    """The function a layer name stands for, or None when recurlab lacks it."""
    try:
        mod = importlib.import_module(module_of(layer))
    except ImportError:
        return None
    return getattr(mod, layer.rsplit(".", 1)[1], None)


class Tracer:
    """Records spans for calls into the wrapped recurlab functions."""

    def __init__(self):
        self.names = list(COUNTS)
        self.present = set()
        # span: [name index, start, end, parent span or -1, pass id, counts or None]
        self.spans = []
        self.pass_id = -1
        self._stack = []
        self._patched = []

    def install(self):
        index = {name: i for i, name in enumerate(self.names)}
        for layer, count in list(COUNTS.items()) + list(PROBES.items()):
            orig = lookup(layer)
            if orig is None:
                continue
            if layer in COUNTS:
                self.present.add(layer)
                wrapper = self._span_wrapper(orig, index[layer], count)
            else:
                wrapper = self._probe_wrapper(orig, count)
            for name, mod in list(sys.modules.items()):
                if name != "recurlab" and not name.startswith("recurlab."):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def _span_wrapper(self, orig, name_idx, count):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = [name_idx, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                _add_counts(span, _safe_count(count, args, kwargs, result))
            return result

        return wrapper

    def _probe_wrapper(self, orig, count):
        spans = self.spans
        stack = self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            if stack:
                _add_counts(spans[stack[-1]], _safe_count(count, args, kwargs, result))
            return result

        return wrapper

    def pass_totals(self, pass_id):
        """{layer: {"s", "self_s", "calls", <counts>...}} over one pass."""
        totals = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in self.present}
        child_time = {}
        for sid, (ni, t0, t1, parent, pid, _) in enumerate(self.spans):
            if pid == pass_id and parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        for sid, (ni, t0, t1, parent, pid, counts) in enumerate(self.spans):
            if pid != pass_id:
                continue
            tot = totals[self.names[ni]]
            tot["s"] += t1 - t0
            tot["self_s"] += t1 - t0 - child_time.get(sid, 0.0)
            tot["calls"] += 1
            for key, val in (counts or {}).items():
                tot[key] = tot.get(key, 0) + val
        return totals

    def save(self, path):
        """Write every span once, as arrays (names, start, end, parent, pass)."""
        arr = np.array([s[:5] for s in self.spans], dtype=float).reshape(-1, 5)
        np.savez(path, names=np.array(self.names), name=arr[:, 0].astype(np.int16),
                 start=arr[:, 1], end=arr[:, 2], parent=arr[:, 3].astype(np.int64),
                 pass_id=arr[:, 4].astype(np.int16))


def _add_counts(span, counts):
    if counts:
        acc = span[5] = span[5] or {}
        for key, val in counts.items():
            acc[key] = acc.get(key, 0) + val


def _safe_count(count, args, kwargs, result):
    # a changed signature must cost a count, not the run
    try:
        return count(args, kwargs, result)
    except (TypeError, IndexError, KeyError, AttributeError, OSError):
        return None
