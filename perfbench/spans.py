"""Spans around the package's public functions, recorded from outside.

The traced run replaces every ``loccverify`` module attribute bound to a
listed function with one wrapper, so calls between layers (for example
``protocols.membership``) are recorded without editing the package. The
untraced run installs nothing. Spans stay in memory and are written out
after the measurement.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

PACKAGE = "loccverify"


def _membership(result, args, kwargs):
    return {"iterations": result.iterations,
            "shortcuts": int(result.iterations == 0)}


def _hausdorff(result, args, kwargs):
    samples = kwargs.get("samples", args[2] if len(args) > 2 else 2000)
    # The canonical Hermitian basis (dim**2 directions) comes first.
    return {"directions": samples + args[0].dim ** 2}


# module -> function -> work units read off one call, or None.
TARGETS = {
    "linalg": {"partial_trace": None, "trace_norm": None,
               "product_defect": None, "integrate_sqrt_smooth": None},
    "channels": {"choi": None, "choi_distance": None, "minimal_kraus": None,
                 "channel_from_leaf_povm": None},
    "zonoid": {
        "membership": _membership,
        "support_function": None,
        "hausdorff_estimate": _hausdorff,
        "separation_gap": None,
        "zonoid_spec_for_channel": None,
    },
    "protocols": {
        "build_protocol_pq": None,
        "verify_tree": lambda r, a, k: {"nodes": r.n_nodes},
        "protocol_leaf_diagonals": None,
        "main_branch_path": lambda r, a, k: {"breakpoints": r.s_values.size},
        "path_distance_bound": lambda r, a, k: {"grid_points": r.grid_points},
        "verify_theorem_conditions": None,
    },
    "pqubit": {"prelimit_coefficients": None, "multiplier_distance": None},
    "twoqubit": {
        "prelimit_channel": None, "limiting_family": None,
        "blocked_limiting_family": None, "coarse_grain_check": None,
        "blocked_isometry_check": None, "channel_zonoid": None,
        "instrument_zonoid": None,
    },
}


def bindings():
    """Every (module, attribute, name, function) binding of a target.

    Call it while no wrapper is installed: the functions found are the
    objects the package's home modules hold at that moment.
    """
    originals = {}
    for mod, funcs in TARGETS.items():
        home = importlib.import_module(f"{PACKAGE}.{mod}")
        for fn in funcs:
            originals[id(getattr(home, fn))] = (f"{mod}.{fn}",
                                                getattr(home, fn))
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE
                                  or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[1] is value:
                found.append((module, attr, hit[0], value))
    return found


def unwrapped(found) -> bool:
    """True when every binding still holds its original function object."""
    return all(getattr(module, attr) is orig
               for module, attr, _, orig in found)


class Tracer:
    """Records spans (name, start, end, parent, job, work) in flat lists.

    ``work`` holds the units a counter read off the call's result, such as
    solver iterations, or None.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.jobs: list[str] = []
        self.work: list[dict | None] = []
        self.stack: list[int] = []
        self.job = ""
        self._patched = []

    def _open(self, name: str) -> int:
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.jobs.append(self.job)
        self.work.append(None)
        self.ends.append(0)
        self.stack.append(i)
        self.starts.append(perf_counter_ns())
        return i

    def _close(self, i: int):
        self.ends[i] = perf_counter_ns()
        self.stack.pop()

    def job_span(self, job_id: str, kind: str):
        tracer = self

        class _Span:
            def __enter__(self):
                tracer.job = job_id
                self.i = tracer._open(f"job.{kind}")

            def __exit__(self, *exc):
                tracer._close(self.i)
                tracer.job = ""
                return False

        return _Span()

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if counter is not None:
                self.work[i] = counter(result, args, kwargs)
            return result

        return wrapper

    def install(self):
        found = bindings()
        wrappers = {}
        for module, attr, name, orig in found:
            if id(orig) not in wrappers:
                mod, fn = name.split(".")
                wrappers[id(orig)] = self._wrap(name, orig, TARGETS[mod][fn])
            setattr(module, attr, wrappers[id(orig)])
            self._patched.append((module, attr, orig))

    def remove(self):
        for module, attr, orig in self._patched:
            setattr(module, attr, orig)
        self._patched = []

    def mark(self) -> int:
        return len(self.starts)

    def summarize(self, lo: int, hi: int, scale: float) -> dict:
        """Busy and self time per span name over spans ``lo:hi``.

        Busy time is the summed duration; none of the traced functions
        call themselves, so no interval is counted twice. Self time is the
        duration minus the durations of direct children. Times are
        multiplied by ``scale``.
        """
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= lo:
                child[p - lo] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        ns = 1e-9 * scale
        for i in range(lo, hi):
            dur = self.ends[i] - self.starts[i]
            entry = out.setdefault(self.names[i], {
                "calls": 0, "busy_s": 0.0, "self_s": 0.0, "top_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += dur * ns
            entry["self_s"] += (dur - child[i - lo]) * ns
            if self.parents[i] < lo:
                entry["top_s"] += dur * ns
            for unit, n in (self.work[i] or {}).items():
                entry[unit] = entry.get(unit, 0) + n
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,job\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]},{self.ends[i]},"
                         f"{self.parents[i]},{self.jobs[i]}\n")
