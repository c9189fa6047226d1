"""Spans and counters recorded around the public functions of ``driftless``.

The program is not instrumented.  ``Tracer.installed()`` replaces each
wrapped function at every place it is bound -- the defining module and
every ``driftless`` module that imported the name directly -- and restores
the originals on exit.  One process, one thread: the open spans form a
stack, so every span's parent is the span that was open when it started.

Spans are kept in flat arrays (about 30 bytes each) and written out once,
after the run.  Self time is a span's duration minus the durations of its
direct children.

Derived counters:

* ``simulate.rk4_steps``: ``len(trajectory.times) - 1`` of each fixed-step
  ``integrate_unicycle`` result.
* ``simulate.rk45_accepted``: nodes yielded by the private step generator
  ``simulate._step_stream`` while running the ``rk45`` method.
* ``simulate.rk45_rejected``: ``stage_evals / 7 - accepted``, where
  ``stage_evals`` counts ``unicycle_field`` calls made while that generator
  is advancing.  A Dormand-Prince step evaluates the field 7 times and the
  program does not reuse the last stage (no FSAL), so attempts are
  ``stage_evals / 7``.
* ``bessel.series_*`` / ``bessel.hankel_*``: classified from the argument,
  ``abs(x) <= SERIES_CUTOFF`` being the series branch.
* ``simulate.export_bytes``: size of the file each ``to_csv``/``to_json``
  call wrote.

``unicycle_field`` is counted, not spanned: it runs millions of times per
switching run, and its time stays in the caller's span.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

DP45_STAGES = 7

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "bessel.series_s": ("bessel.series",),
    "bessel.hankel_s": ("bessel.hankel",),
    "closedform.fit_s": (
        "closedform.fit_solution",
        "closedform.fit_constants",
        "closedform.basis_matrix",
    ),
    "closedform.eval_s": ("closedform.eval_solution",),
    "simulate.rk4_s": ("simulate.rk4",),
    "simulate.rk45_s": ("simulate.step_rk45",),
    "simulate.switch_s": ("simulate.run_switching",),
    "simulate.fast_attitude_s": ("simulate.propagate_fast_attitude",),
    "simulate.export_s": ("simulate.export",),
    "analysis.brockett_s": ("analysis.brockett_scan",),
    "analysis.certify_s": ("analysis.certify_stability",),
    "analysis.rho_positive_s": ("analysis.rho_positive_study",),
    "cli.self_s": ("cli.main",),
    "core.field_s": ("core.closed_loop_field",),
}
# per-layer metric -> span name whose number of spans it reports
CALL_METRICS = {
    "bessel.series_calls": "bessel.series",
    "bessel.hankel_calls": "bessel.hankel",
    "closedform.fit_calls": "closedform.fit_constants",
    "closedform.eval_calls": "closedform.eval_solution",
    "simulate.fast_attitude_calls": "simulate.propagate_fast_attitude",
    "cli.invocations": "cli.main",
    "core.field_calls": "core.closed_loop_field",
}
# harness work outside the items' timed regions
HARNESS_SPANS = ("harness.inputs", "harness.check")
ROOT_SPAN = "harness.run"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.item = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._streams = 0  # rk45 step generators currently advancing
        self.item_id = -1

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int_).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int_).copy(),
            "item": np.frombuffer(self.item, dtype=np.int_).copy(),
            "start": np.frombuffer(self.start).copy(),
            "end": np.frombuffer(self.end).copy(),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        return self_times(a["start"], a["end"], a["parent"])

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and number of spans, summed per span name."""
        names = np.frombuffer(self.name, dtype=np.int_)
        self_t = self.self_times()
        k = len(self.names)
        secs = np.bincount(names, weights=self_t, minlength=k)
        calls = np.bincount(names, minlength=k)
        return (
            {n: float(secs[i]) for i, n in enumerate(self.names)},
            {n: int(calls[i]) for i, n in enumerate(self.names)},
        )

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name_of, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _wrap_bessel(self, fn, cutoff, errors):
        @functools.wraps(fn)
        def wrapper(n, x):
            idx = self.open("bessel.series" if abs(x) <= cutoff else "bessel.hankel")
            try:
                return fn(n, x)
            except errors:
                self.counts["bessel.errors"] += 1
                raise
            finally:
                self.close(idx)

        return wrapper

    def _wrap_field(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["simulate.field_evals"] += 1
            if self._streams:
                counts["simulate.rk45_stage_evals"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_stream(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, q0, cfg, *args, **kwargs):
            gen = fn(f, q0, cfg, *args, **kwargs)
            adaptive = cfg.method == "rk45"
            name = "simulate.step_rk45" if adaptive else "simulate.step_rk4"
            while True:
                idx = tracer.open(name)
                tracer._streams += adaptive
                try:
                    node = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._streams -= adaptive
                    tracer.close(idx)
                if adaptive:
                    tracer.counts["simulate.rk45_accepted"] += 1
                yield node

        return wrapper

    def _replacements(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every function that is traced."""
        from driftless import analysis, bessel, cli, closedform, core, errors, simulate

        counts = self.counts
        fixed = lambda name: (lambda args, kwargs: name)  # noqa: E731
        out = []

        def add(module, attr, make):
            # A traced function that is gone would read as a zero count and
            # zero time, i.e. as a gain: fail instead, so the tracer is
            # updated together with the program.
            fn = getattr(module, attr, None)
            if fn is None:
                raise AttributeError(f"trace: {module.__name__}.{attr} not found; update bench/tracer.py")
            out.append((module, attr, make(fn)))

        cutoff = bessel.SERIES_CUTOFF
        errs = (errors.DomainError, errors.RangeError)
        for attr in ("bessel_j", "bessel_y"):
            add(bessel, attr, lambda fn: self._wrap_bessel(fn, cutoff, errs))
        for attr in ("fit_solution", "fit_constants", "basis_matrix", "eval_solution"):
            add(closedform, attr, lambda fn, a=attr: self._wrap(fn, fixed(f"closedform.{a}")))

        def rk4_name(args, kwargs):
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            return "simulate.rk4" if cfg.method == "rk4" else "simulate.integrate_unicycle"

        def count_steps(traj, args, kwargs):
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            if cfg.method == "rk4":
                counts["simulate.rk4_steps"] += len(traj.times) - 1

        add(simulate, "integrate_unicycle", lambda fn: self._wrap(fn, rk4_name, count_steps))
        for attr in ("integrate", "run_switching", "propagate_fast_attitude"):
            add(simulate, attr, lambda fn, a=attr: self._wrap(fn, fixed(f"simulate.{a}")))
        add(simulate, "unicycle_field", self._wrap_field)
        add(simulate, "_step_stream", self._wrap_stream)

        def count_bytes(result, args, kwargs):
            path = args[1] if len(args) > 1 else kwargs["path"]
            counts["simulate.export_bytes"] += os.path.getsize(path)

        for attr in ("to_csv", "to_json"):
            add(simulate.Trajectory, attr, lambda fn: self._wrap(fn, fixed("simulate.export"), count_bytes))

        def count_points(report, args, kwargs):
            counts["analysis.brockett_points"] += report.n_points

        add(analysis, "brockett_scan", lambda fn: self._wrap(fn, fixed("analysis.brockett_scan"), count_points))
        for attr in ("certify_stability", "asymptotics", "rho_positive_study"):
            add(analysis, attr, lambda fn, a=attr: self._wrap(fn, fixed(f"analysis.{a}")))
        add(cli, "main", lambda fn: self._wrap(fn, fixed("cli.main")))
        add(core, "closed_loop_field", lambda fn: self._wrap(fn, fixed("core.closed_loop_field")))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of each traced function; restore on exit."""
        replacements = self._replacements()
        modules = [m for n, m in sys.modules.items() if n.startswith("driftless")]
        saved = []
        try:
            for owner, attr, wrapper in replacements:
                original = wrapper.__wrapped__
                sites = [(owner, attr)]
                if not isinstance(owner, type):
                    sites += [
                        (m, n)
                        for m in modules
                        if m is not owner
                        for n, v in vars(m).items()
                        if v is original
                    ]
                for site, name in sites:
                    saved.append((site, name, getattr(site, name)))
                    setattr(site, name, wrapper)
            yield self
        finally:
            for site, name, value in reversed(saved):
                setattr(site, name, value)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics (without the harness ones) from spans and counters."""
    secs, calls = tracer.totals()
    c = tracer.counts
    m = {k: sum(secs.get(n, 0.0) for n in names) for k, names in SELF_TIME_METRICS.items()}
    m.update({k: calls.get(n, 0) for k, n in CALL_METRICS.items()})
    accepted = c["simulate.rk45_accepted"]
    attempts = c["simulate.rk45_stage_evals"] / DP45_STAGES
    m.update(
        {
            "bessel.errors": c["bessel.errors"],
            "simulate.rk4_steps": c["simulate.rk4_steps"],
            "simulate.field_evals": c["simulate.field_evals"],
            "simulate.rk45_accepted": accepted,
            "simulate.rk45_rejected": attempts - accepted,
            "simulate.rk45_accept_ratio": accepted / attempts if attempts else 0.0,
            "simulate.export_bytes": c["simulate.export_bytes"],
            "analysis.brockett_points": c["analysis.brockett_points"],
        }
    )
    return m


def harness_metrics(tracer: Tracer) -> dict[str, float]:
    """Harness self time and the share of the traced wall time that layer
    spans and harness work explain.

    The self time of ``harness.item`` is time inside an item's timed region
    that no layer span covers: program code the tracer does not wrap.  It is
    left out of the accounted share, so that unwrapped work lowers it.
    """
    secs, _ = tracer.totals()
    a = tracer.arrays()
    root = [i for i, n in enumerate(a["name"]) if tracer.names[n] == ROOT_SPAN]
    wall = sum(a["end"][i] - a["start"][i] for i in root)
    harness = sum(secs.get(n, 0.0) for n in HARNESS_SPANS)
    layers = sum(v for n, v in secs.items() if not n.startswith("harness."))
    return {
        "trace.harness_s": harness,
        "trace.accounted_frac": (layers + harness) / wall if wall > 0 else 0.0,
    }
