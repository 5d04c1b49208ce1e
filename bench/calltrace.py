"""Call tracing for the benchmark's traced run.

The tracer replaces the public functions of the program's modules with
timing wrappers, at every module attribute a caller looks the function up
through (``polytopic_decompose`` is reached as ``geometry.``, ``classify.``
and ``pipeline.polytopic_decompose``), plus the public methods of
``channels.Channel`` and the LAPACK-backed ``numpy.linalg`` calls the
program makes.  The program's code is not edited, and ``uninstall`` puts
every original back.

Per name it keeps the call count, inclusive time (outermost calls only, so
recursion is not counted twice) and self time (inclusive time minus the time
of traced callees).  Spans ``(name, start, end, parent)`` are kept in memory
for every call above the primitive layer and written out by the caller when
the run ends; primitive calls (``channels``, ``linalg`` and ``numpy.linalg``)
are only counted, since a report makes hundreds of thousands of them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "chan_atlas"
MODULES = ("cli", "formats", "pipeline", "geometry", "classify", "entropy",
           "fixed_points", "channels", "linalg")
PRIMITIVE = ("channels", "linalg")
NUMPY_LINALG = ("svd", "eigh", "eigvalsh")


class Stat:
    __slots__ = ("calls", "s", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self.repeat_calls = 0
        self.natural_builds = 0
        self._stack = []      # per active call: [child time, span index or None]
        self._seen = set()    # (channel, n_directions, seed) of polytopic_decompose
        self._patched = []    # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------

    def _wrap(self, name, fn, span=True):
        stat = self.stats.setdefault(name, Stat())
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, None]
            if span:
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            stack.append(frame)
            stat.active += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat.active -= 1
                d = t1 - t0
                stat.calls += 1
                stat.self_s += d - frame[0]
                if not stat.active:
                    stat.s += d
                if stack:
                    stack[-1][0] += d
                if span:
                    spans[frame[1]][1:3] = (t0, t1)

        return traced

    def _count_repeats(self, fn):
        sig = inspect.signature(fn)

        def decompose(*args, **kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            key = (b.arguments["t"], b.arguments["n_directions"], b.arguments["seed"])
            if key in self._seen:
                self.repeat_calls += 1
            self._seen.add(key)
            return fn(*args, **kwargs)

        return decompose

    def _count_builds(self, fn):
        def natural_matrix(channel):
            if channel._natural is None:
                self.natural_builds += 1
            return fn(channel)

        return natural_matrix

    # -- patching -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        loaded = [m for k, m in sys.modules.items()
                  if k == PACKAGE or k.startswith(PACKAGE + ".")]
        replace = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                inner = self._count_repeats(fn) if name == "geometry.polytopic_decompose" else fn
                replace[fn] = self._wrap(name, inner, span=short not in PRIMITIVE)
        # every module attribute that a caller looks the function up through
        for mod in loaded:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replace:
                    self._set(mod, attr, replace[val])
        cls = mods["channels"].Channel
        for attr, fn in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            inner = self._count_builds(fn) if attr == "natural_matrix" else fn
            self._set(cls, attr, self._wrap(f"channels.{attr}", inner, span=False))
        for attr in NUMPY_LINALG:
            self._set(np.linalg, attr, self._wrap(f"linalg.{attr}", getattr(np.linalg, attr),
                                                  span=False))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def new_operation(self):
        """Calls repeat only within one operation."""
        self._seen.clear()

    # -- results --------------------------------------------------------

    def stat(self, name):
        return self.stats.get(name) or Stat()
