"""Call wrapping for the frspec benchmark: set-up timers, spans and FFT counts.

Everything here wraps frspec from the outside.  frspec modules bind names
at import (``from .fields import convolve_quadratic``), so a wrapped
function is rebound in every loaded ``frspec`` module that holds it, and a
wrapped method is replaced on its class.  A wrapped entry point that does
not exist raises ``MissingEntryPoint`` naming it, and the worker turns an
entry point that a workload should call but never did into an error, so a
refactor cannot silently zero a layer metric.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

perf = time.perf_counter

LAYERS = (
    "geometry",
    "fields",
    "waves",
    "dyadic",
    "resonance",
    "forms",
    "solvers",
    "harness",
    "cli",
)

# Classes whose methods are named after the module alone: the module has one
# engine object, and the per-layer metric names follow that convention.
_CLASS_PREFIX = {"FormEngine": "forms", "TorusGeometry": "geometry"}

# Constructors that get spans.  Other constructors are cheap containers.
_TRACED_INITS = (
    "frspec.solvers:FilteredStepper.__init__",
    "frspec.solvers:LimitStepper.__init__",
    "frspec.forms:FormEngine.__init__",
    "frspec.waves:EigenBasis.__init__",
)

# Set-up calls timed in untraced runs.  Each runs a bounded number of times
# per workload (per data seed, per eps), never per time step.
SETUP_CALLS = (
    "frspec.harness:random_initial_data",
    "frspec.forms:FormEngine.__init__",
    "frspec.forms:FormEngine.tables",
    "frspec.solvers:FilteredStepper.__init__",
    "frspec.solvers:LimitStepper.__init__",
)

_CLI_COMMANDS = ("simulate", "limit", "sweep", "resonances", "audit", "norms")

_FFT_FUNCS = {
    # name: (dimensionality, real-space side), None = all axes
    "fft": (1, "either"),
    "ifft": (1, "either"),
    "rfft": (1, "input"),
    "irfft": (1, "output"),
    "fft2": (2, "either"),
    "ifft2": (2, "either"),
    "rfft2": (2, "input"),
    "irfft2": (2, "output"),
    "fftn": (None, "either"),
    "ifftn": (None, "either"),
    "rfftn": (None, "input"),
    "irfftn": (None, "output"),
}


class MissingEntryPoint(RuntimeError):
    """A wrapped frspec entry point does not exist."""


def _frspec_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "frspec" and m]


def _resolve(path: str):
    """'frspec.mod:func' or 'frspec.mod:Class.attr' -> (owner, attr, raw object)."""
    modname, _, attr = path.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError as exc:
        raise MissingEntryPoint(f"{path} (module not importable: {exc})") from exc
    parts = attr.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p, None)
        if owner is None:
            raise MissingEntryPoint(path)
    name = parts[-1]
    raw = owner.__dict__.get(name) if inspect.isclass(owner) else getattr(owner, name, None)
    if raw is None:
        raise MissingEntryPoint(path)
    return owner, name, raw


def _install(path: str, make_wrapper) -> None:
    """Replace the entry point at `path` by make_wrapper(original function)."""
    owner, name, raw = _resolve(path)
    if inspect.isclass(owner):
        if isinstance(raw, property):
            setattr(owner, name, property(make_wrapper(raw.fget), raw.fset, raw.fdel, raw.__doc__))
        elif inspect.isfunction(raw):
            setattr(owner, name, make_wrapper(raw))
        else:
            raise MissingEntryPoint(f"{path} (not a plain method or property)")
        return
    if not callable(raw):
        raise MissingEntryPoint(f"{path} (not callable)")
    wrapper = make_wrapper(raw)
    for mod in _frspec_modules():
        for key, val in list(vars(mod).items()):
            if val is raw:
                setattr(mod, key, wrapper)


def _first_access_only(fget, on_first):
    """Property getter that routes the first access per instance to on_first."""
    marker = "_perfbench_seen_" + fget.__name__

    @functools.wraps(fget)
    def getter(self):
        if marker in self.__dict__:
            return fget(self)
        self.__dict__[marker] = True
        return on_first(fget, self)

    return getter


# -- untraced runs: set-up time only --------------------------------------------------


class SetupTimer:
    """Records when the outermost set-up calls of one repetition ran."""

    def __init__(self):
        self.intervals = []  # (start, end) of each outermost set-up call
        self.calls = defaultdict(int)
        self.engines = []  # every FormEngine built, in order
        self._depth = 0

    def _timed(self, path, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[path] += 1
            self._depth += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.intervals.append((t0, perf()))

        return wrapper

    def install(self) -> None:
        for path in SETUP_CALLS:
            if path.endswith(":FormEngine.tables"):
                _install(path, lambda f, p=path: _first_access_only(f, self._timed(p, lambda g, s: g(s))))
            elif path.endswith(":FormEngine.__init__"):
                _install(path, lambda f, p=path: self._timed(p, _recording_init(f, self.engines)))
            else:
                _install(path, lambda f, p=path: self._timed(p, f))


def _recording_init(init, engines):
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    return wrapper


# -- traced runs: spans around every public call -------------------------------------


def _span_name_of_method(modname: str, cls: str, meth: str) -> str:
    short = modname.split(".")[-1]
    if meth == "__init__":
        return f"{short}.{cls}.init"
    return f"{_CLASS_PREFIX.get(cls, f'{short}.{cls}')}.{meth}"


def _convolve_name(args, kwargs):
    stencil = kwargs.get("stencil", args[2] if len(args) > 2 else "full")
    return f"fields.convolve_quadratic.{stencil}"


def _cli_name(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None) or sys.argv[1:]
    cmd = next((a for a in argv if a in _CLI_COMMANDS), "unknown")
    return f"cli.main.{cmd}"


_DYNAMIC_NAMES = {
    "frspec.fields:convolve_quadratic": _convolve_name,
    "frspec.cli:main": _cli_name,
}


class Tracer:
    """In-memory spans (name, parent, start, end) plus event counters.

    A span's parent is the span open when it started; all spans of one
    repetition share the tracer's run id.  `active` is cleared once the
    timed region ends, so the benchmark's own output checks are not traced.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: dict[str, float] = defaultdict(int)
        self.engines = []
        self.active = True
        self._stack: list[int] = []

    # -- wrappers --

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        dynamic = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name(args, kwargs) if dynamic else name, stack[-1] if stack else -1, perf(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf()
                stack.pop()

        return wrapper

    def _counting(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                counts[key + ".calls"] += 1
                counts[key + ".hits"] += bool(result)
            return result

        return wrapper

    def _fft_counter(self, fname, fn):
        ndim, side = _FFT_FUNCS[fname]
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            if self.active:
                xin = np.asarray(x)
                real = out if side == "output" else xin
                axes = kwargs.get("axes", kwargs.get("axis"))
                if axes is None:
                    s = kwargs.get("s")
                    k = ndim or (len(s) if s is not None else real.ndim)
                    axes = tuple(range(real.ndim - k, real.ndim))
                axes = (axes,) if np.isscalar(axes) else tuple(axes)
                per = int(np.prod([real.shape[a] for a in axes]))
                counts["fields.fft.transforms"] += real.size // max(per, 1)
                counts["fields.fft.points"] += real.size
                counts["fields.fft.bytes_computed"] += xin.nbytes + np.asarray(out).nbytes
            return out

        return wrapper

    # -- installation --

    def install_fft_counters(self) -> None:
        """Count transforms at the numpy.fft and scipy.fft entry points.

        Call before importing frspec, so `from scipy.fft import ...` binds
        the counting wrapper.
        """
        import numpy.fft
        import scipy.fft

        for mod in (numpy.fft, scipy.fft):
            for fname in _FFT_FUNCS:
                if hasattr(mod, fname):
                    setattr(mod, fname, self._fft_counter(fname, getattr(mod, fname)))

    def install(self) -> None:
        """Span every public function and method of every layer module."""
        for layer in LAYERS:
            modname = f"frspec.{layer}"
            mod = importlib.import_module(modname)
            for key, val in list(vars(mod).items()):
                if key.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == modname:
                    path = f"{modname}:{key}"
                    name = _DYNAMIC_NAMES.get(path, f"{layer}.{key}")
                    _install(path, lambda f, n=name: self._span(n, f))
                elif inspect.isclass(val) and val.__module__ == modname:
                    for meth, raw in list(vars(val).items()):
                        if meth.startswith("_") or not inspect.isfunction(raw):
                            continue
                        path = f"{modname}:{key}.{meth}"
                        name = _span_name_of_method(modname, key, meth)
                        _install(path, lambda f, n=name: self._span(n, f))
        for path in _TRACED_INITS:
            modname, _, attr = path.partition(":")
            cls = attr.split(".")[0]
            name = _span_name_of_method(modname, cls, "__init__")
            if cls == "FormEngine":
                _install(path, lambda f, n=name: self._span(n, _recording_init(f, self.engines)))
            else:
                _install(path, lambda f, n=name: self._span(n, f))
        _install(
            "frspec.forms:FormEngine.tables",
            lambda f: _first_access_only(f, self._span("forms.tables.build", lambda g, s: g(s))),
        )
        # kstar triad count from the return value of the standalone enumerator
        _install(
            "frspec.resonance:enumerate_kstar",
            lambda f: self._counting_len("resonance.kstar.triads", f),
        )
        # exact confirmations, split by the module whose float screen sent them
        _install_binding("frspec.forms", "exact_sqrt_sum_is_zero", lambda f: self._counting("forms.confirm", f))
        _install_binding(
            "frspec.resonance", "exact_sqrt_sum_is_zero",
            lambda f: self._counting("resonance.screen", f),
        )

    def _counting_len(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                counts[key] += len(result)
            return result

        return wrapper

    # -- output --

    def write_spans(self, path) -> None:
        import json

        with open(path, "w") as fh:
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps([self.run_id, i, parent, name, t0, t1]) + "\n")

    def aggregate(self) -> dict:
        """Per span name: calls, total_s, self_s and per-call durations.

        total_s counts a span only when no enclosing span has the same name,
        so recursion is not counted twice.  "__top__" holds the summed time
        of the outermost spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg: dict[str, dict] = {}
        top = 0.0
        for i, (name, parent, t0, t1) in enumerate(spans):
            d = t1 - t0
            a = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            a["calls"] += 1
            a["self_s"] += d - child[i]
            a["durations"].append(d)
            if parent < 0:
                top += d
            if not _has_ancestor(spans, parent, name):
                a["total_s"] += d
        agg["__top__"] = {"total_s": top}
        return agg


def _has_ancestor(spans, idx, name) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][1]
    return False


def _install_binding(modname: str, attr: str, make_wrapper) -> None:
    """Wrap the name `attr` as bound in one module only."""
    mod = importlib.import_module(modname)
    if not hasattr(mod, attr):
        raise MissingEntryPoint(f"{modname}:{attr}")
    setattr(mod, attr, make_wrapper(getattr(mod, attr)))
