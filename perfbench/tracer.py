"""Run-time instrumentation of sqglab, installed from outside the package.

Nothing under ``src/`` knows about this module. ``instrument(mode)``
replaces functions by wrappers at every place they are bound: each
``sqglab`` module attribute that *is* the original function object is
swapped, so ``from .field import advect`` inside ``solver`` is covered as
well as ``sqglab.field.advect``. Leaving the context restores every
binding.

Modes, from lightest to heaviest:

``capture``
    Only ``outer_iterate`` and ``decompose_second_iterate`` are wrapped, to
    keep their return values (solve reports and gap parts) for the output
    checks. Used by the timed end-to-end calls.
``count``
    ``capture`` plus plain call counters on the FFT entry points and on the
    Lax-Milgram matvec. No clock is read. This is the untraced pass the
    traced pass is checked against.
``trace``
    Every public function of every sqglab module, scipy's ``gmres`` as bound
    in ``sqglab.solver``, grid construction and the numpy.fft / scipy.fft
    transforms get a span: name, start, end, parent, experiment-call id.
    Spans stay in memory; the caller writes them out when the run ends.
"""
from __future__ import annotations

import inspect
import itertools
import math
import os
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("grid", "field", "norms", "io", "solver", "patches", "counterexample", "inequalities", "experiments")

# transforms reachable from sqglab: np.fft.fft2/ifft2 directly, and the
# n-dimensional (r)fft family that scipy.signal.fftconvolve looks up on
# scipy.fft at call time
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
_REAL_FORWARD = ("rfft", "rfft2", "rfftn")
_REAL_INVERSE = ("irfft", "irfft2", "irfftn")

_CAPTURED = {"solver.outer_iterate": "reports", "counterexample.decompose_second_iterate": "parts"}
_COUNTED = ("solver.apply_lax_milgram_operator",)


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "call", "info")

    def __init__(self, sid, name, start, parent, call):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.call = call
        self.info = None

    def to_json(self) -> dict:
        out = {"id": self.sid, "name": self.name, "start": self.start, "end": self.end,
               "parent": self.parent, "call": self.call}
        if self.info:
            out["info"] = self.info
        return out


class Recorder:
    """Everything one instrumented experiment call leaves behind."""

    def __init__(self, call_id: int):
        self.call_id = call_id
        self.reports: list = []
        self.parts: list = []
        self.counts: dict[str, int] = {}
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []

    # -- counters ---------------------------------------------------------

    def bump(self, key: str) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1

    def keep(self, kind: str, value) -> None:
        with self._lock:
            getattr(self, kind).append(value)

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self._main_stack:
            # a pool thread's first span hangs under whatever the submitting
            # (main) thread is blocked in, e.g. experiments.parallel_map
            parent = self._main_stack[-1].sid
        else:
            parent = None
        span = Span(next(self._ids), name, 0.0, parent, self.call_id)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)


# -- wrappers -------------------------------------------------------------------

def _transform_size(name: str, args, kwargs) -> tuple[int, int]:
    """(points per transform, number of transforms) of one fft entry-point call."""
    x = args[0] if args else kwargs.get("x", kwargs.get("a"))
    shape = tuple(getattr(x, "shape", ()))
    if not shape:
        return 0, 0
    if name in ("fft", "ifft", "rfft", "irfft"):
        n = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("n")
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        axes = (axis,)
        s = (n,) if n is not None else None
    else:
        s = args[1] if len(args) > 1 else kwargs.get("s")
        axes = args[2] if len(args) > 2 else kwargs.get("axes")
        if axes is None:
            if name.endswith("2"):
                axes = (-2, -1)
            elif s is not None:
                axes = tuple(range(-len(s), 0))
            else:
                axes = tuple(range(-len(shape), 0))
    axes = tuple(a % len(shape) for a in axes)
    if s is None:
        s = [shape[a] for a in axes]
        if name in _REAL_INVERSE:
            s[-1] = 2 * (s[-1] - 1)
    points = int(math.prod(int(v) for v in s))
    batch = int(math.prod(shape[i] for i in range(len(shape)) if i not in axes))
    return points, batch


def _fft_info(name: str, args, kwargs, out) -> dict:
    points, batch = _transform_size(name, args, kwargs)
    per = 5.0 * points * math.log2(points) if points > 1 else 0.0
    if name in _REAL_FORWARD or name in _REAL_INVERSE:
        per *= 0.5
    x = args[0] if args else None
    nbytes = int(getattr(x, "nbytes", 0)) + int(getattr(out, "nbytes", 0))
    return {"points": points * batch, "flop": per * batch, "bytes": nbytes}


def _io_bytes(args, kwargs) -> int:
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _make_wrapper(fn, span_name: str, rec: "Recorder", trace: bool, count_key: str | None, keep: str | None):
    fft_name = span_name[4:] if span_name.startswith("fft.") else None
    is_io = span_name in ("io.write_field", "io.read_field")
    is_conv = span_name == "patches.convolve"

    def wrapper(*args, **kwargs):
        if count_key is not None:
            rec.bump(count_key)
        if not trace:
            out = fn(*args, **kwargs)
            if keep is not None:
                rec.keep(keep, out[1] if keep == "reports" else out)
            return out
        span = rec.open(span_name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if keep is not None:
            rec.keep(keep, out[1] if keep == "reports" else out)
        if fft_name is not None:
            span.info = _fft_info(fft_name, args, kwargs, out)
        elif is_io:
            span.info = {"bytes": _io_bytes(args, kwargs)}
        elif is_conv:
            span.info = {"samples": int(sum(p.values.size for p in out.patches))}
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", span_name)
    return wrapper


def _sqglab_modules():
    return [m for k, m in sorted(sys.modules.items()) if (k == "sqglab" or k.startswith("sqglab.")) and m is not None]


def _rebind(original, wrapper, modules, undo: list) -> None:
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapper)
                undo.append((mod, key, original))


def _targets(mode: str):
    """(span name, module, attribute) of everything the mode wraps."""
    import numpy.fft
    import scipy.fft

    import sqglab.experiments  # noqa: F401  (not imported by the package itself)

    mods = {name: sys.modules[f"sqglab.{name}"] for name in LAYERS}
    if mode == "capture":
        names = list(_CAPTURED)
    elif mode == "count":
        names = list(_CAPTURED) + list(_COUNTED)
    else:
        names = []
        for layer, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    names.append(f"{layer}.{attr}")
        names.append("solver.gmres")
    out = [(n, mods[n.split(".")[0]], n.split(".", 1)[1]) for n in names]
    if mode != "capture":
        for fmod in (numpy.fft, scipy.fft):
            out.extend((f"fft.{n}", fmod, n) for n in FFT_NAMES if hasattr(fmod, n))
    return out


@contextmanager
def instrument(mode: str, call_id: int):
    """Install wrappers for one experiment call; yields its Recorder."""
    if mode not in ("capture", "count", "trace"):
        raise ValueError(f"unknown instrumentation mode {mode!r}")
    rec = Recorder(call_id)
    trace = mode == "trace"
    modules = _sqglab_modules()
    undo: list = []
    try:
        for span_name, mod, attr in _targets(mode):
            original = getattr(mod, attr)
            counted = span_name.startswith("fft.") or span_name in _COUNTED
            wrapper = _make_wrapper(original, span_name, rec, trace,
                                    span_name if counted else None, _CAPTURED.get(span_name))
            if span_name.startswith("fft."):
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))
            else:
                _rebind(original, wrapper, modules, undo)
        if trace:
            from sqglab.grid import GridSpec

            post_init = GridSpec.__post_init__
            GridSpec.__post_init__ = _make_wrapper(post_init, "grid.GridSpec", rec, True, None, None)
            undo.append((GridSpec, "__post_init__", post_init))
        yield rec
    finally:
        for mod, key, original in reversed(undo):
            setattr(mod, key, original)


# -- span analysis ----------------------------------------------------------------

def _covered(intervals) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the part of it the span's children cover."""
    children: dict[int, list] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        kids = [(max(s, sp.start), min(e, sp.end)) for s, e in children.get(sp.sid, ())]
        out[sp.sid] = (sp.end - sp.start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer numbers of one traced call (see BENCHMARK.json per_layer)."""
    spans = rec.spans
    by_id = {sp.sid: sp for sp in spans}
    selfs = self_times(spans)

    def layer(name: str) -> str:
        return name.split(".", 1)[0]

    def outermost(sp: Span, key) -> bool:
        """No ancestor shares key(name): time nested in itself is not counted twice."""
        mine = key(sp.name)
        p = sp.parent
        while p is not None:
            up = by_id[p]
            if key(up.name) == mine:
                return False
            p = up.parent
        return True

    def named(*names):
        return [sp for sp in spans if sp.name in names]

    def dur(sps):
        return float(sum(sp.end - sp.start for sp in sps))

    def info(sps, key):
        return sum((sp.info or {}).get(key, 0) for sp in sps)

    def selfsum(sps):
        return float(sum(selfs[sp.sid] for sp in sps))

    def in_layer(lay):
        return [sp for sp in spans if layer(sp.name) == lay]

    def layer_s(lay):
        return dur([sp for sp in in_layer(lay) if outermost(sp, layer)])

    def named_s(name):
        return dur([sp for sp in named(name) if outermost(sp, str)])

    fft = in_layer("fft")
    fft_s = dur(fft)
    gflop = info(fft, "flop") / 1e9
    multipliers = ("field.dealias", "field.fractional_laplacian", "field.project_low", "field.low_pass_mask",
                   "field.heat_smooth", "field.translate", "field.rescale")
    matvecs = named("solver.apply_lax_milgram_operator")
    gmres_iters = sum(st.inner_iters for r in rec.reports for st in r.steps)
    m = {
        "fft.calls": len(fft),
        "fft.points": info(fft, "points"),
        "fft.s": fft_s,
        "fft.gflop_computed": gflop,
        "fft.gbytes_computed": info(fft, "bytes") / 1e9,
        "fft.gflops": gflop / fft_s if fft_s > 0 else 0.0,
        "grid.calls": len(named("grid.GridSpec")),
        "grid.s": layer_s("grid"),
        "field.advect.calls": len(named("field.advect")),
        "field.advect.self_s": selfsum(named("field.advect")),
        "field.velocity.self_s": selfsum(named("field.velocity_from_theta")),
        "field.multiplier.self_s": selfsum(named(*multipliers)),
        "field.product.self_s": selfsum(named("field.pointwise_product")),
        "field.self_s": selfsum(in_layer("field")),
        "norms.hs_norm.calls": len(named("norms.hs_norm")),
        "norms.self_s": selfsum(in_layer("norms")),
        "io.write.calls": len(named("io.write_field")),
        "io.read.calls": len(named("io.read_field")),
        "io.bytes": info(named("io.write_field", "io.read_field"), "bytes"),
        "io.s": layer_s("io"),
        "solver.outer_steps": sum(len(r.steps) for r in rec.reports),
        "solver.gmres_iters": gmres_iters,
        "solver.matvecs": len(matvecs),
        "solver.matvecs_per_iter": len(matvecs) / gmres_iters if gmres_iters else 0.0,
        "solver.matvec.s": dur(matvecs),
        "solver.gmres.self_s": selfsum(named("solver.gmres")),
        "solver.residual.s": named_s("solver.residual"),
        "solver.self_s": selfsum(in_layer("solver")),
        "patches.convolve.calls": len(named("patches.convolve")),
        "patches.convolve.samples": info(named("patches.convolve"), "samples"),
        "patches.convolve.s": dur(named("patches.convolve")),
        "patches.coalesce.s": named_s("patches.coalesce"),
        "patches.hs_norm.calls": len(named("patches.patch_hs_norm")),
        "patches.hs_norm.s": named_s("patches.patch_hs_norm"),
        "patches.to_torus.s": dur(named("patches.to_torus")),
        "counterexample.decompose.calls": len(named("counterexample.decompose_second_iterate")),
        "counterexample.build_forces.s": named_s("counterexample.build_forces"),
        "counterexample.self_s": selfsum(in_layer("counterexample")),
        "inequalities.samples": len(named("inequalities.sample_band_limited")),
        "inequalities.sample.s": dur(named("inequalities.sample_band_limited")),
        "inequalities.ratio.s": dur(named("inequalities.product_estimate_ratio",
                                          "inequalities.commutator_estimate_ratio")),
        "inequalities.self_s": selfsum(in_layer("inequalities")),
        "experiments.self_s": selfsum(in_layer("experiments")),
    }
    return {k: float(v) for k, v in m.items()}


def deterministic_counts(rec: Recorder) -> dict[str, int]:
    """Counts both the untraced (count) and the traced pass must agree on."""
    return {
        "fft.calls": sum(v for k, v in rec.counts.items() if k.startswith("fft.")),
        "solver.matvecs": rec.counts.get("solver.apply_lax_milgram_operator", 0),
        "solver.gmres_iters": sum(st.inner_iters for r in rec.reports for st in r.steps),
    }
