"""Span-stack tracer that times qworlds' layers from outside the program.

`Tracer.install()` replaces, in every loaded qworlds module namespace that
binds them, each public module-level function, every public method and
`__post_init__` of qworlds classes, and the numpy entry points in KERNELS
with one timing wrapper per original. A wrapper pushes a frame on a span
stack; when the call returns, its self time (duration minus the time its
child spans cover) and its call count are added to in-memory totals keyed by
span name, `<layer>.<qualified name>`. `uninstall()` puts every original back.

Private helpers are not wrapped: their time lands in the public caller's self
time. Wrapping them as well multiplies the tracing overhead.
"""

from __future__ import annotations

import functools
import sys
import time
import types

import numpy as np

PACKAGE = "qworlds"
LAYERS = ("qmat", "algebra", "channels", "entangle", "protocols", "worlds", "cli", "numpy")
KERNELS = (
    (np, "kron"),
    (np, "einsum"),
    (np.linalg, "eigh"),
    (np.linalg, "eigvalsh"),
    (np.linalg, "svd"),
    (np.linalg, "qr"),
)
_EIG_KERNELS = ("eigh", "eigvalsh", "svd")

# Named groups of spans reported as per-layer metrics. What each should move:
# qmat.validate -> p50 and p90 on scenario-grid (small on teleport-trials);
# numpy.kron -> ops_per_s on teleport-trials (unchanged on scenario-grid);
# numpy.eig -> p90 on qudit-sweep (the d = 8 cells); entangle.teleport ->
# teleport-trials only; worlds.separate and separation_basis -> the dephased
# cells of scenario-grid p90 and of qudit-sweep (zero on quantum cells);
# channels.init -> scenario-grid p90. cli.render is about 2% of grid time, so
# a render-only change cannot clear the end-to-end bounds.
GROUPS = {
    "qmat.validate": ("qmat.as_complex_matrix", "qmat.as_unit_vector",
                      "qmat.require_hermitian", "qmat.require_density"),
    "qmat.partial_trace": ("qmat.partial_trace",),
    "qmat.eigh": ("qmat.eigh",),
    "numpy.kron": ("numpy.kron",),
    "numpy.eig": ("numpy.linalg.eigh", "numpy.linalg.eigvalsh", "numpy.linalg.svd"),
    "entangle.teleport": ("entangle.teleport",),
    "entangle.hjw": ("entangle.hjw_steering_measurement",),
    "entangle.state_init": ("entangle.BipartiteState.__post_init__",
                            "entangle.Ensemble.__post_init__",
                            "entangle.SchmidtDecomposition.__post_init__"),
    "channels.init": ("channels.KrausChannel.__post_init__",
                      "channels.ProjectiveMeasurement.__post_init__",
                      "channels.GeneralizedMeasurement.__post_init__",
                      "channels.DephasingChannel.__post_init__"),
    "worlds.separate": ("worlds.World.separate",),
    "worlds.separation_basis": ("worlds.World.separation_basis",),
    "protocols.run_commitment": ("protocols.run_commitment",),
    "protocols.no_signaling_trial": ("protocols.no_signaling_trial",),
    "cli.render": ("cli.ScenarioReport.render",),
}

BOOKKEEPING = "trace.bookkeeping"


def _layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if len(parts) == 2 and parts[0] == PACKAGE and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    """Per-span call counts and self times, plus the counters the kernels need."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # span name -> [calls, self seconds]
        self._root = [0.0]  # child time of the bottom frame: total top-level span time
        self._stack = [self._root]
        self._patches: list[tuple[object, str, object]] = []
        self.kron_bytes_out = 0
        self.eig_n3 = 0
        self.density_calls = 0
        self.density_repeats = 0
        self._seen: set[bytes] = set()

    # -- counters ------------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new operation: repeats of require_density are counted within one."""
        self._seen.clear()

    @property
    def top_level_s(self) -> float:
        """Total duration of spans that had no traced caller."""
        return self._root[0]

    def _note_density(self, args, kwargs) -> None:
        # hashing is bookkeeping, charged to its own span so no layer pays for it
        t0 = time.perf_counter()
        rho = np.asarray(args[0] if args else kwargs["rho"])
        key = rho.dtype.str.encode() + repr(rho.shape).encode() + rho.tobytes()
        self.density_calls += 1
        if key in self._seen:
            self.density_repeats += 1
        else:
            self._seen.add(key)
        dt = time.perf_counter() - t0
        entry = self.stats.setdefault(BOOKKEEPING, [0, 0.0])
        entry[0] += 1
        entry[1] += dt
        self._stack[-1][0] += dt

    def _note_kron(self, result, args, kwargs) -> None:
        self.kron_bytes_out += result.nbytes

    def _note_eig(self, result, args, kwargs) -> None:
        shape = np.shape(args[0] if args else kwargs["a"])
        m, n = shape[-2], shape[-1]
        self.eig_n3 += m * n * min(m, n)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur - frame[0]
                stack[-1][0] += dur
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        require_density = sys.modules[PACKAGE + ".qmat"].require_density
        wrappers: dict[int, object] = {}
        classes = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) and _layer_of(obj.__module__):
                    classes[id(obj)] = obj
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = _layer_of(obj.__module__)
                if layer is None:
                    continue
                if id(obj) not in wrappers:
                    before = self._note_density if obj is require_density else None
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__qualname__}", obj, before)
                self._patch(mod, attr, wrappers[id(obj)])
        for cls in classes.values():
            layer = _layer_of(cls.__module__)
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") and attr != "__post_init__":
                    continue
                if isinstance(obj, types.FunctionType):
                    new = self._wrap(f"{layer}.{obj.__qualname__}", obj)
                elif isinstance(obj, (classmethod, staticmethod)):
                    new = type(obj)(self._wrap(f"{layer}.{obj.__func__.__qualname__}", obj.__func__))
                else:
                    continue
                self._patch(cls, attr, new)
        for owner, attr in KERNELS:
            after = self._note_kron if attr == "kron" else self._note_eig if attr in _EIG_KERNELS else None
            name = f"{owner.__name__}.{attr}"
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), after=after))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def wrapped_names(self) -> set[str]:
        return {n for n in self.stats if n != BOOKKEEPING}

    def total(self, names) -> tuple[int, float]:
        calls = sum(self.stats[n][0] for n in names if n in self.stats)
        self_s = sum(self.stats[n][1] for n in names if n in self.stats)
        return calls, self_s

    def layer_total(self, layer: str) -> tuple[int, float]:
        return self.total([n for n in self.stats if n.split(".")[0] == layer])

    @property
    def bookkeeping_s(self) -> float:
        return self.stats.get(BOOKKEEPING, [0, 0.0])[1]
