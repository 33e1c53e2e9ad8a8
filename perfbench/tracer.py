"""Outside-in tracing of the boolpow layers.

The tracer wraps every public function and method of each layer module
(the module's own definitions, not names it imports) and patches every
``boolpow.*`` namespace that binds the same object, so a function imported
by name elsewhere (``factorization`` imports ``enumerate_elements``) is
traced there too.  Nothing under ``src/`` changes: the wrappers live in
this file and are removed again by :meth:`Tracer.uninstall`.

A span (function, start, end, parent span, case id) is kept in flat
arrays in memory, up to :data:`SPAN_CAP` spans, and :meth:`Tracer.write_spans`
writes them out when the run ends.  Self time is a span's duration minus
the durations of its direct children; it is summed per function as each
span closes, so the metrics cover every span, kept or not.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array

LAYERS = (
    "seqs",
    "cantor",
    "homeo",
    "power",
    "autgroup",
    "algebra",
    "fraisse",
    "freealg",
    "factorization",
    "serialize",
    "cli",
)

# Functions reported one by one, as ``<layer>.<qualname>.calls`` / ``.self_s``.
FUNCTIONS = (
    "cantor.Clopen.make",
    "cantor.Clopen.union",
    "cantor.Clopen.intersect",
    "cantor.Clopen.complement",
    "cantor.TailClopen.make",
    "cantor.PointContext.region",
    "cantor.Table.make",
    "seqs.EPSet.union",
    "seqs.EPSet.intersect",
    "homeo.EPHomeo.make",
    "homeo.EPHomeo.compose",
    "homeo.EPHomeo.inverse",
    "homeo.EPHomeo.apply",
    "homeo.orbit_witness",
    "homeo.piecewise_glue",
    "power.PowerElement.make",
    "power.PowerElement.restrict",
    "power.refine",
    "power.apply_operation",
    "power.enumerate_elements",
    "autgroup.AutLabeling.make",
    "autgroup.AutLabeling.multiply",
    "autgroup.AutLabeling.pushforward",
    "autgroup.AutLabeling.act",
    "autgroup.element_through_homeo",
    "autgroup.PowerAutomorphism.apply",
    "autgroup.PowerAutomorphism.compose",
    "autgroup.PowerAutomorphism.inverse",
    "algebra.automorphisms",
    "algebra.idempotents",
    "freealg.clone_generate",
    "freealg.verify_rank_factorization",
    "fraisse.limit_chain",
    "fraisse.chain_covers",
    "factorization.pigeonhole_factor",
    "factorization.three_factor_split",
    "factorization.fixes_pointwise",
    "factorization.bergman_growth",
    "serialize.element_from_obj",
    "serialize.homeo_to_obj",
)

# Functions whose arguments are hashed, for ``<name>.repeat_frac``: the
# share of calls whose arguments already occurred earlier in the traced
# loop, an upper bound on what a memo cache could skip.
REPEAT_TRACKED = (
    "cantor.Clopen.make",
    "cantor.Clopen.union",
    "cantor.Clopen.intersect",
    "cantor.Clopen.complement",
    "cantor.PointContext.region",
    "homeo.EPHomeo.make",
    "power.PowerElement.make",
    "algebra.automorphisms",
)

CLI_SUBCOMMANDS = (
    "inspect-algebra",
    "build-power",
    "amalgamate",
    "extend-homogeneity",
    "fraisse-chain",
    "free-algebra",
    "reduce-idempotents",
    "demo-example-2-3",
    "factor-homeo",
    "bergman-growth",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.raised"] = "count"
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in REPEAT_TRACKED:
        units[f"{name}.repeat_frac"] = "fraction"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    return units


def _freeze(value):
    """A hashable stand-in for call arguments (lists, dicts and sets are
    turned into tuples, recursively)."""
    if isinstance(value, (list, tuple)):
        flat = tuple(value)
        try:
            hash(flat)  # the common case, cells of (word, label) pairs
            return flat
        except TypeError:
            return tuple(map(_freeze, value))
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(v) for v in value))
    return value


def _arg_key(args, kwargs) -> int:
    try:
        return hash((args, tuple(sorted(kwargs.items()))))
    except TypeError:
        pass
    try:
        return hash((_freeze(args), _freeze(kwargs)))
    except TypeError:
        return hash(repr((args, kwargs)))


def _lookup(wrapped: dict, obj):
    return wrapped.get(obj) if inspect.isfunction(obj) else None


# Spans kept in memory for the span log (48 bytes each).  The metrics are
# aggregated as calls complete and cover every span, kept or not.
SPAN_CAP = 1_500_000


class Tracer:
    """Span recorder over the boolpow layer modules.

    Create it after the workload's set-up, :meth:`install` it around the
    traced loop, set :attr:`case` before each case, then :meth:`uninstall`
    and read :meth:`metrics`.

    A span is recorded for every call of a function named in
    :data:`FUNCTIONS` or of the CLI, and for every call that enters a layer
    from another layer or from the benchmark.  A call to a public function
    from inside its own layer opens no span; its time stays in the
    enclosing span of that layer.
    """

    def __init__(self):
        self.names: list[str] = []  # function id -> "<layer>.<qualname>"
        self.layer_of: list[int] = []  # function id -> index into LAYERS
        self.fn_ids: dict[str, int] = {}
        # per function id
        self.calls = array("q")
        self.raised = array("q")
        self.self_s = array("d")
        self.total_s = array("d")
        self.repeats: dict[int, tuple[set, list]] = {}
        self.case = -1
        self.n_spans = 0
        # kept spans, in completion order
        self.sp_id = array("q")
        self.sp_fn = array("l")
        self.sp_t0 = array("d")
        self.sp_t1 = array("d")
        self.sp_parent = array("q")
        self.sp_case = array("l")
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.fn_ids[name] = fid
        for arr in (self.calls, self.raised, self.self_s, self.total_s):
            arr.append(0)
        if name in REPEAT_TRACKED:
            self.repeats[fid] = (set(), [0])
        return fid

    def _wrap(self, fn, fid: int, stacks):
        perf = time.perf_counter
        ids, layers, child = stacks
        calls, raised, self_s, total_s = self.calls, self.raised, self.self_s, self.total_s
        keep = (self.sp_id, self.sp_fn, self.sp_t0, self.sp_t1, self.sp_parent, self.sp_case)
        sp_id, sp_fn, sp_t0, sp_t1, sp_parent, sp_case = keep
        tracer = self
        layer = self.layer_of[fid]
        name = self.names[fid]
        named = name in FUNCTIONS or name.startswith("cli.")
        tracked = self.repeats.get(fid)

        def traced(*args, **kwargs):
            if tracked is not None:
                key = _arg_key(args, kwargs)
                seen, count = tracked
                if key in seen:
                    count[0] += 1
                else:
                    seen.add(key)
            if not named and layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            sid = tracer.n_spans
            tracer.n_spans = sid + 1
            parent = ids[-1] if ids else -1
            ids.append(sid)
            layers.append(layer)
            child.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[fid] += 1
                raise
            finally:
                t1 = perf()
                ids.pop()
                layers.pop()
                d = t1 - t0
                self_s[fid] += d - child.pop()
                if child:
                    child[-1] += d
                total_s[fid] += d
                calls[fid] += 1
                if sid < SPAN_CAP:
                    sp_id.append(sid)
                    sp_fn.append(fid)
                    sp_t0.append(t0)
                    sp_t1.append(t1)
                    sp_parent.append(parent)
                    sp_case.append(tracer.case)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions and methods of every layer module."""
        # open span ids, their layers, and the time of their finished children
        stacks = ([], [], [])
        modules = {
            layer: importlib.import_module(f"boolpow.{layer}") for layer in LAYERS
        }
        wrapped_functions = {}  # original function object -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    fid = self._register(f"{layer}.{attr}", layer)
                    wrapped_functions[obj] = self._wrap(obj, fid, stacks)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj, stacks)
        # Patch every boolpow namespace that binds a wrapped function, and
        # module-level tables of functions (the CLI dispatches through
        # COMMANDS, algebra.builtin through BUILTINS).
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "boolpow" or modname.startswith("boolpow.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, dict):
                    for key, fn in list(obj.items()):
                        wrapper = _lookup(wrapped_functions, fn)
                        if wrapper is not None:
                            self._patches.append((obj, key, fn))
                            obj[key] = wrapper
                    continue
                wrapper = _lookup(wrapped_functions, obj)
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        missing = [n for n in FUNCTIONS if n not in self.fn_ids]
        if missing:
            self.uninstall()
            raise RuntimeError(f"traced functions not found: {missing}")

    def _wrap_class(self, layer: str, cls, stacks):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                fid = self._register(name, layer)
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, fid, stacks)))
            elif isinstance(raw, classmethod):
                fid = self._register(name, layer)
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, fid, stacks)))
            elif inspect.isfunction(raw):
                fid = self._register(name, layer)
                self._set(cls, attr, self._wrap(raw, fid, stacks))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, overhead_s: float, untraced_s: float) -> dict[str, float]:
        """Every per-layer metric named by :func:`metric_units`."""
        n_fn = len(self.names)
        out: dict[str, float] = {}
        for li, layer in enumerate(LAYERS):
            ids = [f for f in range(n_fn) if self.layer_of[f] == li]
            out[f"{layer}.self_s"] = sum(self.self_s[f] for f in ids)
            out[f"{layer}.raised"] = sum(self.raised[f] for f in ids)
        for name in FUNCTIONS:
            fid = self.fn_ids[name]
            out[f"{name}.calls"] = self.calls[fid]
            out[f"{name}.self_s"] = self.self_s[fid]
        for name in REPEAT_TRACKED:
            fid = self.fn_ids[name]
            calls = self.calls[fid]
            out[f"{name}.repeat_frac"] = (
                self.repeats[fid][1][0] / calls if calls else 0.0
            )
        for sub in CLI_SUBCOMMANDS:
            fid = self.fn_ids[f"cli.cmd_{sub.replace('-', '_')}"]
            out[f"cli.{sub}.s"] = self.total_s[fid]
        out["trace.overhead_s"] = overhead_s
        out["trace.overhead_frac"] = overhead_s / untraced_s if untraced_s > 0 else 0.0
        return out

    def write_spans(self, path: str):
        """The kept spans as gzip CSV, in completion order: span, function,
        layer, start, end, parent span, case."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("span,function,layer,start_s,end_s,parent,case\n")
            names, layer_of = self.names, self.layer_of
            for i, fid in enumerate(self.sp_fn):
                fh.write(
                    f"{self.sp_id[i]},{names[fid]},{LAYERS[layer_of[fid]]},"
                    f"{self.sp_t0[i]:.9f},{self.sp_t1[i]:.9f},"
                    f"{self.sp_parent[i]},{self.sp_case[i]}\n"
                )
