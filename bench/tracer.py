"""Per-layer tracing of finhom from outside the program.

``Tracer.install`` replaces every finhom function and method with a
wrapper, at every module binding of its name (``modules.py`` binds
``_snf_integer`` by ``from .smith import ...``, so that binding is
replaced too).  Each wrapper appends one span -- function id, parent
span, start, end -- to a flat in-memory array; ``dump`` writes the spans
at exit and ``metrics`` turns them into per-layer numbers.  A span's self
time is its duration minus the durations of its child spans.

Left unwrapped, so their time counts in their callers' self time:
``rings`` (called once per matrix entry), ``errors``, ``quiver`` (no
workload calls it), and the per-entry or per-lookup dunders listed in
``SKIP_METHODS`` (``Matrix.__hash__`` runs on every Smith cache lookup).
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time

LAYERS = ("matrix", "smith", "linsolve", "modules", "functors", "complexes",
          "cotorsion", "kaplansky", "model", "checks", "sampling", "workspace",
          "report", "cli")
SKIP_METHODS = {"__eq__", "__ne__", "__hash__", "__repr__", "__str__",
                "__setattr__", "__getitem__"}

# metric prefix -> (layer, qualified names whose spans it aggregates, fields)
FUNCTIONS = {
    "smith.snf_modular": ("smith", ("_snf_modular",), ("calls", "self_s")),
    "smith.snf_integer": ("smith", ("_snf_integer",), ("calls", "self_s")),
    "smith.solve_linear": ("smith", ("solve_linear",), ("calls", "self_s")),
    "smith.kernel_basis": ("smith", ("kernel_basis",), ("calls", "self_s")),
    "matrix.construct": ("matrix", ("Matrix.__init__",), ("calls",)),
    "matrix.mul": ("matrix", ("Matrix.__mul__",), ("calls",)),
    "matrix.kronecker": ("matrix", ("Matrix.kronecker",), ("calls",)),
    "linsolve.solve": ("linsolve", ("MatrixEquationSolver.solve",
                                    "MatrixEquationSolver.solution_basis"),
                       ("calls", "total_s", "self_s")),
    "complexes.chain_hom_module": ("complexes", ("chain_hom_module",), ("calls", "total_s")),
    "cotorsion.complex_class_member": ("cotorsion", ("complex_class_member",),
                                       ("calls", "total_s")),
    "kaplansky.icell_decompose": ("kaplansky", ("icell_decompose",), ("calls", "total_s")),
    "model.factor_map": ("model", ("factor_map",), ("calls", "total_s")),
    "model.solve_lifting": ("model", ("solve_lifting",), ("calls", "total_s")),
    "model.classify_map": ("model", ("classify_map",), ("calls", "total_s")),
    "functors.ext_n": ("functors", ("ext_n",), ("total_s",)),
    "functors.tor_n": ("functors", ("tor_n",), ("total_s",)),
    "workspace.parse_workspace": ("workspace", ("parse_workspace",), ("total_s",)),
    "cli.run_command": ("cli", ("run_command",), ("self_s",)),
}

SPAN = 4  # fid, parent index, start, end


def _layer_of(obj):
    mod = getattr(obj, "__module__", None) or ""
    if not mod.startswith("finhom."):
        return None
    layer = mod.split(".", 1)[1]
    return layer if layer in LAYERS else None


class Tracer:
    def __init__(self):
        self.names = []        # fid -> "layer:qualname"
        self.spans = array.array("d")
        self.stack = [-1]
        self._wrapped = {}     # id(original) -> wrapper
        # observations made on the results of a few functions
        self.distinct = {"_snf_modular": set(), "_snf_integer": set()}
        self.max_dim = {"_snf_modular": 0, "_snf_integer": 0}
        self.max_out_bits = 0
        self.max_cells = 0
        self.cells = 0

    # -- installation ----------------------------------------------------

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if name.startswith("finhom.") and name.split(".", 1)[1] in LAYERS]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj):
                    if _layer_of(obj) and obj.__module__ == mod.__name__:
                        self._wrap_class(obj)
                elif callable(obj) and _layer_of(obj) and hasattr(obj, "__qualname__"):
                    setattr(mod, attr, self._wrapper(obj, _layer_of(obj)))

    def _wrap_class(self, cls):
        layer = _layer_of(cls)
        for attr, member in list(vars(cls).items()):
            if attr in SKIP_METHODS:
                continue
            if isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self._wrapper(member.__func__, layer)))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self._wrapper(member.__func__, layer)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrapper(member, layer))

    def _wrapper(self, fn, layer):
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key]
        fid = len(self.names)
        qual = fn.__qualname__
        self.names.append(f"{layer}:{qual}")
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        extend = spans.extend
        observe = self._observer(qual)

        def traced(*args, **kwargs):
            idx = len(spans)
            extend((fid, stack[-1], clock(), 0.0))
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx + 3] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        functools.update_wrapper(traced, fn)
        self._wrapped[key] = traced
        return traced

    def _observer(self, qual):
        if qual in self.distinct:
            seen, dims = self.distinct[qual], self.max_dim

            def smith(args, form):
                A = args[0]
                seen.add(hash(A))
                dims[qual] = max(dims[qual], A.rows, A.cols)
                if qual == "_snf_integer":
                    bits = max((abs(x).bit_length() for M in (form.U, form.D, form.V)
                                for row in M.entries for x in row), default=0)
                    self.max_out_bits = max(self.max_out_bits, bits)
            return smith
        if qual == "MatrixEquationSolver._build":
            def system(args, out):
                self.max_cells = max(self.max_cells, out[0].rows * out[0].cols)
            return system
        if qual == "icell_decompose":
            def cells(args, chain):
                self.cells += len(chain.cells)
            return cells
        return None

    def reset_stack(self):
        """Drop frames left open by an interrupted call."""
        del self.stack[1:]

    # -- results -----------------------------------------------------------

    def dump(self, path: str):
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "span_fields": ["fid", "parent", "start", "end"]}, fh)
        with open(path + ".bin", "wb") as fh:
            self.spans.tofile(fh)

    def metrics(self) -> dict:
        s = self.spans
        n = len(s) // SPAN
        nf = len(self.names)
        calls = [0] * nf
        outer_total = [0.0] * nf
        child = array.array("d", bytes(8 * n))
        durs = array.array("d", bytes(8 * n))
        fids = array.array("i", bytes(4 * n))
        for i in range(n):
            b = i * SPAN
            fid = int(s[b])
            start, end = s[b + 2], s[b + 3]
            d = end - start if end > start else 0.0
            durs[i] = d
            fids[i] = fid
            calls[fid] += 1
            parent = int(s[b + 1])
            if parent >= 0:
                child[parent // SPAN] += d
        selft = [0.0] * nf
        for i in range(n):
            selft[fids[i]] += max(durs[i] - child[i], 0.0)

        index = {name: fid for fid, name in enumerate(self.names)}
        want_fids = {index[f"{layer}:{q}"] for layer, quals, fields in FUNCTIONS.values()
                     if "total_s" in fields for q in quals if f"{layer}:{q}" in index}
        # inclusive time counts outermost calls only, so recursion is not doubled
        for i in range(n):
            fid = fids[i]
            if fid not in want_fids:
                continue
            p = int(s[i * SPAN + 1])
            nested = False
            while p >= 0:
                if int(s[p]) == fid:
                    nested = True
                    break
                p = int(s[p + 1])
            if not nested:
                outer_total[fid] += durs[i]

        out = {}
        for layer in LAYERS:
            fs = [fid for fid, name in enumerate(self.names) if name.split(":")[0] == layer]
            out[f"{layer}.calls"] = sum(calls[f] for f in fs)
            out[f"{layer}.self_s"] = sum(selft[f] for f in fs)
        for prefix, (layer, quals, fields) in FUNCTIONS.items():
            fs = [index[f"{layer}:{q}"] for q in quals if f"{layer}:{q}" in index]
            per_field = {"calls": calls, "self_s": selft, "total_s": outer_total}
            for field in fields:
                out[f"{prefix}.{field}"] = sum(per_field[field][f] for f in fs)
        for qual, metric in (("_snf_modular", "smith.snf_modular"),
                             ("_snf_integer", "smith.snf_integer")):
            c = out[f"{metric}.calls"]
            out[f"{metric}.distinct_ratio"] = len(self.distinct[qual]) / c if c else 0.0
            out[f"{metric}.max_dim"] = self.max_dim[qual]
        out["smith.snf_integer.max_out_bits"] = self.max_out_bits
        out["linsolve.system.max_cells"] = self.max_cells
        out["kaplansky.cells"] = self.cells
        out["trace.spans"] = n
        return out
