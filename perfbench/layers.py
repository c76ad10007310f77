"""Per-layer metrics of a traced round, measured from outside the program.

A deterministic profiler (cProfile, builtins off) runs only while an item
computes.  Its per-function records are grouped by the module of
`src/curvlab/` they belong to: self time per layer, call counts of chosen
functions, and cumulative time inside chosen entry points.  Call counts
repeat exactly between runs on the same seed; times do not.
"""

from __future__ import annotations

import cProfile
import importlib
import os
import pstats

LAYERS = ["fields", "gradedlin", "algebra", "mc", "semisimple", "coalgebra",
          "convolution", "barcobar", "modelcheck"]

# metric -> functions ("module:qualified name") whose call counts are summed
CALLS = {
    "gradedlin.vec_calls": ["gradedlin:" + f for f in
                            ("vec_add", "vec_sub", "vec_scale", "vec_is_zero", "vec_eq", "vec_key")],
    "gradedlin.rref_calls": ["gradedlin:rref"],
    "gradedlin.solve_calls": ["gradedlin:solve", "gradedlin:kernel_basis"],
    "gradedlin.echelon_adds": ["gradedlin:EchelonBasis.add"],
    "gradedlin.echelon_reduces": ["gradedlin:EchelonBasis.reduce"],
    "gradedlin.linear_systems": ["gradedlin:LinearSystem.__init__"],
    "algebra.product_calls": ["algebra:CurvedAlgebra.product"],
    "algebra.is_mc_calls": ["algebra:CurvedAlgebra.is_mc"],
    "mc.gauge_queries": ["mc:GaugeClasses.equivalent", "mc:find_gauge_quadruple"],
    "mc.gauge_searches": ["mc:GaugeClasses.quadruple"],
    "mc.homotopy_solves": ["mc:LinearSystem.solution"],
    "semisimple.radical_calls": ["semisimple:graded_radical"],
    "semisimple.ideal_closures": ["semisimple:_ideal_closure"],
    "semisimple.nilpotency_tests": ["semisimple:_ideal_is_nilpotent"],
    "coalgebra.coradical_calls": ["coalgebra:coradical"],
    "convolution.builds": ["convolution:convolution_algebra"],
    "barcobar.mc_hom_calls": ["barcobar:mc_hom_enumerate"],
}

# metric -> function whose cumulative time (children included) is reported
CUMULATIVE = {
    "mc.search_s": "mc:GaugeClasses.quadruple",
    "mc.quadruple_validate_s": "mc:GaugeQuadruple.validate",
    "semisimple.radical_s": "semisimple:graded_radical",
    "convolution.build_s": "convolution:convolution_algebra",
    "barcobar.mc_hom_s": "barcobar:mc_hom_enumerate",
    "barcobar.filtration_s": "barcobar:coradical_filtration_stages",
    "modelcheck.fibration_s": "modelcheck:is_fibration_mcdg",
}

# every per-layer metric in the order BENCHMARK.json lists them, with unit
# and better direction
METRICS = (
    [(f"{m}.self_s", "s", "lower") for m in LAYERS]
    + [("fields.calls", "count", "lower")]
    + [(m, "count", "lower") for m in CALLS]
    + [("mc.memo_hit_ratio", "ratio", "higher")]
    + [(m, "s", "lower") for m in CUMULATIVE]
    + [("modelcheck.pairs_checked", "count", "lower"),
       ("trace.compute_s", "s", "lower")]
)


def _code_key(spec: str):
    """The profiler's key (file, first line, name) of "module:qualname";
    None if the program no longer has that function."""
    module, qualname = spec.split(":")
    obj = importlib.import_module(f"curvlab.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    code = getattr(obj, "__code__", None)
    return None if code is None else (code.co_filename, code.co_firstlineno, code.co_name)


class LayerProfile:
    """A profiler switched on around each computation."""

    def __init__(self):
        self.profile = cProfile.Profile(builtins=False)

    def __enter__(self):
        self.profile.enable()
        return self

    def __exit__(self, *exc):
        self.profile.disable()
        return False

    def metrics(self, pairs_checked: int, compute_s: float, cpu_s: float) -> dict:
        """The per-layer metrics; the profiler's times are scaled by
        compute_s / cpu_s, the round's reference time over its CPU time."""
        import curvlab

        pkg = os.path.dirname(os.path.abspath(curvlab.__file__))
        stats = pstats.Stats(self.profile).stats  # key -> (cc, nc, tt, ct, callers)
        scale = compute_s / cpu_s
        out = {f"{m}.self_s": 0.0 for m in LAYERS}
        fields_calls = 0
        for (filename, _, _), (_, nc, tt, _, _) in stats.items():
            if os.path.dirname(os.path.abspath(filename)) != pkg:
                continue
            module = os.path.splitext(os.path.basename(filename))[0]
            if module in LAYERS:
                out[f"{module}.self_s"] += tt * scale
            if module == "fields":
                fields_calls += nc
        out["fields.calls"] = fields_calls
        for metric, specs in CALLS.items():
            keys = [_code_key(s) for s in specs]
            out[metric] = sum(stats[k][1] for k in keys if k in stats)
        queries, searches = out["mc.gauge_queries"], out["mc.gauge_searches"]
        out["mc.memo_hit_ratio"] = 1 - searches / queries if queries else 0.0
        for metric, spec in CUMULATIVE.items():
            k = _code_key(spec)
            out[metric] = stats[k][3] * scale if k in stats else 0.0
        out["modelcheck.pairs_checked"] = pairs_checked
        out["trace.compute_s"] = compute_s
        return out

    def top_functions(self, n: int = 40) -> list:
        """The n functions with the most self time, for the trace file."""
        stats = pstats.Stats(self.profile).stats
        rows = sorted(stats.items(), key=lambda kv: -kv[1][2])[:n]
        return [{"function": f"{os.path.basename(f)}:{line}:{name}", "calls": nc,
                 "self_s": tt, "cumulative_s": ct}
                for (f, line, name), (_, nc, tt, ct, _) in rows]
