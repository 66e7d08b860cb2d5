"""Span tracer for the benchmark's traced run.

The library is timed from outside: while installed, the tracer replaces
each function the per-layer metrics name with a wrapper, at every gsvdkit
module attribute that refers to it (a `from .gsvd import gsvd_decompose`
binding included), and replaces the numpy.linalg / scipy.linalg entry
points the library calls (the `lapack` layer).  A LAPACK call becomes a
span only when its caller is an open gsvdkit span, so the benchmark's own
input generation and checks are never counted.

A span holds a name, start, end, parent span and op id.  Spans stay in
flat arrays in memory and are reduced to per-layer metrics when the run
ends; self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = {
    "gsvd": ("gsvd_decompose", "compact", "rq_drilldown"),
    "matcore": ("thin_qr", "full_svd", "complete_basis", "pinv", "orth_basis",
                "nullspace_basis", "numerical_rank"),
    "tikhonov": ("solve_path", "base_factors"),
    "stats": ("cluster_design", "discriminant_reduce", "anova_f"),
    "subgeom": ("principal_angles",),
    "quotient": ("quotient_check", "horizontal_projector"),
    "jacobi": ("empirical_check", "sample_manova", "manova_matrix"),
    "cli": ("main", "read_matrix", "write_matrix", "factors_to_document", "_write_json"),
}

FAMILIES = ("svd", "svdvals", "qr", "eig", "solve")

MB = 1e6


# ------------------------------------------------ LAPACK operation counts
# Golub & Van Loan, Matrix Computations, operation counts for a matrix
# with m >= n rows (shapes are swapped otherwise); complex arithmetic
# counts four real flops per flop.  These are computed, not measured.

def _dims(x):
    # plain attribute reads: this runs on every traced LAPACK call
    shape = x.shape if isinstance(x, np.ndarray) else np.shape(x)
    m, n = (shape[-2], shape[-1]) if len(shape) >= 2 else (shape[0] if shape else 1, 1)
    scale = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    if isinstance(x, np.ndarray) and x.dtype.kind == "c":
        scale *= 4
    return max(m, n), min(m, n), scale


def _svd_flops(x, uv=True, full=True):
    m, n, k = _dims(x)
    if not uv:
        return k * min(4 * m * n * n - 4 * n**3 / 3, 2 * m * n * n + 2 * n**3)
    if full:
        return k * min(4 * m * m * n + 8 * m * n * n + 9 * n**3, 4 * m * m * n + 22 * n**3)
    return k * min(14 * m * n * n + 8 * n**3, 6 * m * n * n + 20 * n**3)


def _qr_flops(x, q=True, full=False):
    m, n, k = _dims(x)
    flops = 2 * n * n * (m - n / 3)
    if q:
        flops += 4 * (m * m * n - m * n * n + n**3 / 3) if full else 4 * m * n * n - 4 * n**3 / 3
    return k * flops


def _cube(x, per_n3):
    m, _, k = _dims(x)
    return k * per_n3 * m**3


def _svd_cost(a, full_matrices=True, compute_uv=True, *_, **__):
    return ("svd" if compute_uv else "svdvals"), _svd_flops(a, compute_uv, full_matrices)


def _svdvals_cost(a, *_, **__):
    return "svdvals", _svd_flops(a, uv=False)


def _norm_cost(x, ord=None, *_, **__):
    if ord in (2, -2) and np.ndim(x) == 2:
        return "svdvals", _svd_flops(x, uv=False)
    return None, 0.0  # vector and Frobenius norms are not LAPACK work


def _np_qr_cost(a, mode="reduced"):
    return "qr", _qr_flops(a, q=mode != "r", full=mode == "complete")


def _sp_qr_cost(a, overwrite_a=False, lwork=None, mode="full", *_, **__):
    return "qr", _qr_flops(a, q=mode not in ("r", "raw"), full=mode == "full")


def _lstsq_cost(a, b, *_, **__):
    m, n, k = _dims(a)
    return "solve", _svd_flops(a, uv=False) + k * 4 * m * n * _dims(b)[1]


def _solve_cost(a, b, *_, **__):
    return "solve", _cube(a, 2 / 3) + 2 * _dims(a)[0] ** 2 * _dims(b)[1]


def _cossin_cost(x, *_, compute_u=True, compute_vh=True, **__):
    # No operation count is given for the CS decomposition of an m x m
    # orthogonal X; it is counted as a full SVD of X.  X may come as its
    # four blocks (x11, x12, x21, x22).
    if not isinstance(x, np.ndarray):
        m = np.shape(x[0])[0] + np.shape(x[2])[0]
        x = np.broadcast_to(0.0, (m, m))
    uv = compute_u or compute_vh
    return ("svd" if uv else "svdvals"), _svd_flops(x, uv)


def _lu_solve_cost(lu_and_piv, b, *_, **__):
    return "solve", 2 * _dims(lu_and_piv[0])[0] ** 2 * _dims(b)[1]


# The entry points the package calls, plus the siblings a change of route
# would most likely switch to: numpy svdvals, scipy svd, and scipy cossin,
# the CS-decomposition route to the GSVD.
LAPACK = (
    ("numpy.linalg", "svd", _svd_cost),
    ("numpy.linalg", "svdvals", _svdvals_cost),
    ("numpy.linalg", "norm", _norm_cost),
    ("numpy.linalg", "qr", _np_qr_cost),
    ("numpy.linalg", "eigh", lambda a, *_, **__: ("eig", _cube(a, 9))),
    ("numpy.linalg", "eigvalsh", lambda a, *_, **__: ("eig", _cube(a, 4 / 3))),
    ("numpy.linalg", "solve", _solve_cost),
    ("numpy.linalg", "lstsq", _lstsq_cost),
    ("scipy.linalg", "svd", _svd_cost),
    ("scipy.linalg", "svdvals", _svdvals_cost),
    ("scipy.linalg", "cossin", _cossin_cost),
    ("scipy.linalg", "qr", _sp_qr_cost),
    ("scipy.linalg", "rq", _sp_qr_cost),
    ("scipy.linalg", "lu_factor", lambda a, *_, **__: ("solve", _cube(a, 2 / 3))),
    ("scipy.linalg", "lu_solve", _lu_solve_cost),
)


def _nbytes(result) -> int:
    if isinstance(result, np.ndarray):
        return result.nbytes
    if isinstance(result, (tuple, list)):
        return sum(_nbytes(x) for x in result)
    return 0


# ----------------------------------------------------------- count probes
# Counts taken where the work happens, after the wrapped call returns.

def _full_svd_probe(tracer, args, result):
    tracer.counters["matcore.full_svd.out_bytes"] += result[0].nbytes + result[2].nbytes


def _compact_probe(tracer, args, result):
    if tracer.inside("tikhonov."):
        tracer.counters["tikhonov.cols_kept"] += result.u.shape[1] + result.v.shape[1]
        tracer.counters["tikhonov.cols_computed"] += args[0].u.shape[1] + args[0].v.shape[1]


def _requested_probe(tracer, args, result):
    tracer.counters["jacobi.samples_requested"] += args[1]


def _file_probe(counter):
    def probe(tracer, args, result):
        tracer.counters[counter] += os.path.getsize(args[0])
    return probe


PROBES = {
    "matcore.full_svd": _full_svd_probe,
    "gsvd.compact": _compact_probe,
    "jacobi.empirical_check": _requested_probe,
    "cli.read_matrix": _file_probe("cli.read_bytes"),
    "cli.write_matrix": _file_probe("cli.write_bytes"),
    "cli._write_json": _file_probe("cli.json_bytes"),
}


def metric_specs():
    """(name, unit, better) of every per-layer metric, in emission order."""
    specs = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            specs += [(f"{layer}.{fn}.calls", "count", "lower"),
                      (f"{layer}.{fn}.self_s", "s", "lower")]
    specs += [
        ("gsvd.svdvals_per_decompose", "count", "lower"),
        ("gsvd.fallback_ratio", "1", "lower"),
        ("matcore.full_svd.out_mb", "MB", "lower"),
        ("tikhonov.kept_col_ratio", "1", "higher"),
        ("jacobi.draws_per_sample", "1", "lower"),
        ("cli.read_mb", "MB", "lower"),
        ("cli.write_mb", "MB", "lower"),
        ("cli.json_mb", "MB", "lower"),
        ("lapack.calls", "count", "lower"),
        ("lapack.self_s", "s", "lower"),
        ("lapack.share", "1", "higher"),
    ]
    for fam in FAMILIES:
        specs += [(f"lapack.{fam}.calls", "count", "lower"),
                  (f"lapack.{fam}.self_s", "s", "lower")]
    specs += [("lapack.gflop", "GFLOP", "lower"),
              ("lapack.out_mb", "MB", "lower"),
              ("trace.overhead_pct", "%", "lower")]
    return specs


def _ratio(num, den):
    return float(num) / den if den else 0.0


class Tracer:
    """Records spans while installed and an op id is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.rows = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(float)
        self.op_id = -1           # -1: calls pass straight through
        self._stack: list[int] = []
        self._in_lapack = False
        self._patches: list = []

    # -------------------------------------------------------- recording

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, args) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        shape = getattr(args[0], "shape", ()) if args else ()
        self.rows.append(shape[0] if shape else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def inside(self, prefix: str) -> bool:
        """Is a span whose name starts with `prefix` open?"""
        return any(self.names[self.name_id[sid]].startswith(prefix) for sid in self._stack)

    def _wrap_library(self, name, fn):
        probe = PROBES.get(name)
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            sid = self._open(nid, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if probe is not None:
                probe(self, args, result)
            return result
        return wrapper

    def _wrap_lapack(self, cost, fn):
        nids = {fam: self._name_id("lapack." + fam) for fam in FAMILIES}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id < 0 or not self._stack or self._in_lapack:
                return fn(*args, **kwargs)
            family, flops = cost(*args, **kwargs)
            if family is None:
                return fn(*args, **kwargs)
            sid = self._open(nids[family], args)
            self._in_lapack = True
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
                self._in_lapack = False
            self.counters["lapack.flops"] += flops
            self.counters["lapack.out_bytes"] += _nbytes(result)
            return result
        return wrapper

    # ----------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every traced function at each module attribute bound to it."""
        import gsvdkit  # noqa: F401  (the package must be loaded to be found)

        library = [m for k, m in sys.modules.items() if k == "gsvdkit" or k.startswith("gsvdkit.")]
        for layer, fns in LAYERS.items():
            module = sys.modules.get(f"gsvdkit.{layer}")
            for fn in fns:
                original = getattr(module, fn, None)
                if original is not None:
                    self._patch(library, original, self._wrap_library(f"{layer}.{fn}", original))
        for module_name, attr, cost in LAPACK:
            original = getattr(sys.modules[module_name], attr, None)
            if original is not None:
                self._patch([sys.modules[module_name]] + library, original,
                            self._wrap_lapack(cost, original))

    def _patch(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -------------------------------------------------------- reduction

    def layer_metrics(self, passes: int, job_s: float) -> dict[str, float]:
        """Per-pass per-layer metrics over `passes` traced passes taking `job_s` in total."""
        n, k = len(self.start), len(self.names)
        nid = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        rows = np.array(self.rows, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        self_s = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
        calls_by_id = np.bincount(nid, minlength=k)
        self_by_id = np.bincount(nid, weights=self_s, minlength=k)

        def ids(prefix):
            return [i for i, name in enumerate(self.names) if name.startswith(prefix)]

        def total(by_id, name):
            return float(by_id[self._ids[name]]) if name in self._ids else 0.0

        out = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = total(calls_by_id, name) / passes
                out[f"{name}.self_s"] = total(self_by_id, name) / passes
        decomposes = total(calls_by_id, "gsvd.gsvd_decompose")
        in_decompose = nested & np.isin(np.where(nested, nid[parent], -1), ids("gsvd.gsvd_decompose"))
        svdvals = np.count_nonzero(in_decompose & np.isin(nid, ids("lapack.svdvals")))
        fallback = np.count_nonzero(in_decompose & np.isin(nid, ids("matcore.full_svd"))
                                    & (rows != rows[parent]))
        c = self.counters
        out["gsvd.svdvals_per_decompose"] = _ratio(svdvals, decomposes)
        out["gsvd.fallback_ratio"] = _ratio(fallback, decomposes)
        out["matcore.full_svd.out_mb"] = c["matcore.full_svd.out_bytes"] / MB / passes
        out["tikhonov.kept_col_ratio"] = _ratio(c["tikhonov.cols_kept"], c["tikhonov.cols_computed"])
        out["jacobi.draws_per_sample"] = _ratio(total(calls_by_id, "jacobi.sample_manova"),
                                                c["jacobi.samples_requested"])
        out["cli.read_mb"] = c["cli.read_bytes"] / MB / passes
        out["cli.write_mb"] = c["cli.write_bytes"] / MB / passes
        out["cli.json_mb"] = c["cli.json_bytes"] / MB / passes
        lapack = ids("lapack.")
        out["lapack.calls"] = float(calls_by_id[lapack].sum()) / passes
        out["lapack.self_s"] = float(self_by_id[lapack].sum()) / passes
        out["lapack.share"] = _ratio(self_by_id[lapack].sum(), job_s)
        for fam in FAMILIES:
            out[f"lapack.{fam}.calls"] = total(calls_by_id, f"lapack.{fam}") / passes
            out[f"lapack.{fam}.self_s"] = total(self_by_id, f"lapack.{fam}") / passes
        out["lapack.gflop"] = c["lapack.flops"] / 1e9 / passes
        out["lapack.out_mb"] = c["lapack.out_bytes"] / MB / passes
        return out
