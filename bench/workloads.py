"""The benchmark's workloads: fixed, seeded operation lists.

A workload is a list of operations that one caller runs in a closed loop,
each operation starting when the previous one has returned.  The seed
only changes the values of the generated arrays: the operation list, the
shapes, and therefore the work, are the same for every seed.  The library
receives nothing but these arrays (or CSV files written from them).

`tail_pct` is fixed per workload rather than read off the sample count.
The operations fall into latency classes of fixed shares; the chosen
percentile sits inside one class, or between classes of nearly equal
latency, so it does not jump when noise adds or removes a pass, and
`min_passes` guarantees at least ten samples beyond it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from gsvdkit import cli, gsvd, quotient, stats, subgeom, tikhonov

import oracle
from oracle import require

NAMES = ("factor", "analyses")


@dataclass(frozen=True)
class Op:
    """One library call: run(*args) is timed, check(result) is not.

    check raises oracle.CheckFailed or returns the factor defect in eps,
    None for operations whose results are not factors.
    """

    name: str
    run: Callable[..., Any]
    args: tuple
    check: Callable[[Any], float | None]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    min_passes: int
    tail_pct: float
    arrays: dict = field(default_factory=dict)


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate the named workload's inputs from `seed`; cli files go to `workdir`."""
    rng = np.random.default_rng(seed)
    if name == "factor":
        return _factor(rng)
    if name == "analyses":
        return _analyses(rng, seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


# ------------------------------------------------------------------ inputs

def gaussian_pair(rng, m1, m2, n):
    """Generic pair and its ranks (r, r_a, r_b)."""
    a = rng.standard_normal((m1, n))
    b = rng.standard_normal((m2, n))
    return a, b, (min(m1 + m2, n), min(m1, n), min(m2, n))


def rank_pair(rng, m1, m2, n, common_null, r_a, r_b):
    """Pair of ranks r_a, r_b sharing a `common_null`-dimensional nullspace.

    With r_a + r_b > n - common_null the stacked rank is n - common_null,
    so all three value classes (infinite, finite, zero) are present.
    """
    inner = n - common_null
    basis, _ = np.linalg.qr(rng.standard_normal((n, inner)))
    a = rng.standard_normal((m1, r_a)) @ rng.standard_normal((r_a, inner)) @ basis.T
    b = rng.standard_normal((m2, r_b)) @ rng.standard_normal((r_b, inner)) @ basis.T
    return a, b, (min(r_a + r_b, inner), r_a, r_b)


def first_difference(n: int) -> np.ndarray:
    return np.diff(np.eye(n), axis=0)


# ------------------------------------------------------------------ factor

# Operations look library functions up on their module at call time, so
# the traced run's wrappers on those module attributes see every call.
def _decompose(a, b):
    return gsvd.gsvd_decompose(a, b)


def _factor_op(name, a, b, ranks) -> Op:
    return Op(name, _decompose, (a, b), lambda f: oracle.factor_defect(f, a, b, ranks))


def _factor(rng) -> Workload:
    ops = [_factor_op("gate_1200_1000x800", *gaussian_pair(rng, 1200, 1000, 800))]
    ops += [_factor_op("mid_600_450x400", *gaussian_pair(rng, 600, 450, 400)) for _ in range(3)]
    for cfg in ((450, 350, 360, 40, 250, 200), (350, 450, 360, 40, 200, 250),
                (300, 300, 300, 60, 180, 150), (400, 200, 320, 20, 260, 120)):
        ops.append(_factor_op("rank_{}_{}x{}".format(*cfg[:3]), *rank_pair(rng, *cfg)))
    for m1, m2 in ((300, 250), (250, 300)):
        ops.append(_factor_op(f"graded_{m1}_{m2}x200_e-5", *_graded(rng, m1, m2, -5)))
    ops += [_factor_op("tall_30_2500x30", *gaussian_pair(rng, 30, 2500, 30)) for _ in range(2)]
    ops += [_factor_op("small_60_40x50", *gaussian_pair(rng, 60, 40, 50)) for _ in range(10)]
    # 22 ops.  By latency the graded pairs (45-55 % of the ops) hold the
    # median and the mid pairs (73-86 %) the tail.  The median is kept off
    # the small pairs on purpose: their time is mostly interpreter
    # overhead, which on a shared host drifts by half between runs, three
    # times as much as LAPACK-bound work does.  The tail is kept off the
    # tall pairs: their 2500 x 2500 factors make them memory-bound, and in
    # a spell of host contention they slowed by 22 %, against about 8 % for
    # the other pairs.
    #
    # Pairs whose B is small beside A are left out: the library loses
    # accuracy in their B rows (KNOWN_DEFECT below), and a benchmark run
    # must be one on which every operation passes the oracle.
    return Workload("factor", tuple(ops), min_passes=3, tail_pct=79.5)


# Pairs the library fails the oracle on at this commit.  B is small beside A,
# and the reconstruction error, all of it in the B rows, grows like
# 10^(2k) eps with the grading k: 6e-10 to 1.1e-9 relative for A * 10^5,
# against the suite's 1e-11.  Gaussian 2500/30 x 30 pairs show the same
# loss on about one seed in a hundred (1.8e-10 on the seed below).  The
# self-tests run these pairs as a strict expected failure, so the day the
# library is fixed the test turns red and they can rejoin `factor`.
KNOWN_DEFECT = {
    "graded_300_250x200_e+5": (1, lambda rng: _graded(rng, 300, 250, 5)),
    "graded_250_300x200_e+5": (2, lambda rng: _graded(rng, 250, 300, 5)),
    "tall_2500_30x30": (1021, lambda rng: gaussian_pair(rng, 2500, 30, 30)),
}


def _graded(rng, m1, m2, k):
    a, b, ranks = gaussian_pair(rng, m1, m2, 200)
    return a * 10.0**k, b, ranks


def known_defect_op(name: str) -> Op:
    seed, make = KNOWN_DEFECT[name]
    return _factor_op(name, *make(np.random.default_rng(seed)))


# ---------------------------------------------------------------- analyses

PARTITION = (600, 600, 600)
QUOTIENT_PAIRS = 6


def _tikhonov_path(a, l, b, lambdas):
    return tikhonov.solve_path(tikhonov.TikhonovProblem(a, l, b), lambdas)


def _check_path(a, l, b, lambdas):
    def check(path):
        require([lam for lam, _, _ in path] == list(lambdas), "path lambdas differ from the grid")
        oracle.path_deviation(a, l, b, lambdas, [x for _, x, _ in path])
        return None
    return check


def _cluster_design(partition):
    return stats.cluster_design(partition)


def _check_design(design) -> float:
    p = sum(PARTITION)
    require(design.u_split.shape == (p, p), f"u_split shape {design.u_split.shape}")
    mean_dev = float(np.max(np.abs(np.abs(design.u_split[:, 0]) - 1 / np.sqrt(p))))
    require(mean_dev <= oracle.ORTH_TOL, f"mean column deviates by {mean_dev:.2e}")
    orth = oracle.orth_loss(design.u_split)
    require(orth <= oracle.ORTH_TOL, f"u_split loss of orthogonality {orth:.2e}")
    return orth / oracle.EPS


def _discriminant(m, design):
    return stats.discriminant_reduce(m, design)


def _check_discriminant(m, design):
    k = len(PARTITION)
    before = oracle.pencil_values(design.u2.T @ m, design.u3.T @ m, k - 1)

    def check(result):
        g, mg = result
        require(g.shape == (m.shape[1], k - 1), f"G has shape {g.shape}")
        require(np.allclose(mg, m @ g, rtol=1e-12, atol=0), "MG differs from M @ G")
        after = oracle.pencil_values(design.u2.T @ mg, design.u3.T @ mg, k - 1)
        dev = float(np.max(np.abs(np.sqrt(after) - np.sqrt(before)) / np.sqrt(before)))
        require(dev <= oracle.DISCRIMINANT_TOL, f"generalized values drift by {dev:.2e}")
        return None
    return check


def _anova(design, v):
    return stats.anova_f(design, v)


def _check_anova(v):
    expected = oracle.anova_textbook_f(v, PARTITION)

    def check(report):
        dev = abs(report.f_value - expected) / expected
        require(dev <= oracle.ANOVA_TOL, f"F deviates from textbook by {dev:.2e}")
        return None
    return check


def _angles(a1, a2):
    return subgeom.principal_angles(a1, a2)


def _check_angles(a1, a2):
    reference = oracle.principal_cosines(a1, a2)

    def check(result):
        k = min(a1.shape[1], a2.shape[1])
        require(result.cosines.shape == (k,), f"{result.cosines.size} cosines, expected {k}")
        gap = float(np.max(np.abs(np.sort(result.cosines) - np.sort(reference[:k]))))
        require(gap <= oracle.ANGLE_TOL, f"cosines deviate from svd(Q1'Q2) by {gap:.2e}")
        orth = oracle.orth_loss(result.a1_vectors)
        require(orth <= oracle.ORTH_TOL, f"a1 vectors lose orthogonality by {orth:.2e}")
        return orth / oracle.EPS
    return check


def _quotient(a, b):
    return quotient.quotient_check(a, b)


def _check_quotient(ranks):
    r, r_a, r_b = ranks

    def check(result):
        gsv, sv_pab, _ = result
        require(gsv.size == r_a + r_b - r, f"{gsv.size} finite values, expected {r_a + r_b - r}")
        require(sv_pab.size == gsv.size, f"svd(P A B^+) has {sv_pab.size} values, gsv {gsv.size}")
        dev = float(np.max(np.abs(sv_pab - gsv) / gsv))
        require(dev <= oracle.QUOTIENT_TOL, f"svd(P A B^+) deviates by {dev:.2e}")
        return None
    return check


def _analyses(rng, seed: int, workdir: str) -> Workload:

    a_t = rng.standard_normal((2000, 200))
    l_t = first_difference(200)
    b_t = rng.standard_normal(2000)
    lambdas = tuple(float(x) for x in np.logspace(-3, 3, 100))
    p = sum(PARTITION)
    shifts = np.repeat(rng.standard_normal((len(PARTITION), 50)), PARTITION, axis=0)
    data = rng.standard_normal((p, 50)) + shifts
    design = stats.cluster_design(PARTITION)
    a1 = rng.standard_normal((1000, 50))
    a2 = rng.standard_normal((1000, 80))
    ops = [
        Op("tikhonov_path_2000x200", _tikhonov_path, (a_t, l_t, b_t, lambdas),
           _check_path(a_t, l_t, b_t, lambdas)),
        Op("cluster_design_3x600", _cluster_design, (PARTITION,), _check_design),
        Op("discriminant_1800x50", _discriminant, (data, design),
           _check_discriminant(data, design)),
        Op("anova_f_1800", _anova, (design, data[:, 0]), _check_anova(data[:, 0])),
        Op("principal_angles_1000_50_80", _angles, (a1, a2), _check_angles(a1, a2)),
    ]
    arrays = {"tikhonov_a": a_t, "tikhonov_b": b_t, "data": data, "a1": a1, "a2": a2}
    for i in range(QUOTIENT_PAIRS):
        # B = (150 x 120)(120 x 200) has rank 120 < r = 200: infinite values exist
        qa = rng.standard_normal((300, 200))
        qb = rng.standard_normal((150, 120)) @ rng.standard_normal((120, 200))
        ops.append(Op("quotient_300_150x200", _quotient, (qa, qb),
                      _check_quotient((200, 200, 120))))
        arrays.update({f"quotient_a{i}": qa, f"quotient_b{i}": qb})
    cli_ops, cli_arrays = _cli(rng, seed, workdir)
    arrays.update(cli_arrays)
    # 16 ops.  By latency anova_f, the CLI verify and tikhonov commands are
    # below the six quotient checks, and the CLI gsvd, discriminant_reduce,
    # principal_angles and the Tikhonov path above them.  The two Jacobi
    # commands and cluster_design are close to them, but on whichever side
    # they fall the median is a LAPACK-bound quotient check.  The tail
    # (90.6 %) sits in the middle of the principal_angles class: over twenty
    # runs its latency spread by 0.08, against 0.14 for discriminant_reduce
    # and 0.23 for the Tikhonov path, whose 1800- and 2000-row square
    # factors make them memory-bound.
    return Workload("analyses", tuple(ops) + cli_ops, min_passes=7, tail_pct=90.6,
                    arrays=arrays)


# --------------------------------------------------------------------- cli

def run_cli(argv):
    """Call gsvdkit.cli.main(argv) in process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def write_csv(path: str, m: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(m), fmt="%.17g", delimiter=",")


def _cli_ok(result, marker: str):
    code, out, err = result
    require(code == 0, f"exit code {code}: {err.strip()[-300:]}")
    require(marker in out, f"output lacks {marker!r}")


def _consume(*paths) -> None:
    # Outputs are removed once checked, so every pass has to write its own.
    for path in paths:
        os.remove(path)


def _check_output(marker: str, consumed=()):
    def check(result):
        _cli_ok(result, marker)
        _consume(*consumed)
        return None
    return check


def _check_cli_gsvd(a, b, json_path, prefix, ranks):
    def check(result):
        _cli_ok(result, "m1={} m2={} n={}".format(a.shape[0], b.shape[0], a.shape[1]))
        with open(json_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        f = _FactorsDoc(doc)
        require(np.array_equal(np.loadtxt(prefix + "_H.csv", delimiter=",", ndmin=2), f.h),
                "H CSV differs from the JSON document")
        _consume(*(f"{prefix}_{name}.csv" for name in "UVCSH"))
        return oracle.factor_defect(f, a, b, ranks)
    return check


class _FactorsDoc:
    """Raw factor fields of a factors JSON document, as arrays."""

    def __init__(self, doc):
        for key in ("u", "v", "c", "s", "h"):
            setattr(self, key, np.array(doc[key], dtype=float))
        self.v_col_of = np.array(doc["v_col_of"], dtype=int)
        self.r, self.r_a, self.r_b = int(doc["r"]), int(doc["ra"]), int(doc["rb"])


def _check_cli_tikhonov(a, l, b, lambdas, json_path):
    def check(result):
        _cli_ok(result, "||x||")
        with open(json_path, encoding="utf-8") as fh:
            rows = json.load(fh)["solutions"]
        require([row["lambda"] for row in rows] == list(lambdas), "lambdas differ from the grid")
        oracle.path_deviation(a, l, b, lambdas, [row["x"] for row in rows])
        _consume(json_path)
        return None
    return check


def _check_samples(path, count):
    def check(result):
        _cli_ok(result, f"samples={count} ")
        samples = np.loadtxt(path, delimiter=",", ndmin=2)
        require(samples.shape == (count, 1), f"samples file has shape {samples.shape}")
        require(np.all((samples >= 0) & (samples <= 1)), "samples outside [0, 1]")
        _consume(path)
        return None
    return check


def _cli(rng, seed: int, workdir: str):
    """The command-line path, called in process with files in `workdir`.

    Sized so that its interpreter-bound work (CSV parsing, JSON writing,
    the per-sample Jacobi loop) is a minority of the analyses pass and
    never holds its median: on a shared host that work drifts by up to
    half between runs.
    """
    def path(name):
        return os.path.join(workdir, name)

    a, b, ranks = gaussian_pair(rng, 120, 90, 70)
    a_t = rng.standard_normal((200, 40))
    l_t = first_difference(40)
    b_t = rng.standard_normal(200)
    lambdas = tuple(float(x) for x in np.logspace(-3, 3, 100))
    for name, m in (("a.csv", a), ("b.csv", b), ("ta.csv", a_t), ("tl.csv", l_t),
                    ("tb.csv", b_t[:, None])):
        write_csv(path(name), m)
    grid = ",".join(repr(x) for x in lambdas)
    jseed = str(seed % 2**31)
    ops = (
        Op("cli_gsvd_120_90x70", run_cli,
           (["gsvd", path("a.csv"), path("b.csv"), "--json", path("f.json"),
             "--csv-prefix", path("f")],),
           _check_cli_gsvd(a, b, path("f.json"), path("f"), ranks)),
        Op("cli_verify_120_90x70", run_cli,
           (["verify", path("a.csv"), path("b.csv"), path("f.json")],),
           _check_output("verify: OK", consumed=(path("f.json"),))),
        Op("cli_tikhonov_200x40", run_cli,
           (["tikhonov", path("ta.csv"), path("tl.csv"), path("tb.csv"),
             "--lambdas", grid, "--json", path("t.json")],),
           _check_cli_tikhonov(a_t, l_t, b_t, lambdas, path("t.json"))),
        Op("cli_jacobi_3_5_1_1000_out", run_cli,
           (["jacobi", "--m1", "3", "--m2", "5", "--n", "1", "--samples", "1000",
             "--seed", jseed, "--out", path("samples.csv")],),
           _check_samples(path("samples.csv"), 1000)),
        Op("cli_jacobi_10_12_4_b2_1000", run_cli,
           (["jacobi", "--m1", "10", "--m2", "12", "--n", "4", "--beta", "2",
             "--samples", "1000", "--seed", jseed],),
           _check_output("samples=1000 ")),
    )
    return ops, {"cli_a": a, "cli_b": b, "cli_tikhonov_a": a_t, "cli_tikhonov_b": b_t}
