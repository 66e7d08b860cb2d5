"""Command line front end.

Subcommands: gsvd, tikhonov, anova, ellipse, angles, reduce, jacobi,
verify.  Matrices come in as headerless CSV (RFC-4180 quoting, '.'
decimal) and go out as CSV with 17 significant digits, byte for byte
what np.savetxt(path, m, fmt="%.17g", delimiter=",") writes.  Structured
output is JSON with one top-level key per line and list entries (matrix
rows, Tikhonov solutions) one per line; floats are written as their
Python repr, so they round-trip exactly, and infinite generalized values
are spelled as the token "inf", never as an IEEE infinity.  Exit codes:
0 ok, 2 parse, 3 dimension/partition, 4 rank precondition, 5 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import gsvd, jacobi, stats, subgeom, tikhonov
from .errors import (
    CsvParseError,
    DimensionMismatch,
    DocumentError,
    GsvdKitError,
    InvalidPartition,
)
from .matcore import Tolerance

CSV_FMT = "%.17g"
_ELLIPSE_SAMPLES = 64


# ---------------------------------------------------------------- file I/O

def read_matrix(path: str, header: bool = False) -> np.ndarray:
    rows = []
    try:
        # utf-8-sig skips the byte-order mark spreadsheet programs write
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            if header:
                next(reader, None)
            for cells in reader:
                if not cells:
                    continue
                # the file line the record ends on: a quoted cell can span lines
                lineno = reader.line_num
                try:
                    row = list(map(float, cells))
                except ValueError as exc:
                    raise CsvParseError(f"{path}:{lineno}: {exc}") from exc
                if not all(map(math.isfinite, row)):
                    raise CsvParseError(f"{path}:{lineno}: non-finite value")
                if rows and len(row) != len(rows[0]):
                    raise CsvParseError(
                        f"{path}:{lineno}: expected {len(rows[0])} columns, got {len(row)}"
                    )
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path}: {exc}") from exc
    except csv.Error as exc:
        # a record the csv module refuses, such as a field past its size limit
        raise CsvParseError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def read_vector(path: str, header: bool = False) -> np.ndarray:
    m = read_matrix(path, header)
    if 1 not in m.shape:
        raise DimensionMismatch(f"{path}: expected a single row or column, got {m.shape}")
    return m.ravel()


def write_matrix(path: str, m: np.ndarray) -> None:
    m = np.atleast_2d(m)
    row_fmt = ",".join([CSV_FMT] * m.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for row in m:
            fh.write(row_fmt % tuple(row.tolist()))


# ----------------------------------------------------------- factor documents

def factors_to_document(f: gsvd.GsvdFactors, tol: Tolerance, convention: str) -> dict:
    return {
        "m1": f.m1, "m2": f.m2, "n": f.n,
        "r": f.r, "ra": f.r_a, "rb": f.r_b,
        "convention": convention,
        "compact": f.compact,
        "tolerance": {"rel": tol.rel, "abs": 0.0},
        "u": f.u.tolist(),
        "v": f.v.tolist(),
        "c": f.c.tolist(),
        "s": f.s.tolist(),
        "h": f.h.tolist(),
        "v_col_of": [int(j) for j in f.v_col_of],
        **_derived_keys(f),
    }


def _derived_keys(f: gsvd.GsvdFactors) -> dict:
    # The document keys computed from the factors alone, in document order;
    # `verify` compares a document's with these.
    angles = f.theta()
    return {
        "structure": dataclasses.asdict(gsvd.structure_counts(f)),
        "generalized_values": ["inf" if np.isinf(x) else float(x) for x in f.cotangents()],
        "angles": angles.tolist(),
        "apportionment": {
            "theta_lo": stats.THETA_LO,
            "theta_hi": stats.THETA_HI,
            "labels": list(stats._band_labels(angles)),
        },
    }


def factors_from_document(doc) -> gsvd.GsvdFactors:
    """The factors a `factors_to_document` document holds, checked first.

    DocumentError (exit 2) unless the document is an object holding every
    key the factors need, the dimensions and ranks as nonnegative integers,
    `convention` as "bottom" or "top", `v_col_of` as integers and `compact`
    as a boolean; DimensionMismatch (exit 3) unless U, V, H and the value
    lists have the shapes those dimensions and ranks give, V has room for
    rb sine columns, and the ranks agree with the values: `ra` counts the
    nonzero c_i that U has a column for (a positive c_i past U's last
    column is a misplaced entry, which `verify` reports), and `rb` the
    nonzero s_i, the factors' r_b.  The sine block starts where
    `convention` puts it: at V's right end for a full-format bottom layout,
    else at its first column.
    The document's own `v_col_of` is checked for its type and shape only;
    `verify` compares it with the factors'.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"expected a JSON object, got {type(doc).__name__}")
    dims = ("m1", "m2", "n", "r", "ra", "rb")
    arrays = ("u", "v", "c", "s", "h")
    missing = [key for key in (*dims, "convention", "compact", *arrays, "v_col_of")
               if key not in doc]
    if missing:
        raise DocumentError(f"missing keys: {', '.join(missing)}")
    for key in dims:
        if type(doc[key]) is not int or doc[key] < 0:
            raise DocumentError(f"{key} must be a nonnegative integer, got {doc[key]!r}")
    convention = doc["convention"]
    if convention not in ("bottom", "top"):
        raise DocumentError(f'convention must be "bottom" or "top", got {convention!r}')
    if not isinstance(doc["compact"], bool):
        raise DocumentError(f"compact must be true or false, got {doc['compact']!r}")
    m1, m2, n, r, ra, rb = (doc[key] for key in dims)
    compact = doc["compact"]
    shapes = ((m1, ra if compact else m1), (m2, rb if compact else m2), (r,), (r,), (r, n))
    fields = {key: _document_array(doc[key], key, shape) for key, shape in zip(arrays, shapes)}
    _document_array(doc["v_col_of"], "v_col_of", (r,))
    if rb > fields["v"].shape[1]:
        raise DimensionMismatch(f"rb = {rb} exceeds V's {fields['v'].shape[1]} columns")
    bottom = convention == "bottom" and not compact
    f = gsvd.GsvdFactors(**fields, v_start=m2 - rb if bottom else 0, compact=compact)
    counts = (np.count_nonzero(f.c[: f.u.shape[1]]), f.r_b)
    if counts != (ra, rb):
        raise DimensionMismatch(
            f"ra = {ra} and rb = {rb}, but the document has {counts[0]} nonzero "
            f"cosines and {counts[1]} nonzero sines"
        )
    return f


def _document_array(value, key: str, shape: tuple) -> np.ndarray:
    # A document entry as an array of the given shape; H of a rank-0 pair
    # has no rows, and JSON writes it as [].  NumPy would truncate a
    # fractional column index, so v_col_of must hold integers already.
    if key == "v_col_of" and not (isinstance(value, list)
                                  and all(type(j) is int for j in value)):
        raise DocumentError("v_col_of must be a list of integers")
    try:
        x = np.array(value, dtype=int if key == "v_col_of" else float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"{key}: {exc}") from exc
    if x.size == 0 == math.prod(shape):
        return x.reshape(shape)
    if x.shape != shape:
        raise DimensionMismatch(
            f"{key} has shape {x.shape}, expected {shape} from the document's "
            "dimensions and ranks"
        )
    return x


def _write_json(path: str, doc: dict) -> None:
    # json.dump with an indent runs the pure-Python encoder; json.dumps
    # without one runs the C encoder.  So the layout (one top-level key
    # per line, one list entry per line) is written here, each piece is
    # encoded by json.dumps, and each is written as soon as it is encoded.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        key_sep = "\n"
        for key, value in doc.items():
            fh.write(key_sep + json.dumps(key) + ": ")
            key_sep = ",\n"
            if isinstance(value, list) and value:
                item_sep = "[\n"
                for item in value:
                    fh.write(item_sep + json.dumps(item))
                    item_sep = ",\n"
                fh.write("\n]")
            else:
                fh.write(json.dumps(value))
        fh.write("\n}\n")


def _fmt_values(tokens) -> str:
    return ", ".join(t if isinstance(t, str) else repr(t) for t in tokens)


# ---------------------------------------------------------------- subcommands

def cmd_gsvd(args) -> int:
    a = read_matrix(args.a, args.header)
    b = read_matrix(args.b, args.header)
    tol = Tolerance(rel=args.tol)
    f = gsvd.gsvd_decompose(a, b, tol, compact=args.compact)
    if args.convention == "top":
        f = gsvd.with_top_convention(f)
    # With --json the document holds the derived keys and is printed from;
    # without it, U, V and H are never made into lists.
    doc = factors_to_document(f, tol, args.convention) if args.json else _derived_keys(f)
    if args.json:
        _write_json(args.json, doc)
    if args.csv_prefix:
        for name, m in zip("UVCSH", (f.u, f.v, f.c_matrix(), f.s_matrix(), f.h)):
            write_matrix(f"{args.csv_prefix}_{name}.csv", m)
    print(f"m1={f.m1} m2={f.m2} n={f.n}  r={f.r} ra={f.r_a} rb={f.r_b}")
    c = doc["structure"]
    print(
        f"structure: infinite={c['n_infinite']} finite={c['n_finite']} "
        f"zero={c['n_zero']} (zero rows C={c['zero_rows_c']}, S={c['zero_rows_s']})"
    )
    print(f"generalized values: {_fmt_values(doc['generalized_values'])}")
    print(f"angles: {_fmt_values(doc['angles'])}")
    return 0


def cmd_verify(args) -> int:
    a = read_matrix(args.a, args.header)
    b = read_matrix(args.b, args.header)
    with open(args.json, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise DocumentError(f"{args.json}: nested too deeply to read") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DocumentError(f"{args.json}: {exc}") from exc
    f = factors_from_document(doc)
    tol = _document_tolerance(doc)
    a, b = gsvd._check_pair(f, a, b)
    failed = False
    for label, dev in _factor_deviations(f, doc, a, b, tol):
        print(f"{label}: {dev:.3g}")
        failed |= not dev <= 1e-10
    if failed:
        print("verify: FAIL", file=sys.stderr)
        return 5
    print("verify: OK")
    return 0


def _document_tolerance(doc: dict) -> Tolerance:
    # The tolerance the document's factors were taken at, or DocumentError
    # unless it is an object with a rel and an abs of 0: the library cuts at
    # rel alone, and documents keep "abs": 0.0 for their layout.  Tolerance
    # judges rel, raising DomainError (also exit 2) for a bad one.
    tol = doc.get("tolerance")
    if not (isinstance(tol, dict) and "rel" in tol
            and type(tol.get("abs")) in (int, float) and tol["abs"] == 0):
        raise DocumentError(f"tolerance must be an object with a rel and an abs of 0, got {tol!r}")
    return Tolerance(rel=tol["rel"])


def _factor_deviations(f: gsvd.GsvdFactors, doc: dict, a: np.ndarray, b: np.ndarray,
                       tol: Tolerance):
    # (label, deviation) for each property `verify` certifies: the product,
    # then the factors themselves, since a product can be right with U
    # scaled by t and C by 1/t.  Compact U and V have orthonormal columns.
    # The document's v_col_of must be the factors' own, the sine block where
    # its convention puts it, and c_i > 0 only where U has a column i; the
    # product is formed only when both hold.  Then the class counts rest on
    # (r, ra, rb), so the inputs' ranks are judged again at the document's
    # tolerance, as `gsvd_decompose` judged them; last, the keys derived
    # from the factors must be theirs.
    stacked = np.vstack([a, b])
    misplaced = (np.count_nonzero(np.array(doc["v_col_of"]) != f.v_col_of)
                 + np.count_nonzero(f.c[f.u.shape[1]:] > 0))
    rel = np.inf
    if misplaced == 0:
        rel = np.linalg.norm(f.reconstruct() - stacked) / max(np.linalg.norm(stacked), 1e-300)
    yield "reconstruction residual (relative Frobenius)", rel
    for name, q in (("U", f.u), ("V", f.v)):
        yield f"||{name}'{name} - I||_F", np.linalg.norm(q.T @ q - np.eye(q.shape[1]))
    yield "max |c^2 + s^2 - 1|", np.max(np.abs(f.c * f.c + f.s * f.s - 1.0), initial=0.0)
    # c descending and s ascending, both in [0, 1]: the largest step the
    # wrong way or distance outside the interval
    yield "c, s order and range", np.max(np.concatenate([
        np.diff(f.c), -np.diff(f.s), -f.c, f.c - 1.0, -f.s, f.s - 1.0]), initial=0.0)
    yield "misplaced c and v_col_of entries", float(misplaced)
    ranks = gsvd._ranks(a, b, tol)
    yield "ranks (r, ra, rb) differing from the inputs'", float(
        sum(x != y for x, y in zip(ranks, (f.r, f.r_a, f.r_b))))
    yield "derived keys differing from the factors'", float(
        sum(doc.get(key) != value for key, value in _derived_keys(f).items()))


def cmd_tikhonov(args) -> int:
    a = read_matrix(args.a, args.header)
    l = read_matrix(args.l, args.header)
    b = read_vector(args.b, args.header)
    lambdas = _parse_list(args.lambdas, "--lambdas", lambda x: tikhonov._check_lambda(float(x)))
    problem = tikhonov.TikhonovProblem(a, l, b)
    path = [(lam, x, damp, float(np.linalg.norm(x)))
            for lam, x, damp in tikhonov.solve_path(problem, lambdas)]
    if args.json:
        _write_json(args.json, {"solutions": [
            {"lambda": lam, "x": x.tolist(), "damping": damp.tolist(), "x_norm": norm}
            for lam, x, damp, norm in path]})
    print(f"{'lambda':>12} {'||x||':>18}")
    for lam, _, _, norm in path:
        print(f"{lam:>12g} {norm:>18.12g}")
    return 0


def cmd_anova(args) -> int:
    v = read_vector(args.data, args.header)
    design = _design_from_args(args, v.size, "entries")
    report = stats.anova_f(design, v)
    print(f"between sum of squares: {report.between_norm_sq!r} (df={report.df_between})")
    print(f"within  sum of squares: {report.within_norm_sq!r} (df={report.df_within})")
    print(f"F = {report.f_value!r}")
    return 0


def cmd_ellipse(args) -> int:
    a = read_matrix(args.a, args.header)
    b = read_matrix(args.b, args.header)
    f = gsvd.gsvd_decompose(a, b, Tolerance(rel=args.tol), compact=True)
    data = subgeom.ellipse_data(f)
    if args.json:
        _write_json(args.json, {
            **{field.name: getattr(data, field.name).tolist()
               for field in dataclasses.fields(data)},
            "cosine_boundary": _ellipse_boundary(data.cosine_lengths, data.cosine_directions),
            "sine_boundary": _ellipse_boundary(data.sine_lengths[::-1],
                                               data.sine_directions[:, ::-1]),
        })
    print(f"cosine semi-axis lengths: {_fmt_values(data.cosine_lengths.tolist())}")
    print(f"sine semi-axis lengths:   {_fmt_values(data.sine_lengths.tolist())}")
    print(f"angles: {_fmt_values(data.angles.tolist())}")
    return 0


def _ellipse_boundary(lengths: np.ndarray, directions: np.ndarray):
    # Boundary of the shadow ellipse in the plane of the two leading
    # semi-axes, sampled on a parameter grid and emitted in ambient
    # coordinates for external plotting.
    if lengths.size == 0:
        return []
    ts = np.linspace(0.0, 2 * np.pi, _ELLIPSE_SAMPLES, endpoint=False)
    pts = np.outer(lengths[0] * np.cos(ts), directions[:, 0])
    if lengths.size > 1:
        pts = pts + np.outer(lengths[1] * np.sin(ts), directions[:, 1])
    return pts.tolist()


def cmd_angles(args) -> int:
    a1 = read_matrix(args.a1, args.header)
    a2 = read_matrix(args.a2, args.header)
    result = subgeom.principal_angles(a1, a2)
    print(f"{'cosine':>20} {'angle (rad)':>20}")
    for cos_t, theta in zip(result.cosines, result.angles):
        print(f"{float(cos_t)!r:>20} {float(theta)!r:>20}")
    return 0


def cmd_reduce(args) -> int:
    m = read_matrix(args.data, args.header)
    design = _design_from_args(args, m.shape[0], "rows")
    g, mg = stats.discriminant_reduce(m, design)
    write_matrix(args.out, mg)
    if args.g_out:
        write_matrix(args.g_out, g)
    print(f"wrote {mg.shape[0]}x{mg.shape[1]} reduced data to {args.out}")
    return 0


def cmd_jacobi(args) -> int:
    params = jacobi.JacobiParams(m1=args.m1, m2=args.m2, n=args.n, beta=args.beta)
    rng = jacobi.SeededRng(seed=args.seed)
    report = jacobi.empirical_check(params, args.samples, rng)
    if args.out:
        write_matrix(args.out, report.draws)
    print(f"samples={report.n_samples} beta={report.beta} "
          f"(m1={report.m1}, m2={report.m2}, n={report.n})")
    print(f"mean eigenvalue sum: {report.mean_sum!r} (se {report.se_sum!r})")
    if report.ks_distance is not None:
        print(f"KS distance to Beta CDF: {report.ks_distance!r}")
    print(f"split-half gap: {report.half_gap_z!r} standard errors")
    return 0


# ------------------------------------------------------------------- parsing

def _design_from_args(args, count: int, unit: str) -> stats.ClusterDesign:
    # The cluster design of --partition, whose sizes must add up to the
    # data's count of entries or rows.
    partition = _parse_list(args.partition, "--partition", int)
    if sum(partition) != count:
        raise InvalidPartition(
            f"partition sums to {sum(partition)} but data has {count} {unit}"
        )
    return stats.cluster_design(partition)


def _parse_list(text: str, flag: str, convert):
    try:
        return [convert(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise CsvParseError(f"{flag}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsvdkit",
        description="GH-form generalized SVD and the analyses built on it",
    )
    parser.add_argument("--header", action="store_true",
                        help="skip the first row of every CSV input")
    sub = parser.add_subparsers(dest="command", required=True)

    # Arguments more than one subcommand takes, each declared once
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("a", help="CSV of A, the top matrix of the pair")
    pair.add_argument("b", help="CSV of B, the bottom matrix, with A's column count")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=None, metavar="REAL",
                     help="relative rank tolerance (default max(m,n)*eps)")
    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--json", metavar="OUT", help="also write the results to OUT as JSON")
    clustered = argparse.ArgumentParser(add_help=False)
    clustered.add_argument("data", help="CSV of the observations, grouped by cluster")
    clustered.add_argument("--partition", required=True, metavar="CSV-LIST",
                           help="the cluster sizes in data order, such as 3,3,3")

    p = sub.add_parser("gsvd", parents=[pair, tol, json_out], help="factor a pair of CSV matrices")
    p.add_argument("--convention", choices=("bottom", "top"), default="bottom",
                   help="put V's nonzero-sine columns last (bottom, the default) or first")
    p.add_argument("--compact", action="store_true",
                   help="keep only U's ra and V's rb columns, those of nonzero c and s")
    p.add_argument("--csv-prefix", metavar="OUT",
                   help="also write U, V, C, S and H to OUT_U.csv ... OUT_H.csv")
    p.set_defaults(func=cmd_gsvd)

    p = sub.add_parser("verify", parents=[pair], help="check a factors JSON against the inputs")
    p.add_argument("json", help="the factors document gsvd --json wrote")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tikhonov", parents=[json_out], help="regularization path for (A, L, b)")
    p.add_argument("a", help="CSV of A, the system matrix")
    p.add_argument("l", help="CSV of L, the regularization operator, with A's column count")
    p.add_argument("b", help="CSV of b, the right-hand side, one row or one column")
    p.add_argument("--lambdas", default="0,1", metavar="CSV-LIST",
                   help="the regularization parameters to solve at (default 0,1)")
    p.set_defaults(func=cmd_tikhonov)

    p = sub.add_parser("anova", parents=[clustered], help="one-way ANOVA F statistic")
    p.set_defaults(func=cmd_anova)

    p = sub.add_parser("ellipse", parents=[pair, tol, json_out],
                       help="plot data for the cosine/sine ellipses")
    p.set_defaults(func=cmd_ellipse)

    p = sub.add_parser("angles", help="principal angles between two column spaces")
    p.add_argument("a1", help="CSV of A1, whose columns span the first subspace")
    p.add_argument("a2", help="CSV of A2, whose columns span the second, with A1's row count")
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("reduce", parents=[clustered],
                       help="discriminant reduction of clustered data")
    p.add_argument("--out", required=True, metavar="MG.csv",
                   help="write the reduced data M G here")
    p.add_argument("--g-out", metavar="G.csv", help="also write the reduction matrix G here")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("jacobi", help="MANOVA sampling and ensemble checks")
    p.add_argument("--m1", type=int, required=True, help="rows of the Gaussian A")
    p.add_argument("--m2", type=int, required=True, help="rows of the Gaussian B")
    p.add_argument("--n", type=int, required=True,
                   help="columns of A and B, the eigenvalues per sample")
    p.add_argument("--beta", type=float, default=1.0,
                   help="Dyson index: 1 real, 2 complex (default 1)")
    p.add_argument("--samples", type=int, default=10000,
                   help="samples to draw, at least 1000 (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--out", metavar="SAMPLES.csv",
                   help="also write the sampled eigenvalues here, one sample per row")
    p.set_defaults(func=cmd_jacobi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GsvdKitError as exc:
        print(f"gsvdkit {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        # LAPACK reported a failure; LinAlgError subclasses ValueError
        print(f"gsvdkit {args.command}: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            # a file error names its file once, as <path>: <reason>
            exc = f"{exc.filename}: {exc.strerror}"
        print(f"gsvdkit {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # NumPy's names the allocation it refused; a bare one has no text
        print(f"gsvdkit {args.command}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
