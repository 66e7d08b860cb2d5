import json
from pathlib import Path

import numpy as np
import pytest

from gsvdkit import cli, gsvd, jacobi, stats, subgeom, tikhonov
from gsvdkit.matcore import Tolerance

from conftest import random_pair


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def worked_example(tmp_path):
    a = write_csv(tmp_path / "a.csv", [[3, 0], [0, 4]])
    b = write_csv(tmp_path / "b.csv", [[1, 1]])
    return a, b


class TestGsvdCommand:
    def test_worked_example_values(self, worked_example, tmp_path, capsys):
        a, b = worked_example
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--json", out]) == 0
        printed = capsys.readouterr().out
        assert "inf" in printed
        doc = read_json(out)
        values = doc["generalized_values"]
        assert values[0] == "inf"
        assert abs(values[1] - 2.4) <= 1e-12
        assert doc["structure"]["n_infinite"] == 1
        assert (doc["r"], doc["ra"], doc["rb"]) == (2, 2, 1)

    def test_compact_flag_shapes(self, worked_example, tmp_path):
        a, b = worked_example
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--compact", "--json", out]) == 0
        doc = read_json(out)
        u = np.array(doc["u"])
        assert u.shape == (2, doc["ra"])
        # the document is that of the compacted full-format factors, for
        # the worked example and for a B with left-nullspace columns
        rng = np.random.default_rng(7)
        pairs = [(a, b), (write_csv(tmp_path / "a2.csv", rng.standard_normal((5, 4))),
                          write_csv(tmp_path / "b2.csv",
                                    rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))))]
        for i, (pa, pb) in enumerate(pairs):
            out = str(tmp_path / f"compact{i}.json")
            for convention in ("bottom", "top"):
                assert cli.main(["gsvd", pa, pb, "--compact", "--convention", convention,
                                 "--json", out]) == 0
                doc = read_json(out)
                f = gsvd.compact(gsvd.gsvd_decompose(cli.read_matrix(pa), cli.read_matrix(pb)))
                want = json.loads(json.dumps(cli.factors_to_document(f, Tolerance(), convention)))
                for key in ("u", "v"):
                    got, ref = np.array(doc.pop(key)), np.array(want.pop(key))
                    assert got.shape == ref.shape == getattr(f, key).shape
                    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)
                assert doc == want
                assert cli.main(["verify", pa, pb, out]) == 0
        # every JSON file loads back as exactly the in-process document:
        # the factors on either route and convention, a Tikhonov path and
        # the ellipse data
        for i, (pa, pb) in enumerate(pairs):
            ma, mb = cli.read_matrix(pa), cli.read_matrix(pb)
            out = str(tmp_path / f"factors{i}.json")
            for compact in (False, True):
                for convention in ("bottom", "top"):
                    flags = ["--compact"] * compact + ["--convention", convention]
                    assert cli.main(["gsvd", pa, pb, *flags, "--json", out]) == 0
                    f = gsvd.gsvd_decompose(ma, mb, compact=compact)
                    if convention == "top":
                        f = gsvd.with_top_convention(f)
                    want = cli.factors_to_document(f, Tolerance(), convention)
                    assert read_json(out) == json.loads(json.dumps(want))
            out = str(tmp_path / f"ellipse{i}.json")
            assert cli.main(["ellipse", pa, pb, "--json", out]) == 0
            data = subgeom.ellipse_data(gsvd.gsvd_decompose(ma, mb))
            doc = read_json(out)
            for key in ("cosine_lengths", "cosine_directions", "sine_lengths",
                        "sine_directions", "sphere_points", "angles"):
                assert doc[key] == getattr(data, key).tolist()
            assert doc["cosine_boundary"] == cli._ellipse_boundary(
                data.cosine_lengths, data.cosine_directions)
            assert doc["sine_boundary"] == cli._ellipse_boundary(
                data.sine_lengths[::-1], data.sine_directions[:, ::-1])
        files = [write_csv(tmp_path / "ta.csv", rng.standard_normal((6, 3))),
                 write_csv(tmp_path / "tl.csv", np.eye(3)),
                 write_csv(tmp_path / "tb.csv", rng.standard_normal((6, 1)))]
        out = str(tmp_path / "path.json")
        assert cli.main(["tikhonov", *files, "--lambdas", "0,0.5,2", "--json", out]) == 0
        problem = tikhonov.TikhonovProblem(*(cli.read_matrix(p) for p in files[:2]),
                                           cli.read_vector(files[2]))
        want = [{"lambda": lam, "x": x.tolist(), "damping": damp.tolist(),
                 "x_norm": float(np.linalg.norm(x))}
                for lam, x, damp in tikhonov.solve_path(problem, [0.0, 0.5, 2.0])]
        assert read_json(out) == {"solutions": want}

    def test_document_takes_no_svd(self, monkeypatch):
        # the labels come from the angles alone; H is not factored again
        rng = np.random.default_rng(5)
        pairs = [(np.diag([3.0, 4.0]), np.array([[1.0, 1.0]])),
                 (rng.standard_normal((6, 4)), rng.standard_normal((5, 4))),
                 random_pair(rng, 5, 4, 6, rank_a=3, rank_b=2, common_null=2),
                 (np.zeros((2, 3)), np.zeros((1, 3)))]
        factors = [gsvd.gsvd_decompose(a, b, compact=compact)
                   for a, b in pairs for compact in (False, True)]
        labels = [list(stats.apportion(f).labels) for f in factors]
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for f, want in zip(factors, labels):
            doc = cli.factors_to_document(f, Tolerance(), "bottom")
            assert doc["apportionment"]["labels"] == want
        assert calls == []

    def test_top_convention(self, worked_example, tmp_path):
        a, b = worked_example
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--convention", "top", "--json", out]) == 0
        doc = read_json(out)
        cols = [j for j in doc["v_col_of"] if j >= 0]
        assert cols == list(range(len(cols)))

    def test_dimension_mismatch_exit_3(self, tmp_path):
        a = write_csv(tmp_path / "a.csv", [[1, 2]])
        b = write_csv(tmp_path / "b.csv", [[1, 2, 3]])
        assert cli.main(["gsvd", a, b]) == 3

    def test_parse_error_exit_2_names_location(self, tmp_path, capsys):
        a = write_csv(tmp_path / "a.csv", [[1, 2]])
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,oops\n")
        assert cli.main(["gsvd", a, str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and ":2" in err

    def test_ragged_rows_exit_2(self, tmp_path):
        a = write_csv(tmp_path / "a.csv", [[1, 2]])
        bad = tmp_path / "ragged.csv"
        bad.write_text("1,2\n3\n")
        assert cli.main(["gsvd", a, str(bad)]) == 2

    @pytest.mark.parametrize("text, line", [
        ("1,2\n3,nan\n", 2),
        ("inf,2\n3,4\n", 1),
        # a non-finite line is reported before a later ragged one
        ("1,2\n3,-inf\n5\n", 2),
    ])
    def test_non_finite_cell_exit_2_names_line(self, tmp_path, capsys, text, line):
        a = write_csv(tmp_path / "a.csv", [[1, 2]])
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert cli.main(["gsvd", a, str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"bad.csv:{line}: non-finite value" in err

    def test_csv_prefix_outputs(self, worked_example, tmp_path):
        a, b = worked_example
        prefix = str(tmp_path / "out")
        assert cli.main(["gsvd", a, b, "--csv-prefix", prefix]) == 0
        u = cli.read_matrix(prefix + "_U.csv")
        c = cli.read_matrix(prefix + "_C.csv")
        s = cli.read_matrix(prefix + "_S.csv")
        v = cli.read_matrix(prefix + "_V.csv")
        h = cli.read_matrix(prefix + "_H.csv")
        rebuilt = np.vstack([u @ c, v @ s]) @ h
        np.testing.assert_allclose(rebuilt, [[3, 0], [0, 4], [1, 1]], atol=1e-12)

    @pytest.mark.parametrize("m", [
        np.array([[-0.0, 0.0, 5e-324, 1 / 3], [1e308, -1e308, -2.5e-310, 7.0]]),
        np.arange(1.0, 6.0)[None, :] / 7,
        np.arange(1.0, 6.0)[:, None] / 7,
        np.zeros((3, 0)),
    ], ids=["special_values", "row", "column", "no_columns"])
    def test_csv_bytes_and_bits(self, tmp_path, m):
        # CSV output is what np.savetxt writes at 17 significant digits,
        # and reading it back gives the same bits, signed zeros included
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        cli.write_matrix(str(ours), m)
        np.savetxt(ref, m, fmt="%.17g", delimiter=",")
        assert ours.read_bytes() == ref.read_bytes()
        if m.size:
            back = cli.read_matrix(str(ours))
            assert np.array_equal(back, m)
            np.testing.assert_array_equal(np.signbit(back), np.signbit(m))

    def test_header_flag(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("x,y\n3,0\n0,4\n")
        b = write_csv(tmp_path / "b.csv", [[1, 1]])
        assert cli.main(["--header", "gsvd", str(a),
                         write_csv(tmp_path / "b2.csv", [["1", "1"]])]) == 2
        # header flag applies to every input, so b needs one too
        b2 = tmp_path / "bh.csv"
        b2.write_text("x,y\n1,1\n")
        assert cli.main(["--header", "gsvd", str(a), str(b2)]) == 0

    def test_unwritable_output_exit_2(self, worked_example, tmp_path):
        a, b = worked_example
        missing_dir = str(tmp_path / "no" / "such" / "dir" / "f.json")
        assert cli.main(["gsvd", a, b, "--json", missing_dir]) == 2

    def test_deterministic_output(self, worked_example, tmp_path):
        a, b = worked_example
        out1 = str(tmp_path / "f1.json")
        out2 = str(tmp_path / "f2.json")
        cli.main(["gsvd", a, b, "--json", out1])
        cli.main(["gsvd", a, b, "--json", out2])
        assert Path(out1).read_text() == Path(out2).read_text()


class TestVerifyCommand:
    def test_round_trip(self, worked_example, tmp_path, capsys):
        a, b = worked_example
        out = str(tmp_path / "factors.json")
        cli.main(["gsvd", a, b, "--json", out])
        assert cli.main(["verify", a, b, out]) == 0
        assert "OK" in capsys.readouterr().out

    def test_document_round_trip_exact(self, worked_example, tmp_path):
        from gsvdkit import gsvd
        from gsvdkit.matcore import Tolerance
        a, b = worked_example
        f = gsvd.gsvd_decompose(cli.read_matrix(a), cli.read_matrix(b))
        doc = cli.factors_to_document(f, Tolerance(), "bottom")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        back = cli.factors_from_document(json.loads(path.read_text()))
        np.testing.assert_array_equal(back.u, f.u)
        np.testing.assert_array_equal(back.v, f.v)
        np.testing.assert_array_equal(back.c, f.c)
        np.testing.assert_array_equal(back.s, f.s)
        np.testing.assert_array_equal(back.h, f.h)
        np.testing.assert_array_equal(back.v_col_of, f.v_col_of)

    def test_mismatched_factors_exit_5(self, worked_example, tmp_path):
        a, b = worked_example
        out = str(tmp_path / "factors.json")
        cli.main(["gsvd", a, b, "--json", out])
        doc = read_json(out)
        doc["h"][0][0] += 0.5
        with open(out, "w") as fh:
            json.dump(doc, fh)
        assert cli.main(["verify", a, b, out]) == 5

    def test_scaled_u_with_compensating_c_exits_5(self, worked_example, tmp_path, capsys):
        # U doubled and c halved leave the product, and so the residual,
        # unchanged; U'U = 4 I and c^2 + s^2 != 1 give them away
        a, b = worked_example
        out = str(tmp_path / "factors.json")
        cli.main(["gsvd", a, b, "--json", out])
        doc = read_json(out)
        doc["u"] = (2.0 * np.array(doc["u"])).tolist()
        doc["c"] = [x / 2.0 for x in doc["c"]]
        with open(out, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert cli.main(["verify", a, b, out]) == 5
        captured = capsys.readouterr()
        assert "verify: FAIL" in captured.err
        assert "verify: OK" not in captured.out

    @pytest.mark.parametrize("change", ["shared column", "column out of range",
                                        "swapped order"])
    def test_misplaced_or_misordered_factors_exit_5(self, tmp_path, change):
        # worked example with B padded to two rows: c = (1, 0.92), s = (0,
        # 0.38), v_col_of = (-1, 1).  Pointing the s = 0 index at v_1's
        # column, or swapping the two indices throughout, leaves the product
        # as it was; a column past V's edge leaves no product to form
        a = write_csv(tmp_path / "a.csv", [[3, 0], [0, 4]])
        b = write_csv(tmp_path / "b.csv", [[1, 1], [0, 0]])
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--json", out]) == 0
        doc = read_json(out)
        assert doc["v_col_of"] == [-1, 1]
        if change == "shared column":
            doc["v_col_of"] = [1, 1]
        elif change == "column out of range":
            doc["v_col_of"] = [-1, 7]
        else:
            for key in ("c", "s", "v_col_of", "h"):
                doc[key] = doc[key][::-1]
            doc["u"] = [row[::-1] for row in doc["u"]]
        with open(out, "w") as fh:
            json.dump(doc, fh)
        assert cli.main(["verify", a, b, out]) == 5

    @pytest.mark.parametrize("key", ["c", "s", "v_col_of"])
    def test_value_list_of_the_wrong_length_exits_3(self, worked_example, tmp_path, key):
        a, b = worked_example
        out = str(tmp_path / "factors.json")
        cli.main(["gsvd", a, b, "--json", out])
        doc = read_json(out)
        doc[key] = doc[key][:1]
        with open(out, "w") as fh:
            json.dump(doc, fh)
        assert cli.main(["verify", a, b, out]) == 3

    @pytest.mark.parametrize("change", ["u one column", "h one column", "h extra column",
                                        "inputs of another pair"])
    def test_shape_disagreeing_with_the_document_exits_3(self, worked_example, tmp_path,
                                                          change, capsys):
        a, b = worked_example
        out = str(tmp_path / "factors.json")
        cli.main(["gsvd", a, b, "--json", out])
        doc = read_json(out)
        if change == "u one column":
            doc["u"] = [row[:1] for row in doc["u"]]
        elif change == "h one column":
            doc["h"] = [row[:1] for row in doc["h"]]
        elif change == "h extra column":
            doc["h"] = [row + [0.0] for row in doc["h"]]
        else:
            a = write_csv(tmp_path / "a3.csv", [[3, 0, 1], [0, 4, 1]])
            b = write_csv(tmp_path / "b3.csv", [[1, 1, 1]])
        with open(out, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert cli.main(["verify", a, b, out]) == 3
        assert capsys.readouterr().err.startswith("gsvdkit verify: ")

    @pytest.mark.parametrize("change", ["missing u", "not an object", "r not an integer",
                                        "fractional v_col_of"])
    def test_malformed_document_exits_2(self, worked_example, tmp_path, change, capsys):
        a, b = worked_example
        out = str(tmp_path / "factors.json")
        cli.main(["gsvd", a, b, "--json", out])
        doc = read_json(out)
        if change == "missing u":
            del doc["u"]
        elif change == "not an object":
            doc = [1, 2]
        elif change == "r not an integer":
            doc["r"] = [2]
        else:
            # 0.5 would truncate to the valid index 0
            doc["v_col_of"] = [-1, 0.5]
        with open(out, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert cli.main(["verify", a, b, out]) == 2
        assert capsys.readouterr().err.startswith("gsvdkit verify: ")

    @pytest.mark.parametrize("key, value", [("ra", 3), ("ra", 0), ("rb", 2)])
    def test_ranks_contradicting_the_values_exit_3(self, tmp_path, key, value, capsys):
        # full format: U and V are square whatever ra and rb say, so only
        # the counts of positive cosines and sines can give them away
        rng = np.random.default_rng(0)
        a = write_csv(tmp_path / "a.csv", rng.standard_normal((5, 4)).tolist())
        b = write_csv(tmp_path / "b.csv", rng.standard_normal((3, 4)).tolist())
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--json", out]) == 0
        doc = read_json(out)
        assert (doc["r"], doc["ra"], doc["rb"]) == (4, 4, 3)
        doc[key] = value
        with open(out, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert cli.main(["verify", a, b, out]) == 3
        assert capsys.readouterr().err.startswith("gsvdkit verify: ")

    def test_cosine_without_a_u_column_exits_5(self, tmp_path):
        # r = 3 > m1 = 2 leaves c_3 = 0 with no column of U; a positive c_3
        # has no u_3 to pair with
        a = write_csv(tmp_path / "a.csv", [[1, 0, 0], [0, 1, 0]])
        b = write_csv(tmp_path / "b.csv", [[0, 0, 1], [1, 1, 1]])
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--json", out]) == 0
        doc = read_json(out)
        assert len(doc["u"][0]) == 2 and doc["c"][2] == 0.0
        doc["c"][2] = 0.5
        with open(out, "w") as fh:
            json.dump(doc, fh)
        assert cli.main(["verify", a, b, out]) == 5

    @pytest.mark.parametrize("flags", [[], ["--compact"]])
    def test_zero_pair_document_passes(self, tmp_path, flags):
        # r = 0: H has no rows and its JSON is []
        a = write_csv(tmp_path / "a.csv", [[0, 0], [0, 0]])
        b = write_csv(tmp_path / "b.csv", [[0, 0]])
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, *flags, "--json", out]) == 0
        assert read_json(out)["h"] == []
        assert cli.main(["verify", a, b, out]) == 0

    def test_valid_documents_pass_every_check(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        pairs = [
            (rng.standard_normal((7, 5)), rng.standard_normal((6, 5))),
            (rng.standard_normal((5, 6)),
             rng.standard_normal((7, 2)) @ rng.standard_normal((2, 6))),
            random_pair(rng, 5, 4, 6, rank_a=3, rank_b=2, common_null=2),
        ]
        for i, (ma, mb) in enumerate(pairs):
            pa = write_csv(tmp_path / f"a{i}.csv", ma.tolist())
            pb = write_csv(tmp_path / f"b{i}.csv", mb.tolist())
            out = str(tmp_path / f"f{i}.json")
            for flags in ([], ["--compact"]):
                for convention in ("bottom", "top"):
                    assert cli.main(["gsvd", pa, pb, *flags, "--convention", convention,
                                     "--json", out]) == 0
                    capsys.readouterr()
                    assert cli.main(["verify", pa, pb, out]) == 0
                    printed = capsys.readouterr().out
                    assert printed.endswith("verify: OK\n")
                    assert "||U'U - I||_F" in printed and "v_col_of" in printed

    def test_ranks_above_the_inputs_exit_5(self, tmp_path, capsys):
        # a rank-3 pair whose document gains an index (c, s) = (0, 1) with
        # a zero row of H and a free column of V: r = 4 and rb = 4 are not
        # the pair's, and the rank line says so (the free column also lies
        # outside the bottom layout's sine block, so placement fails too)
        rng = np.random.default_rng(0)
        ma, mb = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        ma[:, -1] = mb[:, -1] = 0.0
        a = write_csv(tmp_path / "a.csv", ma.tolist())
        b = write_csv(tmp_path / "b.csv", mb.tolist())
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--json", out]) == 0
        doc = read_json(out)
        assert (doc["r"], doc["ra"], doc["rb"]) == (3, 3, 3)
        free = min(set(range(5)) - set(doc["v_col_of"]))
        doc["c"].append(0.0)
        doc["s"].append(1.0)
        doc["h"].append([0.0] * 4)
        doc["v_col_of"].append(free)
        doc["r"] += 1
        doc["rb"] += 1
        with open(out, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert cli.main(["verify", a, b, out]) == 5
        captured = capsys.readouterr()
        assert "ranks (r, ra, rb) differing from the inputs': 2\n" in captured.out
        assert "verify: FAIL" in captured.err

    def test_ranks_are_judged_at_the_document_tolerance(self, tmp_path, capsys):
        # one direction at 1e-12 relative: rank 3 at the default cutoff,
        # rank 2 at rel = 1e-11, the tolerance the document records
        ma, mb = np.diag([1.0, 1.0, 1e-12]), np.array([[1.0, 0.0, 0.0]])
        assert gsvd.gsvd_decompose(ma, mb).r == 3
        a = write_csv(tmp_path / "a.csv", ma.tolist())
        b = write_csv(tmp_path / "b.csv", mb.tolist())
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--tol", "1e-11", "--json", out]) == 0
        assert read_json(out)["r"] == 2
        capsys.readouterr()
        assert cli.main(["verify", a, b, out]) == 0
        assert "ranks (r, ra, rb) differing from the inputs': 0\n" in capsys.readouterr().out

    @pytest.mark.parametrize("tolerance", [None, 1e-11, {"rel": "1e-11", "abs": 0.0},
                                           {"rel": None, "abs": None}, {"abs": 0.0},
                                           {"rel": True, "abs": 0.0}, {"rel": -1.0, "abs": 0.0},
                                           {"rel": None, "abs": 10**400}],
                             ids=["missing", "not an object", "string rel", "null abs",
                                  "no rel", "boolean rel", "negative rel", "huge abs"])
    def test_malformed_tolerance_exits_2(self, worked_example, tmp_path, tolerance, capsys):
        a, b = worked_example
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--json", out]) == 0
        doc = read_json(out)
        if tolerance is None:
            del doc["tolerance"]
        else:
            doc["tolerance"] = tolerance
        with open(out, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert cli.main(["verify", a, b, out]) == 2
        assert capsys.readouterr().err.startswith("gsvdkit verify: ")

    @pytest.mark.parametrize("change, differing", [
        ("generalized values", 1), ("structure", 1), ("angles", 1), ("labels", 1),
        ("all four", 4)])
    def test_doctored_derived_keys_exit_5(self, worked_example, tmp_path, change,
                                          differing, capsys):
        # the factors and the product are untouched; only keys computed
        # from them say something else
        a, b = worked_example
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--json", out]) == 0
        doc = read_json(out)
        if change in ("generalized values", "all four"):
            doc["generalized_values"] = [1, 7]
        if change in ("structure", "all four"):
            doc["structure"]["n_infinite"] = 5
        if change in ("angles", "all four"):
            doc["angles"] = [0.3, 0.3]
        if change in ("labels", "all four"):
            doc["apportionment"]["labels"] = ["B-dominant", "B-dominant"]
        with open(out, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert cli.main(["verify", a, b, out]) == 5
        printed = capsys.readouterr().out
        assert f"derived keys differing from the factors': {differing}\n" in printed
        assert "reconstruction residual (relative Frobenius): inf" not in printed

    def test_swapped_sine_columns_exit_5(self, tmp_path, capsys):
        # the product is unchanged when two sine columns of V trade places
        # along with their v_col_of entries, but S is then not one-diagonal
        rng = np.random.default_rng(0)
        a = write_csv(tmp_path / "a.csv", rng.standard_normal((5, 4)).tolist())
        b = write_csv(tmp_path / "b.csv", rng.standard_normal((4, 4)).tolist())
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--json", out]) == 0
        doc = read_json(out)
        assert doc["v_col_of"] == [0, 1, 2, 3]
        doc["v"] = [[row[1], row[0], *row[2:]] for row in doc["v"]]
        doc["v_col_of"] = [1, 0, 2, 3]
        with open(out, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert cli.main(["verify", a, b, out]) == 5
        assert "misplaced c and v_col_of entries: 2\n" in capsys.readouterr().out

    def test_bottom_layout_labelled_top_exits_5(self, tmp_path, capsys):
        # m2 = 6 > rb = 4, so the two conventions put the sine block apart
        rng = np.random.default_rng(0)
        a = write_csv(tmp_path / "a.csv", rng.standard_normal((5, 4)).tolist())
        b = write_csv(tmp_path / "b.csv", rng.standard_normal((6, 4)).tolist())
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--json", out]) == 0
        doc = read_json(out)
        assert doc["v_col_of"] == [2, 3, 4, 5]
        doc["convention"] = "top"
        with open(out, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert cli.main(["verify", a, b, out]) == 5
        assert "misplaced c and v_col_of entries: 4\n" in capsys.readouterr().out

    @pytest.mark.parametrize("convention", [None, "left", ["top"]],
                             ids=["missing", "unknown", "not a string"])
    def test_missing_or_unknown_convention_exits_2(self, worked_example, tmp_path,
                                                    convention, capsys):
        a, b = worked_example
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--json", out]) == 0
        doc = read_json(out)
        if convention is None:
            del doc["convention"]
        else:
            doc["convention"] = convention
        with open(out, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert cli.main(["verify", a, b, out]) == 2
        assert "convention" in capsys.readouterr().err

    def test_more_sines_than_columns_of_v_exits_3(self, worked_example, tmp_path, capsys):
        # full format: V is m2 x m2 = 1 x 1, with no room for rb = 2
        a, b = worked_example
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--json", out]) == 0
        doc = read_json(out)
        doc["rb"] = 2
        with open(out, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert cli.main(["verify", a, b, out]) == 3
        assert "rb = 2 exceeds V's 1 columns" in capsys.readouterr().err


class TestTikhonovCommand:
    def test_monotone_norms_with_identity_regularizer(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 3))
        write_csv(tmp_path / "a.csv", a.tolist())
        write_csv(tmp_path / "l.csv", np.eye(3).tolist())
        write_csv(tmp_path / "b.csv", [[x] for x in rng.standard_normal(6)])
        out = str(tmp_path / "path.json")
        code = cli.main(["tikhonov", str(tmp_path / "a.csv"), str(tmp_path / "l.csv"),
                         str(tmp_path / "b.csv"), "--lambdas", "0,1,10",
                         "--json", out])
        assert code == 0
        doc = read_json(out)
        norms = [row["x_norm"] for row in doc["solutions"]]
        assert norms[0] >= norms[1] >= norms[2]

    def test_rank_deficient_exit_4(self, tmp_path):
        write_csv(tmp_path / "a.csv", [[1, 1], [2, 2], [3, 3]])
        write_csv(tmp_path / "l.csv", np.eye(2).tolist())
        write_csv(tmp_path / "b.csv", [[1], [2], [3]])
        assert cli.main(["tikhonov", str(tmp_path / "a.csv"),
                         str(tmp_path / "l.csv"), str(tmp_path / "b.csv")]) == 4

    def test_negative_lambda_exit_2(self, tmp_path):
        write_csv(tmp_path / "a.csv", [[1, 0], [0, 1], [1, 1]])
        write_csv(tmp_path / "l.csv", np.eye(2).tolist())
        write_csv(tmp_path / "b.csv", [[1], [2], [3]])
        assert cli.main(["tikhonov", str(tmp_path / "a.csv"),
                         str(tmp_path / "l.csv"), str(tmp_path / "b.csv"),
                         "--lambdas", "0,-1"]) == 2


class TestAnovaCommand:
    def test_reference_f_value(self, tmp_path, capsys):
        data = write_csv(tmp_path / "v.csv",
                         [[x] for x in [6, 8, 4, 5, 3, 4, 8, 12, 9, 11, 6, 8,
                                        13, 9, 11, 8, 7, 12]])
        assert cli.main(["anova", data, "--partition", "6,6,6"]) == 0
        out = capsys.readouterr().out
        f_line = [line for line in out.splitlines() if line.startswith("F =")][0]
        assert abs(float(f_line.split("=")[1]) - 9.264705882352956) <= 1e-9

    def test_partition_mismatch_exit_3(self, tmp_path):
        data = write_csv(tmp_path / "v.csv", [[1], [2], [3]])
        assert cli.main(["anova", data, "--partition", "2,2"]) == 3


class TestEllipseCommand:
    def test_worked_example(self, worked_example, tmp_path):
        a, b = worked_example
        out = str(tmp_path / "ellipse.json")
        assert cli.main(["ellipse", a, b, "--json", out]) == 0
        doc = read_json(out)
        assert doc["cosine_lengths"][0] == 1.0
        sphere = np.array(doc["sphere_points"])
        np.testing.assert_allclose(np.linalg.norm(sphere, axis=0), 1.0,
                                   atol=1e-12)
        assert len(doc["cosine_boundary"]) == 64

    def test_equal_pair_circles(self, tmp_path):
        a = write_csv(tmp_path / "i1.csv", np.eye(2).tolist())
        b = write_csv(tmp_path / "i2.csv", np.eye(2).tolist())
        out = str(tmp_path / "ellipse.json")
        assert cli.main(["ellipse", a, b, "--json", out]) == 0
        doc = read_json(out)
        np.testing.assert_allclose(doc["cosine_lengths"],
                                   np.full(2, 1 / np.sqrt(2)), atol=1e-12)
        np.testing.assert_allclose(doc["sine_lengths"],
                                   np.full(2, 1 / np.sqrt(2)), atol=1e-12)


class TestAnglesCommand:
    def test_identical_subspaces(self, tmp_path, capsys):
        a1 = write_csv(tmp_path / "s1.csv", [[1, 0], [0, 1], [1, 1]])
        a2 = write_csv(tmp_path / "s2.csv", [[2, 0], [0, 2], [2, 2]])
        assert cli.main(["angles", a1, a2]) == 0
        out = capsys.readouterr().out
        lines = [line.split() for line in out.splitlines()[1:]]
        assert all(float(cells[1]) == 0.0 for cells in lines)


class TestReduceCommand:
    def test_column_count(self, tmp_path):
        rng = np.random.default_rng(9)
        data = write_csv(tmp_path / "m.csv", rng.standard_normal((9, 4)).tolist())
        out = str(tmp_path / "mg.csv")
        assert cli.main(["reduce", data, "--partition", "3,3,3",
                         "--out", out]) == 0
        mg = cli.read_matrix(out)
        assert mg.shape == (9, 2)

    def test_singleton_clusters(self, tmp_path):
        rng = np.random.default_rng(9)
        data = write_csv(tmp_path / "m.csv", rng.standard_normal((3, 4)).tolist())
        out = str(tmp_path / "mg.csv")
        assert cli.main(["reduce", data, "--partition", "1,1,1",
                         "--out", out]) == 0
        mg = cli.read_matrix(out)
        assert mg.shape == (3, 2)
        gaps = np.linalg.norm(mg[:, None, :] - mg[None, :, :], axis=2)
        assert np.min(gaps[~np.eye(3, dtype=bool)]) > 1e-6


class TestJacobiCommand:
    def test_seed_gives_identical_bytes(self, tmp_path):
        args = ["jacobi", "--m1", "3", "--m2", "4", "--n", "2",
                "--samples", "1200", "--seed", "17"]
        out1 = str(tmp_path / "s1.csv")
        out2 = str(tmp_path / "s2.csv")
        assert cli.main(args + ["--out", out1]) == 0
        assert cli.main(args + ["--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_out_file_is_the_sampled_stream(self, tmp_path):
        # the written draws are the ones the statistics were computed from:
        # a replay of the seeded stream, one sample per row
        out = str(tmp_path / "draws.csv")
        assert cli.main(["jacobi", "--m1", "4", "--m2", "3", "--n", "2",
                         "--beta", "2", "--samples", "1000", "--seed", "23",
                         "--out", out]) == 0
        params = jacobi.JacobiParams(m1=4, m2=3, n=2, beta=2)
        gen = jacobi.SeededRng(23).generator()
        replay = str(tmp_path / "replay.csv")
        cli.write_matrix(replay, np.array(
            [jacobi.sample_manova(params, gen) for _ in range(1000)]))
        assert Path(out).read_bytes() == Path(replay).read_bytes()

    def test_reports_ks_for_scalar(self, capsys):
        assert cli.main(["jacobi", "--m1", "3", "--m2", "5", "--n", "1",
                         "--samples", "2000", "--seed", "1"]) == 0
        assert "KS distance" in capsys.readouterr().out

    @pytest.mark.parametrize("m1, m2, n, message", [
        ("2", "5", "3", "need m1 >= n and m2 >= n"),
        ("3", "5", "0", "n must be positive"),
    ])
    def test_impossible_shape_exit_3(self, capsys, m1, m2, n, message):
        assert cli.main(["jacobi", "--m1", m1, "--m2", m2, "--n", n]) == 3
        assert capsys.readouterr().err == f"gsvdkit jacobi: {message}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--beta", "0"], "beta must be positive"),
        (["--samples", "999"], "need at least 1000 samples"),
    ])
    def test_domain_errors_exit_2(self, capsys, flags, message):
        assert cli.main(["jacobi", "--m1", "3", "--m2", "5", "--n", "1", *flags]) == 2
        assert message in capsys.readouterr().err


class TestInputEdges:
    def test_blank_lines_are_skipped(self, worked_example, tmp_path, capsys):
        a, b = worked_example
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("3,0\n\n0,4\n")
        np.testing.assert_array_equal(cli.read_matrix(str(gapped)), cli.read_matrix(a))
        assert cli.main(["gsvd", a, b]) == 0
        want = capsys.readouterr().out
        assert cli.main(["gsvd", str(gapped), b]) == 0
        assert capsys.readouterr().out == want

    def test_missing_input_exit_2(self, worked_example, tmp_path, capsys):
        a, _ = worked_example
        assert cli.main(["gsvd", a, str(tmp_path / "absent.csv")]) == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_nan_tolerance_exit_2(self, worked_example, capsys):
        # a NaN cutoff used to report r = 0 for this full-rank pair
        a, b = worked_example
        assert cli.main(["gsvd", a, b, "--tol", "nan"]) == 2
        assert "rel must be a nonnegative number" in capsys.readouterr().err

    @pytest.mark.parametrize("lambdas", ["0,nan", "inf", "1,-inf"])
    def test_non_finite_lambda_exit_2(self, tmp_path, capsys, lambdas):
        files = [write_csv(tmp_path / "a.csv", [[1, 0], [0, 1], [1, 1]]),
                 write_csv(tmp_path / "l.csv", np.eye(2).tolist()),
                 write_csv(tmp_path / "b.csv", [[1], [2], [3]])]
        assert cli.main(["tikhonov", *files, "--lambdas", lambdas]) == 2
        assert "--lambdas" in capsys.readouterr().err


class TestPartitionEdges:
    def test_anova_on_a_matrix_exit_3(self, tmp_path):
        data = write_csv(tmp_path / "m.csv", [[1, 2], [3, 4], [5, 6]])
        assert cli.main(["anova", data, "--partition", "1,2"]) == 3

    def test_bad_partition_entry_exit_2(self, tmp_path, capsys):
        data = write_csv(tmp_path / "v.csv", [[1], [2], [3], [4]])
        assert cli.main(["anova", data, "--partition", "2,x"]) == 2
        assert "--partition" in capsys.readouterr().err

    def test_reduce_partition_mismatch_exit_3(self, tmp_path):
        data = write_csv(tmp_path / "m.csv", np.arange(12.0).reshape(4, 3).tolist())
        assert cli.main(["reduce", data, "--partition", "2,3",
                         "--out", str(tmp_path / "mg.csv")]) == 3

    def test_reduce_writes_g(self, tmp_path):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((9, 4))
        data = write_csv(tmp_path / "m.csv", m.tolist())
        out, g_out = str(tmp_path / "mg.csv"), str(tmp_path / "g.csv")
        assert cli.main(["reduce", data, "--partition", "3,3,3",
                         "--out", out, "--g-out", g_out]) == 0
        g = cli.read_matrix(g_out)
        assert g.shape == (4, 2)
        np.testing.assert_allclose(cli.read_matrix(out), cli.read_matrix(data) @ g,
                                   atol=1e-12)


class TestEmptyOutputs:
    def test_ellipse_of_a_zero_pair(self, tmp_path):
        a = write_csv(tmp_path / "a.csv", [[0, 0], [0, 0]])
        b = write_csv(tmp_path / "b.csv", [[0, 0]])
        out = str(tmp_path / "ellipse.json")
        assert cli.main(["ellipse", a, b, "--json", out]) == 0
        doc = read_json(out)
        assert doc["cosine_boundary"] == doc["sine_boundary"] == []
        assert doc["cosine_lengths"] == doc["angles"] == []

    @pytest.mark.parametrize("key, value", [("compact", "no"), ("compact", 0),
                                            ("u", [["x", 1.0]]), ("h", [[1.0], [2.0, 3.0]])],
                             ids=["compact string", "compact integer",
                                  "string entry", "ragged rows"])
    def test_verify_rejects_ill_typed_entries_exit_2(self, worked_example, tmp_path,
                                                      key, value):
        a, b = worked_example
        out = str(tmp_path / "factors.json")
        assert cli.main(["gsvd", a, b, "--json", out]) == 0
        doc = read_json(out)
        doc[key] = value
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert cli.main(["verify", a, b, out]) == 2
