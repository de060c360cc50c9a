import csv_oracle
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from optray.dataset import (
    Dataset,
    MarginMatrix,
    load_csv,
    normalize,
    save_csv,
    synth,
    to_margin_matrix,
)
from optray.decompose import partition
from optray.errors import DegenerateDataError, ParseError, ValidationError
from optray.margin import solve_dual


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("f1,label\n1.0,1\n-1.0,-1\n")
        ds = load_csv(p)
        assert (ds.n, ds.d) == (2, 1)
        np.testing.assert_allclose(ds.features, [[1.0], [-1.0]])
        np.testing.assert_array_equal(ds.labels, [1, -1])

    def test_two_features(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("f1,f2,label\n0,1,1\n0,1,-1\n1,0,1\n")
        ds = load_csv(p)
        assert (ds.n, ds.d) == (3, 2)

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("f1,label\n1.0,0\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_csv(p)

    def test_malformed_row_names_row_number(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,label\n1.0,1\nnot_a_number,1\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(p)

    def test_non_finite_feature_rejected(self, tmp_path):
        for value in ("nan", "inf", "-inf"):
            p = tmp_path / f"{value}.csv"
            p.write_text(f"f1,f2,label\n1,0,1\n{value},1,1\n0,1,-1\n")
            with pytest.raises(ValidationError, match="finite"):
                load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            load_csv(p)

    def test_round_trip(self, tmp_path):
        ds = synth("mixed", 5, 3)
        p = tmp_path / "rt.csv"
        save_csv(ds, p)
        back = load_csv(p)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_allclose(back.features, ds.features, rtol=0, atol=0)


# fields that float() reads, or rejects, as the reader meets them
_VALID_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["1_000", " 2.5 ", "+3", "-0", ".5", "5.", "1e-320", '"7"']),
)
_VALID_LABELS = st.sampled_from(["1", "-1", "1.0", "-1e0", " 1", "+1", '"-1"', "1_0e-1"])
_FAULTS = ("count", "blank", "float", "label", "non_finite")


@st.composite
def csv_texts(draw):
    """A CSV text with header f1,...,fd,label whose rows are valid, or have
    one kind of fault each with some chance: a wrong field count, a blank or
    spaces-only line, a field float() rejects, a label other than -1 or 1,
    a non-finite feature; or a header other than f1,...,fd,label."""
    d = draw(st.integers(1, 4))
    fault = draw(st.sampled_from([None, "header", "any", *_FAULTS]))
    header = [f"f{i + 1}" for i in range(d)] + ["label"]
    if fault == "header":
        header = draw(st.sampled_from([header[1:], [f" {c} " for c in header], header + ["x"]]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = None
        if fault not in (None, "header") and draw(st.booleans()):
            kind = draw(st.sampled_from(_FAULTS)) if fault == "any" else fault
        fields = [draw(_VALID_FIELDS) for _ in range(d)] + [draw(_VALID_LABELS)]
        if kind == "count":
            fields = fields[1:] if draw(st.booleans()) else fields + ["1"]
        elif kind == "blank":
            fields = [draw(st.sampled_from(["", "   "]))]
        elif kind == "float":
            fields[draw(st.integers(0, d))] = draw(
                st.sampled_from(["abc", "", "1..2", "0x10", "1__0", "   ", '"1', "\x00"])
            )
        elif kind == "label":
            fields[d] = draw(st.sampled_from(["0", "2", "-0", "nan", "one", "1.5"]))
        elif kind == "non_finite":
            fields[draw(st.integers(0, d - 1))] = draw(st.sampled_from(["nan", "-inf", "1e999"]))
        lines.append(",".join(fields))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


def _outcome(load, path):
    """The arrays load reads from path, or the class and message it raises."""
    try:
        ds = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple((a.dtype, a.shape, a.tobytes()) for a in (ds.features, ds.labels))


class TestReaderMatchesRowLoop:
    """load_csv against the row-by-row reader it replaced (tests/csv_oracle.py):
    the same arrays bit for bit, or the same exception and message."""

    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_same_arrays_or_same_error(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "in.csv"
        path.write_bytes(text.encode())
        assert _outcome(load_csv, path) == _outcome(csv_oracle.load_csv, path)

    @pytest.mark.parametrize(
        "tail",
        [b"\xff\n", b"1," + b"9" * 200_000 + b"\n"],
        ids=["undecodable_byte", "field_too_long"],
    )
    @pytest.mark.parametrize("bad_row", [b"", b"x,1\n"], ids=["rows_ok", "bad_row_first"])
    def test_reader_failure_after_the_rows_read(self, tail, bad_row, tmp_path):
        # a bad row read before the reader fails raises first; the padding
        # puts the failure past the first chunk the file is decoded in
        path = tmp_path / "in.csv"
        path.write_bytes(b"f1,label\n" + bad_row + b"0.5,1\n" * 5000 + tail)
        expected = _outcome(csv_oracle.load_csv, path)
        assert expected[0] in (ParseError, ValidationError)
        assert _outcome(load_csv, path) == expected


class TestNormalize:
    def test_scales_down(self):
        ds = Dataset(np.array([[2.0, 0.0]]), np.array([1]))
        np.testing.assert_allclose(normalize(ds).features, [[1.0, 0.0]])

    def test_identity_when_small(self):
        ds = Dataset(np.array([[0.5, 0.0]]), np.array([1]))
        np.testing.assert_allclose(normalize(ds).features, [[0.5, 0.0]])

    def test_global_single_scalar(self):
        ds = Dataset(np.array([[3.0, 4.0], [1.0, 0.0]]), np.array([1, -1]))
        np.testing.assert_allclose(normalize(ds).features, [[0.6, 0.8], [0.2, 0.0]])

    def test_all_zero_rejected(self):
        ds = Dataset(np.zeros((2, 2)), np.array([1, -1]))
        with pytest.raises(DegenerateDataError):
            normalize(ds)

    def test_huge_features_decompose_as_unscaled(self, tmp_path):
        # |x| ~ 1e160 squares past the float range: the norm must not be
        # inf, which would divide every row down to 0
        ds = synth("mixed", 10, 1)
        out = []
        for scale in (1.0, 1e160):
            p = tmp_path / f"x{scale:g}.csv"
            save_csv(Dataset(ds.features * scale, ds.labels), p)
            A = to_margin_matrix(normalize(load_csv(p)))
            dec = partition(A)
            out.append((dec.n_sep, dec.basis_s.shape[1], solve_dual(dec.a_perp).margin))
        (sep, rank, margin), (sep_x, rank_x, margin_x) = out
        assert (sep_x, rank_x) == (sep, rank) == (20, 1)
        assert margin_x == pytest.approx(margin, rel=1e-12, abs=0)

    @pytest.mark.parametrize("row", ([1e308] * 4, [1.5e308, 1.5e308]))
    def test_norm_past_float_range_still_normalizes(self, row):
        # the rescaled norm of these rows is still past the float range
        x = np.array([row, [1e307] + [0.0] * (len(row) - 1)])
        got = normalize(Dataset(x, np.array([1, -1]))).features
        np.testing.assert_allclose(got, x / x[0, 0] / np.sqrt(len(row)), rtol=1e-15)

    def test_tiny_features_are_not_all_zero(self):
        # squares of 1e-170 underflow to 0; the rows are still nonzero
        ds = Dataset(np.array([[3e-170, 4e-170], [1e-170, 0.0]]), np.array([1, -1]))
        np.testing.assert_array_equal(normalize(ds).features, ds.features)

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 3)), elements=st.floats(-1.0, 1.0)),
        st.integers(1, 300),
    )
    def test_scaled_features_normalize_alike(self, x, k):
        top = np.linalg.norm(x, axis=1).max()
        assume(top >= 0.1)  # so that x 10^k needs scaling down
        labels = np.ones(x.shape[0], dtype=np.int64)
        got = normalize(Dataset(x * 10.0**k, labels)).features
        np.testing.assert_allclose(got, x / top, rtol=1e-14, atol=1e-300)
        assert np.linalg.norm(got, axis=1).max() <= 1.0 + 1e-15

    def test_margin_matrix_idempotent_after_normalize(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ds = Dataset(rng.standard_normal((5, 3)) * 4, rng.choice([-1, 1], size=5))
            once = normalize(ds)
            twice = normalize(once)
            np.testing.assert_array_equal(
                to_margin_matrix(once).rows, to_margin_matrix(twice).rows
            )


@pytest.mark.parametrize(
    "labels",
    [
        np.array([1, -1]),
        np.array([1.0, -1.0]),
        np.array([1.0, -1.0], dtype=np.float32),
        np.array([True, True]),
        np.array([1, -1], dtype=np.int8),
        np.array([1, 1], dtype=np.uint8),
        np.array([1, None], dtype=object),
        np.array([1, 0]),
        np.array([1.0, np.nan]),
        np.array([1, 255], dtype=np.uint8),
        np.array([False, True]),
        np.array(["1", "-1"]),
    ],
    ids=lambda a: f"{a.dtype}-{a.tolist()}",
)
def test_dataset_accepts_the_labels_np_isin_accepts(labels):
    # the label test compares with 1 and -1 directly; its accept set is isin's
    features = np.zeros((2, 1))
    if np.all(np.isin(labels, (-1, 1))):
        np.testing.assert_array_equal(Dataset(features, labels).labels, labels.astype(np.int64))
    else:
        with pytest.raises(ValidationError, match="every label"):
            Dataset(features, labels)


class TestMarginMatrix:
    def test_positive_label(self):
        ds = Dataset(np.array([[1.0, 0.0]]), np.array([1]))
        np.testing.assert_allclose(to_margin_matrix(ds).rows, [[-1.0, 0.0]])

    def test_negative_label(self):
        ds = Dataset(np.array([[0.0, 1.0]]), np.array([-1]))
        np.testing.assert_allclose(to_margin_matrix(ds).rows, [[0.0, 1.0]])

    def test_three_points(self):
        ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), np.array([1, 1, -1]))
        np.testing.assert_allclose(
            to_margin_matrix(ds).rows, [[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]]
        )

    def test_oversized_rows_rejected(self):
        # a nan row has a nan norm, which no comparison with the bound admits
        for rows in ([[2.0, 0.0]], [[0.5, 0.0], [np.nan, 0.0]]):
            with pytest.raises(ValidationError):
                MarginMatrix(np.array(rows))


class TestSynth:
    def test_deterministic(self):
        a = synth("separable", 10, 7)
        b = synth("separable", 10, 7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_touching_contains_origin(self):
        ds = synth("touching", 5, 1)
        assert any(np.all(x == 0.0) for x in ds.features)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            synth("bogus", 5, 1)

    def test_negative_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            synth("mixed", 5, -1)

    @pytest.mark.parametrize("kind", ["separable", "overlap", "touching", "mixed"])
    def test_normalized_invariant(self, kind):
        ds = synth(kind, 20, 3)
        mat = to_margin_matrix(ds)
        assert np.linalg.norm(mat.rows, axis=1).max() <= 1 + 1e-12

    def test_mixed_has_axis_points(self):
        ds = synth("mixed", 4, 2)
        on_axis = np.abs(ds.features[:, 0]) < 1e-15
        assert on_axis.sum() == 3
        assert set(ds.labels[on_axis]) == {1, -1}

    def test_separable_gap(self):
        ds = synth("separable", 30, 5)
        pos = ds.features[ds.labels == 1][:, 0]
        neg = ds.features[ds.labels == -1][:, 0]
        assert pos.min() > 0 and neg.max() < 0
