import numpy as np
import pytest

from optray.dataset import (
    Dataset,
    MarginMatrix,
    load_csv,
    normalize,
    save_csv,
    synth,
    to_margin_matrix,
)
from optray.errors import DegenerateDataError, ParseError, ValidationError


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

    def test_margin_matrix_idempotent_after_normalize(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ds = Dataset(rng.standard_normal((5, 3)) * 4, rng.choice([-1, 1], size=5))
            once = normalize(ds)
            twice = normalize(once)
            np.testing.assert_array_equal(
                to_margin_matrix(once).rows, to_margin_matrix(twice).rows
            )


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
