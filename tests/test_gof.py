import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netfit.cli import main
from netfit.dataset import DatasetError, DatasetRow, DatasetTable
from netfit.gof import (
    canberra_distance,
    correlation_matrix,
    mean_distance_matrix,
    pca_project,
    standardized_metrics,
)
from netfit.metrics import METRIC_FIELDS, FeatureVector


def make_fv(values, size=10):
    return FeatureVector(size=size, **dict(zip(METRIC_FIELDS, values)))


def make_row(name, values, domain="social", category="real", subcategory="Real"):
    return DatasetRow(
        name=name,
        features=make_fv(values),
        domain=domain,
        category=category,
        subcategory=subcategory,
    )


def table_from_vectors(vectors, domain="social"):
    rows = [make_row(f"g{i}", vec, domain=domain) for i, vec in enumerate(vectors)]
    return DatasetTable(rows=tuple(rows))


class TestCanberra:
    def test_identity(self):
        assert canberra_distance((1, 2, 3), (1, 2, 3)) == 0.0

    def test_orthogonal_unit(self):
        assert canberra_distance((1, 0), (0, 1)) == pytest.approx(2.0)

    def test_zero_zero_convention(self):
        assert canberra_distance((3, 1, 0), (1, 1, 0)) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            canberra_distance((1, 2), (1, 2, 3))

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=3, max_size=3),
        st.lists(st.floats(0.0, 100.0), min_size=3, max_size=3),
        st.lists(st.floats(0.0, 100.0), min_size=3, max_size=3),
    )
    @settings(max_examples=200)
    def test_metric_axioms_nonnegative_coords(self, p, q, r):
        dpq = canberra_distance(p, q)
        assert dpq >= 0.0
        assert dpq == pytest.approx(canberra_distance(q, p))
        if p == q:
            assert dpq == 0.0
        assert dpq <= canberra_distance(p, r) + canberra_distance(r, q) + 1e-9


class TestDatasetTable:
    def test_duplicate_name_subcategory_rejected(self):
        row = make_row("a", [0.5] * 7)
        with pytest.raises(DatasetError):
            DatasetTable(rows=(row, row))

    def test_same_name_different_subcategory_allowed(self):
        rows = (
            make_row("a", [0.5] * 7),
            make_row("a", [0.4] * 7, category="model", subcategory="2K"),
        )
        assert len(DatasetTable(rows=rows)) == 2

    def test_enum_validation(self):
        with pytest.raises(DatasetError):
            DatasetTable(rows=(make_row("a", [0.5] * 7, domain="space"),))
        with pytest.raises(DatasetError):
            DatasetTable(rows=(make_row("a", [0.5] * 7, category="model"),))

    def test_non_finite_rejected(self):
        with pytest.raises(DatasetError):
            DatasetTable(rows=(make_row("a", [float("nan")] + [0.5] * 6),))

    def test_csv_round_trip(self):
        rows = (
            make_row("a", [0.1, -0.2, 0.3, 2.5, 0.4, 0.5, 1.25]),
            make_row("a", [0.15, -0.1, 0.2, 2.5, 0.35, 0.55, 1.0],
                     category="model", subcategory="WS"),
        )
        table = DatasetTable(rows=rows)
        again = DatasetTable.from_csv_text(table.to_csv_text())
        assert again == table

    def test_csv_header_mismatch(self):
        with pytest.raises(DatasetError, match="missing columns"):
            DatasetTable.from_csv_text("name,size\nx,3\n")


class TestMeanDistanceMatrix:
    def _counterpart_table(self, perturb):
        rows = []
        base = [0.3, -0.5, 0.4, 3.0, 0.6, 0.2, 1.5]
        for i in range(3):
            vec = [v + 0.01 * i for v in base]
            rows.append(make_row(f"g{i}", vec))
            rows.append(make_row(f"g{i}", [v + perturb for v in vec],
                                 category="model", subcategory="2K"))
        return DatasetTable(rows=tuple(rows))

    def test_identical_counterparts_give_zero(self):
        table = self._counterpart_table(0.0)
        result = mean_distance_matrix(table)
        assert result.get("social", "Real", "2K") == (pytest.approx(0.0), 3)
        assert result.get("social", "Real", "Real") == (pytest.approx(0.0), 3)

    def test_two_rows_equal_plain_distance(self):
        a = [1.0, 0.5, 0.2, 4.0, 0.3, 0.4, 2.0]
        b = [2.0, 0.5, 0.1, 5.0, 0.3, 0.4, 1.0]
        rows = (
            make_row("g", a),
            make_row("g", b, category="model", subcategory="CBA"),
        )
        result = mean_distance_matrix(DatasetTable(rows=rows))
        entry = result.get("social", "Real", "CBA")
        assert entry[0] == pytest.approx(canberra_distance(a, b))
        assert entry[1] == 1

    def test_symmetry(self):
        table = self._counterpart_table(0.05)
        result = mean_distance_matrix(table)
        ab = result.get("social", "Real", "2K")
        ba = result.get("social", "2K", "Real")
        assert ab[0] == pytest.approx(ba[0])

    def test_unmatched_names_reported(self):
        rows = (
            make_row("g0", [0.3] * 7),
            make_row("g0", [0.31] * 7, category="model", subcategory="WS"),
            make_row("g1", [0.4] * 7),  # no WS counterpart
        )
        result = mean_distance_matrix(DatasetTable(rows=rows))
        assert ("social", "g1", ("WS",)) in result.unmatched

    def test_csv_shape(self):
        table = self._counterpart_table(0.1)
        text = mean_distance_matrix(table).to_csv_text("social")
        lines = text.strip().splitlines()
        assert lines[0] == ",Real,2K"
        assert len(lines) == 3


class TestCorrelationMatrix:
    def test_duplicated_column_perfect_correlation(self):
        vectors = [[v, v, 0.5, 1.0, 0.2, 0.3, 0.9] for v in (0.1, 0.4, 0.8, 0.2)]
        corr = correlation_matrix(table_from_vectors(vectors))
        assert corr.matrix[0][1] == pytest.approx(1.0)

    def test_negated_column(self):
        vectors = [[v, -v, 0.5, 1.0, 0.2, 0.3, 0.9] for v in (0.1, 0.4, 0.8, 0.2)]
        corr = correlation_matrix(table_from_vectors(vectors))
        assert corr.matrix[0][1] == pytest.approx(-1.0)

    def test_matches_pearson_oracle(self):
        rng = np.random.default_rng(42)
        vectors = rng.uniform(-1, 1, size=(4, 7)).tolist()
        corr = correlation_matrix(table_from_vectors(vectors))
        oracle = np.corrcoef(np.array(vectors).T)
        for i in range(7):
            for j in range(7):
                assert corr.matrix[i][j] == pytest.approx(oracle[i, j], abs=1e-12)

    def test_zero_variance_flagged(self):
        vectors = [[0.5, v, 0.5, 1.0, 0.2, 0.3, 0.9] for v in (0.1, 0.4, 0.8)]
        corr = correlation_matrix(table_from_vectors(vectors))
        assert "density" in corr.degenerate
        assert corr.matrix[0][1] == 0.0
        assert corr.matrix[0][0] == 1.0

    def test_flat_column_with_rounded_std_flagged(self):
        # np.std of three copies of this avg_deg is 4.4e-16, not 0
        vectors = [[v, 0.1, 0.2, 3.590909090909091, 0.4, 1.5 * v, 0.3] for v in (0.1, 0.4, 0.8)]
        table = table_from_vectors(vectors)
        corr = correlation_matrix(table)
        assert corr.degenerate == ("assort", "avg_clust", "avg_deg", "max_eigenv_c",
                                   "skew_deg_dist")
        assert corr.matrix[3][0] == 0.0
        assert not standardized_metrics(table)[:, 3].any()

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            correlation_matrix(table_from_vectors([[0.1] * 7, [0.2] * 7]))

    def test_row_order_invariance(self):
        rng = np.random.default_rng(3)
        vectors = rng.uniform(0, 1, size=(6, 7)).tolist()
        a = correlation_matrix(table_from_vectors(vectors))
        b = correlation_matrix(table_from_vectors(vectors[::-1]))
        for i in range(7):
            assert a.matrix[i] == pytest.approx(b.matrix[i])

    def test_gof_correlation_csv_reads_back_as_floats(self, tmp_path):
        rng = np.random.default_rng(11)
        vectors = rng.uniform(0, 1, size=(4, 7)).tolist()
        table = table_from_vectors(vectors, domain="food")
        dataset = tmp_path / "dataset.csv"
        dataset.write_text(table.to_csv_text())
        assert main(["gof", str(dataset), "--out", str(tmp_path / "gof")]) == 0
        with open(tmp_path / "gof" / "correlation_food.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [""] + list(METRIC_FIELDS)
        corr = correlation_matrix(table)
        for i, row in enumerate(rows[1:]):
            assert row[0] == METRIC_FIELDS[i]
            assert [float(cell) for cell in row[1:]] == list(corr.matrix[i])


class TestPca:
    def test_rank1_data_has_zero_pc2(self):
        base = np.array([0.2, -0.4, 0.6, 1.0, 0.1, 0.3, 0.8])
        vectors = [(t * base).tolist() for t in (0.0, 0.5, 1.0, 1.5, 2.0)]
        proj = pca_project(table_from_vectors(vectors))
        for _, _, _, _, pc2 in proj.rows:
            assert abs(pc2) < 1e-9

    def test_variance_dominance_probe(self):
        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(30, 7)).tolist()
        table = table_from_vectors(vectors)
        proj = pca_project(table)
        data = standardized_metrics(table)
        var1 = np.var([r[3] for r in proj.rows])
        var2 = np.var([r[4] for r in proj.rows])
        assert var1 >= var2 - 1e-12
        for _ in range(1000):
            direction = rng.normal(size=7)
            direction /= np.linalg.norm(direction)
            assert var1 >= np.var(data @ direction) - 1e-9

    def test_mirrored_dataset_negates_projection(self):
        rng = np.random.default_rng(11)
        vectors = rng.normal(size=(8, 7))
        proj_a = pca_project(table_from_vectors(vectors.tolist()))
        proj_b = pca_project(table_from_vectors((-vectors).tolist()))
        # standardization re-centers, so mirroring flips scores up to the
        # sign convention on each component
        for (_, _, _, a1, a2), (_, _, _, b1, b2) in zip(proj_a.rows, proj_b.rows):
            assert abs(abs(a1) - abs(b1)) < 1e-9
            assert abs(abs(a2) - abs(b2)) < 1e-9

    def test_sign_convention(self):
        rng = np.random.default_rng(13)
        vectors = rng.normal(size=(12, 7)).tolist()
        proj = pca_project(table_from_vectors(vectors))
        for comp in proj.components:
            pivot = int(np.argmax(np.abs(comp)))
            assert comp[pivot] > 0

    def test_rank0_errors(self):
        with pytest.raises(ValueError):
            pca_project(table_from_vectors([[0.5] * 7] * 4))

    def test_rank0_dataset_exits_2_naming_file(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.csv"
        dataset.write_text(table_from_vectors([[0.5] * 7] * 4, domain="food").to_csv_text())
        out = tmp_path / "gof"
        assert main(["gof", str(dataset), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: dataset {dataset}: rank-0 data: all metric columns are constant\n")
        assert not out.exists()

    def test_csv_quotes_names(self):
        rng = np.random.default_rng(3)
        rows = [make_row(name, vec) for name, vec in
                zip(("a,b", 'say "hi"', "c"), rng.normal(size=(3, 7)).tolist())]
        proj = pca_project(DatasetTable(rows=tuple(rows)))
        records = list(csv.reader(io.StringIO(proj.to_csv_text())))
        assert [r[0] for r in records] == ["name", "a,b", 'say "hi"', "c"]
        assert all(len(r) == 4 for r in records)
        assert float(records[1][2]) == proj.rows[0][3]

    def test_row_order_invariance(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(9, 7)).tolist()
        rows = [make_row(f"g{i}", vec) for i, vec in enumerate(vectors)]
        a = pca_project(DatasetTable(rows=tuple(rows)))
        b = pca_project(DatasetTable(rows=tuple(rows[::-1])))
        mapped = {row[0]: row[3:] for row in b.rows}
        for name, _, _, pc1, pc2 in a.rows:
            assert mapped[name] == (pytest.approx(pc1), pytest.approx(pc2))
