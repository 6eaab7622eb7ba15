import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netfit.classify import (
    ClassSupportError,
    ForestConfig,
    LabeledDataset,
    TreeConfig,
    accuracy,
    confusion_matrix,
    roc_auc,
    run_task,
    stratified_kfold,
    train_forest,
    train_tree,
)
from netfit.dataset import DatasetRow, DatasetTable
from netfit.metrics import METRIC_FIELDS, FeatureVector


def dataset(features, labels, class_names=("a", "b")):
    return LabeledDataset(
        features=np.asarray(features, dtype=float),
        labels=np.asarray(labels, dtype=np.int64),
        class_names=tuple(class_names),
    )


class TestStratifiedKFold:
    def test_balanced_two_class(self):
        labels = [0] * 5 + [1] * 5
        folds = stratified_kfold(labels, 5, seed=1)
        for fold in folds:
            assert len(fold) == 2
            assert sorted(np.asarray(labels)[fold]) == [0, 1]

    def test_single_class(self):
        folds = stratified_kfold([0] * 9, 3, seed=2)
        assert sorted(len(f) for f in folds) == [3, 3, 3]

    def test_round_robin_4a_3b(self):
        labels = [0] * 4 + [1] * 3
        folds = stratified_kfold(labels, 3, seed=3)
        a_counts = sorted(sum(1 for i in f if labels[i] == 0) for f in folds)
        b_counts = sorted(sum(1 for i in f if labels[i] == 1) for f in folds)
        assert a_counts == [1, 1, 2]
        assert b_counts == [1, 1, 1]

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=23)
        folds = stratified_kfold(labels, 4, seed=5)
        combined = sorted(int(i) for f in folds for i in f)
        assert combined == list(range(23))

    def test_per_class_counts_within_one(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, size=37)
        folds = stratified_kfold(labels, 5, seed=6)
        for cls in range(4):
            counts = [int(np.sum(labels[f] == cls)) for f in folds]
            assert max(counts) - min(counts) <= 1

    def test_too_many_folds(self):
        with pytest.raises(ValueError):
            stratified_kfold([0, 1], 3)


class TestDecisionTree:
    def test_separable_1d(self):
        data = dataset([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])
        tree = train_tree(data)
        assert not tree.root.is_leaf
        assert 1.0 < tree.root.threshold < 10.0
        assert tree.predict(data.features).tolist() == [0, 0, 1, 1]

    def test_identical_features_single_leaf(self):
        data = dataset([[2.0], [2.0], [2.0]], [0, 1, 1])
        tree = train_tree(data)
        assert tree.root.is_leaf
        assert tree.predict([[2.0]]).tolist() == [1]

    def test_xor_needs_depth_two(self):
        data = dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])
        tree = train_tree(data)
        assert tree.predict(data.features).tolist() == [0, 1, 1, 0]
        depth_one = train_tree(data, config=TreeConfig(max_depth=1))
        assert depth_one.predict(data.features).tolist() != [0, 1, 1, 0]

    def test_training_accuracy_one_on_unique_rows(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        data = dataset(feats, labels, class_names=("a", "b", "c"))
        tree = train_tree(data)
        assert (tree.predict(feats) == labels).all()

    def test_split_counts(self):
        data = dataset([[0.0, 5.0], [1.0, 5.0], [10.0, 5.0], [11.0, 5.0]], [0, 0, 1, 1])
        tree = train_tree(data)
        counts = tree.split_feature_counts()
        assert counts[0] >= 1
        assert len(counts) == 2  # one count per feature column, split on or not
        forest = train_forest(data, config=ForestConfig(trees=5), seed=1)
        assert len(forest.split_feature_counts()) == 2


class TestRandomForest:
    def test_separable(self):
        data = dataset([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])
        forest = train_forest(data, config=ForestConfig(trees=25), seed=3)
        assert forest.predict([[0.5], [10.5]]).tolist() == [0, 1]

    def test_pure_labels(self):
        data = dataset([[0.0], [1.0], [2.0]], [1, 1, 1])
        forest = train_forest(data, config=ForestConfig(trees=10), seed=1)
        assert forest.predict([[5.0]]).tolist() == [1]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(30, 4))
        labels = rng.integers(0, 2, size=30)
        data = dataset(feats, labels)
        a = train_forest(data, seed=7)
        b = train_forest(data, seed=7)
        assert (a.predict(feats) == b.predict(feats)).all()
        assert np.allclose(a.score(feats, positive=1), b.score(feats, positive=1))

    def test_single_tree_no_bootstrap_equals_tree(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(25, 4))
        labels = rng.integers(0, 2, size=25)
        data = dataset(feats, labels)
        forest = train_forest(
            data, config=ForestConfig(trees=1, features_per_split=4, bootstrap=False), seed=5
        )
        tree = train_tree(data, seed=5)
        probe = rng.normal(size=(40, 4))
        assert (forest.predict(probe) == tree.predict(probe)).all()

    def test_vote_fraction_scores(self):
        data = dataset([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])
        forest = train_forest(data, config=ForestConfig(trees=20), seed=3)
        scores = forest.score([[0.5], [10.5]], positive=1)
        assert scores[0] < 0.5 < scores[1]


class TestAccuracy:
    def test_example(self):
        assert accuracy([[3, 1], [0, 6]]) == pytest.approx(0.9)

    def test_perfect(self):
        assert accuracy([[5, 0], [0, 5]]) == 1.0

    def test_all_wrong(self):
        assert accuracy([[0, 4], [4, 0]]) == 0.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            accuracy([[0, 0], [0, 0]])

    def test_confusion_orientation(self):
        # rows = predicted, columns = actual
        m = confusion_matrix(predicted=[0, 1, 1], actual=[0, 0, 1], n_classes=2)
        assert m[1, 0] == 1 and m[0, 0] == 1 and m[1, 1] == 1 and m[0, 1] == 0


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_three_quarters(self):
        assert roc_auc([0.8, 0.3, 0.5, 0.1], [1, 1, 0, 0]) == pytest.approx(0.75)

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.9], [1, 1])

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=20))
    @settings(max_examples=100)
    def test_complement_symmetry(self, labels):
        if len(set(labels)) < 2:
            return
        rng = np.random.default_rng(len(labels))
        scores = rng.permutation(len(labels)) / len(labels)  # tie-free
        assert roc_auc(scores, labels) + roc_auc(-scores, labels) == pytest.approx(1.0)

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=20))
    @settings(max_examples=100)
    def test_monotone_transform_invariance(self, labels):
        if len(set(labels)) < 2:
            return
        rng = np.random.default_rng(hash(tuple(labels)) % 2**32)
        scores = rng.uniform(0.1, 1.0, size=len(labels))
        transformed = np.exp(3.0 * scores) + 5.0
        assert roc_auc(scores, labels) == pytest.approx(roc_auc(transformed, labels))


def build_table(per_class=12, seed=0, encode_label=True):
    """Table whose avg_clust column alone encodes the subcategory label."""
    rng = np.random.default_rng(seed)
    rows = []
    subcats = ("Real", "2K", "CBA", "WS", "DD", "Com")
    for c, sub in enumerate(subcats):
        for i in range(per_class):
            values = rng.uniform(0.2, 0.8, size=7)
            if encode_label:
                values[2] = c + rng.uniform(-0.2, 0.2)  # avg_clust encodes class
            fv = FeatureVector(size=50, **dict(zip(METRIC_FIELDS, values)))
            rows.append(
                DatasetRow(
                    name=f"g{i}" if sub != "Real" else f"g{i}",
                    features=fv,
                    domain="food",
                    category="real" if sub == "Real" else "model",
                    subcategory=sub,
                )
            )
    return DatasetTable(rows=tuple(rows))


class TestRunTask:
    def test_perfectly_encoded_label_both_models(self):
        table = build_table()
        report = run_task(table, "subcategory", model="tree", k=5, seed=1, domain="food")
        assert report.pooled_accuracy == 1.0
        # forest: bagged full-feature trees; per-split subsampling can bury
        # the informative column under noise splits on tiny data
        report = run_task(
            table, "subcategory", model="forest", k=5, seed=1, domain="food",
            forest_config=ForestConfig(trees=50, features_per_split=6),
        )
        assert report.pooled_accuracy == 1.0

    def test_category_task_reports_auc(self):
        table = build_table()
        report = run_task(table, "category", model="forest", k=5, seed=2, domain="food")
        assert report.auc is not None
        assert 0.0 <= report.auc <= 1.0
        assert report.class_names == ("model", "real")
        total = sum(sum(row) for row in report.confusion)
        assert total == len(table.filter(domain="food", exclude_subcategories=("WS_STD",)))

    def test_domain_task_uses_real_rows_only(self):
        rng = np.random.default_rng(3)
        rows = []
        for d_i, domain in enumerate(("social", "food", "brain", "chems")):
            for i in range(8):
                values = rng.uniform(0.1, 0.9, size=7)
                values[1] = d_i  # assort (a classifier feature) encodes domain
                fv = FeatureVector(size=30, **dict(zip(METRIC_FIELDS, values)))
                rows.append(DatasetRow(f"{domain}{i}", fv, domain, "real", "Real"))
                # decoy model rows that would break separability if included
                fv2 = FeatureVector(size=30, **dict(zip(METRIC_FIELDS, rng.uniform(0, 4, 7))))
                rows.append(DatasetRow(f"{domain}{i}", fv2, domain, "model", "2K"))
        report = run_task(DatasetTable(rows=tuple(rows)), "domain", model="tree", k=4, seed=4)
        assert report.pooled_accuracy == 1.0
        assert sum(sum(row) for row in report.confusion) == 32

    def test_ws_std_rows_excluded(self):
        table = build_table()
        rng = np.random.default_rng(5)
        extra = []
        for i in range(12):
            fv = FeatureVector(size=50, **dict(zip(METRIC_FIELDS, rng.uniform(0, 1, 7))))
            extra.append(DatasetRow(f"g{i}", fv, "food", "model", "WS_STD"))
        bigger = DatasetTable(rows=table.rows + tuple(extra))
        report = run_task(bigger, "subcategory", model="tree", k=5, seed=1, domain="food")
        assert "WS_STD" not in report.class_names
        assert sum(sum(row) for row in report.confusion) == len(table)

    def test_insufficient_support_names_class(self):
        table = build_table(per_class=1)
        with pytest.raises(ClassSupportError, match="has only 1"):
            run_task(table, "subcategory", model="tree", k=2, seed=0, domain="food")

    def test_category_requires_domain(self):
        with pytest.raises(ValueError):
            run_task(build_table(), "category", model="tree", k=5, seed=0)

    def test_seed_determinism(self):
        table = build_table(encode_label=False)
        a = run_task(table, "subcategory", model="forest", k=5, seed=9, domain="food")
        b = run_task(table, "subcategory", model="forest", k=5, seed=9, domain="food")
        assert a == b

    def test_pooled_and_mean_fold_both_reported(self):
        table = build_table(encode_label=False)
        report = run_task(table, "subcategory", model="tree", k=5, seed=3, domain="food")
        assert 0.0 <= report.mean_fold_accuracy <= 1.0
        assert len(report.fold_accuracies) == 5
        assert report.feature_split_counts
