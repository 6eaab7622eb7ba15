import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netfit.classify import (
    FOREST_TREES,
    HYPERPARAMETERS,
    ClassSupportError,
    LabeledDataset,
    _gini_split_score,
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

from helpers import reference_forest_roots, reference_gini_split_score, reference_grow_tree


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

    def test_non_finite_features_refused(self):
        with pytest.raises(ValueError, match="features must be finite"):
            dataset([[0.0], [float("nan")], [1.0]], [0, 1, 1])

    def test_identical_features_single_leaf(self):
        data = dataset([[2.0], [2.0], [2.0]], [0, 1, 1])
        tree = train_tree(data)
        assert tree.root.is_leaf
        assert tree.predict([[2.0]]).tolist() == [1]

    def test_xor_needs_depth_two(self):
        data = dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])
        tree = train_tree(data)
        assert tree.predict(data.features).tolist() == [0, 1, 1, 0]
        assert depth(tree.root) == 2

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
        forest = train_forest(data, seed=1)
        assert len(forest.split_feature_counts()) == 2


def depth(node):
    return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))


def corpus_shaped(rng, n):
    """n rows of the six classifier features at the value ranges of corpus graphs."""
    lows = np.array([-0.6, 0.0, 2.0, 0.1, 0.02, -0.5])
    highs = np.array([0.4, 0.7, 15.0, 0.6, 0.2, 4.0])
    return rng.uniform(lows, highs, size=(n, 6))


def many_ties(rng, n):
    """n rows of six features, each drawn from four values."""
    return rng.integers(0, 4, size=(n, 6)).astype(float)


def assert_same_tree(node, ref, path="root"):
    assert node.counts == ref.counts, path
    assert node.feature == ref.feature, path
    assert float(node.threshold).hex() == float(ref.threshold).hex(), path
    if not ref.is_leaf:
        assert_same_tree(node.left, ref.left, path + ".left")
        assert_same_tree(node.right, ref.right, path + ".right")


class TestGrowthMatchesReference:
    """Trees grown over row-index lists equal the numpy-mask growth node for node."""

    @pytest.mark.parametrize("n_classes", range(2, 8))
    @pytest.mark.parametrize("make", [corpus_shaped, many_ties])
    def test_node_for_node(self, make, n_classes):
        rng = np.random.default_rng(100 + n_classes)
        feats = make(rng, 36)
        labels = rng.integers(0, n_classes, size=36)
        data = dataset(feats, labels, class_names=[f"c{i}" for i in range(n_classes)])
        ref = reference_grow_tree(feats, labels, n_classes, 6, None)  # every feature
        assert_same_tree(train_tree(data).root, ref)
        forest = train_forest(data, seed=11)
        refs = reference_forest_roots(data, 100, 2, seed=11)  # floor(sqrt(6)) per split
        for tree, ref in zip(forest.trees, refs, strict=True):
            assert_same_tree(tree.root, ref)

    def test_paper_sized_forest(self):
        # a few hundred rows with heavy ties and repeated rows, so bootstrap
        # weights above 2 are common and many nodes hold duplicates
        rng = np.random.default_rng(23)
        copies = rng.integers(120, size=320)  # each of 120 rows about 2.7 times
        feats = many_ties(rng, 120)[copies]
        labels = rng.integers(0, 6, size=120)[copies]
        data = dataset(feats, labels, class_names=[f"c{i}" for i in range(6)])
        forest = train_forest(data, seed=61)
        refs = reference_forest_roots(data, FOREST_TREES, 2, seed=61)
        for tree, ref in zip(forest.trees, refs, strict=True):
            assert_same_tree(tree.root, ref)

    def test_near_tie_keeps_first_cut(self):
        # The cuts at 1.5 and 4.5 have the same Gini, 0.4, but the later one
        # rounds one ulp lower; within 1e-12 the first cut stays the optimum.
        col = [float(v) for v in range(10)]
        labels = [0, 0, 1, 0, 0, 1, 1, 0, 0, 1]
        later = (5 * (1.0 - 17 / 25) + 5 * (1.0 - 13 / 25)) / 10
        assert 0.0 < 0.4 - later < 1e-12
        assert _gini_split_score(col, labels, [1] * 10, list(range(10)), [6, 4]) == (0.4, 1.5)

    def test_near_tie_over_repeated_rows_keeps_first_cut(self):
        # The same rows weighted 1-3: the cuts at 4.5 and 8.5 both score 5/12
        # exactly, and the later one rounds one ulp lower.
        col = [float(v) for v in range(10)]
        labels = [0, 0, 1, 0, 0, 1, 1, 0, 0, 1]
        weights = [1, 1, 1, 1, 2, 2, 3, 2, 3, 2]
        first = (6 * (1.0 - 26 / 36) + 12 * (1.0 - 74 / 144)) / 18
        later = (16 * (1.0 - 136 / 256) + 2 * (1.0 - 4 / 4)) / 18
        assert 0.0 < first - later < 1e-12
        scored = _gini_split_score(col, labels, weights, list(range(10)), [10, 8])
        assert scored == (first, 4.5)
        expanded = np.repeat(np.arange(10), weights)
        assert scored == reference_gini_split_score(np.repeat(col, weights),
                                                    np.array(labels)[expanded], 2)

    @given(st.lists(st.tuples(st.one_of(st.integers(0, 3).map(float),
                                        st.floats(-1e6, 1e6, allow_nan=False)),
                              st.integers(0, 3), st.integers(1, 5)),
                    min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_weighted_rows_score_as_repeated_rows(self, rows, chooser):
        # distinct rows with multiplicities, in any order and among rows the
        # node does not hold, give the bits of the scan over the repeated rows
        col = [v for v, _, _ in rows] + [0.5, 2.0]
        labels = [c for _, c, _ in rows] + [0, 3]
        weights = [w for _, _, w in rows] + [4, 1]
        held = list(range(len(rows)))
        chooser.shuffle(held)
        counts = [0] * 4
        for r in held:
            counts[labels[r]] += weights[r]
        got = _gini_split_score(col, labels, weights, held, counts)
        expanded = np.repeat(np.arange(len(rows)), weights[:len(rows)])
        ref = reference_gini_split_score(np.array(col)[expanded], np.array(labels)[expanded], 4)
        if ref is None:
            assert got is None
        else:
            assert (got[0].hex(), got[1].hex()) == (ref[0].hex(), float(ref[1]).hex())


class TestFixedSettings:
    def test_forest_grows_forest_trees_trees(self):
        data = dataset([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])
        assert FOREST_TREES == 100
        assert len(train_forest(data, seed=2).trees) == FOREST_TREES

    @pytest.mark.parametrize("d", [1, 3, 4, 9])
    def test_forest_tries_floor_sqrt_d_features_per_split(self, d):
        rng = np.random.default_rng(d)
        feats = rng.normal(size=(16, d))
        labels = rng.integers(0, 2, size=16)
        data = dataset(feats, labels)
        forest = train_forest(data, seed=4)
        refs = reference_forest_roots(data, FOREST_TREES, math.isqrt(d), seed=4)
        for tree, ref in zip(forest.trees, refs, strict=True):
            assert_same_tree(tree.root, ref)

    def test_tree_has_no_depth_limit(self):
        # alternating labels on one feature: only a leaf per row separates them
        data = dataset([[float(i)] for i in range(16)], [i % 2 for i in range(16)])
        tree = train_tree(data)
        assert tree.predict(data.features).tolist() == data.labels.tolist()
        assert sum(tree.split_feature_counts()) == 15
        assert depth(tree.root) >= 4

    def test_two_rows_of_two_classes_split(self):
        # min_samples_split is 2: the smallest impure node still splits
        tree = train_tree(dataset([[0.0], [1.0]], [0, 1]))
        assert not tree.root.is_leaf
        assert tree.root.threshold == 0.5
        assert (tree.root.left.counts, tree.root.right.counts) == ((1, 0), (0, 1))

    @pytest.mark.parametrize("model,task,k,expected", [
        ("tree", "category", 3,
         '{"max_depth": null, "min_samples_split": 2, "folds": 3}'),
        ("tree", "subcategory", 4,
         '{"max_depth": null, "min_samples_split": 2, "folds": 4}'),
        ("forest", "category", 3,
         '{"trees": 100, "features_per_split": 2, "bootstrap": true, "max_depth": null, '
         '"folds": 3}'),
        ("forest", "subcategory", 4,
         '{"trees": 100, "features_per_split": 2, "bootstrap": true, "max_depth": null, '
         '"folds": 4}'),
    ], ids=["tree-category", "tree-subcategory", "forest-category", "forest-subcategory"])
    def test_eval_json_hyperparameters(self, model, task, k, expected):
        table = build_table(per_class=4)
        report = run_task(table, task, model=model, k=k, seed=0, domain="food")
        assert json.dumps(report.to_json_obj()["hyperparameters"]) == expected
        assert "folds" not in HYPERPARAMETERS[model]  # each report gets its own copy


class TestRandomForest:
    def test_separable(self):
        data = dataset([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])
        forest = train_forest(data, seed=3)
        assert forest.predict([[0.5], [10.5]]).tolist() == [0, 1]

    def test_pure_labels(self):
        data = dataset([[0.0], [1.0], [2.0]], [1, 1, 1])
        forest = train_forest(data, seed=1)
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

    def test_vote_fraction_scores(self):
        data = dataset([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])
        forest = train_forest(data, seed=3)
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


def build_table(per_class=12, seed=0, encoded=(2,)):
    """Table whose metric columns at the ``encoded`` indices encode the subcategory label.

    By default the avg_clust column alone encodes it.
    """
    rng = np.random.default_rng(seed)
    rows = []
    subcats = ("Real", "2K", "CBA", "WS", "DD", "Com")
    for c, sub in enumerate(subcats):
        for i in range(per_class):
            values = rng.uniform(0.2, 0.8, size=7)
            for j in encoded:
                values[j] = c + rng.uniform(-0.2, 0.2)
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
        # the forest tries two random features per split, which can bury one
        # informative column under noise splits on tiny data: encode them all
        table = build_table(encoded=range(7))
        report = run_task(table, "subcategory", model="forest", k=5, seed=1, domain="food")
        assert report.pooled_accuracy == 1.0

    def test_category_task_reports_auc(self):
        table = build_table()
        report = run_task(table, "category", model="forest", k=5, seed=2, domain="food")
        assert report.auc is not None
        assert 0.0 <= report.auc <= 1.0
        assert report.class_names == ("model", "real")
        assert report.hyperparameters == {"trees": 100, "features_per_split": 2,
                                          "bootstrap": True, "max_depth": None, "folds": 5}
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
        table = build_table(encoded=())
        a = run_task(table, "subcategory", model="forest", k=5, seed=9, domain="food")
        b = run_task(table, "subcategory", model="forest", k=5, seed=9, domain="food")
        assert a == b

    def test_pooled_and_mean_fold_both_reported(self):
        table = build_table(encoded=())
        report = run_task(table, "subcategory", model="tree", k=5, seed=3, domain="food")
        assert 0.0 <= report.mean_fold_accuracy <= 1.0
        assert len(report.fold_accuracies) == 5
        assert report.feature_split_counts
        assert report.hyperparameters == {"max_depth": None, "min_samples_split": 2, "folds": 5}
