"""Decision-tree and random-forest classification of network origin.

CART trees with Gini impurity, bagged into forests with per-split
feature subsampling. Splits cut at midpoints between distinct values and
keep the first optimum within 1e-12; a forest's ``features_per_split``
defaults to floor(sqrt(d)), is at least 1, and trees grow over plain
lists of row indices. Evaluation is stratified k-fold with pooled
predictions; multi-class tasks report accuracy plus the confusion
matrix, the binary real-vs-model task reports AUC.

Explanatory variables are the six topological metrics (assortativity,
clustering, average degree, max eigenvector centrality, path length,
degree skewness) — density and size carry domain-size information and
stay out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import seeds
from .fitting import MODELS

FEATURE_FIELDS = (
    "assort",
    "avg_clust",
    "avg_deg",
    "max_eigenv_c",
    "avg_path_length",
    "skew_deg_dist",
)

TASKS = ("domain", "category", "subcategory")


class ClassSupportError(ValueError):
    """A class has too few samples for the requested evaluation."""


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows (fixed column order) with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple
    feature_names: tuple = FEATURE_FIELDS

    def __post_init__(self):
        if len(self.features) != len(self.labels):
            raise ValueError("feature/label row counts differ")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite: tree splits sort them")

    def __len__(self):
        return len(self.labels)


def dataset_from_table(table, label_by):
    """LabeledDataset from a DatasetTable, labeling rows by the given column."""
    names = sorted({getattr(r, label_by) for r in table.rows})
    index = {n: i for i, n in enumerate(names)}
    feats = np.array(
        [[getattr(r.features, f) for f in FEATURE_FIELDS] for r in table.rows], dtype=float
    )
    labels = np.array([index[getattr(r, label_by)] for r in table.rows], dtype=np.int64)
    return LabeledDataset(features=feats, labels=labels, class_names=tuple(names))


# ---------------------------------------------------------------------------
# Stratified folds


def stratified_kfold(labels, k, seed=0):
    """k disjoint index folds with per-class counts equal up to 1.

    Members of each class are shuffled and dealt to folds round-robin;
    the starting fold rotates with the running sample count so overall
    fold sizes stay balanced too.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > n:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    assigned = 0
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(len(members))]
        start = assigned % k
        for i, idx in enumerate(members):
            folds[(start + i) % k].append(int(idx))
        assigned += len(members)
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


# ---------------------------------------------------------------------------
# CART decision tree


@dataclass(frozen=True)
class TreeNode:
    counts: tuple  # class counts at this node
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self):
        return self.feature < 0


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int | None = None
    min_samples_split: int = 2
    features_per_split: int | None = None  # None = all features

    def __post_init__(self):
        _check_limits(self)
        if self.min_samples_split < 2:
            raise ValueError(f"min_samples_split must be at least 2, got {self.min_samples_split}")


def _check_limits(config):
    """ValueError unless ``config``'s depth and per-split feature limits are in range."""
    if config.max_depth is not None and config.max_depth < 0:
        raise ValueError(f"max_depth must be at least 0, got {config.max_depth}")
    if config.features_per_split is not None and config.features_per_split < 1:
        raise ValueError(f"features_per_split must be at least 1, got {config.features_per_split}")


def _gini_split_score(col, labels, rows, counts):
    """Best (weighted Gini, threshold) for one feature column over ``rows``, or None.

    Thresholds are midpoints between consecutive distinct sorted values;
    the scan keeps the first (smallest-threshold) optimum. Sums of squared
    class counts are exact integers, as a float dot product of counts gives.
    """
    order = sorted(rows, key=col.__getitem__)
    values = [col[r] for r in order]
    n = len(order)
    left = [0] * len(counts)
    right = list(counts)
    sq_l, sq_r = 0, sum(c * c for c in counts)
    best = None
    for nl in range(1, n):
        c = labels[order[nl - 1]]
        sq_l += 2 * left[c] + 1
        sq_r -= 2 * right[c] - 1
        left[c] += 1
        right[c] -= 1
        if values[nl] <= values[nl - 1]:
            continue
        nr = n - nl
        score = (nl * (1.0 - sq_l / (nl * nl)) + nr * (1.0 - sq_r / (nr * nr))) / n
        if best is None or score < best[0] - 1e-12:
            best = (score, (values[nl - 1] + values[nl]) / 2.0)
    return best


def _grow_tree(cols, labels, rows, n_classes, config, depth, rng):
    """CART subtree over ``rows``, indices into the feature lists ``cols`` and ``labels``."""
    counts = [0] * n_classes
    for r in rows:
        counts[labels[r]] += 1
    n = len(rows)
    if (
        max(counts) == n
        or n < config.min_samples_split
        or (config.max_depth is not None and depth >= config.max_depth)
    ):
        return TreeNode(counts=tuple(counts))
    d = len(cols)
    if config.features_per_split is not None and config.features_per_split < d:
        candidates = np.sort(rng.choice(d, size=config.features_per_split, replace=False)).tolist()
    else:
        candidates = range(d)
    best = None
    for f in candidates:
        scored = _gini_split_score(cols[f], labels, rows, counts)
        if scored is None:
            continue
        score, threshold = scored
        if best is None or score < best[0] - 1e-12:
            best = (score, f, threshold)
    if best is None:
        return TreeNode(counts=tuple(counts))  # no feature separates the rows
    _, f, threshold = best
    col = cols[f]
    below = [r for r in rows if col[r] <= threshold]
    above = [r for r in rows if col[r] > threshold]
    left = _grow_tree(cols, labels, below, n_classes, config, depth + 1, rng)
    right = _grow_tree(cols, labels, above, n_classes, config, depth + 1, rng)
    return TreeNode(counts=tuple(counts), feature=f, threshold=threshold, left=left, right=right)


@dataclass(frozen=True)
class TreeModel:
    root: TreeNode
    n_classes: int
    config: TreeConfig
    n_features: int

    def _leaf_counts(self, row):
        node = self.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.counts

    def predict(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=float)).tolist()
        leaves = [self._leaf_counts(r) for r in rows]
        return np.array([c.index(max(c)) for c in leaves], dtype=np.int64)

    def score(self, rows, positive=1):
        """Per-row fraction of the leaf's samples in the positive class."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float)).tolist()
        leaves = [self._leaf_counts(r) for r in rows]
        return np.array([c[positive] / sum(c) if sum(c) else 0.0 for c in leaves])

    def split_feature_counts(self):
        """Number of splits on each feature column, length ``n_features``."""
        counts = [0] * self.n_features

        def walk(node):
            if node.is_leaf:
                return
            counts[node.feature] += 1
            walk(node.left)
            walk(node.right)

        walk(self.root)
        return tuple(counts)


def _columns(dataset):
    """The dataset as one float list per feature column and a list of labels."""
    return dataset.features.T.tolist(), dataset.labels.tolist()


def train_tree(dataset, config=None, seed=0):
    """Greedy CART on the full dataset (deterministic unless subsampling)."""
    if len(dataset) < 1:
        raise ValueError("cannot train on an empty dataset")
    config = config or TreeConfig()
    rng = np.random.default_rng(seed)
    cols, labels = _columns(dataset)
    n_classes = len(dataset.class_names)
    root = _grow_tree(cols, labels, list(range(len(dataset))), n_classes, config, 0, rng)
    return TreeModel(root=root, n_classes=n_classes, config=config,
                     n_features=dataset.features.shape[1])


# ---------------------------------------------------------------------------
# Random forest


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 100
    features_per_split: int | None = None  # None = floor(sqrt(d))
    bootstrap: bool = True
    max_depth: int | None = None

    def __post_init__(self):
        _check_limits(self)
        if self.trees < 1:
            raise ValueError("a forest needs at least one tree")


@dataclass(frozen=True)
class ForestModel:
    trees: tuple
    n_classes: int
    config: ForestConfig  # features_per_split resolved to the count each split tries
    seed: int

    def _votes(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        votes = np.zeros((len(rows), self.n_classes), dtype=np.int64)
        for tree in self.trees:
            preds = tree.predict(rows)
            votes[np.arange(len(rows)), preds] += 1
        return votes

    def predict(self, rows):
        return np.argmax(self._votes(rows), axis=1)

    def score(self, rows, positive=1):
        """Vote fraction for the positive class, used as the AUC score."""
        votes = self._votes(rows)
        return votes[:, positive] / len(self.trees)

    def split_feature_counts(self):
        return tuple(map(sum, zip(*(tree.split_feature_counts() for tree in self.trees))))


def train_forest(dataset, config=None, seed=0):
    """Bagged CART trees with fresh random feature subsets at every split."""
    if len(dataset) < 2:
        raise ValueError("forest training needs at least 2 samples")
    config = config or ForestConfig()
    d = dataset.features.shape[1]
    per_split = config.features_per_split or math.isqrt(d)
    config = replace(config, features_per_split=max(1, min(per_split, d)))
    tree_config = TreeConfig(max_depth=config.max_depth,
                             features_per_split=config.features_per_split)
    cols, labels = _columns(dataset)
    n_classes = len(dataset.class_names)
    trees = []
    n = len(dataset)
    for i in range(config.trees):
        rng = np.random.default_rng(seeds.xor_index(seed, i))
        sample = rng.integers(n, size=n).tolist() if config.bootstrap else list(range(n))
        root = _grow_tree(cols, labels, sample, n_classes, tree_config, 0, rng)
        trees.append(TreeModel(root=root, n_classes=n_classes, config=tree_config,
                               n_features=d))
    return ForestModel(trees=tuple(trees), n_classes=n_classes, config=config, seed=seed)


# ---------------------------------------------------------------------------
# Evaluation metrics


def confusion_matrix(predicted, actual, n_classes):
    """M[i][j] = count of samples predicted i whose actual class is j."""
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    for p, a in zip(predicted, actual):
        m[int(p), int(a)] += 1
    return m


def accuracy(matrix):
    """Diagonal total over grand total of a square confusion matrix."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError("confusion matrix must be square and non-empty")
    total = int(m.sum())
    if total == 0:
        raise ValueError("confusion matrix is all zeros")
    return float(np.trace(m)) / total


def roc_auc(scores, labels):
    """AUC as the probability a random positive outscores a random negative.

    Computed from average ranks, which credits ties 0.5 and equals the
    area under the threshold-swept ROC curve.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("AUC needs both classes present")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=float)
    i = 0
    sorted_scores = scores[order]
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # average of 1-based ranks
        i = j + 1
    rank_sum = float(ranks[labels == 1].sum())
    n_pos, n_neg = len(pos), len(neg)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# Task runner


@dataclass(frozen=True)
class EvalReport:
    """Pooled and per-fold results of one classification task."""

    task: str
    model: str
    domain: str | None
    class_names: tuple
    fold_accuracies: tuple
    pooled_accuracy: float
    mean_fold_accuracy: float
    confusion: tuple
    auc: float | None
    hyperparameters: dict
    seed: int
    feature_split_counts: tuple = ()

    def to_json_obj(self):
        return {
            "task": self.task,
            "model": self.model,
            "domain": self.domain,
            "class_names": list(self.class_names),
            "fold_accuracies": list(self.fold_accuracies),
            "pooled_accuracy": self.pooled_accuracy,
            "mean_fold_accuracy": self.mean_fold_accuracy,
            "confusion_matrix": [list(row) for row in self.confusion],
            "auc": self.auc,
            "hyperparameters": self.hyperparameters,
            "seed": self.seed,
            "feature_names": list(FEATURE_FIELDS),
            "feature_split_counts": list(self.feature_split_counts),
        }


def _task_table(table, task, domain):
    if task == "domain":
        return table.filter(category="real"), "domain"
    if task in ("category", "subcategory"):
        if domain is None:
            raise ValueError(f"{task} task runs one domain at a time; pass domain=")
        excluded = tuple(spec.name for spec in MODELS if not spec.competes)
        return table.filter(domain=domain, exclude_subcategories=excluded), task
    raise ValueError(f"unknown task {task!r}")


def run_task(table, task, model="forest", k=5, seed=0, domain=None, forest_config=None,
             tree_config=None):
    """Stratified k-fold evaluation of one classification problem.

    ``domain`` selects the subtable for the category/subcategory tasks.
    The binary category task reports AUC (positive class = "model") with
    accuracy secondary; multi-class tasks report accuracy plus the pooled
    confusion matrix.
    """
    if model not in ("tree", "forest"):
        raise ValueError(f"unknown model {model!r}")
    subtable, label_by = _task_table(table, task, domain)
    data = dataset_from_table(subtable, label_by)
    if len(data.class_names) < 2:
        raise ClassSupportError(f"need at least 2 classes, have {list(data.class_names)}")
    counts = np.bincount(data.labels, minlength=len(data.class_names))
    for name, count in zip(data.class_names, counts):
        if count < 2:
            raise ClassSupportError(f"class {name!r} has only {int(count)} sample(s)")
    binary = task == "category"
    positive = data.class_names.index("model") if binary else 1
    folds = stratified_kfold(data.labels, k, seed=seeds.derive(seed, task, "folds"))
    n = len(data)
    pooled_pred = np.zeros(n, dtype=np.int64)
    pooled_score = np.zeros(n, dtype=float)
    fold_accs = []
    split_counts = [0] * data.features.shape[1]
    for i, test_idx in enumerate(folds):
        train_mask = np.ones(n, dtype=bool)
        train_mask[test_idx] = False
        train = LabeledDataset(
            features=data.features[train_mask],
            labels=data.labels[train_mask],
            class_names=data.class_names,
        )
        fold_seed = seeds.derive(seed, task, "fold", i)
        if model == "forest":
            clf = train_forest(train, config=forest_config, seed=fold_seed)
        else:
            clf = train_tree(train, config=tree_config, seed=fold_seed)
        preds = clf.predict(data.features[test_idx])
        pooled_pred[test_idx] = preds
        if binary:
            pooled_score[test_idx] = clf.score(data.features[test_idx], positive=positive)
        fold_accs.append(float(np.mean(preds == data.labels[test_idx])))
        split_counts = [a + b for a, b in zip(split_counts, clf.split_feature_counts())]
    conf = confusion_matrix(pooled_pred, data.labels, len(data.class_names))
    auc = roc_auc(pooled_score, (data.labels == positive).astype(int)) if binary else None
    cfg = clf.config  # as trained, with the forest's features_per_split resolved
    if model == "forest":
        hyper = {
            "trees": cfg.trees,
            "features_per_split": cfg.features_per_split,
            "bootstrap": cfg.bootstrap,
            "max_depth": cfg.max_depth,
            "folds": k,
        }
    else:
        hyper = {
            "max_depth": cfg.max_depth,
            "min_samples_split": cfg.min_samples_split,
            "folds": k,
        }
    return EvalReport(
        task=task,
        model=model,
        domain=domain,
        class_names=data.class_names,
        fold_accuracies=tuple(fold_accs),
        pooled_accuracy=accuracy(conf),
        mean_fold_accuracy=float(np.mean(fold_accs)),
        confusion=tuple(tuple(int(x) for x in row) for row in conf),
        auc=auc,
        hyperparameters=hyper,
        seed=seed,
        feature_split_counts=tuple(split_counts),
    )
