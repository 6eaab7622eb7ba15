"""Decision-tree and random-forest classification of network origin.

Two models at fixed settings: one CART tree with Gini impurity that
tries every feature at every split, and a forest of 100 bootstrap trees
that each try floor(sqrt(d)) random features per split. A forest tree
draws its bootstrap and its features from one :class:`seeds.Draws`, as
numpy's ``integers`` and ``choice`` would, and keeps the bootstrap as
row multiplicities. Trees grow over distinct row indices weighted by
those counts until a node is pure or no cut separates its rows; cuts are
at midpoints between distinct values and keep the first optimum within
1e-12. Evaluation is stratified k-fold with pooled predictions;
multi-class tasks report accuracy plus the confusion matrix, the binary
real-vs-model task reports AUC.

Explanatory variables are the six topological metrics (assortativity,
clustering, average degree, max eigenvector centrality, path length,
degree skewness) — density and size carry domain-size information and
stay out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeds
from .fitting import MODELS
from .graph import InputError
from .metrics import METRIC_FIELDS

FEATURE_FIELDS = tuple(f for f in METRIC_FIELDS if f != "density")
FOREST_TREES = 100
# each model's settings as its eval JSON reports them, in that order
HYPERPARAMETERS = {
    "tree": {"max_depth": None, "min_samples_split": 2},
    "forest": {"trees": FOREST_TREES, "features_per_split": math.isqrt(len(FEATURE_FIELDS)),
               "bootstrap": True, "max_depth": None},
}


class ClassSupportError(InputError):
    """The data has too few samples or classes for the requested evaluation."""


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows (columns in :data:`FEATURE_FIELDS` order) with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple

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
        raise ClassSupportError(f"cannot split {n} samples into {k} folds")
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


@dataclass(slots=True)
class TreeNode:
    counts: tuple  # class counts at this node
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None


def _gini_split_score(col, labels, weights, rows, counts):
    """Best (weighted Gini, threshold) for one feature column over ``rows``, or None.

    Row r stands for ``weights[r]`` samples; ``counts`` are the node's
    weighted class counts. Thresholds are midpoints between consecutive
    distinct sorted values; the scan keeps the first (smallest-threshold)
    optimum. All counts are exact integers, at each cut the same as over
    the rows repeated by their weights.
    """
    order = sorted(rows, key=col.__getitem__)
    n = sum(counts)
    left = [0] * len(counts)
    nl, sq_l, sq_r = 0, 0, sum([c * c for c in counts])
    best = None
    prev = col[order[0]]
    for r in order:
        v = col[r]
        if v > prev:  # a cut between prev and v, with the rows before r on its left
            nr = n - nl
            score = (nl * (1.0 - sq_l / (nl * nl)) + nr * (1.0 - sq_r / (nr * nr))) / n
            if best is None or score < best[0] - 1e-12:
                best = (score, (prev + v) / 2.0)
        prev = v
        c, w = labels[r], weights[r]
        lc = left[c]  # the other counts[c] - lc of class c lie on the right
        sq_l += w * (2 * lc + w)
        sq_r -= w * (2 * (counts[c] - lc) - w)
        left[c] = lc + w
        nl += w
    return best


def _grow_tree(cols, labels, weights, rows, n_classes, per_split, draws):
    """CART subtree over the distinct ``rows``, indices into ``cols``, ``labels`` and ``weights``.

    Each split tries ``per_split`` features from ``draws.choice``, or all
    of them when ``per_split`` is not below their count (``draws`` unused).
    """
    counts = [0] * n_classes
    for r in rows:
        counts[labels[r]] += weights[r]
    if max(counts) == sum(counts):  # pure; a cut never leaves a side empty
        return TreeNode(counts=tuple(counts))
    d = len(cols)
    candidates = sorted(draws.choice(d, per_split)) if per_split < d else range(d)
    best = None
    for f in candidates:
        scored = _gini_split_score(cols[f], labels, weights, rows, counts)
        if scored is not None and (best is None or scored[0] < best[0] - 1e-12):
            best = (scored[0], f, scored[1])
    if best is None:
        return TreeNode(counts=tuple(counts))  # no feature separates the rows
    _, f, threshold = best
    col = cols[f]
    below = [r for r in rows if col[r] <= threshold]
    above = [r for r in rows if col[r] > threshold]
    left = _grow_tree(cols, labels, weights, below, n_classes, per_split, draws)
    right = _grow_tree(cols, labels, weights, above, n_classes, per_split, draws)
    return TreeNode(counts=tuple(counts), feature=f, threshold=threshold, left=left, right=right)


@dataclass(frozen=True)
class TreeModel:
    root: TreeNode
    n_classes: int
    n_features: int

    def _leaf_counts(self, row):
        node = self.root
        while node.feature >= 0:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.counts

    def _leaves(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=float)).tolist()
        return [self._leaf_counts(r) for r in rows]

    def predict(self, rows):
        return np.array([c.index(max(c)) for c in self._leaves(rows)], dtype=np.int64)

    def score(self, rows, positive=1):
        """Per-row fraction of the leaf's samples in the positive class."""
        return np.array([c[positive] / sum(c) for c in self._leaves(rows)])

    def split_feature_counts(self):
        """Number of splits on each feature column, length ``n_features``."""
        counts = [0] * self.n_features
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.feature >= 0:
                counts[node.feature] += 1
                stack += (node.left, node.right)
        return tuple(counts)


def _columns(dataset):
    """The dataset as one float list per feature column and a list of labels."""
    return dataset.features.T.tolist(), dataset.labels.tolist()


def train_tree(dataset):
    """Greedy CART on the full dataset, trying every feature at every split."""
    n = len(dataset)
    if n < 1:
        raise ValueError("cannot train on an empty dataset")
    cols, labels = _columns(dataset)
    n_classes, d = len(dataset.class_names), len(cols)
    root = _grow_tree(cols, labels, [1] * n, list(range(n)), n_classes, d, None)
    return TreeModel(root=root, n_classes=n_classes, n_features=d)


# ---------------------------------------------------------------------------
# Random forest


@dataclass(frozen=True)
class ForestModel:
    trees: tuple
    n_classes: int
    seed: int

    def _votes(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=float)).tolist()
        votes = [[0] * self.n_classes for _ in rows]
        for tree in self.trees:
            for row, tally in zip(rows, votes):
                counts = tree._leaf_counts(row)
                tally[counts.index(max(counts))] += 1  # the tree's predict(): first argmax
        return np.array(votes, dtype=np.int64).reshape(len(rows), self.n_classes)

    def predict(self, rows):
        return np.argmax(self._votes(rows), axis=1)

    def score(self, rows, positive=1):
        """Vote fraction for the positive class, used as the AUC score."""
        votes = self._votes(rows)
        return votes[:, positive] / len(self.trees)

    def split_feature_counts(self):
        return tuple(map(sum, zip(*(tree.split_feature_counts() for tree in self.trees))))


def train_forest(dataset, seed=0):
    """FOREST_TREES bootstrap CART trees, floor(sqrt(d)) random features tried per split."""
    n = len(dataset)
    if n < 2:
        raise ValueError("forest training needs at least 2 samples")
    cols, labels = _columns(dataset)
    n_classes, d = len(dataset.class_names), len(cols)
    per_split = math.isqrt(d)
    trees = []
    for i in range(FOREST_TREES):
        draws = seeds.Draws(seeds.xor_index(seed, i))
        weights = [0] * n  # the bootstrap, numpy's integers(n, size=n), as multiplicities
        for _ in range(n):
            weights[draws.integers(n)] += 1
        rows = [r for r in range(n) if weights[r]]
        root = _grow_tree(cols, labels, weights, rows, n_classes, per_split, draws)
        trees.append(TreeModel(root=root, n_classes=n_classes, n_features=d))
    return ForestModel(trees=tuple(trees), n_classes=n_classes, seed=seed)


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


def run_task(table, task, model="forest", k=5, seed=0, domain=None):
    """Stratified k-fold evaluation of one classification problem.

    ``domain`` selects the subtable for the category/subcategory tasks.
    The binary category task reports AUC (positive class = "model") with
    accuracy secondary; multi-class tasks report accuracy plus the pooled
    confusion matrix.
    """
    if model not in HYPERPARAMETERS:
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
        if model == "forest":
            clf = train_forest(train, seed=seeds.derive(seed, task, "fold", i))
        else:
            clf = train_tree(train)
        preds = clf.predict(data.features[test_idx])
        pooled_pred[test_idx] = preds
        if binary:
            pooled_score[test_idx] = clf.score(data.features[test_idx], positive=positive)
        fold_accs.append(float(np.mean(preds == data.labels[test_idx])))
        split_counts = [a + b for a, b in zip(split_counts, clf.split_feature_counts())]
    conf = confusion_matrix(pooled_pred, data.labels, len(data.class_names))
    auc = roc_auc(pooled_score, (data.labels == positive).astype(int)) if binary else None
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
        hyperparameters={**HYPERPARAMETERS[model], "folds": k},
        seed=seed,
        feature_split_counts=tuple(split_counts),
    )
