"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is asserted, nothing deferred.
Every test here carries the ``acceptance`` marker, so
`pytest -m "not acceptance"` runs the rest of the tests alone.
The suite builds its own corpora, so it needs no external data.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from netfit import seeds
from netfit.classify import roc_auc, run_task, stratified_kfold
from netfit.cli import main
from netfit.dataset import DatasetRow, DatasetTable
from netfit.fitting import MODELS as REGISTRY
from netfit.fitting import fit_cba, fit_model, fit_ws
from netfit.generators import (
    CBAParams,
    CommunityParams,
    DDParams,
    WSParams,
    generate,
    generate_cba,
    generate_community,
    generate_dd,
    generate_ws,
    generate_2k,
)
from netfit.gof import canberra_distance, mean_distance_matrix, pca_project, standardized_metrics
from netfit.metrics import (
    METRIC_FIELDS,
    average_clustering,
    feature_vector,
    joint_degree_matrix,
)

from helpers import (
    ORACLES,
    connected_graph_edge_sets,
    degree_sequence,
    graph_from_edges,
    pseudo_real_graph,
    random_connected_graph,
)

pytestmark = pytest.mark.acceptance

MODELS = tuple(spec.name for spec in REGISTRY if spec.competes)
DOMAINS = ("social", "food", "brain", "chems")


def _passed(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def _build_counterpart_rows(g, name, domain, master_seed, budget=40, replicates=3):
    rows = [DatasetRow(name, feature_vector(g), domain, "real", "Real")]
    for model in MODELS:
        fit = fit_model(g, model, budget=budget, replicates=replicates,
                        seed=seeds.derive(master_seed, name, model))
        h = generate(fit.params, seeds.derive(master_seed, name, model, "gen"))
        rows.append(DatasetRow(name, feature_vector(h), domain, "model", model))
    return rows


def test_criterion_1_metric_oracle_equivalence():
    """Seven metrics vs brute-force oracles: every connected graph n<=7
    plus 100 random connected graphs n<=40, within 1e-8, under 60 s."""
    start = time.time()
    worst = 0.0
    checked = 0
    for n, edges in connected_graph_edge_sets(7):
        g = graph_from_edges(n, edges)
        fv = feature_vector(g)
        for metric in METRIC_FIELDS:
            worst = max(worst, abs(getattr(fv, metric) - ORACLES[metric](g)))
        checked += 1
    rng = np.random.default_rng(20260808)
    for _ in range(100):
        g = random_connected_graph(rng, n_max=40)
        fv = feature_vector(g)
        for metric in METRIC_FIELDS:
            worst = max(worst, abs(getattr(fv, metric) - ORACLES[metric](g)))
        checked += 1
    elapsed = time.time() - start
    assert worst <= 1e-8, f"worst metric/oracle deviation {worst:.2e}"
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.0f}s"
    _passed(1, f"{checked} graphs, worst |diff| {worst:.1e}, {elapsed:.0f}s")


def test_criterion_2_2k_exactness():
    """fit_2k -> generate_2k on 20 mixed graphs (n<=200): exact degree
    sequence; density/assortativity/skewness within 1e-9. Under 30 s."""
    start = time.time()
    rng = np.random.default_rng(4242)
    sources = []
    for i in range(5):
        sources.append(generate_cba(CBAParams(150 + i * 10, 3, 0.2 * i), i))
        sources.append(generate_dd(DDParams(140 + i * 12, 0.35 + 0.05 * i), i))
        sources.append(generate_community(CommunityParams((60, 60, 60), 0.2, 0.05), i))
        sources.append(pseudo_real_graph(rng, int(rng.integers(120, 200)), DOMAINS[i % 4]))
    assert len(sources) == 20
    for g in sources:
        assert min(degree_sequence(g)) >= 1  # JDM cannot encode isolated nodes
        jdm = joint_degree_matrix(g)
        h = generate_2k(jdm, 0)
        assert sorted(degree_sequence(h)) == sorted(degree_sequence(g))
        fa, fb = feature_vector(g), feature_vector(h)
        for metric in ("density", "assort", "skew_deg_dist"):
            assert abs(getattr(fa, metric) - getattr(fb, metric)) <= 1e-9, metric
    elapsed = time.time() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.0f}s"
    _passed(2, f"20 graphs reproduced exactly, {elapsed:.0f}s")


def test_criterion_3_fit_self_recovery():
    """WS (clustering mode) and CBA recover a known p within ±0.1 and the
    target metric within 0.03 on n=500 targets, 5 replicates/eval. <5 min."""
    start = time.time()
    ws_target = generate_ws(WSParams(500, 6, 0.05), 1001)
    ws_fit = fit_ws(ws_target, budget=60, replicates=5, seed=31)
    assert abs(ws_fit.params.p - 0.05) <= 0.1, f"WS p̂={ws_fit.params.p}"
    remeasured = np.mean(
        [average_clustering(generate_ws(ws_fit.params, seeds.xor_index(77, r)))
         for r in range(5)]
    )
    ws_gap = abs(remeasured - average_clustering(ws_target))
    assert ws_gap <= 0.03, f"WS clustering gap {ws_gap:.4f}"

    cba_target = generate_cba(CBAParams(500, 3, 0.6), 1002)
    cba_fit = fit_cba(cba_target, budget=60, replicates=5, seed=32)
    assert abs(cba_fit.params.p - 0.6) <= 0.1, f"CBA p̂={cba_fit.params.p}"
    remeasured = np.mean(
        [average_clustering(generate(cba_fit.params, seeds.xor_index(78, r)))
         for r in range(5)]
    )
    cba_gap = abs(remeasured - average_clustering(cba_target))
    assert cba_gap <= 0.03, f"CBA clustering gap {cba_gap:.4f}"
    elapsed = time.time() - start
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.0f}s"
    _passed(
        3,
        f"WS p̂={ws_fit.params.p:.3f} gap={ws_gap:.3f}; "
        f"CBA p̂={cba_fit.params.p:.3f} gap={cba_gap:.3f}; {elapsed:.0f}s",
    )


def test_criterion_4_gof_ranking():
    """On 20 synthetic 'real' graphs per domain proxy, the 2K column of
    the mean Canberra matrix is strictly minimal in every group. <10 min."""
    start = time.time()
    rng = np.random.default_rng(777)
    rows = []
    for domain in DOMAINS:
        for i in range(20):
            name = f"{domain}_{i:02d}"
            g = pseudo_real_graph(rng, int(rng.integers(40, 90)), domain)
            rows.extend(_build_counterpart_rows(g, name, domain, master_seed=74))
    table = DatasetTable(rows=tuple(rows))
    matrix = mean_distance_matrix(table)
    margins = {}
    for domain in DOMAINS:
        dists = {m: matrix.get(domain, "Real", m)[0] for m in MODELS}
        for model in MODELS:
            if model != "2K":
                assert dists["2K"] < dists[model], (
                    f"{domain}: 2K ({dists['2K']:.3f}) not below {model} ({dists[model]:.3f})"
                )
        margins[domain] = min(dists[m] for m in MODELS if m != "2K") - dists["2K"]
    elapsed = time.time() - start
    assert elapsed < 600.0, f"criterion 4 took {elapsed:.0f}s"
    _passed(
        4,
        "2K strictly minimal in all domains; margins "
        + ", ".join(f"{d}={m:.2f}" for d, m in margins.items())
        + f"; {elapsed:.0f}s",
    )


def test_criterion_5_stability():
    """R=30 replicates on targets of ~60/240/1000/3000 nodes: 2K has zero
    std for density/assortativity/skewness, DD the largest density std,
    and density/avg_deg stds stay below their means. <15 min."""
    from netfit.stability import stability_run

    start = time.time()
    targets = ((60, "chems"), (240, "food"), (1000, "brain"), (3000, "social"))
    for size, flavor in targets:
        g = pseudo_real_graph(np.random.default_rng(size), size, flavor)
        fits = [
            fit_model(g, m, budget=60, replicates=5, seed=seeds.derive(55, str(size), m))
            for m in MODELS
        ]
        summary = stability_run(g, fits, replicates=30, seed=seeds.derive(55, str(size)))
        for metric in ("density", "assort", "skew_deg_dist"):
            assert summary.get("2K", metric).std == 0.0, f"n={size}: 2K {metric} std nonzero"
        dd_std = summary.get("DD", "density").std
        for model in MODELS:
            if model != "DD":
                assert dd_std > summary.get(model, "density").std, (
                    f"n={size}: DD density std not largest vs {model}"
                )
        for model in MODELS:
            for metric in ("density", "avg_deg"):
                cell = summary.get(model, metric)
                assert cell.std < cell.mean, f"n={size} {model} {metric}: std >= mean"
    elapsed = time.time() - start
    assert elapsed < 900.0, f"criterion 5 took {elapsed:.0f}s"
    _passed(5, f"four scales clean (2K exact, DD noisiest, std<mean); {elapsed:.0f}s")


def test_criterion_6_classification_substitute():
    """Table III itself is NOT reproducible without the authors' 400-network
    corpus (not bundled); substitute checks: (a) 6-class subcategory
    prediction on a self-generated corpus reaches RF pooled accuracy
    >= 0.50 (chance 1/6) with RF >= DT - 0.05, (b) AUC unit properties,
    (c) stratification counts within 1 per class per fold. <10 min."""
    start = time.time()
    rng = np.random.default_rng(99)
    rows = []
    for i in range(30):
        g = pseudo_real_graph(rng, int(rng.integers(50, 90)), DOMAINS[i % 4])
        rows.extend(_build_counterpart_rows(g, f"r{i:02d}", "food", master_seed=66))
    table = DatasetTable(rows=tuple(rows))
    rf = run_task(table, "subcategory", model="forest", k=5, seed=442, domain="food")
    dt = run_task(table, "subcategory", model="tree", k=5, seed=442, domain="food")
    assert rf.pooled_accuracy >= 0.50, f"RF accuracy {rf.pooled_accuracy:.3f} < 0.50"
    assert rf.pooled_accuracy >= dt.pooled_accuracy - 0.05, (
        f"RF {rf.pooled_accuracy:.3f} below DT {dt.pooled_accuracy:.3f} - 0.05"
    )

    assert roc_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
    assert roc_auc([0.4] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    labels = np.array([0] * 37 + [1] * 24 + [2] * 11)
    labels = labels[np.random.default_rng(3).permutation(len(labels))]
    folds = stratified_kfold(labels, 5, seed=17)
    for cls in range(3):
        counts = [int(np.sum(labels[f] == cls)) for f in folds]
        assert max(counts) - min(counts) <= 1, f"class {cls} fold counts {counts}"
    elapsed = time.time() - start
    assert elapsed < 600.0, f"criterion 6 took {elapsed:.0f}s"
    _passed(
        6,
        f"RF {rf.pooled_accuracy:.3f} vs DT {dt.pooled_accuracy:.3f} (chance 0.167); "
        f"AUC units exact; stratification within 1; {elapsed:.0f}s "
        "(paper's Table III numbers require its unavailable 400-network corpus)",
    )


def test_criterion_7_determinism(tmp_path):
    """Same seed -> byte-identical outputs for every command, including
    pipeline under different --jobs."""
    corpus = Path(__file__).resolve().parents[1] / "src" / "netfit" / "data" / "corpus"
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "path", "domain"])
        writer.writerow(["food_00", str(corpus / "food_00.txt"), "food"])
        writer.writerow(["food_01", str(corpus / "food_01.txt"), "food"])

    def tree_bytes(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    runs = {}
    for label, jobs in (("a", 1), ("b", 1), ("jobs2", 2)):
        out = tmp_path / f"pipe_{label}"
        assert main(["pipeline", str(manifest), "--out", str(out), "--seed", "11",
                     "--jobs", str(jobs), "--budget", "8", "--fit-replicates", "2"]) == 0
        runs[label] = tree_bytes(out)
    assert runs["a"] == runs["b"], "pipeline rerun differs"
    assert runs["a"] == runs["jobs2"], "pipeline output depends on --jobs"

    dataset = tmp_path / "pipe_a" / "dataset.csv"
    for command, args in (
        ("measure", [str(corpus / "food_00.txt")]),
        ("gof", [str(dataset)]),
        ("classify", [str(dataset), "--task", "category", "--model", "forest",
                      "--folds", "2", "--seed", "5"]),
        ("stability", [str(corpus / "chems_04.txt"), "--seed", "5", "--replicates", "4",
                       "--budget", "6", "--fit-replicates", "2"]),
    ):
        outs = []
        for label in ("x", "y"):
            out = tmp_path / f"{command}_{label}"
            if command == "measure":
                assert main(["measure", *args, "--out", str(out / "features.csv")]) == 0
            else:
                assert main([command, *args, "--out", str(out)]) == 0
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1], f"{command} rerun differs"
    _passed(7, "pipeline (+jobs), measure, gof, classify, stability all byte-stable")


def test_criterion_8_property_suites():
    """Canberra metric axioms (1000 triples), PCA variance dominance vs
    1000 random directions, and the generator edge-count laws."""
    start = time.time()
    rng = np.random.default_rng(88)
    for _ in range(1000):
        p, q, r = (rng.uniform(0.0, 10.0, size=4) for _ in range(3))
        if rng.random() < 0.1:
            q = p.copy()  # exercise the zero-iff-equal branch
        dpq = canberra_distance(p, q)
        assert dpq >= 0.0
        assert dpq == pytest.approx(canberra_distance(q, p), abs=1e-12)
        assert (dpq == 0.0) == bool(np.all(p == q))
        assert dpq <= canberra_distance(p, r) + canberra_distance(r, q) + 1e-9

    from netfit.metrics import FeatureVector

    vectors = rng.normal(size=(40, 7))
    rows = tuple(
        DatasetRow(f"v{i}", FeatureVector(size=9, **dict(zip(METRIC_FIELDS, vec))),
                   "social", "real", "Real")
        for i, vec in enumerate(vectors.tolist())
    )
    table = DatasetTable(rows=rows)
    projection = pca_project(table)
    data = standardized_metrics(table)
    var1 = float(np.var([r[3] for r in projection.rows]))
    var2 = float(np.var([r[4] for r in projection.rows]))
    assert var1 >= var2 - 1e-12
    for _ in range(1000):
        direction = rng.normal(size=7)
        direction /= np.linalg.norm(direction)
        assert var1 >= float(np.var(data @ direction)) - 1e-9

    for seed in range(50):
        n, K = 12 + (seed % 5) * 2, 4
        p = (seed % 11) / 10.0
        assert generate_ws(WSParams(n, K, p), seed).edge_count == n * K // 2
    for seed in range(25):
        n, m = 30 + seed, 1 + seed % 4
        g = generate_cba(CBAParams(n, m, 0.5), seed)
        assert g.edge_count == m * (m - 1) // 2 + (n - m) * m
    sizes, p_in, p_out = (50, 50), 0.2, 0.01
    pairs_in = 2 * (50 * 49 // 2)
    expected = pairs_in * p_in + 2500 * p_out
    variance = pairs_in * p_in * (1 - p_in) + 2500 * p_out * (1 - p_out)
    counts = [
        generate_community(CommunityParams(sizes, p_in, p_out), s).edge_count
        for s in range(200)
    ]
    deviation = abs(float(np.mean(counts)) - expected)
    assert deviation < 3 * np.sqrt(variance / 200), f"community edge-count deviation {deviation}"
    elapsed = time.time() - start
    _passed(8, f"Canberra axioms, PCA dominance, WS/CBA/Community edge laws; {elapsed:.0f}s")
