#!/usr/bin/env python3
"""Show that the benchmark's output checks refuse corrupted outputs.

Run from the root of a netfit checkout (takes a few seconds):

    python3 perfbench/selftest.py

It makes small real outputs with the netfit CLI, checks that they pass,
then corrupts one value per case and checks that the covering check
refuses it:

- one perturbed value in dataset.csv (independent recomputation);
- one edge dropped from a 2K output (joint degree matrix preserved);
- one stability.csv std set to non-zero (zero-spread law).

Exits 0 when every case behaves, 1 otherwise.
"""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import inputs

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs" / "selftest"
CORPUS = SRC / "netfit" / "data" / "corpus"


def netfit(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "netfit.cli", *map(str, args)], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def rewrite_cell(path, match, column, value):
    """Set ``column`` of the first CSV row whose fields include ``match``."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    row = next(r for r in rows if match.items() <= r.items())
    row[column] = value
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def case(name, clean, corrupt, expect):
    """The clean outputs must pass; the corrupted ones must fail with ``expect``."""
    good = checks.Report()
    clean(good)
    corrupt()
    bad = checks.Report()
    clean(bad)
    refused = [f for f in bad.failures if expect in f]
    ok = good.ok and bool(refused)
    print(f"{'PASS' if ok else 'FAIL'} {name}: clean outputs {good.passed} checks passed"
          f" ({len(good.failures)} failed); corrupted outputs refused by: "
          f"{refused[0] if refused else 'nothing'}")
    for line in good.failures[:5]:
        print(f"    clean output failed: {line}")
    return ok


def dataset_case():
    run_dir = WORK / "corpus"
    manifest = WORK / "manifest.csv"
    manifest.write_text("name,path,domain\n" + "".join(
        f"{name},{CORPUS / name}.txt,food\n" for name in ("food_00", "food_01")),
        encoding="utf-8")
    netfit("pipeline", manifest, "--out", run_dir, "--seed", 3, "--jobs", 1, "--budget", 6,
           "--fit-replicates", 1)
    data = run_dir / "dataset.csv"
    value = float(next(r for r in checks.read_csv_rows(data)
                       if r["name"] == "food_01" and r["subcategory"] == "CBA")["avg_clust"])
    return case(
        "perturbed dataset.csv value",
        lambda rep: checks.check_dataset(rep, run_dir, manifest, ("WS", "WS_STD", "CBA", "DD",
                                                                  "Com", "2K")),
        lambda: rewrite_cell(data, {"name": "food_01", "subcategory": "CBA"}, "avg_clust",
                             repr(value * (1 + 1e-6))),
        "food_01/CBA avg_clust",
    )


def two_k_case():
    out = WORK / "large"
    out.mkdir()
    edges = inputs.pseudo_real_edges(np.random.default_rng(5), 300, 4, 0.08, 0.004, 0.03, 6)
    source = out / "source.txt"
    inputs.write_edge_list(edges, source)
    jdm = inputs.joint_degree_entries(edges)
    report = out / "large_2K.json"
    report.write_text(json.dumps({"model": "2K", "params": {"jdm": {"entries": jdm}}}),
                      encoding="utf-8")
    graph = out / "large_2K.txt"
    netfit("generate", report, "--seed", 1, "--out", graph)
    netfit("measure", graph, "--out", out / "measure.csv")

    def drop_edge():
        lines = graph.read_text(encoding="utf-8").splitlines(keepends=True)
        graph.write_text("".join(lines[:-1]), encoding="utf-8")

    return case(
        "edge dropped from a 2K output",
        lambda rep: checks.check_large(rep, out / "measure.csv", {"2K": graph}, {"2K": report},
                                       jdm, source),
        drop_edge,
        "joint degree matrix differs",
    )


def stability_case():
    out = WORK / "stability"
    graph = WORK / "stability_input.txt"
    inputs.write_edge_list(
        inputs.pseudo_real_edges(np.random.default_rng(6), 60, 3, 0.25, 0.02, 0.05, 4), graph)
    netfit("stability", graph, "--out", out, "--seed", 4, "--replicates", 4, "--budget", 6,
           "--fit-replicates", 1)
    models = ("WS", "CBA", "DD", "Com", "2K")
    return case(
        "non-zero std in stability.csv",
        lambda rep: checks.check_stability(rep, out / "stability.csv", graph, models, 4),
        lambda: rewrite_cell(out / "stability.csv", {"model": "2K", "metric": "density"}, "std",
                             "0.001"),
        "2K/density: std",
    )


def main():
    if not (SRC / "netfit" / "cli.py").is_file():
        print(f"no netfit sources under {SRC}; run from the root of a netfit checkout",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        results = [dataset_case(), two_k_case(), stability_case()]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
