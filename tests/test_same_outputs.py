"""tools/same_outputs.py: the per-column report on two output trees, and the pinned
output digests."""

import importlib.util
import json
from pathlib import Path

import numpy as np


def _load_same_outputs():
    path = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_outputs = _load_same_outputs()


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def test_names_changed_columns_with_their_largest_difference(tmp_path):
    header = "name,size,avg_clust,max_eigenv_c\n"
    ref = _tree(tmp_path / "ref", {
        "run/dataset.csv": header + "a,10,0.5,0.25\nb,12,0.1,0.5\n",
        "same.csv": "x,y\n1,2\n",
        "gof/correlation.csv": ",Real,2K\nReal,1.0,0.5\n",
        "log.txt": "one\n",
    })
    work = _tree(tmp_path / "work", {
        "run/dataset.csv": header + "a,10,0.5,0.2500000001\nb,12,0.1,0.5000000003\n",
        "same.csv": "x,y\n1,2\n",
        "gof/correlation.csv": ",Real,2K\nReal,1.0,0.75\nCBA,0.5,0.5\n",
        "log.txt": "two\n",
    })
    assert same_outputs.column_report(ref, work) == [
        "gof/correlation.csv: 2 vs 3 rows, 2K 0.25",
        "run/dataset.csv: max_eigenv_c 3e-10",
    ]


def test_text_cells_header_and_missing_files(tmp_path):
    ref = _tree(tmp_path / "ref", {
        "a.csv": "name,domain\ng1,food\n",
        "b.csv": "u,v\n1,2\n",
        "gone.csv": "u\n1\n",
    })
    work = _tree(tmp_path / "work", {
        "a.csv": "name,domain\ng1,brain\n",
        "b.csv": "u,w\n1,2\n",
    })
    # a missing file is left to diff -r, which names it
    assert same_outputs.column_report(ref, work) == [
        "a.csv: domain text",
        "b.csv: header differs",
    ]


def test_identical_trees_report_nothing(tmp_path):
    files = {"d.csv": "a,b\n1,2\n"}
    assert same_outputs.column_report(_tree(tmp_path / "r", files), _tree(tmp_path / "w", files)) == []


def test_outputs_match_the_pinned_digests(tmp_path):
    pinned = json.loads(same_outputs.DIGESTS.read_text(encoding="utf-8"))
    assert pinned["numpy"] == np.__version__, (
        f"the output digests were written with numpy {pinned['numpy']}, this is numpy "
        f"{np.__version__}; rewrite them with tools/same_outputs.py --write-digests "
        "once the outputs are checked")
    got = same_outputs.output_digests(tmp_path)
    changed = sorted(path for path in got.keys() | pinned["files"].keys()
                     if got.get(path) != pinned["files"].get(path))
    assert not changed, f"{len(changed)} output files differ from the pinned digests: {changed}"
