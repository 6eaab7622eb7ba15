import csv
import functools
import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netfit.cli
from netfit import metrics
from netfit.cli import main
from netfit.data import corpus_manifest
from netfit.dataset import DatasetTable
from netfit.fitting import MODELS
from netfit.graph import parse_edge_list
from netfit.metrics import CSV_HEADER

TRIANGLE = "a b\nb c\nc a\n"
ROOT = Path(__file__).resolve().parents[1]
CYCLE12 = "".join(f"{i} {(i + 1) % 12}\n" for i in range(12))


@pytest.fixture
def one_step_solver(monkeypatch):
    """Lanczos capped at one step: it converges on regular graphs only."""
    capped = functools.partial(metrics.max_eigenvector_centrality, max_iter=1)
    monkeypatch.setattr(metrics, "max_eigenvector_centrality", capped)


@pytest.fixture
def tiny_manifest(tmp_path):
    """Two small corpus graphs under a private manifest."""
    corpus = corpus_manifest().parent
    rows = [
        ("food_00", str(corpus / "food_00.txt"), "food"),
        ("chems_04", str(corpus / "chems_04.txt"), "chems"),
    ]
    path = tmp_path / "manifest.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "path", "domain"])
        writer.writerows(rows)
    return path


def run_pipeline(tmp_path, manifest, out_name, jobs=1, seed=7, budget=8):
    out = tmp_path / out_name
    code = main(
        [
            "pipeline",
            str(manifest),
            "--out",
            str(out),
            "--seed",
            str(seed),
            "--jobs",
            str(jobs),
            "--budget",
            str(budget),
            "--fit-replicates",
            "2",
        ]
    )
    return code, out


class TestMeasure:
    def test_triangle_row(self, tmp_path, capsys):
        src = tmp_path / "tri.txt"
        src.write_text(TRIANGLE)
        out = tmp_path / "features.csv"
        assert main(["measure", str(src), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("name,size,density")
        fields = lines[1].split(",")
        assert fields[0] == "tri"
        assert float(fields[2]) == 1.0  # density
        assert float(fields[4]) == 1.0  # avg_clust

    def test_empty_file_error_names_file(self, tmp_path, capsys):
        bad = tmp_path / "empty.txt"
        bad.write_text("")
        assert main(["measure", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "empty.txt" in err

    @pytest.mark.parametrize("command,code", [("measure", 1), ("fit", 2), ("stability", 2)])
    def test_edge_list_error_names_file_once(self, tmp_path, capsys, command, code):
        bad = tmp_path / "bad.txt"
        bad.write_text("a b\nc\n")
        argv = [command, str(bad)]
        if command != "measure":
            argv += ["--out", str(tmp_path / "o"), "--seed", "1"]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err == f"error: {bad}: line 2: expected two node tokens, got 1\n"

    def test_not_utf8_edge_list_names_line_and_keeps_other_rows(self, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"a b\nb caf\xe9\n")
        good = tmp_path / "tri.txt"
        good.write_text(TRIANGLE)
        out = tmp_path / "f.csv"
        assert main(["measure", str(bad), str(good), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 2: not UTF-8 text\n"
        names = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert names == ["tri"]

    def test_eigenvector_failure_keeps_other_rows(self, tmp_path, capsys, one_step_solver):
        ring = tmp_path / "ring.txt"
        ring.write_text(CYCLE12)
        food = corpus_manifest().parent / "food_00.txt"
        out = tmp_path / "f.csv"
        assert main(["measure", str(food), str(ring), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {food}: Lanczos did not converge after 1 ")
        assert err.count("\n") == 1
        names = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert names == ["ring"]

    def test_two_files_order_preserved(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(TRIANGLE)
        b.write_text("x y\ny z\n")
        out = tmp_path / "f.csv"
        assert main(["measure", str(b), str(a), "--out", str(out)]) == 0
        names = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert names == ["b", "a"]


class TestFitGenerate:
    def test_fit_then_generate_round_trip(self, tmp_path):
        src = tmp_path / "g.txt"
        src.write_text(Path(corpus_manifest().parent / "food_01.txt").read_text())
        fit_dir = tmp_path / "fits"
        assert main(
            ["fit", str(src), "--model", "2K", "--seed", "5", "--out", str(fit_dir),
             "--budget", "5", "--fit-replicates", "2"]
        ) == 0
        report_path = fit_dir / "g_2K.json"
        report = json.loads(report_path.read_text())
        assert report["model"] == "2K"
        out_graph = tmp_path / "generated.txt"
        assert main(
            ["generate", str(report_path), "--seed", "3", "--out", str(out_graph)]
        ) == 0
        assert out_graph.read_text().count("\n") > 0

    def test_generate_out_makes_missing_directories(self, tmp_path, capsys):
        params = tmp_path / "fit.json"
        params.write_text('{"model": "WS", "params": {"n": 10, "K": 2, "p": 0.5}}')
        assert main(["generate", str(params), "--seed", "3"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "new" / "dir" / "g.txt"
        assert main(["generate", str(params), "--seed", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == printed.encode("utf-8")

    @pytest.mark.parametrize(
        "content,message",
        [
            ("{}", "missing key 'model'"),
            ("not json", "Expecting value: line 1 column 1 (char 0)"),
            ('{"model": "ER", "params": {}}', "unknown model 'ER'"),
            ('{"model": "WS", "params": {"n": 10, "K": 2}}', "missing key 'p'"),
            ('{"model": "WS", "params": {"n": "10", "K": 2, "p": 0.1}}',
             "n must be an integer, got '10'"),
            ('{"model": "WS", "params": {"n": 10, "K": 3, "p": 0.1}}',
             "WS requires even K with 2 <= K < n, got n=10 K=3"),
        ],
        ids=["empty-object", "not-json", "unknown-model", "missing-param", "string-n", "odd-K"],
    )
    def test_malformed_params_exit_2_before_generating(self, tmp_path, capsys, content,
                                                       message):
        params = tmp_path / "fit.json"
        params.write_text(content)
        out = tmp_path / "g.txt"
        assert main(["generate", str(params), "--seed", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: params {params}: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_generator_failure_exits_2_with_one_line(self, tmp_path, capsys):
        params = tmp_path / "dd.json"
        params.write_text('{"model": "DD", "params": {"n": 50, "p": 1e-300}}')
        out = tmp_path / "g.txt"
        assert main(["generate", str(params), "--seed", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: params {params}: "
            "duplication-divergence exceeded 500000 failed attempts (p=1e-300)\n")
        assert not out.exists()


class TestPipeline:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", ["feature_vector", "generate"])  # real row, counterpart
    def test_plain_value_error_propagates(self, tmp_path, tiny_manifest, monkeypatch, name,
                                          jobs):
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched module only when forked")

        def broken(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(netfit.cli, name, broken)
        with pytest.raises(ValueError, match="operands could not be broadcast together"):
            run_pipeline(tmp_path, tiny_manifest, "run", jobs=jobs)

    def test_row_counts_and_schema(self, tmp_path, tiny_manifest):
        code, out = run_pipeline(tmp_path, tiny_manifest, "run")
        assert code == 0
        table = DatasetTable.from_csv(out / "dataset.csv")
        assert len(table) == 14  # 2 real + 6 counterparts each
        for name in ("food_00", "chems_04"):
            subs = {r.subcategory for r in table.rows if r.name == name}
            assert subs == {"Real", "WS", "WS_STD", "CBA", "DD", "Com", "2K"}
        # counterparts share the original's size
        by_name_size = {}
        for r in table.rows:
            by_name_size.setdefault(r.name, set()).add(r.features.size)
        assert all(len(sizes) == 1 for sizes in by_name_size.values())
        assert (out / "fits" / "food_00_2K.json").exists()
        assert (out / "graphs" / "food_00_WS.txt").exists()

    def test_rerun_byte_identical(self, tmp_path, tiny_manifest):
        _, out_a = run_pipeline(tmp_path, tiny_manifest, "a")
        _, out_b = run_pipeline(tmp_path, tiny_manifest, "b")
        assert (out_a / "dataset.csv").read_bytes() == (out_b / "dataset.csv").read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path, tiny_manifest):
        _, out_serial = run_pipeline(tmp_path, tiny_manifest, "serial", jobs=1)
        _, out_parallel = run_pipeline(tmp_path, tiny_manifest, "parallel", jobs=2)
        assert (out_serial / "dataset.csv").read_bytes() == (
            out_parallel / "dataset.csv"
        ).read_bytes()
        for rel in sorted(p.relative_to(out_serial) for p in out_serial.rglob("*.json")):
            assert (out_serial / rel).read_bytes() == (out_parallel / rel).read_bytes()

    def test_each_graph_is_written_before_the_next_one_runs(self, tmp_path, tiny_manifest,
                                                             monkeypatch):
        calls = []
        run_one, write = netfit.cli._pipeline_one, netfit.cli._write

        def recorded_run(entry, *args):
            calls.append(("run", entry[0]))
            return run_one(entry, *args)

        def recorded_write(path, text):
            calls.append(("write", path.name))
            write(path, text)

        monkeypatch.setattr(netfit.cli, "_pipeline_one", recorded_run)
        monkeypatch.setattr(netfit.cli, "_write", recorded_write)
        out = tmp_path / "run"
        assert main(["pipeline", str(tiny_manifest), "--out", str(out), "--seed", "7",
                     "--budget", "1", "--fit-replicates", "1"]) == 0
        second = calls.index(("run", "chems_04"))
        assert calls[0] == ("run", "food_00")
        assert sorted(calls[1:second]) == sorted(
            ("write", f"food_00_{spec.name}.{ext}") for spec in MODELS for ext in ("json", "txt"))
        assert calls[-1] == ("write", "dataset.csv")

    def test_missing_file_failure_exit(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("name,path,domain\nghost,missing.txt,food\n")
        code = main(
            ["pipeline", str(manifest), "--out", str(tmp_path / "out"), "--seed", "1"]
        )
        assert code == 1

    def test_eigenvector_failure_on_a_real_graph(self, tmp_path, capsys, one_step_solver):
        ring = tmp_path / "ring.txt"
        ring.write_text(CYCLE12)
        corpus = corpus_manifest().parent
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"name,path,domain\nfood_00,{corpus / 'food_00.txt'},food\n"
                            f"ring,{ring},social\n")
        code, out = run_pipeline(tmp_path, manifest, "run")
        assert code == 1
        err = capsys.readouterr().err
        assert "error: food_00: Lanczos did not converge after 1 " in err
        real = [(r.name, r.subcategory) for r in DatasetTable.from_csv(out / "dataset.csv").rows
                if r.category == "real"]
        assert real == [("ring", "Real")]

    @pytest.mark.parametrize(
        "row,message",
        [
            ("food_00,food_00.txt,bio", "manifest {path}:3: unknown domain 'bio'"),
            ("food_00,food_00.txt", "manifest {path}:3: expected 3 fields"),
        ],
        ids=["unknown-domain", "two-fields"],
    )
    def test_bad_manifest_row_fails_before_any_fit(self, tmp_path, capsys, row, message):
        corpus = corpus_manifest().parent
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"name,path,domain\nchems_04,{corpus / 'chems_04.txt'},chems\n{row}\n")
        out = tmp_path / "out"
        code = main(["pipeline", str(manifest), "--out", str(out), "--seed", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(path=manifest))
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "fits").exists() and not (out / "graphs").exists()


class TestDownstreamCommands:
    @pytest.fixture
    def dataset_csv(self, tmp_path):
        # two graphs of one domain so every subcategory class has 2 samples
        corpus = corpus_manifest().parent
        manifest = tmp_path / "food.csv"
        with open(manifest, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "path", "domain"])
            writer.writerow(["food_00", str(corpus / "food_00.txt"), "food"])
            writer.writerow(["food_01", str(corpus / "food_01.txt"), "food"])
        _, out = run_pipeline(tmp_path, manifest, "ds")
        return out / "dataset.csv"

    def test_gof_outputs(self, tmp_path, dataset_csv):
        out = tmp_path / "gof"
        assert main(["gof", str(dataset_csv), "--out", str(out)]) == 0
        text = (out / "distance_food.csv").read_text()
        header = text.splitlines()[0]
        assert header.startswith(",Real")
        # Real-vs-Real diagonal entry is exactly zero
        real_row = [l for l in text.splitlines() if l.startswith("Real,")][0]
        assert float(real_row.split(",")[1]) == 0.0

    def test_stability_metadata(self, tmp_path):
        graph = corpus_manifest().parent / "chems_04.txt"
        out = tmp_path / "stab"
        code = main(
            ["stability", str(graph), "--out", str(out), "--seed", "3",
             "--replicates", "4", "--budget", "5", "--fit-replicates", "2"]
        )
        assert code == 0
        lines = (out / "stability.csv").read_text().splitlines()
        assert lines[0].endswith("replicates")
        assert all(line.endswith(",4") for line in lines[1:])

    def test_stability_leaves_out_an_unfittable_model(self, tmp_path, capsys):
        graph = tmp_path / "two.txt"
        graph.write_text("a b\n")
        out = tmp_path / "st"
        code = main(["stability", str(graph), "--out", str(out), "--seed", "1",
                     "--replicates", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: {graph}: WS: graph too small for a WS lattice (n=2)"]
        assert "Traceback" not in err
        models = {line.split(",")[0] for line in
                  (out / "stability.csv").read_text().splitlines()[1:]}
        assert models == {"CBA", "DD", "Com", "2K"}

    def test_stability_error_is_one_line(self, tmp_path, capsys, monkeypatch):
        import netfit.stability
        from netfit.generators import GenerationError

        def failing(params, seed):
            raise GenerationError("always fails")

        monkeypatch.setattr(netfit.stability, "generate", failing)
        graph = corpus_manifest().parent / "chems_04.txt"
        out = tmp_path / "st"
        code = main(["stability", str(graph), "--out", str(out), "--seed", "3",
                     "--replicates", "2", "--budget", "3", "--fit-replicates", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {graph}: WS: 2 of 2 replicates failed"]
        assert "Traceback" not in err
        assert not out.exists()

    def test_classify_smoke(self, tmp_path, dataset_csv):
        out = tmp_path / "clf"
        code = main(
            ["classify", str(dataset_csv), "--task", "subcategory", "--model", "tree",
             "--folds", "2", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "eval_subcategory_tree_food.json").read_text())
        assert report["task"] == "subcategory"
        assert 0.0 <= report["pooled_accuracy"] <= 1.0

    def test_each_dataset_row_checked_once(self, tmp_path, dataset_csv, monkeypatch):
        import netfit.dataset

        calls = []
        check = netfit.dataset._check_row
        monkeypatch.setattr(netfit.dataset, "_check_row",
                            lambda row, seen: calls.append(row) or check(row, seen))
        rows = len(dataset_csv.read_text().splitlines()) - 1
        assert main(["gof", str(dataset_csv), "--out", str(tmp_path / "gof")]) == 0
        assert len(calls) == rows
        calls.clear()
        assert main(["classify", str(dataset_csv), "--task", "subcategory", "--model", "tree",
                     "--folds", "2", "--seed", "5", "--out", str(tmp_path / "clf")]) == 0
        assert len(calls) == rows

    GOOD_ROW = "g,10,0.5,0.1,0.2,3.0,0.4,1.5,0.3,food,real,Real"

    @pytest.mark.parametrize("command", ["gof", "classify"])
    @pytest.mark.parametrize(
        "rows,message",
        [
            (None, "1: header mismatch; missing columns: ['density',"),
            (["g,x,0.5,0.1,0.2,3.0,0.4,1.5,0.3,food,real,Real"],
             "2: size must be an integer, got 'x'"),
            ([GOOD_ROW, "h,10,0.5,0.1,0.2,3.0,0.4,1.5,0.3,bio,real,Real"],
             "3: unknown domain 'bio' for 'h'"),
        ],
        ids=["missing-columns", "non-numeric", "unknown-domain"],
    )
    def test_schema_mismatch_reports_missing_columns(self, tmp_path, capsys, command, rows,
                                                      message):
        bad = tmp_path / "bad.csv"
        if rows is None:
            bad.write_text("name,size\nx,3\n")
        else:
            bad.write_text("\n".join([",".join(CSV_HEADER)] + rows) + "\n")
        out = tmp_path / "o"
        argv = [command, str(bad), "--out", str(out)]
        if command == "classify":
            argv += ["--task", "domain", "--seed", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: dataset {bad}:{message}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


class TestConfigFile:
    def test_config_overrides_defaults(self, tmp_path):
        src = tmp_path / "tri.txt"
        src.write_text(TRIANGLE)
        out_csv = tmp_path / "out.csv"
        cfg = tmp_path / "netfit.cfg"
        cfg.write_text(f"out = {out_csv}\n")
        assert main(["--config", str(cfg), "measure", str(src)]) == 0
        assert out_csv.exists()

    def test_non_integer_seed_exits_2_naming_line(self, tmp_path, capsys):
        src = tmp_path / "tri.txt"
        src.write_text(TRIANGLE)
        cfg = tmp_path / "netfit.cfg"
        cfg.write_text("# defaults\nseed = x\n")
        assert main(["--config", str(cfg), "fit", str(src), "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config {cfg}:2: seed must be an integer\n"
        assert not (tmp_path / "f").exists()

    def test_key_no_command_takes_exits_2_naming_line(self, tmp_path, capsys):
        src = tmp_path / "tri.txt"
        src.write_text(TRIANGLE)
        cfg = tmp_path / "netfit.cfg"
        cfg.write_text("seed = 1\nbugdet = 5\n")
        assert main(["--config", str(cfg), "fit", str(src), "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config {cfg}:2: unknown key 'bugdet' (no command takes it)\n"
        assert not (tmp_path / "f").exists()

    def test_key_another_command_takes_is_accepted(self, tmp_path):
        src = tmp_path / "tri.txt"
        src.write_text(TRIANGLE)
        cfg = tmp_path / "netfit.cfg"
        cfg.write_text("jobs = 2\nfit-replicates = 1\nbudget = 2\n")
        assert main(["--config", str(cfg), "fit", str(src), "--model", "CBA", "--seed", "1",
                     "--out", str(tmp_path / "f")]) == 0
        assert (tmp_path / "f" / "tri_CBA.json").exists()


class TestBadOptionValues:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fit", "{graph}", "--fit-replicates", "0"],
             "argument --fit-replicates: must be at least 1, got 0"),
            (["stability", "{graph}", "--replicates", "1"],
             "argument --replicates: must be at least 2, got 1"),
            (["stability", "{graph}", "--budget", "0"],
             "argument --budget: must be at least 1, got 0"),
            (["pipeline", "{manifest}", "--budget", "0"],
             "argument --budget: must be at least 1, got 0"),
            (["generate", "{params}", "--seed", "-1"],
             "argument --seed: must be at least 0, got -1"),
            (["classify", "{dataset}", "--task", "domain", "--folds", "1"],
             "argument --folds: must be at least 2, got 1"),
            (["classify", "{dataset}", "--task", "domain", "--folds", "100"],
             "error: dataset {dataset}: cannot split 4 samples into 100 folds"),
            (["--config", "{svm_config}", "classify", "{dataset}", "--task", "domain"],
             "error: config {svm_config}:1: model must be one of tree, forest, got 'svm'"),
            (["--config", "{folds_config}", "classify", "{dataset}", "--task", "category"],
             "error: config {folds_config}:1: folds must be at least 2, got 1"),
            (["pipeline", "{manifest}", "--jobs", "0"],
             "argument --jobs: must be at least 1, got 0"),
            (["--config", "{latin1_config}", "fit", "{graph}"],
             "error: config {latin1_config}:2: not UTF-8 text"),
            (["pipeline", "{latin1_manifest}"],
             "error: manifest {latin1_manifest}:3: not UTF-8 text"),
            (["pipeline", "{nul_manifest}"],
             "error: manifest {nul_manifest}:3: NUL byte in the path field"),
            (["pipeline", "{nul_name_manifest}"],
             "error: manifest {nul_name_manifest}:2: NUL byte in the name field"),
            (["pipeline", "{slash_manifest}"],
             "error: manifest {slash_manifest}:3: name 'sub/food_00' must be a file-name stem, "
             "without / or \\"),
            (["pipeline", "{dotdot_manifest}"],
             "error: manifest {dotdot_manifest}:2: name '../../x' must be a file-name stem, "
             "without / or \\"),
            (["pipeline", "{backslash_manifest}"],
             "error: manifest {backslash_manifest}:2: name 'sub\\\\x' must be a file-name "
             "stem, without / or \\"),
            (["pipeline", "{empty_name_manifest}"],
             "error: manifest {empty_name_manifest}:3: empty name field"),
            (["pipeline", "{empty_path_manifest}"],
             "error: manifest {empty_path_manifest}:2: empty path field"),
            (["fit", "{latin1_graph}"], "error: {latin1_graph}: line 3: not UTF-8 text"),
            (["classify", "{latin1_dataset}", "--task", "domain"],
             "error: dataset {latin1_dataset}:2: not UTF-8 text"),
            (["generate", "{latin1_params}"], "error: params {latin1_params}:2: not UTF-8 text"),
        ],
        ids=["fit-replicates-0", "replicates-1", "stability-budget-0", "pipeline-budget-0",
             "generate-seed-minus-1", "folds-1", "folds-100", "config-model-svm", "config-folds-1",
             "pipeline-jobs-0", "config-not-utf8", "manifest-not-utf8", "manifest-nul-path",
             "manifest-nul-name", "manifest-name-slash", "manifest-name-dotdot",
             "manifest-name-backslash", "manifest-empty-name", "manifest-empty-path",
             "edge-list-not-utf8", "dataset-not-utf8",
             "params-not-utf8"],
    )
    def test_exit_2_before_any_work(self, tmp_path, capsys, argv, message):
        dataset = tmp_path / "dataset.csv"
        dataset.write_text("\n".join([",".join(CSV_HEADER)] + [
            f"{name},10,0.5,0.1,0.2,3.0,0.4,1.5,0.3,{domain},real,Real"
            for name, domain in [("a", "food"), ("b", "food"), ("c", "chems"), ("d", "chems")]
        ]) + "\n")
        paths = {"graph": corpus_manifest().parent / "chems_04.txt",
                 "manifest": corpus_manifest(), "dataset": dataset,
                 "svm_config": tmp_path / "svm.cfg", "folds_config": tmp_path / "folds.cfg",
                 "params": tmp_path / "ws.json", "latin1_config": tmp_path / "latin1.cfg",
                 "latin1_manifest": tmp_path / "latin1.csv", "nul_manifest": tmp_path / "nul.csv",
                 "nul_name_manifest": tmp_path / "nul_name.csv",
                 "slash_manifest": tmp_path / "slash.csv",
                 "dotdot_manifest": tmp_path / "dotdot.csv",
                 "backslash_manifest": tmp_path / "backslash.csv",
                 "empty_name_manifest": tmp_path / "empty_name.csv",
                 "empty_path_manifest": tmp_path / "empty_path.csv",
                 "latin1_graph": tmp_path / "latin1.txt",
                 "latin1_dataset": tmp_path / "latin1_d.csv",
                 "latin1_params": tmp_path / "latin1.json"}
        paths["svm_config"].write_text("model = svm\n")
        paths["folds_config"].write_text("folds = 1\n")
        paths["latin1_config"].write_bytes(b"seed = 1\n# r\xe9sum\xe9\n")
        paths["latin1_manifest"].write_bytes(
            b"name,path,domain\nchems_04,chems_04.txt,chems\nfood_00,caf\xe9.txt,food\n")
        paths["nul_manifest"].write_text(
            "name,path,domain\nchems_04,chems_04.txt,chems\nfood_00,food\x0000.txt,food\n")
        paths["nul_name_manifest"].write_text("name,path,domain\nchems\x0004,chems_04.txt,chems\n")
        paths["params"].write_text('{"model": "WS", "params": {"n": 10, "K": 2, "p": 0.5}}')
        corpus = corpus_manifest().parent
        paths["slash_manifest"].write_text(
            f"name,path,domain\nchems_04,{corpus}/chems_04.txt,chems\n"
            f"sub/food_00,{corpus}/food_00.txt,food\n")
        paths["dotdot_manifest"].write_text(
            f"name,path,domain\n../../x,{corpus}/food_00.txt,food\n")
        paths["backslash_manifest"].write_text(
            f"name,path,domain\nsub\\x,{corpus}/food_00.txt,food\n")
        paths["empty_name_manifest"].write_text(
            f"name,path,domain\nchems_04,{corpus}/chems_04.txt,chems\n"
            f",{corpus}/food_00.txt,food\n")
        paths["empty_path_manifest"].write_text("name,path,domain\nchems_04, ,chems\n")
        paths["latin1_graph"].write_bytes(b"a b\rb c\r\nc caf\xe9\n")
        paths["latin1_dataset"].write_bytes(
            dataset.read_bytes().replace(b"a,10", b"\xe9,10"))
        paths["latin1_params"].write_bytes(
            b'{"model": "WS",\n "params": {"n": 10, "K": 2, "p": 0.5}, "note": "caf\xe9"}')
        out = tmp_path / "out"
        argv = [arg.format(**paths) for arg in argv] + ["--out", str(out)]
        if "--seed" not in argv:
            argv += ["--seed", "1"]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(message.format(**paths))
        assert "Traceback" not in err
        assert not out.exists()


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracedRunPatchPoints:
    """The benchmark's traced run wraps the names the CLI commands call, in place."""

    def test_every_patch_point_exists_and_is_restored(self, tmp_path):
        tracing = _load_tracing()
        tracer = tracing.Tracer()
        replacements = tracing.instrument(tracer)
        before = {(owner, attr): vars(owner)[attr] for owner, attr in replacements}
        graph = corpus_manifest().parent / "chems_04.txt"
        fits, generated = tmp_path / "fits", tmp_path / "generated.txt"
        with tracing.patched(replacements):
            assert main(["fit", str(graph), "--model", "all", "--seed", "5", "--out", str(fits),
                         "--budget", "2", "--fit-replicates", "1"]) == 0
            assert main(["generate", str(fits / "chems_04_2K.json"), "--seed", "3",
                         "--out", str(generated)]) == 0
            assert main(["measure", str(generated), "--out", str(tmp_path / "m.csv")]) == 0
        assert all(vars(owner)[attr] is value for (owner, attr), value in before.items())
        assert tracer.counts["generators.2K_calls"] == 1
        assert tracer.counts["metrics.calls"] == 1
        assert tracer.counts["fitting.WS_evaluations"] >= 1
        spans = tracer.layer_totals()
        assert {"fitting.2K", "generators.2K", "graph.load", "metrics.density"} <= set(spans)


def test_cli_import_leaves_process_pool_unloaded():
    import netfit

    src = str(Path(netfit.__file__).resolve().parents[1])
    code = ("import sys, netfit.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_cli_import_leaves_classify_unloaded():
    import netfit

    src = str(Path(netfit.__file__).resolve().parents[1])
    code = "import sys, netfit.cli; print('netfit.classify' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


class TestEntropySeed:
    def test_missing_seed_is_announced(self, tmp_path, capsys):
        graph = corpus_manifest().parent / "chems_04.txt"
        code = main(
            ["fit", str(graph), "--model", "2K", "--out", str(tmp_path / "f")]
        )
        assert code == 0
        assert "seed:" in capsys.readouterr().err

    def test_generate_to_stdout_keeps_seed_line_out_of_edge_list(self, tmp_path, capsys):
        params = tmp_path / "fit.json"
        params.write_text('{"model": "WS", "params": {"n": 10, "K": 2, "p": 0.0}}')
        assert main(["generate", str(params)]) == 0
        captured = capsys.readouterr()
        g = parse_edge_list(captured.out)
        assert (g.node_count, g.edge_count) == (10, 10)
        assert captured.err.startswith("seed: ")
