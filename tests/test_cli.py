import csv
import json
from pathlib import Path

import pytest

from netfit.cli import main
from netfit.data import corpus_manifest
from netfit.dataset import DatasetTable
from netfit.graph import parse_edge_list
from netfit.metrics import CSV_HEADER

TRIANGLE = "a b\nb c\nc a\n"


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


class TestPipeline:
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

    def test_missing_file_failure_exit(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("name,path,domain\nghost,missing.txt,food\n")
        code = main(
            ["pipeline", str(manifest), "--out", str(tmp_path / "out"), "--seed", "1"]
        )
        assert code == 1

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
