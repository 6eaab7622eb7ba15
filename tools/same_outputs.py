#!/usr/bin/env python3
"""Check that this checkout writes the same bytes as a git ref at fixed seeds.

Exports ``<git-ref>`` with ``git archive`` into a temporary directory,
then runs one fixed-seed command set through each tree's ``netfit`` CLI
on the same inputs (this checkout's bundled corpus):

- ``pipeline --seed 7`` with ``--jobs 1`` and with ``--jobs 2``;
- ``gof`` on the pipeline's dataset;
- ``classify`` for the three tasks with both tree and forest;
- ``stability`` on one corpus graph;
- ``fit --model all``, then ``generate`` from each of its six reports
  and one ``measure`` over the generated graphs;
- ``generate --seed 7`` of a CBA graph at n = 1000 from a fit JSON the
  tool writes (m = 5, p = 0.005), then on that graph ``fit --model CBA``
  and ``stability --replicates 10 --fit-replicates 2``;
- ``generate --seed 7`` of a CBA graph at n = 5000 (m = 4, p = 0.3) from
  a second such JSON, and ``measure`` over it: an edge list of about
  175 kB, larger than one block of the edge-list parse.

Each command's output files, stdout, stderr and exit code are kept, and
the two output trees are compared with ``diff -r``. For each CSV file
that differs, the columns that changed are then named, each with its
largest absolute difference (``text`` when a changed cell is not a
number). The working tree is only read. Run from anywhere inside the
checkout:

    python3 tools/same_outputs.py HEAD~

Exit status: 0 when every output is byte-identical; 1 when any differs,
or when a command of this checkout exits non-zero; 2 when git cannot
export the ref.

The digest steps of the same command set (``pipeline --jobs 1``,
``gof``, the three ``classify`` tasks with both models, ``stability``,
``fit --model all`` and the ``generate`` and ``measure`` that follow
it, and the n = 5000 ``generate`` and ``measure``) are pinned in
``tests/data/output_digests.json``: one SHA-256 per output file, with
the numpy version that wrote them. A tier-1 test reruns those steps
in-process and names every file that differs. A change that alters
these bytes on purpose rewrites the file with

    python3 tools/same_outputs.py --write-digests
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from netfit.fitting import MODELS  # noqa: E402

CORPUS = ROOT / "src" / "netfit" / "data" / "corpus"
SEED = "7"
GRAPH = CORPUS / "brain_04.txt"
# fit JSONs written into each output tree before its commands run
FIT_FILES = {
    "cba_n1000.json": {"model": "CBA", "params": {"n": 1000, "m": 5, "p": 0.005}},
    "cba_n5000.json": {"model": "CBA", "params": {"n": 5000, "m": 4, "p": 0.3}},
}
DIGESTS = ROOT / "tests" / "data" / "output_digests.json"
# the reports ``fit GRAPH --model all`` writes, one per model, in name order
FIT_REPORTS = tuple(sorted(f"{GRAPH.stem}_{spec.name}" for spec in MODELS))
# the steps of command_set() whose outputs the digest file pins
DIGEST_STEPS = ("pipeline_jobs1", "gof",
                *(f"classify_{task}_{model}" for task in ("domain", "category", "subcategory")
                  for model in ("tree", "forest")),
                "stability", "fit", *(f"generate_{stem}" for stem in FIT_REPORTS), "measure",
                "generate_cba_n5000", "measure_cba_n5000")


def command_set():
    """(log name, netfit arguments) in run order; output paths are relative."""
    steps = [
        ("pipeline_jobs1", ["pipeline", CORPUS / "manifest.csv", "--seed", SEED,
                            "--jobs", "1", "--out", "pipeline_jobs1"]),
        ("pipeline_jobs2", ["pipeline", CORPUS / "manifest.csv", "--seed", SEED,
                            "--jobs", "2", "--out", "pipeline_jobs2"]),
        ("gof", ["gof", "pipeline_jobs1/dataset.csv", "--out", "gof"]),
    ]
    for task in ("domain", "category", "subcategory"):
        for model in ("tree", "forest"):
            steps.append((f"classify_{task}_{model}",
                          ["classify", "pipeline_jobs1/dataset.csv", "--task", task,
                           "--model", model, "--seed", SEED, "--out", "classify"]))
    steps.append(("stability", ["stability", GRAPH, "--seed", SEED, "--out", "stability"]))
    steps.append(("fit", ["fit", GRAPH, "--model", "all", "--seed", SEED, "--out", "fit"]))
    for stem in FIT_REPORTS:
        steps.append((f"generate_{stem}", ["generate", f"fit/{stem}.json", "--seed", SEED,
                                           "--out", f"generate/{stem}.txt"]))
    steps.append(("measure", ["measure", *(f"generate/{stem}.txt" for stem in FIT_REPORTS),
                              "--out", "measure.csv"]))
    steps += [
        ("generate_cba_n1000", ["generate", "cba_n1000.json", "--seed", SEED,
                                "--out", "cba_n1000.txt"]),
        ("fit_cba_n1000", ["fit", "cba_n1000.txt", "--model", "CBA", "--seed", SEED,
                           "--out", "fit_cba_n1000"]),
        ("stability_cba_n1000", ["stability", "cba_n1000.txt", "--replicates", "10",
                                 "--fit-replicates", "2", "--seed", SEED,
                                 "--out", "stability_cba_n1000"]),
        ("generate_cba_n5000", ["generate", "cba_n5000.json", "--seed", SEED,
                                "--out", "cba_n5000.txt"]),
        ("measure_cba_n5000", ["measure", "cba_n5000.txt", "--out", "measure_cba_n5000.csv"]),
    ]
    return steps


def write_fit_files(out_dir):
    """Write the fit JSONs of :data:`FIT_FILES` into out_dir."""
    for name, report in FIT_FILES.items():
        (out_dir / name).write_text(json.dumps(report) + "\n", encoding="utf-8")


def run(src, out_dir):
    """Run the command set with ``src`` on the path; logs go to out_dir/logs.

    Returns the names of the commands that exited non-zero.
    """
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    logs = out_dir / "logs"
    logs.mkdir(parents=True)
    (out_dir / "generate").mkdir()
    write_fit_files(out_dir)
    failed = []

    def netfit(name, args):
        done = subprocess.run([sys.executable, "-m", "netfit.cli", *map(str, args)],
                              cwd=out_dir, env=env, capture_output=True, text=True)
        (logs / f"{name}.txt").write_text(
            f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}")
        if done.returncode != 0:
            failed.append(name)

    for name, args in command_set():
        print(f"  {name}", flush=True)
        netfit(name, args)
    return failed


def output_digests(out_dir):
    """{path: SHA-256} of every file the digest steps write into out_dir.

    The steps run in-process through ``netfit.cli.main``, with out_dir
    as the working directory; RuntimeError if one exits non-zero. The
    fit JSONs they read are written first and not digested.
    """
    from netfit.cli import main as netfit_main

    steps = dict(command_set())
    write_fit_files(out_dir)
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        for name in DIGEST_STEPS:
            code = netfit_main([str(arg) for arg in steps[name]])
            if code:
                raise RuntimeError(f"{name} exited {code}")
    finally:
        os.chdir(cwd)
    return {path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*"))
            if path.is_file() and path.relative_to(out_dir).as_posix() not in FIT_FILES}


def write_digests():
    """Rewrite :data:`DIGESTS` from this interpreter's netfit and numpy."""
    import numpy

    with tempfile.TemporaryDirectory(prefix="digests_") as tmp:
        files = output_digests(Path(tmp))
    DIGESTS.write_text(json.dumps({"numpy": numpy.__version__, "files": files}, indent=1)
                       + "\n", encoding="utf-8")
    print(f"{len(files)} digests -> {DIGESTS}")


def column_report(ref_dir, work_dir):
    """Lines naming, per CSV file that differs between the trees, its changed columns.

    Rows are compared by position under the reference file's header. A
    column reads ``<name> <largest |difference|>``, or ``<name> text``
    when a changed cell does not parse as a number in both files.
    """
    lines = []
    for ref in sorted(ref_dir.rglob("*.csv")):
        rel = ref.relative_to(ref_dir)
        work = work_dir / rel
        if not work.is_file() or ref.read_bytes() == work.read_bytes():
            continue
        old, new = (list(csv.reader(p.read_text(encoding="utf-8").splitlines()))
                    for p in (ref, work))
        header = old[0] if old else []
        notes = []
        if old[:1] != new[:1]:
            notes.append("header differs")
        if len(old) != len(new):
            notes.append(f"{len(old)} vs {len(new)} rows")
        worst = {}
        for row_old, row_new in zip(old[1:], new[1:]):
            for j, (a, b) in enumerate(zip(row_old, row_new)):
                if a == b:
                    continue
                try:
                    gap = abs(float(a) - float(b))
                except ValueError:
                    gap = None
                last = worst.get(j, 0.0)
                worst[j] = None if gap is None or last is None else max(last, gap)
        for j, gap in sorted(worst.items()):
            name = header[j] if j < len(header) and header[j] else f"column {j}"
            notes.append(f"{name} {'text' if gap is None else f'{gap:.3g}'}")
        lines.append(f"{rel}: {', '.join(notes)}")
    return lines


def export(ref, dest):
    """Extract ``git archive <ref>`` into dest; SystemExit(2) if git refuses."""
    dest.mkdir(parents=True)
    archive = dest.parent / "ref.tar"
    done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive),
                           ref], capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(2)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(dest)], check=True)


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: same_outputs.py <git-ref> | --write-digests", file=sys.stderr)
        return 2
    if argv == ["--write-digests"]:
        write_digests()
        return 0
    ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        export(ref, tmp / "ref")
        failed = {}
        for side, src in (("ref", tmp / "ref" / "src"), ("work", ROOT / "src")):
            print(f"{side}: {ref if side == 'ref' else ROOT}", flush=True)
            failed[side] = run(src, tmp / "out" / side)
        diff = subprocess.run(["diff", "-r", "ref", "work"], cwd=tmp / "out",
                              capture_output=True, text=True)
        sys.stdout.write(diff.stdout)
        if diff.returncode != 0:
            report = column_report(tmp / "out" / "ref", tmp / "out" / "work")
            if report:
                print("changed CSV columns (largest absolute difference):")
                for line in report:
                    print(f"  {line}")
            print(f"outputs differ from {ref}")
            return 1
    if failed["work"]:
        # identical failures compare equal, but prove nothing about the outputs
        print(f"outputs identical, but these commands failed: {', '.join(failed['work'])}")
        return 1
    print(f"all outputs byte-identical to {ref}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
