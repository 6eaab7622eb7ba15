"""Command-line pipeline: ingest -> fit -> generate -> measure -> analyze.

Subcommands: measure, fit, generate, pipeline, gof, stability, classify.
Every command is deterministic given --seed (omitting it draws one from
entropy and prints it); pipeline jobs derive per-graph seeds from the
graph name, so --jobs never changes the output bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import secrets
import sys
from itertools import repeat
from pathlib import Path

# perfbench/tracing.py wraps fit_model, generate, feature_vector,
# load_edge_list and others where this module binds them, so these names
# must stay bound here at import time, not be imported inside a command.
from . import seeds
from .dataset import DOMAINS, DatasetRow, DatasetTable, csv_text, write_feature_csv
from .fitting import DEFAULT_BUDGET, DEFAULT_REPLICATES, MODELS, fit_model, params_from_json_obj
from .generators import generate
from .gof import correlation_matrix, mean_distance_matrix, pca_project
from .graph import (EdgeListError, InputError, ItemFailure, load_edge_list,
                    serialize_edge_list, utf8_text)
from .metrics import feature_vector
from .stability import stability_run

_UNSET = object()  # distinguishes "flag not given" from an explicit value


def _input_text(path, kind):
    """The text of a ``kind`` file; InputError naming the line of a byte that is not UTF-8."""
    return utf8_text(path, lambda line: InputError(f"{kind} {path}:{line}: not UTF-8 text"))


def _read_config(path, known):
    """Parse a `key = value` config file into {key: (raw value, "config <path>:<line>")}.

    A key outside ``known``, the keys that some command takes, is refused.
    """
    values = {}
    for lineno, line in enumerate(_input_text(path, "config").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"config {path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        name = key.replace("-", "_")
        if name not in known:
            raise InputError(f"config {path}:{lineno}: unknown key {key!r} (no command takes it)")
        values[name] = (raw.strip(), f"config {path}:{lineno}")
    return values


def _config_value(action, raw, where):
    """A config value through its option's own ``type`` and ``choices``."""
    value = raw
    if action.type is not None:
        try:
            value = action.type(raw)
        except argparse.ArgumentTypeError as exc:
            raise InputError(f"{where}: {action.dest} {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise InputError(f"{where}: {action.dest} must be one of "
                         f"{', '.join(action.choices)}, got {value!r}")
    return value


def _integer(low=None):
    """argparse ``type``: an integer, at least ``low`` when given."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("must be an integer") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _resolve_seed(args):
    if args.seed is None:
        args.seed = secrets.randbits(48)
        print(f"seed: {args.seed} (chosen from entropy; pass --seed to reproduce)",
              file=sys.stderr)
    return args.seed


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _fit(g, name, model, master_seed, budget, fit_replicates):
    """Fit ``model`` to graph ``name`` with the seed every command derives for it."""
    return fit_model(g, model, budget=budget, replicates=fit_replicates,
                     seed=seeds.derive(master_seed, name, model, "fit"))


# ---------------------------------------------------------------------------
# measure


def cmd_measure(args):
    rows = []
    failures = 0
    for path in args.paths:
        try:  # no graph is held while the next one loads
            rows.append((Path(path).stem, feature_vector(load_edge_list(path))))
        except (OSError, EdgeListError) as exc:  # these name the file
            failures += 1
            print(f"error: {exc}", file=sys.stderr)
        except ItemFailure as exc:
            failures += 1
            print(f"error: {path}: {exc}", file=sys.stderr)
    text = write_feature_csv(rows)
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# fit / generate


def cmd_fit(args):
    seed = _resolve_seed(args)
    g = load_edge_list(args.path)
    name = Path(args.path).stem
    models = [spec.name for spec in MODELS] if args.model == "all" else [args.model]
    out_dir = Path(args.out)
    failures = 0
    for model in models:
        try:
            report = _fit(g, name, model, seed, args.budget, args.fit_replicates)
        except ItemFailure as exc:
            failures += 1
            print(f"error: {model}: {exc}", file=sys.stderr)
            continue
        _write(out_dir / f"{name}_{model}.json", _json_text(report.to_json_obj()))
        print(f"{model}: objective {report.objective_value!r} ({report.evaluations} evaluations)")
    return 1 if failures else 0


def cmd_generate(args):
    text = _input_text(args.params, "params")
    try:
        model, params, file_seed = params_from_json_obj(json.loads(text))
    except ValueError as exc:
        raise InputError(f"params {args.params}: {exc}") from None
    if args.seed is None:
        args.seed = file_seed
    seed = _resolve_seed(args)
    try:
        g = generate(params, seed)
    except ItemFailure as exc:  # valid params the generator still cannot realize
        raise InputError(f"params {args.params}: {exc}") from None
    text = serialize_edge_list(g)
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    print(f"{model}: generated n={g.node_count} m={g.edge_count}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# pipeline


def _read_manifest(path):
    """Manifest rows as (name, absolute path, domain), all checked up front.

    Domains form the closed vocabulary ``dataset.DOMAINS``; any bad row
    stops the run before the first fit.
    """
    base = Path(path).parent
    entries = []
    names = set()
    reader = csv.reader(io.StringIO(_input_text(path, "manifest"), newline=None))
    header = next(reader, [])
    if [h.strip() for h in header] != ["name", "path", "domain"]:
        raise InputError(f"manifest {path}:1: header must be name,path,domain")
    for record in reader:
        if not record:
            continue
        where = f"manifest {path}:{reader.line_num}"
        if len(record) != 3:
            raise InputError(f"{where}: expected 3 fields name,path,domain, got {len(record)}")
        name, rel, domain = (field.strip() for field in record)
        if domain not in DOMAINS:
            raise InputError(
                f"{where}: unknown domain {domain!r} (expected one of {', '.join(DOMAINS)})"
            )
        if name in names:
            raise InputError(f"{where}: duplicate name {name!r}")
        for field, value in (("name", name), ("path", rel)):
            if not value:
                raise InputError(f"{where}: empty {field} field")
            if "\0" in value:  # no file name can hold one
                raise InputError(f"{where}: NUL byte in the {field} field")
        if "/" in name or "\\" in name:  # output files are named after it
            raise InputError(f"{where}: name {name!r} must be a file-name stem, without / or \\")
        names.add(name)
        entries.append((name, str((base / rel).resolve()), domain))
    return entries


def _pipeline_one(entry, master_seed, budget, fit_replicates):
    """Fit all models to one real graph and measure every counterpart.

    Returns (rows, artifacts, failures); must stay a plain picklable
    function because pipeline jobs may run in worker processes.
    """
    name, path, domain = entry
    rows = []
    artifacts = {}
    failures = []
    try:
        g = load_edge_list(path)
        rows.append(DatasetRow(name, feature_vector(g), domain, "real", "Real"))
    except (OSError, EdgeListError, ItemFailure) as exc:
        return [], {}, [f"{name}: {exc}"]
    for model in (spec.name for spec in MODELS):
        try:
            report = _fit(g, name, model, master_seed, budget, fit_replicates)
            counterpart = generate(report.params, seeds.derive(master_seed, name, model, "gen"))
            rows.append(DatasetRow(name, feature_vector(counterpart), domain, "model", model))
            artifacts[f"fits/{name}_{model}.json"] = _json_text(report.to_json_obj())
            artifacts[f"graphs/{name}_{model}.txt"] = serialize_edge_list(counterpart)
        except ItemFailure as exc:
            failures.append(f"{name}/{model}: {exc}")
    return rows, artifacts, failures


def cmd_pipeline(args):
    entries = _read_manifest(args.manifest)
    seed = _resolve_seed(args)
    out_dir = Path(args.out)
    work = (entries, repeat(seed), repeat(args.budget), repeat(args.fit_replicates))
    all_rows = []
    all_failures = []
    with contextlib.ExitStack() as stack:
        ordered_map = map
        if args.jobs > 1 and len(entries) > 1:
            from concurrent.futures import ProcessPoolExecutor

            ordered_map = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs)).map
        # each graph's files are written as its result arrives, in manifest order
        for rows, artifacts, failures in ordered_map(_pipeline_one, *work):
            all_rows.extend(rows)
            for rel, text in sorted(artifacts.items()):
                _write(out_dir / rel, text)
            all_failures.extend(failures)
    table = DatasetTable(rows=tuple(all_rows))
    _write(out_dir / "dataset.csv", table.to_csv_text())
    for line in all_failures:
        print(f"error: {line}", file=sys.stderr)
    print(f"pipeline: {len(all_rows)} rows, {len(all_failures)} failures -> {out_dir}")
    return 1 if all_failures else 0


# ---------------------------------------------------------------------------
# gof / stability / classify


def cmd_gof(args):
    table = DatasetTable.from_csv(args.dataset)
    real = table.filter(category="real")
    try:
        pca = pca_project(real) if len(real) >= 3 else None
    except InputError as exc:
        raise InputError(f"dataset {args.dataset}: {exc}") from None
    out_dir = Path(args.out)
    distances = mean_distance_matrix(table)
    for domain in table.domains_present():
        _write(out_dir / f"distance_{domain}.csv", distances.to_csv_text(domain))
    for domain in real.domains_present():
        sub = real.filter(domain=domain)
        if len(sub) >= 3:
            _write(out_dir / f"correlation_{domain}.csv", correlation_matrix(sub).to_csv_text())
    if pca is not None:
        _write(out_dir / "pca.csv", pca.to_csv_text())
    if distances.unmatched:
        lines = [
            f"{domain},{name},missing:{'|'.join(missing)}"
            for domain, name, missing in distances.unmatched
        ]
        _write(out_dir / "unmatched.txt", "\n".join(lines) + "\n")
        print(f"warning: {len(distances.unmatched)} name(s) lack counterparts", file=sys.stderr)
    print(f"gof: reports written to {out_dir}")
    return 0


def cmd_stability(args):
    seed = _resolve_seed(args)
    g = load_edge_list(args.path)
    name = Path(args.path).stem
    fits = []
    failures = 0
    for spec in MODELS:
        if not spec.competes:
            continue
        try:
            fits.append(_fit(g, name, spec.name, seed, args.budget, args.fit_replicates))
        except ItemFailure as exc:
            failures += 1
            print(f"error: {args.path}: {spec.name}: {exc}", file=sys.stderr)
    try:
        summary = stability_run(g, fits, replicates=args.replicates,
                                seed=seeds.derive(seed, name, "stability"))
    except ItemFailure as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    _write(out_dir / "stability.csv", summary.to_csv_text())
    print(f"stability: {args.replicates} replicates per model -> {out_dir / 'stability.csv'}")
    return 1 if failures else 0


def cmd_classify(args):
    from .classify import run_task

    seed = _resolve_seed(args)
    table = DatasetTable.from_csv(args.dataset)
    out_dir = Path(args.out)
    domains = [None] if args.task == "domain" else table.domains_present()
    reports = []
    for domain in domains:
        try:
            reports.append(run_task(table, args.task, model=args.model, k=args.folds,
                                    seed=seed, domain=domain))
        except InputError as exc:
            where = f"dataset {args.dataset}" + (f" ({domain})" if domain else "")
            raise InputError(f"{where}: {exc}") from None
    for report in reports:
        suffix = f"_{report.domain}" if report.domain else ""
        stem = f"eval_{report.task}_{report.model}{suffix}"
        _write(out_dir / f"{stem}.json", _json_text(report.to_json_obj()))
        rows = [[cname, *row] for cname, row in zip(report.class_names, report.confusion)]
        _write(out_dir / f"{stem}_confusion.csv", csv_text(["", *report.class_names], rows))
        headline = (
            f"AUC {report.auc!r}" if report.auc is not None
            else f"accuracy {report.pooled_accuracy!r}"
        )
        print(f"{stem}: {headline}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    """Parser with sentinel defaults so a config file can fill gaps.

    Every overridable option defaults to _UNSET and records its action
    and real default in the command's ``options`` map; main() applies
    explicit flag > config value > real default, and a config value goes
    through the same ``type`` and ``choices`` as the flag. A config key
    that no command takes is refused.
    """
    parser = argparse.ArgumentParser(
        prog="netfit",
        description="Fit network models to graphs, generate counterparts, "
        "measure, score and classify them.",
    )
    parser.add_argument("--config", help="key = value file overriding defaults")
    parser._config_keys = set()  # every option a config file may set, over all commands
    sub = parser.add_subparsers(dest="command", required=True)

    def opt(p, name, real_default, **kwargs):
        action = p.add_argument(name, default=_UNSET, **kwargs)
        p._options[action.dest] = (action, real_default)
        parser._config_keys.add(action.dest)

    def new_command(name, func, help_text, needs_out=False):
        p = sub.add_parser(name, help=help_text)
        p._options = {}
        p.set_defaults(func=func, needs_out=needs_out, options=p._options)
        return p

    p = new_command("measure", cmd_measure, "feature CSV for edge-list files")
    p.add_argument("paths", nargs="+")
    opt(p, "--out", None, help="output CSV (default stdout)")

    p = new_command("fit", cmd_fit, "fit models to one graph, write JSON reports",
                    needs_out=True)
    p.add_argument("path")
    opt(p, "--model", "all", choices=["all"] + [spec.name for spec in MODELS])
    opt(p, "--budget", DEFAULT_BUDGET, type=_integer(1))
    opt(p, "--fit-replicates", DEFAULT_REPLICATES, type=_integer(1))
    opt(p, "--seed", None, type=_integer(0))
    opt(p, "--out", None, help="output directory")

    p = new_command("generate", cmd_generate, "generate a graph from a params JSON")
    p.add_argument("params")
    opt(p, "--seed", None, type=_integer(0))
    opt(p, "--out", None, help="output edge list (default stdout)")

    p = new_command("pipeline", cmd_pipeline, "fit+generate+measure a whole manifest",
                    needs_out=True)
    p.add_argument("manifest", help="CSV with header name,path,domain")
    opt(p, "--jobs", 1, type=_integer(1))
    opt(p, "--budget", DEFAULT_BUDGET, type=_integer(1))
    opt(p, "--fit-replicates", DEFAULT_REPLICATES, type=_integer(1))
    opt(p, "--seed", None, type=_integer(0))
    opt(p, "--out", None, help="output directory")

    p = new_command("gof", cmd_gof, "distance/correlation/PCA reports from a dataset CSV",
                    needs_out=True)
    p.add_argument("dataset")
    opt(p, "--out", None, help="output directory")

    p = new_command("stability", cmd_stability,
                    "replicate fitted models and summarize metrics", needs_out=True)
    p.add_argument("path")
    opt(p, "--replicates", 30, type=_integer(2))
    opt(p, "--budget", DEFAULT_BUDGET, type=_integer(1))
    opt(p, "--fit-replicates", DEFAULT_REPLICATES, type=_integer(1))
    opt(p, "--seed", None, type=_integer(0))
    opt(p, "--out", None, help="output directory")

    p = new_command("classify", cmd_classify, "run a classification task on a dataset CSV",
                    needs_out=True)
    p.add_argument("dataset")
    p.add_argument("--task", required=True, choices=("domain", "category", "subcategory"))
    opt(p, "--model", "forest", choices=("tree", "forest"))
    opt(p, "--folds", 5, type=_integer(2))
    opt(p, "--seed", None, type=_integer(0))
    opt(p, "--out", None, help="output directory")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config, parser._config_keys) if args.config else {}
        for key, (action, real_default) in args.options.items():
            if getattr(args, key) is _UNSET:
                setattr(args, key,
                        _config_value(action, *config[key]) if key in config else real_default)
        if getattr(args, "needs_out", False) and not args.out:
            parser.error(f"{args.command}: --out is required (flag or config file)")
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
