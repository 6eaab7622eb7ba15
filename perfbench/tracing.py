"""Per-layer tracing of the netfit CLI, run in-process.

The traced run calls ``netfit.cli.main`` with each of the workload's
command lines, so it does exactly what the untraced commands do. For the
length of the run, the functions that the commands call into each layer
are wrapped in place where the calling module binds them: spans go
around them and counts are taken from their arguments and results.
Spans live in memory and are written out as JSON lines at the end.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

MODELS = ("WS", "WS_STD", "CBA", "DD", "Com", "2K")
METRIC_FUNCTIONS = {
    "density": "density",
    "assort": "assortativity",
    "avg_clust": "average_clustering",
    "avg_deg": "average_degree",
    "max_eigenv_c": "max_eigenvector_centrality",
    "avg_path_length": "average_path_length_normalized",
    "skew_deg_dist": "degree_skewness",
}
TASKS = ("domain", "category", "subcategory")

TIMED = (
    ["graph.load", "graph.serialize"]
    + [f"metrics.{m}" for m in METRIC_FUNCTIONS]
    + [f"generators.{m}" for m in MODELS]
    + [f"fitting.{m}" for m in MODELS]
    + ["stability.run", "gof.distance", "gof.correlation", "gof.pca"]
    + [f"classify.{t}" for t in TASKS]
    + ["dataset.csv"]
)
COUNTED = (
    ["metrics.calls"]
    + [f"generators.{m}_calls" for m in MODELS]
    + [f"fitting.{m}_{k}" for m in MODELS for k in ("evaluations", "generations")]
)
PER_LAYER = [f"{name}_s" for name in TIMED] + COUNTED + ["trace.overhead_s"]


class Tracer:
    """Spans (name, start, end, parent index) and named counts, in memory."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter() - self.origin, None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter() - self.origin
            self._stack.pop()

    def wrap(self, name, fn):
        """``fn`` in a span; ``name`` is a string or a function of the call's arguments."""
        def traced(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(*args, **kwargs)):
                return fn(*args, **kwargs)
        return traced

    def layer_totals(self):
        """Summed duration per span name (no layer nests inside itself)."""
        totals = Counter()
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        return totals

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


@contextmanager
def patched(replacements):
    """Set (module or class, attribute) -> value for the block, then restore."""
    saved = [(owner, attr, vars(owner)[attr]) for (owner, attr) in replacements]
    try:
        for (owner, attr), value in replacements.items():
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def instrument(tracer):
    """The replacements that trace every layer the CLI commands call."""
    import netfit.classify
    import netfit.cli
    import netfit.dataset
    import netfit.generators
    import netfit.graph
    import netfit.metrics
    import netfit.stability

    cli, gen, metrics = netfit.cli, netfit.generators, netfit.metrics
    model_of = {gen.WSParams: "WS", gen.CBAParams: "CBA", gen.DDParams: "DD",
                gen.CommunityParams: "Com", gen.TwoKParams: "2K"}

    fitted = {}  # id(params) -> (params, model) for every fit made, so WS_STD is told from WS

    def generate(params, seed):
        model = fitted.get(id(params), (None, model_of[type(params)]))[1]
        tracer.counts[f"generators.{model}_calls"] += 1
        with tracer.span(f"generators.{model}"):
            return gen.generate(params, seed)

    fit = cli.fit_model

    def fit_model(g, model, *args, **kwargs):
        with tracer.span(f"fitting.{model}"):
            report = fit(g, model, *args, **kwargs)
        fitted[id(report.params)] = (report.params, model)
        tracer.counts[f"fitting.{model}_evaluations"] += report.evaluations
        tracer.counts[f"fitting.{model}_generations"] += (report.evaluations
                                                          * report.replicates_per_eval)
        return report

    def feature_vector(g):
        tracer.counts["metrics.calls"] += 1
        return metrics.feature_vector(g)

    def task_span(_table, task, *args, **kwargs):
        return f"classify.{task}"

    serialize = tracer.wrap("graph.serialize", netfit.graph.serialize_edge_list)
    table = netfit.dataset.DatasetTable
    repl = {(metrics, fn): tracer.wrap(f"metrics.{m}", getattr(metrics, fn))
            for m, fn in METRIC_FUNCTIONS.items()}
    repl.update({
        (cli, "fit_model"): fit_model,
        (cli, "generate"): generate,
        (cli, "feature_vector"): feature_vector,
        (cli, "load_edge_list"): tracer.wrap("graph.load", netfit.graph.load_edge_list),
        (cli, "serialize_edge_list"): serialize,
        # `generate --out` writes through graph.save_edge_list
        (netfit.graph, "serialize_edge_list"): serialize,
        (cli, "mean_distance_matrix"): tracer.wrap("gof.distance", cli.mean_distance_matrix),
        (cli, "correlation_matrix"): tracer.wrap("gof.correlation", cli.correlation_matrix),
        (cli, "pca_project"): tracer.wrap("gof.pca", cli.pca_project),
        (cli, "write_feature_csv"): tracer.wrap("dataset.csv", cli.write_feature_csv),
        (table, "to_csv_text"): tracer.wrap("dataset.csv", table.to_csv_text),
        (table, "from_csv"): classmethod(tracer.wrap("dataset.csv",
                                                     vars(table)["from_csv"].__func__)),
        (netfit.classify, "run_task"): tracer.wrap(task_span, netfit.classify.run_task),
        (cli, "stability_run"): tracer.wrap("stability.run", cli.stability_run),
        (netfit.stability, "generate"): generate,
        (netfit.stability, "feature_vector"): feature_vector,
    })
    return repl
