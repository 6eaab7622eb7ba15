#!/usr/bin/env python3
"""netfit benchmark: run one workload through the netfit CLI and report.

Usage, from the root of a netfit checkout:

    python3 perfbench/run.py --workload corpus_pipeline --seed 1 --seconds 10 --trace 0

Workloads: corpus_pipeline, stability_n1000, large_graphs (see README.md).
Each round runs the workload's `netfit` commands one after another in
child processes, with `--jobs 1`, as a user would. Rounds repeat until
``--seconds`` have been measured. The first round's outputs are checked
against computations made apart from netfit (checks.py); later rounds
must reproduce them byte for byte.

While a command runs, it is stopped every PROBE_EVERY_S seconds for one
short fixed probe timed on the CPU it ran on, and the round's time is
scaled by the probes to the reference host speed (see README.md, Steadiness).

With ``--trace 0`` the last line of stdout is the end-to-end result:
ref_wall_s (median round), peak_rss_mb and setup_s. With ``--trace 1`` one
untraced round is followed by a traced run of the same commands through
``netfit.cli.main`` in this process (tracing.py), and the per-layer
metrics are reported instead. Progress and the check
summary go to stderr.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
DEADLINE_S = 170.0  # a run must exit within 180 s
CHECK_RESERVE_S = 45.0  # no new round starts if it could end later than this before the deadline
REPLICATES = 30  # stability replicates per model
# Stability fits average 2 generations per search candidate instead of the
# default 5: the same searches over the same grids, at a cost that lets all
# of the benchmark's runs fit in its time on a 2-core host.
STABILITY_FIT_REPLICATES = 2
# netfit's own --seed for stability_n1000 is fixed; the run's seed draws the
# input graph. The DD search draws graphs near p = 1 whose edge count follows
# a Polya urn, so with a new netfit seed per run its cost alone varied by
# +-15 % between seeds; fixed, every run draws the same search graphs.
STABILITY_NETFIT_SEED = 7
# Host-speed probes. This host's speed drifts by up to +-30 % in phases of
# about a minute, per CPU, and a round is one such phase, so a round's wall
# time alone cannot be compared between runs. The probe is fixed work of the
# same kind as netfit's (interpreter loops, dicts, small numpy arrays), timed
# with the command stopped, on the CPU the command last ran on; its mean time
# over a round says how fast that CPU was.
PROBE_EVERY_S = 0.5  # command run time between two probes
PROBE_REF_S = 0.030  # the probe time that defines the reference host speed


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def probe():
    """Time one fixed slice of interpreter and numpy work, in seconds."""
    import numpy as np

    start = time.perf_counter()
    total, table = 0, {}
    for i in range(200_000):
        total += i * i % 7
        table[i & 1023] = total
    values = np.arange(20_000)
    for _ in range(20):
        values = (values * 3 + 1) % 10_007
    return time.perf_counter() - start


def last_cpu(pid):
    """The CPU that process ``pid`` last ran on (field 39 of /proc/<pid>/stat)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def wait_probing(pid):
    """Wait for child ``pid``, probing the host while it runs.

    Every PROBE_EVERY_S of the child's run it is stopped, one probe is
    timed on the CPU it last ran on, and it is continued. Returns the
    wait status, its rusage, the time it spent stopped and the probe times.
    """
    fd = os.pidfd_open(pid)
    mask = os.sched_getaffinity(0)
    paused, probes = 0.0, []
    try:
        while not select.select([fd], [], [], PROBE_EVERY_S)[0]:
            stopped = time.perf_counter()
            os.kill(pid, signal.SIGSTOP)
            _, status, usage = os.wait4(pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):  # it ended before the signal
                return status, usage, paused, probes
            try:
                cpu = last_cpu(pid)
                os.sched_setaffinity(0, {cpu} if cpu in mask else mask)
                probes.append(probe())
            finally:
                os.sched_setaffinity(0, mask)
                os.kill(pid, signal.SIGCONT)
            paused += time.perf_counter() - stopped
        _, status, usage = os.wait4(pid, 0)
        return status, usage, paused, probes
    finally:
        os.close(fd)


class Command:
    """One child process, timed, probed, and with its peak RSS from wait4."""

    def __init__(self, argv, log_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(log_path, "ab") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
            timer = threading.Timer(max(1.0, DEADLINE_S - (start - _START)), proc.kill)
            timer.start()
            try:
                status, usage, self.paused, self.probes = wait_probing(proc.pid)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.end = time.perf_counter()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.start = start
        self.rss_mb = usage.ru_maxrss / 1024.0


def netfit(*args):
    return [sys.executable, "-m", "netfit.cli", *map(str, args)]


# ---------------------------------------------------------------------------
# workloads


class Corpus:
    """`netfit pipeline` on the bundled corpus, then gof and classify x3."""

    def __init__(self, seed, input_dir):
        import inputs as make

        self.seed = seed
        self.manifest = SRC / "netfit" / "data" / "corpus" / "manifest.csv"
        self.entries = make.read_manifest(self.manifest)

    def commands(self, out):
        data = out / "dataset.csv"
        cmds = [
            netfit("pipeline", self.manifest, "--out", out, "--seed", self.seed, "--jobs", 1),
            netfit("gof", data, "--out", out / "gof"),
        ]
        for task in ("domain", "category", "subcategory"):
            cmds.append(netfit("classify", data, "--task", task, "--out", out / "clf",
                               "--seed", self.seed))
        return cmds

    def operations(self, out):
        """(attempted, failed) graphs fitted, generated and measured."""
        per_graph = len(self.entries)
        fits = per_graph * 6
        rows = 0
        if (out / "dataset.csv").exists():
            rows = len((out / "dataset.csv").read_text(encoding="utf-8").splitlines()) - 1
        made = len(list((out / "fits").glob("*.json"))) + len(list((out / "graphs").glob("*.txt")))
        attempted = 3 * fits + per_graph
        # one operation per correlation file gof writes (domains with >= 3 graphs)
        domains = Counter(domain for _, _, domain in self.entries)
        attempted += sum(1 for c in domains.values() if c >= 3)
        made += len(list((out / "gof").glob("correlation_*.csv")))
        return attempted, attempted - made - rows

    def check(self, report, out):
        import checks
        import tracing

        rows = checks.check_dataset(report, out, self.manifest, tracing.MODELS)
        checks.check_gof(report, out, rows)
        checks.check_classify(report, out / "clf", rows)

    def compared(self, out):
        return ["dataset.csv", "fits", "graphs"]


class Stability:
    """`netfit stability` with 30 replicates on a seeded ~1000-node graph."""

    def __init__(self, seed, input_dir):
        import inputs as make

        self.graph = input_dir / "pseudo_real_n1000.txt"
        make.make_stability_graph(seed, self.graph)

    def commands(self, out):
        return [netfit("stability", self.graph, "--out", out, "--seed", STABILITY_NETFIT_SEED,
                       "--replicates", REPLICATES, "--fit-replicates", STABILITY_FIT_REPLICATES)]

    def operations(self, out):
        import inputs

        fits = 5
        attempted = fits + 2 * fits * REPLICATES
        path = out / "stability.csv"
        if not path.exists():
            return attempted, attempted
        rows = inputs.read_csv_rows(path)
        failed = sum(int(r["failures"]) for r in rows if r["metric"] == "size")
        return attempted, 2 * failed

    def check(self, report, out):
        import checks

        checks.check_stability(report, out / "stability.csv", self.graph,
                               ("WS", "CBA", "DD", "Com", "2K"), REPLICATES)

    def compared(self, out):
        return ["stability.csv"]


class Large:
    """`netfit generate` on one n = 10^4 report per model, then `netfit measure`."""

    def __init__(self, seed, input_dir):
        import inputs as make

        self.reports, self.jdm, self.jdm_source = make.make_large_reports(seed, input_dir)
        self.gen_seeds = {m: make.generate_seed(seed, m) for m in self.reports}

    def outputs(self, out):
        return {m: out / f"{p.stem}.txt" for m, p in self.reports.items()}

    def commands(self, out):
        outputs = self.outputs(out)
        cmds = [netfit("generate", p, "--seed", self.gen_seeds[m], "--out", outputs[m])
                for m, p in self.reports.items()]
        cmds.append(netfit("measure", *outputs.values(), "--out", out / "measure.csv"))
        return cmds

    def operations(self, out):
        import inputs

        made = sum(1 for p in self.outputs(out).values() if p.exists())
        rows = 0
        if (out / "measure.csv").exists():
            rows = len(inputs.read_csv_rows(out / "measure.csv"))
        attempted = 2 * len(self.reports)
        return attempted, attempted - made - rows

    def check(self, report, out):
        import checks

        checks.check_large(report, out / "measure.csv", self.outputs(out), self.reports,
                           self.jdm, self.jdm_source)

    def compared(self, out):
        return ["measure.csv"] + [p.name for p in self.outputs(out).values()]


WORKLOADS = {"corpus_pipeline": Corpus, "stability_n1000": Stability, "large_graphs": Large}


# ---------------------------------------------------------------------------
# running


class Round:
    """One round's commands, run one after another.

    ``wall_s`` is the time from the start of the first command to the end
    of the last, less the time the probes kept them stopped. ``ref_wall_s``
    is ``wall_s`` scaled by PROBE_REF_S over the round's mean probe time.
    """

    def __init__(self, workload, out, log_path):
        out.mkdir(parents=True)
        cmds = [Command(argv, log_path) for argv in workload.commands(out)]
        self.failed = sum(1 for c in cmds if c.returncode != 0)
        if self.failed:
            log(f"{self.failed} command(s) failed; end of their output:\n"
                + log_path.read_text(encoding="utf-8", errors="replace")[-3000:])
        self.commands = len(cmds)
        self.wall_s = cmds[-1].end - cmds[0].start - sum(c.paused for c in cmds)
        self.probes = [t for c in cmds for t in c.probes] or [probe()]
        self.probe_s = statistics.fmean(self.probes)
        self.ref_wall_s = self.wall_s * PROBE_REF_S / self.probe_s
        self.rss_mb = max(c.rss_mb for c in cmds)


def same_outputs(workload, first, other):
    """True when ``other`` holds byte-identical copies of the compared outputs."""
    for rel in workload.compared(first):
        a, b = first / rel, other / rel
        if a.is_dir():
            names = sorted(os.listdir(a))
            if not b.is_dir() or sorted(os.listdir(b)) != names:
                return False
            match, _, _ = filecmp.cmpfiles(a, b, names, shallow=False)
            if len(match) != len(names):
                return False
        elif not (b.exists() and filecmp.cmp(a, b, shallow=False)):
            return False
    return True


def cold_start():
    """Time one cold start of the program: a fresh `import netfit.cli`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import netfit.cli"], env=env, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the child is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "netfit" / "cli.py").is_file():
        log(f"no netfit sources under {SRC}; run from the root of a netfit checkout")
        return 2

    work = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    input_dir = work / "inputs"
    input_dir.mkdir(parents=True)
    try:
        return run(args, work, input_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work, input_dir):
    workload = WORKLOADS[args.workload](args.seed, input_dir)
    before = time.perf_counter()
    cold_start()
    cold_start_s = time.perf_counter() - before
    setup_s = time.perf_counter() - _START
    log(f"{args.workload} seed {args.seed}: set-up {setup_s:.3f} s")

    log_path = work / "commands.log"
    rounds = []
    attempted = failed = 0
    first = work / "round0"
    identical = True
    measured = 0.0
    while True:
        out = work / f"round{len(rounds)}"
        rnd = Round(workload, out, log_path)
        ops, ops_failed = workload.operations(out)
        attempted += rnd.commands + ops
        failed += rnd.failed + ops_failed
        rounds.append(rnd)
        measured += rnd.wall_s
        log(f"round {len(rounds)}: {rnd.wall_s:.3f} s, {len(rnd.probes)} probes of mean "
            f"{rnd.probe_s * 1e3:.2f} ms (median {statistics.median(rnd.probes) * 1e3:.2f}), "
            f"{rnd.ref_wall_s:.3f} s at the reference speed, peak RSS {rnd.rss_mb:.1f} MB")
        if out != first:
            identical &= same_outputs(workload, first, out)
            shutil.rmtree(out)
        elapsed = time.perf_counter() - _START
        if args.trace or measured >= args.seconds or failed:
            break
        if elapsed + rnd.wall_s > DEADLINE_S - CHECK_RESERVE_S:
            log("stopping early to leave time for the checks")
            break

    metrics = None
    traced_failed = 0
    if args.trace:
        # the traced run is in this process: take the CLI's process start-ups out of wall_s
        in_process = rounds[0].wall_s - cold_start_s * rounds[0].commands
        metrics, traced_failed = traced(args, workload, work, in_process)
        metrics["host.wall_s"] = {"value": rounds[0].wall_s, "unit": "s"}
        metrics["host.probe_ms"] = {"value": rounds[0].probe_s * 1e3, "unit": "ms"}

    import checks  # networkx and scipy load here, after set-up and the timed rounds

    start = time.perf_counter()
    report = checks.Report()
    try:
        workload.check(report, first)
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        report.expect(False, f"outputs missing or unreadable: {exc!r}")
    check_s = time.perf_counter() - start
    report.expect(identical, "a later round's outputs differ from the first round's")
    report.expect(traced_failed == 0, f"{traced_failed} traced command(s) failed")
    # a known fault fails the same operations in every round
    faults = sum(report.faults.values()) * len(rounds)
    for what in sorted(report.faults):
        log(f"known fault, counted as a failed operation in each round: {what}")
    for line in report.failures[:20]:
        log(f"CHECK FAILED: {line}")
    skipped = ", ".join(f"{n} {what}" for what, n in sorted(report.skipped.items()))
    log(f"checks: {report.passed} passed, {len(report.failures)} failed"
        f"{f', skipped {skipped}' if skipped else ''}; took {check_s:.2f} s (not in any metric)")

    if metrics is None:
        metrics = {
            "ref_wall_s": {"value": statistics.median(r.ref_wall_s for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_mb for r in rounds), "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {"correct": report.ok and failed == 0, "attempted": attempted,
              "failed": failed + faults, "metrics": metrics}
    print(json.dumps(result))
    return 0


def traced(args, workload, work, untraced_s):
    """Per-layer metrics from the workload's commands run in this process, traced.

    ``untraced_s`` is the untraced round's wall time less its process
    start-ups, the baseline of trace.overhead_s.
    """
    sys.path.insert(0, str(SRC))
    import netfit.cli
    import tracing

    tracer = tracing.Tracer()
    out = work / "traced"
    out.mkdir()
    failed = 0
    start = time.perf_counter()
    # the CLI's progress lines go to stderr: stdout ends with the result
    with tracing.patched(tracing.instrument(tracer)), contextlib.redirect_stdout(sys.stderr):
        for argv in workload.commands(out):
            failed += netfit.cli.main(argv[3:]) != 0
    total = time.perf_counter() - start
    tracer.write(RUNS / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    totals = tracer.layer_totals()
    metrics = {}
    for name in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = {"value": total - untraced_s, "unit": "s"}
        elif name.endswith("_s"):
            metrics[name] = {"value": totals.get(name[:-2], 0.0), "unit": "s"}
        else:
            metrics[name] = {"value": tracer.counts.get(name, 0), "unit": "count"}
    log(f"traced run: {total:.3f} s against {untraced_s:.3f} s untraced")
    return metrics, failed


if __name__ == "__main__":
    sys.exit(main())
