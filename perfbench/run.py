"""talentflow benchmark: seeded corpora run through the real CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, both modes

Each job runs the CLI in child processes (one `run`, or the five stage
subcommands for staged-dirty, one after the other). Two closed-loop
clients run jobs side by side, one per vCPU of the reference machine,
for --seconds. Times are reported as the mean over the run (total time
over the number of samples, the inverse of throughput); sizes as the
median. The reference machine's vCPUs each switch, independently of one
another, between a fast and a slow phase that lasts from seconds to
minutes: two clients sample both vCPUs at once, and a mean follows the
share of time spent in each phase smoothly where a median jumps between
the two.

--trace 0 reports the end-to-end metrics of untraced jobs: wall_s,
peak_rss_mb (largest per-process ru_maxrss from os.wait4), setup_s (a
fresh interpreter importing talentflow.cli and loading the bundled
dictionaries, sampled after every second job and at least five times)
and out_mb (bytes left in --out).

--trace 1 runs untraced jobs on one client and jobs whose processes run
under perfbench/tracer.py on the other, and reports per-layer metrics
from the traced ones; trace.overhead_s is the traced minus the untraced
mean wall time.

Every job is checked: exit codes, required artifacts, artifact bytes
identical across the workload's jobs (for staged-dirty: identical to an
untimed one-shot `run` of the same input), plus the workload's oracle.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = BENCH_DIR / "tracer.py"

RUN_BUDGET_S = 170
# one job per vCPU of the reference machine; see _measure and README.md
CLIENTS = 2
SETUP_SAMPLES = 5
SETUP_CODE = ("import talentflow.cli\n"
              "from talentflow.titles import TitleDictionaries\n"
              "TitleDictionaries.bundled()\n")
MIB = 1024 * 1024

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "out_mb": "MB"}

# per-layer metric -> unit; `.s` values are inclusive seconds summed over
# the job's processes, `.calls` count calls per job.
PER_LAYER = {
    "ingest.load_profiles.s": "s",
    "ingest.load_profiles.calls": "count",
    "ingest.rejected_lines": "count",
    "ingest.warning_lines": "count",
    "titles.build_normalization.s": "s",
    "titles.map_from_csv.s": "s",
    "titles.normalize.calls": "count",
    "titles.normalize.distinct": "count",
    "titles.normalize.calls_per_distinct": "ratio",
    "hops.build_hop_corpus.s": "s",
    "hops.write_hops_csv.s": "s",
    "hops.read_hops_csv.s": "s",
    "hops.read_hops_csv.calls": "count",
    "hops.count": "count",
    "metrics.job_index.s": "s",
    "metrics.level_gains.s": "s",
    "metrics.job_level.calls": "count",
    "metrics.cohorts.s": "s",
    "metrics.distributions.s": "s",
    "metrics.quartiles.s": "s",
    "metrics.writers.s": "s",
    "graph.build.s": "s",
    "graph.pagerank.s": "s",
    "graph.pagerank.iterations": "count",
    "graph.components.s": "s",
    "graph.power_law.s": "s",
    "graph.writers.s": "s",
    "graph.job.nodes": "count",
    "graph.job.edges": "count",
    "graph.org.nodes": "count",
    "graph.org.edges": "count",
    **{f"pipeline.stage.{s}.self_s": "s" for s in wl.STAGES},
    "pipeline.report.s": "s",
    "pipeline.report_json_mb": "MB",
    "cli.import.s": "s",
    "cli.dictionaries.s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float
    stderr_lines: int


def spawn(argv: list[str], env: dict, stderr_path: Path, deadline: float) -> Proc:
    """Run one child to completion; stderr goes to a file, never a pipe.

    The child is reaped with os.wait4 so that ru_maxrss is its own peak,
    not the maximum over every child reaped so far.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr_path, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024, lines)


@dataclass
class Job:
    traced: bool
    wall_s: float
    peak_rss_mb: float
    out_mb: float
    stderr_lines: int
    failure: str | None = None
    layers: dict[str, float] = field(default_factory=dict)


def layer_metrics(payloads: list[dict], report_mb: float) -> dict[str, float]:
    """Per-layer metrics of one traced job from its processes' spans."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    values: dict[str, int] = {}
    titles: set[str] = set()
    import_s = 0.0
    for p in payloads:
        spans = p["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(spans, covered):
            total[name] = total.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + end - start - child
        for name, n in p["counts"].items():
            counts[name] = counts.get(name, 0) + n
        values.update(p["values"])
        titles.update(p["titles"])
        import_s += p["import_s"]

    m: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, suffix = name.rpartition(".")
        if suffix == "s":
            m[name] = total.get(base, 0.0)
        elif suffix == "self_s":
            m[name] = self_s.get(base, 0.0)
        elif suffix == "calls" and base in calls:
            m[name] = calls[base]
        else:
            m[name] = counts.get(name, values.get(name, 0))
    m["titles.normalize.distinct"] = len(titles)
    m["titles.normalize.calls_per_distinct"] = (
        m["titles.normalize.calls"] / len(titles) if titles else 0.0)
    m["pipeline.report.s"] = total.get("pipeline.stage.report", 0.0)
    m["pipeline.report_json_mb"] = report_mb
    m["cli.import.s"] = import_s
    return m


class Bench:
    def __init__(self, workload: wl.Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.python = sys.executable
        # one hash seed per run, so that the jobs of a run differ only in
        # when they ran; outputs do not depend on it
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        PYTHONHASHSEED=str(seed % 2**32))
        self.expected_digest: str | None = None
        self.oracle_verdicts: dict[str, str | None] = {}
        self.spans: list[dict] = []
        # the clients share the checks' state and the spans
        self.lock = threading.Lock()
        self.job_indexes = itertools.count()

    def cli(self, *args: str) -> list[str]:
        return [self.python, "-m", "talentflow.cli", *args]

    def run(self, traced_mode: bool) -> dict:
        WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        try:
            self.corpus = wl.prepare(self.workload, self.seed, self.python,
                                     self.env, SRC, WORK / "corpus")
            # first spawn after a fresh checkout also byte-compiles src/
            spawn([self.python, "-c", SETUP_CODE], self.env,
                  self.tmp / "warmup.err", self.deadline)
            if self.workload.staged:
                self.expected_digest = self._one_shot_reference()
            jobs, setup = self._measure(traced_mode)
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)
        if traced_mode:
            with open(WORK / f"spans-{self.workload.name}-{self.seed}.json",
                      "w", encoding="utf-8") as fh:
                json.dump(self.spans, fh)
        return self._summarize(jobs, setup, traced_mode)

    def _one_shot_reference(self) -> str | None:
        out = self.tmp / "reference"
        proc = spawn(self.cli("run", "--input", str(self.corpus.profiles),
                              "--out", str(out), "--reference-date",
                              wl.REFERENCE_DATE, *self.workload.run_flags),
                     self.env, self.tmp / "reference.err", self.deadline)
        if proc.rc != 0 or wl.missing_artifacts(out, one_shot=True):
            return None
        return wl.combined_digest(wl.artifact_digests(out))

    def _setup_sample(self, client: int) -> float:
        return spawn([self.python, "-c", SETUP_CODE], self.env,
                     self.tmp / f"setup{client}.err", self.deadline).wall_s

    def _measure(self, traced_mode: bool) -> tuple[list[Job], list[float]]:
        """CLIENTS closed-loop clients run jobs back to back (untraced
        ones take a setup sample after every second job) until their next
        job would end after --seconds. In traced mode client 1 runs traced
        jobs and client 0 untraced ones, side by side."""
        jobs: list[Job] = []
        setup: list[float] = []
        start = time.perf_counter()
        stop = threading.Event()

        def client(k: int) -> None:
            traced = traced_mode and k == 1
            done = 0
            while not stop.is_set():
                jobs.append(self._job(next(self.job_indexes), traced))
                done += 1
                if not traced_mode and done % 2 == 0:
                    setup.append(self._setup_sample(k))
                elapsed = time.perf_counter() - start
                step = elapsed / done
                if (elapsed + step > self.seconds
                        or time.monotonic() + 2 * step > self.deadline):
                    return

        with ThreadPoolExecutor(CLIENTS) as pool:
            futures = [pool.submit(client, k) for k in range(CLIENTS)]
            try:
                for future in futures:
                    future.result()
            finally:
                # on an error or a signal, the other client ends its job
                # and starts no other; leaving the pool waits for both
                stop.set()
        while not traced_mode and len(setup) < SETUP_SAMPLES:
            setup.append(self._setup_sample(0))
        return jobs, setup

    def _job(self, index: int, traced: bool) -> Job:
        out = self.tmp / f"job{index}"
        procs: list[Proc] = []
        payload_paths: list[Path] = []
        t0 = time.perf_counter()
        for k, args in enumerate(self.workload.commands(self.corpus.profiles, out)):
            if traced:
                payload_paths.append(self.tmp / f"job{index}-{k}.spans.json")
                argv = [self.python, str(TRACER), str(payload_paths[-1]), "--", *args]
            else:
                argv = self.cli(*args)
            procs.append(spawn(argv, self.env, self.tmp / f"job{index}-{k}.err",
                               self.deadline))
            if procs[-1].rc != 0:
                break
        wall = time.perf_counter() - t0
        out_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) \
            if out.is_dir() else 0
        job = Job(traced=traced, wall_s=wall,
                  peak_rss_mb=max(p.rss_mb for p in procs), out_mb=out_bytes / MIB,
                  stderr_lines=sum(p.stderr_lines for p in procs))
        with self.lock:
            job.failure = self._check(out, procs)
        if traced and job.failure is None:
            payloads = []
            for k, path in enumerate(payload_paths):
                with open(path, encoding="utf-8") as fh:
                    payloads.append(json.load(fh))
                with self.lock:
                    self.spans.extend(
                        {"workload": self.workload.name, "job": index, "process": k,
                         "name": name, "start": s, "end": e, "parent": parent}
                        for name, s, e, parent in payloads[-1]["spans"])
            job.layers = layer_metrics(payloads, (out / "report.json").stat().st_size / MIB)
        shutil.rmtree(out, ignore_errors=True)
        return job

    def _check(self, out: Path, procs: list[Proc]) -> str | None:
        failed = [i for i, p in enumerate(procs) if p.rc != 0]
        if failed:
            name = wl.STAGES[failed[0]] if self.workload.staged else "run"
            return f"{name} exited with {procs[failed[0]].rc}"
        missing = wl.missing_artifacts(out, one_shot=not self.workload.staged)
        if missing:
            return f"missing artifacts {missing}"
        digest = wl.combined_digest(wl.artifact_digests(out))
        if self.expected_digest is None:
            if self.workload.staged:
                return "one-shot reference run failed"
            self.expected_digest = digest
        if digest != self.expected_digest:
            return "artifact bytes differ from " + (
                "the one-shot run" if self.workload.staged else "the first job")
        if digest not in self.oracle_verdicts:
            self.oracle_verdicts[digest] = self._oracle(out)
        return self.oracle_verdicts[digest]

    def _oracle(self, out: Path) -> str | None:
        if self.workload.check_sidecar_hops and not wl.hops_match_sidecar(
                out / "hops.csv", self.corpus.sidecar):
            return "hops.csv differs from the synth hop oracle"
        if self.corpus.injected is not None and not wl.rejections_cover(
                out / "rejections.csv", self.corpus.injected):
            return "rejections.csv misses injected rejectable lines"
        return None

    def _summarize(self, jobs: list[Job], setup: list[float], traced_mode: bool) -> dict:
        name = self.workload.name
        failed = [j for j in jobs if j.failure is not None]
        mode = "per-layer (traced)" if traced_mode else "end-to-end"
        print(f"== {name} seed {self.seed} {mode}: {len(jobs)} jobs, "
              f"{len(failed)} failed, failed_frac {len(failed) / len(jobs):.3f}, "
              f"artifacts sha256 {self.expected_digest}")
        for j in failed:
            print(f"   failed job: {j.failure}")
        untraced = [j for j in jobs if not j.traced]
        print(f"   stderr lines per job: {statistics.median(j.stderr_lines for j in untraced):g}")
        print("   job wall_s: " + " ".join(f"{j.wall_s:.4f}" for j in jobs))
        samples: dict[str, list[float]] = {}
        if traced_mode:
            traced = [j for j in jobs if j.traced and j.failure is None]
            for metric in PER_LAYER:
                samples[metric] = [j.layers[metric] for j in traced if metric in j.layers]
            samples["trace.overhead_s"] = [
                statistics.fmean(j.wall_s for j in jobs if j.traced)
                - statistics.fmean(j.wall_s for j in untraced)]
            units = PER_LAYER
        else:
            samples = {"wall_s": [j.wall_s for j in jobs],
                       "peak_rss_mb": [j.peak_rss_mb for j in jobs],
                       "setup_s": setup,
                       "out_mb": [j.out_mb for j in jobs]}
            units = END_TO_END
        metrics = {}
        for metric, unit in units.items():
            values = samples.get(metric) or [0.0]
            mean = statistics.fmean(values)
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (median, median, median))
            value = mean if unit == "s" else median
            print(f"   {metric:<38} {value:>12.6g} {unit:<5} mean {mean:.6g} "
                  f"median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} n={len(values)}")
            metrics[metric] = {"value": value, "unit": unit}
        return {"correct": not failed, "attempted": len(jobs),
                "failed": len(failed), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end, 1: per-layer; default 0 for one "
                             "workload, both for --workload all")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so that running children are waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "talentflow" / "cli.py").is_file():
        print(f"perfbench: no talentflow sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        bench = Bench(wl.WORKLOADS[args.workload], args.seed, args.seconds)
        print(json.dumps(bench.run(traced_mode=args.trace == 1)))
        return 0

    modes = (False, True) if args.trace is None else (args.trace == 1,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS.values():
        for traced in modes:
            result = Bench(workload, args.seed, args.seconds).run(traced)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{workload.name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
