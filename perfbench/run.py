#!/usr/bin/env python3
"""Benchmark for reescert: certify-mix, confluence-ladder, oracle-ladder.

Run from the repository root:

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Stdlib only, one process apart from the interpreters it times one at a
time.  Each run builds its inputs from --seed, checks every verdict
against an expectation computed in ``families.py`` (never by the
program), prints a table of every metric with its unit, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}.  It exits
1 when any check failed and 2 when the program cannot be imported.

--trace 0 reports the end-to-end metrics.  --trace 1 first makes a
--trace 0 run of the same workload in a child process, then runs the
workload again with the wrappers of ``tracer.py`` installed, reports the
per-layer metrics and the tracing overhead on the stage against the
untraced run, and writes the spans to .perfbench_out/.  Its span times
are scaled to reference speed by the run's mean speed factor.

Every end-to-end metric is reported on every workload:

- setup_s: median over nine setups of a fresh interpreter's
  ``import reescert`` plus the program's work before the first timed
  call (the ladders: build_family and build_basis per rung).
- peak_rss_mb: ru_maxrss of this process (children excluded).
- verdict_s: wall time to every verdict of the workload's stage: the
  certify batch (certify-mix), confluence_s (confluence-ladder) or
  oracle_s (oracle-ladder).
- certify_per_s, certify_ms_p50, certify_ms_tail: dict -> build_family
  -> build_certificate -> certificate_text, one family at a time, closed
  loop: the stratified batch on certify-mix, tower4, maxpowers3 and
  max(4,3) repeated on the ladders.
- cli_ms_p50, cli_ms_tail: ``python -m reescert.cli certify <file>`` as a
  subprocess, one child at a time: five fixed certify-mix sizes, or
  tower4 on the ladders.

Every time above is scaled to reference speed by ``speed.py``: the host's
speed drifts by a third within seconds, so each timing is corrected by
a probe loop timed around it.  The table prints the probe's median.

A *_tail figure is the highest of p99.9, p99, p95, p90, p75, p50 with at
least ten samples beyond it; the table names it with its sample count.
Each run does a fixed amount of work, set by --seed and --seconds alone,
so two commits always time the same families and the same percentiles.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import families as F  # noqa: E402
from speed import PROBE_REF_S, Speedometer  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("certify-mix", "confluence-ladder", "oracle-ladder")
FULL_CERTIFICATE = {"koszul", "normal_domain", "cohen_macaulay"}
SETUP_REPS = 9
BATCHES_PER_SECOND = 3      # certify-mix: 20 families per batch
# Calls per run: a p75 tail with 15 samples beyond it, 12 per file of 5,
# on certify-mix; 10 beyond, all tower4, on the ladders.
CLI_CALLS = {"certify-mix": 60, "confluence-ladder": 40, "oracle-ladder": 40}
CONFLUENCE_RUNGS = ("tower4", "maxpowers3", "fiber_pair", "max4_3")
ORACLE_RUNGS = (("tower4", 3), ("maxpowers3", 3), ("fiber_pair", 3),
                ("max4_3", 3), ("max5_3", 2), ("max4_4", 2))
MEASURE_RUNGS = ("tower4", "max4_3", "max4_4")
MEASURE_SAMPLES = 1000
MEASURE_DEGREE = 8
# The ladders certify these rung families in rounds.  The median and the
# tail then fall deep inside one family's block of samples (tower4 and
# max4_3), never at the edge between two families of different sizes;
# fiber_pair is too small and max(5,3), max(4,4) too slow to repeat.
CERTIFY_RUNGS = ("tower4", "maxpowers3", "max4_3")
CERTIFY_ROUNDS = 34
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
ALIASES = {"certify-mix": "certify_s", "confluence-ladder": "confluence_s",
           "oracle-ladder": "oracle_s"}


def load_program():
    if not (SRC / "reescert" / "__init__.py").is_file():
        print(f"error: no reescert package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import reescert
    import reescert.cli  # noqa: F401  (makes the submodule an attribute)
    return reescert


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ----------------------------------------------------------------- figures

def percentile(values, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile
    with at least ten samples beyond it, else the median."""
    for p in TAIL_PERCENTILES:
        value, beyond = percentile(values, p)
        if beyond >= 10 or p == TAIL_PERCENTILES[-1]:
            return p, value, beyond


class Tally:
    """Items attempted and the ones that raised or gave a wrong verdict."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def guard(self, what: str, fn, *args):
        """Run fn; an exception counts as one failed item."""
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001  (any raise is a failure)
            self.check(False, f"{what}: {exc!r}")
            return None


# ---------------------------------------------------------------- workload

class Workload:
    """One run: inputs from the seed, then setup, stage, certify, CLI."""

    def __init__(self, name: str, seed: int, seconds: int, pkg):
        self.name = name
        self.pkg = pkg
        self.tracer: Tracer | None = None
        self.families = {}      # rung name -> built family
        self.bases = {}         # rung name -> basis
        if name == "certify-mix":
            batches = max(1, round(seconds * BATCHES_PER_SECOND))
            self.certify_items = [
                (f"batch{b}/{i}", desc, closed)
                for b in range(batches)
                for i, (desc, closed) in enumerate(F.batch(seed, b))]
            # a fixed set, whatever the seed: five sizes from a batch of
            # its own, one of each kind
            cli_inputs = [(f"cli{i}", *item) for i, item in
                          enumerate(F.batch(0, -1)[2::4])]
            self.rungs = ()
        else:
            self.rungs = (CONFLUENCE_RUNGS if name == "confluence-ladder"
                          else tuple(dict.fromkeys(r for r, _ in ORACLE_RUNGS)))
            self.certify_items = [
                (r, F.LADDER[r], True)
                for r in CERTIFY_RUNGS] * CERTIFY_ROUNDS
            cli_inputs = [("tower4", F.TOWER4, True)]
        files = OUT / f"{name}-{seed}"
        files.mkdir(parents=True, exist_ok=True)
        self.cli_files = []
        for label, desc, closed in cli_inputs:
            path = files / f"{label}.json"
            path.write_text(json.dumps(desc), encoding="utf-8")
            self.cli_files.append((label, path, closed))
        if name == "oracle-ladder":
            rng = random.Random(f"oracle-ladder/{seed}")
            self.measure_seeds = {r: rng.randrange(2**32)
                                  for r in MEASURE_RUNGS}
            self.control_rule = rng.randrange(F.FROZEN["tower4"][1])
            self.expected_counts = {
                (r, d): F.fiber_counts(F.LADDER[r], d) for r, d in ORACLE_RUNGS}

    def mark(self, item):
        if self.tracer is not None:
            self.tracer.item = item

    # -------------------------------------------------------------- setup

    def setup_once(self) -> tuple[float, float, float]:
        """A fresh interpreter's ``import reescert``, plus the program's
        own work before the first timed call (ladders: build every rung),
        as (seconds, start, end)."""
        start = perf_counter()
        code = ("import time; t = time.perf_counter(); import reescert;"
                " print(time.perf_counter() - t)")
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=60, check=True)
        fam_mod, pres = self.pkg.family, self.pkg.presentation
        t = perf_counter()
        for r in self.rungs:
            self.mark(r)
            self.families[r] = fam_mod.build_family(F.LADDER[r])
            self.bases[r] = pres.build_basis(self.families[r])
        end = perf_counter()
        return float(out.stdout) + end - t, start, end

    def check_setup(self, tally: Tally):
        """Ref pairs and rule counts against frozen values and the image
        map; the fiber and T-monomial counts of every oracle rung."""
        for r in self.rungs:
            desc = F.LADDER[r]
            pairs, rules = F.FROZEN.get(r, (math.comb(F.ref_count(desc), 2),
                                            F.expected_rules(desc)))
            got = math.comb(len(self.families[r]), 2), len(self.bases[r])
            tally.check(got == (pairs, rules),
                        f"{r}: (pairs, rules) {got}, want {(pairs, rules)}")
        if self.name == "confluence-ladder":
            kept = tuple(g for g in self.bases["tower4"]
                         if tuple(map(tuple, g.lead.refs)) != F.CONTROL_LEAD)
            tally.check(len(kept) == len(self.bases["tower4"]) - 1,
                        "control rule not found in the tower4 basis")
            self.bases["control"] = kept
        if self.name == "oracle-ladder":
            basis, drop = self.bases["tower4"], self.control_rule
            self.bases["control"] = basis[:drop] + basis[drop + 1:]
            for (r, d), counts in self.expected_counts.items():
                buckets = tally.guard(f"{r} fibers", self.pkg.enumerate_fibers,
                                      self.families[r], d)
                if buckets is None:
                    continue
                v = F.ref_count(F.LADDER[r])
                monos = sum(F.tmonomial_count(v, k) for k in range(1, d + 1))
                tally.check(sum(len(m) for m in buckets.values()) == monos,
                            f"{r} degree {d}: T-monomial count")
                tally.check(len(buckets) == sum(f for _, f in counts.values()),
                            f"{r} degree {d}: fiber count")

    # -------------------------------------------------------------- stage

    def verdicts(self) -> list[tuple]:
        """The ladder's checks: (rung, function, arguments after the
        basis, report field, wanted value)."""
        if self.name == "confluence-ladder":
            return [(r, "confluence_check", (), "confluent", r != "control")
                    for r in CONFLUENCE_RUNGS + ("control",)]
        unique, kernel = "verify_unique_normal_forms", "verify_kernel_generation"
        out = []
        for r, d in ORACLE_RUNGS:
            out += [(r, unique, (d,), "passed", True),
                    (r, kernel, (d,), "passed", True)]
        for r in MEASURE_RUNGS:
            out.append((r, "verify_measure_decrease",
                        (MEASURE_SAMPLES, MEASURE_DEGREE, self.measure_seeds[r]),
                        "passed", True))
        return out + [("control", unique, (3,), "passed", False),
                      ("control", kernel, (3,), "passed", False)]

    def verdict_one(self, tally: Tally, spec: tuple, times: list):
        r, fn_name, args, field, want = spec
        if fn_name == "confluence_check":
            fn, lead = self.pkg.presentation.confluence_check, ()
        else:
            fn = getattr(self.pkg.oracle, fn_name)
            lead = (self.families["tower4" if r == "control" else r],)
        what = f"{r} {fn_name}{args}"
        self.mark(r)
        t = perf_counter()
        report = tally.guard(what, fn, *lead, self.bases[r], *args)
        end = perf_counter()
        times.append((end - t, t, end))
        if report is not None:
            got = getattr(report, field)
            tally.check(got == want, f"{what}: {field}={got}, want {want}")

    # ------------------------------------------------- certify and CLI

    def certify_one(self, tally: Tally, item, latencies: list):
        label, desc, closed = item
        fam_mod, cert_mod = self.pkg.family, self.pkg.certify
        self.mark(label)
        t = perf_counter()
        try:
            cert = cert_mod.build_certificate(fam_mod.build_family(desc))
            text = cert_mod.certificate_text(cert)
        except Exception as exc:  # noqa: BLE001
            tally.check(False, f"certify {label}: {exc!r}")
            return
        end = perf_counter()
        latencies.append((end - t, t, end))
        got = set(cert["conclusions"])
        tally.check(bool(text) and got == (FULL_CERTIFICATE if closed
                                           else set()),
                    f"certify {label}: conclusions {sorted(got)},"
                    f" closed should be {closed}")

    def cli_one(self, tally: Tally, k: int, times: list,
                in_process: bool = False):
        label, path, closed = self.cli_files[k % len(self.cli_files)]
        want = 0 if closed else 1
        argv = ["certify", str(path)]
        t = perf_counter()
        if in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = tally.guard(f"cli.main {label}", self.pkg.cli.main, argv)
            stdout = buf.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "reescert.cli", *argv], cwd=ROOT,
                env=child_env(), capture_output=True, text=True, timeout=120)
            code, stdout = proc.returncode, proc.stdout
        end = perf_counter()
        times.append((end - t, t, end))
        tally.check(code == want and bool(stdout.strip()),
                    f"cli certify {label}: exit {code} with"
                    f" {len(stdout)} characters out, want exit {want}")

    # ---------------------------------------------------------------- run

    def run(self, tally: Tally) -> dict:
        """The whole workload; returns its figures at reference speed.

        After the first setup, the ladder verdicts, the remaining setups,
        the certify items and the CLI calls are interleaved evenly, so
        each figure averages over the whole run rather than one stretch
        of it: the machine's speed drifts over seconds.
        """
        with Speedometer() as speed:
            setups = [self.setup_once()]
            stage_s, latencies, cli_ms = [], [], []
            if self.rungs:
                self.check_setup(tally)
            self._interleaved(tally, setups, stage_s, latencies, cli_ms)

        def scaled(timings, unit=1.0):
            return [unit * speed.scaled(*t) for t in timings]

        latencies = scaled(latencies, 1000)
        verdict_s = (sum(scaled(stage_s)) if self.rungs
                     else sum(latencies) / 1000)
        return {"setup_s": statistics.median(scaled(setups)),
                "verdict_s": verdict_s, "certify_ms": latencies,
                "cli_ms": scaled(cli_ms, 1000),
                "probe_s": speed.median_probe_s(), "factor": speed.factor()}

    def _interleaved(self, tally, setups, stage_s, latencies, cli_ms):
        for task in interleave(
                [lambda v=v: self.verdict_one(tally, v, stage_s)
                 for v in (self.verdicts() if self.rungs else ())],
                [lambda: setups.append(self.setup_once())] * (SETUP_REPS - 1),
                [lambda i=i: self.certify_one(tally, i, latencies)
                 for i in self.certify_items],
                [lambda k=k: self.cli_one(tally, k, cli_ms)
                 for k in range(CLI_CALLS[self.name])]):
            task()


def interleave(*sequences) -> list:
    """Merge the sequences, spreading each evenly over the whole."""
    keyed = [((j + 0.5) / len(seq), i, j)
             for i, seq in enumerate(sequences) for j in range(len(seq))]
    return [sequences[i][j] for _, i, j in sorted(keyed)]


def end_to_end(raw: dict) -> tuple[dict, list[str]]:
    """Metric dict for the JSON line, and notes for the table."""
    cert_p, cert_tail, cert_beyond = tail(raw["certify_ms"])
    cli_p, cli_tail, cli_beyond = tail(raw["cli_ms"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n_cert = len(raw["certify_ms"])
    metrics = {
        "setup_s": (raw["setup_s"], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "verdict_s": (raw["verdict_s"], "s"),
        "certify_per_s": (1000 * n_cert / sum(raw["certify_ms"]), "1/s"),
        "certify_ms_p50": (percentile(raw["certify_ms"], 50)[0], "ms"),
        "certify_ms_tail": (cert_tail, "ms"),
        "cli_ms_p50": (percentile(raw["cli_ms"], 50)[0], "ms"),
        "cli_ms_tail": (cli_tail, "ms"),
    }
    notes = [f"certify_ms_tail is p{cert_p:g} of {n_cert} families"
             f" ({cert_beyond} beyond)",
             f"cli_ms_tail is p{cli_p:g} of {len(raw['cli_ms'])} calls"
             f" ({cli_beyond} beyond)",
             f"times at reference speed; the probe took"
             f" {1e6 * raw['probe_s']:.1f} us (median), against"
             f" {1e6 * PROBE_REF_S:.1f} us at reference speed"]
    return metrics, notes


def untraced_run(name: str, seed: int, seconds: int, tally: Tally) -> dict:
    """Metrics of a --trace 0 run in a child; its items join the tally."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
        sys.exit(proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tally.attempted += result["attempted"]
    tally.failures += [f"untraced run: failed item {k + 1}"
                       for k in range(result["failed"])]
    return result["metrics"]


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    pkg = load_program()
    work = Workload(name, seed, seconds, pkg)
    tally = Tally()
    notes = []
    if not trace:
        metrics, notes = end_to_end(work.run(tally))
        alias = ALIASES[name]
        notes.insert(0, f"{alias} = verdict_s = {metrics['verdict_s'][0]:.4f} s")
    else:
        # The untraced reference runs in a fresh process, so that module
        # caches warmed by one pass cannot flatter the other.
        reference = untraced_run(name, seed, seconds, tally)
        reference_s = reference["verdict_s"]["value"]
        in_process = []
        with Speedometer() as speed:
            for k in range(CLI_CALLS[name]):
                work.cli_one(tally, k, in_process, in_process=True)
        work.tracer = tracer = Tracer()
        tracer.install(pkg)
        try:
            raw = work.run(tally)
        finally:
            tracer.uninstall()
        spans = OUT / f"spans-{name}-{seed}.jsonl"
        tracer.write(spans)
        # span times at reference speed too, by the run's mean factor
        metrics = {k: (v * raw["factor"] if u in ("s", "us") else v, u)
                   for k, (v, u) in tracer.metrics().items()}
        main_p50 = 1000 * statistics.median(
            speed.scaled(*t) for t in in_process)
        metrics["cli.main.ms"] = (main_p50, "ms")
        metrics["cli.startup_ms"] = (
            statistics.median(raw["cli_ms"]) - main_p50, "ms")
        metrics["trace.overhead_pct"] = (
            100 * (raw["verdict_s"] / reference_s - 1), "%")
        metrics["machine.probe_us"] = (1e6 * raw["probe_s"], "us")
        notes.append(f"tracing overhead on the stage: traced"
                     f" {raw['verdict_s']:.4f} s against untraced"
                     f" {reference_s:.4f} s")
        notes.append(f"{len(tracer.spans)} spans written to"
                     f" {spans.relative_to(ROOT)}")

    failed = len(tally.failures)
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<{width}}  {value:14.6f}  {unit}")
    print(f"  {'failed_frac':<{width}}  {failed / max(tally.attempted, 1):14.6f}"
          f"  ratio  ({failed} of {tally.attempted} items)")
    for note in notes:
        print(f"  {note}")
    for what in tally.failures[:20]:
        print(f"  FAILED: {what}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own child, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
