#!/usr/bin/env python3
"""ElastiSim benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload backlog|steady|observed --seed N \
        --seconds S --trace 0|1

Run from the root of an elastisim source tree. The first run builds the
elastisim CLI and perfbench_driver from source into .bench_build/ (or
$CARGO_TARGET_DIR); every run generates its inputs from --seed into
.bench_out/<workload>/ and checks the simulator's outputs. The last line of
standard output is one JSON object:

    {"correct": bool, "attempted": jobs, "failed": jobs, "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced runs, --trace 1 the
per-layer metrics from a traced run. See perfbench/README.md.

    python3 perfbench/run.py --record 0-99 [--workload NAME]

re-records perfbench/expected.json, the simulated aggregates each workload
(or only NAME) must reproduce for those seeds.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
EXPECTED_FILE = BENCH_DIR / "expected.json"

SCHEDULER = "easy-malleable"
# Relative tolerance on the simulated aggregates (makespan, mean wait,
# utilization) against expected.json and across the CLI and library paths.
# Rounding shifts in the fluid solve (about 1e-16 per operation) stay far
# below it; scaling the link bandwidth by 1.001 moves the mean wait on steady
# by about 8e-6 and is caught.
REL_TOL = 1e-9
# Per-process wall-clock limit; a run that hits it counts as failed.
PROCESS_TIMEOUT_S = 60.0
# Set-up repetitions per driver process in the timed loop.
SETUP_REPS = 5

# Workload definitions. "gen" goes to `perfbench_driver gen`; "cli" and
# "batch" are the extra flags of the CLI run and the matching driver flags.
# "load" is the side of 1 the offered load must stay on; "scan" bounds the
# jobs scanned per scheduler invocation, so that backlog scans at least 10x
# what steady does.
WORKLOADS = {
    "backlog": {
        "gen": {"nodes": 128, "jobs": 6000, "interarrival": 45,
                "malleable": 0.5, "io-fraction": 0.3},
        "cli": [], "batch": [],
        "load": "above", "scan": (300.0, None),
    },
    "steady": {
        "gen": {"nodes": 512, "jobs": 5000, "interarrival": 48,
                "malleable": 0.4, "evolving": 0.3, "io-fraction": 0.6},
        "cli": [], "batch": [],
        "load": "below", "scan": (None, 30.0),
    },
    "observed": {
        "gen": {"nodes": 128, "jobs": 5000, "interarrival": 150,
                "moldable": 0.2, "malleable": 0.3, "io-fraction": 0.3,
                "checkpoint-fraction": 0.3, "chain-fraction": 0.1,
                "mtbf": 864000, "repair": 3600},
        # Every CLI sink is on; the flight recorder is on by default.
        "cli": ["--trace", "--journal", "{out}/journal.jsonl", "--timeseries",
                "--sample-interval", "600", "--chrome-trace",
                "{out}/chrome_trace.json", "--telemetry"],
        "batch": ["--failure-policy", "requeue-restart",
                  "--restart-overhead", "60"],
        "load": "below", "scan": (None, None),
    },
}

# Artifacts a CLI run can write; stats.output_bytes.<name> per file.
ARTIFACTS = ["jobs.csv", "timeline.csv", "summary.json", "trace.csv",
             "journal.jsonl", "timeseries.csv", "chrome_trace.json",
             "telemetry.json"]
AGGREGATES = ["finished", "makespan_s", "mean_wait_s", "avg_utilization"]


class BenchError(Exception):
    """A defect of the set-up (missing tree, failed build, bad workload)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- processes ---------------------------------------------------------------

def run_process(cmd, stdout_path, timeout=PROCESS_TIMEOUT_S):
    """Runs cmd to completion with its standard output in stdout_path; returns
    (exit code, wall seconds, peak RSS in MiB, standard output). A watchdog
    kills the child on timeout; it is always reaped before this returns."""
    stderr_path = Path(str(stdout_path) + ".err")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop and reap the child first
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    # Reaped here, so Popen must not try to reap it again.
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = stderr_path.read_text(errors="replace")[-2000:]
        log(f"command failed ({code}): {' '.join(map(str, cmd))}\n{tail}")
    text = Path(stdout_path).read_text(errors="replace")
    return code, wall, usage.ru_maxrss / 1024.0, text


# --- build -------------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configures and builds the CLI and the driver; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not an elastisim source tree "
                         "(CMakeLists.txt and src/ are missing)")
    bdir = build_dir()
    cache = bdir / "CMakeCache.txt"
    if cache.is_file() and (f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n"
                            not in cache.read_text(errors="replace")):
        shutil.rmtree(bdir)  # configured for another source tree
    bdir.mkdir(parents=True, exist_ok=True)
    logfile = bdir / "build.log"
    steps = []
    if not cache.is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(bdir), "--target", "elastisim",
                  "perfbench_driver", "-j", str(min(4, os.cpu_count() or 1))])
    with open(logfile, "wb") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = logfile.read_text(errors="replace")[-3000:]
                raise BenchError(f"build failed: {' '.join(step)}\n{tail}")
    cli = bdir / "elastisim" / "src" / "cli" / "elastisim"
    driver = bdir / "perfbench_driver"
    for binary in (cli, driver):
        if not binary.is_file():
            raise BenchError(f"build produced no {binary}")
    return cli, driver


# --- inputs ------------------------------------------------------------------

def generate(driver, name, seed, out):
    """Writes the workload's inputs for seed into out; returns the driver's
    report (job count, offered load) after the workload self-check."""
    spec = WORKLOADS[name]
    cmd = [driver, "gen", "--out-dir", out, "--seed", str(seed)]
    for key, value in spec["gen"].items():
        cmd += [f"--{key}", str(value)]
    code, _, _, text = run_process(cmd, out / "gen.out")
    if code != 0:
        raise BenchError(f"input generation failed for {name}")
    info = json.loads(text)
    load = info["offered_load"]
    if (spec["load"] == "above") != (load > 1.0):
        raise BenchError(f"{name}: offered load {load:.3f} is on the wrong side "
                         f"of 1 (must be {spec['load']} 1)")
    return info


def cli_command(cli, name, out, inputs, extra=()):
    spec = WORKLOADS[name]
    cmd = [cli, "--platform", inputs / "platform.json",
           "--workload", inputs / "workload.json", "--scheduler", SCHEDULER,
           "--out-dir", out]
    cmd += [arg.format(out=out) for arg in spec["cli"]]
    if "mtbf" in spec["gen"]:
        cmd += ["--failure-trace", inputs / "failures.json"]
    cmd += spec["batch"]
    return cmd + list(extra)


def driver_command(driver, name, inputs, extra):
    spec = WORKLOADS[name]
    cmd = [driver, "run", "--platform", inputs / "platform.json",
           "--workload", inputs / "workload.json", "--scheduler", SCHEDULER]
    if "mtbf" in spec["gen"]:
        cmd += ["--failures", inputs / "failures.json"]
    return cmd + spec["batch"] + list(extra)


# --- output checks -----------------------------------------------------------

def read_cli_output(out):
    """Returns (digest, summary) of a CLI run's jobs.csv and summary.json;
    the digest leaves out the host wall time."""
    summary = json.loads((out / "summary.json").read_text())
    stable = {k: v for k, v in summary.items() if k != "wall_seconds"}
    digest = hashlib.sha256()
    digest.update((out / "jobs.csv").read_bytes())
    digest.update(json.dumps(stable, sort_keys=True).encode())
    return digest.hexdigest(), summary


def close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def aggregates_match(expected, actual):
    return (int(expected["finished"]) == int(actual["finished"]) and
            all(close(float(expected[k]), float(actual[k]))
                for k in AGGREGATES[1:]))


def profile_counters(path):
    counters = dict(json.loads(path.read_text())["counters"])
    invocations = next(v for k, v in counters.items()
                       if k.startswith("scheduler.") and k.endswith(".invocations"))
    scanned = next(v for k, v in counters.items()
                   if k.startswith("scheduler.") and k.endswith(".jobs_scanned"))
    return {
        "events": counters["engine.events"],
        "pushes": counters["queue.pushes"],
        "pops": counters["queue.pops"],
        "queue_peak": counters["queue.peak"],
        "solves": counters["fluid.solves"],
        "touched": counters["fluid.activities_touched"],
        "invocations": invocations,
        "scanned": scanned,
    }


def profile_phase(path, name):
    for phase in json.loads(path.read_text())["phases"]:
        if phase["name"] == name:
            return phase["inclusive_s"]
    return 0.0


class Checker:
    """Collects the run's correctness verdicts and job accounting."""

    def __init__(self, name, seed, jobs):
        self.name, self.seed, self.jobs = name, seed, jobs
        self.expected = self._expected()
        self.digest = None
        self.summary = None
        self.counters = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _expected(self):
        if not EXPECTED_FILE.is_file():
            return None
        table = json.loads(EXPECTED_FILE.read_text())
        return table.get(self.name, {}).get(str(self.seed))

    def fail(self, message, jobs=None):
        self.problems.append(message)
        log(f"check failed: {message}")
        if jobs is not None:
            self.failed += jobs

    def cli_run(self, code, out, counters_from=None):
        """Checks one CLI run; returns its summary or None."""
        self.attempted += self.jobs
        if code != 0:
            self.fail(f"CLI exited {code}", self.jobs)
            return None
        try:
            digest, summary = read_cli_output(out)
            counters = profile_counters(counters_from) if counters_from else None
        except (OSError, ValueError, KeyError, StopIteration) as error:
            self.fail(f"unreadable CLI output: {error}", self.jobs)
            return None
        if summary["submitted"] != self.jobs or summary.get("partial"):
            self.fail(f"submitted {summary['submitted']} of {self.jobs} jobs",
                      self.jobs)
            return None
        if self.digest is None:
            self.digest, self.summary = digest, summary
            if self.expected and not aggregates_match(self.expected, summary):
                self.fail(f"aggregates {[summary[k] for k in AGGREGATES]} differ "
                          f"from expected.json {[self.expected[k] for k in AGGREGATES]}",
                          self.jobs)
                return None
        elif digest != self.digest:
            self.fail("jobs.csv/summary.json differ between repetitions", self.jobs)
            return None
        if counters is not None:
            if self.counters is None:
                self.counters = counters
            elif counters != self.counters:
                self.fail(f"nondeterministic work counters: {counters} vs "
                          f"{self.counters}", self.jobs)
                return None
        if summary["stuck"]:
            self.fail(f"{summary['stuck']} stuck jobs", summary["stuck"])
        return summary

    def driver_run(self, code, text):
        """Checks one simulating driver run against the CLI's aggregates;
        returns the parsed report or None."""
        self.attempted += self.jobs
        if code != 0:
            self.fail(f"driver exited {code}", self.jobs)
            return None
        try:
            report = json.loads(text)
            sim = report["sim"]
        except (ValueError, KeyError) as error:
            self.fail(f"unreadable driver output: {error}", self.jobs)
            return None
        if self.summary is not None and not aggregates_match(self.summary, sim):
            self.fail(f"library-path aggregates {[sim[k] for k in AGGREGATES]} "
                      f"differ from the CLI's", self.jobs)
            return None
        if sim["stuck"]:
            self.fail(f"{sim['stuck']} stuck jobs in the library path", sim["stuck"])
        return report

    def check_scan(self):
        lo, hi = WORKLOADS[self.name]["scan"]
        c = self.counters
        if c is None:
            return
        per_call = c["scanned"] / c["invocations"]
        if (lo is not None and per_call < lo) or (hi is not None and per_call > hi):
            self.fail(f"{self.name}: {per_call:.1f} jobs scanned per invocation "
                      f"is outside {lo}..{hi}")

    @property
    def correct(self):
        return not self.problems


# --- modes -------------------------------------------------------------------

def validate_run(cli, name, inputs, out, check):
    """One untimed --validate --profile CLI run: the invariant checker must
    pass, and its outputs and work counters are the references the other
    runs are held to."""
    vdir = out / "validate"
    vdir.mkdir()
    profile = vdir / "profile.json"
    cmd = cli_command(cli, name, vdir, inputs,
                      ["--validate", "--profile", profile])
    code, _, _, text = run_process(cmd, vdir / "stdout.txt")
    if check.cli_run(code, vdir, counters_from=profile) is None:
        return
    if "all invariants hold" not in text:
        check.fail("--validate did not report its invariant pass", check.jobs)
    check.check_scan()


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure_end_to_end(cli, driver, name, inputs, out, seconds, check):
    run_dir = out / "run"
    totals, rates, rss, setups = [], [], [], []
    deadline = time.perf_counter() + seconds
    last, iterations = 0.0, 0
    # At least three CLI runs; then keep going while another one fits.
    while iterations < 3 or time.perf_counter() + last < deadline:
        iterations += 1
        begin = time.perf_counter()
        if run_dir.exists():
            shutil.rmtree(run_dir)
        run_dir.mkdir()
        code, wall, maxrss, _ = run_process(cli_command(cli, name, run_dir, inputs),
                                            out / "cli.out")
        summary = check.cli_run(code, run_dir)
        if summary is not None:
            totals.append(wall)
            rss.append(maxrss)
            rates.append(summary["submitted"] / summary["wall_seconds"])
        code, _, _, text = run_process(
            driver_command(driver, name, inputs, ["--reps", str(SETUP_REPS)]),
            out / "driver.out")
        if code == 0:
            setups += [rep["total_s"] for rep in json.loads(text)["setup"]]
        else:
            check.fail(f"set-up driver exited {code}")
        last = time.perf_counter() - begin
    # A seed expected.json does not hold is checked against the library path
    # instead: its aggregates must equal the CLI's.
    if check.expected is None:
        code, _, _, text = run_process(
            driver_command(driver, name, inputs, ["--reps", "1", "--simulate", "1"]),
            out / "driver.out")
        check.driver_run(code, text)
    if not totals or not setups:
        return {}, {}
    completed = 1.0 - check.failed / check.attempted
    return {
        "total_s": metric(statistics.median(totals), "s"),
        "jobs_per_s": metric(statistics.median(rates), "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mib": metric(statistics.median(rss), "MiB"),
        "completed_share": metric(completed, "share"),
    }, {
        "set-ups": len(setups),
        "total_s per CLI run": [round(t, 4) for t in totals],
    }


def measure_layers(cli, driver, name, inputs, out, seconds, check):
    # The profiled CLI run: work counters (which must repeat those of the
    # validate run exactly), sink and output phases, and artifact sizes.
    pdir = out / "profiled"
    pdir.mkdir()
    profile = out / "profile.json"
    code, _, _, _ = run_process(cli_command(cli, name, pdir, inputs,
                                            ["--profile", profile]),
                                out / "cli.out")
    summary = check.cli_run(code, pdir, counters_from=profile)

    # Traced and untraced library-path runs, alternating, until the time is up.
    spans = out / "spans.csv"
    traced, untraced, reports = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        code, wall, _, text = run_process(driver_command(
            driver, name, inputs,
            ["--reps", "3", "--simulate", "1", "--spans", spans]), out / "traced.out")
        report = check.driver_run(code, text)
        if report is None:
            break
        traced.append(wall)
        reports.append(report)
        code, wall, _, text = run_process(driver_command(
            driver, name, inputs, ["--reps", "3", "--simulate", "1"]), out / "driver.out")
        if check.driver_run(code, text) is None:
            break
        untraced.append(wall)
    if summary is None or check.counters is None or not reports or not untraced:
        return {}, {}

    c = check.counters
    jobs = check.jobs
    # The stepped library path must process exactly the CLI's events. With
    # sinks on, the CLI adds the state sampler's timer events.
    for report in reports if not WORKLOADS[name]["cli"] else []:
        if report["trace"]["steps"] != c["events"]:
            check.fail(f"traced library path processed {report['trace']['steps']} "
                       f"events, the CLI {c['events']}")
    med = lambda key: statistics.median(r["trace"][key] for r in reports)
    setup_med = lambda key: statistics.median(
        rep[key] for r in reports for rep in r["setup"])
    point_s = med("sched_point_s")
    policy_s = med("policy_s")
    m = {
        "sim.events_per_job": metric(c["events"] / jobs, "count/job"),
        "sim.queue.pushes_per_pop": metric(c["pushes"] / c["pops"], "ratio"),
        "sim.queue.peak": metric(c["queue_peak"], "count"),
        "sim.step_us.p50": metric(med("step_us_p50"), "us"),
        "sim.step_us.p99": metric(med("step_us_p99"), "us"),
        "sim.dispatch_s": metric(med("dispatch_s"), "s"),
        "sim.fluid.solves_per_event": metric(c["solves"] / c["events"], "ratio"),
        "sim.fluid.touched_per_solve": metric(c["touched"] / c["solves"], "count/solve"),
        "sim.fluid.solve_s": metric(med("fluid_solve_s"), "s"),
        "core.sched.invocations_per_job": metric(c["invocations"] / jobs, "count/job"),
        "core.sched.scanned_per_invocation": metric(c["scanned"] / c["invocations"],
                                                    "count/call"),
        "core.sched.queue_len.p50": metric(med("queue_len_p50"), "count"),
        "core.sched.queue_len.max": metric(med("queue_len_max"), "count"),
        "core.sched.point_s": metric(point_s, "s"),
        "core.sched.policy_s": metric(policy_s, "s"),
        "core.sched.policy_us.p50": metric(med("policy_us_p50"), "us"),
        "core.sched.policy_us.p99": metric(med("policy_us_p99"), "us"),
        "core.sched.upkeep_s": metric(point_s - policy_s, "s"),
        "core.fault.requeues": metric(summary["requeues"], "count"),
        "core.fault_s": metric(med("fault_s"), "s"),
        "stats.sinks_s": metric(profile_phase(profile, "sinks"), "s"),
        "stats.output_s": metric(profile_phase(profile, "output"), "s"),
    }
    sizes = {a: (pdir / a).stat().st_size if (pdir / a).is_file() else 0
             for a in ARTIFACTS}
    m["stats.output_bytes"] = metric(sum(sizes.values()), "bytes")
    for artifact, size in sizes.items():
        m[f"stats.output_bytes.{artifact}"] = metric(size, "bytes")
    journal = pdir / "journal.jsonl"
    records = sum(1 for _ in journal.open()) if journal.is_file() else 0
    m["stats.journal_records"] = metric(records, "count")
    m["workload.load_s"] = metric(setup_med("workload_load_s"), "s")
    m["platform.load_s"] = metric(setup_med("platform_load_s"), "s")
    m["core.submit_s"] = metric(setup_med("submit_s"), "s")
    m["trace.overhead"] = metric(statistics.median(traced) /
                                 statistics.median(untraced) - 1.0, "ratio")
    return m, reports[-1]["trace"]


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>16.6g} {unit}")


def bench(args):
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose one of "
                         f"{', '.join(WORKLOADS)}")
    cli, driver = build()
    out = OUT_ROOT / args.workload
    if out.exists():
        shutil.rmtree(out)
    inputs = out / "inputs"
    inputs.mkdir(parents=True)
    info = generate(driver, args.workload, args.seed, inputs)
    check = Checker(args.workload, args.seed, info["jobs"])
    print(f"workload {args.workload}: seed {args.seed}, {info['jobs']} jobs, "
          f"offered load {info['offered_load']:.3f}, "
          f"{info['failures']} node failures")

    validate_run(cli, args.workload, inputs, out, check)
    if args.trace:
        metrics, table = measure_layers(cli, driver, args.workload, inputs, out,
                                        args.seconds, check)
        if table:
            print("self time per span, last traced run:")
            print(f"  {'span':<24} {'count':>9} {'total s':>12} {'self s':>12}")
            for name, row in sorted(table["self"].items(),
                                    key=lambda kv: -kv[1]["self_s"]):
                print(f"  {name:<24} {row['count']:>9} {row['total_s']:>12.6f} "
                      f"{row['self_s']:>12.6f}")
            print("self time per layer, last traced run:")
            for name, self_s in table["layers"].items():
                print(f"  {name:<24} {self_s:>12.6f} s")
    else:
        metrics, notes = measure_end_to_end(cli, driver, args.workload, inputs, out,
                                            args.seconds, check)
        for key, value in notes.items():
            print(f"  {key}: {value}")
    if metrics:
        print_table("metrics:", [(k, v["value"], v["unit"]) for k, v in metrics.items()])
    else:
        check.fail("no run produced metrics")
    for problem in check.problems:
        print(f"FAILED CHECK: {problem}")
    result = {"correct": check.correct, "attempted": max(1, check.attempted),
              "failed": check.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)


def record(args):
    """Re-records expected.json for the given seed range."""
    first, _, last = args.record.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    cli, driver = build()
    recorded = {}
    for name in [args.workload] if args.workload else WORKLOADS:
        for seed in seeds:
            out = OUT_ROOT / "record" / name
            if out.exists():
                shutil.rmtree(out)
            out.mkdir(parents=True)
            generate(driver, name, seed, out)
            code, _, _, _ = run_process(cli_command(cli, name, out, out),
                                        out / "stdout.txt")
            if code != 0:
                raise BenchError(f"{name} seed {seed}: CLI exited {code}")
            _, summary = read_cli_output(out)
            recorded.setdefault(name, {})[str(seed)] = {k: summary[k] for k in AGGREGATES}
            log(f"{name} seed {seed}: {[summary[k] for k in AGGREGATES]}")
    table = json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.is_file() else {}
    for name, rows in recorded.items():
        table.setdefault(name, {}).update(rows)
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    EXPECTED_FILE.write_text(json.dumps(table, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="seed range FIRST-LAST for expected.json")
    args = parser.parse_args()
    # A terminating signal still unwinds through the child-reaping paths.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.record:
            record(args)
        elif args.workload:
            bench(args)
        else:
            parser.error("--workload or --record is required")
    except BenchError as error:
        log(f"error: {error}")
        sys.exit(2)


if __name__ == "__main__":
    main()
