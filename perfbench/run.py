"""qfcert benchmark: run one workload, check every artifact, print metrics.

Run from the root of a qfcert checkout:

    python3 perfbench/run.py --workload spiral --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py.  A single closed loop runs one
cycle of the workload after another; every command is a fresh ``qfcert``
process started after the previous one ended, and its artifacts are
checked by checks.py.  A run makes ``--seconds`` divided by the
workload's nominal cycle time cycles, and at least three, so the same
seed always runs the same commands on the same inputs.

``--trace 0`` prints the end-to-end metrics, each a median over the run:
``cpu_s``, the CPU time (user + system) of a cycle's command processes;
``setup_s``, from a process's launch until ``qfcert.cli`` is imported;
``peak_rss_mb``, the largest peak RSS among a cycle's processes.  Both
times are scaled to a fixed CPU speed, measured by a reference kernel
run just before and after each cycle.  The summary also gives the raw
times, each cycle's wall time and each command's times.

``--trace 1`` runs one cycle twice, plain and then traced (tracing.py),
and prints per-layer self times and counts from the traced one.  The
last line of standard output is one JSON object; a readable summary
precedes it, and the full record (machine, software, inputs, every
invocation) goes to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
LAUNCH = HERE / "launch.py"
WORK_DIR = ".perfbench-work"
# the reference kernel runs this often before and after every cycle; its
# median CPU time there, against REF_NOMINAL_S, gives the cycle's speed
REF_REPEATS = 5
REF_NOMINAL_S = 0.065
# a median over at least three cycles rejects one slowed by other tenants,
# and covers every third of the angle range
MIN_CYCLES = 3
# past this point of a run, a running command is killed and no new one starts
RUN_LIMIT_S = 160.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# measured on every cycle; END_TO_END are the ones the result line reports.
# On a shared virtual machine the speed of the CPU drifts by a quarter over
# minutes, and every raw time moves with it.  The reported times are scaled
# to the speed at which the reference kernel takes REF_NOMINAL_S; the raw
# ones (suffix _raw_s, and wall_s) are in the summary and the record.
CYCLE_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
               "cpu_raw_s": "s", "setup_raw_s": "s", "wall_s": "s",
               "ref_s": "s"}
END_TO_END = (("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metrics: traced function -> fields reported for it
FUNCTION_FIELDS = (
    ("_wordarrays.compose_matrices",
     ("self_s", "calls", "products", "bytes_computed", "errors")),
    ("_wordarrays.reduced_word_levels", ("self_s", "words", "errors")),
    ("_wordarrays.translation_lengths", ("self_s", "errors")),
    ("_wordarrays.attracting_fixed_pairs", ("self_s", "errors")),
    ("_wordarrays.disk_angles_turns", ("self_s", "errors")),
    ("boundary.limit_set_sample", ("self_s", "points", "kept_ratio", "errors")),
    ("boundary.find_spiral_witness", ("self_s", "errors")),
    ("boundary.verify_witness_orders",
     ("calls", "self_s", "accepted_ratio", "errors")),
    ("certificates.diagnostic_delta", ("self_s", "errors")),
    ("boundary.sample_to_csv", ("self_s", "errors")),
    ("boundary.sample_to_svg", ("self_s", "errors")),
    ("representations.orbit_point_distances", ("self_s", "elements", "errors")),
    ("representations.estimate_growth", ("self_s", "errors")),
    ("_wordarrays.canonical_sign", ("self_s", "calls", "errors")),
    ("_wordarrays.quantize_keys", ("self_s", "calls", "errors")),
    ("_wordarrays.member_of_sorted", ("self_s", "calls", "errors")),
    ("surface_group.enumerate_words", ("self_s", "words", "errors")),
    ("representations.evaluate", ("calls", "self_s", "errors")),
    ("representations.compute_spectrum", ("self_s", "classes", "errors")),
    ("moebius.translation_length", ("calls", "self_s", "errors")),
    ("moebius.classify", ("calls", "errors")),
    ("certificates.find_separation_certificate", ("self_s", "errors")),
    ("certificates.certificate_problems", ("self_s", "errors")),
    ("certificates.triangle_harness", ("self_s", "records", "errors")),
    ("representations.stable_length", ("calls", "self_s", "errors")),
    ("representations.find_complex_trace_element", ("self_s", "errors")),
)
LAYER_NAMES = ("cli", "surface_group", "moebius", "representations",
               "wordarrays", "boundary", "certificates")
# name suffix -> (unit, better)
FIELD_KINDS = {
    "self_s": ("s", "lower"), "calls": ("count", "lower"),
    "products": ("count", "lower"), "bytes_computed": ("bytes", "lower"),
    "words": ("count", "lower"), "errors": ("count", "lower"),
    "points": ("count", "higher"), "elements": ("count", "higher"),
    "classes": ("count", "higher"), "records": ("count", "higher"),
    "kept_ratio": ("ratio", "higher"), "accepted_ratio": ("ratio", "higher"),
}
RUN_LEVEL = (
    ("cli.bytes_written", "bytes", "lower"),
    ("unlisted.errors", "count", "lower"),
    ("spans", "count", "lower"),
    ("imports_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0].lstrip("_")


def metric_name(span_name: str, fld: str) -> str:
    return "%s.%s" % (span_name.lstrip("_"), fld)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [("%s.self_s" % layer, "s", "lower") for layer in LAYER_NAMES]
    for span_name, fields in FUNCTION_FIELDS:
        spec.extend((metric_name(span_name, f),) + FIELD_KINDS[f]
                    for f in fields)
    spec.extend(RUN_LEVEL)
    return spec


@dataclass
class Invocation:
    label: str
    code: int | None            # None: not started (a prerequisite failed)
    wall_s: float = 0.0
    setup_s: float | None = None
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    bytes_written: int = 0
    problems: list = field(default_factory=list)
    note: str = ""
    trace: dict | None = None   # per-function summary of a traced process
    root_s: float = 0.0
    kept_words: int = 0
    out: Path | None = None

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


@dataclass
class Cycle:
    inputs: dict
    traced: bool
    invocations: list = field(default_factory=list)
    wall_s: float = 0.0

    ref_s: float = 0.0          # median CPU time of the reference kernel

    @property
    def cpu_s(self) -> float:
        return sum(i.cpu_s for i in self.invocations)

    @property
    def scale(self) -> float:
        """Factor from this cycle's raw times to reference-speed times."""
        return REF_NOMINAL_S / self.ref_s

    @property
    def peak_rss_mb(self) -> float:
        return max((i.rss_mb for i in self.invocations), default=0.0)


class Runner:
    """Launches commands one at a time and checks what they wrote."""

    def __init__(self, root: Path, scratch: Path, env: dict, deadline: float):
        self.root, self.scratch, self.env = root, scratch, env
        self.deadline = deadline
        self.kernel = ReferenceKernel()
        self.cycle: Cycle | None = None
        self.cycle_dir = scratch
        self.first_launch: float | None = None

    def run_cycle(self, workload, inputs: dict, traced: bool,
                  number: int) -> Cycle:
        self.cycle = Cycle(inputs=inputs, traced=traced)
        self.cycle_dir = self.scratch / ("cycle%02d" % number)
        self.cycle_dir.mkdir(parents=True)
        self.first_launch = None
        refs = self.kernel.times()
        workload.cycle(self, inputs)
        end = time.monotonic()
        self.cycle.wall_s = end - (self.first_launch or end)
        self.cycle.ref_s = statistics.median(refs + self.kernel.times())
        shutil.rmtree(self.cycle_dir)
        return self.cycle

    def skipped(self, label: str, reason: str) -> Invocation:
        inv = Invocation(label=label, code=None, note=reason)
        self.cycle.invocations.append(inv)
        return inv

    def invoke(self, label: str, args: list[str], check=None, theta=None,
               artifacts: tuple = ()) -> Invocation:
        if time.monotonic() >= self.deadline:
            return self.skipped(label, "run time limit reached")
        cmd_dir = self.cycle_dir / ("%02d-%s" % (len(self.cycle.invocations),
                                                 label))
        out = cmd_dir / "out"
        out.mkdir(parents=True)
        report = cmd_dir / "report.json"
        argv = [sys.executable, str(LAUNCH), str(report),
                "1" if self.cycle.traced else "0", "--",
                "--outdir", str(out)] + list(args)
        with open(cmd_dir / "stdout.txt", "wb") as so, \
                open(cmd_dir / "stderr.txt", "wb") as se:
            launch = time.monotonic()
            if self.first_launch is None:
                self.first_launch = launch
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=so,
                                    stderr=se)
            # Popen.kill polls first, so it cannot signal a reaped pid
            timer = threading.Timer(max(self.deadline - launch, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            end = time.monotonic()
        code = os.waitstatus_to_exitcode(status)
        proc.returncode = code
        inv = Invocation(label=label, code=code, wall_s=end - launch,
                         rss_mb=usage.ru_maxrss / 1024.0,
                         cpu_s=usage.ru_utime + usage.ru_stime, out=out)
        if code != 0:
            inv.note = _tail(cmd_dir / "stderr.txt")
        if report.is_file():
            payload = json.loads(report.read_text())
            inv.setup_s = payload["ready"] - launch
            if "spans" in payload:
                self._analyse(inv, payload["spans"], str(report))
        if check is not None and (code == 0 or any(
                (out / a).is_file() for a in artifacts)):
            import checks

            inv.problems = checks.run_check(check, out, theta)
        inv.bytes_written = sum(p.stat().st_size for p in out.rglob("*")
                                if p.is_file())
        self.cycle.invocations.append(inv)
        return inv

    @staticmethod
    def _analyse(inv: Invocation, meta: dict, prefix: str) -> None:
        columns = tracing.read_columns(meta, prefix)
        inv.trace = tracing.summarize(columns)
        inv.root_s = tracing.root_duration(columns)
        inv.kept_words = tracing.descendant_counts(
            columns, "boundary.limit_set_sample",
            "_wordarrays.reduced_word_levels", "words")


class ReferenceKernel:
    """Fixed work that does not touch qfcert, timed to gauge CPU speed.

    Like the commands, it runs an interpreter loop, a NumPy sort, and a
    streaming sum and a random gather over an array far larger than the
    per-core caches, so other tenants' load slows it as it slows them.
    """

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self.unsorted = rng.random(400_000)
        self.big = rng.random(8_000_000)
        self.index = rng.integers(0, self.big.size, 1_000_000)

    def run(self) -> None:
        total = 0
        for i in range(400_000):
            total += i * i
        self.unsorted.copy().sort()
        self.big.sum()
        self.big[self.index].sum()

    def times(self, repeats: int = REF_REPEATS) -> list[float]:
        """CPU times of back-to-back runs."""
        out = []
        for _ in range(repeats):
            start = time.process_time()
            self.run()
            out.append(time.process_time() - start)
        return out


def _tail(path: Path, limit: int = 300) -> str:
    text = path.read_text(errors="replace").strip()
    return text[-limit:].replace("\n", " | ")


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(cycles: list[Cycle]) -> dict:
    setups = [(i.setup_s, c.scale) for c in cycles for i in c.invocations
              if i.setup_s is not None]
    return {"cpu_s": _median([c.cpu_s * c.scale for c in cycles]),
            "setup_s": _median([s * scale for s, scale in setups]),
            "peak_rss_mb": _median([c.peak_rss_mb for c in cycles]),
            "cpu_raw_s": _median([c.cpu_s for c in cycles]),
            "setup_raw_s": _median([s for s, _ in setups]),
            "wall_s": _median([c.wall_s for c in cycles]),
            "ref_s": _median([c.ref_s for c in cycles])}


def per_layer(traced: Cycle, plain: Cycle) -> tuple[dict, list, dict]:
    """Per-layer metric values, per-command accounting rows, and the
    per-function table summed over the traced cycle's commands."""
    funcs: dict[str, dict] = {}
    accounting = []
    kept_words = 0
    for inv in traced.invocations:
        if inv.trace is None:
            continue
        kept_words += inv.kept_words
        for name, row in inv.trace.items():
            agg = funcs.setdefault(name, {})
            for key, value in row.items():
                agg[key] = agg.get(key, 0) + value
        library = sum(r["self_s"] for n, r in inv.trace.items()
                      if n != "cli.main")
        accounting.append({
            "command": inv.label, "wall_s": inv.wall_s,
            "imports_s": inv.setup_s or 0.0,
            "cli_self_s": inv.trace.get("cli.main", {}).get("self_s", 0.0),
            "library_self_s": library,
            "unattributed_s": inv.wall_s - (inv.setup_s or 0.0) - inv.root_s})

    values: dict[str, float] = {}
    for layer in LAYER_NAMES:
        values["%s.self_s" % layer] = sum(
            r["self_s"] for n, r in funcs.items() if layer_of(n) == layer)
    listed = set()
    for span_name, fields in FUNCTION_FIELDS:
        listed.add(span_name)
        row = funcs.get(span_name, {})
        for fld in fields:
            if fld == "kept_ratio":
                value = row.get("points", 0) / kept_words if kept_words else 0.0
            elif fld == "accepted_ratio":
                calls = row.get("calls", 0)
                value = row.get("accepted", 0) / calls if calls else 0.0
            else:
                value = row.get(fld, 0)
            values[metric_name(span_name, fld)] = value
    values["cli.bytes_written"] = sum(i.bytes_written
                                      for i in traced.invocations)
    values["unlisted.errors"] = sum(r["errors"] for n, r in funcs.items()
                                    if n not in listed)
    values["spans"] = sum(r["spans"] for r in funcs.values())
    values["imports_s"] = sum(a["imports_s"] for a in accounting)
    values["unattributed_s"] = sum(a["unattributed_s"] for a in accounting)
    values["trace_overhead_s"] = traced.wall_s - plain.wall_s
    return values, accounting, funcs


def thread_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            env[var] = str(nproc)
    return env


def machine(nproc: int) -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": nproc, "cpu_model": model,
            "ram_gb": round(ram / 2 ** 30, 2), "platform": platform.platform()}


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return "%.4f (n=%d)" % (values[0], len(values)) if values else "-"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return "median %.4f  q1 %.4f  q3 %.4f  (n=%d)" % (
        statistics.median(values), q1, q3, len(values))


def print_summary(workload, cycles, metrics, spec_units, attempted, failed,
                  accounting) -> dict:
    print("workload %s: %s" % (workload.name, workload.why))
    for n, c in enumerate(cycles):
        print("cycle %d%s inputs %s wall %.3f s" % (
            n, " (traced)" if c.traced else "", json.dumps(c.inputs), c.wall_s))
        for i in c.invocations:
            status = "ok" if not i.failed else "FAILED"
            print("  %-14s exit %-4s %6.3f s  setup %s  rss %7.1f MB  %s%s" % (
                i.label, i.code, i.wall_s,
                "%.3f s" % i.setup_s if i.setup_s is not None else "-",
                i.rss_mb, status,
                (": " + "; ".join(i.problems + [i.note]).strip("; "))
                if i.failed else ""))
    by_command: dict[str, dict] = {}
    for c in cycles:
        if c.traced:
            continue
        for i in c.invocations:
            if i.code is not None:
                row = by_command.setdefault(i.label, {"wall": [], "cpu": []})
                row["wall"].append(i.wall_s)
                row["cpu"].append(i.cpu_s)
    print("command times (untraced), wall then cpu, in s:")
    for label, row in by_command.items():
        print("  %-16s %s\n  %-16s %s" % (label + "_s", _spread(row["wall"]),
                                          "", _spread(row["cpu"])))
    for row in accounting:
        print("  traced %-14s wall %.3f = imports %.3f + cli %.3f + library "
              "%.3f + unattributed %.3f s" % (
                  row["command"], row["wall_s"], row["imports_s"],
                  row["cli_self_s"], row["library_self_s"],
                  row["unattributed_s"]))
    print("fail_ratio %.4f ratio (%d of %d invocations failed)"
          % (failed / attempted if attempted else 0.0, failed, attempted))
    for name, value in metrics.items():
        print("%-50s %.6g %s" % (name, value, spec_units[name]))
    return {label + "_s": row for label, row in by_command.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qfcert" / "cli.py").is_file():
        print("perfbench: %s is not a qfcert checkout (no src/qfcert/cli.py)"
              % root, file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import STRATA, WORKLOADS

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    import numpy

    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    env = thread_env(nproc)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    work = root / WORK_DIR
    scratch = work / "run"
    shutil.rmtree(scratch, ignore_errors=True)
    runner = Runner(root, scratch, env, started + RUN_LIMIT_S)
    rng = random.Random(args.seed)

    cycles: list[Cycle] = []
    if args.trace:
        inputs = workload.draw(rng, rng.randrange(STRATA))
        plain = runner.run_cycle(workload, inputs, False, 0)
        traced = runner.run_cycle(workload, inputs, True, 1)
        cycles = [plain, traced]
        metrics, accounting, functions = per_layer(traced, plain)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        reported = list(units)
    else:
        count = max(MIN_CYCLES, int(args.seconds // workload.cycle_s))
        for number in range(count):
            cycles.append(runner.run_cycle(
                workload, workload.draw(rng, number), False, number))
        metrics, accounting, functions = end_to_end(cycles), [], {}
        units = CYCLE_UNITS
        reported = [name for name, _ in END_TO_END]
    shutil.rmtree(scratch, ignore_errors=True)

    invocations = [i for c in cycles for i in c.invocations]
    attempted = len(invocations)
    failed = sum(1 for i in invocations if i.failed)
    correct = not any(i.problems for i in invocations)
    command_times = print_summary(workload, cycles, metrics, units, attempted,
                                  failed, accounting)
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "inputs": [c.inputs for c in cycles],
        "machine": machine(nproc),
        "software": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__,
                     "thread_caps": {v: env[v] for v in THREAD_VARS}},
        "invocations": [{"cycle": n, "label": i.label, "code": i.code,
                         "wall_s": i.wall_s, "setup_s": i.setup_s,
                         "rss_mb": i.rss_mb, "cpu_s": i.cpu_s,
                         "bytes_written": i.bytes_written,
                         "problems": i.problems, "note": i.note}
                        for n, c in enumerate(cycles) for i in c.invocations],
        "command_times": command_times,
        "accounting": accounting,
        "functions": functions,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
    }
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / ("%s-seed%d-trace%d.json" % (workload.name, args.seed,
                                             args.trace))).write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
