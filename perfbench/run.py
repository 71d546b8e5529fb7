"""Benchmark for the gcl command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives the CLI in a closed loop: each command runs in its own
child process, started only after the previous one exited, so
interpreter start-up is part of every command.  A run repeats the
workload's pass (a fixed command sequence made from the seed) until S
seconds have passed and enough commands ran for the tail percentile.
Commands are timed in the child's CPU time (user + system, from wait4),
which a shared host's stolen cycles do not inflate.  A fixed stdlib-only
child, calib.py, runs before the first command and then after every
CALIB_EVERY_S of command CPU time and at the end of each pass.  Each
command's CPU time is scaled by the median of the four calibrations
around it to reference seconds: the CPU seconds it would take on a host
where calib.py takes CALIB_REF_S.  That cancels the drift of a shared host's speed between
and within runs.  Raw CPU and wall-clock figures go to the run record.
Every output is checked against values recomputed from the context.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  The environment goes to stderr;
records and traces go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import calib
import spans
from inputs import stream
from workloads import WORKLOADS, Command, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 60.0
MEASURE_CAP_S = 120.0  # stop starting passes here, whatever the sample count
# calib.py's CPU time, start-up included, on the 2-vCPU host (Python 3.11)
# the benchmark was defined on.  It only sets the scale of reference seconds.
CALIB_REF_S = 0.15
CALIB_EVERY_S = 1.0  # command CPU seconds between two calibrations
CALIB_WINDOW = 2  # calibrations on each side of a command that scale it

# name -> (unit, which way is better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_ref_s": ("s", "lower"),
    "ops_per_ref_s": ("1/s", "higher"),
    "cmd_ref_p50_s": ("s", "lower"),
    "cmd_ref_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# the 19 entries of gcl.oracle.LAWS
LAWS = (
    "triple-application",
    "operator-monotonicity",
    "complement-duality",
    "rough-set-conjugates",
    "column-extent-in-both",
    "concept-reconstruction",
    "extent-fixpoint",
    "extent-family-closure",
    "canonical-census",
    "intrinsic-order-soundness",
    "conjugation-involution",
    "bound-recursion",
    "block-cover-decomposition",
    "single-block-bounds",
    "constants-decomposition",
    "order-criterion-agreement",
    "classical-route-equality",
    "literal-own-class",
    "negation-swap",
)

_BUSY = (
    "context.parse_context",
    "context.blocks",
    "lattice.build_gcl",
    "lattice.node_of",
    "exprs.canonical_to_expr",
    "exprs.expr_to_str",
    "exprs.to_canonical",
    "exprs.parse_expr",
    "irreducibles.simplified_intent",
    "irreducibles.classes",
    "classical.build_fcl",
    "classical.build_rsl",
    "classical.recover_classical",
    "oracle.verify_laws",
    "oracle.enumerate_mstar",
    *(f"oracle.law.{law}" for law in LAWS),
    "cli.main",
    "cli.export_lattice",
)
_CALLS = (
    "exprs.canonical_to_expr",
    "exprs.expr_to_str",
    "exprs.to_canonical",
    "irreducibles.simplified_intent",
)
_COUNTS = {
    "context.n_f": ("count", "lower"),
    "lattice.nodes": ("count", "lower"),
    "lattice.edges": ("count", "lower"),
    "irreducibles.members": ("count", "higher"),
    "irreducibles.yield": ("ratio", "higher"),
    "classical.concepts": ("count", "higher"),
    "classical.edges": ("count", "higher"),
    "classical.yield": ("ratio", "higher"),
    "oracle.laws_run": ("count", "higher"),
    "oracle.laws_skipped": ("count", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.exit_nonzero": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
PER_LAYER = {
    **{f"{name}.busy_s": ("s", "lower") for name in _BUSY},
    **{f"{name}.calls": ("count", "lower") for name in _CALLS},
    **_COUNTS,
}


@dataclass
class Outcome:
    code: int
    out: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    calib_at: int = -1  # index of the first calibration after it
    ref_s: float = 0.0  # cpu_s in reference seconds, set when the run ends


def spawn(argv_at, env: dict, cwd: Path, stderr) -> Outcome:
    """Run one child to completion; argv_at(t) builds argv from the spawn time.

    ru_maxrss comes from wait4 on this child alone, not the cumulative
    RUSAGE_CHILDREN; on Linux it is at least the runner's own peak, so
    Run.command replaces it with the child's own where it can.  A child
    past COMMAND_TIMEOUT_S is killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv_at(time.monotonic()),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=stderr,
        env=env,
        cwd=cwd,
    )
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    cpu = usage.ru_utime + usage.ru_stime
    return Outcome(proc.returncode, out, end - start, cpu, usage.ru_maxrss / 1024.0)


def to_ref(cpu_s: float, calib_s: float) -> float:
    """CPU seconds scaled to a host where calib.py takes CALIB_REF_S."""
    return cpu_s * CALIB_REF_S / calib_s


def calib_around(calib_cpu: list[float], at: int) -> float:
    """Median of the CALIB_WINDOW calibrations before index `at` and as many from it on."""
    return statistics.median(calib_cpu[max(0, at - CALIB_WINDOW) : at + CALIB_WINDOW])


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Run:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work.resolve()
        self.inputs = work / "inputs"
        self.spans_dir = work / "spans"
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONPYCACHEPREFIX"] = str(work.parent / "pycache")
        self.stderr = open(work / "stderr.log", "wb")
        self.commands: list[Command] = []
        self.first: dict[int, tuple[str, str | None]] = {}  # slot -> (digest, reason)
        self.attempted = 0
        self.failures: list[str] = []
        self.by_slot: dict[int, list[Outcome]] = defaultdict(list)
        self.calib_out = f"calib {calib.checksum():08x}\n".encode()
        self.calib_cpu: list[float] = []

    def close(self) -> None:
        self.stderr.close()

    def command(self, slot: int, traced: bool) -> Outcome:
        """Run one command; an untraced one reports its own peak memory.

        Without a peak from the child (no /proc), rss_mb stays wait4's
        ru_maxrss, which the runner's own peak can inflate.
        """
        args = list(self.commands[slot].args)
        if traced:
            spans_file = str(self.spans_dir / f"{slot}.json")
            def argv_at(t):
                return [sys.executable, str(HERE / "traced_gcl.py"), spans_file, repr(t), *args]
            return spawn(argv_at, self.env, self.work, self.stderr)
        peak_file = self.work / "peak_kib"
        peak_file.unlink(missing_ok=True)
        def argv_at(t):
            return [sys.executable, str(HERE / "gcl_child.py"), str(peak_file), *args]
        result = spawn(argv_at, self.env, self.work, self.stderr)
        if peak_file.exists():
            result.rss_mb = int(peak_file.read_text()) / 1024.0
        return result

    def calibrate(self) -> float:
        """CPU seconds of one calibration child; a wrong output stops the run."""
        result = spawn(
            lambda t: [sys.executable, str(HERE / "calib.py")], self.env, self.work, self.stderr
        )
        if result.code != 0 or result.out != self.calib_out:
            raise RuntimeError(f"calib.py exited {result.code} with {result.out[:80]!r}")
        self.calib_cpu.append(result.cpu_s)
        return result.cpu_s

    def judge(self, slot: int, result: Outcome) -> None:
        """Full check on a slot's first output; later ones must match it."""
        self.attempted += 1
        cmd = self.commands[slot]
        digest = hashlib.sha256(result.out).hexdigest()
        if result.code != 0:
            reason = f"exit code {result.code}, expected 0"
        elif slot in self.first:
            first_digest, reason = self.first[slot]
            if reason is None and digest != first_digest:
                reason = "output differs from the first run of this command"
        else:
            try:
                reason = cmd.check(result.out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
            self.first[slot] = (digest, reason)
        if reason is not None:
            self.failures.append(f"{cmd.label}: {reason}")

    def setup(self) -> tuple[list[float], list[float], list[int]]:
        """Write the inputs and run one warm-up command, SETUP_REPEATS times.

        A calibration runs before the first repeat and after each one.
        Returns the CPU seconds of each repeat (this process plus the
        warm-up child), its wall seconds and the index of the calibration
        after it.
        """
        cpu, wall, calib_at = [], [], []
        files = None
        self.calibrate()
        for _ in range(SETUP_REPEATS):
            start, own = time.perf_counter(), time.process_time()
            shutil.rmtree(self.inputs, ignore_errors=True)
            self.inputs.mkdir(parents=True)
            self.commands = self.workload.make(stream(self.workload.name, self.seed), self.inputs)
            warm = self.command(0, traced=False)
            cpu.append(time.process_time() - own + warm.cpu_s)
            wall.append(time.perf_counter() - start)
            calib_at.append(len(self.calib_cpu))
            self.calibrate()
            self.judge(0, warm)
            written = {p.name: p.read_bytes() for p in sorted(self.inputs.iterdir())}
            if files is not None and written != files:
                raise RuntimeError("the same seed wrote different inputs")
            files = written
        return cpu, wall, calib_at

    def run_pass(self, traced: bool):
        """One pass back to back; checks and span reading wait until it ends.

        An untraced pass is calibrated: a calibration child runs after its
        last command and after every CALIB_EVERY_S of command CPU time, and
        each result notes the index of the next calibration.  The pass's
        wall time is the sum of its commands' own.
        """
        results = []
        since = 0.0
        for slot in range(len(self.commands)):
            result = self.command(slot, traced)
            results.append(result)
            if traced:
                continue
            result.calib_at = len(self.calib_cpu)
            since += result.cpu_s
            if slot == len(self.commands) - 1 or since >= CALIB_EVERY_S:
                self.calibrate()
                since = 0.0
        wall = sum(r.wall_s for r in results)
        for slot, result in enumerate(results):
            self.judge(slot, result)
            if not traced:
                self.by_slot[slot].append(result)
        traces = []
        if traced:
            for slot, result in enumerate(results):
                path = self.spans_dir / f"{slot}.json"
                if path.exists():
                    traces.append(json.loads(path.read_text()))
                    path.unlink()
                else:  # killed before it could write; already counted as failed
                    traces.append({"startup_s": result.wall_s, "spans": [], "counts": {}})
        return wall, results, traces


def layer_values(results: list[Outcome], traces: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced pass: self time and counts summed over it."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for trace in traces:
        b, c = spans.aggregate(trace["spans"])
        for name, value in b.items():
            busy[name] += value
        for name, value in c.items():
            calls[name] += value
        for name, value in trace["counts"].items():
            if name == "context.n_f":
                counts[name] = max(counts[name], value)
            else:
                counts[name] += value
    values = {f"{name}.busy_s": busy[name] for name in _BUSY}
    values.update({f"{name}.calls": calls[name] for name in _CALLS})
    for name in ("context.n_f", "lattice.nodes", "lattice.edges", "irreducibles.members",
                 "classical.concepts", "classical.edges", "oracle.laws_run",
                 "oracle.laws_skipped"):
        values[name] = counts[name]
    subsets = counts["irreducibles.subsets"]
    values["irreducibles.yield"] = counts["irreducibles.members"] / subsets if subsets else 0.0
    subsets = counts["classical.subsets"]
    values["classical.yield"] = counts["classical.concepts"] / subsets if subsets else 0.0
    values["cli.output_bytes"] = sum(len(r.out) for r in results)
    values["cli.exit_nonzero"] = sum(r.code != 0 for r in results)
    values["cli.startup_s"] = statistics.median(t["startup_s"] for t in traces)
    return values


def measure(run: Run, seconds: float) -> tuple[dict, dict, dict]:
    """Untraced passes until the time and the tail's sample count are both met.

    Returns the metrics, their sample counts and the raw CPU and
    wall-clock figures.  A pass is timed as the sum over its commands of
    each one's median.
    """
    setup_cpu, setup_wall, setup_at = run.setup()
    start = time.perf_counter()
    passes = 0
    while True:
        run.run_pass(traced=False)
        passes += 1
        elapsed = time.perf_counter() - start
        done = passes * len(run.commands) >= run.workload.min_samples
        if elapsed >= MEASURE_CAP_S or (elapsed >= seconds and done):
            break
    slots = run.by_slot.values()
    for results in slots:
        for r in results:
            r.ref_s = to_ref(r.cpu_s, calib_around(run.calib_cpu, r.calib_at))
    setup_ref = [to_ref(c, calib_around(run.calib_cpu, at)) for c, at in zip(setup_cpu, setup_at)]
    tail = run.workload.tail_pct

    def figures(field: str) -> dict[str, float]:
        per_cmd = [getattr(r, field) for results in slots for r in results]
        return {
            "pass": sum(statistics.median(getattr(r, field) for r in rs) for rs in slots),
            "ops_per": len(per_cmd) / sum(per_cmd),
            "cmd_p50": statistics.median(per_cmd),
            "cmd_tail": percentile(per_cmd, tail),
        }

    ref = figures("ref_s")
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "pass_ref_s": ref["pass"],
        "ops_per_ref_s": ref["ops_per"],
        "cmd_ref_p50_s": ref["cmd_p50"],
        "cmd_ref_tail_s": ref["cmd_tail"],
        "peak_rss_mb": max(r.rss_mb for results in slots for r in results),
    }
    n_cmds = sum(len(results) for results in slots)
    samples = {name: n_cmds for name in metrics}
    samples["setup_s"] = len(setup_ref)
    samples["pass_ref_s"] = passes
    samples["calibrations"] = len(run.calib_cpu)
    raw = {"calib_cpu_p50_s": statistics.median(run.calib_cpu)}
    raw.update({f"{k}_cpu_s": v for k, v in figures("cpu_s").items()})
    raw.update({f"{k}_wall_s": v for k, v in figures("wall_s").items()})
    raw["setup_cpu_s"] = statistics.median(setup_cpu)
    raw["setup_wall_s"] = statistics.median(setup_wall)
    metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in metrics.items()}
    return metrics, samples, raw


def measure_traced(run: Run, seconds: float, trace_file: Path) -> tuple[dict, dict, dict]:
    """Alternate untraced and traced passes.

    Per-layer values are medians over the traced passes.  The overhead is
    the median CPU time of a traced pass minus that of an untraced one.
    """
    run.setup()
    run.spans_dir.mkdir(exist_ok=True)
    cpu = {False: [], True: []}
    wall = {False: [], True: []}
    per_pass = []
    start = time.perf_counter()
    with open(trace_file, "w") as out:
        traced = False
        while True:
            pass_wall, results, traces = run.run_pass(traced)
            wall[traced].append(pass_wall)
            cpu[traced].append(sum(r.cpu_s for r in results))
            if traced:
                per_pass.append(layer_values(results, traces))
                for slot, trace in enumerate(traces):
                    cmd = f"{len(per_pass)}/{run.commands[slot].label}"
                    for k, (name, t0, t1, parent) in enumerate(trace["spans"]):
                        out.write(json.dumps([cmd, k, name, t0, t1, parent]) + "\n")
            traced = not traced
            elapsed = time.perf_counter() - start
            if elapsed >= MEASURE_CAP_S or (elapsed >= seconds and len(cpu[True]) >= 2):
                break
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["trace.overhead_s"] = statistics.median(cpu[True]) - statistics.median(cpu[False])
    samples = {"per_layer": len(per_pass), "trace.overhead_s": len(cpu[True]) + len(cpu[False])}
    wall_clock = {
        "traced_wall_s": statistics.median(wall[True]),
        "untraced_wall_s": statistics.median(wall[False]),
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}
    return metrics, samples, wall_clock


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        got = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return "unknown (no git)"
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gcl" / "cli.py").is_file():
        print(f"perfbench: no gcl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    base = ROOT / ".perfbench_work"
    work = base / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, args.seed, work)
    try:
        if args.trace:
            metrics, samples, raw = measure_traced(
                run, args.seconds, work / "trace.jsonl"
            )
        else:
            metrics, samples, raw = measure(run, args.seconds)
    finally:
        run.close()

    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "tail_percentile": workload.tail_pct,
        "samples": samples,
    }
    record = {
        "environment": env,
        "commands": [
            {
                "label": c.label,
                "args": list(c.args),
                "sha256": run.first.get(slot, ("",))[0],
                "median_ref_s": statistics.median(r.ref_s for r in run.by_slot[slot]),
                "median_cpu_s": statistics.median(r.cpu_s for r in run.by_slot[slot]),
                "median_wall_s": statistics.median(r.wall_s for r in run.by_slot[slot]),
                "peak_rss_mb": max(r.rss_mb for r in run.by_slot[slot]),
            }
            for slot, c in enumerate(run.commands)
        ],
        "failures": run.failures,
        "metrics": metrics,
        "raw": raw,
    }
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    print("perfbench environment: " + json.dumps(env), file=sys.stderr)
    for failure in run.failures[:20]:
        print(f"perfbench FAIL {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
