"""Benchmark of the zerosum command line, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload dfs-mid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1
    python3 bench/run.py --workload dfs-mid --record     # re-record expected.json

Each workload is a fixed list of ``zerosum`` commands (``WORKLOADS``). A pass
runs every command once, writing its certificate with ``--out``, and a
``verify-cert`` of every certificate, in an order drawn from the seed (each
verify-cert after its command). Commands run one at a time (a closed loop
with one client), each in a fresh ``python -m zerosum.cli`` process with
``PYTHONPATH=src``. Passes repeat while another one fits in ``--seconds``.

``--trace 0`` prints the end-to-end metrics, measured untraced:

* ``wall_s``: a pass, as the sum of each command's median wall time;
* ``verify_s``: the same sum over the verify-cert commands only;
* ``setup_s``: median over fresh interpreters, spread over the first pass,
  that import ``zerosum.cli`` and build ``GroupTables`` for each group the
  workload uses;
* ``peak_rss_mib``: largest ``ru_maxrss`` of any command process.

``--trace 1`` runs the same commands in this process through
``zerosum.cli.main``, once untraced and once with the wrappers of
``tracing.py`` installed, prints the per-layer metrics and the deterministic
counts against the recording, and writes the spans to ``.bench_trace/``.

Every command is checked against ``expected.json``, recorded from the seed
code: an emitting command must exit 0 and write exactly the recorded claims
(values, witnesses and the node counts that ``check`` certificates carry);
every ``verify-cert`` must accept all of them. Anything else, a timeout
included, counts as a failed op.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_trace"
EXPECTED = HERE / "expected.json"

clock = time.perf_counter

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: dict[str, list[str]] = {
    # Search core at small |G| with ~1M nodes: the three kinds of accumulator
    # (longest/max-cross, violation, min-max-order with its cut).
    "dfs-mid": [
        "invariants --group 5,5 --method both",
        "check --group 3,9 --name cross-number",
        "gamma --group 2,2,8 --delta 1 --method both",
    ],
    # |G| from 243 to 10^4: few nodes, costly translates and lazy shift tables.
    "wide-group": [
        "dpair --group 8,8,8 --dprime 2 --d 4 --method both",
        "gamma --group 16,16 --delta 24 --method both",
        "gamma --group 9,27 --delta 30 --method both",
        "construct --group 100,100 --kind dstar",
    ],
    # Many short commands of every kind (|G| <= 27): import, argparse, table
    # builds and certificate serialize/load/re-verify dominate.
    "cli-certify": [
        "invariants --group 2,4 --method formula",
        "invariants --group 7 --method formula",
        "invariants --group 2,4 --method search",
        "invariants --group 3,3 --method both",
        "invariants --group 2,2,2 --method both",
        "invariants --group 12 --method both",
        "invariants --group 2,6 --method search",
        "dpair --group 2,4 --dprime 2 --d 4 --method both",
        "dpair --group 4,4 --dprime 2 --d 4 --method both",
        "gamma --group 2,4 --delta 1 --method both",
        "gamma --group 3,3 --delta 1 --method both",
        "construct --group 3,9 --kind dstar",
        "construct --group 2,6 --kind kstar",
        "construct --group 3,9 --kind gamma --delta 2",
        "enumerate --group 2,4 --length 3",
        "enumerate --group 3,3 --length 2 --count-only",
        "check --group 2,4 --name cross-number",
        "check --group 3,3 --name davenport-dual",
        "check --group 2,4 --name order-divisibility",
        "check --group 2,4 --name heights",
        "check --group 3,3 --name max-order",
        "check --group 2,4 --name gamma-conjecture --delta 1",
    ],
}

SETUP_SAMPLES = 15
SETUP_CODE = ("import sys\n"
              "import zerosum.cli as cli\n"
              "from zerosum.groups import GroupTables\n"
              "for spec in sys.argv[1:]:\n"
              "    GroupTables(cli.parse_group_spec(spec).invariant_factors)\n")
WARM_UP = ["invariants", "--group", "2,4", "--method", "formula"]
COMMAND_TIMEOUT = 60.0   # seconds; the slowest command takes ~6 s at the seed
RUN_DEADLINE = 165.0     # seconds; later commands count as failed, unrun
NOT_RUN = "run deadline passed; not run"

COUNT_KEYS = ("search.nodes", "search.acc_enter_calls", "search.root_tasks",
              "groups.translate_calls", "sequences.subsums_calls",
              "sequences.definitional_calls")


@dataclass
class Op:
    command: str       # the emitting command, as listed in WORKLOADS
    verify: bool       # True: verify-cert of that command's certificate
    cert: Path

    @property
    def label(self) -> str:
        return f"verify-cert [{self.command}]" if self.verify else self.command

    @property
    def argv(self) -> list[str]:
        if self.verify:
            return ["verify-cert", "--in", str(self.cert), "--format", "json"]
        return self.command.split() + ["--out", str(self.cert)]


@dataclass
class Result:
    wall: float
    rss_kib: int = 0
    stdout: str = ""
    error: str | None = None    # why the command failed; None if it exited 0


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, op: Op, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{op.label}: {reason}")


def plan(workload: str, seed: int) -> list[Op]:
    """Every command and its verify-cert, in an order drawn from the seed.

    Each verify-cert comes after its command; otherwise the two halves mix,
    so both see the same share of any slow spell of the machine.
    """
    commands = WORKLOADS[workload]
    order = [i for i in range(len(commands)) for _ in range(2)]
    random.Random(seed).shuffle(order)
    ops, emitted = [], set()
    for i in order:
        ops.append(Op(commands[i], i in emitted, WORK / f"cert{i}.json"))
        emitted.add(i)
    return ops


def group_specs(workload: str) -> list[str]:
    specs = []
    for command in WORKLOADS[workload]:
        words = command.split()
        spec = words[words.index("--group") + 1]
        if spec not in specs:
            specs.append(spec)
    return specs


# -- child processes -------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ZEROSUM_BUDGET", None)   # read by the CLI; would change the budgets
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], timeout: float, log: Path) -> Result:
    """Run one child to completion; return its wall time, peak RSS, output and
    the reason it failed (a nonzero exit or a timeout), if it did.

    The child is left unreaped (``WNOWAIT``) until the timer can no longer
    kill it, then reaped with ``wait4`` for its resource usage.
    """
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(log.with_suffix(".out"), "wb") as out, \
            open(log.with_suffix(".err"), "wb") as err:
        start = clock()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)

    def expire():
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = clock() - start
        with lock:
            state["exited"] = True
    finally:
        timer.cancel()
        with lock:
            if not state["exited"]:     # interrupted: stop the child first
                os.kill(proc.pid, signal.SIGKILL)
                state["exited"] = True
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = log.with_suffix(".out").read_text(encoding="utf-8", errors="replace")
    error = f"timed out after {timeout:.3g} s" if state["killed"] else None
    if proc.returncode != 0 and error is None:
        error = (f"exit {proc.returncode}: "
                 + log.with_suffix(".err").read_text(errors="replace").strip()[-300:])
    return Result(wall, usage.ru_maxrss, stdout, error)


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "zerosum.cli", *argv]


def time_left(deadline: float) -> float:
    """Timeout for the next command: COMMAND_TIMEOUT, cut at the run deadline."""
    return min(COMMAND_TIMEOUT, deadline - clock())


# -- correctness gate ------------------------------------------------------------

def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def check_op(op: Op, res: Result, recorded: dict) -> str | None:
    """Why the op failed, or None when its output matches the recording."""
    if res.error is not None:
        return res.error
    entry = recorded.get(op.command)
    if entry is None:
        return "no recorded result for this command in expected.json"
    if op.verify:
        try:
            outcome = json.loads(res.stdout)
        except json.JSONDecodeError:
            return "verify-cert printed no JSON"
        if not outcome.get("accepted") or outcome.get("failures"):
            return f"certificate rejected: {outcome.get('failures')}"
        if outcome.get("claims_checked") != len(entry["claims"]):
            return f"checked {outcome.get('claims_checked')} claims, expected {len(entry['claims'])}"
        return None
    try:
        claims = json.loads(op.cert.read_text(encoding="utf-8"))["claims"]
    except (OSError, json.JSONDecodeError, KeyError) as err:
        return f"unreadable certificate: {err}"
    if claims != entry["claims"]:
        return "claims differ from the recording"
    return None


# -- untraced end-to-end run -----------------------------------------------------

def measure(workload: str, seed: int, seconds: float,
            deadline: float) -> tuple[dict, Tally]:
    recorded = load_expected()["workloads"].get(workload, {}).get("commands", {})
    ops = plan(workload, seed)
    tally = Tally()
    setup_argv = [sys.executable, "-c", SETUP_CODE, *group_specs(workload)]
    setup: list[float] = []

    def sample_setup(until: int) -> None:
        while len(setup) < until and time_left(deadline) >= 1.0:
            res = run_child(setup_argv, time_left(deadline), WORK / "setup")
            if res.error is not None:
                raise RuntimeError(f"set-up sample failed: {res.error}")
            setup.append(res.wall)

    op_walls: list[list[float]] = [[] for _ in ops]
    passes, peak_kib, children = 0, 0, 0
    started = clock()
    while True:
        t0 = clock()
        for i, op in enumerate(ops):
            left = time_left(deadline)
            if left < 1.0:
                res = Result(0.0, error=NOT_RUN)
            else:
                res = run_child(cli_argv(op.argv), left, WORK / f"op{i}")
                children += 1
                peak_kib = max(peak_kib, res.rss_kib)
            op_walls[i].append(res.wall)
            tally.add(op, check_op(op, res, recorded))
            if passes == 0:   # spread the set-up samples over the first pass
                sample_setup(SETUP_SAMPLES * (i + 1) // len(ops))
        passes += 1
        if tally.failures or clock() - started + (clock() - t0) > seconds:
            break

    # A command's median over passes filters out a burst of load from outside
    # that hit one of its runs; the sums are the wall time of one pass.
    medians = [statistics.median(w) for w in op_walls]
    how = f"sum of per-command medians over {passes} pass(es)"
    metrics = {
        "wall_s": (sum(medians), how),
        "verify_s": (sum(m for m, op in zip(medians, ops) if op.verify), how),
        "setup_s": (statistics.median(setup), f"median of {len(setup)} samples"),
        "peak_rss_mib": (peak_kib / 1024, f"max over {children} processes"),
    }
    return metrics, tally


# -- traced in-process run -------------------------------------------------------

class CommandTimeout(BaseException):
    """Raised by the alarm; a BaseException, so ``except Exception`` in the
    package (``verify_certificate`` collects claim failures) cannot swallow it."""


def _expire(signum, frame):
    raise CommandTimeout("timed out")


def run_inprocess(main, op: Op, groups, deadline: float) -> Result:
    """One command through ``cli.main``, with its own fresh group tables."""
    timeout = time_left(deadline)
    if timeout < 1.0:
        return Result(0.0, error=NOT_RUN)
    groups.group_tables.cache_clear()
    out = io.StringIO()
    error = rc = None
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(op.argv)
    except (Exception, CommandTimeout) as err:  # one failed command must not stop the run
        error = f"raised {err!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = clock() - start
    if error is None and rc != 0:
        error = f"exit {rc}"
    return Result(wall, 0, out.getvalue(), error)


def traced(workload: str, seed: int, record: bool,
           deadline: float) -> tuple[dict, Tally]:
    import selfcheck
    import tracing

    os.environ.pop("ZEROSUM_BUDGET", None)
    data = load_expected()
    entry = data["workloads"].get(workload, {})
    recorded = {} if record else entry.get("commands", {})
    ops = plan(workload, seed)
    tally = Tally()

    t0 = clock()
    import zerosum.cli as cli
    import_s = clock() - t0
    from zerosum import groups

    plain_wall = None
    if not record:
        t0 = clock()
        for op in ops:
            res = run_inprocess(cli.main, op, groups, deadline)
            tally.add(op, check_op(op, res, recorded))
        plain_wall = clock() - t0

    tracer = tracing.Tracer()
    main = tracing.install(tracer)
    counts, claims_checked = {}, 0
    t0 = clock()
    for i, op in enumerate(ops):
        tracer.command = i
        calls_before = tracer.translate[0]
        res = run_inprocess(main, op, groups, deadline)
        counts[op.label] = tracing.command_counts(tracer, i,
                                                  tracer.translate[0] - calls_before)
        if record and res.error is None and not op.verify:
            recorded[op.command] = {"claims": json.loads(op.cert.read_text())["claims"]}
        reason = check_op(op, res, recorded)
        if op.verify and reason is None:
            claims_checked += json.loads(res.stdout)["claims_checked"]
        tally.add(op, reason)
    traced_wall = clock() - t0

    try:
        selfcheck.check()
        selfcheck.check_trace(tracer.spans)
    except ValueError as err:
        tally.failures.append(f"trace arithmetic: {err}")
    metrics = tracing.layer_metrics(tracer)
    metrics["cli.import_s"] = import_s
    metrics["certificates.claims_checked"] = claims_checked
    metrics["trace.overhead_s"] = 0.0 if plain_wall is None else traced_wall - plain_wall
    if metrics["search.acc_enter_calls"] != metrics["search.nodes"]:
        tally.failures.append(
            f"accumulator enter calls {metrics['search.acc_enter_calls']} "
            f"differ from nodes {metrics['search.nodes']}")

    totals = {k: sum(c[k] for c in counts.values()) for k in COUNT_KEYS}
    if record and not tally.failures:
        for op in ops:
            recorded[op.command].setdefault("counts", {})[
                "verify" if op.verify else "emit"] = counts[op.label]
        data["workloads"][workload] = {"commands": recorded, "totals": totals}
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif not record:
        print_count_deltas(entry, ops, counts, totals)
        write_spans(tracer, ops, TRACES / f"{workload}-seed{seed}.json")
    return {k: (v, "traced pass") for k, v in metrics.items()}, tally


def write_spans(tracer, ops: list[Op], path: Path) -> None:
    """Write the traced pass's spans once, at the end of the run."""
    path.parent.mkdir(exist_ok=True)
    fields = ["name", "start", "end", "parent", "command", "leaf_start", "leaf_end"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"commands": [op.label for op in ops], "fields": fields,
                   "spans": [[getattr(s, f) for f in fields] for s in tracer.spans]}, fh)
    print(f"  spans written to {path.relative_to(ROOT)}")


def print_count_deltas(entry: dict, ops: list[Op], counts: dict, totals: dict) -> None:
    """Deterministic counts against the recording; a drift names its commands."""
    recorded = entry.get("totals", {})
    for key in COUNT_KEYS:
        was = recorded.get(key)
        delta = "not recorded" if was is None else f"recorded {was}, delta {totals[key] - was:+d}"
        print(f"  count {key:30s} {totals[key]:>10d}  ({delta})")
    for op in ops:
        was = entry.get("commands", {}).get(op.command, {}).get("counts", {}).get(
            "verify" if op.verify else "emit")
        if was is not None and was != counts[op.label]:
            moved = {k: counts[op.label][k] - was.get(k, 0) for k in COUNT_KEYS
                     if counts[op.label][k] != was.get(k)}
            print(f"  counts moved in {op.label}: {moved}")


# -- entry point -----------------------------------------------------------------

def machine() -> str:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
    return (f"nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} commit={commit}")


def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(args) -> dict:
    """Run one workload; print its report; return the result object."""
    deadline = clock() + RUN_DEADLINE
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        warm = run_child(cli_argv(WARM_UP), time_left(deadline), WORK / "warm-up")
        if warm.error is not None:
            raise RuntimeError(f"warm-up command failed: {warm.error}")
        mode = "recording" if args.record else f"trace {args.trace}"
        print(f"workload {args.workload}, seed {args.seed}, {mode}")
        if args.trace or args.record:
            measured, tally = traced(args.workload, args.seed, args.record, deadline)
        else:
            measured, tally = measure(args.workload, args.seed, args.seconds, deadline)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    metrics = {}
    for spec in declared_metrics(args.trace or args.record):
        value, how = measured[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:32s} {value:>14.6g} {spec['unit']:6s} ({how})")
    print(f"  {'ops':32s} {tally.attempted:>14d} count")
    print(f"  {'ops_failed':32s} {len(tally.failures):>14d} count")
    for failure in tally.failures[:10]:
        print(f"    FAILED {failure}", file=sys.stderr)
    return {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="start another pass only while it fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record expected.json from the current code")
    args = parser.parse_args()
    if not (ROOT / "src" / "zerosum" / "cli.py").is_file():
        print(f"error: no zerosum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":   # one fresh interpreter per workload
        common = [sys.executable, __file__, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            common.append("--record")
        return max(subprocess.run([*common, "--workload", name]).returncode
                   for name in WORKLOADS)
    sys.path.insert(0, str(ROOT / "src"))
    print(f"machine: {machine()}")
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
