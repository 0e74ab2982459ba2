"""Benchmark of the siltengine `silt` commands on four workloads.

    python3 bench/run.py --workload structure --seed 1 --seconds 12 --trace 0

Workloads (see workloads.py and BENCHMARK.json): structure, modules,
theorem, rational, or `all` to run the four in turn.  A run

  1. generates the workload's linear A_n ladder rungs from --seed
     (ladder.py) and completes their seed complexes with `silt complete`;
  2. measures set-up (import of siltengine plus parsing every input) in
     separate processes until it has SETUP_SAMPLES measurements;
  3. runs the workload's op list through `siltengine.cli.main`, each
     repeat in a fresh single-threaded process (worker.py), until at least
     --seconds of ops have been measured and at least two repeats ran;
  4. checks every op: exit code 0, the theory pins of pins.py, and report
     bytes identical across repeats; each `complete` output is re-checked
     for silting in one more process.  An op that runs longer than
     OP_LIMIT_S is killed and counts as failed.

With --trace 1 the repeats alternate between plain and traced processes
(tracer.py wraps each engine layer's entry points from outside), the
traced reports must match the plain ones byte for byte, and the per-layer
metrics are printed instead of the end-to-end ones.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import ladder
import pins
import tracer
from workloads import JSON_REPORT, SEEDED, WORKLOADS, facts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "siltengine", "fixtures")
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".bench_work")

OP_LIMIT_S = 45.0     # an op (or a set-up) running longer is killed
RUN_LIMIT_S = 160.0   # every process is gone by then, so a run ends < 180 s
MIN_REPEATS = 2
SETUP_SAMPLES = 5

CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
             "PYTHONPATH": SRC}

COMMANDS = ("check", "endo", "complete", "ar", "battery", "theorem")
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no engine, broken set-up)."""


def per_layer_units():
    """(name, unit) of every metric a traced run reports as JSON."""
    return tracer.metric_names() + [("trace.run_s", "s"),
                                    ("trace.overhead", "ratio")]


def run_worker(workdir, parse, ops, trace, deadline):
    """Run worker.py; returns (records, error or None).

    Each step (set-up, then each op) must end within OP_LIMIT_S and before
    `deadline`, otherwise the worker is killed.
    """
    spec = os.path.join(workdir, "spec.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "parse": parse, "ops": ops, "trace": trace},
                  fh)
    env = dict(os.environ, **CHILD_ENV)
    with open(os.path.join(workdir, "worker.err"), "wb") as err:
        proc = subprocess.Popen([sys.executable, WORKER, spec], cwd=ROOT,
                                env=env, stdout=subprocess.PIPE, stderr=err)
    records, buf, error = [], b"", None
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        step_end = min(time.monotonic() + OP_LIMIT_S, deadline)
        while True:
            left = step_end - time.monotonic()
            if left <= 0:
                error = "killed after the time limit"
                break
            if not sel.select(left):
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                records.append(json.loads(line))
                step_end = min(time.monotonic() + OP_LIMIT_S, deadline)
    finally:
        sel.close()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if error is None and not (records and records[-1].get("done")):
        error = "worker exited with code %s" % proc.returncode
    if records and records[0].get("engine") != os.path.join(SRC,
                                                            "siltengine"):
        raise BenchError("worker imported siltengine from %s"
                         % records[0].get("engine"))
    return records, error


def make_inputs(workload, seed, workdir, deadline):
    """name -> (algebra file, complex file) for every input of the workload."""
    field = WORKLOADS[workload]["field"]
    names = sorted({name for _, name in WORKLOADS[workload]["ops"]})
    files = {}
    rungs = sorted({int(n[1:].split("-")[0]) for n in names
                    if n.startswith("A")})
    for n in rungs:
        alg = os.path.join(workdir, "a%d.alg" % n)
        with open(alg, "w", encoding="utf-8") as fh:
            fh.write(ladder.algebra_text(n))
        seed_cpx = os.path.join(workdir, "a%d_seed.cpx" % n)
        with open(seed_cpx, "w", encoding="utf-8") as fh:
            fh.write(ladder.seed_complex_text(n, seed))
        files["A%d-seed" % n] = (alg, seed_cpx)
        files["A%d" % n] = (alg, os.path.join(workdir, "a%d.cpx" % n))
    if rungs:
        ops = [op_argv("complete", files["A%d-seed" % n], field, seed)
               for n in rungs]
        records, error = run_worker(workdir, [], ops, False, deadline)
        for n, rec in zip(rungs, records[1:]):
            if rec.get("rc") != 0:
                raise BenchError("completing rung A%d failed: %s"
                                 % (n, rec.get("err")))
            with open(files["A%d" % n][1], "w", encoding="utf-8") as fh:
                fh.write(rec["out"])
        if error:
            raise BenchError("generating the ladder: %s" % error)
    for name in names:
        if name not in files:
            files[name] = (os.path.join(FIXTURES, name + ".alg"),
                           os.path.join(FIXTURES, name + ".cpx"))
    return files


def op_argv(command, files, field, seed):
    alg, cpx = files
    argv = [command, alg] + ([cpx] if command != "battery" else [])
    if field:
        argv += ["--field", field]
    if command in SEEDED:
        argv += ["--seed", str(seed)]
    if command in JSON_REPORT:
        argv += ["--report", "json"]
    return argv


def measure(args, workdir, deadline):
    workload = WORKLOADS[args.workload]
    field = workload["field"]
    files = make_inputs(args.workload, args.seed, workdir, deadline)
    ops = [(command, name, op_argv(command, files[name], field, args.seed))
           for command, name in workload["ops"]]
    parse = list(dict.fromkeys(
        (files[name][0], None if command == "battery" else files[name][1],
         field) for command, name, _ in ops))

    setups, plain, traced, failures = [], [], [], []
    attempted = 0
    first_out = {}

    def record_op(k, rec):
        command, name, _ = ops[k]
        if rec is None:
            return "not finished (time limit or crash)"
        if rec["rc"] != 0:
            return "exit code %s: %s" % (rec["rc"], rec["err"].strip()[-500:])
        text = rec["out"]
        if first_out.setdefault(k, text) != text:
            return "report differs from the first repeat"
        return "; ".join(pins.problems(command, facts(name), field,
                                       text)) or None

    while len(setups) < SETUP_SAMPLES - MIN_REPEATS:
        records, error = run_worker(workdir, parse, [], False, deadline)
        if error:
            raise BenchError("set-up: %s" % error)
        setups.append(records[0]["setup_s"])

    measured, repeat, versions = 0.0, 0, None
    while True:
        trace = bool(args.trace) and repeat % 2 == 1
        t0 = time.monotonic()
        records, error = run_worker(workdir, parse, [a for _, _, a in ops],
                                    trace, deadline)
        wall = time.monotonic() - t0
        repeat += 1
        if records:
            setups.append(records[0]["setup_s"])
        op_recs = [r for r in records if "rc" in r]
        for k in range(len(ops)):
            attempted += 1
            problem = record_op(k, op_recs[k] if k < len(op_recs) else None)
            if problem:
                failures.append("repeat %d op %d %s %s: %s" % (
                    repeat, k, ops[k][0], ops[k][1], problem))
        if error:
            failures.append("repeat %d: %s" % (repeat, error))
            break
        done = records[-1]
        versions = done["versions"]
        sample = {"run_s": sum(r["wall_s"] for r in op_recs),
                  "peak_rss_mb": done["peak_rss_mb"], "trace": done["trace"]}
        for c in COMMANDS:
            sample["cmd.%s_s" % c] = sum(
                r["wall_s"] for (command, _, _), r in zip(ops, op_recs)
                if command == c)
        (traced if trace else plain).append(sample)
        measured += sample["run_s"]
        enough = repeat >= MIN_REPEATS and measured >= args.seconds
        if enough or time.monotonic() + 1.5 * wall > deadline:
            break

    # Every `complete` output must itself be a silting complex.
    checks = []
    for k, (command, name, argv) in enumerate(ops):
        if command == "complete" and k in first_out:
            cpx = os.path.join(workdir, "completed%d.cpx" % k)
            with open(cpx, "w", encoding="utf-8") as fh:
                fh.write(first_out[k])
            checks.append((name, op_argv("check", (argv[1], cpx), field,
                                         args.seed)))
    if checks:
        records, error = run_worker(workdir, [], [a for _, a in checks],
                                    False, deadline)
        op_recs = [r for r in records if "rc" in r]
        for k, (name, _) in enumerate(checks):
            attempted += 1
            rec = op_recs[k] if k < len(op_recs) else None
            if rec is None or rec["rc"] != 0:
                problem = ["check of the completion did not finish with 0"]
            else:
                problem = pins.problems("check", facts(name), field,
                                        rec["out"])
            if problem:
                failures.append("completion of %s: %s"
                                % (name, "; ".join(problem)))

    if not plain:
        raise BenchError("no repeat finished: %s" % "; ".join(failures))
    med = statistics.median
    metrics = {name: med([s[name] for s in plain])
               for name in ["run_s", "peak_rss_mb"]
               + ["cmd.%s_s" % c for c in COMMANDS]}
    metrics["setup_s"] = med(setups)
    if traced:
        for name in traced[0]["trace"]:
            metrics[name] = med([s["trace"][name] for s in traced])
        metrics["trace.run_s"] = med([s["run_s"] for s in traced])
        metrics["trace.overhead"] = (metrics["trace.run_s"]
                                     / metrics["run_s"] - 1)
    info = {"repeats": len(plain) + len(traced), "setups": len(setups),
            "versions": versions}
    return metrics, attempted, failures, info


def report(args, metrics, attempted, failures, info):
    """Human-readable table, then the JSON result line."""
    v = info["versions"] or {}
    print("workload %s seed %d trace %d: %d repeats, %d set-ups"
          % (args.workload, args.seed, args.trace, info["repeats"],
             info["setups"]))
    print("env nproc=%d python=%s numpy=%s sympy=%s"
          % (len(os.sched_getaffinity(0)), v.get("python"), v.get("numpy"),
             v.get("sympy")))
    ran = {c for c, _ in WORKLOADS[args.workload]["ops"]}
    rows = list(END_TO_END) + [("cmd.%s_s" % c, "s") for c in COMMANDS
                               if c in ran]
    if args.trace:
        rows += [(name, unit) for name, unit in per_layer_units()
                 if not name.endswith(".calls")]
    for name, unit in rows:
        value = metrics[name]
        shown = "%14d" % value if unit == "count" else "%14.4f" % value
        print("  %-36s %s %s" % (name, shown, unit))
    print("  %-36s %14.4f 1  (%d of %d ops failed)"
          % ("fail_ratio", len(failures) / attempted, len(failures),
             attempted))
    if args.trace:
        print("  %-36s %9s %10s %10s" % ("entry point", "calls", "self_s",
                                         "incl_s"))
        for layer, entries in tracer.ENTRY_POINTS.items():
            for entry in entries:
                base = tracer.metric_name(layer, entry)
                print("  %-36s %9d %10.4f %10.4f" % (
                    base, metrics[base + ".calls"], metrics[base + ".self_s"],
                    metrics[base + ".incl_s"]))
    for line in failures:
        sys.stderr.write("FAILED %s\n" % line)
    chosen = per_layer_units() if args.trace else END_TO_END
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in chosen}}
    print(json.dumps(result), flush=True)


def run_workload(args):
    """Measure and report one workload; returns the exit code."""
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                               dir=WORK)
    try:
        measured = measure(args, workdir, deadline)
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    report(args, *measured)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "siltengine", "cli.py")):
        sys.stderr.write("error: no engine source at %s\n" % SRC)
        return 2
    # On SIGTERM, unwind so that every worker is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        args.workload = name
        code = max(code, run_workload(args))
    return code


if __name__ == "__main__":
    sys.exit(main())
