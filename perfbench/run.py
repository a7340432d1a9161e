"""Benchmark of the weakkam command line, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload check-2d --seed 1 --seconds 50 --trace 0

The workload's command sequence runs in this process through
``weakkam.cli.main`` (``--threads 1``), in whole repetitions, as many as
fit in ``--seconds`` and at least ``MIN_REPS``; each repetition writes to
a fresh output directory.  The outputs of the last repetition are then
checked against the benchmark's own reference computations, and every
repetition must write the same bytes.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations, and the metrics.  ``--trace 0``
gives the end-to-end metrics, medians over repetitions; ``--trace 1``
alternates untraced and traced repetitions and gives the medians of the
per-layer metrics over the traced ones, plus the tracing overhead, and
writes the spans to ``perfbench/_traces``.
"""

import os

# pinned before numpy is imported anywhere in this process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import yaml  # noqa: E402
from workloads import WORKLOADS, unexpected_failures  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_REPS = 3  # untraced repetitions; a traced run makes MIN_PAIRS of each kind
MIN_PAIRS = 2
SETUP_SAMPLES = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import weakkam.cli; "
    "print(repr(time.perf_counter() - t))"
)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def import_cli():
    """weakkam.cli from this checkout's src, never from an installed copy."""
    sys.path.insert(0, SRC)
    import weakkam.cli

    if not os.path.abspath(weakkam.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"weakkam was imported from {weakkam.cli.__file__}, not {SRC}")
    return weakkam.cli


def setup_seconds() -> float:
    """Median time to import weakkam.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def digest(rep_dir: str) -> tuple:
    """(sha256 of every output but the manifests, total bytes written)."""
    h = hashlib.sha256()
    total = 0
    for base, dirs, files in sorted(os.walk(rep_dir)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            total += os.path.getsize(path)
            if name != "manifest.json":
                h.update(os.path.relpath(path, rep_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest(), total


def run_rep(cli, workload, config_paths: dict, rep_dir: str) -> dict:
    """One repetition of the workload's commands, timed from argv to return.

    A command that raises counts as failed, with its traceback in the log.
    """
    log = io.StringIO()
    rcs = {}
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for command, config in workload.steps:
            argv = [command, "--config", config_paths[config],
                    "--out", os.path.join(rep_dir, command), "--threads", "1"]
            try:
                rcs[command] = cli.main(argv)
            except Exception:
                traceback.print_exc()
                rcs[command] = None
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    ops = []
    for command, rc in rcs.items():
        ops += workload.operations(command, rc, os.path.join(rep_dir, command))
    sha, written = digest(rep_dir)
    return {"wall": wall, "cpu": cpu, "rcs": rcs, "ops": ops, "sha": sha,
            "bytes": written, "log": log.getvalue(), "dir": rep_dir}


def repeat(cli, workload, config_paths: dict, out_root: str, seconds: float, tracer):
    """Whole repetitions, untraced ones, or untraced and traced ones
    alternating when a tracer is given.  Once the minimum is done, the
    next repetition (or pair) starts only if, at the length of the last
    one, it ends within ``seconds`` of the start.

    Returns (untraced reps, traced reps, per-layer metrics of each traced
    rep, trace dumps).  Only the last repetition's outputs are kept.
    """
    plain, traced, layers, dumps = [], [], [], []
    last = None
    t_start = time.perf_counter()
    step_start = t_start
    while True:
        rep_dir = os.path.join(out_root, f"rep{len(plain) + len(traced)}")
        if tracer is not None and len(plain) > len(traced):
            tracer.reset()
            tracer.install()
            try:
                rep = run_rep(cli, workload, config_paths, rep_dir)
            finally:
                tracer.uninstall()
            traced.append(rep)
            layers.append(tracing.layer_metrics(tracer, rep["bytes"]))
            dumps.append(tracer.dump())
        else:
            rep = run_rep(cli, workload, config_paths, rep_dir)
            plain.append(rep)
        if last is not None:
            shutil.rmtree(last["dir"])
        last = rep
        if tracer is not None and len(traced) < len(plain):
            continue  # a traced repetition completes the pair
        done = len(traced) >= MIN_PAIRS if tracer is not None else len(plain) >= MIN_REPS
        now = time.perf_counter()
        if done and 2 * now - step_start - t_start > seconds:
            return plain, traced, layers, dumps
        step_start = now


def check(cfgs: dict, workload, reps: list, last: dict) -> list:
    """Problems with the outputs: failures other than known faults,
    outputs that differ between repetitions, and reference mismatches."""
    problems = []
    unexpected = unexpected_failures([op for rep in reps for op in rep["ops"]])
    if unexpected:
        problems.append(f"operations failed: {unexpected}; log: {last['log'][-2000:]}")
    if len({rep["sha"] for rep in reps}) != 1:
        problems.append("repetitions wrote different outputs")
    succeeded = {c: os.path.join(last["dir"], c) for c, rc in last["rcs"].items() if rc == 0}
    try:
        workload.verify(cfgs, succeeded)
    except (reference.CheckFailed, OSError, KeyError, ValueError) as e:
        problems.append(f"{type(e).__name__}: {e}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="weakkam CLI benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "weakkam", "cli.py")):
        return fail(f"no weakkam sources under {SRC}; run from a repository checkout")
    try:
        cli = import_cli()
    except ImportError as e:
        return fail(f"cannot import weakkam.cli: {e}")
    workload = WORKLOADS[args.workload]
    cfgs = workload.configs(args.seed)
    tracer = tracing.Tracer() if args.trace else None

    out_root = os.path.join(HERE, "_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_root)
    try:
        config_paths = {}
        for name, cfg in cfgs.items():
            config_paths[name] = os.path.join(out_root, f"{name}.yaml")
            with open(config_paths[name], "w") as fh:
                yaml.safe_dump(cfg, fh)
        setup_s = setup_seconds()
        plain, traced, layers, dumps = repeat(
            cli, workload, config_paths, out_root, args.seconds, tracer
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reps = plain + traced
        problems = check(cfgs, workload, reps, traced[-1] if traced else plain[-1])
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)
    walls = [rep["wall"] for rep in plain]
    print(f"perfbench: {args.workload} seed {args.seed}: {len(plain)} untraced, "
          f"{len(traced)} traced repetitions; untraced wall s "
          + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(rep["cpu"] for rep in plain), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = {k: (statistics.median(m[k] for m in layers), tracing.unit_of(k))
                   for k in layers[0]}
        overhead = statistics.median(rep["wall"] for rep in traced) - statistics.median(walls)
        metrics["trace.overhead_s"] = (overhead, "s")
        trace_dir = os.path.join(HERE, "_traces")
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "reps": dumps}, fh)

    ops = [op for rep in reps for op in rep["ops"]]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(not ok for _, ok in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
