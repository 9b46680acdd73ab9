"""Command line of the benchmark.

Three modes:

``--workload W --seed N --seconds S --trace 0|1``
    One workload in this interpreter (what ``BENCHMARK.json`` names).
    The last line of standard output is the contract's JSON object;
    the line before it carries the detail the suite keeps (MAD and
    runner-up gap per metric, failure list, flush policy).

no ``--workload``
    The suite: every workload, each run in a fresh interpreter, an
    untraced run for the end-to-end metrics and a traced one for the
    per-layer metrics; prints (and with ``--out`` writes) one JSON
    document per invocation holding ``--sets`` full sets.

``--compare A.json B.json``
    One row per (workload, end-to-end metric); see ``compare.py``.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

from benchmarks.harness import spec


def _parser():
    parser = argparse.ArgumentParser(prog="benchmarks.harness",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two rounds: correctness and "
                             "output schema only")
    parser.add_argument("--sets", type=int, default=1,
                        help="suite mode: full sets to run")
    parser.add_argument("--out", help="suite mode: also write the "
                                      "document to this file")
    parser.add_argument("--spans-out",
                        help="with --trace 1: write the raw spans of the "
                             "round the layer times come from to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    return parser


def main(argv, root):
    args = _parser().parse_args(argv)
    if args.compare:
        from benchmarks.harness.compare import compare_files
        return compare_files(*args.compare)
    if args.workload:
        return _single(args, root)
    return _suite(args, root)


# -- one workload ------------------------------------------------------------


def _single(args, root):
    from benchmarks.harness.runner import run_workload
    from benchmarks.harness.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write("unknown workload {0!r}; choose from {1}\n".format(
            args.workload, ", ".join(WORKLOADS)))
        return 2
    # WAL files live inside the checkout and go away with the run.
    parent = os.path.join(root, ".bench_work")
    workdir = os.path.join(parent, str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)  # a killed run's leftovers
    os.makedirs(workdir)
    try:
        result, detail = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), args.smoke, workdir,
            spans_out=args.spans_out if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:
            pass  # another run's directory is still in there
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


# -- the suite ---------------------------------------------------------------


def _run_child(root, name, args, trace):
    command = [sys.executable, os.path.join(root, "benchmarks", "harness",
                                            "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          text=True, check=True)
    detail_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(result_line), json.loads(detail_line)["detail"]


def _environment(root, args):
    import numpy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke}


def _suite(args, root):
    from benchmarks.harness.workloads import WORKLOADS
    document = {"claim": None, "environment": _environment(root, args),
                "bounds": {name: bound
                           for name, _, _, bound in spec.END_TO_END},
                "sets": []}
    for _ in range(args.sets):
        one_set = {}
        for name in WORKLOADS:
            untraced, detail = _run_child(root, name, args, trace=0)
            traced, traced_detail = _run_child(root, name, args, trace=1)
            failed = untraced["failed"] + traced["failed"]
            attempted = untraced["attempted"] + traced["attempted"]
            end_to_end = untraced["metrics"]
            for metric, entry in end_to_end.items():
                entry["mad"] = detail["mad"][metric]
                entry["runner_up_gap"] = detail["runner_up_gap"][metric]
            one_set[name] = {
                "end_to_end": end_to_end,
                "per_layer": traced["metrics"],
                "attempted": attempted,
                "failed": failed,
                "failed_frac": failed / attempted,
                "failures": detail["failures"] + traced_detail["failures"],
                "rounds": detail["rounds"],
                "statements_per_round": detail["statements_per_round"],
                "flush_policy": detail["flush_policy"],
            }
            sys.stderr.write("{0}: {1} statements+checks, {2} failed\n"
                             .format(name, attempted, failed))
        document["sets"].append(one_set)
    text = json.dumps(document, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    print(text)
    return 1 if any(entry["failed"] for one_set in document["sets"]
                    for entry in one_set.values()) else 0
