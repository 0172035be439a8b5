#!/usr/bin/env python3
"""perfbench: the four-workload performance ledger.  One command, every number.

    python3 perfbench/run.py                                   # all four workloads, timed + traced
    python3 perfbench/run.py --workload wide_idle --seed 7     # one workload
    python3 perfbench/run.py --quick                           # short horizons (smoke)
    python3 perfbench/run.py --repeat-check                    # two full sets -> compare.py
    python3 perfbench/run.py --record                          # re-measure ledger.json + BENCHMARK.json

The benchmark driver calls it as
``... --workload W --seed N --seconds T --trace 0|1`` and reads the last line
of standard output: one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``).

Every metric is printed by name with its unit.  Each measurement runs in a
fresh child process (``PYTHONHASHSEED=0``, one thread); this launcher only
starts children, times their set-up and prints.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from perfbench import metrics as registry  # noqa: E402

WORKLOAD_NAMES = ("steady_mixed", "read_mostly_leases", "durable_failover", "wide_idle")
DEFAULT_SEED = 1104
DEFAULT_SECONDS = 14
#: Set-up probes before the measuring child, and again after it.
SETUP_PROBES = 6
#: The benchmark seed ``S`` expands to the run seeds ``100*S .. 100*S + k - 1``:
#: two different benchmark seeds never share a run seed.
SEED_STRIDE = 100
LEDGER_PATH = ROOT / "perfbench" / "ledger.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"


def run_seeds(seed: int, count: int) -> List[int]:
    return [seed * SEED_STRIDE + index for index in range(count)]


# ------------------------------------------------------------------ child processes --
def child_setup_probe(args: argparse.Namespace) -> int:
    """Build the workload, execute its first simulated event, print the wall clock."""
    from perfbench.workloads import QUICK_SCALE, WORKLOADS, Run

    spec = WORKLOADS[args.workload]
    if args.quick:
        spec = spec.scaled(QUICK_SCALE)
    run = Run(spec, run_seeds(args.seed, 1)[0])
    if not run.service.scheduler.step():
        return 1
    print(repr(time.time()))
    return 0


def child_measure(args: argparse.Namespace) -> int:
    """Measure one workload in this process; print one JSON document."""
    from perfbench import measure, tracing
    from perfbench.workloads import QUICK_SCALE, WORKLOADS, Run

    spec = WORKLOADS[args.workload]
    if args.quick:
        spec = spec.scaled(QUICK_SCALE)
    seeds = run_seeds(args.seed, spec.seeds_per_run)
    problems: List[str] = []
    values: Dict[str, float] = {}
    document: Dict = {"workload": spec.name, "seed": args.seed, "trace": args.trace}

    if args.trace == 0:
        results, passes, values["peak_rss_mb"] = measure.timed_passes(spec, seeds, args.seconds)
        values.update(measure.virtual_metrics(spec, results))
        values.update(measure.host_metrics(passes))
        per_pass = [measure.host_metrics([p]) for p in passes]
        document["host_samples"] = {
            name: [sample[name] for sample in per_pass] for name in ("host_cost_kiter_per_op", "host.cpu_us_per_op")
        }
    else:
        seeds = seeds[:1]
        measure.warm_up(spec, seeds[0])
        plain = Run(spec, seeds[0])
        plain_cpu, kernel_cpu, kernel_calls = measure.advance(plain)
        plain_result = measure.collect(plain)
        del plain
        run = Run(spec, seeds[0])
        spans, observer = tracing.Spans(run), tracing.Observer(run)
        with spans.installed():
            traced_cpu, stats = tracing.traced_advance(run)
        result = measure.collect(run, observer_events=observer.ticks)
        if result.fingerprint != plain_result.fingerprint:
            problems.append("the traced run's fingerprint differs from the untraced run's: tracing perturbed the run")
        measure.check_run(run, result)
        results = [result]
        folded = tracing.fold_profile(stats)
        values.update(measure.virtual_metrics(spec, results))
        values.update(tracing.traced_metrics(run, spans, observer, folded, len(result.ops)))
        values.update(
            measure.host_metrics(
                [{"run_cpu": plain_cpu, "kernel_cpu": kernel_cpu, "kernel_calls": kernel_calls, "ops": len(result.ops)}]
            )
        )
        values["host.trace_overhead_ratio"] = traced_cpu / plain_cpu
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"{spec.name}.trace.json"
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(tracing.trace_document(run, spans, observer, folded), handle)
        document["trace_file"] = str(trace_path)

    problems += measure.output_check(results, values)
    document.update(
        correct=not problems,
        problems=problems,
        attempted=int(values.pop("ops_due")),
        failed=int(values.pop("ops_failed")),
        metrics=values,
        fingerprints={str(result.seed): result.fingerprint for result in results},
        stale_reads=sum(result.stale_reads for result in results),
    )
    print(json.dumps(document))
    return 0


# ------------------------------------------------------------------ the launcher --
def child_command(args: argparse.Namespace, workload: str, *extra: str) -> List[str]:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed)]
    command += ["--seconds", str(args.seconds), "--out", str(args.out)]
    if args.quick:
        command.append("--quick")
    return command + list(extra)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_samples(args: argparse.Namespace, workload: str) -> List[float]:
    """Wall time from process start to the first simulated event, in :data:`SETUP_PROBES` fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.time()
        done = subprocess.run(
            child_command(args, workload, "--child", "setup"), env=child_env(), capture_output=True, text=True
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: set-up probe for {workload} failed with exit code {done.returncode}")
        samples.append(float(done.stdout.strip().splitlines()[-1]) - started)
    return samples


def measure_workload(args: argparse.Namespace, workload: str, trace: int) -> Dict:
    """Run one measuring child; return its document (set-up time folded in).

    ``setup_s`` is the fastest of the probes taken before and after the
    measuring child.  The box has slow phases lasting seconds in which every
    process start takes 1.3x longer; over ten invocations the minimum held
    within +-5% where the median of the same samples moved +-15%.
    """
    samples = setup_samples(args, workload) if trace == 0 else []
    done = subprocess.run(
        child_command(args, workload, "--child", "measure", "--trace", str(trace)),
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: measuring {workload} failed with exit code {done.returncode}")
    document = json.loads(done.stdout.strip().splitlines()[-1])
    if trace == 0:
        samples += setup_samples(args, workload)
        document["metrics"]["setup_s"] = min(samples)
        document["setup_samples"] = samples
    return document


def print_ledger(document: Dict) -> None:
    """Every measured metric by name, with its unit."""
    workload = document["workload"]
    print(f"# {workload}  seed={document['seed']}  trace={document['trace']}  "
          f"attempted={document['attempted']}  failed={document['failed']}  correct={document['correct']}")
    for name, unit in registry.UNITS.items():
        if name in document["metrics"]:
            print(f"{workload:<20} {name:<44} {document['metrics'][name]!r:>24} {unit}")
    for problem in document["problems"]:
        print(f"!! {workload}: {problem}")


def driver_line(document: Dict, trace: int) -> str:
    """The one-line result the benchmark driver reads."""
    names = registry.GATED if trace == 0 else [row["name"] for row in registry.benchmark_per_layer()]
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                name: {"value": document["metrics"][name], "unit": registry.UNITS[name]} for name in names
            },
        }
    )


def full_set(args: argparse.Namespace, workloads: List[str]) -> Dict:
    """Timed + traced run of each workload; returns the results document."""
    results: Dict = {"seed": args.seed, "seconds": args.seconds, "quick": args.quick, "workloads": {}}
    for workload in workloads:
        timed = measure_workload(args, workload, 0)
        print_ledger(timed)
        traced = measure_workload(args, workload, 1)
        print_ledger(traced)
        merged = dict(traced["metrics"])
        merged.update(timed["metrics"])  # every number the untraced passes give wins; the rest is the trace's
        results["workloads"][workload] = {
            "correct": timed["correct"] and traced["correct"],
            "problems": timed["problems"] + traced["problems"],
            "attempted": timed["attempted"],
            "failed": timed["failed"],
            "metrics": merged,
            "host_samples": timed["host_samples"],
            "fingerprints": timed["fingerprints"],
        }
    return results


def write_json(path: Path, document: Dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")


def record(args: argparse.Namespace, first: Dict) -> None:
    """Measure a disjoint seed set, derive the bounds, write ``ledger.json`` and ``BENCHMARK.json``."""
    from perfbench.workloads import WORKLOADS

    other_args = argparse.Namespace(**vars(args))
    other_args.seed = args.seed + 100
    second = full_set(other_args, list(WORKLOAD_NAMES))
    end_to_end = {}
    for metric in registry.END_TO_END:
        bounds = {}
        for workload in WORKLOAD_NAMES:
            a = first["workloads"][workload]["metrics"][metric.name]
            b = second["workloads"][workload]["metrics"][metric.name]
            gap = abs(a - b) / max(abs(a), abs(b)) if max(abs(a), abs(b)) > 0 else 0.0
            bounds[workload] = round(max(metric.floor, 2.0 * gap), 4)
        end_to_end[metric.name] = {
            "unit": metric.unit, "better": metric.better, "what": metric.what, "gated": metric.gated, "bounds": bounds,
        }
    write_json(
        LEDGER_PATH,
        {
            "command": "python3 perfbench/run.py",
            "protocol": {"seed": args.seed, "disjoint_seed": other_args.seed, "seconds": args.seconds},
            "workloads": {name: WORKLOADS[name].why for name in WORKLOAD_NAMES},
            "end_to_end": end_to_end,
            "per_layer": {m.name: {"unit": m.unit, "better": m.better, "moves": m.moves} for m in registry.PER_LAYER},
            "measured": {name: first["workloads"][name]["metrics"] for name in WORKLOAD_NAMES},
            "measured_disjoint": {name: second["workloads"][name]["metrics"] for name in WORKLOAD_NAMES},
            "fingerprints": {name: first["workloads"][name]["fingerprints"] for name in WORKLOAD_NAMES},
        },
    )
    write_json(
        BENCHMARK_PATH,
        {
            "command": ["python3", "perfbench/run.py"],
            "paths": ["perfbench"],
            "run_seconds": DEFAULT_SECONDS,
            "workloads": [{"name": name, "why": WORKLOADS[name].why} for name in WORKLOAD_NAMES],
            "end_to_end": [
                {
                    "name": m.name,
                    "unit": m.unit,
                    "better": m.better,
                    "bound": m.gate_bound,
                }
                for m in registry.END_TO_END
                if m.gated
            ],
            "per_layer": registry.benchmark_per_layer(),
        },
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="benchmark seed S (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="timed-pass budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0: timed passes only; 1: traced run only")
    parser.add_argument("--quick", action="store_true", help="short horizons (smoke test, not comparable)")
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out"), help="where traces and results.json go")
    parser.add_argument("--repeat-check", action="store_true", help="run two full sets and compare them")
    parser.add_argument("--record", action="store_true", help="re-measure ledger.json and BENCHMARK.json")
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child == "setup":
        return child_setup_probe(args)
    if args.child == "measure":
        return child_measure(args)
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing\n")
        return 2

    if args.workload is not None and args.trace is not None:
        document = measure_workload(args, args.workload, args.trace)
        print_ledger(document)
        print(driver_line(document, args.trace))
        return 0 if document["correct"] else 1

    workloads = [args.workload] if args.workload is not None else list(WORKLOAD_NAMES)
    results = full_set(args, workloads)
    out_dir = Path(args.out)
    write_json(out_dir / "results.json", results)
    correct = all(entry["correct"] for entry in results["workloads"].values())
    if args.repeat_check:
        from perfbench import compare

        again = full_set(args, workloads)
        write_json(out_dir / "results.repeat.json", again)
        correct = correct and all(entry["correct"] for entry in again["workloads"].values())
        correct = compare.report(results, again, compare.load_bounds()) and correct
    if args.record and args.workload is None and not args.quick:
        record(args, results)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
