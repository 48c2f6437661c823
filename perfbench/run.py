"""End-to-end benchmark of ``repro`` with a per-layer trace.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig9a-warm --seed 1 --seconds 10 --trace 0

Workloads: ``fig9a-warm``, ``cc-paper``, ``service-cold`` (see
``workloads.py``).  Each run sets up (timed as ``setup_s``), computes
its expected outputs in a fresh process, then measures for
``--seconds``:

* ``--trace 0`` times the workload with nothing wrapped and reports the
  end-to-end metrics: ``wall_s`` (median unit: one experiment call, or
  one request stream on a fresh server), ``setup_s`` and
  ``peak_rss_mb`` (this process for the experiments, whose set-up and
  reference run in fresh processes; the largest server process for
  the service).
* ``--trace 1`` spends half the budget untraced and half with the span
  wrappers of ``tracer.py`` installed, and reports per-layer self
  seconds and counts per unit, the unattributed remainder, and the
  tracing overhead (traced minus untraced wall per unit).  It writes the
  spans as Chrome trace-event JSON.

Every run writes ``.perfbench/<workload>-seed<N>-trace<T>.report.json``
(host, all metrics, findings) in the checkout, prints the host and the
metrics to stderr and a ``host:`` line to stdout, and ends stdout with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  A
kernel that falls back to NumPy, a compile in a warm phase or a dead
server aborts the run with exit code 2 and no result line.

``python3 perfbench/selftest.py`` checks the span arithmetic and the
output format in a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: (name, unit) of every per-layer metric, in output order.  ``*_s``
#: and ``*_n`` values are per unit of work; ratios have their base in
#: the matching ``*_n``.
PER_LAYER = (
    ("workloads.generate_s", "s"), ("workloads.apps_n", "count"),
    ("scheduling.ftss_s", "s"), ("scheduling.ftss_n", "count"),
    ("scheduling.admit_ratio", "ratio"), ("scheduling.ftsf_s", "s"),
    ("quasistatic.ftqs_s", "s"), ("quasistatic.trees_n", "count"),
    ("quasistatic.candidates_n", "count"),
    ("quasistatic.memo_hit_ratio", "ratio"),
    ("store.get_s", "s"), ("store.put_s", "s"),
    ("store.hit_ratio", "ratio"), ("store.bytes", "B"),
    ("faults.sample_s", "s"), ("faults.scenarios_n", "count"),
    ("engine.pack_s", "s"), ("engine.compile_s", "s"),
    ("engine.decisions_s", "s"), ("engine.run_s", "s"),
    ("engine.fast_path_ratio", "ratio"),
    ("kernel.codegen_s", "s"), ("kernel.cc_s", "s"), ("kernel.cc_n", "count"),
    ("kernel.load_s", "s"), ("kernel.run_s", "s"),
    ("kernel.cache_hit_ratio", "ratio"), ("kernel.fallbacks_n", "count"),
    ("threads.evaluate_s", "s"), ("threads.shards_n", "count"),
    ("threads.fallbacks_n", "count"),
    ("evaluation.evaluate_s", "s"),
    ("service.client_s", "s"), ("service.dispatch_s", "s"),
    ("service.server_s", "s"), ("service.overhead_ms", "ms"),
    ("service.shed_n", "count"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
    ("trace.spans_n", "count"), ("trace.split_matches", "bool"),
)

#: The split measured when the workloads were chosen: the layer with
#: the most self time, and whether kernels get compiled in the timed
#: phase.  A traced run reports whether it still holds.
EXPECTED_SPLIT = {
    "fig9a-warm": ("quasistatic.ftqs_s", False),
    "cc-paper": ("faults.sample_s", False),
    "service-cold": (None, True),
}


def host_fingerprint() -> Dict[str, object]:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cc = subprocess.run(
            ["cc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        cc = "unavailable"
    return {
        "cpu": cpu,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": cc,
    }


def layer_metrics(name: str, untraced, traced) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metrics of a traced run, and findings on how its
    split compares with :data:`EXPECTED_SPLIT`."""
    from workloads import ROOT_SPAN, layer_breakdown

    seconds, other = layer_breakdown(traced)
    other["workloads.apps_n"] = other.pop("workloads.generate_n", 0.0)
    unattributed = seconds.pop(f"{ROOT_SPAN}_s", 0.0)
    wall = traced.wall_per_unit
    measured = {**other, **seconds}
    metrics = {name: float(measured.get(name, 0.0)) for name, _ in PER_LAYER}
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced.wall_per_unit
    metrics["trace.overhead_s"] = wall - untraced.wall_per_unit
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.spans_n"] = len(traced.spans) / traced.units
    largest, compiles = EXPECTED_SPLIT[name]
    top = max(seconds, key=seconds.get) if seconds else None
    findings = [f"largest layer: {top} ({seconds.get(top, 0.0):.3f} s/unit)"]
    matches = True
    if largest is not None and top != largest:
        matches = False
        findings.append(f"finding: expected {largest} to be the largest layer")
    if (metrics["kernel.cc_n"] > 0) != compiles:
        matches = False
        findings.append(
            f"finding: kernel.cc_n = {metrics['kernel.cc_n']:.3g}, expected "
            + ("non-zero" if compiles else "zero")
        )
    metrics["trace.split_matches"] = 1.0 if matches else 0.0
    return metrics, findings


def result_line(
    metrics: Dict[str, float], units: Dict[str, str], attempted: int, failed: int
) -> str:
    """The final stdout line the benchmark contract asks for."""
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )


def run(args, out_dir: Path, workdir: Path) -> int:
    from tracer import Tracer, chrome_trace
    from workloads import WORKLOADS, Abort, ServiceCold, peak_rss_mb

    workload = WORKLOADS[args.workload](args.seed, workdir)
    findings: List[str] = []
    service = isinstance(workload, ServiceCold)
    trace_path = None
    try:
        setup_s = workload.setup()
        workload.reference()
        if args.trace:
            half = args.seconds / 2.0
            untraced = workload.measure(half, None, min_units=1)
            traced = workload.measure(half, Tracer(), min_units=1)
            metrics, findings = layer_metrics(args.workload, untraced, traced)
            trace_path = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
            trace_path.write_text(json.dumps(chrome_trace(traced.spans)))
            phases = [untraced, traced]
        else:
            phase = workload.measure(args.seconds, None)
            if service:
                rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
            else:
                rss = peak_rss_mb(resource.RUSAGE_SELF)
            metrics = {
                "wall_s": statistics.median(phase.unit_walls),
                "setup_s": setup_s,
                "peak_rss_mb": rss,
            }
            phases = [phase]
    except Abort as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return 2
    finally:
        if service:
            workload.close()

    units = dict(END_TO_END if not args.trace else PER_LAYER)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    host = host_fingerprint()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "setup_s": setup_s,
        "metrics": metrics,
        "unit_walls": [p.unit_walls for p in phases],
        "findings": findings,
        "notes": [note for p in phases for note in p.notes],
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
    }
    if service:
        report["latency"] = workload.latency_summary(phases[0])
    report_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True))

    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6g} {units[name]}", file=sys.stderr)
    for line in report["findings"] + report["notes"]:
        print(line, file=sys.stderr)
    if service:
        print(f"latency: {json.dumps(report['latency'])}", file=sys.stderr)
    print(f"report: {report_path.relative_to(ROOT)}", file=sys.stderr)
    print("host: " + json.dumps(host, sort_keys=True))
    print(result_line(metrics, units, attempted, failed))
    return 0


def warm_up(args) -> int:
    """Set-up body, run in a fresh process: imports plus one call that
    builds the workload's kernels into ``--warm-up DIR``."""
    os.environ["REPRO_KERNEL_CACHE"] = args.warm_up
    from repro.runtime.engine.kernel import kernel_stats
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, Path(args.warm_up)).warm_up()
    stats = kernel_stats()
    if stats.n_fallbacks:
        print(f"kernel fell back to NumPy: {stats.summary()}", file=sys.stderr)
        return 2
    return 0


def reference(args) -> int:
    """Print the workload's expected outputs (its ``batched`` run) as
    one line of canonical JSON; run in a fresh process."""
    from workloads import WORKLOADS, canonical

    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".perfbench"))
    os.environ["REPRO_KERNEL_CACHE"] = str(workdir)
    try:
        result = WORKLOADS[args.workload](args.seed, workdir).reference_call()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(canonical(result), sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warm-up", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        print(f"repro was imported from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    if args.warm_up:
        return warm_up(args)
    if args.reference:
        return reference(args)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    # Never fall back to the user's ~/.cache/repro-kernels; set-up
    # points this at the cache it warmed.
    os.environ["REPRO_KERNEL_CACHE"] = str(workdir / "kernels-unused")
    try:
        return run(args, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
