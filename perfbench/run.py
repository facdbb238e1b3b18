"""c4lab benchmark: fixed-seed workloads, end-to-end request metrics, and a
traced run for per-layer timing.

    python3 perfbench/run.py                      # all workloads, one process each
    python3 perfbench/run.py --workload exact --seed 3 --seconds 26 --trace 0

Each workload is a closed loop: one client in one process, one request at
a time.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `--trace 0` reports the
end-to-end metrics and `--trace 1` the per-layer ones.  Run records and
span files go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3   # at least; cheap set-ups repeat until SETUP_SECONDS have passed
SETUP_SECONDS = 2.0
MIN_PASSES = 3     # at least a median of three, and repeats to compare outputs against

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "verify_p50_s": "s",
    "success_share": "ratio",
    "yield_ratio": "ratio",
    "error_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# printed for every workload, but not gated: at this commit they are 0 on
# some workloads, and a gated metric must never read 0
UNGATED = ("success_share", "yield_ratio", "error_share")


def _import_package():
    """Import c4lab from this checkout's src/ and nowhere else."""
    if not (SRC / "c4lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no c4lab package under {SRC}")
    # the CLI takes flag defaults from DEGB_* variables; a stray one would
    # change the workload, so every step runs on the built-in defaults
    for var in [v for v in os.environ if v.startswith("DEGB_")]:
        del os.environ[var]
    sys.path.insert(0, str(SRC))
    import c4lab
    if Path(c4lab.__file__).resolve().parent != (SRC / "c4lab").resolve():
        sys.exit(f"perfbench: imported c4lab from {c4lab.__file__}, not {SRC}")


def _run_passes(plan, reference, seconds: float, min_passes: int,
                tracer=None, first_rid: int = 0):
    """Run passes over the plan's requests until `seconds` have passed and at
    least `min_passes` are done; a pass cut by the deadline stays partial.
    Returns (records, reference times, whole passes, loop wall time).

    A record is (pass, request, step, seconds, reference seconds, exit code,
    output, raised).  Only the calls are timed; output collection and checks
    come after.  The reference routine is timed before each request and once
    after the last, outside any span; a request's reference time is the mean
    of the routine's times just before and just after it.
    """
    executed, probes = [], []
    rid = first_rid
    loop_start = time.perf_counter()
    p = i = 0
    while p < min_passes or time.perf_counter() - loop_start < seconds:
        req = plan.requests[i]
        probes.append(reference.time())
        handle = tracer.begin_request(rid, f"request.{req.kind}") if tracer else None
        done = []
        for step in req.steps:
            raised = None
            rc, out = None, ""
            t0 = time.perf_counter()
            try:
                rc, out = step.call()
            except Exception as exc:  # a raise is a counted error, not a crash
                raised = f"{type(exc).__name__}: {exc}"
            done.append((time.perf_counter() - t0, rc, out, raised))
            if raised:
                break
        if tracer:
            tracer.end_request(handle, f"request.{req.kind}")
        for j, (elapsed, rc, out, raised) in enumerate(done):
            output = b"" if raised else req.steps[j].collect(rc, out)
            executed.append((len(probes) - 1, (p, i, j, elapsed), (rc, output, raised)))
        rid += 1
        i += 1
        if i == len(plan.requests):
            p, i = p + 1, 0
    wall = time.perf_counter() - loop_start
    probes.append(reference.time())
    records = [(*where, (probes[k] + probes[k + 1]) / 2, *result)
               for k, where, result in executed]
    return records, probes, p, wall


def _error_of(step, rc, output, raised, reference) -> str | None:
    if raised:
        return f"raised {raised}"
    if rc == 1:
        return "exit 1"
    if b"REJECTED" in output:
        return "REJECTED"
    err = step.check(rc, output)
    if err:
        return err
    if reference is not None and output != reference:
        return "output differs from the same step earlier in the run"
    return None


def _digest(plan, records) -> str:
    """sha256 over one pass's request labels, exit codes and output bytes."""
    h = hashlib.sha256()
    for p, i, j, _, _, rc, output, _ in records:
        if p == records[0][0]:
            h.update(f"{plan.requests[i].label}|{j}|{rc}|".encode())
            h.update(output)
            h.update(b"\0")
    return h.hexdigest()


def _analyse(plan, records, references, errors: list) -> dict:
    """Request statistics over records; appends (where, error) to `errors`.

    Each step's time is the median over passes of its time divided by the
    reference routine's time around its request, times REFERENCE_SECONDS.
    A request's time is the sum of its steps' times.  On a machine shared
    with other tenants, a slow phase slows the step and the routine beside
    it alike, and the ratio takes it out.  Percentiles and throughput are
    then taken over the distinct requests of the plan.  The same figures
    from the raw medians, unscaled, are kept under "unscaled".
    """
    from reference import REFERENCE_SECONDS

    step_times: dict[tuple[int, int], list[float]] = {}
    step_ratios: dict[tuple[int, int], list[float]] = {}
    executions: set[tuple[int, int]] = set()
    failed: set[tuple[int, int]] = set()
    modes: dict[str, int] = {}
    extractions = successes = 0
    yield_sum = 0.0
    for p, i, j, seconds, ref, rc, output, raised in records:
        req = plan.requests[i]
        step = req.steps[j]
        executions.add((p, i))
        step_times.setdefault((i, j), []).append(seconds)
        step_ratios.setdefault((i, j), []).append(seconds / ref)
        err = _error_of(step, rc, output, raised, references.get((i, j)))
        references.setdefault((i, j), output)
        if err:
            errors.append((f"pass {p} {req.label} {step.kind}", err))
            failed.add((p, i))
        if step.k is None:
            continue
        extractions += 1
        if err:
            continue
        cert = json.loads(output)
        key = f"{step.kind}/{cert['mode']}"
        modes[key] = modes.get(key, 0) + 1
        flags = cert["verified"]
        if flags["induced_c4free"] and flags["avg_degree_ok"]:
            successes += 1
        if flags["induced_c4free"]:
            yield_sum += float(Fraction(cert["stats"]["avg_degree"])) / step.k

    def timings(per_step: dict[tuple[int, int], list[float]], scale: float) -> dict:
        steps = {key: statistics.median(v) * scale for key, v in per_step.items()}
        totals: dict[int, float] = {}
        for (i, _), seconds in steps.items():
            totals[i] = totals.get(i, 0.0) + seconds
        times = sorted(totals.values())
        # every verify step raising leaves no sample; `correct` is false then
        verify = [t for (i, j), t in steps.items()
                  if plan.requests[i].steps[j].kind == "verify"] or [0.0]
        return {
            "throughput_rps": len(times) / sum(times),
            "latency_p50_s": statistics.median(times),
            # p90, interpolated: a plan has 2 to 24 distinct requests, and
            # a percentile with ten beyond it would sit at or below the median
            "latency_tail_s": statistics.quantiles(times, n=10, method="inclusive")[-1],
            "verify_p50_s": statistics.median(verify),
        }

    return {
        "requests": len(executions),
        "failed_requests": len(failed),
        "distinct_requests": len({i for i, _ in step_times}),
        **timings(step_ratios, REFERENCE_SECONDS),
        "unscaled": timings(step_times, 1.0),
        "success_share": successes / extractions,
        "yield_ratio": yield_sum / extractions,
        "modes": dict(sorted(modes.items())),
        "step_seconds": {f"{plan.requests[i].label} {j}:{plan.requests[i].steps[j].kind}": v
                         for (i, j), v in step_times.items()},
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    from reference import REFERENCE_SECONDS, Reference
    from tracing import Tracer, layer_metric_names
    from workloads import WORKLOADS, warm_up

    setup = WORKLOADS[name]
    reference = Reference()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    errors: list[tuple[str, str]] = []
    try:
        # set-up: inputs from the seed, K_{3,3} certification, files, warm-up;
        # repeated, and every repetition must write the same input bytes.
        # Each is scaled like a step, by the reference routine around it.
        setup_times, setup_ratios, input_digests = [], [], set()
        r = 0
        setup_start = time.perf_counter()
        before = reference.time()
        while r < SETUP_REPEATS or time.perf_counter() - setup_start < SETUP_SECONDS:
            r += 1
            d = work / f"setup{r}"
            d.mkdir(parents=True)
            t0 = time.perf_counter()
            plan = setup(seed, d)
            err = warm_up(d)
            setup_times.append(time.perf_counter() - t0)
            after = reference.time()
            setup_ratios.append(setup_times[-1] / ((before + after) / 2))
            before = after
            if err:
                errors.append(("setup", err))
            h = hashlib.sha256()
            for f in plan.files:
                h.update(f.name.encode() + b"\0" + f.read_bytes())
            input_digests.add(h.hexdigest())
        if len(input_digests) != 1:
            errors.append(("setup", "the same seed gave different inputs"))

        references: dict[tuple[int, int], bytes] = {}
        if not trace:
            records, probes, passes, wall = _run_passes(plan, reference, seconds,
                                                        MIN_PASSES)
            stats = _analyse(plan, records, references, errors)
            digest = _digest(plan, records)
            stats["loop_wall_s"] = wall
            stats["reference_seconds"] = probes
            stats["error_share"] = stats["failed_requests"] / stats["requests"]
            stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            stats["setup_s"] = statistics.median(setup_ratios) * REFERENCE_SECONDS
            stats["unscaled"]["setup_s"] = statistics.median(setup_times)
            attempted, failed = stats["requests"], stats["failed_requests"]
            metrics = {m: {"value": stats[m], "unit": END_TO_END_UNITS[m]}
                       for m in END_TO_END_UNITS if m not in UNGATED}
            report = {"passes": passes, "output_digest": digest, **stats}
        else:
            # half the time untraced, then as many passes traced
            plain, _, passes, _ = _run_passes(plan, reference, seconds / 2, MIN_PASSES)
            plain_stats = _analyse(plan, plain, references, errors)
            tracer = Tracer()
            tracer.install()
            origin = time.perf_counter()
            traced, _, _, _ = _run_passes(plan, reference, 0, passes, tracer,
                                          plain_stats["requests"])
            traced_stats = _analyse(plan, traced, references, errors)
            digest, traced_digest = _digest(plan, plain), _digest(plan, traced)
            if digest != traced_digest:
                errors.append(("trace", "traced outputs differ from untraced outputs"))
            layers = tracer.layer_metrics()
            layers["trace.overhead_ratio"] = (
                plain_stats["throughput_rps"] / traced_stats["throughput_rps"])
            attempted = plain_stats["requests"] + traced_stats["requests"]
            failed = plain_stats["failed_requests"] + traced_stats["failed_requests"]
            metrics = {m: {"value": layers[m], "unit": unit}
                       for m, unit in layer_metric_names()}
            tracer.write(OUT / f"{name}-seed{seed}-spans.jsonl", origin)
            report = {"passes_untraced": passes, "passes_traced": passes,
                      "output_digest": digest, "traced_output_digest": traced_digest,
                      "untraced_throughput_rps": plain_stats["throughput_rps"],
                      "traced_throughput_rps": traced_stats["throughput_rps"],
                      "modes": plain_stats["modes"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # errors outside any request (set-up, trace identity) count as one more failure
    failed += sum(1 for where, _ in errors if where in ("setup", "trace"))
    report.update(workload=name, seed=seed, trace=int(trace), errors=errors)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**report, "metrics": metrics}, indent=1) + "\n")

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"{attempted} requests")
    if not trace:
        for m, unit in END_TO_END_UNITS.items():
            value = report[m]
            note = "" if m not in UNGATED else "  (not gated)"
            if m == "latency_tail_s":
                note = f"  (p90 of {report['distinct_requests']} distinct requests)"
            print(f"  {m:<16} {value!r:<24} {unit}{note}")
    else:
        for m, v in metrics.items():
            if v["value"]:
                print(f"  {m:<52} {v['value']!r} {v['unit']}")
    print(f"  modes            {json.dumps(report['modes'])}")
    print(f"  output_digest    {digest}")
    for where, err in errors:
        print(f"  ERROR {where}: {err}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so none sets another's peak RSS."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()}}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _import_package()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
