"""Benchmark of the bbauth synth -> score -> grade pipeline, one workload per process.

    python3 perfbench/run.py --workload frozen-8 [--seed 42] [--seconds 55] [--trace 0|1]

Run from the repository root; bbauth is imported from ./src. The run:

1. pins the BLAS/OpenMP pools to one thread (before numpy is imported);
2. set-up: produces the workload's dataset cold, timed from the top of
   this script (`setup_s`);
3. warms up with an untimed pass over a two-user dataset;
4. times one whole pass (generate -> score every family -> grade), then
   rounds of the non-siamese score steps until `--seconds` have
   passed since the pass began; stages are timed in reference units
   (clock.py), so that slow phases of a shared machine cancel;
5. with `--trace 1`, runs one more pass with every public bbauth
   function wrapped instead of the rounds, and writes the spans to
   .perfbench/;
6. checks every pass's outputs and self-tests the checks.

The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` (the family score steps of the timed pass) and
`metrics`, the end-to-end metrics, or with `--trace 1` the per-layer ones.
See perfbench/README.md for the workloads and the metrics.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MODULES = ("synth", "data", "preprocess", "keystroke", "touch", "dwt", "softdtw",
           "siamese", "runner", "protocol", "cli")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42, help="master seed of the generator")
    parser.add_argument("--seconds", type=float, default=55.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_bbauth() -> bool:
    if not (SRC / "bbauth" / "__init__.py").is_file():
        print(f"error: no bbauth sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import bbauth

    if Path(bbauth.__file__).resolve().parent != (SRC / "bbauth").resolve():
        print(f"error: bbauth was imported from {bbauth.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def _end_to_end(setup_s, peak_rss_mb, timed, families) -> dict:
    steps = timed.steps
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (timed.seconds, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for family in families:
        metrics[f"cmp_per_s.{family}"] = (
            steps[family].comparisons / statistics.median(steps[family].seconds), "1/s")
    for family in families:
        if steps[family].auc is not None:
            metrics[f"auc_mixed.{family}"] = (steps[family].auc["mixed"], "%")
    skilled = [steps[f].auc["skilled"] for f in families if steps[f].auc is not None]
    if skilled:
        metrics["auc_skilled_mean"] = (statistics.fmean(skilled), "%")
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    # A terminated run still unwinds, so its temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not _import_bbauth():
        return 2
    import checks
    import clock
    import passes as pipeline_mod
    import tracing

    workload = pipeline_mod.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(pipeline_mod.WORKLOADS)}", file=sys.stderr)
        return 2
    families = pipeline_mod.FAMILIES
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as tmp:
        pipeline = pipeline_mod.pipeline(workload, Path(tmp))
        pipeline.setup(args.seed)
        setup_s = time.perf_counter() - STARTED
        pipeline.warm_up(args.seed)
        clock.warm_up()

        with clock.TICKER:
            began = time.perf_counter()
            timed = pipeline.run_pass(args.seed)

            traced = None
            if args.trace:
                tracer = tracing.Tracer()
                with tracer.installed():
                    traced = pipeline.run_pass(
                        args.seed, on_stage=lambda name: tracer.stage(name, pipeline_mod.rss_mb()))
            else:
                rounds = pipeline_mod.repeat_rounds(timed, began + args.seconds)
                print(f"rounds: {rounds}", file=sys.stderr)
        if traced is not None:
            metrics = tracing.layer_metrics(tracer, families, MODULES)
            metrics["trace.overhead_s"] = (traced.seconds - timed.seconds, "s")
            metrics["trace.spans"] = (float(len(tracer.names)), "count")
            tracer.write(OUT / f"trace-{workload.name}.json",
                         {"workload": workload.name, "seed": args.seed})
        else:
            metrics = _end_to_end(setup_s, pipeline_mod.peak_rss_mb(), timed, families)

    problems = []
    for result in [timed] + ([traced] if traced else []):
        problems += checks.check_pass(result, workload, timed)
    problems += checks.self_test()
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    for family in families:
        step = timed.steps[family]
        print(f"samples {family}: n={len(step.seconds)} reference-s "
              + " ".join(f"{s:.4f}" for s in sorted(step.seconds))
              + " | wall-s " + " ".join(f"{s:.4f}" for s in sorted(step.wall)), file=sys.stderr)
    print(f"samples pass_s: reference-s {timed.seconds:.4f} | wall-s {timed.wall:.4f}",
          file=sys.stderr)
    steps = list(timed.steps.values())
    for step in steps:
        if step.failed:
            print(f"failed operation: {step.family}: "
                  f"{step.error or 'every comparison got the same score'}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(steps),
        "failed": sum(step.failed for step in steps),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
