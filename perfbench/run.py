"""drivelab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a drivelab checkout; it imports the package from
`src/`. One process, one client, no threads: it sets up the workload's inputs
several times (setup_s is the median), then repeats the workload's unit of
work until S seconds have passed and reports medians over the units.

Times are in reference seconds (see tracing.py): measured wall-clock time,
corrected for the machine's speed as a fixed probe measures it.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same untraced
units, then the same again with timing wrappers installed around the
package's public functions, checks that both produce the same digests, and
prints the per-layer metrics. The last line of standard output is one JSON
object; the lines before it, starting with '#', describe the run.
"""

import os

# Pin BLAS before numpy is first imported, so that the numbers measure the
# program and not the thread scheduler.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("throughput_per_s", "items/s"),
              ("peak_rss_mb", "MB"))


def _site_metrics(site, *stats):
    units = {"calls": "count", "busy_s": "s", "ms_p50": "ms", "ms_p99": "ms",
             "calls_per_tick": "calls/tick"}
    return tuple((f"{site}.{s}", units[s]) for s in stats)


PER_LAYER = (
    _site_metrics("world.advance_world", "calls", "ms_p50", "busy_s")
    + _site_metrics("world.step_kinematics", "calls_per_tick", "busy_s")
    + _site_metrics("world.Route.project", "calls_per_tick", "busy_s")
    + _site_metrics("expert.expert_act", "calls", "ms_p50", "ms_p99", "busy_s")
    + _site_metrics("expert.expert_command", "calls", "busy_s")
    + _site_metrics("expert.forecast_collision", "calls", "busy_s")
    + _site_metrics("policy.encode_scene", "calls", "ms_p50", "busy_s")
    + _site_metrics("policy.Policy.forward", "calls", "ms_p50", "busy_s")
    + _site_metrics("policy.Policy.infer", "calls", "ms_p50", "ms_p99", "busy_s")
    + _site_metrics("autodiff.backward", "calls", "ms_p50", "ms_p99", "busy_s")
    + _site_metrics("autodiff.Adam.step", "calls", "ms_p50", "busy_s")
    + (("autodiff.tensors_per_sample", "tensors/sample"),
       ("training.steps", "count"),
       ("training.step_ms_p50", "ms"),
       ("training.step_ms_p99", "ms"),
       ("training.imitation_samples_per_s", "samples/s"),
       ("training.preference_samples_per_s", "samples/s"),
       ("training.pretrain.samples_per_s", "samples/s"),
       ("training.dagger_epoch.samples_per_s", "samples/s"),
       ("training.po_epoch.samples_per_s", "samples/s"),
       ("training.mean_margin.samples_per_s", "samples/s"),
       ("training.po_underflow_clamps", "count"),
       ("training.margin_before", "nat"),
       ("training.margin_after", "nat"),
       ("dataset.collect_demos.ticks_per_s", "ticks/s"),
       ("dataset.run_shadow_collection.ticks_per_s", "ticks/s"),
       ("dataset.run_shadow_collection.takeover_ticks", "count"),
       ("dataset.triggers.collision", "count"),
       ("dataset.triggers.threshold", "count"),
       ("dataset.takeover_kept_frac", "ratio"),
       ("dataset.persist.ms", "ms"),
       ("dataset.load.ms", "ms"),
       ("dataset.bytes", "bytes"),
       ("vocab.build_vocabulary.ms", "ms"),
       ("vocab.lloyd_iterations", "count"),
       ("metrics.evaluate_suite.ticks_per_s", "ticks/s"),
       ("metrics.val_ds", "score"),
       ("metrics.val_sr", "%"),
       ("trace.overhead_frac", "ratio"))
)
SIM_WORKLOADS = ("expert_demos", "closed_loop")
# The expert_demos and closed_loop setups take milliseconds. A setup repeats
# until this much time has passed too, so that its median is one of many warm
# repeats and not of three cold ones.
SETUP_MIN_SECONDS = 1.0


def import_program():
    """Import drivelab from this checkout's src/, never from anywhere else."""
    if not (SRC / "drivelab" / "__init__.py").is_file():
        raise RuntimeError(f"no drivelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import drivelab
    if Path(drivelab.__file__).resolve().parent != SRC / "drivelab":
        raise RuntimeError(f"drivelab imported from {drivelab.__file__}, not {SRC}")


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas.get('name')} {blas.get('version')}, "
            f"nproc {len(os.sched_getaffinity(0))}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


class Measurement:
    """Units of one workload measured with one Recorder."""

    def __init__(self, rec):
        self.rec = rec
        self.spans = []          # the "unit" span index of each unit
        self.results = []

    def run(self, unit, state, seconds):
        """Repeat the unit until `seconds` have passed; at least once."""
        begin = time.perf_counter()
        while True:
            with self.rec.phase("unit") as i:
                result = unit(state, self.rec)
            self.spans.append(i)
            self.results.append(result)
            if time.perf_counter() - begin >= seconds:
                return

    def unit_seconds(self):
        """Per unit, its duration in reference seconds."""
        return list(self.rec.durations(self.spans))

    def phase_seconds(self, name):
        """Per unit, the summed duration of the unit's `name` phases."""
        return [float(self.rec.durations(self.rec.spans(name, within=i)).sum())
                for i in self.spans]

    def rate(self, names, items):
        """Median over units of `items` (a key of the unit's values) per
        second spent in the `names` phases."""
        seconds = [sum(t) for t in zip(*(self.phase_seconds(n) for n in names))]
        return statistics.median(r.values[items] / t for r, t in zip(self.results, seconds))

    def value(self, key):
        return self.results[0].values.get(key, 0)


def phase_metrics(workload, m):
    """Per-layer numbers measured by the benchmark's own phase spans, taken
    from untraced units."""
    out = {}
    if workload == "expert_demos":
        out["dataset.collect_demos.ticks_per_s"] = m.rate(["dataset.collect_demos"], "ticks")
        out["vocab.build_vocabulary.ms"] = 1e3 * statistics.median(
            m.phase_seconds("vocab.build_vocabulary"))
    if workload == "train":
        for phase in ("pretrain", "dagger_epoch", "po_epoch", "mean_margin"):
            out[f"training.{phase}.samples_per_s"] = m.rate(
                [f"training.{phase}"], f"{phase}_samples")
        out["training.imitation_samples_per_s"] = m.rate(
            ["training.pretrain", "training.dagger_epoch"], "imitation_samples")
        out["training.preference_samples_per_s"] = m.rate(
            ["training.po_epoch", "training.mean_margin"], "preference_samples")
    if workload == "closed_loop":
        out["dataset.run_shadow_collection.ticks_per_s"] = m.rate(
            ["dataset.run_shadow_collection"], "shadow_ticks")
        out["metrics.evaluate_suite.ticks_per_s"] = m.rate(
            ["metrics.evaluate_suite"], "eval_ticks")
        out["dataset.takeover_kept_frac"] = (m.value("takeover_kept")
                                             / max(m.value("takeover_raw"), 1))
    if workload in SIM_WORKLOADS:
        out["dataset.persist.ms"] = 1e3 * statistics.median(m.phase_seconds("dataset.persist"))
        out["dataset.load.ms"] = 1e3 * statistics.median(m.phase_seconds("dataset.load"))
    # Outcomes the unit reports under a per-layer metric's own name.
    out.update({k: v for k, v in m.results[0].values.items() if k in dict(PER_LAYER)})
    return out


def site_metrics(m):
    """Per-layer numbers from the wrappers, per unit, from traced units."""
    rec, n_units = m.rec, len(m.spans)
    out = {}
    ticks = rec.count("world.advance_world")
    for name, _ in PER_LAYER:
        site, _, stat = name.rpartition(".")
        if stat not in ("calls", "busy_s", "ms_p50", "ms_p99", "calls_per_tick"):
            continue
        d = rec.durations(rec.spans(site))
        if stat == "calls":
            out[name] = len(d) / n_units
        elif stat == "busy_s":
            out[name] = float(d.sum()) / n_units
        elif stat == "calls_per_tick":
            out[name] = len(d) / ticks if ticks else 0.0
        else:
            q = 50 if stat == "ms_p50" else 99
            out[name] = 1e3 * float(np.percentile(d, q)) if len(d) else 0.0

    imitation = sum(r.values.get("imitation_samples", 0) for r in m.results)
    tensors = sum(r.values.get("imitation_tensors", 0) for r in m.results)
    out["autodiff.tensors_per_sample"] = tensors / imitation if imitation else 0.0
    # A step is everything between one Adam.step ending and the next, within
    # one training phase: forward, loss, backward and the update.
    steps = []
    phases = [i for name in ("training.pretrain", "training.dagger_epoch", "training.po_epoch")
              for i in rec.spans(name)]
    clock = rec.reference_clock()
    for p in phases:
        ends = np.sort(np.frombuffer(rec.end, dtype=np.float64)[
            rec.spans("autodiff.Adam.step", within=p)])
        steps.extend(np.diff(clock(np.concatenate([[rec.start[p]], ends]))))
    out["training.steps"] = len(steps) / n_units
    out["training.step_ms_p50"] = 1e3 * float(np.percentile(steps, 50)) if steps else 0.0
    out["training.step_ms_p99"] = 1e3 * float(np.percentile(steps, 99)) if steps else 0.0
    return out, ticks


def run_benchmark(workload, seed, seconds, trace, scale=None, log=print):
    """Set up, measure and check one workload; returns the result object."""
    import tracing
    import workloads as wl
    scale = scale or wl.FULL
    setup, unit = wl.WORKLOADS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        setups = Measurement(tracing.Recorder())
        setups.rec.patch(tracing.COUNTED_SITES, timed=False)
        try:
            begin = time.perf_counter()
            while (len(setups.spans) < scale.setup_repeats
                   or time.perf_counter() - begin < SETUP_MIN_SECONDS):
                state = None     # let the previous inputs go before making new ones
                with setups.rec.phase("setup") as i:
                    state = setup(seed, scale, workdir)
                setups.spans.append(i)
        finally:
            setups.rec.restore()
        setup_times = setups.unit_seconds()

        plain = Measurement(tracing.Recorder())
        plain.rec.patch(tracing.COUNTED_SITES, timed=False)
        failure = None
        try:
            plain.run(unit, state, seconds)
        except Exception:  # noqa: BLE001 - a crash is a failed operation, reported below
            failure = traceback.format_exc()
        finally:
            plain.rec.restore()

        traced = None
        if trace and failure is None:
            traced = Measurement(tracing.Recorder())
            traced.rec.patch(tracing.TIMED_SITES, timed=True)
            traced.rec.patch((tracing.TENSOR_SITE,), timed=False)
            try:
                traced.run(unit, state, seconds)
            except Exception:  # noqa: BLE001
                failure = traceback.format_exc()
            finally:
                traced.rec.restore()
            traced.rec.save(OUT_DIR / f"spans-{workload}-seed{seed}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = plain.results + (traced.results if traced else [])
    if not plain.results:
        raise RuntimeError(f"no unit of {workload} completed:\n{failure}")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    digests = plain.results[0].digests
    same = [r.digests == digests for r in results[1:]]
    attempted += len(same)
    failed += same.count(False)
    if failure is not None:
        attempted += 1
        failed += 1
        log("# FAILED: " + failure.replace("\n", "\n# "))
    for r in results:
        for name, passed in r.checks:
            if not passed:
                log(f"# FAILED check: {name}")
    if same.count(False):
        log("# FAILED check: a repeated unit changed its output digests")

    unit_s = plain.unit_seconds()
    wall_s = statistics.median(unit_s)
    items = [r.items for r in plain.results]
    log(f"# {environment()}")
    log(f"# workload {workload}, seed {seed}, {len(unit_s)} untraced units"
        + (f" and {len(traced.spans)} traced units" if traced else "")
        + f", {items[0]} items per unit, {len(setup_times)} setups")
    log(f"# times in reference seconds; this machine ran {plain.rec.slowdown():.3f}x the "
        f"reference probe time; raw median unit time "
        f"{statistics.median(plain.rec.raw_durations(plain.spans)):.4f} s")
    log(f"# digests {json.dumps(digests, sort_keys=True)}")
    log(f"# failed_frac {failed / attempted:.6f} ({failed} of {attempted} operations failed)")
    if workload in SIM_WORKLOADS:
        log(f"# sim_ticks_per_s {statistics.median(n / t for n, t in zip(items, unit_s)):.2f} "
            f"({items[0]} ticks per unit)")
    else:
        pm = phase_metrics(workload, plain)
        log(f"# imitation_samples_per_s {pm['training.imitation_samples_per_s']:.2f} "
            f"({plain.value('imitation_samples')} samples per unit), "
            f"preference_samples_per_s {pm['training.preference_samples_per_s']:.2f} "
            f"({plain.value('preference_samples')} samples per unit)")
    if workload == "closed_loop":
        # The checkpoint is fixed, but a change to inference can still change
        # what it does, and so the amount of work in a unit.
        log(f"# work per unit: {plain.value('shadow_ticks')} shadow ticks with "
            f"{plain.value('takeover_raw')} takeover ticks, {plain.value('takeover_kept')} "
            f"of them kept by filter_takeovers; {plain.value('eval_ticks')} evaluation "
            f"ticks, validation DS {plain.value('metrics.val_ds'):.4f}, "
            f"SR {plain.value('metrics.val_sr'):.1f}")

    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "throughput_per_s": statistics.median(n / t for n, t in zip(items, unit_s)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        metrics = {name: 0.0 for name, _ in PER_LAYER}
        if traced is not None and traced.results:
            layer, ticks = site_metrics(traced)
            metrics.update(layer)
            metrics["trace.overhead_frac"] = (
                statistics.median(traced.unit_seconds()) / wall_s - 1.0)
            log(f"# traced: {ticks} ticks over {len(traced.spans)} units; calls, busy_s "
                "and training.steps are per unit, percentiles are over every call")
        metrics.update(phase_metrics(workload, plain))
        units = dict(PER_LAYER)
        for name, unit_name in PER_LAYER:
            log(f"#   {name:<48} {metrics[name]:>14.6g} {unit_name}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("expert_demos", "train", "closed_loop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
        result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except Exception as e:  # noqa: BLE001 - no result is printed on a crash
        traceback.print_exc()
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
