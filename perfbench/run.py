"""End-to-end and per-layer benchmark of the grpd command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {leavitt,analyze,actions} --seed N \
        --seconds S --trace {0,1}

One process runs one workload.  It imports grpd from `src/`, writes the
workload's seeded input files under `perfbench/out/`, and then passes over
the fixed, ordered list of calls again and again until S seconds have been
measured, always finishing the pass it is in.  Each call is
`grpd.cli.main(["--json", verb, ...])` in-process, and its report is
checked against answers computed apart from grpd (see `inputs.py`).

Times are reported at a reference machine speed.  This VM's speed drifts
by up to 2x under sustained load, so a speed probe (a fixed exact Gaussian
elimination in the benchmark's own code) runs between calls, at most every
PROBE_EVERY seconds, and each call's time is scaled by REF_SECONDS / the
mean of the probes just before and just after it.  The set-up rounds are
scaled the same way.  Raw wall times go to stderr.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` passes alternate between untraced and
traced ones, the per-layer metrics are printed instead, and the spans of
the first traced pass are written to `perfbench/out/trace-<workload>-<seed>.json`.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

# The speed probe: the rank of a fixed 16x16 rational matrix, the same kind
# of interpreter work (Fraction arithmetic, list building) that grpd does.
PROBE = [[Fraction((7 * i + 13 * j) % 17 - 8, 1 + (i * j) % 5) for j in range(16)]
         for i in range(16)]
PROBE_EVERY = 0.1
REF_SECONDS = 0.01  # reported times are wall times on a machine where one probe takes this


class Speed:
    """Probe times, taken only between timed intervals."""

    def __init__(self):
        self.samples = []
        self.last = 0.0

    def probe(self):
        t0 = time.perf_counter()
        oracle.rank(PROBE)
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def maybe_probe(self):
        """Probe unless one ran within PROBE_EVERY; returns the index of the latest probe."""
        if not self.samples or time.perf_counter() - self.last >= PROBE_EVERY:
            self.probe()
        return len(self.samples) - 1

    def scale(self, before):
        """Factor turning the wall seconds of an interval into reference seconds.

        `before` is the index of the latest probe before the interval; the
        next probe is the first after it, since probes never run inside one.
        """
        return REF_SECONDS / ((self.samples[before] + self.samples[before + 1]) / 2)


def fresh_import():
    """Import grpd from this checkout's src/, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "grpd" or m.startswith("grpd.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("grpd.cli")
    if Path(cli.__file__).resolve().parent != SRC / "grpd":
        raise ImportError(f"grpd was imported from {cli.__file__}, not from {SRC}")
    return cli


def write_inputs(workload, seed, directory):
    files, cases = inputs.WORKLOADS[workload](seed)
    directory.mkdir(parents=True, exist_ok=True)
    for name, obj in files.items():
        (directory / name).write_text(json.dumps(obj, sort_keys=True))
    return cases


def setup(workload, seed, directory, speed):
    """Import plus input generation, repeated; returns (cli module, cases, scaled times)."""
    timed = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        before = len(speed.samples) - 1
        t0 = time.perf_counter()
        cli = fresh_import()
        cases = write_inputs(workload, seed, directory)
        timed.append((before, time.perf_counter() - t0))
    speed.probe()
    return cli, cases, [dt * speed.scale(before) for before, dt in timed]


# -- checking a report against the expected answers ----------------------------------


def normalise(key, value):
    if value is None:
        return None
    if key in ("blocks", "block_sizes"):
        return sorted(value)
    if key == "artinian":
        return value.split(":")[0]
    if key == "hereditary_saturated":
        return sorted(sorted(h) for h in value)
    return value


def mismatches(case, expect, code, out):
    if code != case.code:
        return [f"exit code {code}, expected {case.code}"]
    try:
        report = json.loads(out)
    except ValueError:
        return ["output is not JSON"]
    if "rules" in expect:
        report = dict(report, rules=sorted({v["rule"] for v in report.get("violations", [])}))
    bad = []
    for key, want in expect.items():
        got = normalise(key, report.get(key))
        if got != normalise(key, want):
            bad.append(f"{key}: got {got!r}, expected {normalise(key, want)!r}")
    return bad


def call(cli, argv):
    """One in-process CLI call; returns (seconds, exit code, stdout).

    An exception escaping grpd is a wrong answer of this call, not the end of
    the run: it comes back as the exit code "raised <exception>".
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code
        except Exception as exc:
            code = f"raised {exc!r}"
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue()


class Run:
    def __init__(self, cli, cases, directory, speed):
        self.cli = cli
        self.cases = cases
        self.speed = speed
        self.argvs = [["--json"] + [str(directory / a[1:]) if a.startswith("@") else a
                                    for a in c.argv] for c in cases]
        self.expect = [c.expect() if callable(c.expect) else c.expect for c in cases]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors = {}
        self.call_times = [[] for _ in cases]

    def one_pass(self, tracer=None):
        """Every call once, in order; returns (pass time at reference speed, wall pass time)."""
        gc.collect()
        timed = []
        for i, (case, argv) in enumerate(zip(self.cases, self.argvs)):
            before = self.speed.maybe_probe()
            if tracer is not None:
                tracer.op = i
            dt, code, out = call(self.cli, argv)
            timed.append((before, dt))
            self.attempted += 1
            bad = mismatches(case, self.expect[i], code, out)
            if bad:
                self.failed += 1
                if not case.known_fault:
                    self.correct = False
                self.errors.setdefault(case.name, bad)
        self.speed.probe()
        scaled = [dt * self.speed.scale(before) for before, dt in timed]
        if tracer is None:
            for i, t in enumerate(scaled):
                self.call_times[i].append(t)
        return sum(scaled), sum(dt for _, dt in timed)


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def end_to_end_metrics(setup_times, pass_times, call_times):
    """name -> (value, unit) for the untraced run, times at reference speed."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "op_geomean_s": (geomean([statistics.median(t) for t in call_times]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(layer_samples, plain, traced):
    """name -> (value, unit) for the traced run: medians over the traced passes."""
    metrics = {}
    for key in layer_samples[0]:
        unit = "s" if key.endswith("_s") else "count"
        metrics[key] = (statistics.median(s[key] for s in layer_samples), unit)
    untraced, with_trace = statistics.median(plain), statistics.median(traced)
    metrics["trace.untraced_pass_s"] = (untraced, "s")
    metrics["trace.traced_pass_s"] = (with_trace, "s")
    metrics["trace.overhead_s"] = (with_trace - untraced, "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "grpd" / "__init__.py").is_file():
        print(f"grpd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    directory = OUT / f"{args.workload}-{args.seed}"
    speed = Speed()
    cli, cases, setup_times = setup(args.workload, args.seed, directory, speed)
    run = Run(cli, cases, directory, speed)

    tracer = Tracer() if args.trace else None
    plain, wall, traced, layer_samples = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        scaled, raw = run.one_pass()
        plain.append(scaled)
        wall.append(raw)
        if tracer is not None:
            patches = tracer.install("grpd")
            tracer.reset()
            tracer.record = not traced
            try:
                scaled, wall_traced = run.one_pass(tracer)
            finally:
                tracer.record = False
                Tracer.uninstall(patches)
            traced.append(scaled)
            scale = scaled / wall_traced  # spans cross calls, so the pass's mean scale
            layer_samples.append({k: v * scale if k.endswith("_s") else v
                                  for k, v in tracer.snapshot().items()})
        if time.perf_counter() >= deadline:
            break

    for name, bad in run.errors.items():
        print(f"{name}: {'; '.join(bad)}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(plain)} passes of {len(cases)} calls; "
          f"wall s per untraced pass {' '.join(f'{t:.3f}' for t in wall)}; "
          f"at reference speed {' '.join(f'{t:.3f}' for t in plain)}; "
          f"{len(speed.samples)} probes", file=sys.stderr)
    for case, times in zip(cases, run.call_times):
        print(f"  {case.name:24s} median {statistics.median(times):.4f} s at reference speed",
              file=sys.stderr)

    if tracer is None:
        metrics = end_to_end_metrics(setup_times, plain, run.call_times)
    else:
        metrics = per_layer_metrics(layer_samples, plain, traced)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(tracer.dump({
            "workload": args.workload, "seed": args.seed,
            "cases": [c.name for c in cases]})))
        print(f"spans of the first traced pass: {path}", file=sys.stderr)

    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
