"""crtfi campaign benchmark.

    python3 perfbench/run.py --workload order1-exhaustive --seed 42 --seconds 30 --trace 0

crtfi is imported from the `src/` of the checkout holding this script, never
from an installed copy; without it the script exits 1 before measuring.
Workloads, their parameters, the values pinned at the default seed and the
map from per-layer to end-to-end metrics live in `perfbench/spec.json`.

With `--trace 0` a run sets the workload up several times in fresh
interpreters (median is `setup_s`), sets it up once more in this process,
then repeats whole passes over its units in a closed loop until `--seconds`
would be exceeded (at least one pass). `wall_s` is the median pass time,
`plans_per_s` the median of plans scored per pass over pass time, and
`peak_rss_mb` this process's peak resident set. `failed_frac` is printed
with them; in the JSON it is `failed` / `attempted`. Times in both set-up
and passes are corrected for host speed (see hostspeed.py); the
uncorrected pass time and the host kernel time are printed as well.

With `--trace 1` a run makes one untraced set-up and pass, then installs
the span wrappers and makes one traced set-up and pass, writes the spans to
`.perfbench_out/spans-<workload>.bin` and reports per-layer self times.

Every unit's output is checked (see workloads.py); the last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import REF_KERNEL_S, HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None, help="workload seed; default from spec.json")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _load_spec() -> dict:
    return json.loads((HERE / "spec.json").read_text())


def _import_workloads():
    """Import crtfi from this checkout's src/ only."""
    if not (SRC / "crtfi" / "__init__.py").is_file():
        raise SystemExit(f"error: no crtfi sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import crtfi
    import workloads

    if Path(crtfi.__file__).resolve().parent != SRC / "crtfi":
        raise SystemExit(f"error: crtfi imported from {crtfi.__file__}, not {SRC}")
    return workloads


def _setup_probe(name: str, seed: int, workdir: str) -> int:
    """Import crtfi and set the workload up once; print corrected seconds."""

    def setup():
        workloads = _import_workloads()
        spec = _load_spec()
        workloads.WORKLOADS[name](spec["workloads"][name]["params"], seed, Path(workdir),
                                  spec["default_seed"])

    _out, _raw, corrected = HostClock().time(setup)
    print(repr(corrected))
    return 0


def _probe_setup_s(name: str, seed: int, workdir: Path, reps: int = SETUP_REPS) -> float:
    times = []
    for i in range(reps):
        d = workdir / f"probe{i}"
        d.mkdir()
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--setup-probe", str(d)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Tally:
    """Units attempted and failed, over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def _raw_timer(fn):
    t0 = perf_counter()
    out = fn()
    raw = perf_counter() - t0
    return out, raw, raw


def run_pass(wl, pins, tally: Tally, timer=_raw_timer) -> tuple[float, float, int]:
    """Time each unit, then check its output untimed.

    Returns (corrected seconds, raw seconds, plans); `timer(fn)` gives
    (result, raw, corrected), and the default timer applies no correction.
    """
    elapsed, raw_elapsed, plans = 0.0, 0.0, 0
    for label, fn in wl.units():
        tally.attempted += 1
        try:
            out, raw, corrected = timer(fn)
            elapsed += corrected
            raw_elapsed += raw
            n, bad = wl.check(label, out, pins)
        except Exception:  # a unit that raises is a failed unit; the run goes on
            traceback.print_exc(file=sys.stderr)
            tally.failed += 1
            continue
        plans += n
        if bad:
            tally.failed += 1
            for line in bad[:5]:
                print(f"{wl.name}/{label}: {line}", file=sys.stderr)
    return elapsed, raw_elapsed, plans


def measure(workloads, name: str, params: dict, seed: int, default_seed: int, pins,
            seconds: float, workdir: Path, setup_reps: int = SETUP_REPS) -> tuple[dict, Tally]:
    """The untraced run: end-to-end metrics as {name: (value, unit)}."""
    setup_s = _probe_setup_s(name, seed, workdir, setup_reps)
    wl = workloads.WORKLOADS[name](params, seed, workdir, default_seed)
    tally = Tally()
    clock = HostClock()
    t_start = perf_counter()
    times, raw_times, rates = [], [], []
    while True:
        dt, raw, plans = run_pass(wl, pins, tally, clock.time)
        times.append(dt)
        raw_times.append(raw)
        rates.append(plans / dt)
        if perf_counter() - t_start + raw > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(times), "s"),
        "plans_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"{name} seed={seed}: {len(times)} pass(es), {tally.attempted} units, "
          f"{tally.failed} failed; setup median of {setup_reps}; uncorrected wall "
          f"{statistics.median(raw_times):.4f} s at a {clock.kernel_us():.1f} us host kernel "
          f"(reference {1e6 * REF_KERNEL_S:.0f} us)")
    return metrics, tally


def trace_run(workloads, name: str, params: dict, seed: int, default_seed: int, pins,
              workdir: Path) -> tuple[dict, Tally]:
    """Untraced then traced set-up and pass: per-layer metrics as {name: (value, unit)}."""
    import tracing

    cls = workloads.WORKLOADS[name]
    tally = Tally()
    clock = HostClock()

    def setup_and_pass() -> tuple[float, float]:
        # host-corrected like the untraced run, so that the difference of the
        # two is tracing cost and not host pace; the reference kernel's
        # samples land inside whatever span is open, about 0.5% of each
        _out, raw, corrected = clock.time(
            lambda: run_pass(cls(params, seed, workdir, default_seed), pins, tally))
        return raw, corrected

    _raw, untraced = setup_and_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_raw, traced = setup_and_pass()
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{name}.bin")
    print(f"{name} seed={seed}: {len(tracer.span_start)} spans -> {OUT / f'spans-{name}.bin'}")
    return tracing.layer_metrics(tracer, traced_raw, traced - untraced), tally


def main(argv=None) -> int:
    args = _args(argv)
    spec = _load_spec()
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(spec['workloads'])}",
              file=sys.stderr)
        return 2
    seed = spec["default_seed"] if args.seed is None else args.seed
    if args.setup_probe:
        return _setup_probe(args.workload, seed, args.setup_probe)
    workloads = _import_workloads()
    params = spec["workloads"][args.workload]["params"]
    pins = spec["pins"].get(args.workload) if seed == spec["default_seed"] else None
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            metrics, tally = trace_run(workloads, args.workload, params, seed,
                                       spec["default_seed"], pins, workdir)
        else:
            metrics, tally = measure(workloads, args.workload, params, seed,
                                     spec["default_seed"], pins, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    shown = dict(metrics, failed_frac=(tally.failed / tally.attempted, "share"))
    for k, (v, unit) in shown.items():
        print(f"  {k:40s} {v:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
