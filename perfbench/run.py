"""rfdna benchmark: runs one workload through the `rfdna` CLI in this process.

    python3 perfbench/run.py --workload cls-l5-nm --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports the package from `src/`.  With
`--trace 0` it repeats the workload's CLI run with the same seed for
`--seconds` seconds (at least twice), checks every run's output and prints
the end-to-end metrics.  With `--trace 1` it alternates untraced and traced
runs and prints the per-layer metrics taken from the traced ones.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  See perfbench/README.md for the workloads and the metrics.
"""

import os
import sys
import time

_START = time.perf_counter()

# one process, one thread: BLAS and OpenMP pools are read at numpy import
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import bench_checks  # noqa: E402
import bench_layers  # noqa: E402
import bench_trace  # noqa: E402
from bench_adapter import import_package  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD_SETUPS = 4  # set-ups in fresh processes, besides this process's own


@dataclass(frozen=True)
class Workload:
    command: str
    channel: str
    snr_grid: tuple
    settings: dict

    @property
    def realizations(self) -> int:
        return self.settings["n_noise_realizations"]

    def config_text(self, seed: int) -> str:
        lines = ["[experiment]", f"channel = {self.channel}",
                 "snr = " + ",".join(f"{snr:g}" for snr in self.snr_grid),
                 f"seed = {seed}", "workers = 1"]
        lines += [f"{key} = {value}" for key, value in self.settings.items()]
        return "\n".join(lines) + "\n"

    def passes(self, radio_ids) -> int:
        """Received signals x noise realizations x SNR points in one CLI run."""
        if self.command == "run-est-compare":
            signals = self.settings["n_estimation_preambles"]
        else:
            signals = len(radio_ids) * self.settings["n_signals_per_radio"]
        return signals * self.realizations * len(self.snr_grid)

    def check(self, files: dict, radio_ids) -> list:
        if self.command == "run-est-compare":
            text = files.get("estimator_error.csv", b"").decode()
            n_trials = self.settings["n_estimation_preambles"] * self.realizations
            return bench_checks.check_estimator_output(text, self.snr_grid, n_trials)
        n = self.settings["n_signals_per_radio"]
        blind = n - round(0.5 * n)  # the CLI's default train fraction is 0.5
        return bench_checks.check_classify_output(files, self.snr_grid, radio_ids, blind,
                                                  self.realizations)

    def quality(self, files: dict) -> dict:
        if self.command == "run-est-compare":
            return {f"mse_{kind.lower()}_db": value
                    for kind, value in bench_checks.mean_mse_db(files).items()}
        return {"accuracy_pct": bench_checks.mean_accuracy_pct(files)}


# why each workload was chosen is in BENCHMARK.json and README.md
WORKLOADS = {
    "cls-l5-nm": Workload(
        "run-classify", "l5", (9.0, 30.0),
        dict(estimator="nm", equalizer="mmse", fingerprint="magnitude", classifier="mdaml",
             n_signals_per_radio=10, n_noise_realizations=1)),
    "cls-l2-ls-grlvqi": Workload(
        "run-classify", "l2", (9.0, 30.0),
        dict(estimator="ls", equalizer="zf", fingerprint="magnitude", classifier="grlvqi",
             n_signals_per_radio=20, n_noise_realizations=1)),
    "est-l5": Workload(
        "run-est-compare", "l5", (0.0, 10.0, 20.0, 30.0),
        dict(n_estimation_preambles=20, n_noise_realizations=2)),
}

# a tiny run of each command reaches every layer once, kept out of the timings;
# MDA/ML needs more rows than a tiny run has, so it is warmed up directly
WARMUP_RUNS = (
    ("run-est-compare", "[experiment]\nchannel = l2\nsnr = 30\nseed = 0\nworkers = 1\n"
                        "n_estimation_preambles = 1\nn_noise_realizations = 1\n"),
    ("run-classify", "[experiment]\nchannel = l2\nsnr = 30\nseed = 0\nworkers = 1\n"
                     "estimator = ls\nequalizer = zf\nclassifier = grlvqi\n"
                     "n_signals_per_radio = 4\nn_noise_realizations = 1\nk_folds = 2\n"
                     "n_candidates = 4\n"),
)


class SetupError(RuntimeError):
    pass


def run_cli(cli, command: str, config_path: str, out_dir: str):
    """One CLI run; returns (wall_s, cpu_s, error or None)."""
    argv = [command, "--config", config_path, "--out", out_dir]
    wall, cpu = time.perf_counter(), time.process_time()
    error = None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            error = f"exit code {code}"
    except SystemExit as exc:
        error = f"exit code {exc.code}"
    except Exception as exc:  # a failed run counts its passes as failed
        error = repr(exc)
    return time.perf_counter() - wall, time.process_time() - cpu, error


def read_outputs(out_dir: str) -> dict:
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def write_text(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def setup(work_dir: str):
    """Import rfdna (through the adapter) and warm every layer up once.

    Returns (rfdna module, adapter engaged, set-up seconds since start).
    """
    if not os.path.isfile(os.path.join(SRC, "rfdna", "__init__.py")):
        raise SetupError(f"no rfdna package under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    rfdna, engaged = import_package("rfdna")
    importlib.import_module("rfdna.cli")  # the package does not import its CLI
    for i, (command, text) in enumerate(WARMUP_RUNS):
        config = write_text(os.path.join(work_dir, f"warmup{i}.cfg"), text)
        _wall, _cpu, error = run_cli(rfdna.cli, command, config,
                                     os.path.join(work_dir, f"warmup{i}"))
        if error:
            raise SetupError(f"warm-up {command} failed: {error}")
    import numpy as np
    rows = np.random.default_rng(0).standard_normal((32, 1084))  # default fingerprint width
    rfdna.classify.mda_fit(rows, np.repeat(np.array(["a", "b", "c", "d"]), 8), 1.0)
    return rfdna, engaged, time.perf_counter() - _START


def child_setup_seconds() -> float:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SetupError(f"set-up in a fresh process failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def environment(rfdna, engaged: bool) -> dict:
    import numpy
    import scipy

    def blas(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "workers": 1, "adapter_engaged": engaged,
            "rfdna": getattr(rfdna, "__version__", None)}


class Runs:
    """The CLI runs of one invocation and the checks on their outputs."""

    def __init__(self, workload: Workload, cli, radio_ids, config_path: str, work_dir: str):
        self.workload, self.cli, self.radio_ids = workload, cli, radio_ids
        self.config_path, self.work_dir = config_path, work_dir
        self.passes = workload.passes(radio_ids)
        self.reference = None
        self.attempted = self.failed = 0
        self.errors = []

    def run(self, label: str):
        out_dir = os.path.join(self.work_dir, label)
        wall, cpu, error = run_cli(self.cli, self.workload.command, self.config_path, out_dir)
        errors = [error] if error else []
        if not errors:
            files = read_outputs(out_dir)
            if self.reference is None:
                errors = self.workload.check(files, self.radio_ids)
                self.reference = files
            else:
                errors = bench_checks.compare_outputs(self.reference, files)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += self.passes
        if errors:
            self.failed += self.passes
            self.errors.extend(f"{label}: {e}" for e in errors)
        return wall, cpu


def end_to_end(runs: Runs, seconds: float, setups: list) -> tuple:
    walls, cpus = [], []
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start < seconds:
        wall, cpu = runs.run(f"run{len(walls)}")
        walls.append(wall)
        cpus.append(cpu)
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "cpu_s": statistics.median(cpus),
        "passes_per_s": runs.passes / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_pct": 100.0 * (runs.attempted - runs.failed) / runs.attempted,
    }
    return metrics, {"walls": walls, "cpus": cpus, "setups": setups}


def traced(runs: Runs, rfdna, workload: Workload, seconds: float) -> tuple:
    expected_offset = int(rfdna.channel.SHIPPED_PROFILES[workload.channel].delays_samples()[0])
    tracer = bench_trace.Tracer()
    plain, wrapped = [], []
    start = time.perf_counter()
    while not wrapped or time.perf_counter() - start < seconds:
        plain.append(runs.run(f"plain{len(plain)}")[0])
        bench_layers.install(tracer, rfdna, expected_offset)
        try:
            wrapped.append(runs.run(f"traced{len(wrapped)}")[0])
        finally:
            tracer.unwrap_all()
    metrics = bench_layers.metrics(tracer, len(wrapped))
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(wrapped)
                                             / statistics.median(plain) - 1.0)
    # the measured overhead is within host noise; this is the tracer's own cost
    metrics["trace.overhead_est_pct"] = (100.0 * metrics["trace.spans"]
                                         * bench_trace.wrapper_cost() / statistics.median(plain))
    return metrics, {"plain_walls": plain, "traced_walls": wrapped,
                     "observer_errors": tracer.counters.get("observer_errors", 0)}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_only and args.workload is None:
        parser.error("--workload is required")

    work_dir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        try:
            rfdna, engaged, own_setup = setup(work_dir)
        except (SetupError, ImportError) as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0

        workload = WORKLOADS[args.workload]
        radio_ids = [radio.id for radio in rfdna.signal_model.REFERENCE_RADIOS]
        config = write_text(os.path.join(work_dir, "workload.cfg"),
                            workload.config_text(args.seed))
        runs = Runs(workload, rfdna.cli, radio_ids, config, work_dir)
        if args.trace:
            metrics, detail = traced(runs, rfdna, workload, args.seconds)
        else:
            try:
                setups = [own_setup] + [child_setup_seconds() for _ in range(CHILD_SETUPS)]
            except (SetupError, subprocess.TimeoutExpired) as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 2
            metrics, detail = end_to_end(runs, args.seconds, setups)
        quality = workload.quality(runs.reference) if runs.reference and not runs.errors else {}
        if args.trace:
            for name in ("accuracy_pct", "mse_ls_db", "mse_mmse_db", "mse_nm_db"):
                metrics[f"result.{name}"] = quality.get(name, 0.0)

        spec = load_spec()
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if set(units) != set(metrics):
            print(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json "
                  f"{sorted(units)}", file=sys.stderr)
            return 2
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        info = {"workload": args.workload, "seed": args.seed, "why": why.get(args.workload),
                "passes_per_run": runs.passes, "quality": quality, "errors": runs.errors[:20],
                "environment": environment(rfdna, engaged), **detail}
        for error in runs.errors[:20]:
            print(f"perfbench: {error}", file=sys.stderr)
        print(json.dumps({"info": info}))
        print(json.dumps({
            "correct": runs.failed == 0 and runs.attempted > 0,
            "attempted": runs.attempted,
            "failed": runs.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


if __name__ == "__main__":
    sys.exit(main())
