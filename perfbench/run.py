"""Benchmark of the qirb command line: design -> simulate -> analyze -> predict.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload n20-wide --seed 1 --seconds 50 --trace 0

The workload's commands run in this process through ``qirb.cli.main``,
repeated on fresh seeded inputs until ``--seconds`` have passed; each
timing is the median over the repetitions.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` follows every untraced repetition with a
traced one on the same inputs and reports the per-layer metrics.  Every
command's exit code and every output file is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")

NOISE_ARGS = ("--f1q", "0.999", "--f2q", "0.995", "--mcm-flip", "0.02")
BOOTSTRAP = 100
SETUP_SAMPLES = 8  # fewest cold starts behind one setup_s
DESIGN_MIN_S = 1.0  # least total time of the design runs in one repetition


@dataclass(frozen=True)
class Workload:
    """One sampling config and its acquisition sizes; commands run serially."""

    name: str
    n: int
    p_cnot: float
    p_mcm: float
    circuits_per_depth: int
    shots: int
    depths: tuple[int, ...] | None = None  # None keeps the CLI default
    reset: bool = True


# Shapes (n, p_cnot, p_mcm, depths, reset mode) are fixed.  Both workloads
# keep the CLI default of 15 circuits per depth: the fitted r_omega is checked
# against its bootstrap sigma, which resamples circuits, and fewer circuits
# make that sigma too small (see NOTES.md, "Circuits per depth").
WORKLOADS = {
    w.name: w
    for w in (
        # The gate axis: per-gate loops and noise draws in simulate, and
        # large circuit and results files through builder and serialize.
        Workload("n20-wide", n=20, p_cnot=0.35, p_mcm=0.2, circuits_per_depth=15, shots=100),
        # The shot axis: outcome counting and the reset-free frame correction.
        Workload("n2-shots-resetfree", n=2, p_cnot=0.35, p_mcm=0.2, circuits_per_depth=15,
                 shots=4_000, depths=(16, 128), reset=False),
    )
}


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_checkout() -> None:
    """Import qirb from this checkout's ``src``, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "qirb", "cli.py")):
        _fail_setup(f"no qirb sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import qirb

    if os.path.dirname(os.path.abspath(qirb.__file__)) != os.path.join(SRC, "qirb"):
        _fail_setup(f"imported qirb from {qirb.__file__}, not from {SRC}")


def source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(BENCHMARK_JSON) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def measure_setup(checks) -> float:
    """Seconds for a fresh interpreter to ``import qirb.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import qirb.cli"], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    seconds = time.perf_counter() - t0
    checks.check(proc.returncode == 0, f"import qirb.cli exited {proc.returncode}: "
                 f"{proc.stderr.decode(errors='replace')[-300:]}")
    return seconds


def call_cli(argv: list[str]) -> tuple[int, str]:
    """``qirb.cli.main(argv)`` with its output captured; returns (exit code, output)."""
    from qirb import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            code = -1
            buf.write(f"{type(exc).__name__}: {exc}")
    return code, buf.getvalue()


def workload_commands(w: Workload, seed: int, work: str) -> list[tuple[str, list[str]]]:
    """(command, argv) pairs of one repetition, in the order they run."""
    shape = ["--n", str(w.n), "--p-cnot", str(w.p_cnot), "--p-mcm", str(w.p_mcm)]
    if not w.reset:
        shape.append("--no-reset")
    depths = ["--depths", ",".join(map(str, w.depths))] if w.depths else []
    results = os.path.join(work, "results.json")
    return [
        ("design", ["design", *shape, *depths, "--circuits-per-depth", str(w.circuits_per_depth),
                    "--shots", str(w.shots), "--seed", str(seed),
                    "--out", os.path.join(work, "design")]),
        ("simulate", ["simulate", "--circuits", os.path.join(work, "design", "circuits.json"),
                      *NOISE_ARGS, "--threads", "1", "--out", results]),
        ("analyze", ["analyze", results, "--bootstrap", str(BOOTSTRAP), "--seed", str(seed),
                     "--out", os.path.join(work, "report")]),
        ("predict", ["predict", *shape, *NOISE_ARGS, *depths,
                     "--out", os.path.join(work, "prediction.json")]),
    ]


def input_seed(seed: int, rep: int) -> int:
    """The design and analysis seed of repetition ``rep`` of a run seeded ``seed``.

    Each repetition samples fresh inputs: analysis time depends on the
    sampled data, so a median over several input sets varies less from one
    ``--seed`` to the next than one input set does.
    """
    digest = hashlib.sha256(f"{seed}/{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def run_repetition(w: Workload, seed: int, work: str, checks, tracer=None) -> dict[str, float]:
    """One repetition of the workload; returns seconds per command and ``wall``.

    Untraced, a ``design`` shorter than ``DESIGN_MIN_S`` is run again into
    the same directory until its runs add up to that much, and its time is
    their median: a command of a quarter second otherwise samples the
    machine's speed at too few instants of the run.  ``wall`` counts each
    command once.
    """
    os.makedirs(work)
    times = {}
    gc.collect()
    for command, argv in workload_commands(w, seed, work):
        runs = []
        while not runs or (command == "design" and not tracer and sum(runs) < DESIGN_MIN_S):
            t0 = time.perf_counter()
            span = tracer.begin(f"cli.{command}") if tracer else None
            code, output = call_cli(argv)
            if tracer:
                tracer.end(span)
            runs.append(time.perf_counter() - t0)
            checks.check(code == 0, f"qirb {' '.join(argv)} exited {code}: {output[-500:]}")
        times[command] = median(runs)
    times["wall"] = sum(times.values())
    return times


def check_outputs(work: str, checks) -> float:
    """Shot totals, oracle agreement and fit-vs-prediction; returns |z| of the oracle."""
    import checks as ck
    from qirb.simulator import NoiseModel

    noise = NoiseModel.depolarizing(f1q=0.999, f2q=0.995, mcm_flip=0.02)
    results = os.path.join(work, "results.json")
    prediction = os.path.join(work, "prediction.json")
    report = os.path.join(work, "report", "report.json")
    curve = os.path.join(work, "report", "results.curve.csv")
    if not checks.check(all(map(os.path.isfile, (results, prediction, report, curve))),
                        f"{work}: an output file is missing"):
        return 0.0
    z = ck.check_results_file(checks, results, noise)
    with open(report) as f:
        entries = json.load(f)["configs"]
    with open(prediction) as f:
        predicted = json.load(f)
    if checks.check(len(entries) == 1, f"{report}: expected one config"):
        ck.check_fit(checks, entries[0], predicted)
    return abs(z)


def digest_store(sources: str, w: Workload, seed: int) -> str:
    """Where the output digests of one repetition are kept across runs.

    The key is the hash of ``src/`` and of the repetition's argv with its
    work directory left out: every input that shapes the output files.
    """
    argv = json.dumps(workload_commands(w, seed, "WORK"))
    return os.path.join(OUT, "digests", sources,
                        hashlib.sha256(argv.encode()).hexdigest()[:16] + ".json")


def check_digests(checks, work: str, store: str, reference: dict | None = None) -> dict:
    """Digests of one repetition's files, compared with ``reference`` and with
    every earlier run of the same sources and argv."""
    import checks as ck

    got = ck.file_digests(work)
    if reference is not None:
        ck.compare_digests(checks, got, reference, "traced vs untraced repetition")
    if os.path.isfile(store):
        with open(store) as f:
            ck.compare_digests(checks, got, json.load(f), "earlier run")
    else:
        os.makedirs(os.path.dirname(store), exist_ok=True)
        tmp = f"{store}.{os.getpid()}.tmp"
        with open(tmp, "w") as f:
            json.dump(got, f, indent=1, sort_keys=True)
        os.replace(tmp, store)
    return got


def median(values) -> float:
    return float(statistics.median(values))


def _sum(tr, name: str, attr: str | None = None, file: str | None = None) -> float:
    """Total duration (or ``attr``) of the spans called ``name``, optionally of one file."""
    return sum(s.attrs.get(attr, 0) if attr else s.duration
               for s in tr.spans
               if s.name == name and (file is None or s.attrs.get("file") == file))


def traced_metrics(tr) -> dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    import tracing

    sim_s = _sum(tr, "simulator.simulate_result")
    gate_shots = _sum(tr, "simulator.simulate_result", "gate_shots")
    m = {
        "sampler.sample_s": _sum(tr, "sampler.sample_core_circuit"),
        "sampler.layers": _sum(tr, "sampler.sample_core_circuit", "layers"),
        "builder.build_s": _sum(tr, "builder.build_qirb_circuit"),
        "builder.gates": _sum(tr, "builder.build_qirb_circuit", "gates"),
        "builder.mcms": _sum(tr, "builder.build_qirb_circuit", "mcms"),
        "serialize.write_s": _sum(tr, "serialize.write_json"),
        "serialize.read_s": _sum(tr, "serialize.read_json"),
        "serialize.bytes_written": _sum(tr, "serialize.write_json", "bytes"),
        "serialize.to_obj_s": _sum(tr, "serialize.circuit_to_obj"),
        "serialize.from_obj_s": _sum(tr, "serialize.circuit_from_obj"),
        "serialize.results_write_s": _sum(tr, "serialize.write_json", file="results.json"),
        "serialize.results_read_s": _sum(tr, "serialize.read_json", file="results.json"),
        "serialize.results_bytes": _sum(tr, "serialize.write_json", "bytes", file="results.json"),
        "simulator.simulate_s": sim_s,
        "simulator.calls": tr.calls.get("simulator.simulate_result", 0),
        "simulator.gate_shots": gate_shots,
        "simulator.gate_shots_per_s": gate_shots / sim_s if sim_s > 0 else 0.0,
        "simulator.count_keys": _sum(tr, "simulator.simulate_result", "count_keys"),
        "pipeline.overhead_s": _sum(tr, "pipeline.simulate_design") - sim_s,
        "analysis.fit_decay_s": _sum(tr, "analysis.fit_decay"),
        "analysis.fit_decay_calls": tr.calls.get("analysis.fit_decay", 0),
        "analysis.bootstrap_decay_s": _sum(tr, "analysis.bootstrap_decay"),
        "analysis.bootstrap_dropped": _sum(tr, "analysis.bootstrap_decay", "dropped"),
        "theory.predict_s": _sum(tr, "theory.predict_r_omega"),
    }
    for layer, seconds in tracing.layer_self_times(tr.spans).items():
        m[f"{layer}.self_s"] = seconds
    return m


def simulate_probes(jobs) -> dict[str, float]:
    """Split simulate time by re-running each traced call three ways.

    kernel: zero noise, no counts; noise: noisy without counts minus kernel;
    aggregate: noisy with counts minus noisy without.
    """
    import qirb.simulator as sim

    zero = sim.NoiseModel.zero()
    kernel = no_counts = with_counts = 0.0
    for args, kwargs in jobs:
        circuit, noise, shots, seed = args[:4]
        mode = kwargs.get("reset_free_mode", "frame-correction")
        t0 = time.perf_counter()
        sim.simulate_result(circuit, zero, shots, seed, reset_free_mode=mode, with_counts=False)
        t1 = time.perf_counter()
        sim.simulate_result(circuit, noise, shots, seed, reset_free_mode=mode, with_counts=False)
        t2 = time.perf_counter()
        sim.simulate_result(circuit, noise, shots, seed, reset_free_mode=mode, with_counts=True)
        t3 = time.perf_counter()
        kernel += t1 - t0
        no_counts += t2 - t1
        with_counts += t3 - t2
    return {
        "simulator.kernel_s": kernel,
        "simulator.noise_s": no_counts - kernel,
        "simulator.aggregate_s": with_counts - no_counts,
    }


def _append(samples: dict[str, list[float]], values: dict[str, float]) -> None:
    for key, value in values.items():
        samples.setdefault(key, []).append(value)


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload for ``seconds``; returns the detail and result objects."""
    import checks as ck
    import tracing

    checks = ck.Checks()
    name = f"{w.name}-seed{seed}"
    work = os.path.join(OUT, "work", f"{name}-{os.getpid()}")
    sources = source_digest()
    setup = []
    samples: dict[str, list[float]] = {}
    tracers = []
    sim_calls = []

    def keep_sim_call(span_name, args, kwargs, result):
        if span_name == "simulator.simulate_result":
            sim_calls.append((args, kwargs))

    try:
        reps = []
        rep_seconds = []
        start = time.perf_counter()
        # Start a repetition only if a typical one still ends within ``seconds``.
        while not reps or time.perf_counter() - start + median(rep_seconds) <= seconds:
            rep = len(reps)
            rep_start = time.perf_counter()
            rep_dir = os.path.join(work, f"rep{rep}")
            rep_store = digest_store(sources, w, input_seed(seed, rep))
            if not trace:
                # One cold start per repetition spreads them over the run.
                setup.append(measure_setup(checks))
            _append(samples, run_repetition(w, input_seed(seed, rep), rep_dir, checks))
            digests = check_digests(checks, rep_dir, rep_store)
            reps.append(rep_dir)
            if trace:
                sim_calls.clear()
                tr = tracing.Tracer(on_call=keep_sim_call)
                with tr:
                    traced = run_repetition(w, input_seed(seed, rep), rep_dir + "-traced",
                                            checks, tracer=tr)
                check_digests(checks, rep_dir + "-traced", rep_store, reference=digests)
                tracers.append(tr)
                missing = tracing.missing_calls(tr.calls)
                checks.check(not missing, f"traced functions recorded no call: {missing}")
                samples.setdefault("traced_wall", []).append(traced["wall"])
                _append(samples, traced_metrics(tr))
                _append(samples, simulate_probes(sim_calls))
            rep_seconds.append(time.perf_counter() - rep_start)
        # A run of few long repetitions tops up the cold starts.
        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(checks))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for rep_dir in reps:
            check_tracer = tracing.Tracer()
            with check_tracer:
                z = check_outputs(rep_dir, checks)
            _append(samples, {
                "theory.oracle_z": z,
                "theory.exact_s": _sum(check_tracer, "theory.exact_success_expectation"),
            })
    finally:
        if os.path.exists(work):
            shutil.rmtree(work)

    units = metric_units("per_layer" if trace else "end_to_end")
    if trace:
        values = {key: samples[key] for key in units if key in samples}
        values["theory.oracle_z_max"] = [max(samples["theory.oracle_z"])]
        values["trace.overhead_s"] = [median(samples["traced_wall"]) - median(samples["wall"])]
        trace_path = os.path.join(OUT, "trace", f"{name}.json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        with open(trace_path, "w") as f:
            json.dump({"workload": w.name, "seed": seed,
                       "repetitions": [tr.to_obj() for tr in tracers]}, f)
    else:
        # ``analyze_s`` is reported in the detail line only: see NOTES.md.
        values = {
            "setup_s": setup,
            "design_s": samples["design"],
            "simulate_s": samples["simulate"],
            "analyze_s": samples["analyze"],
            "wall_s": samples["wall"],
            "peak_rss_mb": [peak_rss_mb],
        }
    missing = [key for key in units if not values.get(key)]
    checks.check(not missing, f"metrics without samples: {missing}")
    metrics = {key: {"value": median(values[key]) if values.get(key) else 0.0, "unit": unit}
               for key, unit in units.items()}
    return {
        "detail": {"workload": w.name, "seed": seed, "trace": trace, "samples": values,
                   "failures": checks.failures[:20]},
        "result": {"correct": checks.failed == 0, "attempted": checks.attempted,
                   "failed": checks.failed, "metrics": metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_checkout()
    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for failure in out["detail"]["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
