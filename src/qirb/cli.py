"""Command-line front end for the full benchmarking pipeline.

Subcommands::

    qirb design    # sample an experiment: design.json + circuits.json
    qirb simulate  # run the noisy simulation: results.json
    qirb analyze   # fit decays (and the ERM across configs): report + CSV
    qirb predict   # analytic decay-rate prediction for a noise model

Exit codes: 0 success, 2 usage error, 3 file-schema mismatch, 4 degenerate
fit. ``QIRB_THREADS`` sets the default worker count for simulation.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import serialize
from .analysis import FitDegenerateError, bootstrap_decay, bootstrap_erm
from .pipeline import (
    DEFAULT_DEPTHS,
    ExperimentDesign,
    CircuitResult,
    build_design_circuits,
    decay_dataset_from_results,
    erm_data_from_results,
    simulate_design,
)
from .sampler import SamplingConfig
from .serialize import SchemaError, check_kind, read_json, stamp, write_json
from .simulator import NoiseModel
from .theory import predict_r_omega

EXIT_SCHEMA = 3
EXIT_FIT = 4


def _index(value) -> int:
    """A non-negative integer field of an input file."""
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _parse_depths(text: str) -> tuple[int, ...]:
    return tuple(int(d) for d in text.split(","))


def _load_edges(path: str) -> tuple[tuple[int, int], ...]:
    obj = read_json(path)
    edges = obj["edges"] if isinstance(obj, dict) else obj
    return tuple((int(a), int(b)) for a, b in edges)


def _noise_from_args(args) -> NoiseModel:
    if getattr(args, "noise", None):
        return serialize.noise_from_obj(check_kind(read_json(args.noise), "noise"))
    return NoiseModel.depolarizing(
        f1q=args.f1q,
        f2q=args.f2q,
        mcm_flip=args.mcm_flip,
        readout_flip=args.readout_flip,
        mcm_post_flip=args.mcm_post_flip,
        mcm_unmeasured_depol=args.mcm_depol,
    )


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noise", help="noise.json file (overrides shorthand flags)")
    p.add_argument("--f1q", type=float, default=0.999, help="single-qubit gate fidelity")
    p.add_argument("--f2q", type=float, default=0.995, help="two-qubit gate fidelity")
    p.add_argument("--mcm-flip", type=float, default=0.02, help="MCM pre-measurement bitflip rate")
    p.add_argument("--readout-flip", type=float, default=None,
                   help="final readout bitflip rate (default: the MCM rate)")
    p.add_argument("--mcm-post-flip", type=float, default=0.0)
    p.add_argument("--mcm-depol", type=float, default=0.0,
                   help="per-unmeasured-wire depolarizing rate at each MCM")


def cmd_design(args) -> int:
    connectivity = _load_edges(args.edges) if args.edges else None
    design = ExperimentDesign(
        n=args.n,
        p_cnot=args.p_cnot,
        p_mcm=args.p_mcm,
        depths=tuple(args.depths),
        circuits_per_depth=args.circuits_per_depth,
        shots=args.shots,
        connectivity=connectivity,
        reset=args.reset,
        mode=args.mode,
        seed=args.seed,
    )
    circuits = build_design_circuits(design)
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "design.json"), stamp("design", design.to_obj()))
    write_json(
        os.path.join(args.out, "circuits.json"),
        stamp(
            "circuits",
            {
                "design": design.to_obj(),
                "circuits": [
                    dict(id=cid, depth=depth, **serialize.circuit_to_obj(circ))
                    for cid, depth, circ in circuits
                ],
            },
        ),
    )
    print(f"wrote {len(circuits)} circuits to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    obj = check_kind(read_json(args.circuits), "circuits")
    with serialize.malformed_as_schema_error(args.circuits):
        design = ExperimentDesign.from_obj(obj["design"])
        entries = [(_index(e["id"]), _index(e["depth"]), e) for e in obj["circuits"]]
    circuits = [(cid, depth, serialize.circuit_from_obj(e)) for cid, depth, e in entries]
    noise = _noise_from_args(args)
    results = simulate_design(
        circuits,
        noise,
        design,
        seed=args.seed,
        reset_free_mode=args.reset_free_mode,
        threads=args.threads,
    )
    payload = {
        "design": design.to_obj(),
        "noise": serialize.noise_to_obj(noise),
        "reset_free_mode": args.reset_free_mode,
        "results": [
            {
                "id": r.circuit_id,
                "depth": r.depth,
                "n_success": r.result.n_success,
                "n_fail": r.result.n_fail,
                "counts": r.result.counts,
                "circuit": serialize.circuit_to_obj(r.circuit),
            }
            for r in results
        ],
    }
    write_json(args.out, stamp("results", payload))
    total = sum(r.result.n_success for r in results)
    shots = sum(r.result.shots for r in results)
    print(f"wrote {args.out} ({len(results)} circuits, {total}/{shots} successes)")
    return 0


def _load_results(path: str) -> tuple[dict, list[CircuitResult]]:
    from .simulator import SimResult

    obj = check_kind(read_json(path), "results")
    results = []
    with serialize.malformed_as_schema_error(path):
        ExperimentDesign.from_obj(obj["design"])
        for entry in obj["results"]:
            circ = serialize.circuit_from_obj(entry["circuit"])
            res = SimResult(
                shots=entry["n_success"] + entry["n_fail"],
                n_success=_index(entry["n_success"]),
                n_fail=_index(entry["n_fail"]),
                counts=entry.get("counts"),
            )
            results.append(CircuitResult(_index(entry["id"]), _index(entry["depth"]), circ, res))
    return obj, results


def _input_labels(paths: list[str]) -> list[tuple[str, str]]:
    """(report source, curve CSV stem) per input: file name and stem, or, for
    inputs whose stems collide, the path and the stem suffixed by the 1-based
    input position, so that no curve overwrites another."""
    stems = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    taken = {s for s in stems if stems.count(s) == 1}
    labels = []
    for i, (path, stem) in enumerate(zip(paths, stems)):
        if stems.count(stem) == 1:
            labels.append((os.path.basename(path), stem))
            continue
        name = f"{stem}-{i + 1}"
        while name in taken:
            name += f"-{i + 1}"
        taken.add(name)
        labels.append((os.path.normpath(path), name))
    return labels


def cmd_analyze(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    report_configs = []
    per_config_results = []
    for path, (source, stem) in zip(args.results, _input_labels(args.results)):
        obj, results = _load_results(path)
        per_config_results.append(results)
        data = decay_dataset_from_results(results)
        fit = bootstrap_decay(data, args.bootstrap, seed=args.seed)
        stats = data.depth_stats()
        rows = ["depth,mean,stderr,n_circuits"]
        for s in stats:
            rows.append(f"{s.depth},{s.mean!r},{s.stderr!r},{len(s.f_values)}")
        csv_path = os.path.join(args.out, f"{stem}.curve.csv")
        tmp = csv_path + ".tmp"
        with open(tmp, "w") as f:
            f.write("\n".join(rows) + "\n")
        os.replace(tmp, csv_path)
        report_configs.append(
            {
                "source": source,
                "design": obj["design"],
                "amplitude": fit.amplitude,
                "r_omega": fit.r_omega,
                "bootstrap_sigma": fit.bootstrap_sigma,
                "residual": fit.residual,
                "per_depth": [
                    {"depth": s.depth, "mean": s.mean, "stderr": s.stderr,
                     "n_circuits": len(s.f_values)}
                    for s in stats
                ],
            }
        )
    erm_entry = None
    if len(args.results) > 1:
        data = erm_data_from_results(per_config_results)
        params, residual, sigma = bootstrap_erm(data, args.erm_bootstrap, seed=args.seed)
        erm_entry = {
            "eps_1q": params.eps_1q,
            "eps_2q": params.eps_2q,
            "eps_mcm": params.eps_mcm,
            "eps_spam": params.eps_spam,
            "residual": residual,
            "sigma": sigma,
            "note": "single-config fits are poorly conditioned; fit spans all inputs",
        }
    write_json(
        os.path.join(args.out, "report.json"),
        stamp("report", {"configs": report_configs, "erm": erm_entry}),
    )
    for entry in report_configs:
        sig = entry["bootstrap_sigma"]
        print(f"{entry['source']}: r_omega = {entry['r_omega']:.6f} +/- {sig:.6f}")
    if erm_entry:
        print(
            "erm: eps_1q = {eps_1q:.6f}, eps_2q = {eps_2q:.6f}, eps_mcm = {eps_mcm:.6f}".format(**erm_entry)
        )
    return 0


def cmd_predict(args) -> int:
    connectivity = _load_edges(args.edges) if args.edges else None
    config = SamplingConfig(
        n=args.n,
        p_cnot=args.p_cnot,
        p_mcm=args.p_mcm,
        connectivity=connectivity,
        reset=args.reset,
        mode=args.mode,
    )
    noise = _noise_from_args(args)
    warnings = []
    prediction = predict_r_omega(noise, config)
    if prediction.method != "closed-form":
        warnings.append("density-mode prediction computed by Monte Carlo over sampled layers")
    depths = tuple(args.depths)
    payload = {
        "n": args.n,
        "p_cnot": args.p_cnot,
        "p_mcm": args.p_mcm,
        "noise": serialize.noise_to_obj(noise),
        "r_omega": prediction.r_omega,
        "eps_omega": prediction.eps_omega,
        "bound_lower": prediction.bound_lower,
        "bound_upper": prediction.bound_upper,
        "method": prediction.method,
        "mc_stderr": prediction.mc_stderr,
        "curve": [
            {"depth": d, "fbar": v}
            for d, v in zip(depths, prediction.fbar_curve(args.amplitude, depths))
        ],
        "warnings": warnings,
    }
    if args.out:
        write_json(args.out, stamp("prediction", payload))
    else:
        import json

        print(json.dumps(payload, sort_keys=True, indent=1))
    print(
        f"r_omega = {prediction.r_omega:.6f} in [{prediction.bound_lower:.6f}, "
        f"{prediction.bound_upper:.6f}]",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qirb", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="sample an experiment design and its circuits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depths", type=_parse_depths, default=DEFAULT_DEPTHS)
    p.add_argument("--circuits-per-depth", type=int, default=15)
    p.add_argument("--shots", type=int, default=100)
    p.add_argument("--p-cnot", type=float, required=True)
    p.add_argument("--p-mcm", type=float, required=True)
    p.add_argument("--reset", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--mode", choices=["at-most-one", "density"], default="at-most-one")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edges", help="JSON file with a connectivity edge list")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="simulate a circuits file under a noise model")
    p.add_argument("--circuits", required=True, help="circuits.json from `qirb design`")
    _add_noise_flags(p)
    p.add_argument("--seed", type=int, default=None,
                   help="simulation master seed (default: the design seed)")
    p.add_argument("--reset-free-mode", choices=["frame-correction", "feedforward-x"],
                   default="frame-correction")
    p.add_argument("--threads", type=int, default=int(os.environ.get("QIRB_THREADS", "1")))
    p.add_argument("--out", required=True, help="results.json path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="fit decay rates (and the ERM across configs)")
    p.add_argument("results", nargs="+", help="one or more results.json files")
    p.add_argument("--bootstrap", type=int, default=100)
    p.add_argument("--erm-bootstrap", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("predict", help="analytic prediction for a sampling config + noise")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-cnot", type=float, required=True)
    p.add_argument("--p-mcm", type=float, required=True)
    p.add_argument("--reset", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--mode", choices=["at-most-one", "density"], default="at-most-one")
    p.add_argument("--edges", help="JSON file with a connectivity edge list")
    _add_noise_flags(p)
    p.add_argument("--depths", type=_parse_depths, default=DEFAULT_DEPTHS)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--out", help="prediction.json path (default: stdout)")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except FitDegenerateError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
