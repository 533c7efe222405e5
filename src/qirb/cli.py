"""Command-line front end for the full benchmarking pipeline.

Subcommands::

    qirb design    # sample an experiment: design.json + circuits.json
    qirb simulate  # run the noisy simulation: results.json
    qirb analyze   # fit decays (and the ERM across configs): report + CSV
    qirb predict   # analytic decay-rate prediction for a noise model

Exit codes: 0 success, 2 usage error, 3 file-schema mismatch, 4 degenerate
fit. ``simulate`` and ``analyze`` read circuits and results files through
one strict reader: an unknown key, or a counts key that is no bit string
of its circuit's width, exits 3, and every check that reads no circuit
runs before any circuit is decoded. An entry's or a circuit's error names
its file and the entry. ``analyze`` makes every fit before it writes any
output. Two flags are accepted and change nothing: ``simulate --threads``
(simulation runs serially) and ``predict --reset/--no-reset`` (the
prediction does not depend on the reset mode).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections import Counter
from dataclasses import asdict

from . import serialize
from .analysis import FitDegenerateError, bootstrap_decay, bootstrap_erm
from .builder import QirbCircuit
from .noise import NoiseModel
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
from .serialize import SchemaError, check_keys, check_kind, read_json, stamp, write_json
from .simulator import SimResult
from .theory import predict_fbar_curve, predict_r_omega

EXIT_SCHEMA = 3
EXIT_FIT = 4
# Bootstrap time and memory grow with the resample count; this bound keeps them finite.
MAX_RESAMPLES = 10**5
# One bootstrap holds a few arrays of resamples x circuits, about 35 bytes per
# resampled circuit in all; this bound keeps a fit's arrays under about 0.4 GB.
MAX_RESAMPLED_CIRCUITS = 10**7
_RESULT_KEYS = frozenset({"id", "depth", "n_success", "n_fail", "counts", "circuit"})
_BITS = re.compile("[01]*")


def _index(value) -> int:
    """A non-negative integer field of an input file."""
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _checked_circuit(obj: dict, depth: int, design: ExperimentDesign, counts) -> QirbCircuit:
    """Decode a file entry's circuit; it must have the entry's depth and the
    design's wire count and reset mode, and each key of the entry's outcome
    ``counts``, if it has any, one bit 0 or 1 per readout and MCM."""
    c = serialize.circuit_from_obj(obj)
    if (c.depth, c.n, c.reset) != (depth, design.n, design.reset):
        raise SchemaError(
            f"circuit with depth {c.depth}, n = {c.n} and reset = {c.reset} is filed "
            f"under depth {depth} in a design with n = {design.n} and reset = {design.reset}"
        )
    width = c.n + c.m
    if counts is not None and (set(map(len, counts)) != {width}
                               or not _BITS.fullmatch("".join(counts))):
        raise SchemaError(f"an outcome counts key is not a string of {width} bits 0 or 1")
    return c


def _parse_depths(text: str) -> tuple[int, ...]:
    return tuple(int(d) for d in text.split(","))


def _check_layout(ids: list[int], depths: list[int], design: ExperimentDesign) -> None:
    """The entries must be the design's: ``circuits_per_depth`` at each of its
    depths and none elsewhere, and no id twice (each id seeds its circuit's
    noise stream)."""
    if len(set(ids)) != len(ids):
        raise ValueError("a circuit id is listed more than once")
    held = Counter(depths)
    for d in sorted(held.keys() | set(design.depths)):
        declared = design.circuits_per_depth if d in design.depths else 0
        if held[d] != declared:
            raise ValueError(f"depth {d} holds {held[d]} circuits, the design declares {declared}")


def _load_edges(path: str, n: int) -> tuple[tuple[int, int], ...]:
    """The edge list of an ``--edges`` file, checked as an n-wire connectivity:
    pairs of distinct wires in range(n), no edge twice."""
    obj = read_json(path)
    with serialize.malformed_as_schema_error(path):
        edges = obj["edges"] if isinstance(obj, dict) else obj
        pairs = tuple((a, b) for a, b in edges)
        SamplingConfig(n=n, p_cnot=0.0, p_mcm=0.0, connectivity=pairs)
        return pairs


def _add_shape_flags(p: argparse.ArgumentParser) -> None:
    """The layer distribution's flags, shared by ``design`` and ``predict``."""
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-cnot", type=float, required=True)
    p.add_argument("--p-mcm", type=float, required=True)
    p.add_argument("--mode", choices=["at-most-one", "density"], default="at-most-one")
    p.add_argument("--edges", help="JSON file with a connectivity edge list")


def _shape(args) -> dict:
    """The SamplingConfig keyword arguments of the shape flags."""
    return dict(n=args.n, p_cnot=args.p_cnot, p_mcm=args.p_mcm, mode=args.mode,
                connectivity=_load_edges(args.edges, args.n) if args.edges else None)


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
    design = ExperimentDesign(
        **_shape(args),
        depths=tuple(args.depths),
        circuits_per_depth=args.circuits_per_depth,
        shots=args.shots,
        reset=args.reset,
        seed=args.seed,
    )
    circuits = build_design_circuits(design)
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "design.json"), stamp("design", asdict(design)))
    write_json(
        os.path.join(args.out, "circuits.json"),
        stamp(
            "circuits",
            {
                "design": asdict(design),
                "circuits": [
                    dict(id=cid, depth=depth, **serialize.circuit_to_obj(circ))
                    for cid, depth, circ in circuits
                ],
            },
        ),
    )
    print(f"wrote {len(circuits)} circuits to {args.out}")
    return 0


def _read_entries(path: str, kind: str) -> tuple[dict, ExperimentDesign, list]:
    """(file object, design, [(id, depth, circuit object, circuit)]) of a
    "circuits" or "results" file, its entries listed under ``kind``. Every
    check that reads no circuit runs before the circuits are decoded, each once."""
    obj = check_kind(read_json(path), kind)
    with serialize.malformed_as_schema_error(path):
        design = ExperimentDesign.from_obj(obj["design"])
        shots = design.shots
        if type(obj[kind]) is not list:
            raise ValueError(f"{kind!r} must be a list of entries")
        heads = []
        for pos, e in enumerate(obj[kind]):
            cid = e.get("id") if type(e) is dict else None
            named = f" (id {cid})" if type(cid) is int and cid >= 0 else ""
            with serialize.malformed_as_schema_error(f"{path}: {kind}[{pos}]{named}"):
                if kind == "results":
                    check_keys(e, _RESULT_KEYS, "a results entry")
                    circuit, counts = e["circuit"], e["counts"]
                    counted = shots if counts is None else sum(map(_index, counts.values()))
                    if _index(e["n_success"]) + _index(e["n_fail"]) != shots or counted != shots:
                        raise ValueError(f"shot totals differ from the design's {shots} shots")
                else:
                    circuit, counts = {k: v for k, v in e.items() if k not in ("id", "depth")}, None
                heads.append((_index(e["id"]), _index(e["depth"]), circuit, counts))
        _check_layout([h[0] for h in heads], [h[1] for h in heads], design)
    entries = []
    for cid, depth, c, counts in heads:
        try:
            entries.append((cid, depth, c, _checked_circuit(c, depth, design, counts)))
        except SchemaError as exc:
            raise SchemaError(f"{path}: circuit {cid}: {exc}") from exc
    return obj, design, entries


def cmd_simulate(args) -> int:
    _, design, entries = _read_entries(args.circuits, "circuits")
    noise = _noise_from_args(args)
    results = simulate_design(
        [(cid, depth, circuit) for cid, depth, _, circuit in entries],
        noise,
        design,
        seed=args.seed,
        reset_free_mode=args.reset_free_mode,
    )
    payload = {
        "design": asdict(design),
        "noise": serialize.noise_to_obj(noise),
        "reset_free_mode": args.reset_free_mode,
        "results": [
            {
                "id": r.circuit_id,
                "depth": r.depth,
                "n_success": r.result.n_success,
                "n_fail": r.result.n_fail,
                "counts": r.result.counts,
                "circuit": circuit,  # as read, once decoded and checked
            }
            for r, (_, _, circuit, _) in zip(results, entries)
        ],
    }
    write_json(args.out, stamp("results", payload))
    total = sum(r.result.n_success for r in results)
    shots = sum(r.result.shots for r in results)
    print(f"wrote {args.out} ({len(results)} circuits, {total}/{shots} successes)")
    return 0


def _load_results(path: str) -> tuple[dict, list[CircuitResult]]:
    obj, design, entries = _read_entries(path, "results")
    return obj, [CircuitResult(cid, depth, circuit,
                               SimResult(design.shots, e["n_success"], e["n_fail"], e["counts"]))
                 for (cid, depth, _, circuit), e in zip(entries, obj["results"])]


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
    # Every input is read and every fit made before any output is written, so
    # a bad value, input or fit leaves no partial output.
    if max(args.bootstrap, args.erm_bootstrap) > MAX_RESAMPLES:
        raise ValueError(f"--bootstrap and --erm-bootstrap must be <= {MAX_RESAMPLES}")
    loaded = [_load_results(path) for path in args.results]
    per_config_results = [results for _, results in loaded]
    sizes = [len(results) for results in per_config_results]
    for what, resampled in [("--bootstrap x circuits of one input", args.bootstrap * max(sizes)),
                            ("--erm-bootstrap x circuits of all inputs",
                             args.erm_bootstrap * sum(sizes) if len(sizes) > 1 else 0)]:
        if resampled > MAX_RESAMPLED_CIRCUITS:
            raise ValueError(f"{what} is {resampled}, over the bootstrap's memory bound of "
                             f"{MAX_RESAMPLED_CIRCUITS} resampled circuits")
    fits = []
    for results in per_config_results:
        data = decay_dataset_from_results(results)
        fits.append((bootstrap_decay(data, args.bootstrap, seed=args.seed), data.depth_stats()))
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
    os.makedirs(args.out, exist_ok=True)
    report_configs = []
    for (obj, _), (fit, stats), (source, stem) in zip(loaded, fits, _input_labels(args.results)):
        rows = ["depth,mean,stderr,n_circuits"]
        for s in stats:
            rows.append(f"{s.depth},{s.mean!r},{s.stderr!r},{s.n_circuits}")
        serialize.write_text(os.path.join(args.out, f"{stem}.curve.csv"), "\n".join(rows))
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
                     "n_circuits": s.n_circuits}
                    for s in stats
                ],
            }
        )
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
    depths = tuple(args.depths)
    if not math.isfinite(args.amplitude):
        raise ValueError(f"--amplitude must be finite, got {args.amplitude}")
    if min(depths) < 0:
        raise ValueError(f"--depths must be non-negative, got {min(depths)}")
    config = SamplingConfig(**_shape(args))
    noise = _noise_from_args(args)
    warnings = []
    prediction = predict_r_omega(noise, config)
    if prediction.method != "closed-form":
        warnings.append("density-mode prediction computed by Monte Carlo over sampled layers")
    fbar = predict_fbar_curve(args.amplitude, prediction.r_omega / 2, depths)
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
        "curve": [{"depth": d, "fbar": v} for d, v in zip(depths, fbar)],
        "warnings": warnings,
    }
    if args.out:
        write_json(args.out, stamp("prediction", payload))
    else:
        print(json.dumps(payload, sort_keys=True, indent=1, allow_nan=False))
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
    _add_shape_flags(p)
    p.add_argument("--depths", type=_parse_depths, default=DEFAULT_DEPTHS)
    p.add_argument("--circuits-per-depth", type=int, default=15)
    p.add_argument("--shots", type=int, default=100)
    p.add_argument("--reset", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="simulate a circuits file under a noise model")
    p.add_argument("--circuits", required=True, help="circuits.json from `qirb design`")
    _add_noise_flags(p)
    p.add_argument("--seed", type=int, default=None,
                   help="simulation master seed (default: the design seed)")
    p.add_argument("--reset-free-mode", choices=["frame-correction", "feedforward-x"],
                   default="frame-correction")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; changes nothing: simulation runs serially")
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
    _add_shape_flags(p)
    p.add_argument("--reset", action=argparse.BooleanOptionalAction, default=True,
                   help="accepted for compatibility; changes nothing: the prediction "
                        "does not depend on the reset mode")
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
