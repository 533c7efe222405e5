"""Checks on the files one workload repetition wrote.

Every check is one operation: it passes or it fails with a message.  None
depends on a particular random stream, so a simulator that draws its
noise differently still passes as long as its statistics are right.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import qirb.theory
from qirb import serialize

ORACLE_Z_MAX = 5.0
PULL_MAX = 5.0


class Checks:
    """Counts attempted and failed operations and keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def file_digests(root: str) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(out.items()))


def compare_digests(checks: Checks, got: dict, want: dict, label: str) -> None:
    for path in sorted(set(got) | set(want)):
        checks.check(got.get(path) == want.get(path), f"{label}: {path} differs")


def check_results_file(checks: Checks, path: str, noise) -> float:
    """Per-circuit shot totals and oracle agreement of one results file.

    Returns the oracle pull z = sum(F_sim - F_exact) / sqrt(sum(1 - F_exact^2) / shots).
    """
    with open(path) as f:
        obj = json.load(f)
    shots = obj["design"]["shots"]
    diff = 0.0
    var = 0.0
    for entry in obj["results"]:
        cid = entry["id"]
        checks.check(entry["n_success"] + entry["n_fail"] == shots,
                     f"{path}: circuit {cid} success + fail != {shots}")
        checks.check(sum(entry["counts"].values()) == shots,
                     f"{path}: circuit {cid} counts do not sum to {shots}")
        circuit = serialize.circuit_from_obj(entry["circuit"])
        f_exact = qirb.theory.exact_success_expectation(circuit, noise)
        diff += (entry["n_success"] - entry["n_fail"]) / shots - f_exact
        var += (1.0 - f_exact * f_exact) / shots
    z = diff / math.sqrt(var) if var > 0.0 else (0.0 if diff == 0.0 else math.inf)
    checks.check(abs(z) <= ORACLE_Z_MAX,
                 f"{path}: simulation vs exact oracle z = {z:.3f} (limit {ORACLE_Z_MAX})")
    return z


def check_fit(checks: Checks, report_entry: dict, prediction: dict) -> float:
    """Fitted r_omega against ``qirb predict``, in bootstrap sigmas."""
    sigma = report_entry["bootstrap_sigma"]
    diff = report_entry["r_omega"] - prediction["r_omega"]
    pull = abs(diff) / sigma if sigma and sigma > 0.0 else math.inf
    checks.check(pull <= PULL_MAX,
                 f"{report_entry['source']}: fitted r_omega {report_entry['r_omega']:.6g} is "
                 f"{pull:.2f} sigma from predicted {prediction['r_omega']:.6g}")
    return pull
