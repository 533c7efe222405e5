import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qirb
from qirb import cli, serialize
from qirb.builder import tracked_walk
from qirb.cli import main
from qirb.pauli import cliffords_mapping_letter
from qirb.pipeline import ExperimentDesign
from qirb.simulator import NoiseModel

from test_builder import build_random


def run(argv):
    return main([str(a) for a in argv])


def decode_entry(entry):
    """The circuit of a circuits-file entry, whose id and depth are no circuit keys."""
    return serialize.circuit_from_obj({k: v for k, v in entry.items() if k not in ("id", "depth")})


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(qirb.__file__)))


def run_process(argv):
    """The CLI in a fresh interpreter, to see its exit code and stderr."""
    return subprocess.run([sys.executable, "-m", "qirb.cli", *map(str, argv)],
                          env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True,
                          text=True, timeout=120)


def read(path):
    with open(path) as f:
        return f.read()


_COLD_START = """
import os, sys
from qirb.cli import main

d = sys.argv[1]
argv = [
    ["design", "--n", "2", "--p-cnot", "0.3", "--p-mcm", "0.4", "--depths", "0,2,4",
     "--circuits-per-depth", "2", "--shots", "10", "--out", os.path.join(d, "exp")],
    ["simulate", "--circuits", os.path.join(d, "exp", "circuits.json"),
     "--out", os.path.join(d, "results.json")],
    ["predict", "--n", "2", "--p-cnot", "0.3", "--p-mcm", "0.4",
     "--out", os.path.join(d, "pred.json")],
]
for a in argv:
    assert main(a) == 0, a[0]
assert "scipy" not in sys.modules, "design, simulate or predict imported scipy"
res = os.path.join(d, "results.json")
assert main(["analyze", res, "--bootstrap", "3", "--out", os.path.join(d, "rep1")]) == 0
assert "scipy" not in sys.modules, "a one-input analyze imported scipy"
assert main(["analyze", res, res, "--bootstrap", "3", "--erm-bootstrap", "2",
             "--out", os.path.join(d, "rep2")]) == 0
assert "scipy.optimize" in sys.modules, "the ERM fit ran without scipy"
"""


def test_only_the_erm_fit_imports_scipy(tmp_path):
    # scipy takes most of a cold start; only the multi-input ERM fit uses it.
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def workspace(tmp_path):
    return tmp_path


class TestRoundTrips:
    def test_design_obj_round_trip(self):
        design = ExperimentDesign(
            n=3, p_cnot=0.3, p_mcm=0.2, depths=(0, 2, 8), circuits_per_depth=4,
            shots=50, connectivity=((0, 1), (1, 2)), reset=False, seed=17,
        )
        assert ExperimentDesign.from_obj(json.loads(json.dumps(asdict(design)))) == design

    def test_circuit_round_trip(self):
        for seed in range(4):
            c = build_random(3, 5, seed=seed, reset=bool(seed % 2))
            obj = json.loads(json.dumps(serialize.circuit_to_obj(c)))
            assert serialize.circuit_from_obj(obj) == c

    def test_noise_round_trip(self):
        noise = NoiseModel.depolarizing(0.998, 0.99, 0.03, mcm_post_flip=0.01)
        obj = json.loads(json.dumps(serialize.noise_to_obj(noise)))
        assert serialize.noise_from_obj(obj) == noise


class TestWriteJson:
    def test_one_compact_line_with_sorted_keys(self, workspace):
        obj = {"b": [1, {"z": None, "a": 2.5}], "a": "x"}
        path = workspace / "o.json"
        serialize.write_json(str(path), obj)
        text = read(path)
        assert text == '{"a":"x","b":[1,{"a":2.5,"z":null}]}\n'
        assert json.loads(text) == obj

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_floats_are_refused(self, workspace, value):
        with pytest.raises(ValueError):
            serialize.write_json(str(workspace / "o.json"), {"sigma": value})
        assert list(workspace.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_outputs_honour_the_umask(self, workspace, umask):
        old = os.umask(umask)
        try:
            out = _make_design(workspace, "exp", depths="0,2", k=2, shots=10)
            res = workspace / "results.json"
            assert run(["simulate", "--circuits", out / "circuits.json", "--out", res]) == 0
            assert run(["analyze", res, "--bootstrap", 3, "--out", workspace / "rep"]) == 0
            assert run(["predict", "--n", 2, "--p-cnot", 0.3, "--p-mcm", 0.4,
                        "--out", workspace / "pred.json"]) == 0
        finally:
            os.umask(old)
        files = [p for p in workspace.rglob("*") if p.is_file()]
        assert {p.name for p in files} == {
            "design.json", "circuits.json", "results.json", "report.json",
            "results.curve.csv", "pred.json",
        }
        for p in files:
            assert p.stat().st_mode & 0o777 == 0o666 & ~umask, p.name


class TestDesignCommand:
    def test_default_sizes_give_75_circuits(self, workspace):
        out = workspace / "exp"
        assert run(["design", "--n", 2, "--p-cnot", 0.35, "--p-mcm", 0.2,
                    "--out", out]) == 0
        obj = serialize.check_kind(serialize.read_json(str(out / "circuits.json")), "circuits")
        assert len(obj["circuits"]) == 75

    def test_rerun_is_byte_identical(self, workspace):
        a, b = workspace / "a", workspace / "b"
        args = ["design", "--n", 2, "--p-cnot", 0.3, "--p-mcm", 0.3,
                "--depths", "0,1,4", "--circuits-per-depth", 3, "--seed", 5]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        for name in ("design.json", "circuits.json"):
            assert read(a / name) == read(b / name)

    def test_depth_zero_only(self, workspace):
        out = workspace / "d0"
        assert run(["design", "--n", 2, "--p-cnot", 0.2, "--p-mcm", 0.9,
                    "--depths", "0", "--circuits-per-depth", 4, "--out", out]) == 0
        obj = serialize.read_json(str(out / "circuits.json"))
        for entry in obj["circuits"]:
            assert entry["depth"] == 0 and entry["layers"] == []
            assert decode_entry(entry).m == 0


def _layer_slots(circuit):
    """(holder, key) of every layer string of a circuit entry, in op order."""
    yield circuit, "prep"
    for entry in circuit["layers"]:
        for key in ("l1", "l2", "l3"):
            yield entry, key
    yield circuit, "final"


def _edit_layer(obj, match, edit):
    """Replace the first layer string of the file for which ``match`` holds
    by ``edit(layer)``."""
    for circuit in obj["circuits"]:
        for holder, key in _layer_slots(circuit):
            if match(holder[key]):
                holder[key] = edit(holder[key])
                return
    raise AssertionError("no layer matches")


def _edit_cnot(obj, edit):
    """Replace the first layer of the file that holds a CNOT, ``<row>
    <control>.<target>``, by ``edit(row, control, target)``."""
    def change(text):
        row, pair = text.split(" ")
        return edit(row, *pair.split("."))
    _edit_layer(obj, lambda text: " " in text, change)


def _damaged_id(original, entries):
    """The id of the first entry that differs from ``original``'s, else the first id."""
    return next((e["id"] for e, o in zip(entries, original) if e != o), entries[0]["id"])


def _make_design(workspace, name, seed=3, depths="0,1,4,8", n=2, k=4, shots=60,
                 p_cnot=0.3, p_mcm=0.4):
    out = workspace / name
    assert run(["design", "--n", n, "--p-cnot", p_cnot, "--p-mcm", p_mcm,
                "--depths", depths, "--circuits-per-depth", k, "--shots", shots,
                "--seed", seed, "--out", out]) == 0
    return out


class TestSimulateCommand:
    def test_noiseless_shorthand_gives_all_successes(self, workspace):
        out = _make_design(workspace, "exp")
        res = workspace / "results.json"
        assert run(["simulate", "--circuits", out / "circuits.json",
                    "--f1q", 1, "--f2q", 1, "--mcm-flip", 0,
                    "--out", res]) == 0
        obj = serialize.check_kind(serialize.read_json(str(res)), "results")
        assert all(e["n_fail"] == 0 for e in obj["results"])

    def test_thread_count_is_invisible_in_output(self, workspace):
        out = _make_design(workspace, "exp")
        r1, r8 = workspace / "r1.json", workspace / "r8.json"
        base = ["simulate", "--circuits", out / "circuits.json", "--seed", 11]
        assert run(base + ["--threads", 1, "--out", r1]) == 0
        assert run(base + ["--threads", 8, "--out", r8]) == 0
        assert read(r1) == read(r8)

    def test_schema_mismatch_exits_3(self, workspace):
        bogus = workspace / "bogus.json"
        bogus.write_text(json.dumps({"schema": "qirb-999", "kind": "circuits"}))
        assert run(["simulate", "--circuits", bogus, "--out", workspace / "x.json"]) == 3

    # Same-intent qirb-4 forms of the earlier layer cases, each on a CNOT's
    # ``<control>.<target>`` unless told otherwise: wire-out-of-range is a
    # target on wire n + 3, wire-float a third wire ``.0``, leading-zero a
    # target ``0<t>``, cnot-one-wire a target equal to its control,
    # double-space two spaces before the CNOT, gate-after-measure the CNOT
    # before its row, measure-two-wires a measured wire that is also a
    # CNOT's, wire-twice a row one wire too wide, wire-bool a layer that is
    # not a string, and gate-unknown a character that names no Clifford on
    # the last wire of a circuit's final layer.
    @pytest.mark.parametrize("damage", [
        "missing-key", "truncated", "wire-out-of-range", "wire-float", "wire-bool",
        "gate-unknown", "measure-two-wires", "leading-zero", "cnot-one-wire", "wire-twice",
        "double-space", "gate-after-measure", "component-length", "schema-qirb-1",
        "depth-mismatch", "design-n-mismatch", "design-reset-mismatch", "design-shots-float",
        "design-connectivity-float", "design-connectivity-twice", "final-not-z-aligned",
        "tracked-length", "tracked-letter", "fresh-unmeasured", "fresh-missing",
        "schema-qirb-2", "repeated-id", "design-rate-bool", "design-missing-key",
        "circuit-huge-n", "prep-measures", "final-cnot", "dropped-circuit", "undeclared-depth",
        "circuits-not-a-list", "entry-unknown-key", "layer-unknown-key", "schema-qirb-3",
        "cnot-on-clifford-wire",
    ])
    def test_malformed_circuits_file_exits_3(self, workspace, damage):
        text = read(_make_design(workspace, "exp") / "circuits.json")
        original = json.loads(text)["circuits"]
        if damage == "truncated":
            text = text[: len(text) // 2]
        else:
            obj = json.loads(text)
            first = obj["circuits"][0]
            if damage == "missing-key":
                del obj["circuits"][1]["tracked"]
            elif damage == "wire-out-of-range":
                _edit_cnot(obj, lambda row, c, t: f"{row} {c}.{first['n'] + 3}")
            elif damage == "wire-float":
                _edit_cnot(obj, lambda row, c, t: f"{row} {c}.{t}.0")
            elif damage == "leading-zero":
                _edit_cnot(obj, lambda row, c, t: f"{row} {c}.0{t}")
            elif damage == "wire-bool":
                first["final"] = [first["final"]]
            elif damage == "gate-unknown":
                # The last op of a circuit, after valid ops that decoded fine.
                first["final"] = first["final"][:-1] + "Y"
            elif damage == "measure-two-wires":
                def measured_cnot(text):
                    q = text.index("m")
                    return "-" * q + "m" + "-" * (len(text) - q - 1) + f" {q}.{(q + 1) % len(text)}"
                _edit_layer(obj, lambda text: "m" in text, measured_cnot)
            elif damage == "cnot-one-wire":
                _edit_cnot(obj, lambda row, c, t: f"{row} {c}.{c}")
            elif damage == "cnot-on-clifford-wire":
                _edit_cnot(obj, lambda row, c, t: f"{row[:int(c)]}A{row[int(c) + 1:]} {c}.{t}")
            elif damage == "wire-twice":
                first["prep"] = first["prep"][0] + first["prep"]
            elif damage == "double-space":
                _edit_cnot(obj, lambda row, c, t: f"{row}  {c}.{t}")
            elif damage == "gate-after-measure":
                _edit_cnot(obj, lambda row, c, t: f"{c}.{t} {row}")
            elif damage == "component-length":
                entry = next(e for c in obj["circuits"] for e in c["layers"] if "fresh" in e)
                entry["fresh"] += "Z"
            elif damage == "final-not-z-aligned":
                # The final gate on a tracked wire of a depth-0 circuit maps
                # the tracked letter there to X instead of Z.
                entry = next(c for c in obj["circuits"] if c["depth"] == 0 and "Z" in c["tracked"])
                q = entry["tracked"].index("Z")
                x, z, _ = tracked_walk(decode_entry(entry)).after[0]
                letter = ((x >> q) & 1) | (((z >> q) & 1) << 1)
                to_x = chr(ord("A") + cliffords_mapping_letter(letter, 1)[0])  # 1: X
                entry["final"] = entry["final"][:q] + to_x + entry["final"][q + 1:]
            elif damage == "prep-measures":
                # The last wire, on which the tracked Pauli is I, is measured
                # instead of prepared: the layers still track a Pauli.
                entry = next(c for c in obj["circuits"] if c["tracked"][-1] == "I")
                entry["prep"] = entry["prep"][:-1] + "m"
            elif damage == "final-cnot":
                # A CNOT replaces the final gates on wires 0 and 1, where the
                # tracked Pauli is already Z-type: the layers still track one.
                entry = next(c for c in obj["circuits"]
                             if not tracked_walk(decode_entry(c)).after[-2][0] & 3)
                entry["final"] = "--" + entry["final"][2:] + " 0.1"
            elif damage == "tracked-length":
                first["tracked"] += "I"
            elif damage == "tracked-letter":
                first["tracked"] = "X" + first["tracked"][1:]
            elif damage == "fresh-unmeasured":
                next(e for c in obj["circuits"] for e in c["layers"] if "m" not in e["l2"])["fresh"] = ""
            elif damage == "fresh-missing":
                del next(e for c in obj["circuits"] for e in c["layers"] if "fresh" in e)["fresh"]
            elif damage in ("schema-qirb-1", "schema-qirb-2", "schema-qirb-3"):
                obj["schema"] = damage[len("schema-"):]
            elif damage == "repeated-id":
                for c in obj["circuits"]:
                    c["id"] = 0
            elif damage == "depth-mismatch":
                next(c for c in obj["circuits"] if c["depth"] == 8)["depth"] = 0
            elif damage == "design-n-mismatch":
                obj["design"]["n"] = 5
            elif damage == "design-shots-float":
                obj["design"]["shots"] = 60.0
            elif damage == "design-connectivity-float":
                obj["design"]["connectivity"] = [[0.5, 1]]
            elif damage == "design-connectivity-twice":
                obj["design"]["connectivity"] = [[0, 1], [1, 0]]
            elif damage == "design-rate-bool":
                obj["design"]["p_cnot"] = True
            elif damage == "design-missing-key":
                del obj["design"]["mode"]  # a field the design inherits from SamplingConfig
            elif damage == "circuit-huge-n":
                first["n"] = 10**30
            elif damage == "dropped-circuit":
                del obj["circuits"][1]
            elif damage == "undeclared-depth":
                obj["design"]["depths"].pop()  # its circuits stay in the file
            elif damage == "circuits-not-a-list":
                obj["circuits"] = {}
            elif damage == "entry-unknown-key":
                first["foo"] = 1
            elif damage == "layer-unknown-key":
                next(c for c in obj["circuits"] if c["layers"])["layers"][0]["junk"] = ""
            else:
                obj["design"]["reset"] = False
            text = json.dumps(obj)
        bad = workspace / "bad.json"
        bad.write_text(text)
        proc = run_process(["simulate", "--circuits", bad, "--out", workspace / "r.json"])
        assert proc.returncode == 3
        assert proc.stderr.startswith("schema error:")
        assert "Traceback" not in proc.stderr
        if damage.startswith("schema-"):
            assert f"'{damage[len('schema-'):]}'" in proc.stderr
        if damage == "design-missing-key":
            assert "KeyError: 'mode'" in proc.stderr
        if damage in ("prep-measures", "final-cnot"):
            assert "only core layers" in proc.stderr
        if damage not in ("truncated", "schema-qirb-1", "schema-qirb-2", "schema-qirb-3",
                          "repeated-id",
                          "dropped-circuit", "undeclared-depth", "circuits-not-a-list",
                          "depth-mismatch", "design-shots-float", "design-connectivity-float",
                          "design-connectivity-twice", "design-rate-bool", "design-missing-key"):
            # A circuit's error names its file and entry; the others fail before
            # any circuit is decoded.
            assert f"{bad}: circuit {_damaged_id(original, obj['circuits'])}: " in proc.stderr

    def test_noise_file_input(self, workspace):
        out = _make_design(workspace, "exp")
        noise_path = workspace / "noise.json"
        serialize.write_json(
            str(noise_path),
            serialize.stamp("noise", serialize.noise_to_obj(NoiseModel.depolarizing())),
        )
        assert run(["simulate", "--circuits", out / "circuits.json",
                    "--noise", noise_path, "--out", workspace / "r.json"]) == 0


class TestAnalyzeCommand:
    def _results(self, workspace, name="exp", **kwargs):
        out = _make_design(workspace, name, **kwargs)
        res = workspace / f"{name}-results.json"
        assert run(["simulate", "--circuits", out / "circuits.json",
                    "--out", res]) == 0
        return res

    def test_zero_noise_fit_is_flat(self, workspace):
        out = _make_design(workspace, "exp")
        res = workspace / "res.json"
        assert run(["simulate", "--circuits", out / "circuits.json",
                    "--f1q", 1, "--f2q", 1, "--mcm-flip", 0, "--out", res]) == 0
        rep = workspace / "report"
        assert run(["analyze", res, "--bootstrap", 10, "--out", rep]) == 0
        obj = serialize.check_kind(serialize.read_json(str(rep / "report.json")), "report")
        entry = obj["configs"][0]
        assert entry["r_omega"] == 0.0 and entry["amplitude"] == 1.0

    def test_csv_has_one_row_per_depth(self, workspace):
        res = self._results(workspace)
        rep = workspace / "report"
        assert run(["analyze", res, "--bootstrap", 8, "--out", rep]) == 0
        csv = read(rep / f"{os.path.splitext(os.path.basename(res))[0]}.curve.csv")
        lines = csv.strip().split("\n")
        assert lines[0] == "depth,mean,stderr,n_circuits"
        assert len(lines) == 1 + 4  # four depths

    def test_single_depth_exits_4(self, workspace):
        res = self._results(workspace, name="flat", depths="4")
        assert run(["analyze", res, "--bootstrap", 5, "--out", workspace / "rep2"]) == 4

    def test_degenerate_later_input_leaves_no_output(self, workspace):
        # Every fit is made before the output directory is made.
        good = self._results(workspace)
        flat = self._results(workspace, name="flat", depths="2")
        rep = workspace / "rep"
        assert run(["analyze", good, flat, "--bootstrap", 5, "--erm-bootstrap", 2,
                    "--out", rep]) == 4
        assert not rep.exists()

    def test_multi_config_reports_erm(self, workspace):
        res_a = self._results(workspace, name="a", p_mcm=0.1, seed=1)
        res_b = self._results(workspace, name="b", p_mcm=0.6, seed=2)
        rep = workspace / "rep3"
        assert run(["analyze", res_a, res_b, "--bootstrap", 8,
                    "--erm-bootstrap", 4, "--out", rep]) == 0
        obj = serialize.read_json(str(rep / "report.json"))
        assert obj["erm"] is not None
        assert 0.0 <= obj["erm"]["eps_mcm"] <= 1.0

    @pytest.mark.parametrize("resamples", [0, 1])
    def test_too_few_erm_resamples_exit_2(self, workspace, resamples):
        res_a = self._results(workspace, name="a", p_mcm=0.1, seed=1)
        res_b = self._results(workspace, name="b", p_mcm=0.6, seed=2)
        rep = workspace / "rep"
        proc = run_process(["analyze", res_a, res_b, "--bootstrap", 4,
                            "--erm-bootstrap", resamples, "--out", rep])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert list(rep.glob("*")) == []

    @pytest.mark.parametrize("resamples", [0, 1])
    def test_too_few_decay_resamples_leave_no_output(self, workspace, capsys, resamples):
        res = self._results(workspace)
        capsys.readouterr()
        rep = workspace / "rep"
        assert run(["analyze", res, "--bootstrap", resamples, "--out", rep]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not rep.exists()

    @pytest.mark.parametrize("flag", ["--bootstrap", "--erm-bootstrap"])
    def test_too_many_resamples_exit_2(self, workspace, capsys, flag):
        # Numpy would refuse the 10**13-row resample array with a traceback.
        res_a = self._results(workspace, name="a", p_mcm=0.1, seed=1)
        res_b = self._results(workspace, name="b", p_mcm=0.6, seed=2)
        capsys.readouterr()
        rep = workspace / "rep"
        assert run(["analyze", res_a, res_b, flag, 10000000000000, "--out", rep]) == 2
        assert "must be <= 100000" in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--bootstrap", 7], "--bootstrap x circuits of one input is 112,"),
        (["--bootstrap", 6, "--erm-bootstrap", 4],
         "--erm-bootstrap x circuits of all inputs is 128,"),
    ], ids=["decay", "erm"])
    def test_resampled_circuits_are_bounded_before_any_output(self, workspace, capsys,
                                                              monkeypatch, flags, message):
        # Each input holds 16 circuits. Under a bound of 100 resampled
        # circuits, 6 decay resamples and 3 ERM resamples fit, one more does not.
        monkeypatch.setattr(cli, "MAX_RESAMPLED_CIRCUITS", 100)
        res_a = self._results(workspace, name="a", p_mcm=0.1, seed=1)
        res_b = self._results(workspace, name="b", p_mcm=0.6, seed=2)
        assert run(["analyze", res_a, res_b, "--bootstrap", 6, "--erm-bootstrap", 3,
                    "--out", workspace / "fits"]) == 0
        capsys.readouterr()
        rep = workspace / "rep"
        assert run(["analyze", res_a, res_b, *flags, "--out", rep]) == 2
        assert message in capsys.readouterr().err
        assert not rep.exists()

    def test_malformed_later_input_leaves_no_output(self, workspace):
        # Every input is read before the output directory is made.
        res = self._results(workspace)
        obj = json.loads(read(res))
        obj["results"][0]["n_success"] += 1
        bad = workspace / "bad.json"
        bad.write_text(json.dumps(obj))
        rep = workspace / "rep"
        assert run(["analyze", res, bad, "--out", rep]) == 3
        assert not rep.exists()

    def test_failed_rename_leaves_no_temp_file(self, workspace, monkeypatch):
        res = self._results(workspace)
        rep = workspace / "rep"

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        assert run(["analyze", res, "--bootstrap", 4, "--out", rep]) == 2
        assert list(rep.glob("*.tmp")) == []


    @pytest.mark.parametrize("damage", [
        "zero-shots", "total-mismatch", "counts-mismatch", "missing-key", "depth-mismatch",
        "design-n-mismatch", "design-reset-mismatch", "repeated-id", "design-huge-shots",
        "dropped-circuit", "undeclared-depth", "circuits-not-a-list", "entry-unknown-key",
        "circuit-unknown-key", "design-unknown-key", "counts-key-letter", "counts-key-width",
    ])
    def test_malformed_results_file_exits_3(self, workspace, damage):
        text = read(self._results(workspace))
        obj, original = json.loads(text), json.loads(text)["results"]
        entry = obj["results"][1]
        if damage == "depth-mismatch":
            next(e for e in obj["results"] if e["depth"] == 8)["depth"] = 0
        elif damage == "design-n-mismatch":
            obj["design"]["n"] = 5
        elif damage == "design-reset-mismatch":
            obj["design"]["reset"] = False
        elif damage == "design-huge-shots":
            # Every total agrees with the design; only the size is out of bounds.
            obj["design"]["shots"] = 10**30
            for e in obj["results"]:
                extra = 10**30 - e["n_success"] - e["n_fail"]
                e["n_fail"] += extra
                e["counts"][next(iter(e["counts"]))] += extra
        elif damage == "zero-shots":
            entry["n_success"] = entry["n_fail"] = 0
        elif damage == "repeated-id":
            entry["id"] = obj["results"][0]["id"]
        elif damage == "total-mismatch":
            entry["n_fail"] += 1
        elif damage == "counts-mismatch":
            entry["counts"][next(iter(entry["counts"]))] += 1
        elif damage == "dropped-circuit":
            del obj["results"][1]
        elif damage == "undeclared-depth":
            obj["design"]["depths"].pop()  # its circuits stay in the file
        elif damage == "circuits-not-a-list":
            obj["results"] = {}
        elif damage == "entry-unknown-key":
            entry["foo"] = 1
        elif damage == "circuit-unknown-key":
            entry["circuit"]["foo"] = 1
        elif damage == "design-unknown-key":
            obj["design"]["junk"] = 1
        elif damage.startswith("counts-key-"):
            # The shot totals still agree: one key is renamed, its count kept.
            key = next(iter(entry["counts"]))
            bad_key = "2" + key[1:] if damage == "counts-key-letter" else key + "0"
            entry["counts"][bad_key] = entry["counts"].pop(key)
        else:
            del entry["n_fail"]
        bad = workspace / "bad.json"
        bad.write_text(json.dumps(obj))
        proc = run_process(["analyze", bad, "--bootstrap", 2, "--out", workspace / "rep"])
        assert proc.returncode == 3
        assert proc.stderr.startswith("schema error:")
        assert "Traceback" not in proc.stderr
        if damage in ("design-n-mismatch", "design-reset-mismatch", "circuit-unknown-key",
                      "counts-key-letter", "counts-key-width"):
            # A circuit's error names its file and entry.
            assert f"{bad}: circuit {_damaged_id(original, obj['results'])}: " in proc.stderr
        if damage in ("entry-unknown-key", "total-mismatch"):
            # So does an entry's: by its position in the file and its id.
            assert f"{bad}: results[1] (id {entry['id']}): " in proc.stderr

    def test_inputs_sharing_a_stem_keep_separate_curves(self, workspace):
        paths = []
        for i, name in enumerate(("a", "b")):
            out = _make_design(workspace, name, seed=20 + i)
            paths.append(workspace / name / "results.json")
            assert run(["simulate", "--circuits", out / "circuits.json",
                        "--out", paths[-1]]) == 0
        rep = workspace / "rep"
        assert run(["analyze", *paths, "--bootstrap", 8, "--erm-bootstrap", 4,
                    "--out", rep]) == 0
        configs = serialize.read_json(str(rep / "report.json"))["configs"]
        assert [c["source"] for c in configs] == [os.path.normpath(p) for p in paths]
        assert not (rep / "results.curve.csv").exists()
        for i, entry in enumerate(configs):
            rows = read(rep / f"results-{i + 1}.curve.csv").strip().split("\n")[1:]
            assert [float(r.split(",")[1]) for r in rows] == [
                d["mean"] for d in entry["per_depth"]
            ]
        assert configs[0]["per_depth"] != configs[1]["per_depth"]


def _damaged_layout(workspace, kind, damage):
    """A circuits or results file of ``kind`` whose entries are not the
    design's, and the command that reads it."""
    exp = _make_design(workspace, "exp")
    res = workspace / "results.json"
    assert run(["simulate", "--circuits", exp / "circuits.json", "--out", res]) == 0
    obj = json.loads(read(exp / "circuits.json" if kind == "circuits" else res))
    if damage == "repeated-id":
        for e in obj[kind]:
            e["id"] = 0
    else:
        del obj[kind][1]
    bad = workspace / "bad.json"
    bad.write_text(json.dumps(obj))
    if kind == "circuits":
        return obj, bad, ["simulate", "--circuits", bad, "--out", workspace / "r.json"]
    return obj, bad, ["analyze", bad, "--bootstrap", 2, "--out", workspace / "rep"]


@pytest.mark.parametrize("damage", ["repeated-id", "dropped-circuit"])
@pytest.mark.parametrize("kind", ["circuits", "results"])
def test_layout_is_checked_before_any_circuit_is_decoded(workspace, monkeypatch, capsys,
                                                          kind, damage):
    _, _, argv = _damaged_layout(workspace, kind, damage)
    decoded = []
    decode = serialize.circuit_from_obj
    monkeypatch.setattr(serialize, "circuit_from_obj", lambda obj: decoded.append(obj) or decode(obj))
    capsys.readouterr()
    assert run(argv) == 3
    assert capsys.readouterr().err.startswith("schema error:")
    assert decoded == []


@pytest.mark.parametrize("kind", ["circuits", "results"])
def test_layout_error_is_reported_before_a_circuit_error(workspace, capsys, kind):
    # One entry dropped, and a gate no circuit may hold in the first circuit.
    obj, bad, argv = _damaged_layout(workspace, kind, "dropped-circuit")
    first = obj[kind][0] if kind == "circuits" else obj[kind][0]["circuit"]
    first["final"] = "YY"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "the design declares" in err and "YY" not in err, err


class TestPredictCommand:
    def test_zero_noise_prediction(self, workspace, capsys):
        out = workspace / "pred.json"
        assert run(["predict", "--n", 2, "--p-cnot", 0.35, "--p-mcm", 0.2,
                    "--f1q", 1, "--f2q", 1, "--mcm-flip", 0, "--out", out]) == 0
        obj = serialize.check_kind(serialize.read_json(str(out)), "prediction")
        assert obj["r_omega"] == 0.0

    def test_bounds_always_ordered(self, workspace):
        import random

        rng = random.Random(0)
        for i in range(5):
            out = workspace / f"p{i}.json"
            assert run([
                "predict", "--n", rng.randrange(1, 5),
                "--p-cnot", round(rng.random(), 3), "--p-mcm", round(rng.random(), 3),
                "--f1q", 0.999, "--f2q", 0.995, "--mcm-flip", round(rng.random() * 0.2, 3),
                "--out", out,
            ]) == 0
            obj = serialize.read_json(str(out))
            assert obj["bound_lower"] <= obj["r_omega"] <= obj["bound_upper"]

    def test_stdout_mode_emits_json(self, capsys):
        assert run(["predict", "--n", 2, "--p-cnot", 0.2, "--p-mcm", 0.2]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "r_omega" in payload

    @pytest.mark.parametrize("flag", ["--amplitude=nan", "--amplitude=inf", "--depths=-3"])
    def test_non_finite_amplitude_or_negative_depth_exits_2(self, workspace, capsys, flag):
        argv = ["predict", "--n", 2, "--p-cnot", 0.3, "--p-mcm", 0.2, flag]
        assert run(argv) == 2
        assert capsys.readouterr().out == ""
        assert run(argv + ["--out", workspace / "pred.json"]) == 2
        assert list(workspace.iterdir()) == []


_BAD_EDGES = {
    "edges-missing-key": {"foo": 1},
    "edges-not-pairs": {"edges": [[0, 1, 2]]},
    "edges-float": {"edges": [[0.9, 2.7]]},
    "edges-string": {"edges": [["0", True]]},
    "edges-bool": {"edges": [[0, True]]},
    "edges-out-of-range": {"edges": [[0, 7]]},
    "edges-self-loop": {"edges": [[1, 1]]},
    "edges-twice": {"edges": [[0, 1], [1, 0], [0, 1]]},
}


# A bare ``edges-*`` case runs ``design``; ``predict-edges-*`` runs the same
# file through ``predict``, which shares the shape flags.
@pytest.mark.parametrize("case", [*_BAD_EDGES, *(f"predict-{c}" for c in _BAD_EDGES),
                                  "noise-missing-channel", "noise-nan", "noise-nan-mcm",
                                  "noise-bool-rate", "noise-missing-rate"])
def test_malformed_side_file_exits_3(workspace, case):
    side = workspace / "side.json"
    if case.startswith("noise-"):
        obj = serialize.noise_to_obj(NoiseModel.depolarizing())
        if case == "noise-nan":
            obj["oneq"]["px"] = float("nan")  # json writes the NaN literal, and reads it
        elif case == "noise-nan-mcm":
            obj["mcm"]["post_flip"] = float("nan")
        elif case == "noise-bool-rate":
            obj["oneq"] = {"px": True, "py": 0.0, "pz": 0.0}  # as a rate, true would be 1
        elif case == "noise-missing-rate":
            obj["mcm"] = {}
        else:
            del obj["twoq"]
        side.write_text(json.dumps(serialize.stamp("noise", obj)))
        argv = ["predict", "--n", 2, "--p-cnot", 0.3, "--p-mcm", 0.2, "--noise", side]
    elif case.startswith("predict-"):
        side.write_text(json.dumps(_BAD_EDGES[case[len("predict-"):]]))
        argv = ["predict", "--n", 3, "--p-cnot", 0.3, "--p-mcm", 0.2, "--edges", side]
    else:
        side.write_text(json.dumps(_BAD_EDGES[case]))
        argv = ["design", "--n", 3, "--p-cnot", 0.3, "--p-mcm", 0.2, "--edges", side,
                "--out", workspace / "exp"]
    proc = run_process(argv)
    assert proc.returncode == 3
    assert proc.stderr.startswith("schema error:")
    assert "Traceback" not in proc.stderr
    if case == "noise-nan-mcm":
        assert "post_flip" in proc.stderr


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["design", "--n", "2"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [["--shots", 10**7 + 1], ["--circuits-per-depth", 10**5 + 1],
                                   ["--depths", f"0,{10**5 + 1}"]])
def test_oversized_design_exits_2(workspace, capsys, flags):
    argv = ["design", "--n", 2, "--p-cnot", 0.3, "--p-mcm", 0.2, *flags,
            "--out", workspace / "exp"]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert list(workspace.iterdir()) == []


# --- malformed-file fuzz ------------------------------------------------------

# Huge integers reach every size a file holds; a design bounds its shots,
# circuits per depth and depths, so none of them runs without end.
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-1000, 1000), st.integers(-10**40, 10**40),
    st.floats(), st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)


def _dump(value, extra=None):
    """JSON text of ``value``; ``extra``, an (object, key, value) triple,
    writes that key a second time in that object."""
    if isinstance(value, dict):
        pairs = list(value.items())
        if extra is not None and extra[0] is value:
            pairs.append(extra[1:])
        return "{" + ",".join(f"{json.dumps(k)}:{_dump(v, extra)}" for k, v in pairs) + "}"
    if isinstance(value, list):
        return "[" + ",".join(_dump(v, extra) for v in value) + "]"
    return json.dumps(value)


def _paths(value, path=()):
    """The path of every value below the root of a JSON tree."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def _damaged(draw, text):
    """(edit, file text) with one key or value truncated, retyped, dropped or
    duplicated; a duplicated object key carries a new value."""
    edit = draw(st.sampled_from(["truncate", "retype", "drop", "duplicate"]))
    if edit == "truncate":
        return edit, text[: draw(st.integers(0, len(text.rstrip()) - 1))]
    obj = json.loads(text)
    *head, key = draw(st.sampled_from(list(_paths(obj))))
    parent = obj
    for k in head:
        parent = parent[k]
    old = parent[key]
    extra = None
    if edit == "retype":
        parent[key] = draw(_JSON_VALUES.filter(lambda v: type(v) is not type(old)))
    elif edit == "drop":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, old)
    else:
        extra = (parent, key, draw(_JSON_VALUES))
    return edit, _dump(obj, extra)


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Text of a valid file of each kind the CLI reads."""
    d = _make_design(tmp_path_factory.mktemp("valid"), "exp", depths="0,1,4", k=2, shots=20)
    assert run(["simulate", "--circuits", d / "circuits.json",
                "--out", d / "results.json"]) == 0
    return {
        "circuits": read(d / "circuits.json"),
        "results": read(d / "results.json"),
        "noise": json.dumps(serialize.stamp("noise", serialize.noise_to_obj(
            NoiseModel.depolarizing()))),
        "edges": json.dumps({"edges": [[0, 1], [1, 2]]}),
    }


def _reader_argv(kind, bad, out):
    """The command that reads a file of ``kind``, and its allowed exit codes."""
    if kind == "circuits":
        return ["simulate", "--circuits", bad, "--out", out / "r.json"], {0, 2, 3}
    if kind == "results":
        return ["analyze", bad, "--bootstrap", 2, "--out", out / "rep"], {0, 2, 3, 4}
    if kind == "noise":
        return ["predict", "--n", 2, "--p-cnot", 0.3, "--p-mcm", 0.2, "--noise", bad,
                "--out", out / "p.json"], {0, 2, 3}
    return ["design", "--n", 3, "--p-cnot", 0.3, "--p-mcm", 0.2, "--depths", "0,1",
            "--circuits-per-depth", 1, "--shots", 5, "--edges", bad,
            "--out", out / "exp"], {0, 2, 3}


@pytest.mark.parametrize("kind", ["circuits", "results", "noise", "edges"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_damaged_input_file_fails_cleanly(valid_inputs, kind, data):
    # An edit can leave a valid file (one circuit fewer, a rate 0.0 written
    # as 0), which runs; any failure is one line on stderr and an exit code.
    edit, text = data.draw(_damaged(valid_inputs[kind]))
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        bad = out / "bad.json"
        bad.write_text(text)
        argv, allowed = _reader_argv(kind, bad, out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(argv)
    if edit == "truncate":
        assert code == 3
    assert code in allowed
    if code:
        message = stderr.getvalue()
        assert message.count("\n") == 1 and message.endswith("\n"), message
