import json
import os
import subprocess
import sys

import pytest

import qirb
from qirb import serialize
from qirb.cli import main
from qirb.pipeline import ExperimentDesign
from qirb.simulator import NoiseModel

from test_builder import build_random


def run(argv):
    return main([str(a) for a in argv])


def run_process(argv):
    """The CLI in a fresh interpreter, to see its exit code and stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qirb.__file__)))
    return subprocess.run([sys.executable, "-m", "qirb.cli", *map(str, argv)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)


def read(path):
    with open(path) as f:
        return f.read()


@pytest.fixture
def workspace(tmp_path):
    return tmp_path


class TestRoundTrips:
    def test_design_obj_round_trip(self):
        design = ExperimentDesign(
            n=3, p_cnot=0.3, p_mcm=0.2, depths=(0, 2, 8), circuits_per_depth=4,
            shots=50, connectivity=((0, 1), (1, 2)), reset=False, seed=17,
        )
        assert ExperimentDesign.from_obj(json.loads(json.dumps(design.to_obj()))) == design

    def test_circuit_round_trip(self):
        for seed in range(4):
            c = build_random(3, 5, seed=seed, reset=bool(seed % 2))
            obj = json.loads(json.dumps(serialize.circuit_to_obj(c)))
            assert serialize.circuit_from_obj(obj) == c

    def test_noise_round_trip(self):
        noise = NoiseModel.depolarizing(0.998, 0.99, 0.03, mcm_post_flip=0.01)
        obj = json.loads(json.dumps(serialize.noise_to_obj(noise)))
        assert serialize.noise_from_obj(obj) == noise


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
            assert entry["depth"] == 0 and entry["layers"] == [] and entry["m"] == 0


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

    @pytest.mark.parametrize("damage", ["missing-key", "truncated", "wire-out-of-range"])
    def test_malformed_circuits_file_exits_3(self, workspace, damage):
        text = read(_make_design(workspace, "exp") / "circuits.json")
        if damage == "truncated":
            text = text[: len(text) // 2]
        else:
            obj = json.loads(text)
            if damage == "missing-key":
                del obj["circuits"][1]["target"]
            else:
                obj["circuits"][0]["prep"][0]["wires"] = [obj["circuits"][0]["n"] + 3]
            text = json.dumps(obj)
        bad = workspace / "bad.json"
        bad.write_text(text)
        proc = run_process(["simulate", "--circuits", bad, "--out", workspace / "r.json"])
        assert proc.returncode == 3
        assert proc.stderr.startswith("schema error:")
        assert "Traceback" not in proc.stderr

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

    def test_multi_config_reports_erm(self, workspace):
        res_a = self._results(workspace, name="a", p_mcm=0.1, seed=1)
        res_b = self._results(workspace, name="b", p_mcm=0.6, seed=2)
        rep = workspace / "rep3"
        assert run(["analyze", res_a, res_b, "--bootstrap", 8,
                    "--erm-bootstrap", 4, "--out", rep]) == 0
        obj = serialize.read_json(str(rep / "report.json"))
        assert obj["erm"] is not None
        assert 0.0 <= obj["erm"]["eps_mcm"] <= 1.0


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


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["design", "--n", "2"])  # missing required flags
    assert exc.value.code == 2
