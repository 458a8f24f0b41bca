import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "privcap"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=600
    )


class TestRegion:
    def test_erasure_grid_values(self, tmp_path):
        out = tmp_path / "er.csv"
        res = run_cli("region", "--channel", "erasure", "--eps", "0.25",
                      "--grid", "3", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "param,b_rp,b_ps,b_rps"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert rows[0] == [0.0, 0.75, 0.0, 0.75]
        assert rows[2] == [0.5, 0.75, 0.5, 0.5]
        assert rows[1][0] == 0.25

    def test_dephasing_midpoint(self, tmp_path):
        out = tmp_path / "deph.csv"
        res = run_cli("region", "--channel", "dephasing", "--p", "0.2",
                      "--grid", "101", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 102
        mid = [float(v) for v in lines[51].split(",")]
        assert mid[0] == pytest.approx(0.25, abs=1e-12)
        row_last = [float(v) for v in lines[-1].split(",")]
        assert row_last[2] == pytest.approx(0.5310044064107188, abs=1e-9)

    def test_cloning_rp_constant(self, tmp_path):
        out = tmp_path / "clone.csv"
        res = run_cli("region", "--channel", "cloning", "--n", "10",
                      "--grid", "51", "--out", str(out))
        assert res.returncode == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert len({row[1] for row in rows}) == 1

    def test_eb_exact_one_bit(self, tmp_path):
        # the completely dephasing channel carries exactly one classical bit
        out = tmp_path / "eb.csv"
        res = run_cli("region", "--channel", "eb", "--grid", "3", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1:] == ["0.0,1.0,0.0,1.0"] * 3

    def test_byte_stable(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            res = run_cli("region", "--channel", "dephasing", "--p", "0.2",
                          "--grid", "41", "--out", str(p), "--seed", "7")
            assert res.returncode == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_has_no_effect(self, tmp_path):
        # the closed-form regions take no seed; --seed is accepted and ignored
        paths = [tmp_path / "seed0.csv", tmp_path / "seed7.csv"]
        for p, seed in zip(paths, ("0", "7")):
            res = run_cli("region", "--channel", "dephasing", "--p", "0.2",
                          "--grid", "41", "--out", str(p), "--seed", seed)
            assert res.returncode == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        for command in ("region", "member"):
            assert "no effect" in " ".join(run_cli(command, "--help").stdout.split())

    def test_plot_script_emitted(self, tmp_path):
        out = tmp_path / "er.csv"
        res = run_cli("region", "--channel", "erasure", "--eps", "0.25",
                      "--grid", "5", "--out", str(out), "--plot")
        assert res.returncode == 0
        script = (tmp_path / "er.gp").read_text()
        assert "splot" in script and "er.csv" in script

    def test_json_format(self, tmp_path):
        out = tmp_path / "er.json"
        res = run_cli("region", "--channel", "erasure", "--eps", "0.25",
                      "--grid", "3", "--out", str(out), "--format", "json")
        assert res.returncode == 0
        data = json.loads(out.read_text())
        assert data[2]["b_ps"] == 0.5

    def test_io_failure_exit_3(self, tmp_path):
        res = run_cli("region", "--channel", "erasure", "--eps", "0.25",
                      "--grid", "3", "--out", str(tmp_path / "no" / "dir.csv"))
        assert res.returncode == 3


class TestFormula:
    def test_erasure_record(self):
        res = run_cli("formula", "--channel", "erasure", "--eps", "0.25",
                      "--lambda", "1", "--mu", "0", "--restarts", "6")
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert set(record) == {"closed_form_value", "numeric_value", "param", "gap"}
        assert record["closed_form_value"] == pytest.approx(1.25, abs=1e-9)
        assert record["numeric_value"] == pytest.approx(1.25, abs=5e-3)
        assert abs(record["gap"]) < 5e-3

    def test_dephasing_hsw(self):
        res = run_cli("formula", "--channel", "dephasing", "--p", "0.2",
                      "--lambda", "0", "--mu", "0", "--restarts", "6")
        record = json.loads(res.stdout)
        assert record["closed_form_value"] == pytest.approx(1.0, abs=1e-9)
        assert record["numeric_value"] == pytest.approx(1.0, abs=5e-3)

    def test_custom_file_identity(self, tmp_path):
        doc = {
            "dim_in": 2,
            "dim_out": 2,
            "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
            "label": "custom",
        }
        path = tmp_path / "id.json"
        path.write_text(json.dumps(doc))
        res = run_cli("formula", "--channel", "custom-file", "--file", str(path),
                      "--lambda", "1", "--mu", "0", "--restarts", "6")
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert record["closed_form_value"] is None
        assert record["numeric_value"] == pytest.approx(2.0, abs=5e-3)

    def test_eb_closed_form(self):
        res = run_cli("formula", "--channel", "eb", "--mu", "1", "--restarts", "2")
        assert res.returncode == 0
        assert json.loads(res.stdout)["closed_form_value"] == 2.0

    def test_search_above_closed_form_flagged(self, monkeypatch, capsys):
        # the closed form is the maximum, so a search value above it is a bug;
        # the record on stdout keeps its format
        from privcap import TradeoffWeights, cli, erasure_family, pareto_point

        pp = pareto_point(erasure_family(0.25), TradeoffWeights(1.0, 0.0))
        closed = pp.value
        args = ["formula", "--channel", "erasure", "--eps", "0.25", "--lambda", "1"]
        for above, code in ((1e-7, 0), (1e-3, 1)):
            numeric = closed + above
            monkeypatch.setattr(cli, "maximize_p", lambda ch, w, cfg: (numeric, None))
            assert cli.main(args) == code
            out, err = capsys.readouterr()
            expect = {"closed_form_value": closed, "numeric_value": numeric,
                      "param": pp.param, "gap": closed - numeric}
            assert out == json.dumps(expect) + "\n"
            assert ("internal error" in err) == bool(code)

    def test_seed_env_fallback(self):
        args = ("formula", "--channel", "dephasing", "--p", "0.2",
                "--lambda", "1", "--mu", "1", "--restarts", "4")
        via_flag = run_cli(*args, "--seed", "123")
        via_env = run_cli(*args, env_extra={"TRADEOFF_SEED": "123"})
        assert json.loads(via_flag.stdout) == json.loads(via_env.stdout)


class TestVerify:
    def test_unit_matrix_suite(self):
        res = run_cli("verify", "--suite", "unit-matrix")
        assert res.returncode == 0
        assert res.stdout.startswith("PASS")

    def test_erasure_affine_suite(self):
        res = run_cli("verify", "--suite", "erasure-affine", "--eps", "0.25")
        assert res.returncode == 0
        assert "FAIL" not in res.stdout

    def test_parameter_not_taken_rejected(self):
        for suite, flag in (("unit-matrix", "--eps"), ("unit-matrix", "--p"),
                            ("erasure-affine", "--p"), ("pauli-symmetry", "--eps")):
            res = run_cli("verify", "--suite", suite, flag, "0.9")
            assert res.returncode == 2
            assert suite in res.stderr and flag in res.stderr
            assert res.stdout == ""

    def test_unknown_suite_rejected(self):
        res = run_cli("verify", "--suite", "nonsense")
        assert res.returncode == 2


class TestMember:
    def test_inside_with_witness(self):
        res = run_cli("member", "--channel", "dephasing", "--p", "0.2",
                      "-R", "1", "-P", "0", "-S", "0")
        assert res.returncode == 0
        assert "inside" in res.stdout and "witness" in res.stdout

    def test_one_time_pad_point(self):
        res = run_cli("member", "--channel", "erasure", "--eps", "0.25",
                      "-R", "-1", "-P", "1", "-S", "-1")
        assert res.returncode == 0

    def test_outside(self):
        res = run_cli("member", "--channel", "cloning", "--n", "2",
                      "-R", "0.7", "-P", "0", "-S", "0")
        assert res.returncode == 1
        assert "outside" in res.stdout


class TestBadArguments:
    def test_missing_channel_parameter(self):
        res = run_cli("region", "--channel", "dephasing", "--grid", "3",
                      "--out", "/tmp/x.csv")
        assert res.returncode == 2

    def test_out_of_domain(self):
        res = run_cli("member", "--channel", "erasure", "--eps", "1.5",
                      "-R", "0", "-P", "0", "-S", "0")
        assert res.returncode == 2

    def test_non_finite_rate(self):
        res = run_cli("member", "--channel", "dephasing", "--p", "0.2",
                      "-R", "nan", "-P", "0", "-S", "0")
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and "rate R" in res.stderr
        assert res.stdout == ""

    def test_malformed_channel_file(self, tmp_path):
        doc = {"dim_in": None, "dim_out": 2, "kraus": [[[[1.0, 0.0], [0.0, 0.0]],
                                                        [[0.0, 0.0], [1.0, 0.0]]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        res = run_cli("formula", "--channel", "custom-file", "--file", str(path))
        assert res.returncode == 2
        assert res.stderr == "error: 'dim_in' must be a positive integer, got None\n"

    def test_unknown_channel(self):
        res = run_cli("region", "--channel", "amplitude", "--out", "/tmp/x.csv")
        assert res.returncode == 2
