import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from qswitch_lab.cli import main
from qswitch_lab.numeric import NumericPolicy, policy


@pytest.fixture
def runner():
    return CliRunner()


class TestVerify:
    def test_d3_all_checks_pass(self, runner):
        result = runner.invoke(main, ["verify", "--d", "3"])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output
        assert "tol" in result.output  # tolerance echoed with each verdict

    def test_random_extensions_reported_unequal(self, runner):
        result = runner.invoke(main, ["verify", "--d", "2", "--choice-amplitudes", "random-seeded"])
        assert result.exit_code == 0, result.output
        assert "differs" in result.output

    def test_resource_guard_is_config_error(self, runner):
        result = runner.invoke(main, ["verify", "--d", "9", "--n", "3"])
        assert result.exit_code == 2
        assert "limit" in result.output

    def test_kraus_storage_guard_is_config_error(self, runner):
        # dimension 2048 passes the dimension guard; the Kraus list would need ~137 GB
        result = runner.invoke(main, ["verify", "--d", "2", "--n", "10"])
        assert result.exit_code == 2
        assert "storage limit" in result.output

    def test_multiline_checks(self, runner):
        result = runner.invoke(main, ["verify", "--d", "2", "--n", "2"])
        assert result.exit_code == 0, result.output
        assert "multiline" in result.output

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_line_count_is_usage_error(self, runner, n):
        result = runner.invoke(main, ["verify", "--d", "2", "--n", n])
        assert result.exit_code == 2
        assert "--n must be at least 1" in result.output


_ORDER = "[PASS] closed form vs order enumeration (d={d})"
_CHOICE = "[PASS] coincidence: choice vs order (d={d})"
_NOISELESS = "[PASS] noiseless subspace preserved (d={d}, all phases)"
_ROUND_TRIP = "[PASS] rank-one decomposition round-trip (d={d})"
# every line of `verify`, in order, with the distance figure masked
_VERIFY_OUTPUT = {
    ("--d", "2", "--n", "2"): [
        _ORDER, _CHOICE, _NOISELESS, _ROUND_TRIP,
        "[PASS] multiline closed form vs enumeration (d={d}, N=2)",
        "[PASS] multiline noiseless subspace (d={d}, N=2)",
        "6/6 checks passed",
    ],
    ("--d", "3"): [_ORDER, _CHOICE, _NOISELESS, _ROUND_TRIP, "4/4 checks passed"],
    ("--d", "4"): [_ORDER, _CHOICE, _NOISELESS, _ROUND_TRIP, "4/4 checks passed"],
    ("--d", "3", "--n", "2"): [
        _ORDER, _CHOICE, _NOISELESS, _ROUND_TRIP,
        "[PASS] multiline noiseless subspace (d={d}, N=2)",
        "5/5 checks passed",
    ],
    ("--d", "2", "--choice-amplitudes", "random-seeded"): [
        _ORDER,
        "[PASS] random extensions: choice differs from order (d={d})",
        _NOISELESS, _ROUND_TRIP,
        "4/4 checks passed",
    ],
}


class TestVerifyOutput:
    """The text of `verify`; distances are masked because round-off values
    such as 3.331e-16 depend on the numpy/BLAS build."""

    @pytest.mark.parametrize("args", list(_VERIFY_OUTPUT), ids=" ".join)
    def test_lines_verdicts_and_tally(self, runner, args):
        result = runner.invoke(main, ["verify", *args])
        assert result.exit_code == 0, result.output
        d = args[1]
        masked = [
            re.sub(r": distance \S+ \(tol 1\.0e-10\)$", "", ln)
            for ln in result.output.splitlines()
        ]
        assert masked == [ln.format(d=d) for ln in _VERIFY_OUTPUT[args]]

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--d", "5"), "Error: cyclic enumeration is capped at 4 channels, got 5"),
            (
                ("--d", "9", "--n", "3"),
                "Error: multiline verification needs total dimension 6561, above the "
                "configured limit of 4096",
            ),
            (
                ("--d", "2", "--n", "10"),
                "Error: 10-line coincidence channel as a Kraus list needs 2047 operators "
                "of dimension 2048 (137372 MB), above the storage limit of 268 MB "
                "(max_dim 4096 squared)",
            ),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
    )
    def test_guard_failures(self, runner, args, message):
        result = runner.invoke(main, ["verify", *args])
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == message


class TestRun:
    def test_private_dit_summary(self, runner):
        result = runner.invoke(main, ["run", "private-dit", "--d", "2", "--x", "1"])
        assert result.exit_code == 0, result.output
        assert "success_probability: 1" in result.output
        assert "privacy_max_trace_distance: 0" in result.output

    def test_file_resource(self, runner, tmp_path):
        import numpy as np

        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        entries = np.outer(phi, phi)
        payload = {
            "labels": ["A", "C"],
            "dims": [2, 2],
            "entries": [[[float(v), 0.0] for v in row] for row in entries],
        }
        path = tmp_path / "resource.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(
            main, ["run", "private-dit", "--d", "2", "--x", "1", "--resource", f"file:{path}"]
        )
        assert result.exit_code == 0, result.output
        assert "success_probability: 1" in result.output
        bad = runner.invoke(
            main, ["run", "private-dit", "--d", "2", "--resource", "file:/nonexistent.json"]
        )
        assert bad.exit_code == 2

    def test_private_dit_skewed_resource(self, runner):
        result = runner.invoke(
            main,
            ["run", "private-dit", "--d", "2", "--x", "0", "--resource", "schmidt:0.25,0.75"],
        )
        assert result.exit_code == 0, result.output
        assert "success_probability: 0.933012701892" in result.output

    def test_ghz_summary_reports_ggm(self, runner):
        result = runner.invoke(main, ["run", "ghz", "--d", "2", "--receivers", "2"])
        assert result.exit_code == 0, result.output
        assert "fidelity_mean: 1" in result.output
        assert "pre_measurement_ggm: 0.5" in result.output

    def test_ghz_past_ggm_cap_still_runs(self, runner):
        result = runner.invoke(main, ["run", "ghz", "--d", "2", "--receivers", "5"])
        assert result.exit_code == 0, result.output
        assert "fidelity_mean: 1\n" in result.output
        assert "fidelity_min: 1\n" in result.output
        assert "pre_measurement_ggm" not in result.output

    def test_fixed_baseline(self, runner):
        result = runner.invoke(main, ["run", "fixed-baseline", "--d", "2"])
        assert result.exit_code == 0, result.output
        assert "bob_success: 0.5" in result.output
        flag = runner.invoke(
            main, ["run", "fixed-baseline", "--d", "2", "--encodings", "classical-flag"]
        )
        assert "bob_success: 1" in flag.output
        assert "leak_certified: true" in flag.output

    def test_json_transcript_written(self, runner, tmp_path):
        out = tmp_path / "t.json"
        result = runner.invoke(
            main, ["run", "private-dit", "--d", "2", "--x", "1", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["schema"] == "qswitch-lab/1"
        assert payload["params"]["x"] == 1
        joint = np.zeros((2, 2))
        for b in payload["branches"]:
            if b["receiver_outcomes"] is not None:
                joint[b["receiver_outcomes"][0], b["controller_outcome"]] += b["probability"]
        assert abs(joint[0, 1] - 0.5) < 1e-10 and abs(joint[1, 0] - 0.5) < 1e-10
        # complex entries serialized as [re, im] pairs
        first_stage = payload["stages"][0]["state"]["entries"]
        assert isinstance(first_stage[0][0], list) and len(first_stage[0][0]) == 2

    def test_csv_metric_row(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        result = runner.invoke(
            main,
            ["run", "bipartite", "--d", "2", "--out", str(out), "--format", "csv"],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "fidelity_mean" in lines[0]

    def test_invalid_params_exit_2(self, runner):
        assert runner.invoke(main, ["run", "private-dit", "--d", "2", "--x", "5"]).exit_code == 2
        assert runner.invoke(main, ["run", "private-dit", "--d", "1"]).exit_code == 2
        assert (
            runner.invoke(main, ["run", "private-dit", "--resource", "schmidt:0.5"]).exit_code == 2
        )

    def test_config_file_and_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": 2, "x": 0, "resource": "max"}))
        base = runner.invoke(main, ["run", "private-dit", "--config", str(cfg)])
        assert base.exit_code == 0
        over = runner.invoke(
            main,
            ["run", "private-dit", "--config", str(cfg), "--resource", "schmidt:0.25,0.75"],
        )
        assert "0.933012701892" in over.output

    def test_config_round_trips_exactly(self):
        from qswitch_lab.cli import RunConfig

        cfg = RunConfig(
            command="run", d=3, x=2, resource="schmidt:0.1,0.2,0.7", tol=1.7e-10
        )
        again = RunConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.to_json() == cfg.to_json()

    def test_unknown_config_keys_rejected(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"d": 2, "turbo": True}))
        result = runner.invoke(main, ["run", "private-dit", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "turbo" in result.output


class TestSweep:
    def test_private_dit_grid(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        result = runner.invoke(
            main,
            ["sweep", "private-dit", "--d", "2", "--alpha", "0:1:101", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 102
        header = lines[0].split(",")
        assert header[:2] == ["lambda_0", "lambda_1"]
        assert "metric" in header and "is_perfect" in header
        perfect = [ln for ln in lines[1:] if ln.endswith("true")]
        assert len(perfect) == 1 and perfect[0].startswith("0.5,")

    def test_degenerate_grid(self, runner):
        result = runner.invoke(main, ["sweep", "bipartite", "--d", "2", "--alpha", "0.5:0.5:1"])
        assert result.exit_code == 0, result.output
        assert result.output.count("true") >= 1

    def test_ghz_grid_rows(self, runner, tmp_path):
        out = tmp_path / "g.csv"
        result = runner.invoke(
            main,
            [
                "sweep", "ghz", "--d", "2", "--receivers", "2",
                "--alpha", "0:1:11", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 12
        metric_col = lines[0].split(",").index("metric")
        for i, ln in enumerate(lines[1:]):
            val = float(ln.split(",")[metric_col])
            if i == 5:
                assert val > 1 - 1e-9
            else:
                assert val < 1 - 1e-9

    def test_protocol_value_error_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["sweep", "ghz", "--d", "2", "--receivers", "0", "--alpha", "0:1:3"]
        )
        assert result.exit_code == 2
        assert "at least one receiver" in result.output

    def test_malformed_grid_exit_2(self, runner):
        assert runner.invoke(main, ["sweep", "private-dit", "--alpha", "nope"]).exit_code == 2
        assert runner.invoke(main, ["sweep", "private-dit", "--alpha", "0:2:5"]).exit_code == 2


class TestDeterminism:
    def test_run_outputs_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            result = runner.invoke(
                main,
                ["run", "ghz", "--d", "2", "--receivers", "2", "--out", str(path)],
            )
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_outputs_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            result = runner.invoke(
                main,
                ["sweep", "private-dit", "--d", "2", "--alpha", "0:1:21", "--out", str(path)],
            )
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_var_overrides_guard(self, runner, monkeypatch):
        monkeypatch.setenv("QSWITCH_MAX_DIM", "8")
        result = runner.invoke(main, ["run", "ghz", "--d", "2", "--receivers", "2"])
        assert result.exit_code == 2
        assert "limit" in result.output

    def test_max_dim_flag_beats_env(self, runner, monkeypatch):
        monkeypatch.setenv("QSWITCH_MAX_DIM", "8")
        result = runner.invoke(
            main, ["run", "ghz", "--d", "2", "--receivers", "2", "--max-dim", "64"]
        )
        assert result.exit_code == 0, result.output


class TestPolicyScope:
    """Tolerance and guard overrides last only as long as their command."""

    @pytest.mark.parametrize(
        "args, code",
        [
            (["verify", "--d", "2", "--n", "2", "--tol", "1e-3", "--max-dim", "64"], 0),
            (["verify", "--d", "2", "--tol", "1e-30", "--max-dim", "64"], 1),  # checks fail
            (["verify", "--d", "5", "--tol", "1e-3", "--max-dim", "64"], 2),  # guard
            (["run", "ghz", "--d", "2", "--receivers", "2", "--tol", "1e-3", "--max-dim", "64"], 0),
            (["run", "private-dit", "--d", "2", "--x", "7", "--tol", "1e-3"], 2),
            (["run", "ghz", "--d", "3", "--receivers", "2"], 2),  # QSWITCH_MAX_DIM alone
            (["sweep", "bipartite", "--d", "2", "--alpha", "0:1:3", "--tol", "1e-3",
              "--max-dim", "64"], 0),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_overrides_restored_after_each_command(self, runner, monkeypatch, args, code):
        monkeypatch.setenv("QSWITCH_MAX_DIM", "32")
        result = runner.invoke(main, args)
        assert result.exit_code == code, result.output
        assert policy == NumericPolicy()
