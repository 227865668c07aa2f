import csv
import dataclasses
import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from qswitch_lab import SubsystemLayout, fidelity_with_ket, ghz_ket, k_multiline
from qswitch_lab.cli import CHECKS, main
from qswitch_lab.numeric import NumericPolicy, policy

from conftest import bell_phase_flip_mixture, kraus_apply


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

    def test_d2_n10_runs_past_the_kraus_storage_limit(self, runner):
        # dimension 2048 passes the dimension guard; the noiseless row applies
        # the closed action, not the Kraus list of ~137 GB
        result = runner.invoke(main, ["verify", "--d", "2", "--n", "10"])
        assert result.exit_code == 0, result.output
        assert "multiline noiseless subspace (d=2, N=10)" in result.output

    @pytest.mark.parametrize(
        "d,n", [(d, n) for d in (2, 3, 4) for n in (1, 2, 3) if (d, n) != (4, 3)]
    )
    def test_noiseless_row_equals_the_kraus_path(self, d, n):
        # the row applies the closed action; its oracle is the Kraus list (at
        # (4, 3) that list is 265 MB, so it is left out)
        labels = tuple(f"B{i}" for i in range(1, n + 1)) + ("C",)
        layout = SubsystemLayout((d,) * (n + 1), labels)
        k = k_multiline(d, n)
        worst = 0.0
        for x in range(d):
            g = ghz_ket(d, n + 1, x)
            out = kraus_apply(k.kraus, g.density(layout), labels)
            worst = max(worst, 1.0 - fidelity_with_ket(out, g))
        assert CHECKS["multiline-noiseless"].distance(d, n) == worst
        if n == 1:
            assert CHECKS["noiseless"].distance(d, n) == worst

    @pytest.mark.parametrize("args, built", [
        # the order, closed form, coincidence choice and round-trip Choi matrices
        (["--d", "4"], 4),
        # the random choice's too; the coincidence choice only for the round trip
        (["--d", "4", "--choice-amplitudes", "random-seeded"], 5),
        # K^(1) is the N = 1 enumeration row's closed form as well
        (["--d", "2", "--n", "1"], 5),
    ])
    def test_each_choi_matrix_is_built_once_per_call(self, runner, monkeypatch, args, built):
        from qswitch_lab import channels, cli

        calls, extended = [], []

        def counted(ch, choi=channels.choi):
            calls.append(ch)
            return choi(ch)

        def extensions(d, build=cli.coincidence_extensions):
            extended.append(d)
            return build(d)

        monkeypatch.setattr(channels, "choi", counted)
        monkeypatch.setattr(cli, "choi", counted)
        # the choice and round-trip rows share the coincidence extensions too
        monkeypatch.setattr(cli, "coincidence_extensions", extensions)
        outputs = []
        for _ in range(2):  # nothing is kept from one call to the next
            calls.clear()
            extended.clear()
            result = runner.invoke(main, ["verify", *args])
            assert result.exit_code == 0, result.output
            assert len(calls) == built
            assert extended == [int(args[1])]
            outputs.append(result.output)
        assert outputs[0] == outputs[1]

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
    ("--d", "5"): [_ORDER, _CHOICE, _NOISELESS, _ROUND_TRIP, "4/4 checks passed"],
    ("--d", "3", "--n", "2"): [
        _ORDER, _CHOICE, _NOISELESS, _ROUND_TRIP,
        "[PASS] multiline noiseless subspace (d={d}, N=2)",
        "5/5 checks passed",
    ],
    ("--d", "2", "--n", "10"): [
        _ORDER, _CHOICE, _NOISELESS, _ROUND_TRIP,
        "[PASS] multiline noiseless subspace (d={d}, N=10)",
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
            (
                ("--d", "6"),
                "Error: cyclic switch needs 46656 matrices of dimension 36 (967 MB), above "
                "the 268 MB of one matrix at the limit of 4096",
            ),
            (
                ("--d", "9", "--n", "3"),
                "Error: multiline verification needs total dimension 6561, above the "
                "configured limit of 4096",
            ),
            (
                ("--d", "2", "--n", "12"),
                "Error: multiline verification needs total dimension 8192, above the "
                "configured limit of 4096",
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

    def test_negative_receiver_probability_past_tol_exits_2(self, runner, tmp_path):
        path = tmp_path / "resource.json"
        entries = bell_phase_flip_mixture(-1e-11).tolist()
        path.write_text(json.dumps({
            "labels": ["A", "C"], "dims": [2, 2],
            "entries": [[[v, 0.0] for v in row] for row in entries],
        }))
        args = ["run", "private-dit", "--d", "2", "--resource", f"file:{path}"]
        assert runner.invoke(main, args).exit_code == 0
        result = runner.invoke(main, [*args, "--tol", "1e-12"])
        assert result.exit_code == 2, result.output
        assert "receiver outcome probability is -5.0000004137018526e-12" in result.output

    @pytest.mark.parametrize(
        "payload",
        [
            [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],  # no object at the top
            {"labels": ["A", "C"], "dims": [2, 2], "entries": np.eye(4).tolist()},  # no pairs
            {"labels": ["A", "C"], "dims": 2, "entries": [[[1.0, 0.0]]]},
        ],
        ids=["top-level-list", "bare-numbers", "scalar-dims"],
    )
    def test_malformed_file_resource_is_usage_error(self, runner, tmp_path, payload):
        path = tmp_path / "resource.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["run", "bipartite", "--d", "2", "--resource", f"file:{path}"])
        assert result.exit_code == 2, result.output
        assert "cannot load resource state" in result.output

    @pytest.mark.parametrize("dims", [[2.7, 2.2], [2.0, 2.0], [True, 4]])
    def test_file_resource_with_non_integer_dims_is_usage_error(self, runner, tmp_path, dims):
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        path = tmp_path / "resource.json"
        path.write_text(json.dumps({
            "labels": ["A", "C"], "dims": dims,
            "entries": [[[float(v), 0.0] for v in row] for row in np.outer(phi, phi)],
        }))
        result = runner.invoke(main, ["run", "bipartite", "--d", "2", "--resource", f"file:{path}"])
        assert result.exit_code == 2, result.output
        assert "subsystem dimensions must be integers" in result.output

    def test_nan_schmidt_spectrum_is_usage_error(self, runner):
        result = runner.invoke(main, ["run", "bipartite", "--d", "2", "--resource", "schmidt:nan,1"])
        assert result.exit_code == 2, result.output
        assert "Schmidt spectrum entries must be nonnegative" in result.output

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

    def test_resource_guarded_before_the_run(self, runner):
        result = runner.invoke(main, ["run", "private-dit", "--d", "65"])
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == (
            "Error: resource needs total dimension 4225, above the configured limit of 4096"
        )

    @pytest.mark.parametrize("encodings", ["dfs-phase", "classical-flag"])
    def test_fixed_baseline_guarded(self, runner, encodings):
        result = runner.invoke(
            main, ["run", "fixed-baseline", "--d", "65", "--encodings", encodings]
        )
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == (
            "Error: encodings needs total dimension 4225, above the configured limit of 4096"
        )

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

    def test_csv_cell_with_a_comma_reads_back(self, runner, tmp_path):
        out = tmp_path / "skew.csv"
        spec = "schmidt:0.2,0.3,0.5"
        args = ["run", "private-dit", "--d", "3", "--resource", spec, "--format", "csv"]
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        with open(out, newline="") as fh:
            header, row = csv.reader(fh)
        assert len(row) == len(header)
        assert dict(zip(header, row))["resource"] == spec

    def test_json_flags_load_as_booleans(self, runner, tmp_path):
        out = tmp_path / "t.json"
        result = runner.invoke(main, ["run", "bipartite", "--d", "2", "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["metrics"]["maximally_entangled_all_branches"] is True
        assert [b["metrics"]["maximally_entangled"] for b in payload["branches"]] == [True, True]

    @pytest.mark.parametrize("encodings, leak", [("dfs-phase", False), ("classical-flag", True)])
    def test_fixed_baseline_json(self, runner, tmp_path, encodings, leak):
        out = tmp_path / "fixed.json"
        args = ["run", "fixed-baseline", "--d", "2", "--encodings", encodings, "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.output.endswith(f"wrote {out}\n")
        payload = json.loads(out.read_text())
        assert sorted(payload) == ["header", "metrics", "schema"]
        assert payload["header"] == {"protocol": "fixed-baseline", "d": 2, "encodings": encodings}
        assert payload["metrics"]["leak_certified"] is leak

    def test_fixed_baseline_csv_row(self, runner, tmp_path):
        out = tmp_path / "fixed.csv"
        result = runner.invoke(
            main, ["run", "fixed-baseline", "--d", "2", "--format", "csv", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert result.output.endswith(f"wrote {out}\n")
        assert out.read_text() == (
            "protocol,d,encodings,bob_success,bob_success_upper_bound,leak_certified,"
            "min_pairwise_charlie_trace_distance\n"
            "fixed-baseline,2,dfs-phase,0.5,0.5,false,0\n"
        )

    def test_stdout_lines_are_the_csv_metric_columns(self, runner, tmp_path):
        # one selection of scalar metrics serves both outputs
        for protocol in ("bipartite", "fixed-baseline"):
            out = tmp_path / f"{protocol}.csv"
            result = runner.invoke(
                main, ["run", protocol, "--d", "3", "--format", "csv", "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
            printed = [ln.split(": ")[0] for ln in result.output.splitlines()[:-1]]
            header = out.read_text().splitlines()[0].split(",")
            assert header[-len(printed):] == printed

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

    def test_unknown_config_keys_rejected(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"d": 2, "turbo": True}))
        result = runner.invoke(main, ["run", "private-dit", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "turbo" in result.output

    def test_every_flag_name_is_a_config_key(self, runner, tmp_path):
        cfg = tmp_path / "all.json"
        cfg.write_text(json.dumps({
            "command": "verify", "d": 2, "n": 1, "choice_amplitudes": "coincidence",
            "tol": 1e-10, "max_dim": 4096, "x": 0, "receivers": 2, "resource": "max",
            "encodings": "dfs-phase", "alpha": "0:1:11", "out": str(tmp_path / "unused"),
            "format": "json",
        }))
        result = runner.invoke(main, ["verify", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert "multiline noiseless subspace (d=2, N=1)" in result.output

    @pytest.mark.parametrize("key", ["config", "protocol", "max-dim", "turbo"])
    def test_other_config_keys_rejected(self, runner, tmp_path, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: "x"}))
        result = runner.invoke(main, ["run", "bipartite", "--config", str(cfg)])
        assert result.exit_code == 2
        assert f"unknown config keys ['{key}']" in result.output

    @pytest.mark.parametrize(
        "key, value", [("d", [2, 3]), ("receivers", {"a": 1})], ids=["list", "object"]
    )
    def test_non_scalar_config_value_is_usage_error(self, runner, tmp_path, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: value}))
        result = runner.invoke(main, ["run", "ghz", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert f"config key '{key}' must be a string, number or null" in result.output

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            (["run", "bipartite"], {"d": 3.9}, "config key 'd' must be an integer, got 3.9"),
            (["run", "ghz"], {"receivers": 2.0}, "config key 'receivers' must be an integer"),
            (["verify"], {"max_dim": 64.0}, "config key 'max_dim' must be an integer"),
            (["run", "private-dit"], {"x": True}, "key 'x' must be a string, number or null"),
            (["verify"], {"tol": True}, "key 'tol' must be a string, number or null, got bool"),
            (["run", "private-dit"], {"resource": False}, "key 'resource' must be a string"),
        ],
        ids=["float-d", "whole-float-receivers", "float-max-dim", "bool-x", "bool-tol",
             "bool-resource"],
    )
    def test_config_value_as_strict_as_flag(self, runner, tmp_path, command, cfg, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(main, command + ["--config", str(path)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert policy == NumericPolicy()

    def test_config_accepts_integer_for_float_flag(self, runner, tmp_path):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({"tol": 1}))
        result = runner.invoke(main, ["verify", "--d", "2", "--config", str(path)])
        assert result.exit_code == 0, result.output
        assert "(tol 1.0e+00)" in result.output

    def test_null_config_value_leaves_the_default(self, runner, tmp_path):
        cfg = tmp_path / "null.json"
        cfg.write_text(json.dumps({"d": None, "x": None, "resource": None}))
        result = runner.invoke(main, ["run", "private-dit", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert result.output == runner.invoke(main, ["run", "private-dit"]).output

    def test_config_value_of_wrong_type_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"d": "abc"}))
        result = runner.invoke(main, ["verify", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "Invalid value for '--d'" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_config_value_outside_choices_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"choice_amplitudes": "bogus"}))
        result = runner.invoke(main, ["verify", "--d", "2", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "Invalid value for '--choice-amplitudes'" in result.output
        assert "checks passed" not in result.output

    def test_config_values_apply_and_flags_override_them(self, runner, tmp_path):
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"d": 3, "n": 2, "choice_amplitudes": "random-seeded"}))
        result = runner.invoke(main, ["verify", "--config", str(cfg), "--d", "2"])
        assert result.exit_code == 0, result.output
        assert "random extensions: choice differs from order (d=2)" in result.output
        assert "multiline noiseless subspace (d=2, N=2)" in result.output
        assert "(d=3" not in result.output


@pytest.mark.parametrize("command", ["verify", "run", "sweep"])
def test_policy_flags_in_help(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    for flag in ("--tol", "--max-dim", "--config"):
        assert flag in result.output


# each pair: a command left at its defaults, then with them spelled out
_DEFAULTS = [
    (
        ["run", "bipartite", "--d", "3", "--format", "csv"],
        ["--x", "0", "--receivers", "2", "--resource", "max", "--encodings", "dfs-phase"],
    ),
    (["run", "ghz"], ["--d", "2", "--receivers", "2", "--resource", "max", "--format", "json"]),
    (["sweep", "bipartite"], ["--d", "2", "--alpha", "0:1:11", "--receivers", "2"]),
    (["verify"], ["--d", "2", "--choice-amplitudes", "coincidence"]),
]


@pytest.mark.parametrize("args, spelled", _DEFAULTS, ids=lambda v: " ".join(v))
def test_defaults_equal_the_spelled_out_flags(runner, tmp_path, args, spelled):
    outputs = []
    for extra in ([], spelled):
        out = tmp_path / f"out{len(outputs)}"
        out_flag = [] if args[0] == "verify" else ["--out", str(out)]
        result = runner.invoke(main, [*args, *extra, *out_flag])
        assert result.exit_code == 0, result.output
        text = result.output.replace(str(out), "OUT")
        outputs.append((text, out.read_bytes() if out_flag else b""))
    assert outputs[0] == outputs[1]


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

    @pytest.mark.parametrize("protocol", ["private-dit", "ghz"])
    def test_file_holds_the_stdout_table(self, runner, tmp_path, protocol):
        args = ["sweep", protocol, "--d", "2", "--alpha", "0:1:21"]
        printed = runner.invoke(main, args)
        assert printed.exit_code == 0, printed.output
        out = tmp_path / "s.csv"
        written = runner.invoke(main, [*args, "--out", str(out)])
        assert written.exit_code == 0, written.output
        table, summary = printed.output.rsplit("\n", 2)[:2]
        assert out.read_bytes() == (table + "\n").encode()
        assert written.output == f"wrote {out}\n{summary}\n"

    @pytest.mark.parametrize("protocol", ["private-dit", "bipartite"])
    def test_near_uniform_perfect_rows_read_uniform(self, runner, protocol):
        # 0.49999 is 1e-5 from uniform: its deficit, about 2e-10, is perfect
        result = runner.invoke(main, ["sweep", protocol, "--d", "2", "--alpha", "0.49999:0.5:2"])
        assert result.exit_code == 0, result.output
        assert result.output.endswith(
            "perfect rows: 2; only at uniform spectrum: True; monotone in entanglement: True\n")

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


    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_env_var_ignored_when_max_dim_is_set(self, runner, monkeypatch, tmp_path, source):
        monkeypatch.setenv("QSWITCH_MAX_DIM", "abc")
        args = ["run", "bipartite"]
        if source == "flag":
            args += ["--max-dim", "64"]
        else:
            path = tmp_path / "guard.json"
            path.write_text(json.dumps({"max_dim": 64}))
            args += ["--config", str(path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        unset = runner.invoke(main, ["run", "bipartite"], env={"QSWITCH_MAX_DIM": None})
        assert result.output == unset.output

    def test_bad_env_var_alone_is_usage_error(self, runner, monkeypatch):
        monkeypatch.setenv("QSWITCH_MAX_DIM", "abc")
        result = runner.invoke(main, ["run", "bipartite"])
        assert result.exit_code == 2
        assert "QSWITCH_MAX_DIM must be an integer, got 'abc'" in result.output


class TestTolerance:
    """``--tol`` is finite and positive, from the flag or the config file."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "-0.0"])
    @pytest.mark.parametrize(
        "command",
        [["verify", "--d", "2"], ["run", "bipartite"], ["sweep", "bipartite", "--alpha", "0:1:3"]],
        ids=["verify", "run", "sweep"],
    )
    def test_flag_rejected(self, runner, command, value):
        result = runner.invoke(main, [*command, "--tol", value])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--tol': must be finite and positive" in result.output
        assert policy == NumericPolicy()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-1", "0"])
    def test_config_value_rejected(self, runner, tmp_path, value):
        path = tmp_path / "tol.json"
        path.write_text('{"tol": %s}' % value)
        result = runner.invoke(main, ["verify", "--d", "2", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert "'--tol': must be finite and positive" in result.output

    def test_value_error_in_a_verify_row_is_usage_error(self, runner):
        # at d = 3 a fidelity exceeds 1 by more than so small a tolerance
        result = runner.invoke(main, ["verify", "--d", "3", "--tol", "1e-300"])
        assert result.exit_code == 2, result.output
        assert "outside [0, 1] beyond the spectral tolerance" in result.output.splitlines()[-1]
        assert policy == NumericPolicy()


class TestPolicyScope:
    """Tolerance and guard overrides last only as long as their command."""

    def test_policy_holds_only_what_a_command_sets(self):
        # every other numeric rule is a constant of ``numeric``
        assert [f.name for f in dataclasses.fields(NumericPolicy)] == ["spectral_tol", "max_dim"]

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

    def test_setting_a_name_that_is_not_a_field_raises(self):
        # the tolerances that became constants of ``numeric`` cannot be set
        # here and silently read nowhere
        with pytest.raises(AttributeError, match="'structural_tol'; its settings are spectral_tol and max_dim"):
            policy.structural_tol = 1e-8
        assert vars(policy) == vars(NumericPolicy())

    def test_vars_of_a_policy_are_its_two_settings(self):
        assert vars(NumericPolicy()) == {"spectral_tol": 1e-10, "max_dim": 4096}

    def test_command_restores_a_monkeypatched_setting(self, runner, monkeypatch):
        monkeypatch.delenv("QSWITCH_MAX_DIM", raising=False)
        monkeypatch.setattr(policy, "max_dim", 512)
        monkeypatch.setattr(policy, "spectral_tol", 1e-9)
        args = ["run", "ghz", "--d", "2", "--receivers", "2", "--tol", "1e-3", "--max-dim", "64"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert (policy.max_dim, policy.spectral_tol) == (512, 1e-9)
