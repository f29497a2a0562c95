"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "earthplus"
        assert args.dataset == "sentinel2"
        assert args.gamma == 0.3

    def test_compare_planet_options(self):
        args = build_parser().parse_args(
            ["compare", "--dataset", "planet", "--satellites", "8"]
        )
        assert args.dataset == "planet"
        assert args.satellites == 8

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "magic"])

    @pytest.mark.parametrize("command", ["run", "simulate", "sweep"])
    def test_codec_takes_model_or_real(self, command):
        for value in ("model", "real"):
            args = build_parser().parse_args([command, "--codec", value])
            assert args.codec == value

    @pytest.mark.parametrize("value", ["vectorized", "reference", "compiled"])
    def test_engine_codec_values_rejected_with_valid_list(
        self, value, capsys
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--codec", value])
        err = capsys.readouterr().err
        assert f"invalid choice: '{value}'" in err
        assert "'model', 'real'" in err


class TestCommands:
    def test_specs(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "250 kbps" in out
        assert "200 Mbps" in out

    def test_run_small(self, capsys):
        code = main(
            [
                "run", "--policy", "earthplus", "--locations", "A",
                "--bands", "B4,B11", "--days", "60", "--size", "128",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "earthplus" in out
        assert "downlink KB" in out

    def test_calibrate_small(self, capsys):
        code = main(
            ["calibrate", "--days", "90", "--size", "128"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "calibrated theta" in out


class TestScenarioCommands:
    def test_simulate_parser_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.policy == "earthplus"
        assert args.format == "table"
        assert args.seed == 0

    def test_sweep_parser_options(self):
        args = build_parser().parse_args(
            ["sweep", "--policies", "earthplus,naive", "--seeds", "0,1",
             "--workers", "2", "--format", "csv"]
        )
        assert args.policies == "earthplus,naive"
        assert args.workers == 2
        assert args.format == "csv"

    def test_simulate_json(self, capsys):
        import json

        code = main(
            ["simulate", "--locations", "A", "--bands", "B4",
             "--days", "30", "--size", "128", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["policy"] == "earthplus"
        assert rows[0]["records"] > 0

    def test_simulate_profile_table(self, capsys):
        code = main(
            ["simulate", "--locations", "A", "--bands", "B4",
             "--days", "30", "--size", "128", "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-phase timing breakdown" in out
        for section in ("uplink", "capture", "ingest"):
            assert section in out

    def test_simulate_profile_json(self, capsys):
        import json

        code = main(
            ["simulate", "--locations", "A", "--bands", "B4",
             "--days", "30", "--size", "128", "--profile",
             "--format", "json"]
        )
        assert code == 0
        # One structured JSON document: results plus a profile section
        # (historically two concatenated documents, which json.loads on
        # the whole output rejected).
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"results", "profile"}
        assert doc["results"][0]["policy"] == "earthplus"
        profile = doc["profile"]
        sections = {row["section"] for row in profile}
        assert {"uplink", "capture", "ingest"} <= sections
        phase_rows = [r for r in profile if r["kind"] == "phase"]
        assert phase_rows and all(r["seconds"] >= 0 for r in profile)

    def test_sweep_table(self, capsys):
        code = main(
            ["sweep", "--locations", "A", "--bands", "B4", "--days", "30",
             "--size", "128", "--policies", "earthplus,naive",
             "--seeds", "0", "--gammas", "0.3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "earthplus/g0.3/s0" in out
        assert "naive/g0.3/s0" in out

    def test_sweep_unknown_policy_rejected(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["sweep", "--policies", "magic"])


    def test_sweep_gamma_flag_feeds_default_gammas(self, capsys):
        code = main(
            ["sweep", "--locations", "A", "--bands", "B4", "--days", "10",
             "--size", "128", "--policies", "naive", "--gamma", "0.2"]
        )
        assert code == 0
        assert "naive/g0.2/s0" in capsys.readouterr().out


class TestDownlinkFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.downlink_bytes is None
        assert args.downlink_severity == 0.0
        assert args.layers == 1

    def test_simulate_constrained_downlink_json(self, capsys):
        import json

        code = main(
            ["simulate", "--locations", "A", "--bands", "B4",
             "--days", "30", "--size", "128", "--layers", "3",
             "--downlink-bytes", "25", "--format", "json"]
        )
        assert code == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row["layers_shed"] + row["dl_dropped"] > 0

    def test_simulate_unconstrained_reports_zero_shedding(self, capsys):
        import json

        code = main(
            ["simulate", "--locations", "A", "--bands", "B4",
             "--days", "30", "--size", "128", "--format", "json"]
        )
        assert code == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row["layers_shed"] == 0
        assert row["dl_dropped"] == 0

    def test_sweep_downlink_flags_accepted(self, capsys):
        code = main(
            ["sweep", "--locations", "A", "--bands", "B4", "--days", "20",
             "--size", "128", "--policies", "naive", "--seeds", "0",
             "--layers", "2", "--downlink-bytes", "40",
             "--downlink-severity", "0.4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "layers_shed" in out
