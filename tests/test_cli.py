"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("demo", "keysize", "attacks", "selftest", "alphabet"):
            args = parser.parse_args([command])
            assert callable(args.handler)


class TestKeysize:
    def test_paper_numbers(self, capsys):
        assert main(["keysize"]) == 0
        out = capsys.readouterr().out
        assert "1,040,000" in out
        assert "52" in out

    def test_custom_parameters(self, capsys):
        assert main(["keysize", "--cells", "100", "--electrodes", "9",
                     "--gain-bits", "4", "--flow-bits", "4"]) == 0
        out = capsys.readouterr().out
        assert "29" in out  # 9 + 4*4 + 4
        assert "2,900" in out


class TestAlphabet:
    def test_reports_space(self, capsys):
        assert main(["alphabet"]) == 0
        out = capsys.readouterr().out
        assert "password space: 15" in out
        assert "bead_3.58um" in out


class TestSelftest:
    def test_healthy_returns_zero(self, capsys):
        assert main(["selftest", "--outputs", "3"]) == 0
        out = capsys.readouterr().out
        assert "array healthy" in out

    def test_faulty_returns_nonzero(self, capsys):
        assert main(["selftest", "--outputs", "3", "--dead", "2"]) == 1
        out = capsys.readouterr().out
        assert "dead" in out


class TestAttacks:
    def test_reports_all_attacks(self, capsys):
        assert main(["attacks", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        for name in ("naive-peak-count", "divide-by-expectation",
                     "periodic-train", "feature-clustering"):
            assert name in out


class TestDemo:
    def test_full_session(self, capsys):
        assert main(["demo", "--duration", "40", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "decrypted count" in out
        assert "diagnosis" in out
        assert "notification" in out


class TestFleet:
    def test_parser_wires_fleet_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["fleet", "--smoke", "--shards", "4", "--phases", "harden"]
        )
        assert callable(args.handler)
        assert args.shards == 4 and args.phases == ["harden"]
        assert parser.parse_args(["top", "--shards", "2"]).shards == 2
        # The sharded-tier phases run once, under ``fleet``; the old
        # duplicate entry points are gone.
        for argv in (["chaos", "--fleet"], ["chaos", "--shards", "2"],
                     ["harden", "--fleet"], ["harden", "--shards", "2"],
                     ["fleet", "--drill"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    @pytest.mark.parametrize("argv, smoke", [(["fleet"], False),
                                             (["fleet", "--smoke"], True)])
    def test_smoke_flag_picks_campaign_size(self, monkeypatch, capsys, argv, smoke):
        import repro.fleet
        from repro.fleet import FleetReport

        calls = []

        def fake_run_fleet(**kwargs):
            calls.append(kwargs)
            return FleetReport(seed=kwargs["seed"], n_shards=kwargs["n_shards"])

        monkeypatch.setattr(repro.fleet, "run_fleet", fake_run_fleet)
        assert main(argv) == 0
        assert [call["smoke"] for call in calls] == [smoke]

    def test_unknown_phase_is_typed_error(self, capsys):
        assert main(["fleet", "--smoke", "--phases", "nonsense"]) == 2
        assert "unknown fleet phases" in capsys.readouterr().err

    def test_harden_phase_smoke(self, capsys):
        # The cheapest real-cluster phase: spawns 2 shard processes,
        # feeds one garbage frames, checks containment.
        assert main(["fleet", "--smoke", "--phases", "harden"]) == 0
        out = capsys.readouterr().out
        assert "garbage_frames_refused_and_shard_survives" in out
        assert "PASS" in out


class TestDrillTable:
    def test_ci_runs_each_drill_exactly_once(self):
        from pathlib import Path

        from repro.cli import DRILLS

        ci = (Path(__file__).resolve().parents[1] / ".github" / "workflows"
              / "ci.yml").read_text()
        for name, *_ in DRILLS:
            assert ci.count(f"python -m repro {name} ") == 1, name
            assert ci.count(f"python -m repro {name} --smoke\n") == 1, name
