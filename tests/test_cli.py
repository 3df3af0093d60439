"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.model import io as model_io


@pytest.fixture
def data_dir(tmp_path):
    code = main([
        "generate",
        "--out", str(tmp_path),
        "--households", "40",
        "--snapshots", "2",
        "--seed", "13",
    ])
    assert code == 0
    return tmp_path


class TestGenerate:
    def test_files_written(self, data_dir):
        assert (data_dir / "census_1871.csv").exists()
        assert (data_dir / "census_1881.csv").exists()
        assert (data_dir / "truth_records_1871_1881.csv").exists()
        assert (data_dir / "truth_groups_1871_1881.csv").exists()

    def test_datasets_loadable(self, data_dir):
        dataset = model_io.read_dataset(data_dir / "census_1871.csv")
        assert dataset.year == 1871
        assert len(dataset) > 50


class TestLink:
    def test_link_and_outputs(self, data_dir, capsys):
        records_path = data_dir / "pred_records.csv"
        groups_path = data_dir / "pred_groups.csv"
        code = main([
            "link",
            str(data_dir / "census_1871.csv"),
            str(data_dir / "census_1881.csv"),
            "--records", str(records_path),
            "--groups", str(groups_path),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "record links" in output
        predicted = model_io.read_record_mapping(records_path)
        assert len(predicted) > 0
        groups = model_io.read_group_mapping(groups_path)
        assert len(groups) > 0

    def test_rejected_config_value_exits_2(self, data_dir, capsys):
        """A flag value LinkageConfig refuses is a usage error naming
        the field, not a traceback."""
        paths = [str(data_dir / "census_1871.csv"),
                 str(data_dir / "census_1881.csv")]
        for flags, field in (
            (["--delta-high", "0.5", "--delta-low", "0.7"], "delta_low"),
            (["--delta-high", "1.5", "--delta-low", "1.2"], "delta_high"),
            (["--workers", "-1"], "n_workers"),
        ):
            assert main(["link", *paths, *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("link: ") and field in err
            assert "Traceback" not in err


class TestLinkCheckpoints:
    def test_checkpoint_then_resume(self, data_dir, capsys):
        ckpt = data_dir / "ckpt"
        argv = [
            "link",
            str(data_dir / "census_1871.csv"),
            str(data_dir / "census_1881.csv"),
            "--checkpoint-dir", str(ckpt),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert (ckpt / "final.json").exists()
        assert any(
            path.name.startswith("round_") for path in ckpt.iterdir()
        )
        # Resume from the completed run: same link counts, no recompute.
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == first.splitlines()[0]

    def test_resume_requires_checkpoint_dir(self, data_dir, capsys):
        code = main([
            "link",
            str(data_dir / "census_1871.csv"),
            str(data_dir / "census_1881.csv"),
            "--resume",
        ])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_checkpoints_inspection(self, data_dir, capsys):
        ckpt = data_dir / "ckpt2"
        main([
            "link",
            str(data_dir / "census_1871.csv"),
            str(data_dir / "census_1881.csv"),
            "--checkpoint-dir", str(ckpt),
            "--checkpoint-every", "2",
        ])
        capsys.readouterr()
        assert main(["checkpoints", str(ckpt)]) == 0
        output = capsys.readouterr().out
        assert "final.json" in output
        assert "phase" in output  # header line
        # The final state holds no cache: resuming from it rebuilds the
        # result outright.
        [final] = [
            line for line in output.splitlines()
            if line.startswith("final.json")
        ]
        assert final.split()[-2] == "no"

    def test_checkpoints_empty_directory(self, tmp_path, capsys):
        assert main(["checkpoints", str(tmp_path)]) == 0
        assert "no checkpoints" in capsys.readouterr().out

    def test_checkpoints_reports_corrupt_file(self, data_dir, capsys):
        ckpt = data_dir / "ckpt3"
        main([
            "link",
            str(data_dir / "census_1871.csv"),
            str(data_dir / "census_1881.csv"),
            "--checkpoint-dir", str(ckpt),
        ])
        capsys.readouterr()
        (ckpt / "final.json").write_text("garbage", encoding="utf-8")
        assert main(["checkpoints", str(ckpt)]) == 0
        assert "CORRUPT" in capsys.readouterr().out


class TestEvaluate:
    def test_evaluate_prints_quality(self, data_dir, capsys):
        records_path = data_dir / "pred_records.csv"
        main([
            "link",
            str(data_dir / "census_1871.csv"),
            str(data_dir / "census_1881.csv"),
            "--records", str(records_path),
        ])
        capsys.readouterr()
        code = main([
            "evaluate",
            str(records_path),
            str(data_dir / "truth_records_1871_1881.csv"),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "P=" in output and "F=" in output


class TestEvolve:
    def test_evolve_over_series(self, tmp_path, capsys):
        main([
            "generate",
            "--out", str(tmp_path),
            "--households", "30",
            "--snapshots", "3",
            "--start-year", "1851",
        ])
        capsys.readouterr()
        code = main([
            "evolve",
            str(tmp_path / "census_1851.csv"),
            str(tmp_path / "census_1861.csv"),
            str(tmp_path / "census_1871.csv"),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "preserve_G" in output
        assert "Largest connected component" in output


class TestLinkValidate:
    def test_validate_flag_accepted(self, data_dir, capsys):
        code = main([
            "link",
            str(data_dir / "census_1871.csv"),
            str(data_dir / "census_1881.csv"),
            "--validate",
        ])
        assert code == 0
        assert "record links" in capsys.readouterr().out


class TestGolden:
    def test_record_then_check_roundtrip(self, tmp_path, capsys):
        code = main([
            "golden", "--record", "--dir", str(tmp_path),
            "--names", "seed7-default",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "recorded" in output
        assert (tmp_path / "seed7-default.json").exists()

        code = main([
            "golden", "--check", "--dir", str(tmp_path),
            "--names", "seed7-default",
        ])
        assert code == 0
        assert "seed7-default: ok" in capsys.readouterr().out

    def test_check_mismatch_exits_nonzero(self, tmp_path, capsys):
        main([
            "golden", "--record", "--dir", str(tmp_path),
            "--names", "seed7-default",
        ])
        capsys.readouterr()
        fixture = tmp_path / "seed7-default.json"
        fixture.write_text(
            fixture.read_text(encoding="utf-8").replace(
                '"num_record_links": ', '"num_record_links": 9'
            ),
            encoding="utf-8",
        )
        code = main([
            "golden", "--check", "--dir", str(tmp_path),
            "--names", "seed7-default",
        ])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_requires_exactly_one_mode(self, capsys):
        assert main(["golden"]) == 2
        assert main(["golden", "--record", "--check"]) == 2
        assert "choose exactly one" in capsys.readouterr().err

    def test_unknown_name_rejected(self, capsys):
        code = main(["golden", "--check", "--names", "nope"])
        assert code == 2
        assert "nope" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_link_defaults(self):
        args = build_parser().parse_args(["link", "a.csv", "b.csv"])
        assert args.delta_high == 0.7
        assert args.beta == 0.7
