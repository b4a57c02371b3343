import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from onebitmc import read_sweep_rows
from onebitmc.cli import build_parser, main
from onebitmc.matrixio import read_matrix, read_samples, read_truth


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def truth_file(tmp_path):
    path = tmp_path / "truth.txt"
    assert run_cli("generate", "--m1", "8", "--m2", "6", "--r", "1",
                   "--gamma", "1.5", "--generator", "block_sign",
                   "--seed", "5", "--out", str(path)) == 0
    return path


@pytest.fixture
def sweep_config_file(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "shapes": [[8, 8]], "ranks": [1], "gammas": [1.5],
        "n_values": [40, 80], "estimators": ["nuclear_constrained"],
        "replicates": 2, "base_seed": 3,
        "solver_defaults": {"max_iters": 200}}))
    return path


class TestGenerate:
    def test_round_trip(self, truth_file):
        truth = read_truth(truth_file)
        assert truth.entries.shape == (8, 6)
        assert truth.gamma == 1.5
        assert truth.margin_tau == 1.5
        assert truth.generator_tag == "block_sign"

    def test_metadata_header_lines(self, truth_file):
        text = truth_file.read_text().splitlines()
        assert text[0].startswith("#")
        assert any("seed" in line for line in text if line.startswith("#"))
        dims = next(line for line in text if not line.startswith("#"))
        assert dims == "8 6"

    def test_invalid_rank_exits_one(self, tmp_path, capsys):
        code = run_cli("generate", "--m1", "4", "--m2", "4", "--r", "9",
                       "--gamma", "1.0", "--out", str(tmp_path / "t.txt"))
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestFit:
    def test_fit_from_truth(self, truth_file, tmp_path):
        out = tmp_path / "xhat.txt"
        code = run_cli("fit", "--truth", str(truth_file), "--n", "120",
                       "--estimator", "nuclear_constrained", "--out", str(out))
        assert code == 0
        estimate, metadata = read_matrix(out)
        assert estimate.shape == (8, 6)
        assert metadata["estimator"] == "nuclear_constrained"
        assert np.max(np.abs(estimate)) <= 1.5

    def test_fit_saves_and_reloads_samples(self, truth_file, tmp_path):
        samples_path = tmp_path / "samples.txt"
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        assert run_cli("fit", "--truth", str(truth_file), "--n", "60",
                       "--sample-seed", "9", "--estimator", "nuclear_penalized",
                       "--lambda", "0.05", "--out", str(out1),
                       "--save-samples", str(samples_path)) == 0
        loaded = read_samples(samples_path)
        assert loaded.n == 60
        assert run_cli("fit", "--samples", str(samples_path), "--gamma", "1.5",
                       "--rank", "1", "--estimator", "nuclear_penalized",
                       "--lambda", "0.05", "--out", str(out2)) == 0
        a, _ = read_matrix(out1)
        b, _ = read_matrix(out2)
        assert np.array_equal(a, b)

    def test_fit_requires_sampling_inputs(self, truth_file, tmp_path, capsys):
        code = run_cli("fit", "--truth", str(truth_file),
                       "--estimator", "nuclear_constrained",
                       "--out", str(tmp_path / "x.txt"))
        assert code == 1

    def test_non_finite_lambda_exits_one(self, truth_file, tmp_path, capsys):
        code = run_cli("fit", "--truth", str(truth_file), "--n", "60",
                       "--estimator", "nuclear_penalized", "--lambda", "nan",
                       "--out", str(tmp_path / "x.txt"))
        assert code == 1
        assert "lam must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("header, line, message", [
        pytest.param("n 2", "8 0 1", "outside 8x6", id="row_past_m1"),
        # a negative index would wrap to the last row in the likelihood
        pytest.param("n 2", "-1 0 1", "outside 8x6", id="negative_row"),
        pytest.param("n 2", "0 6 -1", "outside 8x6", id="col_past_m2"),
        pytest.param("n 2", "1 1 0", "not -1 or +1", id="label_zero"),
        pytest.param("n 3", "1 1 -1", "header n 3 but 2 samples",
                     id="n_mismatch"),
        pytest.param("n 2", "0 0 x", "line 7: cannot read '0 0 x'",
                     id="label_not_int"),
    ])
    def test_malformed_sample_file_exits_one(self, tmp_path, capsys, header,
                                             line, message):
        path = tmp_path / "samples.txt"
        path.write_text("# m1 8\n# m2 6\n# scheme iid_uniform\n# seed 0\n"
                        f"# {header}\n0 0 1\n{line}\n")
        code = run_cli("fit", "--samples", str(path), "--gamma", "1.5",
                       "--rank", "1", "--estimator", "nuclear_penalized",
                       "--out", str(tmp_path / "x.txt"))
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert not (tmp_path / "x.txt").exists()


class TestEvaluate:
    def test_truth_against_itself_has_zero_excess(self, truth_file, capsys):
        assert run_cli("evaluate", "--estimate", str(truth_file),
                       "--truth", str(truth_file)) == 0
        line = capsys.readouterr().out.strip()
        risk, bayes, excess, frob = line.split(",")
        assert excess == "0"
        assert frob == "0"
        assert risk == bayes

    def test_missing_file_exits_one(self, truth_file):
        assert run_cli("evaluate", "--estimate", "/nonexistent/x.txt",
                       "--truth", str(truth_file)) == 1

    @pytest.mark.parametrize("malformed", ["estimate", "truth"])
    def test_malformed_entry_exits_one(self, truth_file, tmp_path, capsys,
                                       malformed):
        # five metadata lines and the dimension line precede the rows;
        # the first entry of the third row, on line 9, becomes 'x'
        lines = truth_file.read_text().splitlines()
        assert lines[5] == "8 6"
        lines[8] = "x" + lines[8][lines[8].index(" "):]
        path = tmp_path / "malformed.txt"
        path.write_text("\n".join(lines) + "\n")
        files = {"estimate": str(truth_file), "truth": str(truth_file)}
        files[malformed] = str(path)
        assert run_cli("evaluate", "--estimate", files["estimate"],
                       "--truth", files["truth"]) == 1
        err = capsys.readouterr().err
        assert f"{path}, line 9: cannot read 'x " in err
        assert "as float values" in err


class TestSweepAndRate:
    def test_sweep_then_rate_counting(self, sweep_config_file, tmp_path,
                                      capsys):
        runs = tmp_path / "runs.csv"
        rates = tmp_path / "rates.csv"
        assert run_cli("sweep", "--config", str(sweep_config_file),
                       "--out", str(runs), "--seed", "7", "--threads", "2") == 0
        rows = read_sweep_rows(runs)
        assert len(rows) == 2 * 2 + 2
        # slope fitting needs >= 3 points; extend the grid via override
        runs3 = tmp_path / "runs3.csv"
        assert run_cli("sweep", "--config", str(sweep_config_file),
                       "--out", str(runs3), "--set", "n_values=[40,80,160]",
                       "--set", "solver_defaults.max_iters=150") == 0
        assert run_cli("rate", "--config", str(sweep_config_file),
                       "--in", str(runs3), "--out", str(rates)) == 0
        lines = rates.read_text().splitlines()
        assert len(lines) == 1 + 1  # header plus one (shape, r, gamma) group
        assert (tmp_path / "rates.svg").exists()
        svg = (tmp_path / "rates.svg").read_text()
        assert svg.startswith("<svg") and "slope=" in svg

    def test_sweep_deterministic_across_threads(self, sweep_config_file,
                                                tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("sweep", "--config", str(sweep_config_file), "--out",
                       str(a), "--threads", "1") == 0
        assert run_cli("sweep", "--config", str(sweep_config_file), "--out",
                       str(b), "--threads", "8") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_override_exits_one(self, sweep_config_file, tmp_path):
        assert run_cli("sweep", "--config", str(sweep_config_file),
                       "--out", str(tmp_path / "x.csv"),
                       "--set", "bogus_key=1") == 1
        assert run_cli("sweep", "--config", str(sweep_config_file),
                       "--out", str(tmp_path / "x.csv"),
                       "--set", "solver_defaults.step_init=1.0") == 1
        assert run_cli("sweep", "--config", str(sweep_config_file),
                       "--out", str(tmp_path / "x.csv"),
                       "--set", "solver_defaults.restarts=3") == 1
        assert run_cli("sweep", "--config", str(sweep_config_file),
                       "--out", str(tmp_path / "x.csv"),
                       "--set", "replicates") == 1


class TestMiscCommands:
    def test_version(self, capsys):
        assert run_cli("version") == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_help_everywhere(self, capsys):
        assert run_cli("--help") == 0
        for command in ("generate", "fit", "evaluate", "sweep", "rate",
                        "version"):
            assert run_cli(command, "--help") == 0
        capsys.readouterr()

    def test_unknown_command_exits_one(self, capsys):
        assert run_cli("frobnicate") == 1
        capsys.readouterr()

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1]
        block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
        commands = [shlex.split(line) for line in
                    block.replace("\\\n", " ").splitlines() if line.strip()]
        assert len(commands) >= 6
        parser = build_parser()
        for argv in commands:
            assert argv[0] == "onebitmc"
            parser.parse_args(argv[1:])
