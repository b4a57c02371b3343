import csv
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
        pytest.param("n 2", "8 0 1", "line 7: '8 0 1' has an index outside 8x6",
                     id="row_past_m1"),
        # a negative index would wrap to the last row in the likelihood
        pytest.param("n 2", "-1 0 1", "line 7: '-1 0 1' has an index outside",
                     id="negative_row"),
        pytest.param("n 2", "0 6 -1", "line 7: '0 6 -1' has an index outside",
                     id="col_past_m2"),
        pytest.param("n 2", "1 1 0", "line 7: '1 1 0' has a label that is not "
                     "-1 or +1", id="label_zero"),
        pytest.param("n 3", "1 1 -1", "header n 3 but 2 samples",
                     id="n_mismatch"),
        pytest.param("n 2", "0 0 x", "line 7: cannot read '0 0 x'",
                     id="label_not_int"),
        pytest.param("n 2", "0 0", "line 7: '0 0' is not 'row col label'",
                     id="two_fields"),
        pytest.param("seed x", "1 1 -1", "cannot read header seed 'x' as int",
                     id="seed_not_int"),
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
                       "--out", str(runs), "--set", "base_seed=7",
                       "--threads", "2") == 0
        rows = read_sweep_rows(runs)
        assert len(rows) == 2 * 2 + 2
        # slope fitting needs >= 3 points; extend the grid via override
        runs3 = tmp_path / "runs3.csv"
        assert run_cli("sweep", "--config", str(sweep_config_file),
                       "--out", str(runs3), "--set", "n_values=[40,80,160]",
                       "--set", "solver_defaults.max_iters=150") == 0
        assert run_cli("rate", "--in", str(runs3), "--out", str(rates)) == 0
        lines = rates.read_text().splitlines()
        assert len(lines) == 1 + 1  # header plus one (shape, r, gamma) group
        assert (tmp_path / "rates.svg").exists()
        svg = (tmp_path / "rates.svg").read_text()
        assert svg.startswith("<svg") and "slope=" in svg

    def test_rate_takes_estimators_from_the_csv(self, sweep_config_file,
                                                tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        rates = tmp_path / "rates.csv"
        assert run_cli("sweep", "--config", str(sweep_config_file),
                       "--out", str(runs), "--set", "n_values=[40,80,160]",
                       "--set", 'estimators=["maxnorm_constrained",'
                       '"nuclear_constrained"]') == 0
        assert run_cli("rate", "--in", str(runs), "--out", str(rates)) == 0
        with open(rates, newline="") as handle:
            table = list(csv.DictReader(handle))
        # registry order, not the order the config lists them in
        assert [row["estimator"] for row in table] == [
            "nuclear_constrained", "maxnorm_constrained"]
        assert all(row["n_points"] == "3" for row in table)
        # an estimator outside the registry is named, not skipped
        text = runs.read_text()
        bogus = tmp_path / "bogus.csv"
        bogus.write_text(text.replace("aggregate,maxnorm_constrained",
                                      "aggregate,bogus_estimator"))
        capsys.readouterr()
        assert run_cli("rate", "--in", str(bogus),
                       "--out", str(tmp_path / "b.csv")) == 1
        assert "unknown estimator 'bogus_estimator'" in capsys.readouterr().err

    def test_sweep_deterministic_across_threads(self, sweep_config_file,
                                                tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("sweep", "--config", str(sweep_config_file), "--out",
                       str(a), "--threads", "1") == 0
        assert run_cli("sweep", "--config", str(sweep_config_file), "--out",
                       str(b), "--threads", "8") == 0
        assert a.read_bytes() == b.read_bytes()
        # a thread count below 1 is an error, not a serial run
        capsys.readouterr()
        for threads in ("0", "-4"):
            assert run_cli("sweep", "--config", str(sweep_config_file),
                           "--out", str(b), "--threads", threads) == 1
            assert (f"threads must be an int >= 1, not {threads}"
                    in capsys.readouterr().err)
            assert b.read_bytes() == a.read_bytes()

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
        assert run_cli("sweep", "--config", str(sweep_config_file),
                       "--out", str(tmp_path / "x.csv"),
                       "--set", "ranks=[1.5]") == 1
        assert run_cli("sweep", "--config", str(sweep_config_file),
                       "--out", str(tmp_path / "x.csv"),
                       "--set", "solver_defaults.max_iters=40.5") == 1
        assert run_cli("sweep", "--config", str(sweep_config_file),
                       "--out", str(tmp_path / "x.csv"),
                       "--set", "solver_defaults.max_iters=true") == 1

    @pytest.mark.parametrize("gammas", ["[-1]", "[NaN]", '["1.5"]'],
                             ids=["negative", "nan", "string"])
    def test_bad_gammas_leave_the_output_untouched(self, sweep_config_file,
                                                   tmp_path, capsys, gammas):
        out = tmp_path / "runs.csv"
        out.write_text("earlier results\n")
        assert run_cli("sweep", "--config", str(sweep_config_file),
                       "--out", str(out), "--set", f"gammas={gammas}") == 1
        assert "gammas must be finite and positive" in capsys.readouterr().err
        assert out.read_text() == "earlier results\n"

    @pytest.mark.parametrize("overrides, message", [
        (["lambda_grid=[-0.1]"], "lambda_grid must be finite and positive"),
        (["lambda_grid=[0.1, NaN]"], "lambda_grid must be finite and positive"),
        (["lambda_grid=[]"], "lambda_grid must be nonempty"),
        (["ranks=[9]"], "rank budget 9 outside [1, 8]"),
        (["shapes=[[8, 8], [4, 6]]", "ranks=[1, 5]"],
         "rank budget 5 outside [1, 4] of shape 4x6"),
        (["n_values=[40, 80, 40]"], "n_values repeats 40"),
    ], ids=["negative_lambda", "nan_lambda", "empty_grid", "rank_above_shape",
            "rank_above_second_shape", "repeated_n"])
    def test_bad_grids_leave_the_output_untouched(self, sweep_config_file,
                                                  tmp_path, capsys, overrides,
                                                  message):
        out = tmp_path / "runs.csv"
        out.write_bytes(b"earlier,results\r\n1,2")
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert run_cli("sweep", "--config", str(sweep_config_file),
                       "--out", str(out), *sets) == 1
        assert message in capsys.readouterr().err
        assert out.read_bytes() == b"earlier,results\r\n1,2"

    @pytest.mark.parametrize("override, key", [
        ("shapes=[8]", "shapes"), ("ranks=1", "ranks"),
        ('estimators="nuclear_constrained"', "estimators"),
    ], ids=["flat_shapes", "scalar_ranks", "string_estimators"])
    def test_list_keys_that_are_not_lists_exit_one(self, sweep_config_file,
                                                   tmp_path, capsys, override,
                                                   key):
        out = tmp_path / "runs.csv"
        assert run_cli("sweep", "--config", str(sweep_config_file),
                       "--out", str(out), "--set", override) == 1
        err = capsys.readouterr().err
        assert f"onebitmc: error: {key} must be" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["5", '[["shapes", [[8, 8]]]]'],
                             ids=["number", "list"])
    def test_config_that_is_not_an_object_exits_one(self, tmp_path, capsys,
                                                     text):
        config = tmp_path / "sweep.json"
        config.write_text(text)
        assert run_cli("sweep", "--config", str(config), "--out",
                       str(tmp_path / "runs.csv"), "--set", "replicates=2") == 1
        err = capsys.readouterr().err
        assert f"{config}: not a JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, column", [
        ("a,b\n1,2\n", "row_kind"),
        ("row_kind,estimator\naggregate,nuclear_constrained\n", "m1"),
        ("", "row_kind"),
    ], ids=["two_columns", "two_sweep_columns", "empty"])
    def test_rate_names_a_missing_column(self, tmp_path, capsys, text, column):
        runs = tmp_path / "runs.csv"
        runs.write_text(text)
        out = tmp_path / "rates.csv"
        assert run_cli("rate", "--in", str(runs), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"{runs}: no {column!r} column" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, argv, message", [
        pytest.param("sweep", ["--seed", "7"], "unrecognized arguments",
                     id="sweep_seed"),
        pytest.param("sweep", ["--set", "truth_mode=fixed"],
                     "unknown sweep config keys", id="truth_mode"),
        pytest.param("sweep", ["--set", "solver_defaults.factor_width=4"],
                     "unknown solver default", id="sweep_factor_width"),
        pytest.param("rate", ["--config", "c.json"], "unrecognized arguments",
                     id="rate_config"),
        pytest.param("fit", ["--factor-width", "4"], "unrecognized arguments",
                     id="fit_factor_width"),
    ])
    def test_deleted_options_exit_one(self, truth_file, sweep_config_file,
                                      tmp_path, capsys, command, argv,
                                      message):
        out = tmp_path / "out.csv"
        base = {"sweep": ["--config", str(sweep_config_file)],
                "rate": ["--in", str(tmp_path / "runs.csv")],
                "fit": ["--truth", str(truth_file), "--n", "60",
                        "--estimator", "maxnorm_constrained"]}[command]
        assert run_cli(command, *base, "--out", str(out), *argv) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


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
