import re
import shlex
from pathlib import Path

import pytest

from _oracles import cycle, star
from qwattack import cli, experiments
from qwattack.cli import build_parser, cli_main
from qwattack.graphs import read_edge_list, write_edge_list

REPO_DIR = Path(__file__).resolve().parent.parent


def run_cli(argv, capsys):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_writes_readable_edge_list(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        code, _, err = run_cli(
            ["generate", "--model", "er", "--n", "30", "--seed", "5", "--out", str(out)],
            capsys,
        )
        assert code == 0
        g = read_edge_list(out)
        assert g.n == 30
        assert "wrote er graph" in err

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for out in (a, b):
            code, _, _ = run_cli(
                ["generate", "--model", "ws", "--n", "24", "--k", "4", "--seed", "9", "--out", str(out)],
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_seed_is_generated_and_printed(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        code, _, err = run_cli(
            ["generate", "--model", "ba", "--n", "20", "--out", str(out)], capsys
        )
        assert code == 0
        assert "seed:" in err

    def test_missing_required_option(self, tmp_path, capsys):
        code, _, err = run_cli(["generate", "--model", "er", "--n", "30"], capsys)
        assert code == 1
        assert "missing required option --out" in err

    @pytest.mark.parametrize("model, n", [("er", "0"), ("ws", "-3")])
    def test_order_below_two_named(self, tmp_path, capsys, model, n):
        out = tmp_path / "g.edges"
        code, _, err = run_cli(["generate", "--model", model, "--n", n, "--seed", "1", "--out", str(out)], capsys)
        assert code == 1
        assert f"error: need at least 2 vertices, got {n}" in err
        assert not out.exists()


class TestScanEC:
    def test_cycle_has_two_2ec_rows(self, tmp_path, capsys):
        path = tmp_path / "c8.edges"
        write_edge_list(cycle(8), path)
        # with default orders the cycle still yields exactly the two pairs
        code, out, _ = run_cli(["scan-ec", "--in", str(path), "--vertex", "3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "anchor,kind,vertices"
        assert lines[1:] == ["3,2ec_path,2;3", "3,2ec_path,3;4"]

    def test_vertex_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "c8.edges"
        write_edge_list(cycle(8), path)
        code, _, err = run_cli(["scan-ec", "--in", str(path), "--vertex", "42"], capsys)
        assert code == 1
        assert "out of range" in err

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("n 4\n0 0\n")
        code, _, err = run_cli(["scan-ec", "--in", str(path), "--vertex", "0"], capsys)
        assert code == 1
        assert "self-loop" in err


class TestSearch:
    def test_trace_rows(self, tmp_path, capsys):
        path = tmp_path / "c8.edges"
        write_edge_list(cycle(8), path)
        code, out, _ = run_cli(
            ["search", "--in", str(path), "--marked", "0", "--t-max", "5"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,probability"
        assert len(lines) == 7
        assert lines[1].startswith("0,0.125")


class TestAttack:
    def test_no_configuration_exits_one(self, tmp_path, capsys):
        path = tmp_path / "s4.edges"
        write_edge_list(star(4), path)  # the hub of a 4-leaf star has no EC
        code, _, err = run_cli(
            ["attack", "--in", str(path), "--marked", "0", "--seed", "1", "--orders", "2,3"],
            capsys,
        )
        assert code == 1
        assert "no exceptional configuration" in err

    def test_successful_attack_emits_report_row(self, tmp_path, capsys):
        path = tmp_path / "c8.edges"
        write_edge_list(cycle(8), path)
        code, out, _ = run_cli(
            ["attack", "--in", str(path), "--marked", "2", "--seed", "3", "--t-pen", "2"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("model,n,seed,anchor,added_vertices,kind,")
        fields = lines[1].split(",")
        assert fields[0] == "file"
        assert fields[1] == "8"
        assert fields[3] == "2"

    def test_zero_penalty_is_rejected_by_name(self, tmp_path, capsys):
        path = tmp_path / "c8.edges"
        write_edge_list(cycle(8), path)
        code, out, err = run_cli(
            ["attack", "--in", str(path), "--marked", "2", "--seed", "3", "--t-pen", "0"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "t_pen must be at least 1" in err


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli([], capsys)[0] == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(["fig9"], capsys)[0] == 2

    def test_bad_flag_value_is_usage_error(self, capsys):
        code, _, _ = run_cli(["generate", "--model", "er", "--n", "abc"], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["scan-ec", "search", "fig3"])
    def test_seed_only_on_commands_that_draw(self, tmp_path, capsys, command):
        # the command's own parser reports the flag, under the command's usage line,
        # also when --out comes from a config file
        out = tmp_path / "x.out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out={out}\n")
        for given in (["--out", str(out)], ["--config", str(cfg)]):
            code, _, err = run_cli([command, *given, "--seed", "1"], capsys)
            assert code == 2
            assert err.startswith(f"usage: qwattack {command} [-h]")
            assert f"qwattack {command}: error: unrecognized arguments: --seed 1" in err
            assert not out.exists()

    @pytest.mark.parametrize("command, wording", [
        ("generate", "required"), ("fig1", "required"), ("fig2", "required"), ("fig3", "required"),
        ("scan-ec", "stdout if omitted"), ("search", "stdout if omitted"), ("attack", "stdout if omitted"),
    ])
    def test_out_help_says_required_or_stdout(self, capsys, command, wording):
        code, out, _ = run_cli([command, "--help"], capsys)
        assert code == 0
        assert f"--out OUT output path ({wording}) " in " ".join(out.split()) + " "

    def test_fig3_help_lists_its_four_flags(self, capsys):
        code, out, _ = run_cli(["fig3", "--help"], capsys)
        assert code == 0
        assert set(re.findall(r"--[a-z][\w-]*", out)) == {"--help", "--in", "--model", "--config", "--out"}


def test_readme_commands_parse():
    # the qwattack lines of README's "Command line" sh block; parsing runs no command
    text = (REPO_DIR / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("qwattack ")]
    assert {argv[1] for argv in commands} == set(cli._COMMANDS)
    for argv in commands:
        build_parser().parse_args(argv[1:])


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=er\nn=20\nseed=4\n# comment line\nout=" + str(tmp_path / "a.edges") + "\n")
        code, _, _ = run_cli(["generate", "--config", str(cfg)], capsys)
        assert code == 0
        a = read_edge_list(tmp_path / "a.edges")

        code, _, _ = run_cli(
            ["generate", "--config", str(cfg), "--n", "30", "--out", str(tmp_path / "b.edges")],
            capsys,
        )
        assert code == 0
        b = read_edge_list(tmp_path / "b.edges")
        assert a.n == 20 and b.n == 30  # flag overrode the config value

    def test_malformed_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line without equals\n")
        code, _, err = run_cli(["generate", "--config", str(cfg)], capsys)
        assert code == 1
        assert "key=value" in err

    def test_in_is_the_config_key_of_in(self, tmp_path, capsys):
        path = tmp_path / "c8.edges"
        write_edge_list(cycle(8), path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"in={path}\nvertex=3\n")
        code, out, _ = run_cli(["scan-ec", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.splitlines()[1:] == ["3,2ec_path,2;3", "3,2ec_path,3;4"]

    @pytest.mark.parametrize(
        "argv,key,value,message",
        [
            (["generate", "--model", "er"], "n", "abc", "argument --n: invalid int value: 'abc'"),
            (["generate", "--n", "20"], "model", "zz", "argument --model: invalid choice: 'zz'"),
            (["scan-ec", "--in", "g.edges", "--vertex", "3"], "distance", "5", "argument --distance: invalid choice: 5"),
            (["fig2", "--n", "20"], "model", "zz",
             "argument --model: unknown models ['zz']; expected among ('er', 'ws', 'ba')"),
            (["fig1", "--n", "20"], "model", "",
             "argument --model: no models given; expected among ('er', 'ws', 'ba')"),
            (["scan-ec", "--in", "g.edges", "--vertex", "3"], "orders", "2,x",
             "argument --orders: expected a comma list of integers, got '2,x'"),
            (["fig1"], "n-grid", "a:b:c",
             "argument --n-grid: grid spec must be start:stop:step of integers, got 'a:b:c'"),
        ],
        ids=["generate-n", "generate-model", "scan-ec-distance", "fig2-model", "fig1-empty-model", "scan-ec-orders",
             "fig1-n-grid"],
    )
    def test_bad_config_value_is_a_usage_error_like_the_flag(self, tmp_path, capsys, argv, key, value, message):
        out = tmp_path / "x.out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        for given in ([f"--{key}", value], ["--config", str(cfg)]):
            code, _, err = run_cli([*argv, *given, "--out", str(out)], capsys)
            assert code == 2
            assert message in err
            assert "seed:" not in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "command,key", [("fig1", "sample"), ("scan-ec", "infile"), ("generate", "config"), ("scan-ec", "seed")]
    )
    def test_unknown_config_key_rejected(self, tmp_path, capsys, command, key):
        out = tmp_path / "x.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=2\nout={out}\n")
        code, _, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 1
        assert f"unknown config keys ['{key}']" in err
        assert not out.exists()


class TestFigureCommands:
    def test_fig1_byte_identical_reruns_and_worker_independence(self, tmp_path, capsys):
        outs = []
        for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
            out = tmp_path / name
            code, _, _ = run_cli(
                [
                    "fig1", "--model", "er", "--n-grid", "40:80:40", "--samples", "6",
                    "--seed", "7", "--workers", workers, "--out", str(out),
                ],
                capsys,
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_fig2_without_out_exits_before_the_sweep(self, monkeypatch, capsys):
        def sweep(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_fig2", sweep)
        code, _, err = run_cli(["fig2", "--model", "er", "--n", "60", "--samples", "1", "--seed", "1"], capsys)
        assert code == 1
        assert "missing required option --out" in err

    def test_fig2_zero_penalty_exits_before_drawing(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code, _, err = run_cli(
            ["fig2", "--model", "er", "--n", "60", "--samples", "1", "--t-pen", "0", "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert "t_pen must be at least 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["fig1", "--model", "er,ws", "--n-grid", "4:6:1"], "2 <= k < n, got k=4, n=4"),
        (["fig2", "--model", "ba", "--n", "4", "--m0", "4"], "1 <= m0 < n, got m0=4, n=4"),
    ], ids=["fig1-ws-default-k", "fig2-ba-m0"])
    def test_model_parameters_checked_before_any_draw(self, tmp_path, monkeypatch, capsys, argv, message):
        def draw(*args, **kwargs):
            raise AssertionError("a graph was drawn")

        monkeypatch.setattr(experiments, "generate_graph", draw)
        out = tmp_path / "x.csv"
        code, _, err = run_cli([*argv, "--samples", "1", "--seed", "1", "--out", str(out)], capsys)
        assert code == 1
        assert message in err
        assert not out.exists()

    def test_fig2_and_fig3_pipeline(self, tmp_path, capsys):
        fig2_out = tmp_path / "fig2.csv"
        code, _, err = run_cli(
            [
                "fig2", "--model", "er", "--n-grid", "40:80:20", "--samples", "2",
                "--seed", "3", "--out", str(fig2_out),
            ],
            capsys,
        )
        assert code == 0
        assert "fig2: 6 rows" in err

        fig3_out = tmp_path / "fig3.csv"
        code, _, err = run_cli(["fig3", "--model", "er", "--in", str(fig2_out), "--out", str(fig3_out)], capsys)
        assert code == 0
        lines = fig3_out.read_text().splitlines()
        assert len(lines) == 3
        assert "alpha=" in err

    @pytest.fixture(scope="class")
    def ba_ws_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fig2") / "fig2.csv"
        argv = ["fig2", "--model", "ba,ws", "--n-grid", "40:80:20", "--samples", "2", "--seed", "3"]
        assert cli_main([*argv, "--out", str(path)]) == 0
        return path

    def test_fig3_in_defaults_to_the_csv_models_in_model_order(self, tmp_path, capsys, ba_ws_csv):
        out = tmp_path / "fig3.csv"
        code, _, err = run_cli(["fig3", "--in", str(ba_ws_csv), "--out", str(out)], capsys)
        assert code == 0, err
        rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        assert rows == [["ws", "ref"], ["ws", "attacked"], ["ba", "ref"], ["ba", "attacked"]]
        assert "seed:" not in err

    def test_fig3_in_names_a_model_the_csv_lacks(self, tmp_path, capsys, ba_ws_csv):
        out = tmp_path / "fig3.csv"
        code, _, err = run_cli(["fig3", "--in", str(ba_ws_csv), "--model", "er", "--out", str(out)], capsys)
        assert code == 1
        assert "er ref: regression needs at least 3 points, got 0" in err
        assert not out.exists()
        header_only = tmp_path / "empty.csv"
        header_only.write_text(ba_ws_csv.read_text().splitlines()[0] + "\n")
        code, _, err = run_cli(["fig3", "--in", str(header_only), "--out", str(out)], capsys)
        assert code == 1
        assert "has no rows of the models er, ws, ba" in err
        assert not out.exists()

    def test_fig3_in_rejects_sweep_flags(self, tmp_path, capsys, ba_ws_csv):
        out = tmp_path / "fig3.csv"
        for flag, value in (("--n-grid", "100:200:100"), ("--samples", "7"), ("--workers", "3"),
                            ("--t-pen", "4"), ("--m0", "2")):
            code, _, err = run_cli(["fig3", "--in", str(ba_ws_csv), flag, value, "--out", str(out)], capsys)
            assert code == 2
            assert f"unrecognized arguments: {flag} {value}" in err
            assert not out.exists()

    def test_fig3_in_rejects_sweep_config_keys(self, tmp_path, capsys, ba_ws_csv):
        out = tmp_path / "fig3.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"in={ba_ws_csv}\nn=100\nt-pen=4\np=0.5\n")
        code, _, err = run_cli(["fig3", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 1
        assert "unknown config keys ['n', 'p', 't-pen'] for fig3" in err
        assert not out.exists()

    def test_fig3_without_in(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        code, _, err = run_cli(["fig3", "--out", str(out)], capsys)
        assert code == 1
        assert "missing required option --in" in err
        assert not out.exists()

    def test_fig2_then_fig3_reproduces_the_golden(self, tmp_path, capsys):
        fig2_out, fig3_out = tmp_path / "fig2.csv", tmp_path / "fig3.csv"
        argv = ["fig2", "--model", "er,ws,ba", "--n-grid", "60:120:30", "--samples", "2", "--seed", "1"]
        assert run_cli([*argv, "--out", str(fig2_out)], capsys)[0] == 0
        assert run_cli(["fig3", "--in", str(fig2_out), "--out", str(fig3_out)], capsys)[0] == 0
        assert fig3_out.read_bytes() == (REPO_DIR / "tests" / "golden" / "fig3.csv").read_bytes()

    def test_fig2_single_n_shorthand(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code, _, _ = run_cli(
            ["fig2", "--model", "ba", "--n", "50", "--samples", "2", "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("command", ["fig1", "fig2"])
    def test_model_flags_are_accepted(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            [command, "--model", "ws", "--n-grid", "20:40:10", "--samples", "1", "--seed", "1",
             "--k", "4", "--beta", "0.2", "--m0", "2", "--p", "0.5", "--out", str(out)],
            capsys,
        )
        assert code == 0, err

    def test_model_flag_matches_config_value(self, tmp_path, capsys):
        # p = 1 makes every draw complete, so every vertex has a 2EC
        flag_out, cfg_out = tmp_path / "flag.csv", tmp_path / "cfg.csv"
        common = ["fig1", "--model", "er", "--n", "20", "--samples", "5", "--seed", "2"]
        code, _, _ = run_cli([*common, "--p", "1.0", "--out", str(flag_out)], capsys)
        assert code == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=1.0\n")
        code, _, _ = run_cli([*common, "--config", str(cfg), "--out", str(cfg_out)], capsys)
        assert code == 0
        assert flag_out.read_bytes() == cfg_out.read_bytes()
        order2 = [line for line in flag_out.read_text().splitlines() if ",order2," in line]
        assert order2 == ["er,20,order2,1.0,0.5655175352168251,1.0,5,2,0"]

    @pytest.mark.parametrize("command,value,via_config", [
        ("fig2", "", False), ("fig1", ",", False), ("fig3", "", False), ("fig1", "", True),
    ], ids=["fig2-flag", "fig1-flag-comma", "fig3-flag", "fig1-config"])
    def test_empty_model_set_rejected(self, tmp_path, capsys, command, value, via_config):
        out = tmp_path / "x.csv"
        argv = [command, "--n", "20", "--samples", "1", "--seed", "1", "--out", str(out)]
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"model={value}\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--model", value]
        code, _, err = run_cli(argv, capsys)
        assert code != 0
        assert "argument --model" in err
        assert not out.exists()

    def test_conflicting_grid_flags(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["fig1", "--n", "50", "--n-grid", "40:80:40", "--seed", "1", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 1
        assert "not both" in err

