"""CLI argument handling, exit codes, artifact formats, and determinism."""

import hashlib
import json
import random

import pytest

from timdof import __version__, cli, demand_graph, linear_sim, schemes


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_defaults(self):
        cfg = cli.parse_args(["tdma-search", "--K", "6", "--L", "2"])
        assert cfg.command == "tdma-search"
        assert (cfg.K, cfg.L, cfg.mode, cfg.M) == (6, 2, "cyclic", 1)
        assert cfg.fmt == "csv" and cfg.out is None

    def test_range_and_list_flags(self):
        cfg = cli.parse_args(["sweep", "--L", "1..3", "--K-multiple", "3"])
        assert cfg.L_values == (1, 2, 3) and cfg.K_multiple == 3
        cfg = cli.parse_args(["sweep", "--L", "2"])
        assert cfg.L_values == (2,)
        cfg = cli.parse_args(["demand-bound", "--K", "3", "--L", "1",
                              "--assignment", "1,2,3"])
        assert cfg.carriers == (1, 2, 3)

    @pytest.mark.parametrize("cmd,extra", [
        ("lin-eval", ["--n", "2"]),
        ("converse-sample", ["--trials", "3"]),
        ("lemma1", ["--n", "2"]),
    ])
    def test_seed_mandatory_on_randomized_commands(self, cmd, extra):
        with pytest.raises(SystemExit) as err:
            cli.parse_args([cmd, "--K", "4", "--L", "1"] + extra)
        assert err.value.code == cli.EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit):
            cli.parse_args(["tdma-lookup", "--K", "4"])

    def test_back_to_back_commands_share_no_state(self):
        # the parser is built once per process; each parse starts fresh
        cfg = cli.parse_args(["tdma-search", "--K", "6", "--L", "2", "--M", "3",
                              "--mode", "truncated", "--format", "json"])
        assert (cfg.K, cfg.L, cfg.M, cfg.mode, cfg.fmt) == (6, 2, 3, "truncated", "json")
        cfg = cli.parse_args(["sweep", "--L", "1..2"])
        assert cfg == cli.ExperimentConfig(command="sweep", L_values=(1, 2))
        with pytest.raises(SystemExit) as err:
            cli.parse_args(["lemma1", "--K", "4", "--L", "1", "--n", "2"])
        assert err.value.code == cli.EXIT_USAGE
        cfg = cli.parse_args(["tdma-search", "--K", "4", "--L", "1"])
        assert cfg == cli.ExperimentConfig(command="tdma-search", K=4, L=1)
        assert cli.build_parser() is cli.build_parser()


class TestExitCodes:
    def test_success(self, capsys):
        code, _, _ = run_cli(["tdma-search", "--K", "6", "--L", "2"], capsys)
        assert code == cli.EXIT_OK

    def test_usage_error_via_main(self, capsys):
        assert cli.main(["lin-eval", "--K", "4", "--L", "1", "--n", "2"]) == cli.EXIT_USAGE

    def test_validation_error(self, capsys):
        code, _, err = run_cli(["tdma-search", "--K", "4", "--L", "9"], capsys)
        assert code == cli.EXIT_VALIDATION
        assert "invalid input" in err

    def test_resource_error(self, capsys):
        code, _, err = run_cli(["topology", "--K", "99", "--L", "2", "--chordal"], capsys)
        assert code == cli.EXIT_RESOURCE
        assert "resource limit" in err

    def test_internal_check_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(demand_graph, "verify_certificate", lambda *args: False)
        code, out, err = run_cli(["demand-bound", "--K", "12", "--L", "4"], capsys)
        assert code == cli.EXIT_INTERNAL == 6
        assert out == ""
        assert err.startswith("internal check failed: certificate check failed")
        assert "Traceback" not in err

    def test_gap_dp_failure_is_internal(self, monkeypatch, capsys):
        real = schemes._gap_dp
        monkeypatch.setattr(schemes, "_gap_dp", lambda t: (real(t)[0] + 1, real(t)[1] + (t.K,)))
        code, out, err = run_cli(["tdma-search", "--K", "8", "--L", "2"], capsys)
        assert code == cli.EXIT_INTERNAL
        assert out == ""
        assert err.startswith("internal check failed: gap DP serves receiver")

    @pytest.mark.parametrize("argv", [
        "lin-eval --K 8 --L 2 --n 2 --seed -5",
        "converse-sample --K 8 --L 2 --trials 1 --seed -5",
        "lemma1 --K 8 --L 2 --n 2 --seed -5",
    ])
    def test_negative_seed_names_the_flag(self, argv, capsys):
        code, out, err = run_cli(argv.split(), capsys)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err == "invalid input: --seed must be a non-negative integer, got -5\n"

    @pytest.mark.parametrize("argv", [
        "lin-eval --K 40000 --L 1 --n 1 --trials 1 --seed 1 --format json",
        "lin-eval --K 40000 --L 1 --n 1 --trials 1 --seed 1 --cooperation single",
        "converse-sample --K 12000 --L 2 --trials 1 --seed 1",
        "lemma1 --K 40000 --L 1 --n 1 --seed 1 --cooperation single",
    ])
    def test_channel_entry_cap_exits_4_before_allocating(self, argv, capsys):
        code, out, err = run_cli(argv.split(), capsys)
        assert code == cli.EXIT_RESOURCE
        assert out == ""
        assert err.startswith("resource limit: a channel over K=")
        assert f"above the limit {linear_sim.CHANNEL_ENTRY_LIMIT}" in err

    @pytest.mark.parametrize("target", ["", "file.txt/out.csv"], ids=["directory", "under-a-file"])
    def test_unwritable_out_is_a_validation_error(self, target, tmp_path, capsys):
        (tmp_path / "file.txt").write_text("")
        path = str(tmp_path / target)
        code, out, err = run_cli(["tdma-search", "--K", "6", "--L", "2", "--out", path], capsys)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith(f"invalid input: cannot write {path}: ")
        assert "Traceback" not in err

    def test_topology_rejects_csv(self, capsys):
        code, out, err = run_cli("topology --K 4 --L 1 --format csv".split(), capsys)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err == "invalid input: topology writes JSON only\n"

    def test_sweep_has_no_format_flag(self, capsys):
        code, out, _ = run_cli("sweep --L 1 --format json".split(), capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("argv", [
        "topology --K 3 --L 1",
        "lin-eval --K 4 --L 1 --n 2 --seed 1",
        "lemma1 --K 4 --L 1 --n 2 --seed 1",
        "converse-sample --K 4 --L 2 --trials 1 --seed 1",
    ])
    def test_decimal_is_a_usage_error_where_nothing_has_a_float_column(self, argv, capsys):
        code, out, err = run_cli(argv.split() + ["--decimal"], capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments: --decimal" in err

    def test_converse_sample_rejects_json(self, capsys):
        code, out, err = run_cli(
            "converse-sample --K 4 --L 2 --trials 1 --seed 1 --format json".split(), capsys)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err == "invalid input: converse-sample writes CSV only\n"

    @pytest.mark.parametrize("argv", [
        "converse-sample --K 8 --L 2 --trials 2 --n-max 0 --seed 1",
        "converse-sample --K 8 --L 2 --trials 0 --seed 1",
        "converse-sample --K 8 --L 2 --trials 2 --realizations 0 --seed 1",
        "lin-eval --K 4 --L 1 --n 2 --trials 0 --seed 1",
        "sweep --L 3..1",
    ])
    def test_empty_or_zero_counts_are_validation_errors(self, argv, capsys):
        code, out, err = run_cli(argv.split(), capsys)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith("invalid input: ")


class TestDeterministicArtifacts:
    def test_tdma_search_golden_row(self, capsys):
        code, out, _ = run_cli(
            ["tdma-search", "--K", "8", "--L", "2", "--mode", "cyclic"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "K,L,mode,M,sum_dof_num,sum_dof_den,per_user",
            "8,2,cyclic,1,4,1,1/2",
        ]

    def test_demand_bound_fixed_assignment_golden_row(self, capsys):
        code, out, _ = run_cli(
            ["demand-bound", "--K", "4", "--L", "2", "--mode", "cyclic",
             "--assignment", "1,2,3,4"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "4,2,cyclic,1,4,3,1/3"

    @pytest.mark.parametrize("argv,row", [
        ("--K 13 --L 2", "13,2,cyclic,1,13,2,1/2"),
        ("--K 20 --L 3 --mode truncated", "20,3,truncated,1,8,1,2/5"),
        ("--K 7 --L 6", "7,6,cyclic,1,1,1,1/7"),
    ])
    def test_demand_bound_in_closed_form(self, argv, row, capsys):
        # past the enumeration limit or the demand LP's K cap, no enumeration
        code, out, _ = run_cli(["demand-bound"] + argv.split(), capsys)
        assert code == cli.EXIT_OK
        assert out.splitlines()[1] == row

    def test_demand_bound_odd_l_residual_is_a_resource_limit(self, capsys):
        code, out, err = run_cli(["demand-bound", "--K", "8", "--L", "3"], capsys)
        assert code == cli.EXIT_RESOURCE
        assert out == ""
        assert err == ("resource limit: cyclic K=8 L=3 has odd L with L+2 not dividing K, "
                       "so no closed form applies, and its 65536 assignments exceed "
                       "the enumeration limit 20000\n")

    def test_decimal_flag_appends_float_column(self, capsys):
        code, out, _ = run_cli(
            ["tdma-search", "--K", "8", "--L", "2", "--decimal"], capsys)
        assert code == 0
        header, row = out.splitlines()
        assert header.endswith(",per_user_decimal")
        assert row.endswith(",0.5")

    def test_json_format_carries_schedule_and_result(self, capsys):
        code, out, _ = run_cli(
            ["tdma-canonical", "--K", "8", "--L", "2", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["sum_dof"] == "4/1"
        assert doc["schedule"]["schema"] == "timdof/schedule/v1"

    def test_sweep_table(self, capsys):
        code, out, err = run_cli(["sweep", "--L", "1..4"], capsys)
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "K,L,mode,M,sum_dof_num,sum_dof_den,per_user"
        per_user = [r.split(",")[-1] for r in rows[1:]]
        assert per_user == ["2/3", "1/2", "2/5", "1/3"]
        assert err.count("optimal=") == 4

    def test_sweep_past_the_old_search_cap(self, capsys):
        code, out, _ = run_cli(["sweep", "--L", "1..4", "--K-multiple", "3"], capsys)
        assert code == cli.EXIT_OK
        rows = [r.split(",") for r in out.splitlines()[1:]]
        assert [(r[0], r[-1]) for r in rows] == [("9", "2/3"), ("12", "1/2"), ("15", "2/5"), ("18", "1/3")]

    def test_sweep_past_l_4(self, capsys):
        code, out, err = run_cli(["sweep", "--L", "5..8"], capsys)
        assert code == cli.EXIT_OK
        assert [r.split(",")[-1] for r in out.splitlines()[1:]] == ["2/7", "1/4", "2/9", "1/5"]
        lines = err.splitlines()
        assert len(lines) == 4
        for line in lines:
            fields = dict(f.split("=") for f in line.split())
            assert fields["bound"] == fields["optimal"], line

    def test_tdma_search_at_large_k(self, capsys):
        code, out, _ = run_cli(["tdma-search", "--K", "3000", "--L", "4"], capsys)
        assert code == cli.EXIT_OK
        assert out.splitlines()[1] == "3000,4,cyclic,1,1000,1,1/3"

    def test_topology_chordal_json(self, capsys):
        code, out, _ = run_cli(
            ["topology", "--K", "4", "--L", "1", "--mode", "cyclic", "--chordal"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["chordal_bipartite"] is False
        assert doc["mode"] == "cyclic"
        assert run_cli(["topology", "--K", "4", "--L", "1", "--mode", "cyclic", "--chordal",
                        "--format", "json"], capsys) == (0, out, "")

    def test_deterministic_header_only_on_randomized_artifacts(self, capsys):
        _, out, _ = run_cli(["tdma-search", "--K", "4", "--L", "1"], capsys)
        assert not out.startswith("#")
        _, out, _ = run_cli(
            ["lin-eval", "--K", "4", "--L", "1", "--n", "2", "--trials", "2",
             "--seed", "5"], capsys)
        assert out.splitlines()[0] == f"# timdof {__version__} seed=5"


class TestRandomizedArtifacts:
    def test_converse_sample_csv_columns_and_determinism(self, tmp_path, capsys):
        args = ["converse-sample", "--K", "4", "--L", "2", "--trials", "4",
                "--seed", "9", "--realizations", "2"]
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, err = run_cli(args + ["--out", str(out)], capsys)
            assert code == 0
            assert "max sum DoF" in err
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]
        lines = paths[0].decode().splitlines()
        assert lines[0] == f"# timdof {__version__} seed=9"
        assert lines[1] == "K,L,n,trial,sum_dof,s,r,deficiency,reconstructable"
        assert len(lines) == 2 + 4 * 2  # one row per scheme and realization

    @pytest.mark.parametrize("L,wall_note", [
        (2, " (K/2 wall 4: 0 draws above it)"),
        (1, ""),
    ])
    def test_converse_sample_names_the_wall_only_at_l2(self, L, wall_note, capsys):
        code, _, err = run_cli(
            ["converse-sample", "--K", "8", "--L", str(L), "--trials", "2", "--seed", "9"],
            capsys)
        assert code == 0
        assert err == f"max sum DoF over 2 schemes: 0{wall_note}; unstable schemes: 0\n"

    def test_lemma1_json_records_seed_and_version(self, capsys):
        code, out, _ = run_cli(
            ["lemma1", "--K", "4", "--L", "1", "--n", "2", "--seed", "3",
             "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 3
        assert doc["toolkit_version"] == __version__
        assert doc["schema"] == "timdof/reconstruction-report/v1"

    def test_output_dir_env_resolves_relative_paths(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        code, _, _ = run_cli(["topology", "--K", "3", "--L", "1", "--out", "t.json"], capsys)
        assert code == 0
        assert (tmp_path / "t.json").exists()

    def test_absolute_out_ignores_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "unused"))
        target = tmp_path / "direct.json"
        code, _, _ = run_cli(["topology", "--K", "3", "--L", "1", "--out", str(target)], capsys)
        assert code == 0
        assert target.exists()

    def test_out_dash_means_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        args = ["converse-sample", "--K", "4", "--L", "2", "--trials", "2", "--seed", "9"]
        code, out, _ = run_cli(args + ["--out", "-"], capsys)
        assert code == 0
        assert out == run_cli(args, capsys)[1]
        assert out.startswith("# timdof ")
        assert list(tmp_path.iterdir()) == []

    def test_out_creates_missing_parent_directories(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        code, _, _ = run_cli(
            ["topology", "--K", "3", "--L", "1", "--out", "sub/dir/t.json"], capsys)
        assert code == 0
        assert (tmp_path / "sub" / "dir" / "t.json").exists()


SIM_HEADER = "K,L,n,trial,sum_dof,s,r,deficiency,reconstructable\n"

# Exact stdout of the randomized commands, pinned before their trial loops
# were merged into linear_sim.channel_trials, and of tdma-search JSON,
# pinned while best_sum_schedule still solved its single-row LP.  lin-eval
# and tdma-search JSON are pinned by the SHA-256 of their bytes; the
# lin-eval JSON hashes were re-pinned when precoders became GF(p) integers
# in timdof/scheme/v2 documents, with every CSV row and lemma1 report kept.
GOLDEN_STDOUT = {
    ("lin-eval --K 8 --L 2 --n 2 --seed 5", "csv"):
        "# timdof 0.1.0 seed=5\n" + SIM_HEADER
        + "8,2,2,0,0/1,5,5,0,True\n8,2,2,1,0/1,5,5,0,True\n8,2,2,2,0/1,5,5,0,True\n",
    ("lin-eval --K 8 --L 2 --n 2 --seed 5", "json"):
        "sha256:71a2e25181c03bfe0b207f9d80516561b5f2afca4a07677b07003b467b49915c",
    ("lin-eval --K 8 --L 2 --n 2 --seed 5 --cooperation single --density 0.5", "csv"):
        "# timdof 0.1.0 seed=5\n" + SIM_HEADER
        + "8,2,2,0,1/1,2,2,0,True\n8,2,2,1,1/1,2,2,0,True\n8,2,2,2,1/1,2,2,0,True\n",
    ("lin-eval --K 8 --L 2 --n 2 --seed 5 --cooperation single --density 0.5", "json"):
        "sha256:e30cf5457214ceec6bd43684b765f9b771a23b6ad0ed20dc48a5ab481a6ff8ab",
    ("lin-eval --K 6 --L 1 --n 2 --seed 5 --density 0.4 --trials 2 --coherence constant",
     "csv"):
        "# timdof 0.1.0 seed=5\n" + SIM_HEADER
        + "6,1,2,0,1/2,1,1,0,True\n6,1,2,1,1/2,1,1,0,True\n",
    ("lin-eval --K 6 --L 1 --n 2 --seed 5 --density 0.4 --trials 2 --coherence constant",
     "json"):
        "sha256:9c447168df697de6d7471a7f8ad6e7e3523673a3f7a4db1ae179cd0c4717d9d3",
    ("lemma1 --K 8 --L 2 --n 2 --seed 5", "csv"):
        "# timdof 0.1.0 seed=5\n" + SIM_HEADER + "8,2,2,0,0/1,5,5,0,True\n",
    ("lemma1 --K 8 --L 2 --n 2 --seed 5", "json"):
        '{\n  "B": [\n    2,\n    4,\n    6,\n    8\n  ],\n  "deficiency": 0,\n'
        '  "exclusive_transmitters": [],\n  "interfering_transmitters": [\n    1,\n'
        '    2,\n    3,\n    4,\n    5,\n    6,\n    7,\n    8\n  ],\n  "r": 5,\n'
        '  "reconstructable": true,\n  "s": 5,\n'
        '  "schema": "timdof/reconstruction-report/v1",\n  "seed": 5,\n'
        '  "toolkit_version": "0.1.0"\n}\n',
    ("lemma1 --K 8 --L 2 --n 2 --seed 5 --B 2,4", "csv"):
        "# timdof 0.1.0 seed=5\n" + SIM_HEADER + "8,2,2,0,0/1,8,4,4,False\n",
    ("lemma1 --K 8 --L 2 --n 2 --seed 5 --B 2,4", "json"):
        '{\n  "B": [\n    2,\n    4\n  ],\n  "deficiency": 4,\n'
        '  "exclusive_transmitters": [],\n  "interfering_transmitters": [\n    1,\n'
        '    2,\n    3,\n    4,\n    5,\n    6,\n    7,\n    8\n  ],\n  "r": 4,\n'
        '  "reconstructable": false,\n  "s": 8,\n'
        '  "schema": "timdof/reconstruction-report/v1",\n  "seed": 5,\n'
        '  "toolkit_version": "0.1.0"\n}\n',
    ("tdma-search --K 8 --L 2 --mode cyclic", "json"):
        "sha256:1b4bffac974ec60ff364f543c3b8f943344cf201dc2bb8ee5d7f7a01b3bd4da4",
    ("tdma-search --K 12 --L 1 --mode cyclic", "json"):
        "sha256:b145ee68d645ab1c27d353f0a4e5c8facb7e3d2a5e8fd5fc6de851f075b7cc71",
    ("tdma-search --K 7 --L 3 --mode truncated", "json"):
        "sha256:03eacaaab6c2baf5b65276a857005d1f8e5846c3357a9cfd37dcf3ef69dc5680",
    ("converse-sample --K 8 --L 2 --trials 3 --realizations 2 --seed 5", "csv"):
        "# timdof 0.1.0 seed=5\n" + SIM_HEADER
        + "8,2,1,0,0/1,4,4,0,True\n8,2,1,0,0/1,4,4,0,True\n"
        + "8,2,2,1,0/1,7,7,0,True\n8,2,2,1,0/1,7,7,0,True\n"
        + "8,2,3,2,0/1,9,9,0,True\n8,2,3,2,0/1,9,9,0,True\n",
    ("converse-sample --K 6 --L 1 --trials 4 --realizations 2 --n-max 2 --seed 7 --B 2,4",
     "csv"):
        "# timdof 0.1.0 seed=7\n" + SIM_HEADER
        + "6,1,1,0,0/1,4,2,2,False\n6,1,1,0,0/1,4,2,2,False\n"
        + "6,1,2,1,0/1,5,4,1,False\n6,1,2,1,0/1,5,4,1,False\n"
        + "6,1,1,2,0/1,4,2,2,False\n6,1,1,2,0/1,4,2,2,False\n"
        + "6,1,2,3,0/1,6,4,2,False\n6,1,2,3,0/1,6,4,2,False\n",
}


TDMA_SEARCH_JSON_SHA256 = "52d5d10894955c6a9c36e19df9f3d5f7af6b734e86c27e9fe676e27d7694e019"

# One SHA-256 over the argv, exit code, stdout and stderr of every command
# that sampled_simulation_commands draws, re-pinned when precoders became
# GF(p) integers; the hash below, which leaves the precoders out, holds
# across that change.
SAMPLED_SIMULATION_SHA256 = "36cb90aff786a9fc31c3319b3a015547ba86ce52a5368f372ee45c3f930cfa94"

# The same hash with each lin-eval JSON document's scheme.precoders and
# scheme.schema removed and the rest rendered by json.dumps(sort_keys=True,
# indent=2), pinned while precoders were complex floats: the symbol counts,
# trial totals, reports and messages do not depend on the field the
# precoders are drawn from.
SAMPLED_SIMULATION_WITHOUT_PRECODERS_SHA256 = (
    "d5ac6bfed2d2c38d8a1298184e9628dc11c4dcfd23c83008762502ffc36a7dc7")


def sampled_simulation_commands():
    """100 randomized simulation commands drawn from a fixed seed.

    Every combination of the categorical flags appears; K, L, n, mode and
    the seeds are drawn.
    """
    rng = random.Random(20261019)

    def shape():
        K, L = rng.choice((6, 8, 16)), rng.choice((1, 2))
        return ["--K", str(K), "--L", str(L), "--mode", rng.choice(("cyclic", "truncated")),
                "--seed", str(rng.randrange(10 ** 4))], K

    commands = []
    for fmt in ("json", "csv"):
        for cooperation in ("full", "single"):
            for density in ([], ["--density", "0.5"]):
                for coherence in ([], ["--coherence", "constant"]):
                    for _ in range(3):
                        argv, _ = shape()
                        commands.append(["lin-eval", *argv, "--n", str(rng.randint(1, 4)),
                                         "--trials", "2", "--cooperation", cooperation,
                                         *density, *coherence, "--format", fmt])
        for cooperation in ("full", "single"):
            for default_b in (True, False):
                for _ in range(4):
                    argv, K = shape()
                    B = [] if default_b else ["--B", ",".join(map(str, sorted(
                        rng.sample(range(1, K + 1), rng.randint(1, K // 2)))))]
                    commands.append(["lemma1", *argv, "--n", str(rng.randint(1, 4)),
                                     "--cooperation", cooperation, *B, "--format", fmt])
    for _ in range(20):
        argv, _ = shape()
        commands.append(["converse-sample", *argv, "--density", "0.6",
                         "--trials", str(rng.randint(1, 3)), "--realizations", "2",
                         "--n-max", str(rng.randint(1, 4))])
    return commands


def assert_golden(out, expected):
    if expected.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(out.encode()).hexdigest() == expected
    else:
        assert out == expected


class TestGoldenArtifacts:
    @pytest.mark.parametrize("args,fmt", sorted(GOLDEN_STDOUT))
    def test_stdout_matches_golden(self, args, fmt, capsys):
        code, out, _ = run_cli(args.split() + ["--format", fmt], capsys)
        assert code == cli.EXIT_OK
        assert_golden(out, GOLDEN_STDOUT[args, fmt])

    def test_tdma_search_json_on_every_small_generated_instance(self, capsys):
        # both modes, K <= 16, every L < K: 272 documents, hashed in this
        # order; pinned while the search still scanned receiver subsets
        digest = hashlib.sha256()
        for mode in ("cyclic", "truncated"):
            for K in range(1, 17):
                for L in range(K):
                    code, out, _ = run_cli(["tdma-search", "--K", str(K), "--L", str(L),
                                            "--mode", mode, "--format", "json"], capsys)
                    assert code == cli.EXIT_OK
                    digest.update(out.encode())
        assert digest.hexdigest() == TDMA_SEARCH_JSON_SHA256

    def test_sampled_simulation_commands(self, capsys):
        digest = hashlib.sha256()
        for argv in sampled_simulation_commands():
            code, out, err = run_cli(argv, capsys)
            digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}".encode())
        assert digest.hexdigest() == SAMPLED_SIMULATION_SHA256

    def test_sampled_simulation_commands_without_precoders(self, capsys):
        digest = hashlib.sha256()
        for argv in sampled_simulation_commands():
            code, out, err = run_cli(argv, capsys)
            if argv[0] == "lin-eval" and "json" in argv:
                doc = json.loads(out)
                del doc["scheme"]["precoders"], doc["scheme"]["schema"]
                out = json.dumps(doc, sort_keys=True, indent=2) + "\n"
            digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}".encode())
        assert digest.hexdigest() == SAMPLED_SIMULATION_WITHOUT_PRECODERS_SHA256

    def test_converse_sample_density_one_is_the_default(self, capsys):
        args = "converse-sample --K 8 --L 2 --trials 3 --realizations 2 --seed 5"
        code, out, _ = run_cli(args.split() + ["--density", "1.0"], capsys)
        assert code == cli.EXIT_OK
        assert_golden(out, GOLDEN_STDOUT[args, "csv"])
