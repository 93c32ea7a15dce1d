"""End-to-end tests of the command-line entry point."""

import argparse
import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from loccverify import cli, linalg, protocols
from loccverify.serialize import dumps, matrix_to_json


def run(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr().out
    return status, json.loads(out) if out.strip() else None


def check_names(report):
    return [c["name"] for c in report["checks"]]


def inline(m):
    return dumps(matrix_to_json(np.asarray(m, dtype=complex)), indent=0)


class TestReportShape:
    def test_schema(self, capsys):
        status, rep = run(capsys, "choi", "--kraus", "twoqubit-minimal")
        assert status == 0
        assert set(rep) == {"command", "checks", "values", "pass",
                            "wall_time_s"}
        assert rep["command"] == "choi"
        assert rep["pass"] is True
        for c in rep["checks"]:
            assert {"name", "defect", "tolerance", "pass"} <= set(c)

    def test_determinism_modulo_wall_time(self, capsys):
        def strip(text):
            return "\n".join(line for line in text.splitlines()
                             if "wall_time" not in line)

        cli.main(["paper-2q", "--nu", "100", "--c", "0.5"])
        a = capsys.readouterr().out
        cli.main(["paper-2q", "--nu", "100", "--c", "0.5"])
        b = capsys.readouterr().out
        assert strip(a) == strip(b)


class TestExitCodes:
    def test_malformed_inline_json_is_2(self, capsys):
        status = cli.main(["choi", "--kraus", "{broken"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "error" in captured.err

    def test_missing_file_is_2(self, capsys):
        status = cli.main(["choi", "--kraus", "/tmp/no-such-file-xyz.json"])
        assert status == 2

    def test_unknown_basis_token_is_2(self, capsys):
        status = cli.main(["zonoid-check", "--z", "identity",
                           "--basis", "bogus"])
        assert status == 2

    @pytest.mark.parametrize("argv", [
        ["protocol", "--nu", "0"],
        ["protocol", "--parties", "1"],
        ["protocol", "--c", "1.5"],
        ["paths", "--c", "1.5"],
        ["paths", "--nu", "0"],
        ["paths", "--parties", "1"],
        ["paper-pq", "--parties", "7"],
        ["paper-pq", "--parties", "1"],
        ["paper-pq", "--nu-list", "10,x"],
        ["paper-pq", "--nu-list", "0"],
        ["hausdorff", "--nu-list", "10,x"],
        ["hausdorff", "--nu-list", "0"],
        ["paper-pq", "--c", "1.5"],
        ["hausdorff", "--c", "1.5"],
        ["paper-2q", "--c", "1.5"],
        ["theorem1", "--nu", "10", "--c", "1.5"],
        ["hausdorff", "--samples", "-1"],
        ["paths", "--grid", "0"],
        ["paths", "--grid", "-5"],
        ["theorem1", "--sigma-samples", "0"],
        ["theorem8", "--samples", "-1"],
        ["wstate", "--nodes", "0"],
        ["zonoid-check", "--z", inline(np.eye(2))],
        ["zonoid-check", "--z", inline([[1, 1, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 1, 0], [0, 0, 0, 1]])],
        ["zonoid-check", "--tol", "-1"],
        ["zonoid-check", "--tol", "0"],
        ["zonoid-check", "--tol", "inf"],
        ["zonoid-check", "--tol", "nan"],
        ["theorem1", "--tol", "-1"],
        ["theorem8", "--tol", "nan"],
        ["choi", "--kraus", "twoqubit-minimal", "--tol", "1e-7"],
        ["wstate", "--c", "9"],
        ["protocol", "--seed", "1"],
        ["protocol", "--parties", "2", "--nu", "100000000"],
        ["paths", "--nu", str(10 ** 40)],
        ["paper-pq", "--parties", "2", "--nu-list", f"10,{10 ** 40}"],
        ["theorem1", "--samples", "100000000"],
        ["theorem1", "--sigma-samples", "100000000"],
        ["theorem8", "--samples", "100000000"],
        ["theorem8", "--sigma-samples", "100000000"],
        ["theorem8", "--nodes", "100000"],
        ["paths", "--grid", "100000000"],
        ["paths", "--parties", "6", "--grid", "200000"],
        ["paper-2q", "--nodes", "100000"],
        ["paper-pq", "--nodes", "100000"],
        ["wstate", "--nodes", "100000"],
    ])
    def test_bad_protocol_parameters_are_2(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("refused input reached the builder")

        monkeypatch.setattr(cli, "build_protocol_pq", refuse)
        status = cli.main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("command", ["protocol", "paths"])
    def test_too_many_parties_rejected_before_building(self, capsys,
                                                       monkeypatch, command):
        # 30 parties would need 2^60-entry arrays; fail loudly if the
        # guard lets the call through instead of allocating.
        def refuse(*args, **kwargs):
            raise AssertionError("oversized protocol reached the builder")

        monkeypatch.setattr(cli, "build_protocol_pq", refuse)
        monkeypatch.setattr(cli, "path_distance_bound", refuse)
        status = cli.main([command, "--parties", "30"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_protocol_budget_counts_the_check(self, capsys, monkeypatch):
        # The tree alone (about 250 MiB) fits the 256 MiB budget; building
        # and checking it does not.
        def refuse(*args, **kwargs):
            raise AssertionError("refused input reached build_protocol_pq")

        monkeypatch.setattr(cli, "build_protocol_pq", refuse)
        assert protocols.protocol_tree_bytes(2, 110000) <= \
            cli.TREE_BYTES_BUDGET
        status = cli.main(["protocol", "--parties", "2", "--nu", "110000"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith("error:")
        assert "to build and check the tree" in captured.err

    @pytest.mark.parametrize("argv", [
        ["theorem1", "--samples", "200000"],
        ["theorem1", "--sigma-samples", "200000"],
        ["theorem8", "--samples", "100000", "--nodes", "8"],
        ["theorem8", "--sigma-samples", "200000"],
        ["theorem8", "--nodes", "6000"],
        ["paths", "--grid", "1000000"],
        ["paths", "--parties", "6", "--grid", "200000"],
        ["paper-2q", "--nodes", "6000"],
        ["paper-pq", "--nodes", "6000"],
        ["wstate", "--nodes", "6000"],
    ])
    def test_memory_budget_refuses_before_any_work(self, capsys, monkeypatch,
                                                   argv):
        def refuse(*args, **kwargs):
            raise AssertionError("refused run reached the checker")

        for name in ("channel_zonoid", "instrument_zonoid",
                     "limiting_choi_2q", "wstate_analysis"):
            monkeypatch.setattr(cli.twoqubit, name, refuse)
        monkeypatch.setattr(cli.pq, "pqubit_limit_check", refuse)
        monkeypatch.setattr(cli, "verify_theorem_conditions", refuse)
        monkeypatch.setattr(cli, "path_distance_bound", refuse)
        monkeypatch.setattr(linalg, "_leggauss", refuse)
        assert cli.work_bytes(cli._build_parser().parse_args(argv)) > \
            cli.TREE_BYTES_BUDGET
        status = cli.main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:")
        assert "MiB budget" in captured.err

    @pytest.mark.parametrize("argv", [
        ["theorem1", "--samples", "2000", "--sigma-samples", "11"],
        ["theorem1", "--samples", "11", "--sigma-samples", "4000"],
        ["theorem8", "--samples", "2000", "--sigma-samples", "11",
         "--nodes", "8"],
        ["theorem8", "--samples", "11", "--sigma-samples", "4000",
         "--nodes", "8"],
        ["theorem8", "--samples", "11", "--sigma-samples", "11",
         "--nodes", "1000"],
        ["paths", "--grid", "40000"],
        ["paths", "--parties", "6", "--grid", "20000"],
        ["paper-2q", "--nodes", "1000"],
        ["paper-pq", "--nodes", "1000"],
        ["wstate", "--nodes", "1000"],
    ])
    def test_work_bytes_bound_the_run(self, argv):
        # A small run first, so lazily built tables are not counted.
        small = [v if not v.isdigit() or v == "6" else "3" for v in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(small) in (0, 1)
        linalg._leggauss.cache_clear()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 0
        estimate = cli.work_bytes(cli._build_parser().parse_args(argv))
        assert peak <= estimate <= 1.5 * peak

    def test_failed_check_is_1(self, capsys):
        big = matrix_to_json(1.5 * np.eye(4, dtype=complex))
        status, rep = run(capsys, "zonoid-check", "--z", dumps(big, indent=0),
                          "--basis", "twoqubit-minimal")
        assert status == 1
        assert rep["pass"] is False
        assert rep["values"]["feasible"] is False


class ReadRecorder(argparse.Namespace):
    """Namespace that records the names of the attributes read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# Cheap arguments per subcommand; theorem1 reads --c only with --nu.
CHEAP_ARGV = {
    "choi": ["--kraus", "twoqubit-minimal"],
    "distance": ["--a", "twoqubit-minimal", "--b", "twoqubit-grouped"],
    "zonoid-check": [],
    "protocol": ["--nu", "2"],
    "paths": ["--nu", "2", "--grid", "3"],
    "theorem1": ["--nu", "10", "--samples", "2", "--sigma-samples", "2"],
    "theorem8": ["--samples", "2", "--sigma-samples", "2", "--nodes", "2"],
    "paper-2q": ["--nu", "10", "--nodes", "2"],
    "paper-pq": ["--parties", "2", "--nu-list", "10,20", "--nodes", "2"],
    "wstate": ["--nodes", "2"],
    "hausdorff": ["--nu-list", "10,20", "--samples", "1"],
}


class TestDeclaredFlags:
    def test_every_declared_flag_is_read(self):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(CHEAP_ARGV)
        unread = {}
        for command, argv in CHEAP_ARGV.items():
            ns = cli._build_parser().parse_args([command] + argv,
                                                namespace=ReadRecorder())
            declared = set(vars(ns)) - {"_reads", "command", "func"}
            func = ns.func
            ns._reads.clear()
            func(ns)
            if declared - ns._reads:
                unread[command] = sorted(declared - ns._reads)
        assert unread == {}


class TestSubcommands:
    def test_choi_trace(self, capsys):
        status, rep = run(capsys, "choi", "--kraus", "twoqubit-grouped")
        assert status == 0
        assert rep["values"]["matrix"]["rows"] == 16

    def test_distance_of_equivalent_sets(self, capsys):
        status, rep = run(capsys, "distance", "--a", "twoqubit-minimal",
                          "--b", "twoqubit-grouped")
        assert status == 0
        assert rep["values"]["choi_distance"] < 1e-12

    def test_zonoid_check_identity(self, capsys):
        status, rep = run(capsys, "zonoid-check", "--z", "identity",
                          "--basis", "twoqubit-minimal")
        assert status == 0
        assert rep["values"]["residual"] < 1e-12
        assert rep["values"]["stop"] == "identity"
        assert rep["values"]["support_identity"] == pytest.approx(4.0)

    def test_zonoid_check_small_bases(self, capsys):
        for basis in ("square", "interval"):
            status, rep = run(capsys, "zonoid-check", "--z", "identity",
                              "--basis", basis)
            assert status == 0
            assert rep["values"]["support_identity"] == pytest.approx(2.0)

    def test_protocol(self, capsys):
        status, rep = run(capsys, "protocol", "--parties", "2",
                          "--nu", "10", "--c", "0.5")
        assert status == 0
        assert rep["values"]["leaves"] == 21
        assert {"node-sums", "locality", "completeness"} <= \
            set(check_names(rep))

    def test_protocol_fails_on_non_product_leaves(self, capsys, monkeypatch):
        # Opposite Bell-like bumps on the last two sibling leaves leave
        # every leaf sum, the completeness and every party factor as they
        # were, so only the product check can see them.
        build = cli.build_protocol_pq

        def bumped(*args):
            tree = build(*args)
            halt, main = tree.node_at((1,) * 19).children
            bump = np.zeros((4, 4))
            bump[0, 3] = bump[3, 0] = 0.05
            halt.povm_element = halt.povm_element + bump
            main.povm_element = main.povm_element - bump
            return tree

        monkeypatch.setattr(cli, "build_protocol_pq", bumped)
        status, rep = run(capsys, "protocol", "--nu", "10")
        assert status == 1
        assert [c["name"] for c in rep["checks"] if not c["pass"]] == \
            ["product"]

    def test_paths(self, capsys):
        status, rep = run(capsys, "paths", "--parties", "2", "--nu", "100",
                          "--c", "0.5")
        assert status == 0
        assert rep["values"]["observed"] <= rep["values"]["bound"]

    def test_paths_names_the_worst_s(self, capsys):
        status, rep = run(capsys, "paths", "--nu", "100")
        assert status == 0
        (check,) = rep["checks"]
        assert check["where"] == "s=3.7975"
        status, rep = run(capsys, "paper-2q", "--nu", "100", "--nodes", "8")
        assert rep["checks"][0]["name"] == "lemma1-bound"
        assert rep["checks"][0]["where"] == "s=3.7975"

    def test_theorem1(self, capsys):
        status, rep = run(capsys, "theorem1", "--samples", "7")
        assert status == 0
        assert "resolution" in check_names(rep)

    def test_theorem1_with_prelimit_values(self, capsys):
        status, rep = run(capsys, "theorem1", "--samples", "5",
                          "--nu", "50")
        assert status == 0
        pre = rep["values"]["prelimit"]
        assert len(pre["membership_residuals"]) == 11

    def test_paper_2q(self, capsys):
        status, rep = run(capsys, "paper-2q", "--nu", "1000", "--c", "0.5")
        assert status == 0
        assert rep["values"]["choi_offdiag"] == pytest.approx(2 / 3, abs=1e-9)
        assert rep["values"]["lemma1_max_distance"] <= \
            rep["values"]["lemma1_bound"]

    def test_paper_pq(self, capsys):
        status, rep = run(capsys, "paper-pq", "--parties", "2",
                          "--nu-list", "10,100")
        assert status == 0

    def test_wstate(self, capsys):
        status, rep = run(capsys, "wstate")
        assert status == 0
        assert rep["values"]["probability"] == pytest.approx(0.5, abs=1e-9)
        assert rep["values"]["concurrence"] == pytest.approx(8 / 9, abs=1e-9)

    def test_hausdorff(self, capsys):
        status, rep = run(capsys, "hausdorff", "--nu-list", "50,500",
                          "--samples", "100")
        assert status == 0
        gaps = rep["values"]["estimates"]
        assert gaps[0] > gaps[1]

    def test_inline_matrix_input(self, capsys):
        z = matrix_to_json(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))
        status, rep = run(capsys, "zonoid-check", "--z", dumps(z, indent=0),
                          "--basis", "twoqubit-minimal")
        assert status == 0
        assert rep["values"]["feasible"] is True

    def test_file_matrix_input(self, capsys, tmp_path):
        p = tmp_path / "z.json"
        p.write_text(dumps(matrix_to_json(np.eye(4, dtype=complex))))
        status, rep = run(capsys, "zonoid-check", "--z", str(p),
                          "--basis", "twoqubit-minimal")
        assert status == 0


class TestHugeRounds:
    """Pre-limit subcommands at 10^12 rounds never build the step table."""

    @pytest.mark.parametrize("argv", [
        ["paths", "--parties", "6", "--nu", "1000000000000"],
        ["paper-2q", "--nu", "1000000000000", "--nodes", "8"],
        ["hausdorff", "--nu-list", "10,1000000000000", "--samples", "50"],
        ["paper-pq", "--parties", "4", "--nu-list", "10,100,1000000000000"],
        ["theorem1", "--nu", "1000000000000", "--samples", "3",
         "--sigma-samples", "3"],
    ])
    def test_runs_without_the_step_table(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("step table built")

        monkeypatch.setattr(protocols, "_step_rows", refuse)
        status, rep = run(capsys, *argv)
        assert status == 0
        assert rep["pass"] is True
