"""End-to-end tests of the command-line entry point."""

import json

import numpy as np
import pytest

from loccverify import cli
from loccverify.serialize import dumps, matrix_to_json


def run(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr().out
    return status, json.loads(out) if out.strip() else None


def check_names(report):
    return [c["name"] for c in report["checks"]]


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
    ])
    def test_bad_protocol_parameters_are_2(self, capsys, argv):
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

    def test_failed_check_is_1(self, capsys):
        big = matrix_to_json(1.5 * np.eye(4, dtype=complex))
        status, rep = run(capsys, "zonoid-check", "--z", dumps(big, indent=0),
                          "--basis", "twoqubit-minimal")
        assert status == 1
        assert rep["pass"] is False
        assert rep["values"]["feasible"] is False


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

    def test_paths(self, capsys):
        status, rep = run(capsys, "paths", "--parties", "2", "--nu", "100",
                          "--c", "0.5")
        assert status == 0
        assert rep["values"]["observed"] <= rep["values"]["bound"]

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
