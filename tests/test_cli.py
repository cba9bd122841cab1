import csv
import io
import json

import pytest

from htlr import cli
from htlr.cli import UNIFORM_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


NON_TIMING = [c for c in UNIFORM_HEADER if c not in ("t_construct", "t_apply")]


class TestBenchUniform:
    def test_header_and_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench-uniform", "--dim", "2", "--kernel", "gaussian",
            "--n", "32", "--p", "4", "--leaf", "8", "--adm", "weak",
            "--baseline", "--seed", "7",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(UNIFORM_HEADER)
        rows = parse_csv(out)
        assert len(rows) == 2
        assert {r["variant"] for r in rows} == {"htlr", "hmatrix"}
        assert rows[0]["id"] == rows[1]["id"]
        # weak-admissibility tucker rows respect the storage bound
        htlr_row = next(r for r in rows if r["variant"] == "htlr")
        assert int(htlr_row["total_scalars"]) <= float(htlr_row["bound"])

    def test_invalid_grid_size_names_constraint(self, capsys):
        code, _, err = run_cli(capsys, "bench-uniform", "--n", "50")
        assert code == 2
        assert "cannot be halved evenly" in err

    def test_grid_the_tree_halves_into_leaves_runs(self, capsys):
        # 48 -> 24 -> 12: leaves of side 12, neither 16 * 2^L nor a power of two
        code, out, _ = run_cli(capsys, "bench-uniform", "--n", "48")
        assert code == 0
        assert parse_csv(out)[0]["n"] == "48"

    def test_kernel_dimension_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "bench-uniform", "--dim", "2", "--kernel", "slp3d",
            "--n", "32",
        )
        assert code == 2
        assert "slp3d" in err

    def test_same_seed_reproducible(self, capsys):
        args = ["bench-uniform", "--dim", "2", "--kernel", "gaussian",
                "--n", "32", "--p", "4", "--leaf", "8", "--seed", "11"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        rows1, rows2 = parse_csv(out1), parse_csv(out2)
        for r1, r2 in zip(rows1, rows2):
            for col in NON_TIMING:
                assert r1[col] == r2[col]

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench-uniform", "--n", "32", "--p", "4", "--leaf", "8",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["variant"] == "htlr"
        assert float(rows[0]["e_apply_rand"]) < 1e-3

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "bench-uniform", "--n", "32", "--p", "4", "--leaf", "8",
            "--out", str(dest),
        )
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith(",".join(UNIFORM_HEADER))

    def test_strong_admissibility_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench-uniform", "--dim", "2", "--kernel", "slp2d",
            "--n", "32", "--p", "4", "--leaf", "8", "--adm", "strong",
            "--eta", "1.4142135623730951",
        )
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["e_apply_rand"]) < 1e-3

    def test_unknown_flag_exits_2(self, capsys):
        code = main(["bench-uniform", "--n", "32", "--frobnicate"])
        capsys.readouterr()
        assert code == 2


class TestRankExplore:
    def test_row_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "rank-explore", "--dim", "2", "--kernel", "gaussian",
            "--p", "3",
        )
        assert code == 0
        rows = parse_csv(out)
        # 2 pairs x 3 methods x 3 ranks
        assert len(rows) == 18
        assert {r["pair"] for r in rows} == {"neighbor", "wellsep"}
        assert {r["method"] for r in rows} == {"interp", "svd", "sthosvd"}

    def test_rank_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "rank-explore", "--dim", "2", "--kernel", "gaussian",
            "--p", "40",
        )
        assert code == 2
        assert "at most" in err

    @pytest.mark.parametrize("p", ["0", "-2"])
    def test_rank_below_one_is_usage_error(self, capsys, p):
        # an empty sweep would print only the header and exit 0
        code, out, err = run_cli(
            capsys, "rank-explore", "--dim", "2", "--kernel", "gaussian", "--p", p,
        )
        assert code == 2
        assert out == ""
        assert "at least 1" in err

    def test_kernel_dimension_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "rank-explore", "--dim", "3", "--kernel", "slp2d",
        )
        assert code == 2
        assert "slp2d requires dimension 2" in err

    def test_deterministic_output(self, capsys):
        args = ["rank-explore", "--dim", "2", "--kernel", "slp2d", "--p", "2"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestBenchQuasi:
    def test_structured_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench-quasi", "--kernel", "gaussian", "--n", "128",
            "--rho", "1.5", "--p", "4", "--leaf", "8", "--seed", "3",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert int(rows[0]["n_quasi"]) == 128
        assert float(rows[0]["e_apply_rand"]) < 1.0

    def test_bad_triangle_count(self, capsys):
        code, _, err = run_cli(capsys, "bench-quasi", "--n", "100")
        assert code == 2
        assert "2*k^2" in err

    def test_three_dimensional_kernel_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "bench-quasi", "--dim", "3", "--kernel", "slp3d",
            "--n", "128",
        )
        assert code == 2
        assert "two-dimensional" in err
        code, _, err = run_cli(
            capsys, "bench-quasi", "--kernel", "slp3d", "--n", "128",
        )
        assert code == 2
        assert "slp3d requires dimension 3" in err

    def test_mesh_file_input(self, capsys, tmp_path):
        from htlr import save_mesh, structured_trimesh

        path = tmp_path / "m.mesh"
        save_mesh(structured_trimesh(8), path)
        code, out, _ = run_cli(
            capsys, "bench-quasi", "--mesh", str(path), "--rho", "1.5",
            "--p", "4", "--leaf", "8",
        )
        assert code == 0
        rows = parse_csv(out)
        assert int(rows[0]["n_quasi"]) == 128

    def test_mesh_with_triangle_count_is_usage_error(self, capsys, tmp_path):
        from htlr import save_mesh, structured_trimesh

        path = tmp_path / "m.mesh"
        save_mesh(structured_trimesh(8), path)
        code, out, err = run_cli(capsys, "bench-quasi", "--n", "50", "--mesh", str(path))
        assert code == 2
        assert out == ""
        assert "not both" in err

    def test_missing_mesh_file_is_runtime_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bench-quasi", "--mesh", "/nonexistent/x.mesh",
        )
        assert code == 1


BAD_NUMBERS = [
    ("bench-quasi", "--rho", "-2"),
    ("bench-quasi", "--rho", "nan"),
    ("bench-uniform", "--eta", "-1"),
    ("bench-uniform", "--eta", "0"),
    ("bench-quasi", "--eta", "nan"),
    ("bench-uniform", "--p", "0"),
    ("bench-quasi", "--p", "0"),
    ("bench-uniform", "--leaf", "0"),
    ("bench-quasi", "--leaf", "0"),
    ("bench-quasi", "--n", "0"),
    ("bench-quasi", "--n", "-8"),
]


@pytest.mark.parametrize("command, flag, value", BAD_NUMBERS)
def test_bad_number_is_usage_error_before_any_work(
    capsys, monkeypatch, command, flag, value
):
    def no_work(*args, **kwargs):
        raise AssertionError("reference rows computed before the check")

    monkeypatch.setattr(cli.oracles, "exact_row_evaluator", no_work)
    monkeypatch.setattr(cli.oracles, "quasi_row_evaluator", no_work)
    n = "32" if command == "bench-uniform" else "128"
    code, _, err = run_cli(
        capsys, command, "--n", n, "--adm", "strong", flag, value,
    )
    assert code == 2
    assert err.startswith("usage error")


@pytest.mark.parametrize("command", ["bench-uniform", "bench-quasi"])
def test_eta_with_the_weak_rule_is_usage_error(capsys, monkeypatch, command):
    # the weak rule takes no eta: --eta is rejected, not silently dropped
    def no_work(*args, **kwargs):
        raise AssertionError("reference rows computed before the check")

    monkeypatch.setattr(cli.oracles, "exact_row_evaluator", no_work)
    monkeypatch.setattr(cli.oracles, "quasi_row_evaluator", no_work)
    n = "32" if command == "bench-uniform" else "128"
    code, _, err = run_cli(capsys, command, "--n", n, "--adm", "weak", "--eta", "2")
    assert code == 2
    assert err.startswith("usage error")
    assert "--eta" in err
