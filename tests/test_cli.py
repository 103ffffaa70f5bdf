import io
import sys

import pytest

from simptop import catalog, reports, write_facets
from simptop.cli import EXIT_ERROR, EXIT_INCONCLUSIVE, EXIT_NEGATIVE, EXIT_OK, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sigma2_file(tmp_path):
    path = tmp_path / "sigma2.fl"
    path.write_text(write_facets(catalog.get("Sigma2").complex))
    return str(path)


@pytest.fixture
def dunce_file(tmp_path):
    path = tmp_path / "dunce.fl"
    path.write_text(write_facets(catalog.get("DunceHat8").complex))
    return str(path)


class TestBasicCommands:
    def test_info(self, capsys, sigma2_file):
        code, out, _ = run_cli(capsys, "info", sigma2_file)
        assert code == EXIT_OK
        tree = reports.parse_report(out)
        assert tree["f-vector"] == "7 15 10"
        assert tree["weak-pseudomanifold"] == "true"

    def test_homology(self, capsys, sigma2_file):
        code, out, _ = run_cli(capsys, "homology", sigma2_file)
        assert code == EXIT_OK
        assert reports.parse_report(out)["betti"] == "0 0 1"

    def test_moves_filter(self, capsys, sigma2_file):
        code, out, _ = run_cli(capsys, "moves", sigma2_file, "--filter", "proper")
        assert code == EXIT_OK
        tree = reports.parse_report(out)
        assert int(tree["count"]) >= 1
        assert all("proper-bistellar" in m for m in tree["moves"])

    def test_apply_move(self, capsys, sigma2_file):
        code, out, _ = run_cli(capsys, "apply-move", sigma2_file, "--a-set", "2,3,4,6")
        assert code == EXIT_OK
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        assert body.strip() == write_facets(catalog.get("Sigma3").complex).strip()

    def test_catalog_export(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--name", "RP2_6")
        assert code == EXIT_OK
        assert out == write_facets(catalog.get("RP2_6").complex)

    def test_catalog_unknown(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "--name", "zzz")
        assert code == 1
        assert "Sigma1" in err

    def test_catalog_list(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--list")
        assert code == EXIT_OK
        assert "DunceHat8" in out.split()


class TestExitCodes:
    def test_collapse_exhaustive_dunce_hat_exits_2(self, capsys, dunce_file):
        code, out, _ = run_cli(capsys, "collapse", "--exhaustive", dunce_file)
        assert code == EXIT_NEGATIVE
        assert "not-collapsible-exhausted" in out

    def test_collapse_ball_exits_0(self, capsys, tmp_path):
        path = tmp_path / "ball.fl"
        path.write_text("1 2 3 4\n")
        code, out, _ = run_cli(capsys, "collapse", str(path))
        assert code == EXIT_OK

    def test_collapse_budget_inconclusive_exits_3(self, capsys, tmp_path):
        path = tmp_path / "ball.fl"
        path.write_text("1 2 3 4\n")
        code, _, _ = run_cli(capsys, "collapse", str(path), "--budget", "1")
        assert code == EXIT_INCONCLUSIVE

    def test_collapse_negative_budget_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "ball.fl"
        path.write_text("1 2 3 4\n")
        code, _, err = run_cli(capsys, "collapse", str(path), "--budget", "-3")
        assert code == EXIT_ERROR
        assert "budget" in err

    def test_collapse_exhaustive_with_budget_is_a_usage_error(self, capsys, tmp_path):
        # the two flags are alternatives; the search must not drop the budget
        path = tmp_path / "tetrahedra.fl"
        path.write_text("0 1 4 6\n0 1 5 6\n0 3 4 5\n1 4 5 6\n")
        argv = ("collapse", str(path), "--exhaustive", "--budget", "5")
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_ERROR
        assert out == ""
        assert "not allowed with argument" in err

    def test_collapse_graph_decided_within_small_budget_exits_2(
        self, capsys, tmp_path
    ):
        # one greedy path of 3 nodes decides a 1-complex
        path = tmp_path / "edges.fl"
        path.write_text("0 1\n2 3\n")
        code, out, _ = run_cli(capsys, "collapse", str(path), "--budget", "3")
        assert code == EXIT_NEGATIVE
        assert "nodes-explored: 3" in out

    def test_certify_sigma2_exits_0(self, capsys, sigma2_file):
        code, out, _ = run_cli(capsys, "certify", sigma2_file)
        assert code == EXIT_OK
        assert "combinatorial-sphere" in out

    def test_certify_rp2_exits_2(self, capsys, tmp_path):
        path = tmp_path / "rp2.fl"
        path.write_text(write_facets(catalog.get("RP2_6").complex))
        code, out, _ = run_cli(capsys, "certify", str(path))
        assert code == EXIT_NEGATIVE
        assert "not a Z2-homology sphere" in out

    def test_certify_rp2_suspension_reports_manifold_no(self, capsys, tmp_path):
        # a "no" manifold verdict is falsy, yet the report must print it
        path = tmp_path / "susp.fl"
        rp2 = catalog.get("RP2_6").complex
        facets = [
            " ".join(map(str, f + (pole,)))
            for f in rp2.facet_tuples()
            for pole in (40, 41)
        ]
        path.write_text("\n".join(facets) + "\n")
        code, out, _ = run_cli(capsys, "certify", str(path))
        assert code == EXIT_NEGATIVE
        lines = out.splitlines()
        assert "reason: not a combinatorial manifold" in lines
        assert "manifold-status: no" in lines

    @pytest.mark.parametrize(
        "facets, flags, reason, status",
        [
            # the 4-simplex boundary plus the triangle boundary on 6, 7, 8
            (
                "0 1 2 3 4\n0 1 2 3 5\n0 1 2 4 5\n0 1 3 4 5\n0 2 3 4 5\n"
                "1 2 3 4 5\n6 7\n6 8\n7 8\n",
                (),
                "not a combinatorial manifold",
                "no",
            ),
            # the tetrahedron boundary plus a pendant edge, assumed a manifold
            (
                "1 2 3\n1 2 4\n1 3 4\n2 3 4\n4 5\n",
                ("--assume-manifold",),
                "not pure; the assumed manifold hypothesis fails",
                "yes",
            ),
        ],
        ids=["manifold-gate", "assumed-manifold"],
    )
    def test_certify_non_pure_exits_2(
        self, capsys, tmp_path, facets, flags, reason, status
    ):
        path = tmp_path / "nonpure.fl"
        path.write_text(facets)
        code, out, _ = run_cli(capsys, "certify", str(path), *flags)
        assert code == EXIT_NEGATIVE
        lines = out.splitlines()
        assert f"reason: {reason}" in lines
        assert f"manifold-status: {status}" in lines

    def test_usage_error_exits_1(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.fl")
        code, _, _ = run_cli(capsys, "info", missing)
        assert code == 1

    def test_unknown_flag_exits_1(self, capsys, sigma2_file):
        code, _, _ = run_cli(capsys, "collapse", sigma2_file, "--frobnicate")
        assert code == 1


class TestUsageAndInconclusiveExits:
    def test_moves_singular_filter(self, capsys, tmp_path):
        path = tmp_path / "upsilon2.fl"
        path.write_text(write_facets(catalog.get("Upsilon2").complex))
        code, out, _ = run_cli(capsys, "moves", str(path), "--filter", "singular")
        assert code == EXIT_OK
        assert "count: 29" in out.splitlines()

    def test_moves_unknown_filter(self, capsys, sigma2_file):
        code, _, err = run_cli(capsys, "moves", sigma2_file, "--filter", "bogus")
        assert code == EXIT_ERROR
        assert "unknown move filter 'bogus'" in err

    def test_apply_move_needs_integers(self, capsys, sigma2_file):
        code, _, err = run_cli(capsys, "apply-move", sigma2_file, "--a-set", "1,x")
        assert code == EXIT_ERROR
        assert "--a-set needs integers like 2,3,4,6" in err

    def test_census_needs_vertices_or_preset(self, capsys):
        code, _, err = run_cli(capsys, "census")
        assert code == EXIT_ERROR
        assert "census needs --vertices or a preset" in err

    def test_catalog_needs_name_or_list(self, capsys):
        code, _, err = run_cli(capsys, "catalog")
        assert code == EXIT_ERROR
        assert "catalog needs --name or --list" in err

    def test_info_bad_label_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.fl"
        path.write_text("0 1 2\n1 %\n")
        code, _, err = run_cli(capsys, "info", str(path))
        assert code == EXIT_ERROR
        assert "input error: line 2: bad label '%'" in err

    def test_certify_ten_cycle_is_inconclusive(self, capsys, tmp_path):
        path = tmp_path / "c10.fl"
        path.write_text("".join(f"{i} {(i + 1) % 10}\n" for i in range(10)))
        code, out, _ = run_cli(capsys, "certify", str(path))
        assert code == EXIT_INCONCLUSIVE
        assert "reason: no induced ball found with a <= 7 vertex complement" in (
            out.splitlines()
        )


class TestCensusCommand:
    def test_closed6_preset(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--preset", "closed6")
        assert code == EXIT_OK
        tree = reports.parse_report(
            "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        )
        assert tree["classes"] == "5"
        assert "# matched: RP2_6" in out

    def test_explicit_spec(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--vertices", "5")
        assert code == EXIT_OK
        assert reports.parse_report(out)["classes"] == "2"

    def test_bad_constraint(self, capsys):
        code, _, err = run_cli(capsys, "census", "--vertices", "5", "--constraint", "weird")
        assert code == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ("--vertices", "5", "--constraint", "even", "--no-symmetry-breaking"),
            ("--constraint", "exactly-two"),
            ("--max-facets", "4"),
            ("--exact-vertices",),
        ],
    )
    def test_preset_rejects_explicit_flags(self, capsys, flags):
        # the preset fixes the whole spec: an explicit flag would be ignored
        code, out, err = run_cli(capsys, "census", "--preset", "closed6", *flags)
        assert code == EXIT_ERROR
        assert out == ""
        named = [f for f in flags if f.startswith("--")]
        assert f"census --preset closed6 takes no {', '.join(named)}" in err

    def test_boundary_symmetry_breaking_flag(self, capsys):
        argv = ("census", "--vertices", "5", "--constraint", "boundary")
        code_on, out_on, _ = run_cli(capsys, *argv)
        code_off, out_off, _ = run_cli(capsys, *argv, "--no-symmetry-breaking")
        assert code_on == code_off == EXIT_OK
        on, off = reports.parse_report(out_on), reports.parse_report(out_off)
        assert on["classes"] == off["classes"] == "11"
        assert (on["labeled-complexes"], off["labeled-complexes"]) == ("133", "372")


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--pairs", "10")
        assert code == EXIT_OK
        assert "example-moves: pass" in out
        # the report-only collapse-question probe is gone
        assert "collapse-question" not in out

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_no_pairs_is_a_usage_error(self, capsys, pairs):
        # not a failed suite (exit 2): nothing was checked
        code, out, err = run_cli(capsys, "verify", "--pairs", pairs)
        assert code == EXIT_ERROR
        assert "FAIL" not in out
        assert "pair count must be an int >= 1" in err


class TestMoreFlags:
    def test_collapse_to_subcomplex(self, capsys, tmp_path):
        cone = tmp_path / "cone.fl"
        cone.write_text("1 2 9\n2 3 9\n3 4 9\n4 5 9\n1 5 9\n")
        apex = tmp_path / "apex.fl"
        apex.write_text("9\n")
        code, out, _ = run_cli(capsys, "collapse", str(cone), "--to", str(apex))
        assert code == EXIT_OK
        assert "collapsible-with-certificate" in out

    def test_certify_greedy_policy(self, capsys, tmp_path):
        path = tmp_path / "octa.fl"
        path.write_text(write_facets(catalog.get("octahedron").complex))
        code, out, _ = run_cli(capsys, "certify", str(path), "--ball-policy", "greedy")
        assert code == EXIT_OK
        assert "grown" in out

    def test_census_has_no_threads_option(self, capsys):
        code, _, err = run_cli(capsys, "census", "--vertices", "5", "--threads", "2")
        assert code == EXIT_ERROR
        assert "--threads" in err


class TestRoundTripThroughCli:
    def test_report_determinism(self, capsys, sigma2_file):
        code1, out1, _ = run_cli(capsys, "homology", sigma2_file)
        code2, out2, _ = run_cli(capsys, "homology", sigma2_file)
        assert reports.strip_timestamp(out1) == reports.strip_timestamp(out2)

    def test_warning_surfaces_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "dominated.fl"
        path.write_text("1 2\n1 2 3\n")
        code, _, err = run_cli(capsys, "info", str(path))
        assert code == EXIT_OK
        assert "warning" in err
