import json
import os
import subprocess
import sys

import pytest

import qiso
from qiso import catalog
from qiso.cli import main


class TestNf:
    def test_torus_exchange(self, capsys):
        assert main(["nf", "torus", "V U"]) == 0
        assert capsys.readouterr().out.strip() == "e(-t) * U V"

    def test_specialized_theta(self, capsys):
        assert main(["nf", "torus", "V U", "--theta", "1/2"]) == 0
        assert capsys.readouterr().out.strip() == "-U V"

    def test_circle(self, capsys):
        assert main(["nf", "circle", "P P P"]) == 0
        assert capsys.readouterr().out.strip() == "P"

    def test_torus_word_to_scalar(self, capsys):
        assert main(["nf", "torus", "V* U* V U"]) == 0
        assert capsys.readouterr().out.strip() == "e(-t)"

    def test_negative_theta_after_a_space(self, capsys):
        assert main(["nf", "torus", "V U", "--theta", "-1/3"]) == 0
        assert capsys.readouterr().out.strip() == "e(1/3) * U V"

    def test_third_theta_exact_output(self, capsys):
        assert main(["nf", "torus", "V U", "--theta=1/3"]) == 0
        assert capsys.readouterr().out.strip() == "(-1 - e(1/3)) * U V"

    def test_degree_overflow_is_usage_error(self, capsys):
        assert main(["nf", "circle", "U U U U U U U U U"]) == 3
        err = capsys.readouterr().err.strip()
        assert err == "error: degree 9 input exceeds rewriting cap 8"

    @pytest.mark.parametrize("text, degree", [
        ("U^1000000", 1000000), ("U^-1000000", 1000000), ("(U)^3000", 3000),
    ])
    def test_power_above_the_cap_is_refused_before_it_is_built(self, capsys, text, degree):
        assert main(["nf", "torus", text]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: power of degree {degree} exceeds rewriting cap 8"]

    @pytest.mark.parametrize("text", ["3^3000000 U", "2^-20000"])
    def test_unprintable_scalar_power_is_refused(self, capsys, text):
        # refused before 3^3000000 is computed, in qiso's words, not Python's
        # int-to-string error from rendering
        assert main(["nf", "torus", text]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: scalar power ^") and line.endswith(" digits")

    @pytest.mark.parametrize("command", ["nf", "member"])
    @pytest.mark.parametrize("text", ["3^4000 3^4000 3^4000 U", "(3^4000 U) (3^4000 V) 3^4000"])
    def test_unprintable_scalar_product_is_refused(self, capsys, command, text):
        # each factor prints; their product would not, and is refused in
        # qiso's words before it is computed, not by Python's int-to-string
        # error from rendering
        assert main([command, "torus", text]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: scalar product would print a number of more than {sys.get_int_max_str_digits()} digits"]

    @pytest.mark.parametrize("command", ["nf", "member"])
    @pytest.mark.parametrize("text", [" + ".join(["9^4506"] * 12) + " + U", "9^4506 U + 9^4506 U"])
    def test_unprintable_scalar_sum_is_refused(self, capsys, command, text):
        # 9^4506 prints (4300 digits) and a sum of two does not: refused in
        # qiso's words, not by Python's int-to-string error from rendering
        assert main([command, "torus", text]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: scalar sum would print a number of more than {sys.get_int_max_str_digits()} digits"]

    def test_printable_scalar_sum_prints(self, capsys):
        assert main(["nf", "torus", "9^4506 - 9^4506 + 9^4506 U"]) == 0
        assert capsys.readouterr().out == f"{9**4506} * U\n"

    def test_printable_scalar_product_prints(self, capsys):
        # 3^8000 has 3818 digits
        assert main(["nf", "torus", "3^4000 3^4000 U"]) == 0
        assert capsys.readouterr().out == f"{3**8000} * U\n"

    @pytest.mark.parametrize("text, message", [
        ("A1 A2^x", "error: expected INT, got 'x'"),  # read furthest over A1..D2
        ("U V W", "error: unknown generator 'W'"),  # read furthest over U, V
    ])
    def test_error_of_the_algebra_read_furthest(self, capsys, text, message):
        assert main(["nf", "torus", text]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]


class TestMember:
    def test_yes_prints_certificate(self, capsys):
        assert main(["member", "torus", "U V - e(t) V U"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("YES")
        assert "certificate:" in out

    def test_torus_exact_certificate(self, capsys):
        assert main(["member", "torus", "U V - e(t) V U"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "YES", "certificate: (-e(t)) r4"]

    def test_sphere_exact_certificate(self, capsys):
        assert main(["member", "sphere", "Q11 Q22 - Q22 Q11"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "YES", "certificate: r7 + (-1/2) r8 + (-1/2) r7"]

    def test_undecided_exit_code(self, capsys):
        assert main(["member", "torus", "U V - V U"]) == 2
        assert capsys.readouterr().out.strip() == "UNDECIDED"

    def test_power_above_the_cap_is_usage_error(self, capsys):
        assert main(["member", "torus", "U^9 - U^9"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: power of degree 9 exceeds rewriting cap 8"]

    def test_parse_error_exit_code(self, capsys):
        assert main(["member", "torus", "W W"]) == 3

    def test_degree_overflow_is_undecided(self, capsys):
        assert main(["member", "circle", "A A A A A A A"]) == 2
        captured = capsys.readouterr()
        assert captured.out.strip() == "UNDECIDED"
        assert "cap 6" in captured.err

    @pytest.mark.parametrize("scenario, text", [
        ("torus", "A1 A1* - 1"),  # a torus B-algebra word, not U, V
        ("sphere", "x1 x2 - x2 x1"),  # a sphere coordinate, not Q
    ])
    def test_other_algebra_is_usage_error(self, capsys, scenario, text):
        assert main(["member", scenario, text]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "unknown generator" in captured.err


class TestZeroDenominator:
    @pytest.mark.parametrize("argv", [
        ["nf", "torus", "1/0 U"],
        ["nf", "torus", "e(1/0) U"],
        ["nf", "torus", "0^-1 U"],
        ["member", "torus", "1/0"],
        ["nf", "torus", "U ²"],  # not an integer: str.isdigit is not the test
    ])
    def test_usage_error_without_traceback(self, capsys, argv):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


class TestVerify:
    def test_circle_suite_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "circle", "--quiet", "--json", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "== circle:" in captured
        payload = json.loads(out.read_text())
        assert payload[0]["scenario"] == "circle"
        assert payload[0]["constants"]["sigma"] == -1
        assert payload[0]["counts"]["FAIL"] == 0
        assert any(c["status"] == "SKIPPED" for c in payload[0]["checks"])

    @pytest.mark.parametrize("name", ["circle", "sphere"])
    def test_theta_independent_label(self, tmp_path, capsys, name):
        out = tmp_path / "report.json"
        main(["verify", name, "--quiet", "--theta", "1/3", "--json", str(out)])
        assert "[theta=theta-independent]" in capsys.readouterr().out
        assert json.loads(out.read_text())[0]["constants"]["theta"] == "theta-independent"

    def test_all_builds_the_torus_and_solves_its_haar_system_once(self, monkeypatch, capsys):
        builds, solves = [], []
        build_torus, solve = catalog.build_torus_scenario, catalog.solve_haar_weights

        def counting_build(theta):
            builds.append(theta)
            return build_torus(theta)

        def counting_solve(P, **kwargs):
            solves.append(len(P.model_ambient.blocks))
            return solve(P, **kwargs)

        monkeypatch.setattr(catalog, "build_torus_scenario", counting_build)
        monkeypatch.setattr(catalog, "solve_haar_weights", counting_solve)
        assert main(["verify", "all", "--quiet"]) == 0
        assert builds == [None]
        assert sorted(solves) == [2, 8]  # the circle's, and the torus's once

    def test_bad_theta_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "circle", "--theta", "0.5x"])
        assert exc.value.code == 3

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nosuch"])
        assert exc.value.code == 3
        assert "invalid choice: 'nosuch'" in capsys.readouterr().err


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(qiso.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "qiso", "nf", "torus", "V U"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "e(-t) * U V"
        usage = subprocess.run([sys.executable, "-m", "qiso", "verify", "nosuch"],
                               env=env, capture_output=True, text=True)
        assert usage.returncode == 3
