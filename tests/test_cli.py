"""Command-line contract: outputs, exit codes, determinism."""

import pytest

from prodcsp.cli import main

CONSTRAINTS = "constraint HALF 2\n1 1 1/2 1\n"

INSTANCE = """\
vars 3
constraint U1 1
1 3
constraint U3 1
2 1
apply EQ 1 2
apply XOR 2 3
apply U1 1
apply U3 3
"""


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_category_line(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("constraint A 2\n1 0 0 1\nconstraint B 2\n0 1 1 0\n")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "category: PO_ED" in out

    def test_hard_category(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("constraint A 2\n0 1 1 1\n")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0 and "category: IS_HARD" in out

    def test_machine_mode_keys(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text(CONSTRAINTS)
        code, out, _ = run(capsys, "--machine", "classify", str(path))
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert lines["category"] == "INTERMEDIATE_IMOPT"
        assert "IM_opt" in lines["constraint.HALF.classes"]

    def test_empty_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("# nothing here\n")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2 and "no constraints" in err

    def test_parse_error_carries_line_number(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("constraint A 2\n1 2 nope 4\n")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2 and "line 2" in err

    def test_certificate_rendering(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("constraint T9 2\n2 1 1 1\n")
        code, out, _ = run(capsys, "classify-constraint", str(path))
        assert code == 0
        assert "T9.u1 1" in out and "pair factor" in out


class TestSolve:
    def test_auto_picks_the_tractable_path(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text(INSTANCE)
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert "optimum 6" in out and "argmax 110" in out
        assert "parity_components" in out

    def test_brute_matches(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text(INSTANCE)
        code, out, _ = run(capsys, "--machine", "solve", str(path), "--method", "brute")
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert lines["optimum"] == "6" and lines["argmax"] == "110"
        assert lines["method"] == "brute_force"

    def test_zero_optimum_prints_zero(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("vars 1\napply D0 1\napply D1 1\n")
        code, out, _ = run(capsys, "--machine", "solve", str(path))
        assert code == 0
        assert "optimum: 0" in out and "log2: ZERO" in out

    def test_exact_flag_blocks_hill(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text(INSTANCE)
        code, _, err = run(capsys, "--exact", "solve", str(path), "--method", "hill")
        assert code == 2 and "exact" in err

    def test_hill_method_reports_external(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text(INSTANCE)
        code, out, _ = run(capsys, "solve", str(path), "--method", "hill", "--seed", "3")
        assert code == 0 and "external" in out

    def test_cap_exceeded_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("vars 30\napply EQ 1 2\n")
        code, _, err = run(capsys, "solve", str(path), "--method", "brute")
        assert code == 2 and "cap" in err

    def test_max_n_override(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("vars 25\napply EQ 1 2\n")
        code, out, _ = run(capsys, "--max-n", "25", "solve", str(path), "--method", "brute")
        assert code == 0 and "optimum 1" in out


class TestReduceAndRewrite:
    def test_is2csp_then_solve(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("graph IS 3 3\nw 1 2\nw 2 3\nw 3 5\nedge 1 2\nedge 2 3\nedge 1 3\n")
        reduced = tmp_path / "r.txt"
        code, _, _ = run(capsys, "reduce", "is2csp", str(graph), "--out", str(reduced))
        assert code == 0
        code, out, _ = run(capsys, "solve", str(reduced), "--method", "brute")
        assert code == 0 and "optimum 5" in out

    def test_bis2csp_matches_direct_enumeration(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text(
            "graph BIS 3 2\nw 1 2\nw 2 10\nw 3 2\n"
            "block 1 0\nblock 2 1\nblock 3 0\nedge 1 2\nedge 2 3\n"
        )
        reduced = tmp_path / "r.txt"
        run(capsys, "reduce", "bis2csp", str(graph), "--out", str(reduced))
        code, out, _ = run(capsys, "solve", str(reduced))
        assert code == 0 and "optimum 10" in out

    def test_csp2flow_emits_a_graph(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        inst.write_text("vars 2\nconstraint T9 2\n2 1 1 1\napply T9 1 2\n")
        code, out, _ = run(capsys, "reduce", "csp2flow", str(inst))
        assert code == 0
        assert "graph FLOW 2 1" in out and "edge 2 1 2" in out

    def test_rewrite_flow(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        inst.write_text("vars 3\napply XOR 1 2\napply XOR 2 3\n")
        script = tmp_path / "s.txt"
        script.write_text("from OR\nmul NAND\n")
        out_file = tmp_path / "o.txt"
        code, _, _ = run(
            capsys, "rewrite", str(inst), "--script", str(script),
            "--target", "XOR", "--out", str(out_file),
        )
        assert code == 0
        text = out_file.read_text()
        assert text.count("apply OR") == 2 and text.count("apply NAND") == 2
        code, out, _ = run(capsys, "solve", str(out_file), "--method", "brute")
        assert code == 0 and "optimum 1" in out

    def test_rewrite_target_equal_to_an_earlier_table(self, tmp_path, capsys):
        # A and B are equal tables under two names: B must still be a target.
        inst = tmp_path / "i.txt"
        inst.write_text(
            "vars 3\nconstraint A 2\n1 2 3 4\nconstraint B 2\n1 2 3 4\n"
            "apply A 1 2\napply B 2 3\n"
        )
        script = tmp_path / "s.txt"
        script.write_text("from B\n")
        code, out, err = run(
            capsys, "rewrite", str(inst), "--script", str(script), "--target", "B"
        )
        assert code == 0 and err == ""
        assert out.startswith("# rewrote 2 applications of B;")


class TestGenEvalCheck:
    def test_gen_is_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        run(capsys, "gen", "--kind", "is", "--n", "6", "--seed", "7", "--out", str(a))
        run(capsys, "gen", "--kind", "is", "--n", "6", "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_gen_seed_changes_output(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        run(capsys, "gen", "--kind", "flow", "--n", "6", "--seed", "1", "--out", str(a))
        run(capsys, "gen", "--kind", "flow", "--n", "6", "--seed", "2", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_gen_csp_solvable(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        run(capsys, "gen", "--kind", "csp", "--n", "5", "--apps", "6",
            "--seed", "4", "--out", str(path))
        code, out, _ = run(capsys, "solve", str(path), "--method", "brute")
        assert code == 0 and "optimum" in out

    def test_eval_instance_and_graph(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        inst.write_text(INSTANCE)
        code, out, _ = run(capsys, "eval", str(inst), "--assign", "110")
        assert code == 0 and "measure 6" in out
        graph = tmp_path / "g.txt"
        graph.write_text("graph FLOW 2 1\nw 1 3\nw 2 1\nedge 1 2 2\n")
        code, out, _ = run(capsys, "eval", str(graph), "--assign", "10")
        assert code == 0 and "measure 6" in out

    def test_check_suite_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "tables")
        assert code == 0
        assert "failed: 0" in out

    def test_check_unknown_suite(self, capsys):
        code, _, err = run(capsys, "check", "--suite", "nope")
        assert code == 2 and "unknown suite" in err

    def test_machine_solve_is_byte_stable(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text(INSTANCE)
        _, out1, _ = run(capsys, "--machine", "solve", str(path))
        _, out2, _ = run(capsys, "--machine", "solve", str(path))
        assert out1 == out2


class TestSubprocessPipeline:
    def test_gen_reduce_solve_round_trip(self, tmp_path):
        import subprocess
        import sys

        def cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "prodcsp.cli", *argv],
                capture_output=True, text=True, check=True,
            ).stdout

        graph = tmp_path / "g.txt"
        cli("gen", "--kind", "bis", "--n", "6", "--seed", "11", "--out", str(graph))
        reduced = tmp_path / "r.txt"
        cli("reduce", "bis2csp", str(graph), "--out", str(reduced))
        out = cli("--machine", "solve", str(reduced), "--method", "brute")
        values = dict(line.split(": ", 1) for line in out.strip().splitlines())

        from fractions import Fraction

        from prodcsp.formats import parse_graph
        from prodcsp.graphs import graph_brute_force

        direct = graph_brute_force(parse_graph(graph.read_text())).optimum
        assert Fraction(values["optimum"]) == direct


class TestInProcessRepeats:
    """main() reuses one parser; nothing carries over between calls."""

    def test_machine_flag_does_not_stick(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text(CONSTRAINTS)
        code, out, _ = run(capsys, "--machine", "classify", str(path))
        assert code == 0 and out.startswith("constraint.HALF.classes: ")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0 and "constraint.HALF.classes" not in out
        from prodcsp import classify_set, explain
        from prodcsp.formats import parse_constraints

        narrative = explain(classify_set(list(parse_constraints(CONSTRAINTS).values())))
        assert out == narrative + "\n"

    def test_method_does_not_stick(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text(INSTANCE)
        code, out, _ = run(capsys, "solve", str(path), "--method", "brute")
        assert code == 0 and "method brute_force" in out
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0 and "method parity_components" in out


class TestLongOptimum:
    """Optima past the interpreter's 4300-digit int-to-str limit print in full."""

    def test_solve_and_eval_print_every_digit(self, tmp_path, capsys):
        big = 10**100
        path = tmp_path / "i.txt"
        path.write_text(
            f"vars 50\nconstraint U 1\n1 {big}\n"
            + "".join(f"apply U {v}\n" for v in range(1, 51))
        )
        want = "1" + "0" * 5000
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0 and f"optimum {want} " in out
        code, out, _ = run(capsys, "--machine", "solve", str(path))
        assert code == 0 and f"optimum: {want}\n" in out
        code, out, _ = run(capsys, "eval", str(path), "--assign", "1" * 50)
        assert code == 0 and f"measure {want} " in out


class TestSolveCertifiesOnce:
    def test_auto_and_tractable_certify_once(self, tmp_path, capsys, monkeypatch):
        import prodcsp.routes as routes

        calls = []
        real = routes.certify_instance

        def counting(inst):
            calls.append(inst)
            return real(inst)

        monkeypatch.setattr(routes, "certify_instance", counting)
        path = tmp_path / "i.txt"
        path.write_text(INSTANCE)
        for method in ("auto", "tractable"):
            calls.clear()
            code, out, _ = run(capsys, "solve", str(path), "--method", method)
            assert code == 0 and "method parity_components" in out
            assert len(calls) == 1


class TestRemovedFlags:
    """--tol, `reduce rewrite` and reduce's --script/--target were removed in
    0.2.0; each is now an argparse usage error: exit 2 with a usage line and
    no traceback."""

    def usage_error(self, capsys, *argv) -> str:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage:") and "Traceback" not in err
        return err

    def test_tol_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text(CONSTRAINTS)
        self.usage_error(capsys, "--tol", "1e-9", "classify", str(path))

    def test_reduce_rewrite_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text(INSTANCE)
        err = self.usage_error(capsys, "reduce", "rewrite", str(path))
        assert "'rewrite'" in err

    def test_reduce_takes_no_script(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text(INSTANCE)
        err = self.usage_error(capsys, "reduce", "complement", str(path), "--script", "s.txt")
        assert "--script" in err


class TestHostileSize:
    def test_variable_count_beyond_memory_exits_2(self, tmp_path, capsys):
        # 10^15 variables: the solver's per-variable arrays are refused at
        # allocation, before any memory is touched.
        path = tmp_path / "i.txt"
        path.write_text("vars 1000000000000000\napply EQ 1 2\n")
        code, out, err = run(capsys, "--machine", "solve", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "memory" in err
