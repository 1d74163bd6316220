import json
import math

import numpy as np
import pytest

from walktheta import cli
from walktheta.cli import main
from walktheta.graphs import encode_graph6, generate_named


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_named_golomb(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--named", "golomb")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["n"] == 10
    assert payload["bounds"]["walkgen"] == pytest.approx(4.744, abs=1e-3)
    assert payload["dominance_ok"]


def test_bounds_named_path17(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--named", "path", "--n", "17")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["bounds"]["walkgen"] == pytest.approx(9.0, abs=1e-6)


def test_bounds_empty_corpus_file(capsys, tmp_path):
    empty = tmp_path / "corpus.g6"
    empty.write_text("")
    code, out, _ = run_cli(capsys, "bounds", str(empty))
    assert code == 0
    assert out == ""


def test_bounds_corpus_stream(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    lines = [encode_graph6(generate_named("cycle", n=n)).decode() for n in (3, 4, 5, 6)]
    corpus.write_text("\n".join(lines) + "\n")
    code, seq, _ = run_cli(capsys, "bounds", str(corpus))
    assert code == 0
    assert [json.loads(l)["n"] for l in seq.splitlines()] == [3, 4, 5, 6]


def test_parse_error_reports_location(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("A_\nD?\n")
    code, out, err = run_cli(capsys, "bounds", str(bad))
    assert code == 2
    assert f"{bad}:2:" in err


def test_edge_list_autodetect(capsys, tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("3\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "bounds", str(path))
    assert code == 0
    assert json.loads(out.strip())["n"] == 3


def test_theta_complete(capsys):
    code, out, _ = run_cli(capsys, "theta", "--named", "complete", "--n", "6")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["upper"] == pytest.approx(1.0, abs=1e-3)
    assert payload["lower"] is None


def test_theta_cycle_with_alpha(capsys):
    code, out, _ = run_cli(capsys, "theta", "--named", "cycle", "--n", "5",
                           "--tol", "1e-3", "--alpha-oracle")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["upper"] == pytest.approx(math.sqrt(5.0), abs=1e-3)
    assert payload["lower"] == 2
    assert len(payload["weights"]) == 5


def test_theta_petersen(capsys):
    code, out, _ = run_cli(capsys, "theta", "--named", "petersen")
    assert code == 0
    assert json.loads(out.strip())["upper"] == pytest.approx(4.0, abs=1e-3)


def test_verify_duality(capsys):
    code, out, _ = run_cli(capsys, "verify", "duality", "--random", "50", "--seed", "7")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    summary = lines[-1]
    assert summary["ok"] and summary["passed"] == summary["total"] == 50
    assert all(rec["ok"] for rec in lines[:-1])


def test_verify_scaling(capsys):
    code, out, _ = run_cli(capsys, "verify", "scaling", "--random", "10", "--seed", "3")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["ok"]


def test_verify_product(capsys):
    code, out, _ = run_cli(capsys, "verify", "product", "--seed", "1")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert lines[-1]["total"] == 10
    assert lines[-1]["ok"]


def test_verify_dominance_with_corpus(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    lines = [encode_graph6(generate_named("cycle", n=n)).decode() for n in (3, 5, 7)]
    lines.append(encode_graph6(generate_named("golomb")).decode())
    corpus.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "verify", "dominance", str(corpus))
    assert code == 0
    assert json.loads(out.splitlines()[-1])["total"] == 4


def test_verify_optimizer(capsys):
    code, out, _ = run_cli(capsys, "verify", "optimizer", "--random", "10", "--seed", "5")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["ok"]


def test_verify_all_aggregates(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--random", "15", "--seed", "2")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    suites = {rec["suite"] for rec in lines[:-1]}
    assert suites == {"duality", "scaling", "product", "dominance", "optimizer"}
    assert lines[-1]["ok"]


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_determinism(capsys):
    _, first, _ = run_cli(capsys, "verify", "duality", "--random", "25", "--seed", "9")
    _, second, _ = run_cli(capsys, "verify", "duality", "--random", "25", "--seed", "9")
    assert first == second


def test_plot_constant(capsys):
    code, out, _ = run_cli(capsys, "plot", "--named", "empty", "--n", "3", "--samples", "5")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "x,W"
    assert all(row.endswith(",3") for row in rows[1:])


def test_plot_golomb_curve(capsys):
    code, out, _ = run_cli(capsys, "plot", "--named", "golomb", "--samples", "2000")
    assert code == 0
    rows = out.splitlines()
    markers = [r for r in rows if r.startswith("#")]
    assert len(markers) == 2
    lo = float(markers[0].split(",")[1])
    hi = float(markers[1].split(",")[1])
    values = []
    for row in rows:
        if row.startswith("#") or row == "x,W":
            continue
        x_str, y_str = row.split(",")
        if y_str and lo <= float(x_str) <= hi:
            values.append(float(y_str))
    assert min(values) == pytest.approx(4.744, abs=1e-3)


def test_plot_rejects_multi_graph_input(capsys, tmp_path):
    corpus = tmp_path / "two.g6"
    corpus.write_text("A_\nA_\n")
    code, _, err = run_cli(capsys, "plot", str(corpus))
    assert code == 2
    assert "exactly one" in err


def test_output_file_option(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code = main(["bounds", "--named", "cycle", "--n", "5", "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out_path.read_text().strip())
    assert payload["bounds"]["hoffman"] == pytest.approx(math.sqrt(5.0))


def test_missing_input_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bounds")
    assert code == 2
    assert "no input" in err


def test_numeric_failure_exits_1(capsys, monkeypatch):
    # an eigensolver returning wrong vectors trips eig_sym's residual check
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.zeros(len(m)), np.eye(len(m))))
    code, out, err = run_cli(capsys, "bounds", "--named", "golomb")
    assert code == 1
    assert out == ""
    assert "residual" in err


def test_theta_numeric_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.zeros(len(m)), np.eye(len(m))))
    code, out, err = run_cli(capsys, "theta", "--named", "petersen")
    assert code == 1
    assert out == ""
    assert "residual" in err


def test_bounds_long_form_graph6_line(capsys, tmp_path):
    corpus = tmp_path / "kneser.g6"
    line = encode_graph6(generate_named("kneser", n=12, k=2))
    assert line.startswith(b"~")
    corpus.write_bytes(line + b"\n")
    code, out, _ = run_cli(capsys, "bounds", str(corpus))
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["n"] == 66
    # Kneser(12, 2) is 45-regular with least eigenvalue -9: Hoffman gives 66 * 9 / 54
    assert payload["bounds"]["hoffman"] == pytest.approx(11.0)


def test_bound_below_known_alpha_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "independence_number", lambda g: g.n)
    code, out, err = run_cli(capsys, "bounds", "--named", "cycle", "--n", "5", "--alpha-oracle")
    assert code == 1
    assert "fell below the known independence number 5" in err


def test_named_parameter_error_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bounds", "--named", "cycle")
    assert code == 2
    assert "needs parameter n" in err


def test_plot_too_few_samples_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "plot", "--named", "golomb", "--samples", "1")
    assert code == 2
    assert out == ""
    assert "--samples" in err


def test_removed_flags_are_rejected(capsys):
    for argv in (["bounds", "--named", "golomb", "--jobs", "2"],
                 ["theta", "--named", "golomb", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("command", ["bounds", "theta"])
def test_parse_error_keeps_earlier_lines(capsys, tmp_path, command):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("A_\nBw\nD?\nA_\n")    # K2, K3, then a truncated line 3
    code, out, err = run_cli(capsys, command, str(corpus))
    assert code == 2
    assert f"{corpus}:3:" in err
    assert len(out.splitlines()) == 2
    report = tmp_path / "report.jsonl"
    code, out, err = run_cli(capsys, command, str(corpus), "--output", str(report))
    assert code == 2 and out == ""
    assert f"{corpus}:3:" in err
    assert len(report.read_text().splitlines()) == 2


@pytest.mark.parametrize("argv", [["bounds"], ["theta"], ["plot"], ["verify", "dominance"]])
def test_missing_input_file_opens_no_output(capsys, tmp_path, argv):
    report = tmp_path / "report.jsonl"
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "absent.g6"), "--output", str(report))
    assert code == 2
    assert "absent.g6" in err
    assert not report.exists()


@pytest.mark.parametrize("suite", ["duality", "scaling", "product", "optimizer"])
def test_verify_suite_without_graphs_rejects_input(capsys, tmp_path, suite):
    corpus = tmp_path / "c.g6"
    corpus.write_text("A_\n")
    for source in (["--named", "petersen"], [str(corpus)]):
        code, out, err = run_cli(capsys, "verify", suite, *source, "--random", "2")
        assert code == 2
        assert out == ""
        assert "dominance" in err


def test_verify_dominance_and_all_take_named_input(capsys):
    code, out, _ = run_cli(capsys, "verify", "dominance", "--named", "petersen")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["total"] == 1
    code, out, _ = run_cli(capsys, "verify", "all", "--named", "petersen", "--random", "2")
    assert code == 0
    dominance = [json.loads(l) for l in out.splitlines() if '"dominance"' in l]
    assert len(dominance) == 1
