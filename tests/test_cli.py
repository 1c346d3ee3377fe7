"""CLI: argument parsing and command behaviour."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_info_command(capsys):
    assert main(["info", "--preset", "mini"]) == 0
    out = capsys.readouterr().out
    assert "repro" in out
    assert "|V|" in out


def test_query_command_on_mini(capsys):
    code = main(
        [
            "query",
            "--preset",
            "mini",
            "--start",
            "12",
            "--categories",
            "Asian Restaurant",
            "Arts & Entertainment",
            "Gift Shop",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "skyline route" in out
    assert "Asian Restaurant" in out


def test_query_command_random_start(capsys):
    assert (
        main(
            [
                "query",
                "--preset",
                "mini",
                "--categories",
                "Gift Shop",
            ]
        )
        == 0
    )
    assert "skyline route" in capsys.readouterr().out


def test_query_unordered(capsys):
    code = main(
        [
            "query",
            "--preset",
            "mini",
            "--start",
            "12",
            "--unordered",
            "--categories",
            "Gift Shop",
            "Asian Restaurant",
        ]
    )
    assert code == 0


def test_query_unordered_topk_with_destination(capsys):
    """``--unordered --destination N --topk 3`` prints the permutation
    oracle's ranked top 3, and ``--page`` still refuses ``--unordered``."""
    from repro.core.dominance import rank_routes
    from repro.core.engine import SkySREngine
    from repro.datasets import mini_city
    from repro.extensions.unordered import brute_force_unordered

    cats = ["Gift Shop", "Asian Restaurant"]
    args = ["query", "--preset", "mini", "--start", "12", "--unordered"]
    args += ["--destination", "3", "--topk", "3", "--categories", *cats]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "top-3" in out and "unordered-bssr" in out
    printed = [
        line.split()[1:3] for line in out.splitlines()[2:] if line.strip()
    ]
    data = mini_city()
    compiled = SkySREngine(data.network, data.forest).compile(
        12, cats, destination=3
    )
    oracle = rank_routes(brute_force_unordered(data.network, compiled, 3), 3)
    assert len(oracle) == 3
    assert printed == [
        [f"{r.length:.4f}", f"{r.semantic:.4f}"] for r in oracle
    ]
    assert main([*args, "--page", "1"]) == 2


def test_query_algorithm_choice_validated():
    with pytest.raises(SystemExit):
        main(
            [
                "query",
                "--preset",
                "mini",
                "--categories",
                "Gift Shop",
                "--algorithm",
                "nope",
            ]
        )


def test_generate_command(tmp_path, capsys):
    out_file = tmp_path / "mini.json"
    assert main(["generate", "--preset", "mini", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["format"] == "repro-skysr-dataset"
    assert "wrote" in capsys.readouterr().out


def test_study_command(capsys):
    assert (
        main(
            [
                "study",
                "--preset",
                "mini",
                "--respondents",
                "6",
                "--seed",
                "1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Q1" in out and "Q3" in out


def test_experiment_command_table5(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.1")
    monkeypatch.setenv("REPRO_QUERIES", "1")
    assert main(["experiment", "table5"]) == 0
    out = capsys.readouterr().out
    assert "Table 5" in out
    assert "tokyo-like" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
