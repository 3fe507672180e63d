"""Command line interface: outputs, files, exit codes."""

import json

import pytest

from cycbrauer.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_dim(capsys):
    code, obj = run_json(capsys, "dim", "--m", "3", "--n", "2")
    assert code == 0 and obj["dimension"] == 27


def test_relations(capsys):
    code, obj = run_json(capsys, "relations", "--m", "2", "--n", "3")
    assert code == 0 and obj["failures"] == []


def test_assoc_default_is_admissible(capsys):
    code, obj = run_json(capsys, "assoc", "--m", "3", "--n", "2",
                         "--trials", "50")
    assert code == 0 and obj["ok"] and obj["admissible"]


def test_assoc_flags_off_locus(capsys):
    code, obj = run_json(capsys, "assoc", "--m", "3", "--n", "2",
                         "--delta", "1,2,3", "--trials", "50")
    assert code == 3 and not obj["ok"] and not obj["admissible"]


def test_zset(capsys):
    code, obj = run_json(capsys, "zset", "--m", "3", "--n", "3", "--tilde")
    assert code == 0 and obj == [-1, 0, 1, 3]


def test_group(capsys):
    code, obj = run_json(capsys, "group", "--m", "2", "--n", "3")
    assert code == 0 and obj["order"] == 48


def test_decide(capsys):
    code, obj = run_json(capsys, "decide", "--m", "2", "--n", "2",
                         "--delta", "1,-1", "--variant", "gmu")
    assert code == 0 and obj["decision"] == "not-semisimple"


def test_bar_delta(capsys):
    code, obj = run_json(capsys, "bar-delta", "--m", "2", "--delta", "3,5")
    assert code == 0 and obj == ["8", "-2"]


def test_gram(capsys):
    code, obj = run_json(capsys, "gram", "--m", "3", "--n", "2")
    assert code == 0
    assert obj["shape_violations"] == []
    assert obj["equivariance"]["ok"] and obj["equivariance"]["admissible"]


def test_single_box(capsys):
    code, obj = run_json(capsys, "single-box", "--m", "2")
    assert code == 0 and obj["report"]["matches_printed_at_zero"]


def test_oracle(capsys):
    code, obj = run_json(capsys, "oracle", "--m", "2", "--n", "2",
                         "--delta", "0,0")
    assert code == 0 and obj["verdict"] == "not-semisimple"
    assert obj["radical"] == 4


def test_oracle_rejects_char_p(capsys):
    code = main(["oracle", "--m", "2", "--n", "2", "--char", "5",
                 "--delta", "1,1"])
    capsys.readouterr()
    assert code == 2


def test_tset(capsys):
    code, obj = run_json(capsys, "tset", "--a", "6")
    assert code == 0 and obj["equal"]


def test_prop_eta(capsys):
    code, obj = run_json(capsys, "prop-eta", "--m", "3")
    assert code == 0 and obj["ok"]


def test_concord_and_csv(tmp_path, capsys):
    out = tmp_path / "report.json"
    csvf = tmp_path / "report.csv"
    code = main(["concord", "--pairs", "2,2", "--seed", "4",
                 "--out", str(out), "--csv", str(csvf)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["schema_version"] == 1
    assert rep["summary"]["cross_check_failures"] == 0
    assert csvf.read_text().startswith("m,n,provenance")


def test_concord_jobs_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["concord", "--pairs", "2,2;3,2", "--seed", "9", "--jobs", "1",
          "--out", str(a)])
    main(["concord", "--pairs", "2,2;3,2", "--seed", "9", "--jobs", "2",
          "--out", str(b)])
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_concord_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": [{"m": 2, "n": 2, "deltas": [[1, -1]]}],
        "generic_points": 1, "hyperplane_points": 1}))
    out = tmp_path / "rep.json"
    code = main(["concord", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out.read_text())
    fixture = [p for p in rep["points"] if p["provenance"] == "fixture"]
    assert fixture and fixture[0]["oracle"]["verdict"] == "not-semisimple"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--m", "2"])
    assert exc.value.code == 1


def test_compute_error_exit_code(capsys):
    code = main(["decide", "--m", "2", "--n", "2"])  # missing --delta
    capsys.readouterr()
    assert code == 2


def usage_error(capsys, *argv):
    """Exit code and stderr of a command that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_dim_rejects_negative_n(capsys):
    code, err = usage_error(capsys, "dim", "--m", "2", "--n", "-1")
    assert code == 1 and "--n" in err


def test_dim_rejects_m_zero(capsys):
    code, err = usage_error(capsys, "dim", "--m", "0", "--n", "2")
    assert code == 1 and "--m" in err


def test_relations_rejects_m_zero(capsys):
    code, err = usage_error(capsys, "relations", "--m", "0", "--n", "2")
    assert code == 1 and "--m" in err


def test_concord_rejects_malformed_pairs(capsys):
    for pairs, chunk in (("2", "'2'"), ("2,2;3", "'3'"), ("2,2,2", "'2,2,2'"),
                         ("0,2", "'0,2'")):
        code, err = usage_error(capsys, "concord", "--pairs", pairs)
        assert code == 1 and chunk in err, (pairs, err)


@pytest.mark.parametrize("argv", [
    ("cell-gram", "--m", "2", "--n", "3", "--mu", "[[1]]"),
    ("admissible", "--m", "2", "--mu", "[[1]]"),
    ("admissible", "--m", "2", "--mu", "[[1, 2], []]"),
    ("cell-gram", "--m", "2", "--n", "3", "--mu", "5"),
])
def test_malformed_mu_rejected(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "mu must be 2 partitions" in captured.err


@pytest.mark.parametrize("argv", [
    ("gram", "--m", "3", "--n", "2", "--skip-equivariance"),
    ("gram", "--m", "2", "--n", "2", "--char", "5", "--skip-equivariance"),
    ("cell-gram", "--m", "2", "--n", "3", "--mu", "[[1],[]]"),
    ("cell-gram", "--m", "3", "--n", "2", "--mu", "[[],[],[]]"),
    ("single-box", "--m", "3"),
])
def test_scalar_json_has_no_repr(capsys, argv):
    # symbolic entries print their coefficients in the field's own format
    code, out = run(capsys, *argv)
    assert code == 0 and "<" not in out
    assert "*d0^1" in out or "d1^" in out
