import json

import pytest

from finalg.cli import main
from tests.conftest import CORPUS4, CORPUS8, WIDE


def c8(name):
    return str(CORPUS8 / f"{name}.alg")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_text(capsys):
    code, out, _ = run(capsys, ["hilbert", c8("c2")])
    assert code == 0
    assert "1 / 1-t" in out
    assert "dims" in out and "1 1 1" in out


def test_hilbert_json(capsys):
    code, out, _ = run(capsys, ["--json", "hilbert", c8("d8")])
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"] == "d8_ring"
    assert payload["series"] == {"numerator": "1",
                                 "denominator": "1-2t+t^2"}
    assert payload["dims"][:5] == [1, 2, 3, 4, 5]


def test_hilbert_max_degree_both_flag_positions(capsys):
    code, out, _ = run(capsys, ["hilbert", c8("c2"), "--max-degree", "4"])
    assert code == 0 and "0..4" in out
    code, out, _ = run(capsys, ["--max-degree", "4", "hilbert", c8("c2")])
    assert code == 0 and "0..4" in out


def test_hilbert_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra b\nchar 2\nmode commutative\ngen x 1\nrel x + x^2\n")
    code, _, err = run(capsys, ["hilbert", str(bad)])
    assert code == 2
    assert "line 5" in err


def test_hilbert_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["hilbert", "no_such_file.alg"])
    assert code == 2
    assert err


def test_hilbert_declared_series_contradiction_exit_2(capsys, tmp_path):
    # the computed series of one free degree-1 generator is 1 / 1-t
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra b\nchar 2\nmode commutative\ngen x 1\n"
                   "series 1 / 1-t^2\n")
    code, out, err = run(capsys, ["hilbert", str(bad)])
    assert code == 2
    assert "contradicts" in err
    assert out == ""


def test_iso_isomorphic_pair(capsys):
    code, out, _ = run(capsys, ["iso", c8("c4"), c8("c8")])
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "isomorphic"
    assert payload["certificate"] == {"x": "x", "y": "y"}
    stats = payload["statistics"]
    for field in ("candidate_space", "enumerated", "pruned_by_stage",
                  "wall_time_ms"):
        assert field in stats


def test_iso_not_isomorphic_exit_1(capsys):
    code, out, _ = run(capsys, ["iso", c8("c2"), c8("c4")])
    assert code == 1
    assert json.loads(out)["outcome"] == "not-isomorphic"


def test_iso_same_file_identity(capsys):
    code, out, _ = run(capsys, ["iso", c8("q8"), c8("q8"), "--certificate"])
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"] == {"x": "x", "y": "y", "e": "e"}
    assert payload["certificate_verified"] is True


def test_iso_no_prune(capsys):
    code, out, _ = run(capsys, ["iso", c8("d8"), c8("c4c2"), "--no-prune"])
    assert code == 1
    payload = json.loads(out)
    assert payload["statistics"]["pruned_by_stage"] is None


def test_iso_oracle_cross_check(capsys):
    code, out, _ = run(capsys, ["iso", c8("c2"), c8("c4"), "--oracle"])
    assert code == 1
    payload = json.loads(out)
    assert payload["oracle"]["agrees"] is True
    assert payload["oracle"]["reason"] == "search exhausted"


def test_oracle_subcommand_matches_iso_flags(capsys):
    code, out, _ = run(capsys, ["oracle", c8("c4"), c8("c8")])
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "isomorphic"
    assert payload["oracle"]["agrees"] is True


def test_iso_char_mismatch_exit_2(capsys, tmp_path):
    odd = tmp_path / "odd.alg"
    odd.write_text("algebra odd\nchar 3\nmode commutative\ngen x 1\n")
    code, _, err = run(capsys, ["iso", c8("c2"), str(odd)])
    assert code == 2
    assert "characteristic" in err


def test_iso_inconclusive_exit_3(capsys, tmp_path):
    a = tmp_path / "a.alg"
    a.write_text("algebra a\nchar 2\nmode associative\ngen x 1\n")
    b = tmp_path / "b.alg"
    b.write_text("algebra b\nchar 2\nmode associative\ngen x 1\n")
    code, out, _ = run(capsys, ["iso", str(a), str(b)])
    assert code == 3
    assert json.loads(out)["outcome"] == "inconclusive"


def test_classify_text_output(capsys):
    code, out, _ = run(capsys, ["classify", str(CORPUS4)])
    assert code == 0
    assert "classes: 3" in out


def test_classify_json_and_out_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, ["--json", "classify", str(CORPUS8),
                                "--out", str(out_file)])
    assert code == 0
    stdout_payload = json.loads(out)
    file_payload = json.loads(out_file.read_text())
    assert stdout_payload == file_payload
    assert file_payload["totals"]["classes"] == 7
    classes = file_payload["classes"]
    assert ["c4_ring", "c8_ring"] in classes


def test_classify_bad_dir_exit_2(capsys):
    code, _, err = run(capsys, ["classify", "no_such_dir"])
    assert code == 2
    assert err


def test_seed_flag_accepted(capsys):
    code, out, _ = run(capsys, ["--seed", "7", "hilbert", c8("c2")])
    assert code == 0


def test_monomial_ceiling_flag(capsys):
    code, _, err = run(capsys, ["hilbert", c8("c2c2c2"),
                                "--monomial-ceiling", "3"])
    assert code == 2
    assert "ceiling" in err or "monomial" in err


# each argv ends in the flag under test: --max-degree, then --monomial-ceiling
@pytest.mark.parametrize("argv", [
    ["hilbert", c8("c2"), "--max-degree"],
    ["iso", c8("c2"), c8("c2"), "--max-degree"],
    ["classify", str(CORPUS4), "--max-degree"],
    ["hilbert", c8("c2"), "--monomial-ceiling"],
    ["iso", c8("c2"), c8("c2"), "--monomial-ceiling"],
    ["classify", str(CORPUS4), "--monomial-ceiling"],
])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_degree_below_one_exit_2(capsys, argv, value):
    with pytest.raises(SystemExit) as info:
        main(argv + [value])
    assert info.value.code == 2
    assert f"{argv[-1]}: must be at least 1" in capsys.readouterr().err


def test_hilbert_relation_cell_budget_exit_2(capsys, tmp_path):
    path = tmp_path / "wide.alg"
    path.write_text(WIDE)
    code, _, err = run(capsys, ["hilbert", str(path)])
    assert code == 2
    assert "cell budget" in err


def test_classify_monomial_ceiling_flag(capsys):
    code, out, _ = run(capsys, ["classify", str(CORPUS4),
                                "--monomial-ceiling", "5"])
    assert code == 0
    assert "classes: 1" in out
    assert out.count("ceiling is 5") == 2


def test_unknown_command_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
