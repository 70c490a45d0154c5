import json
import time

import pytest

from finalg.cli import main
from tests.conftest import CORPUS4, CORPUS8, PROBE10, WIDE


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


@pytest.mark.parametrize("den", ["t", "0"])
def test_hilbert_series_without_constant_term_exit_2(capsys, tmp_path, den):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra b\nchar 2\nmode commutative\ngen x 1\n"
                   f"series 1 / {den}\n")
    code, _, err = run(capsys, ["hilbert", str(bad)])
    assert code == 2
    assert "line 5" in err and "constant term" in err


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


def test_hilbert_declared_series_against_dims_exit_2(capsys, tmp_path):
    # no series is computed in associative mode, so the declared one is
    # checked against the dims 1 1 1 ... of one free degree-1 generator
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra b\nchar 2\nmode associative\ngen x 1\n"
                   "series 1 / 1-2t\n")
    code, out, err = run(capsys, ["hilbert", str(bad)])
    assert code == 2
    assert "declared series 1 / 1-2t" in err
    assert "contradicts the truncated dims" in err
    assert "engine inconsistency" not in err
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


def test_iso_certificate_is_verified_at_the_verdicts_bound(capsys,
                                                         tmp_path):
    # at the default bound, 10, degree 9 of the free algebra on 4 letters
    # has 4^9 monomials, past the ceiling; the verdict's bound is 4
    free = tmp_path / "free.alg"
    free.write_text("algebra free\nchar 2\nmode associative\ngen x 1\n"
                    "gen y 1\ngen z 1\ngen w 1\nseries 1 / 1-4t\n")
    code, out, _ = run(capsys, ["iso", str(free), str(free),
                                "--max-degree", "4", "--certificate"])
    assert code == 0
    assert json.loads(out)["certificate_verified"] is True


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


def test_iso_no_prune_oracle(capsys):
    code, out, _ = run(capsys, ["iso", c8("c4"), c8("c8"), "--no-prune",
                                "--oracle"])
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


def test_iso_candidate_budget_exit_3(capsys, tmp_path):
    probe = tmp_path / "probe.alg"
    probe.write_text(PROBE10)
    code, out, _ = run(capsys, ["iso", str(probe), str(probe)])
    assert code == 3
    payload = json.loads(out)
    assert payload["outcome"] == "inconclusive"
    assert payload["reason"].endswith("more than the candidate budget of "
                                      "300000")


def test_iso_below_the_truncation_bound_exit_3(capsys):
    # q8 has a generator of degree 4, above the bound
    code, out, _ = run(capsys, ["iso", c8("q8"), c8("q8"),
                                "--max-degree", "3"])
    assert code == 3
    payload = json.loads(out)
    assert payload["outcome"] == "inconclusive"
    assert payload["reason"].startswith(
        "bound 3 is below the truncation bound 4")


def test_classify_prints_unresolved_pairs(capsys, tmp_path):
    for name, rel in (("a", "x*y"), ("b", "y*x")):
        (tmp_path / f"{name}.alg").write_text(
            f"algebra {name}\nchar 2\nmode associative\ngen x 1\ngen y 1\n"
            f"rel {rel}\n")
    code, out, _ = run(capsys, ["classify", str(tmp_path)])
    assert code == 0
    assert "classes: 2" in out
    assert "unresolved: a and b (surjective graded map certified" in out


def test_classify_below_the_truncation_bound(capsys):
    code, out, _ = run(capsys, ["classify", str(CORPUS8), "--max-degree", "1"])
    assert code == 0
    assert "classes: 8" in out
    assert ("unresolved: c4_ring and c8_ring (bound 1 is below the "
            "truncation bound 2" in out)


def test_classify_text_output(capsys):
    code, out, _ = run(capsys, ["classify", str(CORPUS4)])
    assert code == 0
    assert "classes: 3" in out
    assert "unresolved" not in out


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
    assert file_payload["unresolved"] == []


def test_classify_bad_dir_exit_2(capsys):
    code, _, err = run(capsys, ["classify", "no_such_dir"])
    assert code == 2
    assert err


def test_seed_flag_rejected(capsys):
    # every algorithm is deterministic, so there is no seed to set
    with pytest.raises(SystemExit) as info:
        main(["--seed", "7", "hilbert", c8("c2")])
    assert info.value.code == 2


def test_iso_ignores_the_declared_nilradical(capsys, tmp_path):
    # one algebra, x^2 = 0, declared with either generator as its
    # nilradical: the files' nilradical lines must not refute the pair
    paths = []
    for name in ("x", "y"):
        path = tmp_path / f"nil_{name}.alg"
        path.write_text("algebra a\nchar 2\nmode commutative\ngen x 1\n"
                        f"gen y 1\nrel x^2\nnilradical {name}\n")
        paths.append(str(path))
    code, out, _ = run(capsys, ["iso", "--oracle", *paths])
    assert code == 0
    assert json.loads(out)["outcome"] == "isomorphic"


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


def test_hostile_degrees_end_at_once(capsys, tmp_path):
    # each once hung or ran out of memory: a power parsed one factor at a
    # time, a word, a series and a quotient series as long as a degree,
    # and an engine's counts at a bound that no default bound reaches
    head = "algebra h\nchar 2\nmode {}\ngen x {}\n"
    runs = []
    for k, (mode, degree, line) in enumerate([
            ("commutative", 1, "rel x^3000000"),
            ("associative", 1, "rel x^300000000"),
            ("commutative", 1, "series 1 / 1-t^300000000"),
            ("commutative", 400000000, "")]):
        path = tmp_path / f"h{k}.alg"
        path.write_text(head.format(mode, degree) + line + "\n")
        where = f"line {5 if line else 4}: "
        runs += [(["hilbert", str(path)], 2, where),
                 (["iso", str(path), str(path)], 2, where)]
    big, says = ["--max-degree", "100000000"], "bound 100000000 is above"
    runs += [(["hilbert", c8("c2")] + big, 2, says),
             (["iso", c8("c2"), c8("c2")] + big, 3, says)]
    for argv, want, text in runs:
        start = time.monotonic()
        code, out, err = run(capsys, argv)
        assert time.monotonic() - start < 1, argv
        assert code == want and text in err + out, (argv, code, err)


def test_unreadable_numbers_are_parse_errors(capsys, tmp_path):
    # int() refuses more than 4,300 digits, and a digit that is no decimal
    # one ('²' passes str.isdigit); each once ended in a traceback
    huge = "9" * 5000
    head = "algebra h\nchar {}\nmode commutative\ngen x {}\n"
    for k, (char, degree, line, at) in enumerate([
            (huge, 1, "", 2),
            (2, huge, "", 4),
            (2, 1, f"rel {huge}*x", 5),
            (2, 1, f"rel x^{huge}", 5),
            (2, 1, f"series 1 / 1-t^{huge}", 5),
            (2, 1, f"series {huge} / 1-t", 5),
            ("²", 1, "", 2),
            (2, "²", "", 4),
            (2, 1, "rel ²*x", 5)]):
        path = tmp_path / f"n{k}.alg"
        path.write_text(head.format(char, degree) + line + "\n",
                        encoding="utf-8")
        code, out, err = run(capsys, ["hilbert", str(path)])
        assert code == 2 and f"line {at}: " in err + out, (k, code, err)
