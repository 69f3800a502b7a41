"""Command-line interface: payloads, exit codes, reproducibility."""

import json

import pytest

from linsha.cli import main
from conftest import DATA

TABLE5 = DATA / "table5.hex"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_census_payload(capsys):
    code, report, err = run(capsys, "census", "--kind", "sha256-xor", "--steps", "40")
    assert code == 0
    assert report["result"] == {"min": 110, "max": 297}
    assert report["command"] == "census"
    assert report["seed"] == 0
    assert "110" in err


def test_verify_word_payload(capsys, table5_path):
    code, report, _ = run(capsys, "verify-word", "--file", str(table5_path), "--steps", "40")
    assert code == 0
    assert report["result"]["valid"] is True
    assert report["result"]["weight"] == 26
    assert report["result"]["order"] == "column-major,bit-reversed"


def test_verify_word_invalid_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.hex"
    bad.write_text("\n".join(["00000001"] * 20) + "\n")
    code, report, _ = run(capsys, "verify-word", "--file", str(bad))
    assert code == 1
    assert report["result"]["valid"] is False


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["transmogrify"])
    assert exc_info.value.code == 2


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["census", "--frobnicate"])
    assert exc_info.value.code == 2


def test_collide_default_kernel_succeeds(capsys):
    code, report, _ = run(capsys, "collide", "--multiple", "3", "--count", "5", "--seed", "7")
    assert code == 0
    assert report["result"]["succeeded"] == 5
    assert report["result"]["sample"]["variant"] == "add_linear"


@pytest.mark.parametrize("multiple", ["2", "0"])
def test_collide_multiple_scaling_to_zero_exits_two(capsys, multiple):
    code, report, err = run(capsys, "collide", "--multiple", multiple, "--count", "3")
    assert code == 2
    assert report is None
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("search", "--steps", "20", "--iterations", "5", "--workers", "0"),
    ("search", "--steps", "20", "--iterations", "5", "--workers", "-1"),
    ("fig2", "--min-steps", "16", "--max-steps", "17", "--iterations", "5", "--workers", "0"),
    ("local-collision-mc", "--trials", "64", "--workers", "0"),
    ("collide", "--multiple", "2", "--count", "0"),
    ("collide", "--count", "-1"),
    ("census", "--kind", "bogus"),
    ("census", "--steps", "100000"),
    ("search", "--steps", "1000", "--iterations", "5"),
    ("extend-word", "--file", str(TABLE5), "--steps", "100000"),
    ("verify-word", "--file", str(TABLE5), "--steps", "41"),
], ids=["search-workers-0", "search-workers-negative", "fig2-workers-0", "mc-workers-0",
        "collide-zero-multiple-no-trials", "collide-negative-count", "census-bogus-kind",
        "census-steps-over-bound", "search-steps-over-bound", "extend-steps-over-bound",
        "verify-steps-mismatch"])
def test_invalid_input_exits_two(capsys, argv):
    code, report, err = run(capsys, *argv)
    assert code == 2
    assert report is None
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_collide_relaxed_kernel_fails(capsys):
    code, report, _ = run(capsys, "collide", "--relaxed", "--count", "2")
    assert code == 1
    assert report["result"]["succeeded"] == 0
    assert report["result"]["first_failure"]["mismatch_steps"]


def test_seed_random_records_integer(capsys):
    code, report, _ = run(capsys, "census", "--seed", "random")
    assert code == 0
    assert isinstance(report["seed"], int) and 0 <= report["seed"] < 2 ** 32


def test_table1_payload(capsys):
    code, report, _ = run(capsys, "table1")
    assert code == 0
    rows = report["result"]
    assert len(rows) == 10
    assert rows[8]["coefficients"] == {"H": 1}
    assert rows[0]["coefficients"] == {} and rows[9]["coefficients"] == {}


def test_table2_payload(capsys):
    code, report, _ = run(capsys, "table2")
    assert code == 0
    rows = report["result"]
    assert len(rows) == 14
    certain = {(r["function"], r["input_diff"]) for r in rows if r["probability"] == "1"}
    assert certain == {("ch", "011"), ("maj", "111")}


def test_table3_writes_csv(capsys, tmp_path):
    out = tmp_path / "activity.csv"
    code, report, _ = run(capsys, "table3", "--out", str(out))
    assert code == 0
    assert report["result"]["total_cost"] == 84
    assert report["result"]["first16_cost"] == 20
    assert out.read_text().startswith("step,maj,ch,e\n")


def test_solve_disturbance_payload(capsys):
    code, report, _ = run(capsys, "solve-disturbance")
    assert code == 0
    r = report["result"]
    assert r["order"] == 16 and r["distinct_patterns"] == 16
    assert r["residuals_zero"] and r["low28_zero"]
    assert r["generator"][0] == "10000000"


def test_search_roundtrip_through_file(capsys, tmp_path):
    out = tmp_path / "word.hex"
    code, report, _ = run(capsys, "search", "--steps", "18", "--iterations", "200",
                          "--out", str(out))
    assert code == 0
    code2, report2, _ = run(capsys, "verify-word", "--file", str(out))
    assert code2 == 0
    assert report2["result"]["weight"] == report["result"]["weight"]


def test_extend_word(capsys, table5_path):
    code, report, _ = run(capsys, "extend-word", "--file", str(table5_path),
                          "--steps", "64")
    assert code == 0
    assert report["result"]["weight"] == 362
    assert report["result"]["from_steps"] == 40


def test_local_collision_mc_payload(capsys):
    code, report, _ = run(capsys, "local-collision-mc", "--trials", "4096")
    assert code == 0
    r = report["result"]
    assert r["trials"] == 4096 and r["e_local"] == 9
    assert 0 < r["successes"] < 4096


def test_fig2_csv_out(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, report, _ = run(capsys, "fig2", "--min-steps", "16", "--max-steps", "18",
                          "--iterations", "60", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "steps,weight,method,seed,iterations"
    assert len(lines) == 4


def test_vectors_standard_matches_reference(capsys):
    import hashlib

    code, report, _ = run(capsys, "vectors")
    assert code == 0
    assert report["result"]["abc"]["standard"] == hashlib.sha256(b"abc").hexdigest()
    assert report["result"]["empty"]["standard"] == hashlib.sha256(b"").hexdigest()


def test_variant_run_payload(capsys):
    code, report, _ = run(capsys, "variant-run", "--variant", "add_linear",
                          "--message", "xyz")
    assert code == 0
    assert len(report["result"]["digest"]) == 64
    assert report["result"]["variant"]["sbox_mode"] == "identity"
