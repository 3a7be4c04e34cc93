"""Every golden case's output against its checked-in file (tests/golden.py)."""

import json

import pytest

import golden


@pytest.mark.parametrize("name", list(golden.CASES))
def test_output_matches_golden_file(name):
    want = json.loads((golden.DIR / f"{name}.json").read_text())
    got = golden.run_case(name)
    assert golden.mismatches(got, want) == [], (
        f"{name} changed; if on purpose, run python tests/golden.py --write")


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in golden.DIR.glob("*.json")) == sorted(
        golden.CASES)


def test_float_tolerance_is_relative():
    assert golden.mismatches([1.0, "a,2.0"],
                             [1.0 + 1e-13, "a,2.0000000000001"]) == []
    assert golden.mismatches(1.0, 1.0 + 1e-11) != []
    assert golden.mismatches(1e-20, 0.0) != []
    assert golden.mismatches(1, 1.0) != []          # an int is not a float
    assert golden.mismatches("a,10", "a,10.0") != []
    assert golden.mismatches("a", "b") != []
