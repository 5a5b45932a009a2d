"""Acceptance gate: every paper claim, read from the rows of ``bmgon verify``.

The verify suites are the one place where a claim's value, kind and
tolerance are written; each criterion names its rows and passes when all
of them pass.  Criterion 10 reads ``verify affine --seed 2024`` (20 seeded
linear images), the others ``verify all --seed 0``.  Each test prints one
``ACCEPTANCE <k>: PASS|FAIL`` line directly to the terminal (bypassing
capture), with every row's computed value, claimed value and tolerance.
"""

import contextlib
import io
import json

import pytest

from bmgon.cli import main

CRITERIA = {
    1: ["P6 distance equals 3/2", "P6 grid objective never below 3/2"],
    2: ["hex family ratio at b=0", "hex family ratio at b=sqrt(3)/5",
        "hex critical slope closed form", "hex ratio at critical slope",
        "hex closed form vs construction, 101 samples"],
    3: ["known position 1 inscribed", "known position 1 ratio 3/2",
        "known position 2 inscribed", "known position 2 ratio 3/2",
        "P6 optimal symmetry classes", "P6 optimal classes match known positions"],
    4: ["P8 distance equals sqrt(2)", "P16 distance equals sqrt(2)",
        "P12 distance equals sqrt(2)cos(pi/12)", "P20 distance equals sqrt(2)cos(pi/20)"],
    5: [f"axis parallelogram value, P{n}" for n in range(8, 22, 2)],
    6: ["P10 probe of conjectured bound", "P14 probe of conjectured bound"],
    7: [*(f"beta endpoints at sqrt(2), j={j}" for j in range(1, 5)),
        *(f"beta interior exceeds sqrt(2): -1/k >= tan(pi/8j), j={j}" for j in range(1, 5)),
        "P8 optimum is a square", "P16 optimum is a square"],
    8: ["strip ratio identity, 1000 seeded instances"],
    9: ["family value at n=6 equals 3/2", "square vs (8j+4)-gon identity, j=1..8"],
    10: ["affine invariance of P6 distance, 10 maps", "affine invariance of P8 distance, 10 maps"],
}


def verify(*argv: str) -> list[dict]:
    """The row records of ``bmgon verify <argv> --json``, in print order."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["verify", *argv, "--json"])
    return [json.loads(line) for line in out.getvalue().splitlines()[:-1]]


@pytest.fixture(scope="module")
def verify_all():
    return verify("all", "--seed", "0")


def criterion(k: int):
    """The test of criterion k: every row it names passes.  It prints the
    ACCEPTANCE line first, so a failing criterion shows all of its rows."""

    def test(verify_all, capsys):
        source = verify("affine", "--seed", "2024") if k == 10 else verify_all
        by_label = {row["label"]: row for row in source}
        rows = [by_label[label] for label in CRITERIA[k]]
        ok = all(row["passed"] for row in rows)
        detail = "; ".join(
            f"{r['label']}: computed={r['computed']!r} claimed={r['claimed']!r}"
            f" tol={r['tolerance']!r}"
            for r in rows
        )
        with capsys.disabled():
            print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} | {detail}")
        assert ok, f"criterion {k}: {detail}"

    return test


def test_the_criteria_partition_the_verify_rows(verify_all):
    named = [label for labels in CRITERIA.values() for label in labels]
    assert sorted(named) == sorted(row["label"] for row in verify_all)


test_criterion_1_hexagon_distance = criterion(1)
test_criterion_2_hexagon_curve = criterion(2)
test_criterion_3_optimal_positions = criterion(3)
test_criterion_4_exact_families = criterion(4)
test_criterion_5_axis_constructions = criterion(5)
test_criterion_6_conjecture_probes = criterion(6)
test_criterion_7_beta_family = criterion(7)
test_criterion_8_strip_ratio_identity = criterion(8)
test_criterion_9_consistency_identities = criterion(9)
test_criterion_10_affine_invariance = criterion(10)
