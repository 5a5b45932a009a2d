import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import star_vertices
from bmgon import cli
from bmgon.cli import main
from bmgon.evengon import theorem2_value
from bmgon.geom import (
    boundary_point,
    format_polygon,
    linear_image,
    parse_polygon,
    regular_polygon,
)
from bmgon.hexagon import HEXAGON, hex_critical_b, hex_optimal_positions
from bmgon.oracle import FEASIBLE_DEN
from bmgon.pgram import Parallelogram

SQRT2 = math.sqrt(2.0)
SRC = Path(__file__).resolve().parents[1] / "src"


# the interior rows compare the zero -1/k of h(b) - sqrt(2) with tan(pi/8j)
BETA_INTERIOR = "beta interior exceeds sqrt(2): -1/k >= tan(pi/8j)"
# label, claimed, tolerance, verdict and note of every `verify all --seed 0` row
VERIFY_ALL_ROWS = [
    ("P6 distance equals 3/2", 1.5, 1e-13, "PASS", ""),
    ("P6 grid objective never below 3/2", 1.5, 1e-12, "PASS", "one-sided"),
    ("hex family ratio at b=0", 1.5, 1e-12, "PASS", ""),
    ("hex family ratio at b=sqrt(3)/5", 1.5, 1e-12, "PASS", ""),
    ("hex critical slope closed form", 0.16252927618404658, 1e-12, "PASS", ""),
    ("hex ratio at critical slope", 1.5224, 5e-05, "PASS", ""),
    ("hex closed form vs construction, 101 samples", 0.0, 1e-12, "PASS", ""),
    ("known position 1 inscribed", 0.0, 1e-12, "PASS", ""),
    ("known position 1 ratio 3/2", 1.5, 1e-12, "PASS", ""),
    ("known position 2 inscribed", 0.0, 1e-12, "PASS", ""),
    ("known position 2 ratio 3/2", 1.5, 1e-12, "PASS", ""),
    ("P6 optimal symmetry classes", 2.0, 0.0, "PASS", ""),
    ("P6 optimal classes match known positions", 0.0, 1e-13, "PASS", ""),
    ("P8 distance equals sqrt(2)", 1.4142135623730951, 1e-13, "PASS", ""),
    ("P16 distance equals sqrt(2)", 1.4142135623730951, 1e-13, "PASS", ""),
    ("P12 distance equals sqrt(2)cos(pi/12)", 1.3660254037844388, 1e-13, "PASS", ""),
    ("P20 distance equals sqrt(2)cos(pi/20)", 1.3968022466674208, 1e-13, "PASS", ""),
    ("axis parallelogram value, P8", 1.4142135623730951, 1e-12, "PASS", ""),
    ("axis parallelogram value, P10", 1.4270509831248424, 1e-12, "PASS", ""),
    ("axis parallelogram value, P12", 1.3660254037844388, 1e-12, "PASS", ""),
    ("axis parallelogram value, P14", 1.4254275376635719, 1e-12, "PASS", ""),
    ("axis parallelogram value, P16", 1.4142135623730951, 1e-12, "PASS", ""),
    ("axis parallelogram value, P18", 1.4187480877851173, 1e-12, "PASS", ""),
    ("axis parallelogram value, P20", 1.3968022466674208, 1e-12, "PASS", ""),
    ("P10 probe of conjectured bound", 1.4270509831248424, 1e-13, "PASS", "conjecture support"),
    ("P14 probe of conjectured bound", 1.4254275376635719, 1e-13, "PASS", "conjecture support"),
    ("family value at n=6 equals 3/2", 1.5, 1e-12, "PASS", ""),
    ("square vs (8j+4)-gon identity, j=1..8", 0.0, 1e-12, "PASS", ""),
    ("beta endpoints at sqrt(2), j=1", 0.0, 1e-12, "PASS", ""),
    (f"{BETA_INTERIOR}, j=1", 0.41421356237309503, 1e-12, "PASS", "one-sided"),
    ("beta endpoints at sqrt(2), j=2", 0.0, 1e-12, "PASS", ""),
    (f"{BETA_INTERIOR}, j=2", 0.198912367379658, 1e-12, "PASS", "one-sided"),
    ("beta endpoints at sqrt(2), j=3", 0.0, 1e-12, "PASS", ""),
    (f"{BETA_INTERIOR}, j=3", 0.13165249758739583, 1e-12, "PASS", "one-sided"),
    ("beta endpoints at sqrt(2), j=4", 0.0, 1e-12, "PASS", ""),
    (f"{BETA_INTERIOR}, j=4", 0.09849140335716425, 1e-12, "PASS", "one-sided"),
    ("P8 optimum is a square", 0.0, 1e-13, "PASS", ""),
    ("P16 optimum is a square", 0.0, 1e-13, "PASS", ""),
    ("strip ratio identity, 1000 seeded instances", 0.0, 1e-10, "PASS", ""),
    ("affine invariance of P6 distance, 10 maps", 0.0, 1e-12, "PASS", ""),
    ("affine invariance of P8 distance, 10 maps", 0.0, 1e-12, "PASS", ""),
]
# the number of rows of each suite, in the order `verify all` runs them
VERIFY_ALL_SUITES = {
    "theorem1": 7, "remark": 6, "theorem2": 15, "beta": 10, "lemma": 1, "affine": 2,
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def value_of(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise KeyError(key)


def gen_file(capsys, tmp_path, n: int) -> str:
    """Path of the polygon file that `bmgon gen n` writes."""
    path = tmp_path / f"gen{n}.txt"
    assert run(capsys, "gen", str(n), str(path))[0] == 0
    return str(path)


def near_hexagon_file(tmp_path, kind: str) -> str:
    """Path of a polygon file that is not the regular hexagon bit for bit:
    a linear image of P6, or P6 with one antipodal pair scaled by
    1 + 1e-12."""
    gon = regular_polygon(6)
    if kind == "image":
        text = format_polygon(linear_image(gon, [[1.5, 0.4], [-0.2, 0.8]]))
    else:
        scales = [1.0 + 1e-12, 1.0, 1.0] * 2
        text = "".join(f"{s * v.x!r},{s * v.y!r}\n" for s, v in zip(scales, gon.vertices))
    path = tmp_path / f"{kind}.txt"
    path.write_text(text)
    return str(path)


def scaled_hexagon_file(tmp_path, e: int) -> str:
    """Path of a polygon file of P6 with every coordinate scaled by 10^e."""
    path = tmp_path / f"p6e{e}.txt"
    s = 10.0**e
    path.write_text("".join(f"{s * v.x!r},{s * v.y!r}\n" for v in regular_polygon(6).vertices))
    return str(path)


# the first halves of two octagons near the largest float; the first
# has vertex norms above it although every coordinate is finite
OVERFLOWING_OCTAGON = [(1.7e308, 0.0), (1.3e308, 1.326e308), (0.0, 1.7e308), (-1.3e308, 1.274e308)]
NEAR_MAX_OCTAGON = [(1.5e308, 0.0), (1.05e308, 1.071e308), (0.0, 1.5e308), (-1.05e308, 1.029e308)]


def format_polygon_rows(half, k: int) -> str:
    """Polygon file of the vertices ``half`` and their negations, every
    coordinate scaled by 2^k."""
    verts = [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in half]
    verts += [(-x, -y) for x, y in verts]
    return "".join(f"{x!r},{y!r}\n" for x, y in verts)


class TestGen:
    def test_writes_hexagon_file(self, capsys, tmp_path):
        out = tmp_path / "p6.txt"
        code, text, _ = run(capsys, "gen", "6", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert lines[0] == "1,0"
        assert parse_polygon(out.read_text()).vertices == regular_polygon(6).vertices

    def test_twelve_vertices_on_the_unit_circle(self, capsys, tmp_path):
        out = tmp_path / "p12.txt"
        code, _, _ = run(capsys, "gen", "12", str(out))
        assert code == 0
        gon = parse_polygon(out.read_text())
        assert len(gon.vertices) == 12
        assert all(abs(v.norm() - 1.0) <= 1e-12 for v in gon.vertices)

    def test_odd_n_exits_with_parity_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "7", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "even" in err


class TestDistance:
    def test_hexagon_shorthand(self, capsys):
        code, out, _ = run(capsys, "distance", "P6")
        assert code == 0
        assert abs(float(value_of(out, "lambda")) - 1.5) <= 1e-5
        assert value_of(out, "grid") == "360"
        assert "refined:" not in out

    @pytest.mark.parametrize("n, options", [(6, ()), (8, ()), (16, ()), (10, ("--grid", "720"))])
    def test_file_input_matches_shorthand(self, capsys, tmp_path, n, options):
        # the claim follows the vertices, so `gen n`'s file is the n-gon
        path = gen_file(capsys, tmp_path, n)
        keys = ("lambda", "claimed", "gap", "note")
        text, records = {}, {}
        for arg in (f"P{n}", path):
            code, out, _ = run(capsys, "distance", arg, *options)
            assert code == 0
            text[arg] = [line for line in out.splitlines() if line.split(":")[0] in keys]
            code, out, _ = run(capsys, "distance", arg, *options, "--json")
            assert code == 0
            records[arg] = {k: json.loads(out).get(k) for k in ("claimed", "claim_kind", "gap")}
        assert any(line.startswith("claimed: ") for line in text[path])
        assert text[path] == text[f"P{n}"]
        assert records[path]["claimed"] is not None
        assert records[path] == records[f"P{n}"]

    @pytest.mark.parametrize("kind", ["image", "pair"])
    def test_a_file_that_is_not_exactly_regular_gets_no_claim(self, capsys, tmp_path, kind):
        path = near_hexagon_file(tmp_path, kind)
        code, out, _ = run(capsys, "distance", path)
        assert code == 0
        assert abs(float(value_of(out, "lambda")) - 1.5) <= 1e-9
        assert "claimed:" not in out and "gap:" not in out and "note:" not in out
        code, out, _ = run(capsys, "distance", path, "--json")
        assert code == 0
        assert not {"claimed", "claim_kind", "gap", "note"} & set(json.loads(out))

    def test_conjectured_family_carries_note(self, capsys):
        code, out, _ = run(capsys, "distance", "P10", "--grid", "720")
        assert code == 0
        assert value_of(out, "note") == "conjecture support"
        assert abs(float(value_of(out, "lambda")) - 1.4270510) <= 1e-4

    def test_proven_hexagon_value_has_no_note(self, capsys):
        _, out, _ = run(capsys, "distance", "P6")
        assert "(exact)" in value_of(out, "claimed")
        assert "note:" not in out

    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "distance", "P6", "--json")
        assert code == 0
        record = json.loads(out)
        assert abs(record["lambda"] - 1.5) <= 1e-5
        assert record["grid"] == 360
        assert "refined" not in record
        assert len(record["contacts"]) >= 4

    def test_json_reports_each_walk(self, capsys):
        code, out, _ = run(capsys, "distance", "P10", "--grid", "720", "--json")
        assert code == 0
        record = json.loads(out)
        # the lowest cells of the regular 10-gon are rotated copies of one
        assert len(record["starts"]) == 1
        (start,) = record["starts"]
        assert set(start) == {"t1", "s", "value", "boxes", "candidates", "stop"}
        assert start["stop"] in ("minimum", "rounding")
        assert 1 <= start["boxes"] <= start["candidates"]
        assert start["value"] >= record["lambda"] - 1e-12

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--starts", "0"),
            ("--starts", "-1"),
            ("--starts", "3"),
            ("--shrink", "0"),
            ("--shrink", "1"),
            ("--shrink", "0.5"),
            ("--no-refine", "90"),
        ],
    )
    def test_invalid_search_settings_exit_before_scanning(self, capsys, monkeypatch, flag, value):
        # the search's settings are constants and every walk runs, so no
        # option sets or skips any of it
        def fail(*args, **kwargs):
            raise AssertionError("bm_distance must not run")

        monkeypatch.setattr("bmgon.cli.bm_distance", fail)
        with pytest.raises(SystemExit) as stopped:
            main(["distance", "P6", flag, value])
        assert stopped.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err

    def test_a_star_polygon_file_reports_its_winding(self, capsys, tmp_path):
        path = tmp_path / "star.txt"
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in star_vertices(10, 3)))
        code, out, err = run(capsys, "distance", str(path))
        assert (code, out) == (2, "")
        assert "the boundary winds 3 times around the origin, not once" in err

    def test_invalid_file_reports_invariant(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,0\n0,1\n-1,0.001\n0,-1\n")
        code, _, err = run(capsys, "distance", str(path))
        assert code == 2
        assert "symmetr" in err

    @pytest.mark.parametrize("grid", ["4097", "100000000"])
    def test_huge_grid_exits_with_the_bound(self, capsys, grid):
        code, out, err = run(capsys, "distance", "P6", "--grid", grid)
        assert code == 2
        assert out == ""
        assert f"grid must be at most 4096, got {grid}" in err
        assert "Traceback" not in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "distance", str(tmp_path / "absent.txt"))
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize("command", ["distance", "render"])
    @pytest.mark.parametrize("e", [153, 154, 155, 308])
    def test_a_huge_polygon_keeps_its_value_and_classes(self, capsys, tmp_path, command, e):
        # the search and the parallelograms it builds read unit
        # coordinates, so no product overflows at any scale; render
        # divides by the radius first and draws P6's picture
        svg, p6_svg = tmp_path / "x.svg", tmp_path / "p6.svg"
        path = scaled_hexagon_file(tmp_path, e)
        if command == "distance":
            code, out, _ = run(capsys, "distance", path, "--json")
            assert code == 0
            assert abs(json.loads(out)["lambda"] - 1.5) <= 1e-15
        else:
            code, out, _ = run(capsys, "render", path, str(svg))
            assert code == 0
            assert value_of(out, "lambda") == "1.5 ; 1.5"
            assert value_of(out, "configurations") == "2"
            run(capsys, "render", "P6", str(p6_svg))
            assert svg.read_bytes() == p6_svg.read_bytes()

    def test_a_vertex_norm_past_the_largest_float_exits_with_the_norm(self, capsys, tmp_path):
        # every coordinate is finite, but |vertex 1| = 1.857e308 is not;
        # the radius would be inf, and with it every tolerance it scales.
        # The copy scaled by 2^-1000 has no rotation and one class.
        wide, small = tmp_path / "wide.txt", tmp_path / "small.txt"
        wide.write_text(format_polygon_rows(OVERFLOWING_OCTAGON, 0))
        small.write_text(format_polygon_rows(OVERFLOWING_OCTAGON, -1000))
        code, out, err = run(capsys, "distance", str(wide))
        assert (code, out) == (2, "")
        assert "vertex 1 (1.3e+308, 1.326e+308) has a norm above the largest float" in err
        assert "Traceback" not in err
        code, out, _ = run(capsys, "render", str(small), str(tmp_path / "small.svg"))
        assert (code, value_of(out, "lambda"), value_of(out, "configurations")) == (0, "1.30769231", "1")

    def test_an_octagon_near_the_largest_float_renders(self, capsys, tmp_path):
        # lambda times a generator would overflow; render scales the
        # generators by lambda after dividing them by the radius
        path = tmp_path / "near.txt"
        path.write_text(format_polygon_rows(NEAR_MAX_OCTAGON, 0))
        code, out, _ = run(capsys, "distance", str(path))
        assert (code, value_of(out, "lambda")) == (0, "1.40548482")
        code, out, err = run(capsys, "render", str(path), str(tmp_path / "near.svg"))
        assert code == 0, err
        assert value_of(out, "lambda").split(" ; ")[0] == "1.40548482"

    def test_a_polygon_without_a_feasible_cell_exits_with_the_threshold(self, capsys, tmp_path):
        # on the thin rhombus's table, its coordinates halved, every
        # cross(u, v) is at most 2.5e-302
        path = tmp_path / "thin.txt"
        path.write_text("1,0\n0,1e-301\n-1,0\n0,-1e-301\n")
        code, out, err = run(capsys, "distance", str(path))
        assert (code, out) == (2, "")
        assert f"above {FEASIBLE_DEN}, the search's feasibility threshold" in err
        assert "Traceback" not in err

    def test_collinear_huge_vertices_exit_with_the_convexity_message(self, capsys, tmp_path):
        # the vertices +-(1e200, 1e200), +-(2e200, 2e200) turn by
        # inf - inf = nan unscaled, which no comparison rejects
        path = tmp_path / "flat.txt"
        path.write_text("1e200,1e200\n2e200,2e200\n-1e200,-1e200\n-2e200,-2e200\n")
        code, out, err = run(capsys, "distance", str(path))
        assert (code, out) == (2, "")
        assert "not in strictly convex counterclockwise position" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_closed_stdout_exits_141_quietly(self, unbuffered):
        # the pipe's read end is closed before the child starts, so every
        # write it makes fails with EPIPE: in the handler when unbuffered,
        # at the final flush when buffered
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "bmgon.cli", "distance", "P6"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write_end)
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")


# SHA-256 of the `verify all --seed 0` text, without its runtime_ms line,
# and of its --json output, without the runtime_ms and suite_runtime_ms fields
VERIFY_ALL_SHA256 = {
    "text": "e30235c2c70d08f11ad9a154d635e9d77aed5be05e139f4beb9e192a4345f22d",
    "json": "b828707a03db779f172f24a0956851db9188d864834414de8a8ecfece9ded4d6",
}


class TestVerify:
    def test_all_output_is_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--seed", "0")
        assert code == 0
        lines = out.splitlines(keepends=True)
        assert lines[-1].startswith("runtime_ms:")
        text = "".join(lines[:-1]).encode()
        assert hashlib.sha256(text).hexdigest() == VERIFY_ALL_SHA256["text"]
        code, out, _ = run(capsys, "verify", "all", "--seed", "0", "--json")
        assert code == 0
        for timing in (r'"runtime_ms": \d+', r'"suite_runtime_ms": \{[^}]*\}'):
            out, found = re.subn(", " + timing, "", out)
            assert found == 1
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256["json"]

    @pytest.mark.parametrize(
        "suite, names",
        [
            ("all", ["theorem1", "remark", "theorem2", "beta", "lemma", "affine"]),
            ("families", ["families"]),
        ],
    )
    def test_json_summary_times_each_suite(self, capsys, suite, names):
        code, out, _ = run(capsys, "verify", suite, "--json")
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        times = summary["suite_runtime_ms"]
        assert sorted(times) == sorted(names)
        assert all(isinstance(ms, int) and ms >= 0 for ms in times.values())
        # each suite's time is a step between rounded running totals
        assert sum(times.values()) == summary["runtime_ms"]

    @pytest.mark.parametrize("suite", list(VERIFY_ALL_SUITES))
    def test_every_suite_of_all_runs_by_name(self, capsys, suite):
        # each suite prints its own rows of `verify all`, in the same order
        names = list(VERIFY_ALL_SUITES)
        first = sum(VERIFY_ALL_SUITES[name] for name in names[: names.index(suite)])
        expected = VERIFY_ALL_ROWS[first : first + VERIFY_ALL_SUITES[suite]]
        code, out, _ = run(capsys, "verify", suite, "--seed", "0")
        assert code == 0
        assert "FAIL" not in out
        checks = [line for line in out.splitlines() if line.startswith("check: ")]
        assert len(checks) == len(expected)
        for line, (label, _, _, verdict, note) in zip(checks, expected):
            assert line.startswith(f"check: {label} | "), line
            assert line.endswith(f"| {verdict}" + (f" | {note}" if note else "")), line
        assert value_of(out, "result") == f"PASS ({len(expected)}/{len(expected)} checks)"
        if suite == "theorem2":
            assert "conjecture support" in out

    @pytest.mark.parametrize("suite", ["all", "theorem1"])
    def test_a_negative_seed_is_rejected_before_any_suite_runs(self, capsys, monkeypatch, suite):
        def fail(*args, **kwargs):
            raise AssertionError("no suite may run")

        monkeypatch.setitem(cli._HANDLERS, "verify", fail)
        with pytest.raises(SystemExit) as stopped:
            main(["verify", suite, "--seed", "-1"])
        assert stopped.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: must be a non-negative integer, got -1" in captured.err

    def test_json_rows_parse(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma", "--json")
        assert code == 0
        lines = out.strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert rows[-1]["passed"] is True
        assert all(row["passed"] for row in rows[:-1])
        assert all("tolerance" in row for row in rows[:-1])

    def test_all_rows_keep_their_claims_and_verdicts(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--seed", "0", "--json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()[:-1]]
        got = [
            (r["label"], r["claimed"], r["tolerance"], "PASS" if r["passed"] else "FAIL", r["note"])
            for r in rows
        ]
        # claimed values are closed forms; allow a last-digit libm difference
        expected = [
            (label, pytest.approx(claimed, rel=1e-15, abs=0.0), tol, verdict, note)
            for label, claimed, tol, verdict, note in VERIFY_ALL_ROWS
        ]
        assert got == expected
        # the families suite runs by name only
        assert len(rows) == 41 and not any(", family " in r["label"] for r in rows)

    def test_families_suite_covers_every_even_n_up_to_66(self, capsys):
        code, out, _ = run(capsys, "verify", "families")
        assert code == 0
        checks = [line for line in out.splitlines() if line.startswith("check:")]
        families = {0: "8j", 2: "8j+2", 4: "8j+4", 6: "8j+6"}
        for n, line in zip(range(6, 68, 2), checks, strict=True):
            note = " | conjecture support" if n % 4 == 2 and n != 6 else ""
            assert line.startswith(f"check: P{n} distance, family {families[n % 8]} |"), line
            assert "tol=1e-13" in line
            assert line.endswith(f"| PASS{note}"), line
        assert value_of(out, "result") == "PASS (31/31 checks)"

        code, out, _ = run(capsys, "verify", "families", "--json")
        assert code == 0
        *rows, summary = (json.loads(line) for line in out.splitlines())
        assert len(rows) == summary["checks"] == 31
        assert summary["passed"] is True
        assert summary["inputs"] == {"suite": "families", "seed": "0"}
        for n, row in zip(range(6, 68, 2), rows, strict=True):
            family = theorem2_value(n)
            assert row["claimed"] == family.value
            assert row["passed"] is True
            assert row["tolerance"] == 1e-13
            assert row["note"] == ("conjecture support" if family.kind == "upper_bound" else "")
            assert (family.kind == "upper_bound") == (n % 4 == 2 and n != 6)

    @staticmethod
    def _remark_verdicts(monkeypatch, positions):
        monkeypatch.setattr(cli, "hex_optimal_positions", lambda: positions)
        return {row.label: row.passed for row in cli.suite_remark()}

    def test_remark_match_fails_for_a_slid_position(self, monkeypatch):
        # position 2 has its generators at boundary parameters 1/3 and 5/3;
        # sliding both 1e-9 along their edges keeps them on the boundary
        first, _ = hex_optimal_positions()
        slid = Parallelogram(
            boundary_point(HEXAGON, 1.0 / 3.0 + 1e-9), boundary_point(HEXAGON, 5.0 / 3.0 + 1e-9)
        )
        verdicts = self._remark_verdicts(monkeypatch, [first, slid])
        assert verdicts["P6 optimal classes match known positions"] is False
        assert verdicts["known position 1 inscribed"] is True
        assert verdicts["known position 2 inscribed"] is True

    def test_remark_match_does_not_depend_on_the_order_of_the_positions(self, monkeypatch):
        verdicts = self._remark_verdicts(monkeypatch, hex_optimal_positions()[::-1])
        assert all(verdicts.values())

    def test_seed_changes_instances_not_verdict(self, capsys):
        code0, out0, _ = run(capsys, "verify", "lemma", "--seed", "0")
        code1, out1, _ = run(capsys, "verify", "lemma", "--seed", "1")
        assert code0 == code1 == 0
        assert value_of(out0, "seed") == "0"
        assert value_of(out1, "seed") == "1"


# SHA-256 of the CSV that `curve <options>` writes, at 101 samples
CURVE_CSV_SHA256 = {
    "hexagon": "ea73da6f897a349ab49f35485f0571981806c0806d91029f321dc6ddb4bcc5de",
    "beta --j 1": "3a8b66926265fb70dfc45b6efc6dbf95caa7452f159cc398a1af843da45c0ef6",
    "beta --j 2": "fbf7aba0cf3b07a4e54c26e3c271484e9393886f42883e205fdc14b14790a119",
    "beta --j 3": "e254d2a4fd66593c1fe28a43f9ac76581356e045b392bd81ba986a878c666b80",
}


class TestCurve:
    def test_hexagon_csv(self, capsys, tmp_path):
        path = tmp_path / "hex.csv"
        code, _, _ = run(capsys, "curve", "hexagon", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "b,h,h_geometric"
        assert len(lines) == 102
        first = [float(x) for x in lines[1].split(",")]
        assert first == [0.0, 1.5, 1.5]
        dev = max(
            abs(float(h) - float(g))
            for _, h, g in (line.split(",") for line in lines[1:])
        )
        assert dev <= 1e-9

    def test_beta_csv_endpoints(self, capsys, tmp_path):
        path = tmp_path / "beta.csv"
        code, _, _ = run(capsys, "curve", "beta", str(path), "--j", "1", "--samples", "51")
        assert code == 0
        lines = path.read_text().splitlines()
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert abs(rows[0][1] - SQRT2) <= 1e-12
        assert abs(rows[-1][1] - SQRT2) <= 1e-12
        assert all(row[1] > SQRT2 for row in rows[1:-1])

    def test_beta_rejects_j_below_1(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        code, _, err = run(capsys, "curve", "beta", str(path), "--j", "0")
        assert code == 2
        assert "regular 8j-gon, j >= 1" in err
        assert not path.exists()

    def test_rejects_one_sample(self, capsys, tmp_path):
        code, _, err = run(capsys, "curve", "hexagon", str(tmp_path / "x.csv"), "--samples", "1")
        assert code == 2
        assert "samples" in err

    def test_byte_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "curve", "hexagon", str(a))
        run(capsys, "curve", "hexagon", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("options", sorted(CURVE_CSV_SHA256))
    def test_csv_bytes_are_pinned(self, capsys, tmp_path, options):
        path = tmp_path / "out.csv"
        target, *rest = options.split()
        assert run(capsys, "curve", target, str(path), *rest)[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CURVE_CSV_SHA256[options]


# SHA-256 of the SVG that `render Pn out.svg` writes (the default
# `--b optimal` at grid 360); the search must keep these bytes
OPTIMAL_SVG_SHA256 = {
    4: "caafa381a1a20da418c9892816abfb3ac8d971489dae9ab133721455a4fd375c",
    6: "880f5935ee4314d1b3360d6ff63ed067f5d926cf6a1d80dd414df7402fec5c95",
    8: "f69522f1d5b71082aa908d04bf5076527121b9cc6c07d03f9f125ac0c343bba5",
    10: "d118de131c8cca0dd4253b7693a76fc1ef8626b3ae5f224de215991c7d37c190",
    12: "9c116a22db39819b28be3edc0b9b32bcbc14842a4a10ac026d66c808cbdcd584",
    14: "7b578e550459d9dc999f849d0ff7d871b2c20cfdbdbf84019618798735f853fc",
    16: "752b695b53ece4f101ca950dcdd89987816b4dacc8f0d544092ef14dfacf9347",
    18: "1d2c5e113de4527dfdf2f00164ac2c398e178e68c9bba7cba8db47d1761c900d",
    20: "559d8625d5ad81490938ebde72c789b9f39caf8ce9b32e0f393b2e4b59563349",
    22: "2f38ad0c352fe222665238febef0dfe12c940c841bd7d40a984d1b1b6f63357e",
    24: "470f1c6252bc3549551026d6e9e4c15fa26461a442567be37926349387f9edb2",
}

# SHA-256 of the SVG that `render Pn out.svg --b <b>` writes for a family
# member at a numeric slope
MEMBER_SVG_SHA256 = {
    ("P6", "0"): "1f59d5299115b51e489e7b1f01d704ece35cdfaf4c208d65877fd40e1d5faddf",
    ("P6", repr(hex_critical_b())): (
        "c14472702b67403c0063be3ce61e3f9b6acc09adca3482eea02bdebcbb9220c3"
    ),
    ("P8", "0.2"): "ec026b0b2df2bfbbdf5f19f19d223d31da5f5a8b1c19c77c4504ef86b00a1b3a",
    ("P16", "0.1"): "a92edd8bf0552855d23242d7aa5e9cb76c4ce2019c1f9f4df13f7d8d406031bb",
}


class TestRender:
    def test_family_member_contains_vertex(self, capsys, tmp_path):
        path = tmp_path / "b0.svg"
        code, _, _ = run(capsys, "render", "P6", str(path), "--b", "0")
        assert code == 0
        text = path.read_text()
        assert text.startswith("<?xml")
        assert "1,0" in text
        assert text.count("<circle") == 4

    def test_optimal_draws_two_configurations(self, capsys, tmp_path):
        path = tmp_path / "opt.svg"
        code, out, _ = run(capsys, "render", "P6", str(path), "--b", "optimal")
        assert code == 0
        assert value_of(out, "configurations") == "2"
        assert path.read_text().count("<g ") == 2

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "render", "P6", str(a), "--b", "optimal")
        run(capsys, "render", "P6", str(b), "--b", "optimal")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", range(4, 26, 2))
    def test_optimal_svg_does_not_depend_on_the_grid(self, capsys, tmp_path, n):
        # each class is drawn at its key, whichever walk reached it
        coarse, fine = tmp_path / "360.svg", tmp_path / "720.svg"
        run(capsys, "render", f"P{n}", str(coarse), "--grid", "360")
        run(capsys, "render", f"P{n}", str(fine), "--grid", "720")
        assert coarse.read_bytes() == fine.read_bytes()

    @pytest.mark.parametrize("n", range(4, 26, 2))
    def test_optimal_svg_bytes_are_pinned(self, capsys, tmp_path, n):
        path = tmp_path / "out.svg"
        assert run(capsys, "render", f"P{n}", str(path))[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == OPTIMAL_SVG_SHA256[n]

    @pytest.mark.parametrize("polygon, b", sorted(MEMBER_SVG_SHA256))
    def test_member_svg_bytes_are_pinned(self, capsys, tmp_path, polygon, b):
        path = tmp_path / "out.svg"
        assert run(capsys, "render", polygon, str(path), "--b", b)[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == MEMBER_SVG_SHA256[polygon, b]

    @pytest.mark.parametrize(
        "scale",
        [
            10.0,
            1e-3,
            pytest.param(
                1e-6,
                marks=pytest.mark.xfail(
                    reason="ROADMAP item 2: pgram.Parallelogram's absolute "
                    "DEGENERATE_TOL rejects the witness, cross(u, v) > 0",
                ),
            ),
        ],
    )
    def test_a_scaled_polygon_file_draws_the_unscaled_bytes(self, capsys, tmp_path, scale):
        # render draws at unit radius, so each configuration fits its box
        svgs = []
        for s in (1.0, scale):
            gon = linear_image(regular_polygon(6), [[s, 0.0], [0.0, s]])
            polygon, svg = tmp_path / f"p6_{s}.txt", tmp_path / f"p6_{s}.svg"
            polygon.write_text(format_polygon(gon))
            assert run(capsys, "render", str(polygon), str(svg))[0] == 0
            svgs.append(svg.read_bytes())
        assert svgs[1] == svgs[0]
        drawn = re.findall(r'(?:points|cx|cy)="([^"]*)"', svgs[1].decode())
        coords = [float(x) for text in drawn for x in re.split("[ ,]", text)]
        assert coords and max(map(abs, coords)) < 2.5

    def test_beta_square_render(self, capsys, tmp_path):
        path = tmp_path / "sq.svg"
        code, out, _ = run(capsys, "render", "P8", str(path), "--b", "0.2")
        assert code == 0
        assert value_of(out, "configurations") == "1"

    def test_numeric_b_rejected_for_other_polygons(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "P10", str(tmp_path / "x.svg"), "--b", "0.1")
        assert code == 2
        assert "P6 or a regular 8j-gon" in err

    @pytest.mark.parametrize("n, b", [(6, "0"), (16, "0.1")])
    def test_a_generated_file_draws_the_member_bytes(self, capsys, tmp_path, n, b):
        path = tmp_path / "out.svg"
        assert run(capsys, "render", gen_file(capsys, tmp_path, n), str(path), "--b", b)[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == MEMBER_SVG_SHA256[f"P{n}", b]

    @pytest.mark.parametrize("kind", ["image", "pair"])
    def test_numeric_b_rejected_for_a_file_that_is_not_exactly_regular(
        self, capsys, tmp_path, kind
    ):
        polygon, path = near_hexagon_file(tmp_path, kind), tmp_path / "x.svg"
        code, out, err = run(capsys, "render", polygon, str(path), "--b", "0")
        assert (code, out) == (2, "")
        assert "a family member needs P6 or a regular 8j-gon, j >= 1" in err
        assert not path.exists()

    def test_no_refine_flag_is_not_accepted(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as stopped:
            main(["render", "P6", str(tmp_path / "x.svg"), "--no-refine"])
        assert stopped.value.code == 2
        assert "unrecognized arguments: --no-refine" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["4097", "100000000"])
    def test_huge_grid_exits_with_the_bound(self, capsys, tmp_path, grid):
        path = tmp_path / "opt.svg"
        code, out, err = run(capsys, "render", "P6", str(path), "--grid", grid)
        assert code == 2
        assert out == ""
        assert f"grid must be at most 4096, got {grid}" in err
        assert "Traceback" not in err
        assert not path.exists()

    def test_bad_b_value(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "P6", str(tmp_path / "x.svg"), "--b", "best")
        assert code == 2
        assert "optimal" in err
