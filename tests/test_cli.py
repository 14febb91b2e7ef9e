import ast
import errno
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import reference_parser
from tanglecount import Partition, cli, oracle, partitions_of, species
from tanglecount.cli import main
from tanglecount.cycle_index import DegreeOutOfRange

VERIFY_CHECKS = (
    "rooted-enumeration-count",
    "unrooted-enumeration-count",
    "fix-count-vs-cycle-index",
    "closed-form-vs-solver",
    "burnside-vs-series[rooted-ordered]",
    "burnside-vs-series[rooted-unordered]",
    "burnside-vs-series[chain(k=3)]",
    "burnside-vs-series[chain-unordered(k=3)]",
    "burnside-vs-series[unrooted-ordered]",
    "burnside-vs-series[unrooted-unordered]",
    "wedderburn-etherington-consistency",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCounts:
    def test_chain_k2_n1(self, capsys):
        code, out, _ = run(capsys, "counts", "--family", "chain", "--k", "2", "--max-n", "1")
        assert code == 0
        assert out == "family\tn\tcount\nchain(k=2)\t1\t1\n"

    def test_rooted_unordered_table(self, capsys):
        code, out, _ = run(capsys, "counts", "--family", "rooted-unordered", "--max-n", "11")
        assert code == 0
        assert out.splitlines()[-1] == "rooted-unordered\t11\t6257905519"

    def test_unrooted_ordered_table(self, capsys):
        code, out, _ = run(capsys, "counts", "--family", "unrooted-ordered", "--max-n", "12")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "unrooted-ordered\t2\t1"  # rows start at n = 2
        assert lines[-1] == "unrooted-ordered\t12\t1076477512"

    def test_multiple_families_ordered_as_given(self, capsys):
        code, out, _ = run(
            capsys, "counts", "--family", "rooted-unordered",
            "--family", "rooted-ordered", "--max-n", "3",
        )
        assert code == 0
        families = [line.split("\t")[0] for line in out.splitlines()[1:]]
        assert families == ["rooted-unordered"] * 3 + ["rooted-ordered"] * 3

    def test_repeated_family_printed_once_in_first_place(self, capsys):
        code, out, _ = run(
            capsys, "counts", "--family", "chain", "--family", "rooted-ordered",
            "--family", "chain", "--k", "3", "--max-n", "5",
        )
        assert code == 0
        families = [line.split("\t")[0] for line in out.splitlines()[1:]]
        assert families == ["chain(k=3)"] * 5 + ["rooted-ordered"] * 5

    def test_json_schema_single_family(self, capsys):
        code, out, _ = run(
            capsys, "counts", "--family", "rooted-ordered", "--max-n", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "rooted-ordered"
        assert payload["counts"] == [
            {"n": 1, "value": "1"},
            {"n": 2, "value": "1"},
            {"n": 3, "value": "2"},
            {"n": 4, "value": "13"},
        ]

    def test_json_values_are_decimal_strings(self, capsys):
        _, out, _ = run(
            capsys, "counts", "--family", "rooted-unordered", "--max-n", "11",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["counts"][-1]["value"] == "6257905519"

    def test_bfile_round_trips_through_csv(self, capsys):
        args = ("counts", "--family", "rooted-ordered", "--family", "chain",
                "--k", "3", "--max-n", "6")
        _, bfile, _ = run(capsys, *args, "--format", "bfile")
        _, csv_text, _ = run(capsys, *args, "--format", "csv")

        from_bfile = []
        family = None
        for line in bfile.splitlines():
            if line.startswith("# "):
                family = line[2:]
            else:
                n, value = line.split()
                from_bfile.append((family, int(n), int(value)))
        from_csv = [
            (fam, int(n), int(value))
            for fam, n, value in (line.split(",") for line in csv_text.splitlines()[1:])
        ]
        assert from_bfile == from_csv

    def test_bfile_has_comment_header(self, capsys):
        _, out, _ = run(
            capsys, "counts", "--family", "unrooted-unordered", "--max-n", "4",
            "--format", "bfile",
        )
        assert out.splitlines()[0] == "# unrooted-unordered"

    def test_byte_identical_reruns(self, capsys):
        args = ("counts", "--family", "rooted-ordered", "--family",
                "unrooted-unordered", "--max-n", "8", "--format", "csv")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_output_file_survives_a_failed_run(self, capsys, monkeypatch, tmp_path):
        def broken(*args):
            raise RuntimeError("broken")

        monkeypatch.setattr(species, "count_table", broken)
        target = tmp_path / "keep.tsv"
        target.write_text("kept\n")
        code, _, err = run(
            capsys, "counts", "--family", "rooted-ordered", "--max-n", "5",
            "--output", str(target),
        )
        assert code == 1
        assert err.startswith("internal error:") and "broken" in err
        assert target.read_text() == "kept\n"

    def test_output_file_is_replaced(self, capsys, tmp_path):
        target = tmp_path / "counts.tsv"
        target.write_text("a longer text than the table of n <= 2\n" * 10)
        code, _, _ = run(
            capsys, "counts", "--family", "rooted-ordered", "--max-n", "2",
            "--output", str(target),
        )
        assert code == 0
        assert target.read_text() == "family\tn\tcount\nrooted-ordered\t1\t1\nrooted-ordered\t2\t1\n"
        # a device that refuses truncate, and stands at 0 when opened
        code, _, _ = run(
            capsys, "counts", "--family", "rooted-ordered", "--max-n", "2",
            "--output", os.devnull,
        )
        assert code == 0

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "counts.csv"
        code, out, _ = run(
            capsys, "counts", "--family", "rooted-ordered", "--max-n", "3",
            "--format", "csv", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "family,n,count\nrooted-ordered,1,1\nrooted-ordered,2,1\nrooted-ordered,3,2\n"

    def test_missing_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["counts", "--max-n", "3"])
        assert exc.value.code == 2

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["counts", "--family", "wibble", "--max-n", "3"])
        assert exc.value.code == 2

    def test_unrooted_needs_max_n_two(self, capsys):
        code, _, err = run(capsys, "counts", "--family", "unrooted-ordered", "--max-n", "1")
        assert code == 2
        assert "unrooted-ordered" in err

    def test_rooted_tables_to_200(self, capsys):
        code, out, _ = run(
            capsys, "counts", "--family", "rooted-ordered", "--family", "rooted-unordered",
            "--family", "chain", "--family", "chain-unordered", "--k", "3",
            "--max-n", "200",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 4 * 200
        assert lines[-1].startswith("chain-unordered(k=3)\t200\t")

    def test_unrooted_tables_to_40(self, capsys):
        code, out, _ = run(
            capsys, "counts", "--family", "unrooted-ordered", "--family",
            "unrooted-unordered", "--max-n", "40",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 2 * 39
        assert lines[-1].startswith("unrooted-unordered\t40\t")

    def test_counts_beyond_default_str_digit_cap(self, capsys):
        # 945^1500 / 720 at n = 6 has about 4460 digits
        code, out, _ = run(capsys, "counts", "--family", "chain", "--k", "1500", "--max-n", "6")
        assert code == 0
        assert len(out.splitlines()[-1].split("\t")[2]) > 4300

    def test_bad_chain_length_is_usage_error(self, capsys):
        code, _, err = run(capsys, "counts", "--family", "chain", "--k", "0", "--max-n", "3")
        assert code == 2
        assert err.startswith("error:") and "k >= 1" in err

    def test_internal_value_error_exits_one(self, capsys, monkeypatch):
        def broken(*args):
            raise ValueError("broken")

        monkeypatch.setattr(species, "count_table", broken)
        code, _, err = run(capsys, "counts", "--family", "unrooted-ordered", "--max-n", "3")
        assert code == 1
        assert err.startswith("internal error:") and "broken" in err

    # every CLI guard runs before the library's own guards, so one of these
    # raised past them is a bug, not a usage error
    @pytest.mark.parametrize(
        "module, name, error, argv",
        [
            (oracle, "burnside_count", oracle.SizeLimitExceeded, ("verify", "--max-n", "3")),
            (species, "closed_form_cycle_index", DegreeOutOfRange,
             ("zindex", "R", "--max-degree", "3")),
        ],
        ids=["SizeLimitExceeded", "DegreeOutOfRange"],
    )
    def test_internal_guard_error_exits_one(self, capsys, monkeypatch, module, name, error, argv):
        def broken(*args):
            raise error("broken")

        monkeypatch.setattr(module, name, broken)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("internal error:") and "broken" in err

    @pytest.mark.parametrize(
        "family, max_n",
        [("unrooted-unordered", 10_000), ("chain-unordered", 10_000)],
    )
    def test_guard_refuses_before_computing(self, capsys, monkeypatch, family, max_n):
        def forbidden(*args):
            raise AssertionError("computed past the guard")

        monkeypatch.setattr(species, "count_table", forbidden)
        code, _, err = run(
            capsys, "counts", "--family", "rooted-unordered", "--family", family,
            "--max-n", str(max_n),
        )
        assert code == 2
        assert "guard" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "unrooted-ordered", "--max-n", "2000"),
            ("--family", "rooted-ordered", "--max-n", "2100"),
            ("--family", "rooted-ordered", "--max-n", str(10**30)),
            ("--family", "rooted-ordered", "--max-n", str(10**400)),
            # each family alone is admitted (the limits below)
            ("--family", "unrooted-ordered", "--family", "unrooted-unordered",
             "--max-n", "1500"),
        ],
        ids=["unrooted-ordered-2000", "rooted-ordered-2100", "1e30", "1e400",
             "both-unrooted-1500"],
    )
    def test_guard_refuses_past_the_model(self, capsys, monkeypatch, argv):
        def forbidden(*args):
            raise AssertionError("computed past the guard")

        monkeypatch.setattr(species, "count_table", forbidden)
        start = time.perf_counter()
        code, _, err = run(capsys, "counts", *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert "guard" in err

    # the largest n that the time model admits for each family alone, k = 3
    # for the chains; no fixed cap on n stands before it
    LIMITS = {
        "rooted-ordered": 2092,
        "rooted-unordered": 1784,
        "unrooted-ordered": 1878,
        "unrooted-unordered": 1579,
        "chain": 1875,
        "chain-unordered": 1465,
    }

    @pytest.mark.parametrize("family", ["unrooted-ordered", "unrooted-unordered"])
    def test_unrooted_guard_admits_its_limit(self, capsys, monkeypatch, family):
        self.check_limit(capsys, monkeypatch, family)

    @pytest.mark.parametrize("family", ["rooted-ordered", "rooted-unordered", "chain",
                                        "chain-unordered"])
    def test_rooted_guard_admits_its_limit(self, capsys, monkeypatch, family):
        self.check_limit(capsys, monkeypatch, family)

    def check_limit(self, capsys, monkeypatch, family):
        monkeypatch.setattr(species, "count_table", lambda fam, max_n: [0] * (max_n + 1))
        limit = self.LIMITS[family]
        for max_n, expected in ((601, 0), (limit, 0), (limit + 1, 2)):
            code, _, _ = run(
                capsys, "counts", "--family", family, "--k", "3", "--max-n", str(max_n)
            )
            assert code == expected, max_n

    @pytest.mark.parametrize("k, max_n", [(10**6, 10), (31, 22), (20, 400), (12, 600)])
    def test_chain_pass_guard_refuses_before_computing(self, capsys, monkeypatch, k, max_n):
        def forbidden(*args):
            raise AssertionError("computed past the guard")

        monkeypatch.setattr(species, "count_table", forbidden)
        code, _, err = run(
            capsys, "counts", "--family", "chain-unordered", "--k", str(k),
            "--max-n", str(max_n),
        )
        assert code == 2
        assert "guard" in err and "chain-unordered" in err

    @pytest.mark.parametrize("k, max_n", [(30, 22), (30, 100), (4, 600)])
    def test_chain_pass_guard_admits(self, capsys, monkeypatch, k, max_n):
        monkeypatch.setattr(species, "count_table", lambda fam, max_n: [0] * (max_n + 1))
        code, _, _ = run(
            capsys, "counts", "--family", "chain-unordered", "--k", str(k),
            "--max-n", str(max_n),
        )
        assert code == 0

    # (500, 200): 33.7 s of passes and 48.8 s of printing by the model
    @pytest.mark.parametrize(
        "k, max_n", [(150, 600), (2000, 200), (5000, 100), (10**6, 10), (500, 200)]
    )
    def test_ordered_chain_guard_refuses_before_computing(self, capsys, monkeypatch, k, max_n):
        def forbidden(*args):
            raise AssertionError("computed past the guard")

        monkeypatch.setattr(species, "count_table", forbidden)
        code, _, err = run(
            capsys, "counts", "--family", "chain", "--k", str(k), "--max-n", str(max_n)
        )
        assert code == 2
        assert "guard" in err and f"chain(k={k})" in err

    @pytest.mark.parametrize("k, max_n", [(1500, 6), (10, 600), (100, 200), (30, 600)])
    def test_ordered_chain_guard_admits(self, capsys, monkeypatch, k, max_n):
        monkeypatch.setattr(species, "count_table", lambda fam, max_n: [0] * (max_n + 1))
        code, _, _ = run(
            capsys, "counts", "--family", "chain", "--k", str(k), "--max-n", str(max_n)
        )
        assert code == 0


class TestZindex:
    def test_r_degree_two(self, capsys):
        code, out, _ = run(capsys, "zindex", "R", "--max-degree", "2")
        assert code == 0
        assert out == "p[1] + 1/2 p[1,1] + 1/2 p[2]\n"

    def test_r_degree_one(self, capsys):
        code, out, _ = run(capsys, "zindex", "R", "--max-degree", "1")
        assert code == 0
        assert out == "p[1]\n"

    def test_u_degree_three(self, capsys):
        code, out, _ = run(capsys, "zindex", "U", "--max-degree", "3")
        assert code == 0
        assert "1/3 p[3]" in out

    def test_u_requires_degree_two(self, capsys):
        code, _, err = run(capsys, "zindex", "U", "--max-degree", "1")
        assert code == 2
        assert "max-degree" in err

    def test_r_requires_degree_one(self, capsys):
        code, _, err = run(capsys, "zindex", "R", "--max-degree", "0")
        assert code == 2
        assert "max-degree" in err

    def test_guard(self, capsys):
        code, _, err = run(capsys, "zindex", "R", "--max-degree", str(species.SERIES_LIMIT + 1))
        assert code == 2
        assert "guard" in err


class TestGf:
    def test_r_matches_wedderburn(self, capsys):
        code, out, _ = run(capsys, "gf", "R", "--max-n", "8")
        assert code == 0
        values = [int(line.split("\t")[2]) for line in out.splitlines()[1:]]
        assert values == [1, 1, 1, 2, 3, 6, 11, 23]

    def test_u_bfile(self, capsys):
        code, out, _ = run(capsys, "gf", "U", "--max-n", "6", "--format", "bfile")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# U-unlabeled"
        # unlabeled unrooted binary trees: one shape through n = 5, two at n = 6
        # (verified by explicit orbit counting over the enumerated trees)
        assert [int(l.split()[1]) for l in lines[1:]] == [1, 1, 1, 1, 2]

    def test_r_requires_max_n_one(self, capsys):
        code, _, err = run(capsys, "gf", "R", "--max-n", "0")
        assert code == 2
        assert "max-n" in err

    def test_u_requires_max_n_two(self, capsys):
        code, _, err = run(capsys, "gf", "U", "--max-n", "1")
        assert code == 2
        assert "max-n" in err

    # gf is the count table of chain(1), under the guard of counts
    def test_guard(self, capsys):
        assert species.table_guard([species.chain(1)], 3000) is not None
        code, _, err = run(capsys, "gf", "U", "--max-n", "3000")
        assert code == 2
        assert "guard" in err

    def test_r_past_the_series_guard(self, capsys):
        code, out, _ = run(capsys, "gf", "R", "--max-n", str(species.SERIES_LIMIT + 1))
        assert code == 0
        assert out.splitlines()[-1].startswith(f"R-unlabeled\t{species.SERIES_LIMIT + 1}\t")

    def test_r_is_wedderburn_etherington_to_1000(self, capsys):
        code, out, _ = run(capsys, "gf", "R", "--max-n", "1000")
        assert code == 0
        values = [int(line.split("\t")[2]) for line in out.splitlines()[1:]]
        assert values == species.wedderburn_etherington(1000)[1:]

    # the closed-form series reads u_direct on the support, a route that
    # does not go through Otter's step
    def test_u_is_the_closed_form_series_to_60(self, capsys):
        code, out, _ = run(capsys, "gf", "U", "--max-n", "60")
        assert code == 0
        values = [int(line.split("\t")[2]) for line in out.splitlines()[1:]]
        assert values == species.closed_form_cycle_index(60, True).unlabeled_gf()[2:]

    def test_non_integer_coefficient_is_internal_error(self, capsys, monkeypatch):
        # an integral rooted table always gives an integral h3[R]; half a
        # tree at n = 2 makes Otter's division by 6 inexact at n = 4
        monkeypatch.setattr(
            species, "count_table", lambda family, max_n: [0, 1, Fraction(1, 2), 1, 1]
        )
        code, out, err = run(capsys, "gf", "U", "--max-n", "4")
        assert code == 1 and out == ""
        assert err.startswith(
            "internal error: NonIntegerCount: unrooted tree count at 4 evaluated to non-integer 3/6"
        )


class TestVerify:
    def test_passes_at_small_n(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_passes_at_the_oracle_guard(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", str(oracle.ORACLE_LIMIT))
        assert code == 0
        assert out.splitlines() == [f"PASS {name}" for name in VERIFY_CHECKS]

    def test_trivial_single_tree(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "1")
        assert code == 0
        assert "FAIL" not in out

    def test_one_table_per_family(self, capsys, monkeypatch):
        calls = []
        table = species.count_table

        def counted(fam, max_n):
            calls.append((fam.label, max_n))
            return table(fam, max_n)

        def forbidden(*args):
            raise AssertionError("count called per row")

        monkeypatch.setattr(species, "count_table", counted)
        monkeypatch.setattr(species, "count", forbidden)
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == 0 and "FAIL" not in out
        assert sorted(calls) == sorted(
            (label, 4) for label in (
                "rooted-ordered", "rooted-unordered", "chain(k=3)",
                "chain-unordered(k=3)", "unrooted-ordered", "unrooted-unordered",
            )
        )

    def test_one_enumeration_per_size_and_kind(self, capsys, monkeypatch):
        calls = []

        def counted(name):
            enumerate_trees = getattr(oracle, name)

            def wrapper(n):
                calls.append((name, n))
                return enumerate_trees(n)

            return wrapper

        for name in ("enumerate_rooted", "enumerate_unrooted"):
            monkeypatch.setattr(oracle, name, counted(name))
        oracle.fixed_counts.cache_clear()
        code, out, _ = run(capsys, "verify", "--max-n", "5")
        assert code == 0
        assert len(calls) == len(set(calls))
        assert sorted(calls) == sorted(
            [("enumerate_rooted", n) for n in range(1, 6)]
            + [("enumerate_unrooted", n) for n in range(2, 6)]
        )
        assert out.splitlines() == [f"PASS {name}" for name in VERIFY_CHECKS]

    def test_fail_lines_name_the_first_bad_cycle_type(self, capsys, monkeypatch):
        calls = []
        coefficient = species.r_coefficient
        wrong = {Partition((1,) * 3), Partition((1,) * 5)}

        def off(lam, zr):
            calls.append(lam)
            return coefficient(lam, zr) + (lam in wrong)

        monkeypatch.setattr(species, "r_coefficient", off)
        code, out, _ = run(capsys, "verify", "--max-n", "6")
        assert code == 1
        lines = out.splitlines()
        assert "FAIL fix-count-vs-cycle-index: cycle type [1,1,1]" in lines
        assert "FAIL closed-form-vs-solver: cycle type [1,1,1]" in lines
        assert sum(line.startswith("FAIL") for line in lines) == 2
        # one read per cycle type of every n <= 6, the empty one included
        assert Counter(calls) == Counter(lam for n in range(7) for lam in partitions_of(n))

    def test_guard_violation_exits_two(self, capsys):
        for max_n in (oracle.ORACLE_LIMIT + 1, 99):
            code, _, err = run(capsys, "verify", "--max-n", str(max_n))
            assert code == 2
            assert "guard" in err


# argv that argparse read, and how: values, exit 2 or exit 0 (help)
PARSER_CASES = [
    # each subcommand with its defaults
    ["counts", "--family", "chain", "--max-n", "3"],
    ["zindex", "R", "--max-degree", "4"],
    ["gf", "U", "--max-n", "5"],
    ["verify"],
    ["verify", "--max-n", "7"],
    # the = form, abbreviations, order, and values that start with "-"
    ["counts", "--family=chain", "--max-n=3", "--k=4"],
    ["counts", "--fam", "chain", "--max", "3", "--form", "csv", "--out", "x.csv"],
    ["zindex", "--max-d", "3", "U"],
    ["gf", "R", "--max-n=4", "--format=bfile", "--output="],
    ["counts", "--family", "chain", "--max-n", "3", "--k", "-1", "--output", "-"],
    ["zindex", "--max-degree", "3", "--", "R"],
    ["zindex", "R", "--max-degree", "3", "--"],
    ["verify", "--"],
    ["counts", "--family", "chain", "--max-n", "3", "--max-n", "5"],
    # repeated --family, in the order given
    ["counts", "--family", "chain", "--family", "rooted-ordered", "--family", "chain",
     "--max-n", "3"],
    ["counts", "--family", "rooted-unordered", "--max-n", "3", "--family", "rooted-ordered"],
    # a required argument missing
    [],
    ["counts", "--max-n", "3"],
    ["counts", "--family", "chain"],
    ["zindex", "--max-degree", "3"],
    ["gf", "--max-n", "3"],
    # a bad choice or a non-integer
    ["bogus"],
    ["counts", "--family", "wibble", "--max-n", "3"],
    ["counts", "--family", "chain", "--max-n", "3", "--format", "xml"],
    ["zindex", "X", "--max-degree", "3"],
    ["counts", "--family", "chain", "--k", "x", "--max-n", "3"],
    ["verify", "--max-n", "2.5"],
    # an unknown or ambiguous option, or an extra positional
    ["verify", "--bogus"],
    ["--bogus", "counts", "--family", "chain", "--max-n", "3"],
    ["counts", "--f", "chain", "--max-n", "3"],
    ["zindex", "R", "U", "--max-degree", "3"],
    ["verify", "extra"],
    # an option with no value
    ["counts", "--family", "chain", "--max-n"],
    ["counts", "--family", "--max-n", "3"],
    ["zindex", "R", "--max-degree", "3", "--output", "--", "x"],
    ["--help=x"],
    # help, at top level and after each subcommand
    ["--help"],
    ["-h"],
    ["counts", "--help"],
    ["counts", "--family", "chain", "--he"],
    ["zindex", "-h"],
    ["zindex", "-hh"],
    ["gf", "--help"],
    ["verify", "--help"],
]


def parsed(parse, argv):
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "no-arguments"
    )
    def test_parse_reads_argv_like_argparse(self, capsys, argv):
        expected = parsed(reference_parser().parse_args, argv)
        capsys.readouterr()
        got = parsed(cli.parse, argv)
        out, err = capsys.readouterr()
        assert got == expected
        if got == 2:
            usage, error = err.splitlines()
            assert usage.startswith("usage: tanglecount")
            assert ": error: " in error
        elif got == 0:
            assert out.startswith("usage: tanglecount") and err == ""

    @pytest.mark.parametrize("command", [None, *cli._COMMANDS])
    def test_help_lists_every_argument(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(["--help"] if command is None else [command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        if command is None:
            names = list(cli._COMMANDS)
        else:
            names = [spec[0] for spec in cli._COMMANDS[command][1]]
        assert out.startswith("usage: tanglecount")
        for name in ["-h, --help", *names]:
            assert f"\n  {name} " in out, name

    def test_main_calls_the_cmd_attribute_bound_at_call_time(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args) or 0)
        assert main(["verify", "--max-n", "3"]) == 0
        assert [vars(args) for args in seen] == [{"command": "verify", "max_n": 3}]

    @pytest.mark.parametrize(
        "where, reason",
        [("missing/x.tsv", "No such file or directory"), (".", "Is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_output_that_cannot_be_opened_is_usage_error(self, capsys, tmp_path, where, reason):
        target = tmp_path / where
        code, out, err = run(
            capsys, "counts", "--family", "chain", "--k", "3", "--max-n", "3",
            "--output", str(target),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {target}: {reason}\n"

    # the destination opens after the guards and before any counting
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["counts", "--family", "rooted-ordered", "--family", "unrooted-ordered",
              "--max-n", "600"], "count_table"),
            (["zindex", "U", "--max-degree", "40"], "closed_form_cycle_index"),
            (["gf", "U", "--max-n", "40"], "count_table"),
        ],
        ids=["counts", "zindex", "gf"],
    )
    def test_output_is_opened_before_computing(self, capsys, monkeypatch, tmp_path, argv, name):
        def forbidden(*args):
            raise AssertionError("computed before opening the output")

        monkeypatch.setattr(species, name, forbidden)
        target = tmp_path / "missing" / "x.tsv"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"

    # about 114 KB of table, more than a pipe buffers (64 KiB on Linux),
    # closed after its first bytes; the help, closed before it is written
    @pytest.mark.parametrize(
        "argv, read",
        [(["counts", "--family", "rooted-ordered", "--max-n", "300"], 100), (["--help"], 0)],
        ids=["table", "help"],
    )
    def test_closed_stdout_exits_one_without_traceback(self, argv, read):
        src = Path(__file__).resolve().parents[1] / "src"
        # unbuffered, stdout is a raw file whose short write to a closing
        # pipe the text layer drops without an error, so none could show
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(src)
        child = subprocess.Popen(
            [sys.executable, "-m", "tanglecount.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
        )
        try:
            child.stdout.read(read)  # unbuffered: reads no more than this
            child.stdout.close()
            code = child.wait(timeout=120)
        finally:
            child.kill()
        assert code == 1
        assert child.stderr.read() == b""
        child.stderr.close()

    # a full disk, where /dev/full stands for one: a table that fits the
    # stream's buffer and fails at the flush, and one that fails as written
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("max_n", ["5", "300"])
    @pytest.mark.parametrize("where", ["stdout", "/dev/full"])
    def test_failed_write_exits_one_without_traceback(self, where, max_n):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-m", "tanglecount.cli", "counts", "--family", "rooted-ordered",
                "--max-n", max_n]
        if where != "stdout":
            argv += ["--output", where]
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                argv, env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120
            )
        assert done.returncode == 1
        # no traceback, and no "Exception ignored" from the flush at exit
        assert done.stderr == f"error: cannot write {where}: {os.strerror(errno.ENOSPC)}\n"


# Runs in a fresh interpreter: diffs sys.modules around importing the CLI and
# around a counts run, then uses the series names that load on first use.
_START_UP_SCRIPT = """
import io, sys
from contextlib import redirect_stdout
before = set(sys.modules)
import tanglecount.cli
imported = sorted(set(sys.modules) - before)
families = []
for kind in ("rooted-ordered", "rooted-unordered", "chain", "chain-unordered",
             "unrooted-ordered", "unrooted-unordered"):
    families += ["--family", kind]
with redirect_stdout(io.StringIO()):
    code = tanglecount.cli.main(["counts", *families, "--k", "3", "--max-n", "30"])
counted = sorted(set(sys.modules) - before)
assert code == 0, code
with redirect_stdout(io.StringIO()):
    code = tanglecount.cli.main(["gf", "U", "--max-n", "12"])
gf = sorted(set(sys.modules) - before)
assert code == 0, code

from tanglecount import p1, CycleIndexSeries
assert isinstance(p1(3), CycleIndexSeries)
from tanglecount import *
missing = [name for name in tanglecount.__all__ if name not in globals()]
assert not missing, missing

with redirect_stdout(io.StringIO()) as verify_out:
    verify = tanglecount.cli.main(["verify", "--max-n", "4"])
with redirect_stdout(io.StringIO()) as zindex_out:
    zindex = tanglecount.cli.main(["zindex", "R", "--max-degree", "5"])
print(repr((imported, counted, gf, verify, verify_out.getvalue(), zindex,
            zindex_out.getvalue())))
"""


# Runs in a fresh interpreter: zindex and gf print the closed-form series,
# so neither solver runs, not even once.
_NO_SOLVE_SCRIPT = """
import io
from contextlib import redirect_stdout
from tanglecount import cli, species
with redirect_stdout(io.StringIO()):
    codes = [cli.main(["zindex", "U", "--max-degree", "12"]),
             cli.main(["gf", "U", "--max-n", "12"])]
solves = [species.binary_tree_cycle_index.cache_info().misses,
          species.unrooted_tree_cycle_index.cache_info().misses]
print(repr((codes, solves)))
"""


class TestStartUp:
    def test_counts_loads_no_series_or_dataclasses(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        # -S: a site .pth that imports modules (typing, re, ...) at start-up
        # would hide them from the sys.modules diff
        done = subprocess.run(
            [sys.executable, "-S", "-c", _START_UP_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        imported, counted, gf, verify, verify_out, zindex, zindex_out = ast.literal_eval(
            done.stdout
        )
        assert "tanglecount.cli" in imported
        for unused in ("dataclasses", "inspect", "fractions", "decimal",
                       "tanglecount.cycle_index", "tanglecount.oracle",
                       "argparse", "gettext", "locale", "typing", "re", "enum"):
            assert unused not in imported, unused
            assert unused not in counted, unused
            assert unused not in gf, unused
        # the series route and the oracle still work once asked for
        assert verify == 0
        assert verify_out.splitlines() == [f"PASS {name}" for name in VERIFY_CHECKS]
        assert zindex == 0
        assert zindex_out == species.binary_tree_cycle_index(5).render() + "\n"

    def test_zindex_and_gf_solve_nothing(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", _NO_SOLVE_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert ast.literal_eval(done.stdout) == ([0, 0], [0, 0])
