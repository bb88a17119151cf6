"""End-to-end command behavior: outputs, determinism, exit codes."""

import hashlib
import json
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import DEEP_D6, horner_eval, run_fresh_python
from sheafloci.cli import console_main
from sheafloci.localfree import random_membership_germ
from sheafloci.poly import parse_homogeneous
from sheafloci.rng import SplitMix64
from sheafloci.schemes import MAX_DEGREE
from sheafloci.serialize import MAX_GERM_DEGREE, MAX_MULT

CONIC_D5 = {
    "degree": 5,
    "simple": [["1", str(t), str(t * t)] for t in range(6)],
    "fat": [],
}


def run(capsys, *argv):
    code = console_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestRandom:
    def test_deterministic_bytes(self, capsys):
        code1, out1, _ = run(capsys, "random", "--degree", "5", "--seed", "42")
        code2, out2, _ = run(capsys, "random", "--degree", "5", "--seed", "42")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.endswith("\n")

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run(capsys, "random", "--degree", "5", "--seed", "1")
        _, out2, _ = run(capsys, "random", "--degree", "5", "--seed", "2")
        assert out1 != out2

    def test_double_stratum(self, capsys, tmp_path):
        out = tmp_path / "cfg.json"
        code, stdout, _ = run(
            capsys, "random", "--degree", "4", "--seed", "9",
            "--stratum", "double", "--out", str(out),
        )
        assert code == 0
        assert stdout == ""
        payload = json.loads(out.read_text())
        assert len(payload["fat"]) == 1


class TestAnalyze:
    def test_report_round_trip(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        run(capsys, "random", "--degree", "4", "--seed", "3", "--out", str(cfg))
        code, out, _ = run(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        report = json.loads(out)
        assert report["fibre_dim"] == 11
        assert [p["codim"] for p in report["points"]] == [2, 2, 2]
        assert report["violations"] == []

    def test_deterministic_bytes(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        run(capsys, "random", "--degree", "5", "--seed", "8", "--out", str(cfg))
        _, out1, _ = run(capsys, "analyze", "--config", str(cfg))
        _, out2, _ = run(capsys, "analyze", "--config", str(cfg))
        assert out1 == out2

    def test_subset_flag(self, capsys, tmp_path):
        cfg = tmp_path / "ref.json"
        run(capsys, "verify-remark6", "--emit-config", str(cfg))
        code, out, _ = run(
            capsys, "analyze", "--config", str(cfg),
            "--subset", "1,2,3,4", "--subset", "1,2,3,4,5",
        )
        assert code == 0
        report = json.loads(out)
        got = {tuple(s["ids"]): s["codim"] for s in report["subsets"]}
        assert got == {(1, 2, 3, 4): 8, (1, 2, 3, 4, 5): 9}

    def test_degree_mismatch_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        run(capsys, "random", "--degree", "4", "--seed", "3", "--out", str(cfg))
        code, _, err = run(capsys, "analyze", "--config", str(cfg), "--degree", "5")
        assert code == 1
        assert "does not match" in err

    # sha256 prefixes of analyze --triples --subset 1,2,3 --subset 3,1 on
    # random --degree d --seed s --stratum st, keyed by (st, d, s): points,
    # pairs and triples are uniform record lists, and the subsets of
    # sizes 3 and 2 are not
    REPORT_DIGESTS = {
        ("generic", 5, 1): "12a812da2e9f3c08",
        ("generic", 5, 2): "12a812da2e9f3c08",
        ("generic", 6, 1): "ecebb6364864da8d",
        ("generic", 6, 2): "ecebb6364864da8d",
        ("generic", 7, 1): "2b86e34e3cedc750",
        ("generic", 7, 2): "2b86e34e3cedc750",
        ("generic", 8, 1): "74c0130efc9ebb51",
        ("generic", 8, 2): "74c0130efc9ebb51",
        ("double", 5, 1): "6c2e0fd20f65dabe",
        ("double", 5, 2): "6c2e0fd20f65dabe",
        ("double", 6, 1): "9dc9ab74c6f64e3e",
        ("double", 6, 2): "9dc9ab74c6f64e3e",
        ("double", 7, 1): "c5553d16634a74ac",
        ("double", 7, 2): "32b93b47104ba11d",
        ("double", 8, 1): "21d1612f78c9cca1",
        ("double", 8, 2): "0040a5b578bf3bf4",
    }

    @pytest.mark.parametrize("stratum,degree,seed", sorted(REPORT_DIGESTS))
    def test_report_bytes_are_pinned(self, capsys, tmp_path, stratum, degree, seed):
        cfg = str(tmp_path / "cfg.json")
        run(
            capsys, "random", "--degree", str(degree), "--seed", str(seed),
            "--stratum", stratum, "--out", cfg,
        )
        code, out, _ = run(
            capsys, "analyze", "--config", cfg, "--triples",
            "--subset", "1,2,3", "--subset", "3,1",
        )
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]
        assert digest == self.REPORT_DIGESTS[stratum, degree, seed]

    def test_out_writes_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        report = tmp_path / "report.json"
        run(capsys, "random", "--degree", "4", "--seed", "3", "--out", str(cfg))
        code, out, _ = run(
            capsys, "analyze", "--config", str(cfg), "--out", str(report)
        )
        assert code == 0 and out == ""
        text = report.read_text()
        assert text.endswith("\n")
        json.loads(text)


class TestGenericityExit:
    @pytest.mark.parametrize("command", ["analyze", "kronecker"])
    def test_conic_exits_two_with_certificate(self, capsys, tmp_path, command):
        cfg = write_json(tmp_path / "conic.json", CONIC_D5)
        code, out, _ = run(capsys, command, "--config", cfg)
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "genericity"
        cert = parse_homogeneous(payload["certificate"])
        assert cert.degree == 2
        for t in range(6):
            assert horner_eval(cert, (1, t, t * t)) == 0


class TestDeepStratumExit:
    def test_triple_point_exits_zero_with_report(self, capsys, tmp_path):
        from sheafloci.linsys import fibre
        from sheafloci.serialize import canonical_dumps, config_from_dict, report_to_dict
        from sheafloci.singloci import locus_report

        cfg = write_json(tmp_path / "deep.json", DEEP_D6)
        code, out, err = run(capsys, "analyze", "--config", cfg)
        assert (code, err) == (0, "")
        rep = locus_report(fibre(config_from_dict(DEEP_D6)), pairs=True)
        assert out == canonical_dumps(report_to_dict(rep))
        report = json.loads(out)
        assert report["stratum"] == "deep"
        assert report["points"][-1]["kind"] == "fat"
        assert report["violations"] == []


class TestVerifyRemark6:
    def test_reference_passes(self, capsys):
        code, out, _ = run(capsys, "verify-remark6")
        assert code == 0
        assert "59 of 59 checks passed" in out
        assert "FAIL" not in out

    def test_emitted_config_verifies(self, capsys, tmp_path):
        cfg = tmp_path / "ref.json"
        code, _, _ = run(capsys, "verify-remark6", "--emit-config", str(cfg))
        assert code == 0
        code, out, _ = run(
            capsys, "analyze", "--config", str(cfg),
            "--subset", "1,2,3", "--subset", "1,2,3,4", "--subset", "1,2,3,4,5",
        )
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == []
        got = {tuple(s["ids"]): s["codim"] for s in report["subsets"]}
        assert got == {(1, 2, 3): 6, (1, 2, 3, 4): 8, (1, 2, 3, 4, 5): 9}


class TestKronecker:
    def test_payload(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        run(capsys, "random", "--degree", "5", "--seed", "4", "--out", str(cfg))
        code, out, _ = run(capsys, "kronecker", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["injective"] is True and payload["stable"] is True
        assert len(payload["phi"]) == 4
        assert all(len(row) == 3 for row in payload["phi"])

    @pytest.mark.parametrize(
        "make_config,digest",
        [
            (("verify-remark6", "--emit-config"), "cd4856405cf367db"),
            (
                ("random", "--degree", "5", "--seed", "21", "--stratum", "double", "--out"),
                "3e26049a9aa24d26",
            ),
        ],
    )
    def test_payload_bytes_are_pinned(self, capsys, tmp_path, make_config, digest):
        cfg = str(tmp_path / "cfg.json")
        run(capsys, *make_config, cfg)
        code, out, _ = run(capsys, "kronecker", "--config", cfg)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == digest

    # sha256 prefixes of the kronecker payloads for random --degree d
    # --seed s --stratum st, keyed by (st, d, s)
    SEEDED_DIGESTS = {
        ("generic", 4, 1): "23df4646006dc7db",
        ("generic", 4, 2): "00bb32df61726dcb",
        ("generic", 5, 1): "c5e9465795b11799",
        ("generic", 5, 2): "6f18b598bf0410de",
        ("generic", 6, 1): "1c8e98ec398bfc24",
        ("generic", 6, 2): "5eb6fef68795ed77",
        ("generic", 7, 1): "3cd0781130b87d41",
        ("generic", 7, 2): "f7e620192632c616",
        ("generic", 8, 1): "a7167468a919e43b",
        ("generic", 8, 2): "ed1a167d284f4b35",
        ("double", 4, 1): "269a98a2996ce701",
        ("double", 4, 2): "0c76fa2b58b136aa",
        ("double", 5, 1): "d855eb26f4ae212b",
        ("double", 5, 2): "436e69a3436a9d4a",
        ("double", 6, 1): "d2264f0c13e1d5f8",
        ("double", 6, 2): "e52dbc4488d89489",
        ("double", 7, 1): "a581c386350294ae",
        ("double", 7, 2): "4e200d391efad08e",
        ("double", 8, 1): "bde42353b228aca2",
        ("double", 8, 2): "ab3242ae6c803925",
    }

    @pytest.mark.parametrize("stratum,degree,seed", sorted(SEEDED_DIGESTS))
    def test_seeded_payload_bytes_are_pinned(self, capsys, tmp_path, stratum, degree, seed):
        cfg = str(tmp_path / "cfg.json")
        run(
            capsys, "random", "--degree", str(degree), "--seed", str(seed),
            "--stratum", stratum, "--out", cfg,
        )
        code, out, _ = run(capsys, "kronecker", "--config", cfg)
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]
        assert digest == self.SEEDED_DIGESTS[stratum, degree, seed]


class TestLocalFree:
    def test_flag_route(self, capsys):
        code, out, _ = run(
            capsys, "localfree", "--poly", "x*y", "--mult", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["free"] is False and payload["jet_free"] is False

    def test_file_route_matches_flags(self, capsys, tmp_path):
        query = {"f": "x^2 - y^3 + x*y^2", "h": ["0", "2"], "mult": 2}
        path = write_json(tmp_path / "q.json", query)
        _, out_file, _ = run(capsys, "localfree", "--in", path)
        _, out_flags, _ = run(
            capsys, "localfree", "--poly", query["f"], "--h", "0,2", "--mult", "2"
        )
        assert out_file == out_flags

    def test_both_routes_rejected(self, capsys, tmp_path):
        path = write_json(tmp_path / "q.json", {"f": "x*y", "h": ["0"], "mult": 2})
        code, _, err = run(
            capsys, "localfree", "--in", path, "--poly", "x*y"
        )
        assert code == 1 and "not both" in err

    def test_file_route_rejects_flag_data(self, capsys, tmp_path):
        path = write_json(tmp_path / "q.json", {"f": "x*y", "h": ["0"], "mult": 2})
        code, out, err = run(
            capsys, "localfree", "--in", path, "--mult", "3", "--h", "0,1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not both" in err and "--mult" in err and "--h" in err

    def test_missing_mult_rejected(self, capsys):
        code, _, err = run(capsys, "localfree", "--poly", "x*y")
        assert code == 1 and "--mult" in err

    def test_bad_poly_is_exit_one(self, capsys):
        code, _, err = run(
            capsys, "localfree", "--poly", "x +* y", "--mult", "2"
        )
        assert code == 1 and "error" in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "nonsense")
        assert code == 1
        assert "invalid choice" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--config", "/nonexistent.json")
        assert code == 1

    def test_invalid_json_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "analyze", "--config", str(path))
        assert code == 1 and err.startswith("error: invalid JSON: ")

    def test_schema_violation_is_exit_one(self, capsys, tmp_path):
        path = write_json(tmp_path / "bad.json", {"degree": 4, "simple": []})
        code, _, err = run(capsys, "analyze", "--config", str(path))
        assert code == 1 and "fat" in err

    def test_bad_subset_text(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        run(capsys, "random", "--degree", "4", "--seed", "3", "--out", str(cfg))
        code, _, err = run(
            capsys, "analyze", "--config", str(cfg), "--subset", "1,two"
        )
        assert code == 1 and "subset" in err

    @pytest.mark.parametrize("ids", ["99", "0,1", "1,1"])
    def test_subset_ids_out_of_range_or_repeated(self, capsys, tmp_path, ids):
        cfg = tmp_path / "cfg.json"
        run(capsys, "random", "--degree", "4", "--seed", "3", "--out", str(cfg))
        code, out, err = run(capsys, "analyze", "--config", str(cfg), "--subset", ids)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("analyze", "--config"),
            ("kronecker", "--config"),
            ("localfree", "--in"),
        ],
    )
    def test_non_utf8_file_is_exit_one(self, capsys, tmp_path, command, flag):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, command, flag, str(path))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "UTF-8" in err

    @pytest.mark.parametrize(
        "command,flag,kind",
        [
            (command, flag, kind)
            for command, flag in (
                ("analyze", "--config"),
                ("kronecker", "--config"),
                ("localfree", "--in"),
            )
            for kind in [
                "empty",
                "bad-json",
                "list",
                "missing-key",
                "wrong-type",
                "non-utf8",
                "long-rational",
                "long-integer",
                "deep",
            ]
            + (["singular-chart", "chart-off-support"] if flag == "--config" else [])
        ],
    )
    def test_malformed_file_is_exit_one(self, capsys, tmp_path, command, flag, kind):
        # schema-valid, but past Python's 4300-digit limit on int conversion
        huge = "1" + "0" * 4300
        if flag == "--in":
            missing = {"f": "x*y", "h": ["0"]}
            wrong = {"f": "x*y", "h": ["0"], "mult": "two"}
            long_rational = {"f": "x*y", "h": ["0", huge], "mult": 2}
            long_integer = '{"f": "x*y", "h": ["0"], "mult": %s}' % huge
            charts = {}
        else:
            points = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
            missing = {"degree": 4, "simple": points}
            wrong = {"degree": "four", "simple": points, "fat": []}
            long_rational = {"degree": 6, "simple": [[huge, "0", "1"]] + points, "fat": []}
            long_integer = '{"degree": %s, "simple": [], "fat": []}' % huge
            # serialize inverts the chart, so a singular one must not reach
            # inverse's ValueError
            singular = json.loads(json.dumps(DEEP_D6))
            singular["fat"][0]["chart"][2] = ["-1", "1", "0"]
            off_support = json.loads(json.dumps(DEEP_D6))
            off_support["fat"][0]["support"] = ["1", "3", "5"]
            charts = {"singular-chart": singular, "chart-off-support": off_support}
        content = {
            "empty": b"",
            "bad-json": b"{not json",
            "list": b"[]",
            "missing-key": json.dumps(missing).encode(),
            "wrong-type": json.dumps(wrong).encode(),
            "non-utf8": b"\xff\xfe{",
            "long-rational": json.dumps(long_rational).encode(),
            "long-integer": long_integer.encode(),
            "deep": b"[" * 100000 + b"]" * 100000,
            **{name: json.dumps(payload).encode() for name, payload in charts.items()},
        }[kind]
        path = tmp_path / "input.json"
        path.write_bytes(content)
        code, out, err = run(capsys, command, flag, str(path))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        expected = {
            "singular-chart": "error: chart matrix must be invertible\n",
            "chart-off-support": "error: chart must move the support to (1:0:0)\n",
        }
        assert err == expected.get(kind, err)

    @pytest.mark.parametrize("payload", ["[]", '"x"', "3", "null"])
    def test_non_object_query_with_truncation_is_exit_one(self, capsys, tmp_path, payload):
        # the schema's type check refuses the payload before any field is read
        path = tmp_path / "query.json"
        path.write_text(payload)
        code, out, err = run(capsys, "localfree", "--in", str(path))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not of type 'object'" in err

    @pytest.mark.parametrize(
        "command,flag,field,value,message",
        [
            ("localfree", "--in", "mult", 2.0, "at mult: 2.0 is not of type 'integer'"),
            # a query holds f, h and mult only: the jet order is not an input
            ("localfree", "--in", "truncation", 4.0, "'truncation' was unexpected"),
            ("localfree", "--in", "mult", True, "at mult: True is not of type 'integer'"),
            ("analyze", "--config", "degree", 6.0, "at degree: 6.0 is not of type 'integer'"),
        ],
        ids=["float-mult", "float-truncation", "bool-mult", "float-degree"],
    )
    def test_non_int_integer_field_is_exit_one(
        self, capsys, tmp_path, command, flag, field, value, message
    ):
        # JSON Schema counts 2.0 as an integer, but the code behind it needs an int
        if flag == "--in":
            payload = {"f": "x^2 - y^3", "h": ["0"], "mult": 2}
        else:
            cfg = tmp_path / "cfg.json"
            run(capsys, "random", "--degree", "6", "--seed", "1", "--out", str(cfg))
            payload = json.loads(cfg.read_text())
        assert run(capsys, command, flag, write_json(tmp_path / "ok.json", payload))[0] == 0
        payload[field] = value
        code, out, err = run(capsys, command, flag, write_json(tmp_path / "in.json", payload))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["localfree", "--poly", "x - y^2", "--h", "0," + "1" * 4301, "--mult", "2"],
            ["localfree", "--poly", "1" * 4301 + "*x - y^2", "--mult", "2"],
            ["localfree", "--poly", "x - y^" + "1" * 4301, "--mult", "2"],
        ],
        ids=["h-rational", "poly-coefficient", "poly-exponent"],
    )
    def test_over_long_number_in_a_flag_is_exit_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too long to read" in err

    @pytest.mark.parametrize("case", ["kronecker", "analyze-certificate", "localfree"])
    def test_over_long_output_number_is_exit_one(self, capsys, tmp_path, case):
        # schema-valid input whose answer holds an integer past Python's
        # 4300-digit limit on int-to-str conversion
        nines = "9" * 4300
        if case == "localfree":
            argv = ["localfree", "--poly", f"{nines}*x + {nines}*x - y^2", "--mult", "1"]
        else:
            if case == "kronecker":
                # three points with coordinates of about 800 digits
                points = [[1, 7**946, 11**768], [13**718, 1, 17**650], [19**626, 23**588, 1]]
            else:
                # p, q and p + q, of about 2500 digits: their line's
                # coefficients have about 5000
                p, q = (7**2960, 11**2400, 13**2244), (17**2031, 19**1955, 23**1835)
                points = [p, q, [a + b for a, b in zip(p, q)]]
            config = {"degree": 4, "simple": [[str(c) for c in pt] for pt in points], "fat": []}
            argv = [case.split("-")[0], "--config", write_json(tmp_path / "c.json", config)]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too long to print" in err

    def test_trailing_star_in_poly_is_exit_one(self, capsys):
        code, out, err = run(capsys, "localfree", "--poly=x^2 - y^3*", "--mult", "2")
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "position 9" in err

    def test_non_integer_degree_is_exit_one(self, capsys):
        code, out, err = run(capsys, "random", "--degree", "six", "--seed", "1")
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "sheafloci random: error: argument --degree: invalid int value: 'six'"
        ]

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "analyze" in out


def seeded_mutants():
    """(kind, payload): schema-valid mutants of seeded d4-d6 configuration files.

    Every file gets a duplicated and a dropped point; a double-point file
    also a chart entry set to "0", its multiplicity raised by one and its
    support moved off its chart.  A duplicate overwrites a simple point
    with a multiple of another point, the fat support included.
    """
    from sheafloci.schemes import random_config
    from sheafloci.serialize import config_to_dict

    rng = SplitMix64(39)
    mutants = []
    for d in (4, 5, 6):
        for stratum in ("generic", "double"):
            for seed in range(1, 8):
                base = config_to_dict(random_config(d, seed, stratum))
                kinds = ["duplicate", "drop"]
                if base["fat"]:
                    kinds += ["chart-zero", "mult", "off-support"]
                for kind in kinds:
                    payload = json.loads(json.dumps(base))
                    simple = payload["simple"]
                    fat = payload["fat"][0] if payload["fat"] else None
                    if kind == "duplicate":
                        others = simple + ([fat["support"]] if fat else [])
                        i = rng.randint(0, len(simple) - 1)
                        j = (i + rng.randint(1, len(others) - 1)) % len(others)
                        scale = rng.randint(-3, 3) or 1
                        simple[i] = [str(Fraction(c) * scale) for c in others[j]]
                    elif kind == "drop":
                        del simple[rng.randint(0, len(simple) - 1)]
                    elif kind == "chart-zero":
                        fat["chart"][rng.randint(0, 2)][rng.randint(0, 2)] = "0"
                    elif kind == "mult":
                        fat["mult"] += 1
                    else:
                        k = rng.randint(0, 2)
                        fat["support"][k] = str(Fraction(fat["support"][k]) + 1)
                    mutants.append((kind, payload))
    return mutants


def test_seeded_mutants_exit_cleanly(capsys, tmp_path):
    # every mutant is answered, refused with one error line, or certified
    # non-generic; none escapes as a traceback
    start = time.perf_counter()
    mutants = seeded_mutants()
    assert len(mutants) == 147
    seen = Counter()
    for n, (kind, payload) in enumerate(mutants):
        path = write_json(tmp_path / f"mutant{n}.json", payload)
        for command in ("analyze", "kronecker"):
            code, out, err = run(capsys, command, "--config", path)
            assert code in (0, 1, 2), (kind, command, err)
            assert "Traceback" not in err
            if code == 1:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            else:
                assert err == "" and out
            seen[kind, code, "chart" in err] += 1
    # the chart checks refuse zeroed charts and moved supports, and some
    # zeroed chart still gives a configuration that is answered
    assert seen["chart-zero", 1, True] and seen["off-support", 1, True]
    assert seen["chart-zero", 0, False]
    assert time.perf_counter() - start < 3


class TestInputCeilings:
    """One above each ceiling is refused before any computation runs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["random", "--degree", str(MAX_DEGREE + 1), "--seed", "1"],
            ["analyze", "--config", "over.json"],
            ["localfree", "--poly", "x*y", "--mult", str(MAX_MULT + 1)],
            ["localfree", "--poly", f"x*y + y^{MAX_GERM_DEGREE + 1}", "--mult", "2"],
        ],
        ids=["random-degree", "config-degree", "mult", "poly-degree"],
    )
    def test_over_ceiling_is_exit_one(self, capsys, tmp_path, monkeypatch, argv):
        write_json(tmp_path / "over.json", {"degree": MAX_DEGREE + 1, "simple": [], "fat": []})
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "ceiling" in err or "maximum" in err

    @pytest.mark.parametrize("seed", [-1, 1 << 64], ids=["negative", "2^64"])
    def test_seed_outside_64_bits_is_exit_one(self, capsys, seed):
        # SplitMix64 keeps 64 bits, so such a seed would alias another
        code, out, err = run(capsys, "random", "--degree", "5", "--seed", str(seed))
        assert code == 1
        assert out == ""
        assert err == f"error: seed {seed} is outside 0..2^64 - 1\n"

    def test_default_truncation_within_the_ceilings_is_answered(self, capsys, tmp_path):
        # README's mult-11 germ, of degree 13; the jet oracle works at order 12
        germ, data = random_membership_germ(SplitMix64(1), MAX_MULT, factor_degree=2)
        assert germ.f.total_degree() == 13
        query = {"f": str(germ.f), "h": [str(c) for c in data.h], "mult": MAX_MULT}
        code, out, err = run(capsys, "localfree", "--in", write_json(tmp_path / "q.json", query))
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["membership"] is True
        assert payload["jet_free"] == payload["free"]


# modules no command may import: jsonschema validation is for tests and
# the benchmark's checker, and dataclasses (through inspect, ast and dis)
# cost every child about 10 ms of start-up
FORBIDDEN_MODULES = ("dataclasses", "inspect", "jsonschema")


def test_no_command_imports_forbidden_modules(tmp_path):
    # other tests import these into this process, so ask a fresh one; the
    # snapshot leaves out what the interpreter's own start-up loaded
    cfg, query, bad = tmp_path / "cfg.json", tmp_path / "query.json", tmp_path / "bad.json"
    write_json(query, {"f": "x^2 - y^3", "h": ["0"], "mult": 2})
    write_json(bad, {"degree": 5, "simple": []})
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from sheafloci.cli import console_main\n"
        "cfg, query, bad, *forbidden = sys.argv[1:]\n"
        "assert console_main(['random', '--degree', '5', '--seed', '1', '--out', cfg]) == 0\n"
        "assert console_main(['verify-remark6']) == 0\n"
        "assert console_main(['analyze', '--config', cfg]) == 0\n"
        "assert console_main(['kronecker', '--config', cfg]) == 0\n"
        "assert console_main(['localfree', '--in', query]) == 0\n"
        "assert console_main(['localfree', '--poly', 'x^2 - y^3', '--mult', '2']) == 0\n"
        "assert console_main(['analyze', '--config', bad]) == 1\n"
        "loaded = [m for m in forbidden if m in sys.modules and m not in before]\n"
        "assert loaded == [], f'imported {loaded}'\n"
    )
    proc = run_fresh_python(script, cfg, query, bad, *FORBIDDEN_MODULES)
    assert proc.returncode == 0, proc.stderr


# the sheafloci.* modules each command loads; every command loads these
_BASE = {"cli", "errors", "exactalg", "poly", "rng", "schemes"}
ROUTE_MODULES = {
    "random": (["random", "--degree", "5", "--seed", "2"], 0, _BASE | {"serialize"}),
    "verify-remark6": (["verify-remark6"], 0, _BASE | {"linsys", "singloci"}),
    "verify-remark6-emit-config": (
        ["verify-remark6", "--emit-config", "{out}"],
        0,
        _BASE | {"serialize"},
    ),
    "analyze": (
        ["analyze", "--config", "{cfg}", "--subset", "1,2,3"],
        0,
        _BASE | {"serialize", "linsys", "singloci"},
    ),
    "analyze-bad-degree": (
        ["analyze", "--config", "{cfg}", "--degree", "6"],
        1,
        _BASE | {"serialize"},
    ),
    "kronecker": (["kronecker", "--config", "{cfg}"], 0, _BASE | {"serialize", "kronecker"}),
    "localfree-in": (["localfree", "--in", "{query}"], 0, _BASE | {"serialize", "localfree"}),
    "localfree-poly": (
        ["localfree", "--poly", "x^2 - y^3", "--mult", "2"],
        0,
        _BASE | {"serialize", "localfree"},
    ),
}


@pytest.mark.parametrize("route", sorted(ROUTE_MODULES))
def test_each_command_loads_only_what_it_runs(capsys, tmp_path, route):
    # a fresh process per route, since this one has imported every module
    argv, want_code, want_modules = ROUTE_MODULES[route]
    cfg, query, loaded = tmp_path / "cfg.json", tmp_path / "query.json", tmp_path / "loaded.json"
    run(capsys, "random", "--degree", "5", "--seed", "1", "--out", str(cfg))
    write_json(query, {"f": "x^2 - y^3", "h": ["0"], "mult": 2})
    argv = [arg.format(cfg=cfg, query=query, out=tmp_path / "out.json") for arg in argv]
    script = (
        "import json, sys\n"
        "from sheafloci.cli import console_main\n"
        "code = console_main(sys.argv[2:])\n"
        "names = sorted(m[len('sheafloci.'):] for m in sys.modules if m.startswith('sheafloci.'))\n"
        "with open(sys.argv[1], 'w') as fh:\n"
        "    json.dump({'code': code, 'modules': names}, fh)\n"
    )
    proc = run_fresh_python(script, loaded, *argv)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(loaded.read_text())
    assert result["code"] == want_code
    assert set(result["modules"]) == want_modules
