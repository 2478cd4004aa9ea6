import json
import math
import warnings

import numpy as np
import pytest

from kramers import cli, special_integrals
from kramers.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSlip:
    def test_second_order_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "slip", "--q", "1", "--gamma", "0", "--order", "2"
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["quantity", "value"]
        values = {name: float(v) for name, v in rows}
        assert values["U_sl_over_Gv"] == pytest.approx(1.0151, abs=1e-3)
        assert values["U_0"] == pytest.approx(0.886227, abs=1e-6)
        assert values["U_2"] == pytest.approx(-0.0116, abs=5e-4)

    def test_zero_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "slip", "--q", "1", "--gamma", "0", "--order", "0"
        )
        assert code == 0
        _, rows = csv_rows(out)
        values = {name: float(v) for name, v in rows}
        assert values["U_sl_over_Gv"] == pytest.approx(0.8862, abs=1e-4)

    def test_q_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "slip", "--q", "0")
        assert code == 2
        assert "q" in err

    @pytest.mark.parametrize("q", ["1.5", "nan"])
    def test_q_outside_domain_message(self, capsys, q):
        code, _, err = run_cli(capsys, "slip", "--q", q)
        assert code == 2
        assert f"q must be in (0, 1], got {float(q)}" in err
        assert "specular" not in err

    @pytest.mark.parametrize("command", [["slip"], ["profile", "--x", "0:1:1"]])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_subnormal_q_rejected_before_work(self, capsys, monkeypatch, command, fmt):
        """--q 1e-310 exited 0 with inf values, written as Infinity (not
        JSON) by --format json."""
        def no_series(*args):
            raise AssertionError("series built before --q was checked")

        monkeypatch.setattr(cli, "build_series", no_series)
        code, out, err = run_cli(capsys, *command, "--q", "1e-310", "--format", fmt)
        assert code == 2 and out == ""
        assert "invalid request: q=1e-310 is too small: (2-q)/q is not finite" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_slip_coefficient_rejected(self, capsys, fmt):
        """At q = 1.2e-308, (2-q)/q is finite but K_v was printed as inf."""
        code, out, err = run_cli(capsys, "slip", "--q", "1.2e-308", "--format", fmt)
        assert code == 2 and out == ""
        assert "K_v is not finite" in err

    def test_bad_flag_exit_code(self, capsys):
        assert main(["slip", "--order", "eleven"]) == 2

    def test_budget_failure_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "slip", "--kmax", "10")
        assert code == 3
        assert "numerical failure: phi_1 grid node k=8.82" in err
        assert out == "" and "Traceback" not in err

    def test_infinite_kmax_rejected(self, capsys):
        code, _, err = run_cli(capsys, "slip", "--kmax", "inf")
        assert code == 2
        assert "k_max must be finite" in err

    @pytest.mark.parametrize("kmax", ["1", "1e300", "2.0000000000000004", "50.0000000001"])
    def test_kmax_out_of_range_rejected(self, capsys, kmax):
        code, _, err = run_cli(capsys, "slip", "--kmax", kmax)
        assert code == 2
        assert "k_max" in err

    def test_json_metadata(self, capsys):
        """slip's meta names its gas flags and --kmax, the flags it reads."""
        code, out, _ = run_cli(
            capsys, "slip", "--q", "0.8", "--gamma", "0.1", "--order", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"meta", "data"}
        assert set(doc["meta"]) == {"gamma", "q", "order", "k_max"}
        assert doc["meta"]["q"] == 0.8


class TestCurves:
    def test_dispersion_row_count_and_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "curves", "--what", "dispersion", "--gamma", "0",
            "--k", "0:10:0.1",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["k", "L"]
        assert len(rows) == 101
        l_values = [float(r[1]) for r in rows]
        assert l_values[0] == 0.0
        assert all(b > a for a, b in zip(l_values, l_values[1:]))
        assert l_values[-1] < 1.0

    def test_moment_curves_zero_row(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "--what", "tn", "--k", "0:5:0.5")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["k", "T1", "T2", "T3"]
        first = [float(v) for v in rows[0]]
        sqpi = math.sqrt(math.pi)
        assert first == pytest.approx([0.0, 1 / sqpi, 0.5, 1 / sqpi], abs=1e-6)

    @pytest.mark.parametrize("what, k", [
        ("tn", "1e12:1e12:1"), ("dispersion", "1e200:1e200:1"),
        ("tn", "0:20000:1000"),
    ])
    def test_wavenumber_above_the_limit_rejected(self, capsys, what, k):
        """T1(1e12) printed 7.21781e-24 (3.0853e-23 is right) with exit 0, and
        L(1e200) exited 3 after numpy overflow warnings.  The one wavenumber
        rule names the first bad entry of the range."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "curves", "--what", what, "--k", k)
        assert code == 2 and out == ""
        bad = {"1e12:1e12:1": "1000000000000.0", "1e200:1e200:1": "1e+200",
               "0:20000:1000": "17000.0"}[k]
        assert f"wavenumber must be in [0, 16384], got --k={bad}\n" in err

    def test_moments_at_the_limit(self, capsys):
        """At k = 16384, T1 = x e^x E_1(x)/sqrt(pi), x = 1/k^2 (3.95782e-08)."""
        code, out, _ = run_cli(capsys, "curves", "--what", "tn", "--k", "16384:16384:1")
        assert code == 0
        assert csv_rows(out)[1][0][:2] == ["16384", "3.95782e-08"]

    def test_empty_range(self, capsys):
        code, _, err = run_cli(capsys, "curves", "--k", "5:1:0.5")
        assert code == 2
        assert "range" in err

    @pytest.mark.parametrize(
        "bad", ["0:inf:1", "0:1:nan", "nan:1:1", "0:1e9:1", "0:1e308:1e-308"]
    )
    def test_bad_range_rejected(self, capsys, bad):
        code, _, err = run_cli(capsys, "curves", "--k", bad)
        assert code == 2
        assert "range" in err

    def test_non_numeric_range_entry_named(self, capsys):
        code, _, err = run_cli(capsys, "curves", "--k", "a:1:1")
        assert code == 2
        assert "--k: 'a' is not a number" in err

    @pytest.mark.parametrize("what", ["tn", "dispersion"])
    @pytest.mark.parametrize("gamma", ["7", "nan", "-0.1", "1"])
    def test_gamma_outside_domain_rejected_before_work(
        self, capsys, monkeypatch, what, gamma,
    ):
        """--what tn --gamma 7 exited 0 and wrote gamma 7.0 into the meta."""
        def no_work(*args):
            raise AssertionError("work started before --gamma was checked")

        for name in ("t_n", "dispersion_l"):
            monkeypatch.setattr(cli, name, no_work)
        code, out, err = run_cli(capsys, "curves", "--what", what, "--gamma", gamma)
        assert code == 2 and out == ""
        assert "invalid request: --gamma must be in [0, 1)" in err

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "curves", "--what", "tn", "--k", "0:3:0.5")
        _, out2, _ = run_cli(capsys, "curves", "--what", "tn", "--k", "0:3:0.5")
        assert out1 == out2

    def test_meta_claims_no_truncation(self, capsys):
        """No curve reads --kmax, --q or --order, so the JSON meta names none;
        the tolerance is fixed, so the meta holds gamma alone."""
        code, out, _ = run_cli(capsys, "curves", "--k", "0:1:1", "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"] == {"gamma": 0.0}


class TestProfile:
    def test_wall_layer_decay(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--q", "1", "--gamma", "0", "--order", "2",
            "--x", "0:20:0.5",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["x1", "u_total", "u_continuum"]
        assert len(rows) == 41
        u_c = [float(r[2]) for r in rows]
        assert abs(u_c[-1]) < 1e-3 * abs(u_c[0])

    def test_single_point_range(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--x", "0:0:1", "--order", "0")
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 1
        assert float(rows[0][0]) == 0.0

    def test_far_field_point(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--x", "600:600:1")
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 1 and math.isfinite(float(rows[0][2]))

    def test_subnormal_coordinate_takes_wall_limit(self, capsys):
        """x1 = 1e-310 prints the x1 = 0 row: pi/(2 x1) past k_max would
        overflow to nan with a RuntimeWarning."""
        rows = {}
        for x in ("1e-310", "0"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(
                    capsys, "profile", "--x", f"{x}:{x}:1", "--order", "1",
                    "--mu", "0.5,-0.5",
                )
            assert code == 0 and err == ""
            (rows[x],) = csv_rows(out)[1]
        tiny, wall = (np.array(rows[x][1:], dtype=float) for x in ("1e-310", "0"))
        assert np.all(np.isfinite(tiny))
        np.testing.assert_allclose(tiny, wall, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", ["0:inf:1", "0:1e9:1"])
    def test_bad_range_rejected_before_series(self, capsys, monkeypatch, bad):
        def no_series(*args):
            raise AssertionError("series built before the range was parsed")

        monkeypatch.setattr(cli, "build_series", no_series)
        code, _, err = run_cli(capsys, "profile", "--x", bad)
        assert code == 2
        assert "range" in err

    @pytest.mark.parametrize("flag, value, entry", [
        ("--mu", "0.5,,1", "''"), ("--mu", "abc", "'abc'"),
        ("--x", "0:b:1", "'b'"),
    ])
    def test_non_numeric_entry_rejected_before_series(
        self, capsys, monkeypatch, flag, value, entry,
    ):
        def no_series(*args):
            raise AssertionError("series built before the flags were parsed")

        monkeypatch.setattr(cli, "build_series", no_series)
        code, _, err = run_cli(capsys, "profile", f"{flag}={value}")
        assert code == 2
        assert f"{flag}: {entry} is not a number" in err

    def test_empty_mu_list_rejected_before_series(self, capsys, monkeypatch):
        """--mu '' printed the profile without h columns."""
        def no_series(*args):
            raise AssertionError("series built before --mu was checked")

        monkeypatch.setattr(cli, "build_series", no_series)
        code, out, err = run_cli(capsys, "profile", "--mu", "")
        assert code == 2 and out == ""
        assert "--mu: empty list" in err

    @pytest.mark.parametrize("value, message", [
        ("20", "mu must lie in [-10, 10]"), ("-10.5", "mu must lie in [-10, 10]"),
        ("nan", "mu must be finite"),
    ])
    def test_velocity_domain_checked_before_series(
        self, capsys, monkeypatch, value, message,
    ):
        def no_series(*args):
            raise AssertionError("series built before --mu was checked")

        monkeypatch.setattr(cli, "build_series", no_series)
        code, out, err = run_cli(capsys, "profile", "--x", "0:200:0.25",
                                 f"--mu=0.5,{value}")
        assert code == 2
        assert message in err and out == ""

    @pytest.mark.parametrize("args, failing", [
        (["--x", "0:1:1"], "U_c cosine transform at x1=0"),
        (["--x", "1:2:1", "--mu", "0.5"], "source bracket at mu=0.5"),
    ])
    def test_budget_failure_exit_code(self, capsys, args, failing):
        code, out, err = run_cli(capsys, "profile", "--kmax", "30", *args)
        assert code == 3
        assert f"numerical failure: {failing}" in err
        assert out == "" and "Traceback" not in err

    def test_small_kmax_without_source_bracket(self, capsys):
        """mu < 0 has no wall source term, so k_max=30 suffices past x1=0."""
        code, out, err = run_cli(
            capsys, "profile", "--kmax", "30", "--x", "1:2:1", "--mu", "-0.5",
        )
        assert code == 0 and err == ""
        _, rows = csv_rows(out)
        assert len(rows) == 2

    @pytest.mark.parametrize("mu", ["nan", "inf", "-inf"])
    def test_non_finite_mu_rejected(self, capsys, mu):
        code, out, err = run_cli(
            capsys, "profile", "--x", "1:1:1", "--order", "0", f"--mu={mu}",
        )
        assert code == 2
        assert "mu must be finite" in err and out == ""

    @pytest.mark.parametrize("mu", ["1e200", "100"])
    def test_large_mu_rejected(self, capsys, mu):
        code, out, err = run_cli(
            capsys, "profile", "--x", "0:2:1", "--order", "1", f"--mu={mu}",
        )
        assert code == 2
        assert "mu must lie in [-10, 10]" in err and out == ""

    @pytest.mark.parametrize("mu, entry", [
        ("0.5,0.5000001", "'0.5000001'"), ("0.5,0.5", "'0.5'"),
        ("-0.5,1,-0.50000001", "'-0.50000001'"),
    ])
    def test_repeated_column_rejected_before_series(
        self, capsys, monkeypatch, mu, entry,
    ):
        """Two --mu entries printed alike gave two h_mu_0.5 headers, and the
        JSON document kept one of the columns."""
        def no_series(*args):
            raise AssertionError("series built before --mu was checked")

        monkeypatch.setattr(cli, "build_series", no_series)
        for extra in ([], ["--format", "json"]):
            code, out, err = run_cli(capsys, "profile", "--x", "0:1:1",
                                     f"--mu={mu}", *extra)
            assert code == 2 and out == ""
            assert f"--mu: {entry} repeats the column" in err

    def test_distribution_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--x", "0:1:1", "--order", "1",
            "--mu", "0.5,-0.5",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header[-2:] == ["h_mu_0.5", "h_mu_-0.5"]
        assert all(len(r) == 5 for r in rows)

    def test_json_document(self, capsys, tmp_path):
        target = tmp_path / "profile.json"
        code, _, _ = run_cli(
            capsys, "profile", "--x", "0:2:1", "--order", "0",
            "--format", "json", "--output", str(target),
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert set(doc) == {"meta", "data"}
        assert doc["meta"]["order"] == 0
        assert set(doc["meta"]) == {"gamma", "q", "order", "k_max"}
        assert doc["meta"]["k_max"] == 800.0
        assert len(doc["data"]["x1"]) == 3
        total = np.array(doc["data"]["u_total"])
        cont = np.array(doc["data"]["u_continuum"])
        assert np.all(np.isfinite(total)) and np.all(np.isfinite(cont))


class TestVerify:
    def test_constants_subset_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "constants")
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_identities_subset_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "identities")
        assert code == 0

    def test_pole_group_passes_at_short_range(self, capsys):
        """At k_max 50 each B_n's gamma combination passes its tail guard,
        though its constant part alone would not."""
        code, out, _ = run_cli(capsys, "verify", "--only", "pole", "--kmax", "50")
        assert code == 0
        assert out.strip().endswith("6/6 checks passed")

    def test_unknown_group_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--only", "nonsense")
        assert code == 2
        assert "group" in err

    def test_empty_group_list_rejected_before_work(self, capsys, monkeypatch):
        """--only '' ran all 24 checks."""
        def no_checks(*args):
            raise AssertionError("checks run before --only was checked")

        monkeypatch.setattr(cli.verification, "run_checks", no_checks)
        code, out, err = run_cli(capsys, "verify", "--only", "")
        assert code == 2 and out == ""
        assert "--only: empty list" in err

    @pytest.mark.parametrize("only", ["--only=,", "--only=identities,,pole",
                                      "--only=pole,"])
    def test_empty_group_name_rejected_before_work(self, capsys, monkeypatch, only):
        """An empty entry was rejected as unknown group [''], without naming
        the flag."""
        def no_checks(*args):
            raise AssertionError("checks run before --only was checked")

        monkeypatch.setattr(cli.verification, "run_checks", no_checks)
        code, out, err = run_cli(capsys, "verify", only)
        assert code == 2 and out == ""
        assert "--only: empty group name" in err

    @pytest.mark.parametrize("only", ["identities,identities",
                                      "pole,constants,pole"])
    def test_repeated_group_rejected_before_work(self, capsys, monkeypatch, only):
        """--only identities,identities ran the group twice (12/12 passed)."""
        verification = cli.verification
        ran = []
        for name in ("_identity_checks", "_constants_checks", "_pole_checks",
                     "_oracle_checks"):
            monkeypatch.setattr(verification, name,
                                lambda *args, name=name: ran.append(name) or [])
        code, out, err = run_cli(capsys, "verify", "--only", only)
        assert code == 2 and out == ""
        repeated = only.split(",")[0]
        assert f"check group(s) ['{repeated}'] selected more than once" in err
        with pytest.raises(ValueError, match="selected more than once"):
            verification.run_checks(only=tuple(only.split(",")))
        assert ran == []

    def test_format_flag_rejected(self, capsys, monkeypatch):
        """verify printed its text report under --format json."""
        def no_checks(*args):
            raise AssertionError("checks run on a flag verify does not read")

        monkeypatch.setattr(cli.verification, "run_checks", no_checks)
        code, out, err = run_cli(capsys, "verify", "--format", "json")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --format json" in err

    def test_library_empty_selection_rejected(self, monkeypatch):
        """run_checks(only=()) ran all four groups; only=None still does."""
        verification = cli.verification
        ran = []
        for name in ("_identity_checks", "_constants_checks", "_pole_checks",
                     "_oracle_checks"):
            monkeypatch.setattr(verification, name,
                                lambda *args, name=name: ran.append(name) or [])
        with pytest.raises(ValueError, match="no check group selected"):
            verification.run_checks(only=())
        assert ran == []
        assert verification.run_checks(only=None) == []
        assert len(ran) == 4

    def test_library_bare_string_rejected(self, monkeypatch):
        """run_checks(only="pole") read the string as the groups 'p', 'o',
        'l' and 'e'; it is named, before any group runs."""
        verification = cli.verification
        monkeypatch.setattr(verification, "_pole_checks",
                            lambda *args: pytest.fail("ran a group"))
        with pytest.raises(ValueError, match=r"^only='pole' is a string; pass a tuple"):
            verification.run_checks(only="pole")


class TestAccuracyFlags:
    """--kmax, the one accuracy flag, belongs to slip, profile and verify
    and is checked before any work; a command rejects a flag it does not
    read.  --tol, which set the quadrature tolerance rel_tol, is gone from
    every command, so argparse rejects it on all four."""

    TAKES = {"slip": {"--kmax"}, "curves": set(), "profile": {"--kmax"},
             "verify": {"--kmax"}}

    @pytest.mark.parametrize("command", ["slip", "curves", "profile", "verify"])
    @pytest.mark.parametrize("flag, field, value", [
        *[("--tol", "rel_tol", v) for v in ("0", "-1e-3", "inf", "nan")],
        *[("--kmax", "k_max", v)
          for v in ("0", "-1", "1", "2", "16385", "inf", "nan", "1e300")],
    ])
    def test_bad_value_rejected_before_work(
        self, capsys, monkeypatch, command, flag, field, value,
    ):
        def no_work(*args):
            raise AssertionError(f"work started before {flag} was checked")

        for name in ("build_series", "t_n", "dispersion_l"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.setattr(cli.verification, "run_checks", no_work)
        code, out, err = run_cli(capsys, command, f"{flag}={value}")
        assert code == 2
        if flag in self.TAKES[command]:
            assert f"invalid request: {field} must be finite" in err
        else:
            assert f"unrecognized arguments: {flag}={value}" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("verify",), ("verify", "--only", "identities"), ("slip",), ("profile",),
    ])
    def test_kmax_in_the_sliver_rejected_before_work(self, capsys, monkeypatch, argv):
        """k_max in (50, 50.001] was rejected by the standard grid alone:
        verify integrated the identities group's 28 T_n first, and verify
        --only identities, which builds no grid, exited 0."""
        def no_work(*args):
            raise AssertionError("a T_n integral ran before --kmax was checked")

        monkeypatch.setattr(special_integrals, "_t_n_cached", no_work)
        code, out, err = run_cli(capsys, *argv, "--kmax", "50.0005")
        assert code == 2 and out == ""
        assert "invalid request: k_max=50.0005 is too close to 50" in err

    @pytest.mark.parametrize("command, flag", [
        ("slip", "--tol"), ("profile", "--tol"), ("curves", "--kmax"),
        ("curves", "--tol"), ("verify", "--tol"),
    ])
    def test_unread_flag_rejected_before_work(self, capsys, monkeypatch, command, flag):
        """slip and profile took --tol, and curves --kmax, checked them and
        never read them; no command takes --tol now."""
        def no_work(*args):
            raise AssertionError(f"work started on {flag}, which {command} does not read")

        for name in ("build_series", "t_n", "dispersion_l"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.setattr(cli.verification, "run_checks", no_work)
        code, out, err = run_cli(capsys, command, flag, "1e-10")
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag} 1e-10" in err

    def test_help_names_the_commands_that_read_each_flag(self, capsys):
        """Each command's help lists the accuracy flags it reads, and no other."""
        for command, flags in self.TAKES.items():
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            assert "--tol" not in text
            assert ("spectral truncation wavenumber in (2, 16384] (default 800)"
                    in text) == ("--kmax" in flags)


class TestOptionSets:
    """Each subcommand's options, so that an unread flag coming back fails."""

    @pytest.mark.parametrize("argv, options", [
        (["slip"], {"gamma", "q", "order", "kmax", "output", "format"}),
        (["curves"], {"what", "gamma", "k", "output", "format"}),
        (["profile"], {"gamma", "q", "order", "x", "mu", "kmax", "output", "format"}),
        (["verify"], {"only", "kmax", "output"}),
    ])
    def test_options_of_each_command(self, argv, options):
        args = vars(cli.build_parser().parse_args(argv))
        assert set(args) == options | {"command", "func"}


class TestRangeStart:
    """A negative --x or --k start is rejected by its flag before any work."""

    @pytest.mark.parametrize("command, flag, nodes", [
        (["profile"], "--x", "coordinates"),
        (["profile", "--mu", "0.5"], "--x", "coordinates"),
        (["curves", "--what", "dispersion"], "--k", "wavenumbers"),
        (["curves", "--what", "tn"], "--k", "wavenumbers"),
    ])
    @pytest.mark.parametrize("start", ["-1", "-1e-300"])
    def test_negative_start_rejected_before_work(
        self, capsys, monkeypatch, command, flag, nodes, start,
    ):
        def no_work(*args):
            raise AssertionError(f"work started before {flag} was checked")

        for name in ("build_series", "t_n", "dispersion_l"):
            monkeypatch.setattr(cli, name, no_work)
        code, out, err = run_cli(capsys, *command, f"{flag}={start}:1:0.5")
        assert code == 2 and out == ""
        assert f"invalid request: {flag}: {nodes} must be >= 0, got {start}" in err


class TestOutputPath:
    @pytest.mark.parametrize("command", [
        ["slip", "--order", "0"], ["curves", "--k", "0:1:1"],
    ])
    @pytest.mark.parametrize("target, reason", [
        ("missing/out.csv", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_unwritable_output_named(self, capsys, tmp_path, command, target, reason):
        path = tmp_path / target
        code, out, err = run_cli(capsys, *command, "--output", str(path))
        assert code == 2
        assert err == f"cannot write {path}: {reason}\n"
        assert out == ""

    @pytest.mark.parametrize("target, reason", [
        ("missing/out.txt", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_checked_before_work(
        self, capsys, monkeypatch, tmp_path, target, reason,
    ):
        def no_work(*args):
            raise AssertionError("work started before --output was checked")

        monkeypatch.setattr(cli, "build_series", no_work)
        monkeypatch.setattr(cli.verification, "run_checks", no_work)
        path = tmp_path / target
        for command in (["verify"], ["slip"]):
            code, out, err = run_cli(capsys, *command, "--output", str(path))
            assert code == 2
            assert err == f"cannot write {path}: {reason}\n"
            assert out == ""

    @pytest.mark.parametrize("command", [["slip", "--order", "4"], ["verify"]])
    def test_empty_path_rejected_before_work(self, capsys, monkeypatch, command):
        """slip --output '' built the series, then named stdout as the
        target it could not write."""
        def no_work(*args):
            raise AssertionError("work started before --output was checked")

        monkeypatch.setattr(cli, "build_series", no_work)
        monkeypatch.setattr(cli.verification, "run_checks", no_work)
        code, out, err = run_cli(capsys, *command, "--output", "")
        assert code == 2 and out == ""
        assert err == "invalid request: --output: empty path\n"

    def test_parent_that_is_a_file_rejected(self, capsys, tmp_path):
        parent = tmp_path / "file.txt"
        parent.write_text("")
        path = parent / "out.csv"
        code, _, err = run_cli(capsys, "curves", "--output", str(path))
        assert code == 2
        assert err == f"cannot write {path}: Not a directory\n"

    def test_file_written_only_after_success(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "curves", "--k", "5:1:1", "--output", str(path))
        assert code == 2
        assert not path.exists()
        code, _, _ = run_cli(capsys, "curves", "--k", "0:1:1", "--output", str(path))
        assert code == 0
        assert path.read_text().startswith("k,L\n")
