import json
import math

import numpy as np
import pytest

from kramers import cli
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

    def test_bad_flag_exit_code(self, capsys):
        assert main(["slip", "--order", "eleven"]) == 2

    def test_infinite_kmax_rejected(self, capsys):
        code, _, err = run_cli(capsys, "slip", "--kmax", "inf")
        assert code == 2
        assert "k_max must be finite" in err

    @pytest.mark.parametrize("kmax", ["1", "1e300", "2.0000000000000004"])
    def test_kmax_out_of_range_rejected(self, capsys, kmax):
        code, _, err = run_cli(capsys, "slip", "--kmax", kmax)
        assert code == 2
        assert "k_max" in err

    def test_json_metadata(self, capsys):
        code, out, _ = run_cli(
            capsys, "slip", "--q", "0.8", "--gamma", "0.1", "--order", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"meta", "data"}
        for key in ("gamma", "q", "order", "rel_tol", "k_max"):
            assert key in doc["meta"]
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

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "curves", "--what", "tn", "--k", "0:3:0.5")
        _, out2, _ = run_cli(capsys, "curves", "--what", "tn", "--k", "0:3:0.5")
        assert out1 == out2


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

    @pytest.mark.parametrize("bad", ["0:inf:1", "0:1e9:1"])
    def test_bad_range_rejected_before_series(self, capsys, monkeypatch, bad):
        def no_series(*args):
            raise AssertionError("series built before the range was parsed")

        monkeypatch.setattr(cli, "build_series", no_series)
        code, _, err = run_cli(capsys, "profile", "--x", bad)
        assert code == 2
        assert "range" in err

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
        assert doc["meta"]["rel_tol"] == 1e-10
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

    def test_degraded_tolerance_keeps_constants(self, capsys):
        """Coarse quadrature budgets degrade deviations but not the constants."""
        code, out, _ = run_cli(
            capsys, "verify", "--only", "constants", "--tol", "1e-2"
        )
        assert code == 0

    def test_unknown_group_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--only", "nonsense")
        assert code == 2
        assert "group" in err
