import csv
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oscquench import DomainError
from oscquench import cli
from oscquench.cli import (EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK, FIGURE_NAMES, SweepConfig,
                           figure_preset, main, run_sweep, validate_config)
from conftest import mp_tc_x

GOOD_CONFIG = {
    "quench": {"k0_i": 1.0, "k0_f": 1.0, "j_i": 1.0, "j_f": 1.0},
    "T_min": 0.5, "T_max": 1.0, "T_points": 40, "scale": "linear",
    "observables": ["purity", "renyi:2", "von_neumann", "mutual_info", "negativity", "tc"],
}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _csv_rows(text):
    """The header and data rows of a CSV as a strict reader parses them."""
    return list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))


@pytest.fixture(autouse=True)
def every_csv_is_rectangular(monkeypatch):
    """Every CSV a test here writes has as many fields in each row as in its header."""
    writer = cli._csv_text

    def checked(*args, **kwargs):
        text = writer(*args, **kwargs)
        header, *rows = _csv_rows(text)
        assert all(len(row) == len(header) for row in rows), text
        return text

    monkeypatch.setattr(cli, "_csv_text", checked)


class TestSweepConfig:
    def test_accepts_known_keys(self):
        cfg = SweepConfig.from_dict(GOOD_CONFIG)
        assert cfg.t_points == 40 and cfg.scale == "linear"

    def test_unknown_key_rejected(self):
        bad = dict(GOOD_CONFIG, extra=1)
        with pytest.raises(DomainError, match="unknown config keys"):
            SweepConfig.from_dict(bad)

    def test_missing_key_rejected(self):
        bad = {k: v for k, v in GOOD_CONFIG.items() if k != "T_points"}
        with pytest.raises(DomainError, match="missing config keys"):
            SweepConfig.from_dict(bad)

    def test_bad_observable(self):
        with pytest.raises(DomainError):
            SweepConfig.from_dict(dict(GOOD_CONFIG, observables=["entropy"]))
        with pytest.raises(DomainError):
            SweepConfig.from_dict(dict(GOOD_CONFIG, observables=["renyi:zero"]))
        with pytest.raises(DomainError):
            SweepConfig.from_dict(dict(GOOD_CONFIG, observables=[]))

    def test_grid_scales(self):
        lin = SweepConfig.from_dict(dict(GOOD_CONFIG, scale="linear")).temperatures()
        assert np.allclose(np.diff(lin), lin[1] - lin[0])
        log = SweepConfig.from_dict(dict(GOOD_CONFIG, scale="log")).temperatures()
        assert np.allclose(np.diff(np.log(log)), np.log(log[1]) - np.log(log[0]))
        assert lin[0] == log[0] == 0.5 and lin[-1] == log[-1] == 1.0


class TestRunSweep:
    def test_thread_count_invariance(self):
        cfg = SweepConfig.from_dict(GOOD_CONFIG)
        texts = {run_sweep(replace(cfg, threads=n)).to_csv_text() for n in (1, 2, 8)}
        assert len(texts) == 1

    def test_negativity_vanishes_above_tc(self):
        cases = [
            (GOOD_CONFIG["quench"], (0.5, 1.0), 0.6339013112),
            # frequencies 1e-15 and 1: the ratio of the final pair is 1e15
            ({"k0_i": 1e-30, "k0_f": 1e-30, "j_i": 0.5, "j_f": 0.5}, (0.2, 0.8), 0.4167782798),
        ]
        for quench, (t_min, t_max), tc in cases:
            cfg = SweepConfig.from_dict(dict(GOOD_CONFIG, quench=quench, T_min=t_min, T_max=t_max))
            values = run_sweep(cfg).values
            for t, neg, row_tc in zip(values["T"], values["negativity"], values["tc"]):
                if t >= tc + 1e-6:
                    assert neg == 0.0
                elif t < tc - 1e-6:
                    assert neg > 0.0
                assert row_tc == pytest.approx(tc, abs=1e-8)

    def test_renyi_of_a_tiny_order_is_finite(self):
        cfg = SweepConfig.from_dict(dict(GOOD_CONFIG, T_min=0.01, T_max=100.0, scale="log",
                                         observables=["renyi:1e-20"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = run_sweep(cfg).values["renyi_1e-20"]
        assert np.all(np.isfinite(values))

    def test_header_and_provenance(self):
        cfg = SweepConfig.from_dict(GOOD_CONFIG)
        text = run_sweep(cfg).to_csv_text()
        lines = text.splitlines()
        comments = [ln for ln in lines if ln.startswith("# ")]
        assert any("a_convention" in c for c in comments)
        assert any(c.startswith("# oscquench ") for c in comments)
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "T,beta,purity,renyi_2,von_neumann,mutual_info,negativity,tc,warnings"

    def test_purity_monotone_for_quench(self):
        cfg = SweepConfig.from_dict({
            "quench": {"k0_i": 3.0, "k0_f": 6.0, "j_i": 3.0, "j_f": 6.0},
            "T_min": 0.1, "T_max": 10.0, "T_points": 60, "scale": "log",
            "observables": ["purity"],
        })
        vals = run_sweep(cfg).values["purity"]
        assert all(vals[i] >= vals[i + 1] - 1e-13 for i in range(len(vals) - 1))

    def test_downward_quench_rows_flagged_not_fatal(self):
        cfg = SweepConfig.from_dict({
            "quench": {"k0_i": 4.0, "k0_f": 1.0, "j_i": 0.0, "j_f": 0.0},
            "T_min": 0.5, "T_max": 5.0, "T_points": 12, "scale": "linear",
            "observables": ["purity"],
        })
        result = run_sweep(cfg)
        lines = result.to_csv_text().splitlines()
        rows = [line.split(",", 3) for line in lines[lines.index("T,beta,purity,warnings") + 1:]]
        flagged = [r for r in rows if r[3]]
        clean = [r for r in rows if not r[3]]
        assert flagged and clean
        assert all(r[2] == "" for r in flagged)
        # beta* = acosh(5/3)/2: valid only above T = 1/beta*
        t_ok = 2 / math.acosh(5 / 3)
        assert all(float(r[0]) > t_ok for r in clean)
        assert [r[3] for r in rows] == result.flags

    def test_number_format(self):
        cfg = SweepConfig.from_dict(dict(GOOD_CONFIG, T_points=2, observables=["purity"]))
        lines = run_sweep(cfg).to_csv_text().splitlines()
        cell = lines[-1].split(",")[2]
        assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 12


class TestValidateConfig:
    def test_valid_config(self, tmp_path):
        code, report = validate_config(write_config(tmp_path, GOOD_CONFIG))
        assert code == EXIT_OK
        assert any("normal modes" in line for line in report)

    def test_imaginary_mode_rejected(self, tmp_path):
        bad = dict(GOOD_CONFIG, quench={"k0_i": 1.0, "k0_f": 1.0, "j_i": -0.6, "j_f": -0.6})
        code, report = validate_config(write_config(tmp_path, bad))
        assert code == EXIT_CONFIG
        assert "error" in report[0]

    def test_downward_quench_warns(self, tmp_path):
        # beta* = acosh(5/3) / 2: the rows below T = 1.82 are flagged, the rest computed
        cfg = dict(GOOD_CONFIG, quench={"k0_i": 4.0, "k0_f": 1.0, "j_i": 0.0, "j_f": 0.0}, T_max=5.0)
        code, report = validate_config(write_config(tmp_path, cfg))
        assert code == EXIT_OK
        assert any("beta*" in line and "warning" in line for line in report)
        # on [0.5, 1] every row is flagged, so sweep would fail: validate says so
        code, report = validate_config(write_config(tmp_path, dict(cfg, T_max=1.0)))
        assert code == EXIT_DOMAIN
        assert any("beta*" in line and line.startswith("error:") for line in report)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, report = validate_config(str(path))
        assert code == EXIT_CONFIG and "line" in report[0]

    @pytest.mark.parametrize("t_min, t_max, scale", [(0.5, 5.0, "log"), (1.0, 1e9, "log"), (1e-310, 2.0, "linear"),
                                                     (0.05, 0.5, "linear")],
                             ids=["moderate", "T_max_1e9", "T_min_1e-310", "cold"])
    @pytest.mark.parametrize("quench", [(3.0, 6.0, 3.0, 6.0), (5.0, 2.0, 3.0, 1.5), (1.0, 1.0, 1.0, 1.0),
                                        (1.0, 1.0, -0.45, -0.45), (4.0, 1.0, 0.0, 0.0)],
                             ids=["up", "down", "const", "negJ", "steep_down"])
    def test_warning_counts_the_rows_sweep_flags(self, tmp_path, capsys, quench, t_min, t_max, scale):
        cfg = dict(GOOD_CONFIG, quench=dict(zip(("k0_i", "k0_f", "j_i", "j_f"), quench)),
                   T_min=t_min, T_max=t_max, T_points=4, scale=scale, observables=["purity"])
        path = write_config(tmp_path, cfg)
        code = main(["sweep", "--config", path, "--out", str(tmp_path / "x.csv")])
        assert main(["validate", "--config", path]) == code
        capsys.readouterr()
        validated, report = validate_config(path)
        assert validated == code
        flags = [flag for flag in run_sweep(SweepConfig.from_dict(cfg)).flags if flag]
        warned = [line for line in report if line.startswith(("warning:", "error:"))]
        if not flags:
            assert code == EXIT_OK and warned == []
            return
        assert len(warned) == 1
        if len(flags) == 4:  # sweep computes no row and exits with EXIT_DOMAIN
            assert code == EXIT_DOMAIN
            assert warned[0].startswith("error: all 4 temperatures are out of domain")
        else:
            assert code == EXIT_OK
            assert warned[0].startswith(f"warning: {len(flags)} of 4 temperatures are out of domain")
        assert warned[0].endswith(": " + flags[0].removeprefix("domain:"))


class TestFigurePresets:
    def test_fig1a_files(self, tmp_path):
        paths = figure_preset("fig1a", tmp_path)
        names = sorted(p.split("/")[-1] for p in paths)
        assert names == ["fig1a_omega3.csv", "fig1a_omega5.csv", "fig1a_omega7.csv"]
        body = open(paths[1]).read()
        assert "omega_i=3, omega_f=5" in body
        assert body.splitlines()[-1].count(",") == 1

    def test_fig3b_negative_couplings(self, tmp_path):
        paths = figure_preset("fig3b", tmp_path)
        assert sorted(p.split("/")[-1] for p in paths) == [
            "fig3b_J-0.2.csv", "fig3b_J-0.35.csv", "fig3b_J-0.45.csv"]

    def test_fig4b_columns(self, tmp_path):
        (path,) = figure_preset("fig4b", tmp_path)
        lines = open(path).read().splitlines()
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "J,tc_exact,tc_approx"
        first = [float(x) for x in lines[lines.index(header) + 1].split(",")]
        assert first[0] == 0.5

    def test_fig5_normalisation_comment(self, tmp_path):
        paths = figure_preset("fig5b", tmp_path)
        body = open(paths[0]).read()
        assert "zero-temperature limit" in body
        header = next(ln for ln in body.splitlines() if not ln.startswith("#"))
        assert header == "T,negativity_ratio"

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(DomainError):
            figure_preset("fig9z", tmp_path)

    def test_all_presets_have_curves(self, tmp_path):
        for name in FIGURE_NAMES:
            assert figure_preset(name, tmp_path / name)


class TestMain:
    def test_sweep_roundtrip(self, tmp_path):
        cfg_path = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        assert out.exists()
        text = out.read_text()
        assert text.startswith("# oscquench")

    def test_negative_threads_refused(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        neg = write_config(tmp_path, dict(GOOD_CONFIG, threads=-3))
        assert main(["sweep", "--config", neg, "--out", str(out)]) == EXIT_CONFIG
        assert "threads must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_is_a_config_key_not_an_option(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, dict(GOOD_CONFIG, threads=2))
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "1", "sweep", "--config", cfg_path, "--out", str(out)])
        assert exc.value.code == 2 and "oscquench: error:" in capsys.readouterr().err

    def test_config_error_exit(self, tmp_path):
        bad = write_config(tmp_path, dict(GOOD_CONFIG, observables=["nope"]))
        assert main(["sweep", "--config", bad, "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert main(["validate", "--config", bad]) == EXIT_CONFIG

    def test_validate_ok_exit(self, tmp_path):
        assert main(["validate", "--config", write_config(tmp_path, GOOD_CONFIG)]) == EXIT_OK

    def test_all_rows_failing_is_domain_exit(self, tmp_path):
        cfg = dict(GOOD_CONFIG, observables=["purity"],
                   quench={"k0_i": 4.0, "k0_f": 1.0, "j_i": 0.0, "j_f": 0.0},
                   T_min=0.05, T_max=0.5)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_DOMAIN

    def test_subnormal_t_min_flags_its_row_without_warnings(self, tmp_path, capsys):
        # 1 / 1e-310 overflows to beta = inf: that row is refused as non-finite, the others are untouched
        cfg = dict(GOOD_CONFIG, quench={"k0_i": 3.0, "k0_f": 6.0, "j_i": 3.0, "j_f": 6.0},
                   T_min=1e-310, T_max=2.0, T_points=4, scale="linear",
                   observables=["purity", "mutual_info", "negativity", "tc"])
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        lines = out.read_text().splitlines()
        assert lines[lines.index("T,beta,purity,mutual_info,negativity,tc,warnings") + 1:] == [
            '1e-310,inf,,,,,"domain:beta must be finite, got inf"',
            "0.666666666667,1.5,0.947248717925,0.160730698679,0.280891450065,1.55273475982,",
            "1.33333333333,0.75,0.667415960026,0.14522989044,0.0751736383239,1.55273475982,",
            "2,0.5,0.428949209389,0.144030592375,0,1.55273475982,"]
        # a strict CSV reader reads the flag back as one cell
        assert _csv_rows(out.read_text())[1][-1] == "domain:beta must be finite, got inf"

    def test_tc_table(self, tmp_path):
        out = tmp_path / "tc.csv"
        code = main(["tc", "--k0", "1.0", "--j-min", "0.5", "--j-max", "10",
                     "--points", "12", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "J,tc_exact,tc_approx"
        assert len(lines) - lines.index(header) - 1 == 12

    def test_tc_table_at_a_tiny_k0_has_no_nan(self, tmp_path):
        out = tmp_path / "tc.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["tc", "--k0", "1e-30", "--j-min", "0.5", "--j-max", "10",
                         "--points", "12", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        rows = [line.split(",") for line in lines[lines.index("J,tc_exact,tc_approx") + 1:]]
        values = np.array(rows, dtype=float)
        assert len(rows) == 12 and np.all(np.isfinite(values))
        # omega_min / omega_max = 1e-15 / sqrt(2 J): T_c -> sqrt(2 J) / (2 y0), y0 tanh y0 = 1
        assert values[0, 1] == pytest.approx(0.4167782798, abs=1e-10)
        assert values[0, 2] == pytest.approx(0.5, rel=1e-12)

    def test_tc_table_at_an_overflowing_ratio(self, tmp_path):
        # omega_max / omega_min = sqrt(2e300) / 1e-160 overflows, but T_c is finite:
        # omega_max / (2 y0), y0 tanh y0 = 1, and omega_max / 2
        out = tmp_path / "tc.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["tc", "--k0", "1e-320", "--j-min", "1e300", "--j-max", "1e300",
                         "--points", "1", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        rows = lines[lines.index("J,tc_exact,tc_approx") + 1:]
        assert rows == ["1e+300,5.89413495796e+149,7.07106781187e+149"]

    def test_tc_table_at_near_equal_frequencies(self, tmp_path):
        out = tmp_path / "tc.csv"
        code = main(["tc", "--k0", "1", "--j-min", "1e-13", "--j-max", "1e-10",
                     "--points", "3", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        rows = [line.split(",") for line in lines[lines.index("J,tc_exact,tc_approx") + 1:]]
        assert rows[0][1] == "0.0319277664501"
        for j, tc_exact, _ in rows:
            # the table's own double frequency pair, 1 and sqrt(1 + 2 J)
            x = mp_tc_x(float(np.sqrt(1 + 2 * float(j))), 1 / (2 * float(tc_exact)))
            assert float(tc_exact) == pytest.approx(float(1 / (2 * x)), rel=1e-12)

    def test_figure_command(self, tmp_path):
        assert main(["figure", "fig1a", "--out-dir", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "fig1a_omega5.csv").exists()

    @pytest.mark.parametrize("change, field", [
        ({"T_max": math.inf}, "T_max"),
        ({"T_points": 3.9}, "T_points"),
        ({"threads": math.inf}, "threads"),
        ({"observables": ["renyi:inf"]}, "renyi:inf"),
        ({"observables": ["renyi:nan"]}, "renyi:nan"),
        ({"quench": dict(GOOD_CONFIG["quench"], j_f=math.inf)}, "j_f"),
        # fields that do not parse as numbers
        ({"quench": dict(GOOD_CONFIG["quench"], k0_i=None)}, "k0_i must be a number, got None"),
        ({"quench": dict(GOOD_CONFIG["quench"], k0_i="abc")}, "k0_i must be a number, got 'abc'"),
        ({"T_points": "3.9"}, "T_points must be an integer, got '3.9'"),
        ({"threads": None}, "threads must be a number, got None"),
        ({"observables": ["purity", 5]}, "unknown observable 5"),
    ], ids=["T_max_inf", "T_points_fraction", "threads_inf", "renyi_inf", "renyi_nan", "j_f_inf",
            "k0_i_null", "k0_i_text", "T_points_text", "threads_null", "observable_number"])
    def test_non_finite_or_fractional_config_refused(self, tmp_path, capsys, change, field):
        path = write_config(tmp_path, dict(GOOD_CONFIG, **change))
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_CONFIG
            assert field in capsys.readouterr().err
            assert main(["validate", "--config", path]) == EXIT_CONFIG
            assert field in capsys.readouterr().out
        assert caught == [] and not out.exists()

    @pytest.mark.parametrize("k0, j_max, field", [("1.0", "inf", "j_max"), ("nan", "10", "k0")],
                             ids=["j_max_inf", "k0_nan"])
    def test_non_finite_tc_range_refused(self, tmp_path, capsys, k0, j_max, field):
        out = tmp_path / "tc.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["tc", "--k0", k0, "--j-min", "0.5", "--j-max", j_max, "--out", str(out)])
        assert code == EXIT_CONFIG and caught == [] and not out.exists()
        assert f"{field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("s,tc", [(1e-8, "1.55273475982e-08"), (1e8, "155273475.982")])
    def test_tc_of_a_scaled_spec(self, tmp_path, s, tc):
        # k0 and J times s^2 scale every frequency, and T_c, by s
        k = s * s
        cfg = dict(GOOD_CONFIG, quench={"k0_i": 3 * k, "k0_f": 6 * k, "j_i": 3 * k, "j_f": 6 * k},
                   T_min=0.1 * s, T_max=10 * s, T_points=5, scale="log", observables=["negativity", "tc"])
        out = tmp_path / "scaled.csv"
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        rows = [line.split(",") for line in lines[lines.index("T,beta,negativity,tc,warnings") + 1:]]
        assert float(rows[0][2]) > 0
        assert {row[3] for row in rows if not row[4]} == {tc}


def _per_cell_csv(comments, header, keys, values, flags=None):
    """The CSV that cli._csv_text must produce, formatted one cell at a time."""
    lines = [f"# {c}" for c in comments] + [",".join(header)]
    for i in range(len(keys[0])):
        flag = "" if flags is None else flags[i]
        cells = [f"{float(k[i]):.12g}" for k in keys]
        cells += ["" if flag else f"{float(v[i]):.12g}" for v in values]
        if "," in flag or '"' in flag:
            flag = '"' + flag.replace('"', '""') + '"'
        lines.append(",".join(cells + ([] if flags is None else [flag])))
    return "\n".join(lines) + "\n"


def test_writer_matches_per_cell_formatting(tmp_path, monkeypatch):
    writer, calls = cli._csv_text, []

    def checked(*args, **kwargs):
        text = writer(*args, **kwargs)
        assert text == _per_cell_csv(*args, **kwargs)
        calls.append(args[1])
        return text

    monkeypatch.setattr(cli, "_csv_text", checked)
    down = dict(GOOD_CONFIG, quench={"k0_i": 5.0, "k0_f": 2.0, "j_i": 3.0, "j_f": 1.5},
                T_min=0.5, T_max=10.0, T_points=60, scale="log",
                observables=["purity", "renyi:0.5", "renyi:2", "von_neumann", "mutual_info",
                             "negativity", "tc"])
    result = run_sweep(SweepConfig.from_dict(down))
    assert any(result.flags) and not all(result.flags)
    assert result.to_csv_text().count(",,,,,,,,domain:") == sum(map(bool, result.flags))
    assert main(["tc", "--k0", "1", "--j-min", "-0.45", "--j-max", "10", "--points", "30",
                 "--out", str(tmp_path / "tc.csv")]) == EXIT_OK
    n_files = sum(len(figure_preset(name, tmp_path / name)) for name in FIGURE_NAMES)
    assert len(calls) == 2 + n_files
