"""Command-line entry points: parsing, CSV output, exit codes."""

import sys

import numpy as np
import pytest

from mmbgk import cli, schemes
from mmbgk.cli import _fmt, parse_and_dispatch, snapshot_path, write_csv
from mmbgk.experiments import MomentSnapshot, TwoBeamConfig, two_beam


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def test_help_exits_zero(capsys):
    assert parse_and_dispatch(["--help"]) == 0
    assert "two-beam" in capsys.readouterr().out


def test_bad_invocations_exit_two(capsys):
    assert parse_and_dispatch([]) == 2
    assert parse_and_dispatch(["no-such-command"]) == 2
    assert parse_and_dispatch(["two-beam", "--no-such-flag"]) == 2
    capsys.readouterr()


def test_float_formatting_round_trips():
    for v in (0.1, 1e-300, -3.141592653589793, 4.859462828332312):
        assert float(_fmt(v)) == v
    assert _fmt(7) == "7"
    assert _fmt("abc") == "abc"


def test_snapshot_path_naming():
    assert snapshot_path("foo.csv", 2) == "foo_t2.csv"
    assert snapshot_path("foo", 0) == "foo_t0.csv"
    assert snapshot_path("out/run.dat", 1) == "out/run_t1.dat"


def test_write_csv_table(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(("a,b", [(1, 0.5), (2, 0.25)]), path)
    header, rows = _read_csv(path)
    assert header == "a,b"
    assert rows == [["1", "0.5"], ["2", "0.25"]]


def _reference_csv(header, rows):
    # the per-value writer: one _fmt call per cell
    return (header + "\n" + "".join(",".join(_fmt(v) for v in row) + "\n"
                                     for row in rows)).encode("utf-8")


def test_write_csv_snapshot_bytes_match_per_value_formatting(tmp_path):
    vals = np.array([0.0, -0.0, 5e-324, 1e-300, 1e300, np.inf, -np.inf, np.nan,
                     0.1, 7.0, 4.859462828332312, -2.5])
    cols = [np.roll(vals, k) for k in range(6)]
    snap = MomentSnapshot(0.0, *cols)
    path = tmp_path / "s.csv"
    write_csv(snap, path)
    assert path.read_bytes() == _reference_csv("x,rho,u,theta,p,q", zip(*cols))


def test_write_csv_mixed_table_bytes_match_per_value_formatting(tmp_path):
    rows = [("mmhme", 3, np.int64(-4), True, 0.1, np.float64(-0.0)),
            ("cpi", np.int64(2**62), False, 7, np.float64(5e-324), float("nan")),
            ("pi", 0, np.int64(0), np.True_, 1e300, np.float64(np.inf))]
    path = tmp_path / "t.csv"
    write_csv(("a,b,c,d,e,f", rows), path)
    assert path.read_bytes() == _reference_csv("a,b,c,d,e,f", rows)


def test_write_csv_error_leaves_no_file(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(TypeError):
        write_csv(("a,b", [(1, 0.5), (2, None)]), path)
    assert not path.exists()


def test_two_beam_writes_one_csv_per_snapshot(tmp_path, capsys):
    out = tmp_path / "beam.csv"
    rc = parse_and_dispatch([
        "two-beam", "--cells", "50", "--t-end", "0.002", "--snapshots", "2",
        "--eps", "1e-3", "--out", str(out)])
    assert rc == 0
    assert "wrote 3 snapshots" in capsys.readouterr().out
    snaps = two_beam(TwoBeamConfig(n_cells=50, t_end=0.002, eps=1e-3,
                                   n_snapshots=2))
    for i, snap in enumerate(snaps):
        header, rows = _read_csv(tmp_path / f"beam_t{i}.csv")
        assert header == "x,rho,u,theta,p,q"
        assert len(rows) == 50
        data = np.array(rows, dtype=float)
        # 17 significant digits: the file round-trips the arrays bitwise
        np.testing.assert_array_equal(data[:, 0], snap.x)
        np.testing.assert_array_equal(data[:, 1], snap.rho)
        np.testing.assert_array_equal(data[:, 5], snap.q)


@pytest.mark.parametrize("flags", [["--xmax", "inf"], ["--xmin=-1e308", "--xmax=1e308"]])
def test_domain_with_no_finite_width_exits_two(flags, tmp_path, capsys):
    # an infinite end or an overflowing width would put x = inf on every row
    rc = parse_and_dispatch(["two-beam", "--cells", "20", "--t-end", "0.001", *flags,
                             "--out", str(tmp_path / "b.csv")])
    assert rc == 2
    assert "has no finite width" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_matching_study_past_its_quadrature_order_exits_two(tmp_path, capsys):
    rc = parse_and_dispatch(["matching-study", "--moments", "200",
                             "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "n_moments <= 60" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_pi_macro_width_is_enforced(tmp_path, capsys):
    rc = parse_and_dispatch([
        "two-beam", "--scheme", "pi", "--macro", "3", "--cells", "20",
        "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "n_macro must equal n_moments" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "cells = 50\n"
        "t_end = 0.002\n"
        "# comment line\n"
        "eps = 1e-3\n",
        encoding="utf-8",
    )
    out = tmp_path / "a.csv"
    rc = parse_and_dispatch(["two-beam", "--config", str(cfgfile),
                             "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "a_t0.csv")
    assert len(rows) == 50
    # explicit flags override config entries
    out2 = tmp_path / "b.csv"
    rc = parse_and_dispatch(["two-beam", "--config", str(cfgfile),
                             "--cells", "30", "--out", str(out2)])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "b_t0.csv")
    assert len(rows) == 30
    capsys.readouterr()


def test_config_file_errors(tmp_path, capsys):
    assert parse_and_dispatch(["two-beam", "--config",
                               str(tmp_path / "gone.cfg")]) == 2
    assert "cannot read config file" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("cells 50\n", encoding="utf-8")
    assert parse_and_dispatch(["two-beam", "--config", str(bad)]) == 2
    assert "expected key=value" in capsys.readouterr().err
    good = tmp_path / "good.cfg"
    good.write_text("cells = 20\n", encoding="utf-8")
    assert parse_and_dispatch(["--config", str(good), "two-beam"]) == 2
    assert "must follow a subcommand" in capsys.readouterr().err


def test_config_flag_with_equals_sign_and_without_a_path(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("cells = 20\nt_end = 0.001\neps = 1e-3\n", encoding="utf-8")
    out = tmp_path / "a.csv"
    assert parse_and_dispatch(["two-beam", f"--config={cfgfile}", "--out", str(out)]) == 0
    _, rows = _read_csv(tmp_path / "a_t0.csv")
    assert len(rows) == 20
    capsys.readouterr()
    assert parse_and_dispatch(["two-beam", "--config"]) == 2
    assert "--config expects a file path" in capsys.readouterr().err


def test_matching_study_output(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert parse_and_dispatch(["matching-study", "--out", str(out)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 5
    header, rows = _read_csv(out)
    assert header == "L,error"
    assert [r[0] for r in rows] == ["3", "4", "5", "6", "7"]
    errs = [float(r[1]) for r in rows]
    assert all(b <= a for a, b in zip(errs, errs[1:]))


def test_consistency_sweep_smoke(tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc = parse_and_dispatch(["consistency-sweep", "--cfl", "0.5,0.4",
                             "--t-end", "0.01", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == "scheme,cfl,dt,distance"
    assert len(rows) == 4
    capsys.readouterr()


def test_bench_smoke(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = parse_and_dispatch(["bench", "--eps", "1e-3", "--t-end", "0.01",
                             "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == "scheme,eps,wall_time,steps,speedup"
    assert [r[0] for r in rows] == ["micro", "mmhme", "euler"]
    capsys.readouterr()


def test_bench_micro_reference_keeps_its_cfl_cap(tmp_path, capsys):
    # above eps = 7.5e-3 the micro step min(CFL, eps/2) is the CFL limit;
    # a fixed eps/2 would exceed it on the first step
    out = tmp_path / "bench.csv"
    rc = parse_and_dispatch(["bench", "--eps", "0.05", "--t-end", "0.02",
                             "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    _, rows = _read_csv(out)
    assert [r[0] for r in rows] == ["micro", "mmhme", "euler"]
    assert int(rows[0][3]) == 6  # 0.02 over the CFL step 0.0037


@pytest.mark.parametrize("flags,msg", [
    (["--t-end", "nan"], "t_end must be >= 0 and finite"),
    (["--t-end", "inf"], "t_end must be >= 0 and finite"),
    (["--t-end", "0.05", "--scheme", "mmhme", "--dt-macro", "inf"], "dt_macro must be"),
    (["--t-end", "0.05", "--scheme", "euler", "--dt-macro", "inf"], "dt_macro must be"),
    (["--t-end", "0.05", "--scheme", "micro", "--dt-micro", "1e300"], "would take no step"),
])
def test_step_inputs_that_take_no_step_or_never_end_exit_two(flags, msg, tmp_path, capsys,
                                                            monkeypatch):
    def no_step(self, t, dt):
        raise AssertionError("a step ran")

    monkeypatch.setattr(schemes._Runner, "step", no_step)
    rc = parse_and_dispatch(["two-beam", "--cells", "20", *flags,
                             "--out", str(tmp_path / "b.csv")])
    assert rc == 2
    assert msg in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_step_that_holds_its_micro_steps_up_to_rounding_exits_zero(tmp_path, capsys):
    # t_end falls 4.5e-16 short of the 2000 micro steps of 2.5e-7
    rc = parse_and_dispatch(["two-beam", "--scheme", "mmhme", "--cells", "20",
                             "--micro-steps", "2000", "--t-end", "0.0004999999999995501",
                             "--out", str(tmp_path / "b.csv")])
    assert rc == 0, capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b_t0.csv", "b_t1.csv"]


def test_snapshot_target_an_ulp_past_a_pace_multiple_keeps_the_last_csv(tmp_path, capsys):
    # at eps = 1e-3 the K micro steps fill the pace; a snapshot target that
    # lands an ulp past a pace multiple leaves a leftover the run absorbs, so
    # four snapshots end on the bytes of one
    for n in (1, 4):
        rc = parse_and_dispatch(["two-beam", "--scheme", "mmhme", "--eps", "1e-3",
                                 "--cells", "100", "--t-end", "0.006", "--snapshots",
                                 str(n), "--out", str(tmp_path / f"s{n}.csv")])
        assert rc == 0, capsys.readouterr().err
    last = [(tmp_path / f"s{n}_t{n}.csv").read_bytes() for n in (1, 4)]
    assert last[0] == last[1]


def test_bad_float_list_exits_two(capsys):
    assert parse_and_dispatch(["bench", "--eps", "abc"]) == 2
    assert "comma-separated numbers" in capsys.readouterr().err


def test_empty_float_list_exits_two(capsys):
    assert parse_and_dispatch(["bench", "--eps", ","]) == 2
    assert "--eps got an empty list" in capsys.readouterr().err


def test_entry_points_read_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["mmbgk", "--help"])
    assert parse_and_dispatch() == 0
    assert "two-beam" in capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["mmbgk", "no-such-command"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    capsys.readouterr()


def test_unwritable_output_exits_one(tmp_path, capsys):
    rc = parse_and_dispatch([
        "two-beam", "--cells", "20", "--t-end", "0.001", "--eps", "1e-3",
        "--out", str(tmp_path / "no_dir" / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_output_directory_fails_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError("two_beam ran although --out cannot be written")

    monkeypatch.setattr(cli, "two_beam", no_run)
    missing = tmp_path / "no" / "such" / "dir"
    rc = parse_and_dispatch(["two-beam", "--out", str(missing / "x.csv")])
    assert rc == 1
    assert str(missing) in capsys.readouterr().err


def test_matching_study_realizability_breach_exits_one(tmp_path, capsys):
    # at scale 0.4 the exact state's theta is 0.4 of the prior's, past the
    # matching bound theta_prior < 2 theta_new: a runtime failure, not a
    # configuration problem
    rc = parse_and_dispatch(["matching-study", "--scale", "0.4",
                             "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    assert "realizability bound" in capsys.readouterr().err


def test_two_beam_stopped_by_the_matching_bound_exits_one(tmp_path, capsys, monkeypatch):
    # the Euler leftover of the default eps = 1e-4 ends with the macro theta
    # of cell 37 below half the prior's; a write from outside the buffer
    # sets its span to the whole grid
    euler_advance = schemes._Runner._euler_advance

    def squeeze_theta(self, buf, t, dt_total):
        t = euler_advance(self, buf, t, dt_total)
        buf.w[2, 37] = 0.4 * self.buf.w[2, 37]
        buf.span = (0, buf.w.shape[1])
        return t

    monkeypatch.setattr(schemes._Runner, "_euler_advance", squeeze_theta)
    rc = parse_and_dispatch(["two-beam", "--scheme", "mmhme", "--cells", "100",
                             "--t-end", "0.01", "--out", str(tmp_path / "b.csv")])
    assert rc == 1
    assert "in cell 37" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
