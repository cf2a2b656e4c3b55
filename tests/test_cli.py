"""Command-line entry points: parsing, CSV output, exit codes."""

import numpy as np
import pytest

from mmbgk import cli, schemes
from mmbgk.coupling import transform_state_slots
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


def test_bad_float_list_exits_two(capsys):
    assert parse_and_dispatch(["bench", "--eps", "abc"]) == 2
    assert "comma-separated numbers" in capsys.readouterr().err


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
    # a macro theta below half the prior's in cell 37 crosses the bound
    def squeeze_theta(w, macro):
        macro = macro.copy()
        macro[2, 37] = 0.4 * w[2, 37]
        return transform_state_slots(w, macro)

    monkeypatch.setattr(schemes, "transform_state_slots", squeeze_theta)
    rc = parse_and_dispatch(["two-beam", "--scheme", "mmhme", "--cells", "100",
                             "--t-end", "0.01", "--out", str(tmp_path / "b.csv")])
    assert rc == 1
    assert "in cell 37" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
