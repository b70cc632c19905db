"""Configuration, reproducibility, reporting, and the CLI surface."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import frspec.harness as harness
from frspec.cli import main as cli_main
from frspec.fields import divergence_max, l2_norm
from frspec.forms import FormEngine
from frspec.harness import (
    ConfigError,
    SimConfig,
    audit_cancellations,
    bc_sums,
    format_float,
    random_initial_data,
    run_sweep,
    write_csv,
)
from frspec.solvers import FilteredStepper, SimState, read_checkpoint
from frspec.waves import decompose


SMALL = dict(N=3, T=0.05, dt=1e-3, dt_limit=5e-3, snapshot_dt=2.5e-2, eps_list=(0.1,))


class TestConfig:
    def test_parse_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            """
            # comment line
            a1_sq = 1
            a2_sq = 9/4   # rational period squared
            a3_sq = 2
            N = 3
            nu = 0.5
            eps = 1e-1, 1e-2
            T = 0.25
            dt = 5e-4
            dt_limit = 2.5e-3
            snapshot_dt = 0.025
            seed = 7
            spectrum_r = 2.5
            const_K = 3.0
            const_p = inf
            """
        )
        cfg = SimConfig.from_file(p)
        assert cfg.a_sq == (Fraction(1), Fraction(9, 4), Fraction(2))
        assert cfg.eps_list == (0.1, 0.01)
        assert cfg.constants["K"] == 3.0
        assert math.isinf(cfg.constants["p"])
        assert cfg.seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("frobnicate = 1\n")
        with pytest.raises(ConfigError):
            SimConfig.from_file(p)

    def test_irrational_period_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("a1_sq = sqrt2\n")
        with pytest.raises(ConfigError):
            SimConfig.from_file(p)

    def test_snapshot_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            replace(SimConfig(), snapshot_dt=0.0333).validate()

    def test_positivity(self):
        with pytest.raises(ConfigError):
            replace(SimConfig(), dt=-1.0).validate()
        with pytest.raises(ConfigError):
            replace(SimConfig(), eps_list=(0.0,)).validate()

    def test_snapshot_dt_equal_to_horizon_is_valid(self):
        replace(SimConfig(), T=0.05, snapshot_dt=0.05).validate()


class TestInitialData:
    def test_bit_identical_per_seed(self):
        cfg = SimConfig().validate()
        a, _ = random_initial_data(cfg)
        b, _ = random_initial_data(cfg)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_structure(self):
        cfg = SimConfig().validate()
        f, report = random_initial_data(cfg)
        assert f.zero_mean()
        assert divergence_max(f) < 1e-12
        assert f.hermitian_defect() < 1e-12
        total_sq = (
            report["norm_underline"] ** 2
            + report["norm_bar"] ** 2
            + report["norm_osc"] ** 2
        )
        assert abs(total_sq - report["norm_total"] ** 2) < 1e-12

    def test_spectrum_slope_applied(self):
        shallow = replace(SimConfig(), spectrum_r=0.0).validate()
        steep = replace(SimConfig(), spectrum_r=6.0).validate()
        f1, _ = random_initial_data(shallow)
        f2, _ = random_initial_data(steep)
        g = shallow.geometry()
        hi = np.abs(g.check_sq) > 20
        hi_frac1 = np.sum(np.abs(f1.coeffs[hi]) ** 2) / l2_norm(f1) ** 2
        hi_frac2 = np.sum(np.abs(f2.coeffs[hi]) ** 2) / l2_norm(f2) ** 2
        assert hi_frac2 < 0.1 * hi_frac1


class TestCsv:
    def test_formatting(self, tmp_path):
        p = tmp_path / "r.csv"
        write_csv([(1.0 / 3.0, 2, "x")], p, header=("a", "b", "c"))
        text = p.read_text()
        assert text.splitlines()[0] == "a,b,c"
        assert "0.33333333333333331" in text

    def test_empty_report_header_only(self, tmp_path):
        p = tmp_path / "e.csv"
        write_csv([], p, header=("u", "v"))
        assert p.read_text() == "u,v\n"

    def test_format_float_round_trip(self):
        for x in (1e-17, math.pi, 123456.789, 1.0):
            assert float(format_float(x)) == x


class TestSweep:
    def test_deterministic_bytes(self, tmp_path):
        cfg = replace(SimConfig(), **SMALL).validate()
        r1 = run_sweep(cfg)
        r2 = run_sweep(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(r1, p1)
        write_csv(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_shape_and_columns(self):
        cfg = replace(SimConfig(), **SMALL).validate()
        rep = run_sweep(cfg)
        assert rep.header == ("epsilon", "t", "err_Hs2", "energy_drift", "remainder_L2")
        assert len(rep.rows) == 2  # two snapshots, one epsilon
        for row in rep.rows:
            assert row[0] == 0.1 and row[2] >= 0.0

    def test_solver_failure_recorded_and_sweep_continues(self):
        # At amplitude 500 the advective bound of the data is 1.69e-4, below
        # dt = 1e-3 and dt_limit = 5e-3; the limit solve runs first and
        # stops on its CFL check.
        over = dict(SMALL, amplitude=500.0)
        cfg = replace(SimConfig(), **over).validate()
        rep = run_sweep(cfg)
        assert "failures" in rep.summary
        assert math.isinf(rep.summary["errors"][format_float(0.1)])

    def test_limit_failure_recorded_for_every_eps(self):
        over = dict(SMALL, amplitude=500.0, eps_list=(math.inf, 0.1))
        cfg = replace(SimConfig(), **over).validate()
        rep = run_sweep(cfg)
        keys = ["inf", format_float(0.1)]
        assert list(rep.summary["errors"]) == keys
        assert all(math.isinf(rep.summary["errors"][k]) for k in keys)
        assert list(rep.summary["failures"]) == keys
        assert all(m.startswith("limit solve: ") for m in rep.summary["failures"].values())
        assert rep.rows == []

    def test_resonance_counts_reported(self):
        cfg = replace(SimConfig(), **SMALL).validate()
        rep = run_sweep(cfg)
        assert rep.summary["resonance_counts"]["tilde_rows"] > 0

    def test_table_build_timed_apart_from_limit_solve(self, monkeypatch):
        built_at_solve = []
        solve_limit = harness.solve_limit

        def spy(engine, *args, **kwargs):
            built_at_solve.append(engine._tab_t1 is not None)
            return solve_limit(engine, *args, **kwargs)

        monkeypatch.setattr(harness, "solve_limit", spy)
        cfg = replace(SimConfig(), **SMALL).validate()
        rep = run_sweep(cfg)
        assert built_at_solve == [True]
        assert list(rep.timings)[:2] == ["tables", "limit_solve"]
        assert rep.timings["tables"] > 0.0
        counts = rep.summary["resonance_counts"]
        tab, _ = FormEngine(cfg.geometry(), cfg.nu).tables
        assert counts["sign_classes"] == tab.class_rows()
        assert sum(counts["sign_classes"].values()) == counts["tilde_rows"] == tab.rows

    def test_infinite_eps_degenerate(self):
        over = dict(SMALL, T=0.1, eps_list=(math.inf,))
        cfg = replace(SimConfig(), **over).validate()
        rep = run_sweep(cfg)
        assert all(math.isinf(r[0]) for r in rep.rows)
        assert "inf" in rep.summary["errors"]


class TestAudit:
    def test_passes_on_default_config(self):
        cfg = replace(SimConfig(), N=3).validate()
        rep = audit_cancellations(cfg, n_seeds=2)
        assert rep.summary["passed"]
        assert abs(rep.summary["info"]["a2_osc_vs_full_laplacian_ratio"] - 0.5) < 1e-12

    def test_zero_field_vacuous(self, unit_torus_4):
        from frspec.fields import zero_field

        s = bc_sums(zero_field(unit_torus_4), 2)
        assert all(np.all(np.abs(v) == 0.0) for v in s.values())

    def test_bc_sums_reject_odd_mode(self, unit_torus_4):
        from frspec.fields import zero_field

        with pytest.raises(ValueError):
            bc_sums(zero_field(unit_torus_4), 3)


class TestCli:
    def _cfg_file(self, tmp_path, **over):
        lines = [
            "N = 3",
            "T = 0.05",
            "dt = 1e-3",
            "dt_limit = 5e-3",
            "snapshot_dt = 2.5e-2",
            "eps = 0.1",
            f"out_dir = {tmp_path / 'out'}",
        ]
        for k, v in over.items():
            lines.append(f"{k} = {v}")
        p = tmp_path / "t.cfg"
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    def test_audit_exit_zero(self, tmp_path, capsys):
        rc = cli_main(["--config", self._cfg_file(tmp_path), "audit"])
        assert rc == 0
        assert "audit passed" in capsys.readouterr().out

    def test_resonances_csv(self, tmp_path):
        rc = cli_main(["--config", self._cfg_file(tmp_path), "resonances"])
        assert rc == 0
        text = (tmp_path / "out" / "resonances.csv").read_text()
        assert text.splitlines()[0] == "k1,k2,k3,m1,m2,m3,n1,n2,n3,a,b,c"

    def test_resonances_nonempty_on_control_torus(self, tmp_path):
        rc = cli_main(
            ["--config", self._cfg_file(tmp_path, a3_sq=3), "resonances"]
        )
        assert rc == 0
        lines = (tmp_path / "out" / "resonances.csv").read_text().splitlines()
        assert len(lines) > 1
        assert lines[1].split(",")[-3:] in (["+", "+", "+"], ["-", "-", "-"], ["+", "-", "+"], ["-", "+", "-"], ["+", "-", "-"], ["-", "+", "+"])

    def test_sweep_and_determinism(self, tmp_path):
        cfgf = self._cfg_file(tmp_path)
        assert cli_main(["--config", cfgf, "sweep"]) == 0
        b1 = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert cli_main(["--config", cfgf, "sweep"]) == 0
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == b1

    @pytest.mark.parametrize("command", ["sweep", "limit", "simulate"])
    def test_numerical_failure_exit_code(self, tmp_path, capsys, command):
        cfgf = self._cfg_file(tmp_path, amplitude=500)
        assert cli_main(["--config", cfgf, command]) == 3
        eps = "inf" if command == "limit" else format_float(0.1)
        assert capsys.readouterr().err.splitlines() == [
            f"  eps={eps}: FAILED: limit solve: dt=0.005 exceeds the advective bound 1.692e-04"
        ]
        assert not list((tmp_path / "out").glob("*.frsp"))

    def test_simulate_infinite_eps_is_config_error(self, tmp_path, capsys):
        cfgf = self._cfg_file(tmp_path)
        assert cli_main(["--config", cfgf, "--epsilon", "inf", "simulate"]) == 2
        assert "frspec limit" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any solve

    def test_simulate_checkpoint_is_final_state(self, tmp_path):
        # the checkpoint equals a separate FilteredStepper integration of the
        # same initial data, coefficient for coefficient
        cfgf = self._cfg_file(tmp_path)
        assert cli_main(["--config", cfgf, "simulate"]) == 0
        ck = read_checkpoint(tmp_path / "out" / f"state_eps{format_float(0.1)}.frsp")

        cfg = SimConfig.from_file(cfgf)
        stepper = FilteredStepper(FormEngine(cfg.geometry(), cfg.nu), 0.1, cfg.dt)
        V0, _ = random_initial_data(cfg)
        state = SimState(0.0, V0, cfg.nu, 0.1)
        for i in range(int(round(cfg.T / cfg.dt))):
            state = stepper.step(state, enforce_cfl=(i % 100 == 0))
        assert np.array_equal(ck.U.coeffs, state.U.coeffs)
        assert (ck.t, ck.nu, ck.eps) == (state.t, state.nu, state.eps)

    @pytest.mark.parametrize(
        "over", [dict(T=0.01, snapshot_dt=0.05), dict(snapshot_dt=0), dict(snapshot_dt=-0.025)]
    )
    def test_snapshot_grid_outside_horizon_is_config_error(self, tmp_path, capsys, over):
        # a snapshot grid that records nothing: no snapshot in (0, T]
        with pytest.raises(ConfigError):
            replace(SimConfig(), **over).validate()
        assert cli_main(["--config", self._cfg_file(tmp_path, **over), "sweep"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: snapshot_dt")
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("nonsense = 1\n")
        assert cli_main(["--config", str(p), "audit"]) == 2

    def test_epsilon_flag_overrides(self, tmp_path):
        cfgf = self._cfg_file(tmp_path)
        rc = cli_main(["--config", cfgf, "--epsilon", "0.2", "sweep"])
        assert rc == 0
        text = (tmp_path / "out" / "sweep.csv").read_text()
        assert text.splitlines()[1].startswith("0.2")

    def test_norms_report(self, tmp_path):
        rc = cli_main(["--config", self._cfg_file(tmp_path), "norms"])
        assert rc == 0
        text = (tmp_path / "out" / "norms.csv").read_text()
        assert text.splitlines()[0] == "q,block_l2,c_q,bernstein_k1,bernstein_gain"
