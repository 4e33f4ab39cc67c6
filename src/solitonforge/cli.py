"""Command-line batch tool: config parsing, orchestration, and export.

Subcommands; each gated one exits 1 iff one of the checks after its colon
fails:
    solve       integrate and reconstruct, export the profile (no gate)
    verify      solve + full verification suite: every check of
                verify.run_suite
    curvature   solve + curvature report and tail fits:
                verify.curvature_checks (ricci_nonnegative,
                soliton_residual), and in soliton mode verify.tail_checks
                on the same report and fits (curvature_signs,
                curvature_decay, scalar_decay, scalar_growth,
                g_sq_exponent, paraboloid_g_gdot, paraboloid_g_sq_over_t,
                scalar_two_routes)
    oracle      solve + independent second-order cross-validation over
                oracle.window: verify.oracle_checks (oracle_deviation,
                conservation_drift)
    ricci-flat  solve in Ricci-flat mode, report the flatness residuals:
                verify.ricci_flat_checks (max_abs_L, max_abs_H_minus_1,
                max_abs_ricci, max_abs_u_dot)
    sweep       grid of seed-coefficient ratios, one output set per point:
                verify.boundary_checks at each point (collapse_g1,
                collapse_g1_ddot, potential_boundary_derivatives,
                noncollapsing_factors) and verify.distinct_check across
                them (pairwise_distinct)

Orchestration goes through one `Request` per spec, which computes each
stage (trajectory, profile, curvature, Ricci tensor, suite report, oracle
run and deviations) once, on first read; the tools under ``tools`` serve
their requests through it too.  The tolerances live with the checks in
`verify`; this module compares no measured value with a bound.  Every
gated command but `verify`, which prints its whole report, exits through
`_gate`, the one reporter of failing checks on stderr.

Config files are strict JSON: unknown keys are rejected so a misspelled
tolerance can never silently fall back to a default; an absent key takes
the default of the dataclass field it fills.  Plot-series names are
checked while parsing, before anything is integrated.  Every CSV and DAT
table is written by one writer, `_write_table`, from one list of
(name, column) pairs that gives both the header and the column order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import flow, geometry, oracle, reconstruct, verify
from .errors import IoError, ParseError, SolitonForgeError
from .model import FactorSpec, Mode, ProblemSpec, StepControls, validate_spec

OUT_ENV_VAR = "SOLITONFORGE_OUT"

_TOP_KEYS = {
    "factors", "gauge_C", "seed_coeffs", "s_max", "origin_tol",
    "rtol", "atol", "max_steps", "mode", "output", "sweep",
}
_FACTOR_KEYS = {"dim", "lambda"}
_OUTPUT_KEYS = {"directory", "formats", "thin", "plots"}
_SWEEP_KEYS = {"coeff_index", "ratios"}


@dataclass
class RunConfig:
    """Parsed configuration: a problem spec plus output controls."""

    spec: ProblemSpec
    out_dir: str = "."
    formats: tuple[str, ...] = ("csv", "json")
    thin: int = 1
    plots: tuple[str, ...] = ()
    sweep_coeff_index: int = 1
    sweep_ratios: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0)


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in {where}")


def _as_float(value) -> float:
    """float(value), or NaN for a value that does not convert."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _finite(value, key: str) -> float:
    x = _as_float(value)
    if not math.isfinite(x):
        raise ParseError(f"{key} must be a finite number, got {value!r}")
    return x


def _tolerance(value, key: str) -> float:
    """A tolerance: a finite number > 0."""
    tol = _as_float(value)
    if not (math.isfinite(tol) and tol > 0):
        raise ParseError(f"{key} must be a finite number > 0, got {value!r}")
    return tol


def _integer(value, key: str, positive: bool = False) -> int:
    """A JSON integer: not a bool, and not a float such as 2.5."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (positive and value < 1)):
        kind = "a positive integer" if positive else "an integer"
        raise ParseError(f"{key} must be {kind}, got {value!r}")
    return value


def _numbers(value, key: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{key} must be a list of numbers, got {value!r}")
    return tuple(_finite(v, f"{key}[{i}]") for i, v in enumerate(value))


def _plot_series(r: int, names) -> list:
    """(name, abscissa, getter) of each named plot series for r factors.

    The one table of series names: parse_config checks a config's names
    here and export_plot_series writes from here.
    """
    series = {
        "L_vs_s": ("s", lambda p: (p.s, p.L)),
        "H_vs_s": ("s", lambda p: (p.s, p.H)),
        "u_vs_t": ("t", lambda p: (p.t, p.u)),
        "u_dot_vs_t": ("t", lambda p: (p.t, p.u_dot)),
    }
    for i in range(r):
        series[f"g{i + 1}_vs_t"] = ("t", lambda p, i=i: (p.t, p.g[:, i]))
        series[f"g{i + 1}_dot_vs_t"] = ("t", lambda p, i=i: (p.t, p.g_dot[:, i]))
    for name in names:
        if name not in series:
            raise ParseError(f"unknown plot series {name!r}")
    return [(name, *series[name]) for name in names]


def parse_config(source: str, inline: bool = False) -> RunConfig:
    """Parse a strict JSON config from a path (or inline text)."""
    if inline:
        text = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise IoError(f"cannot read config {source}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past int's digit limit
        raise ParseError(f"config holds a number too long to read: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")

    if "factors" not in raw or not isinstance(raw["factors"], list) or not raw["factors"]:
        raise ParseError("config field 'factors' must be a non-empty list")
    factors = []
    for k, f in enumerate(raw["factors"]):
        if not isinstance(f, dict):
            raise ParseError(f"factors[{k}] must be an object")
        _reject_unknown(f, _FACTOR_KEYS, f"factors[{k}]")
        if "dim" not in f:
            raise ParseError(f"factors[{k}] is missing 'dim'")
        dim = _integer(f["dim"], f"factors[{k}].dim", positive=True)
        if not math.isfinite(_as_float(dim)):
            raise ParseError(f"factors[{k}].dim is too large for a float")
        lam = _finite(f.get("lambda", dim - 1), f"factors[{k}].lambda")
        factors.append(FactorSpec(dim=dim, einstein_const=lam))

    mode_name = str(raw.get("mode", ProblemSpec.mode.value)).lower().replace("-", "_")
    try:
        mode = Mode[mode_name.upper()]
    except KeyError:
        raise ParseError(f"unknown mode {raw.get('mode')!r}") from None

    s_max = _finite(raw.get("s_max", ProblemSpec.s_max), "s_max")
    controls = StepControls(
        rtol=_tolerance(raw.get("rtol", StepControls.rtol), "rtol"),
        atol=_tolerance(raw.get("atol", StepControls.atol), "atol"),
        max_steps=_integer(raw.get("max_steps", StepControls.max_steps), "max_steps",
                           positive=True),
    )
    seed_coeffs = raw.get("seed_coeffs")
    spec = ProblemSpec(
        factors=tuple(factors),
        gauge_C=_finite(raw.get("gauge_C", ProblemSpec.gauge_C), "gauge_C"),
        seed_coeffs=None if seed_coeffs is None else _numbers(seed_coeffs, "seed_coeffs"),
        s_max=s_max,
        origin_tol=_tolerance(raw.get("origin_tol", ProblemSpec.origin_tol), "origin_tol"),
        step_controls=controls,
        mode=mode,
    )
    validate_spec(spec)

    out = raw.get("output", {})
    if not isinstance(out, dict):
        raise ParseError("config field 'output' must be an object")
    _reject_unknown(out, _OUTPUT_KEYS, "output")
    formats = out.get("formats", list(RunConfig.formats))
    if not isinstance(formats, list):
        raise ParseError(f"output.formats must be a list, got {formats!r}")
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ParseError(f"unknown output format {fmt!r}")
    thin = _integer(out.get("thin", RunConfig.thin), "output.thin", positive=True)
    out_dir = out.get("directory", os.environ.get(OUT_ENV_VAR, RunConfig.out_dir))
    if not isinstance(out_dir, str):
        raise ParseError(f"output.directory must be a string, got {out_dir!r}")
    plots = out.get("plots", list(RunConfig.plots))
    if not isinstance(plots, list) or not all(isinstance(p, str) for p in plots):
        raise ParseError(f"output.plots must be a list of series names, got {plots!r}")
    _plot_series(len(factors), plots)

    sweep = raw.get("sweep", {})
    if not isinstance(sweep, dict):
        raise ParseError("config field 'sweep' must be an object")
    _reject_unknown(sweep, _SWEEP_KEYS, "sweep")
    ratios = _numbers(sweep.get("ratios", list(RunConfig.sweep_ratios)), "sweep.ratios")
    if len(ratios) < 2 or min(ratios) <= 0:
        raise ParseError(
            f"sweep.ratios must list at least two numbers > 0, got {sweep['ratios']!r}")

    return RunConfig(
        spec=spec,
        out_dir=out_dir,
        formats=tuple(formats),
        thin=thin,
        plots=tuple(plots),
        sweep_coeff_index=_integer(sweep.get("coeff_index", RunConfig.sweep_coeff_index),
                                   "sweep.coeff_index"),
        sweep_ratios=ratios,
    )


# --------------------------------------------------------------------------
# export


_FMT = "%.16e"  # 17 significant digits round-trips doubles exactly


def _write_table(path: str, columns: list, sep: str = ",") -> None:
    """The one table writer: a header line joining the column names, then
    one line per sample.  columns is a list of (name, values) pairs."""
    line = sep.join([_FMT] * len(columns)) + "\n"
    rows = np.column_stack([values for _, values in columns]).tolist()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sep.join(name for name, _ in columns) + "\n")
            fh.writelines(line % tuple(row) for row in rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _per_factor(name: str, values) -> list:
    """Columns name_1 .. name_r of an (N, r) array."""
    return [(f"{name}_{i + 1}", values[:, i]) for i in range(values.shape[1])]


def export_profile_csv(profile, traj, path: str, thin: int = 1) -> None:
    columns = (
        [("s", profile.s), ("t", profile.t)]
        + _per_factor("X", traj.X) + _per_factor("Y", traj.Y)
        + [("L", profile.L), ("H", profile.H)]
        + _per_factor("g", profile.g) + _per_factor("g_dot", profile.g_dot)
        + _per_factor("g_ddot", profile.g_ddot)
        + [("u", profile.u), ("u_dot", profile.u_dot), ("u_ddot", profile.u_ddot)]
    )
    _write_table(path, [(name, values[::thin]) for name, values in columns])


def read_profile_csv(path: str):
    """Round-trip reader: header list plus a column-name -> array mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return header, {name: data[:, j] for j, name in enumerate(header)}


def _write_json(obj: dict, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def export_plot_series(profile, names, out_dir: str) -> list[str]:
    """Two-column (abscissa, value) text files, one per requested series."""
    written = []
    for name, xname, getter in _plot_series(profile.r, names):
        path = os.path.join(out_dir, f"{name}.dat")
        x, y = getter(profile)
        # the "# " makes the header line a comment for plotting tools
        _write_table(path, [(f"# {xname}", x), (name, y)], sep=" ")
        written.append(path)
    return written


# --------------------------------------------------------------------------
# orchestration


class Request:
    """One spec's way through the pipeline.  Each stage is computed once,
    on first read, from the stages it needs, so reading an attribute
    selects what runs: ``traj`` alone integrates and reconstructs
    nothing.  Each layer is called through its module attribute, so a
    tracer or a test that replaces it sees the call."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec

    @cached_property
    def traj(self):
        return flow.run(self.spec)

    @cached_property
    def profile(self):
        return reconstruct.build_profile(self.traj, self.spec)

    @cached_property
    def curv(self):
        return geometry.sectional_curvatures(self.profile, self.spec)

    @cached_property
    def ricci(self):
        return geometry.ricci_components(self.profile, self.spec)

    @cached_property
    def report(self):
        return verify.run_suite(self.traj, self.profile, self.curv, self.spec)

    @cached_property
    def oracle_run(self):
        """The second-order run over oracle.window, from the profile's own
        sample at its start."""
        t0, t_end = oracle.window(self.profile)
        return oracle.integrate_second_order(
            oracle.init_from_profile(self.profile, t0), self.spec, t_end)

    @cached_property
    def oracle_deviations(self):
        return oracle.compare_profiles(self.profile, self.oracle_run)


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {path}: {exc}") from exc


def _export_run(cfg: RunConfig, req: Request, extra_json: dict | None = None) -> None:
    traj, profile = req.traj, req.profile
    _make_out_dir(cfg.out_dir)
    summary = {
        "dims": list(cfg.spec.dims),
        "lambdas": list(cfg.spec.lambdas),
        "mode": cfg.spec.mode.name.lower(),
        "seed_coeffs": list(cfg.spec.seed_coeffs),
        "gauge_C": cfg.spec.gauge_C,
        "termination": traj.termination,
        "n_steps": traj.n_steps,
        "kappa_estimate": traj.kappa_estimate,
        "t_first": float(profile.t[0]),
        "t_last": float(profile.t[-1]),
        "u_gauge": "u(s_0) = 0",
    }
    if cfg.spec.mode is Mode.SOLITON:
        # n_steps counts the intervals between samples; the tail's samples
        # lie on a fixed grid, so its steps are counted apart
        summary.update(radau_steps=traj.radau_steps, tail_steps=traj.tail_steps)
    if extra_json:
        summary.update(extra_json)
    if "csv" in cfg.formats:
        export_profile_csv(profile, traj, os.path.join(cfg.out_dir, "profile.csv"),
                           thin=cfg.thin)
    if "json" in cfg.formats:
        _write_json(summary, os.path.join(cfg.out_dir, "profile.json"))
    if cfg.plots:
        export_plot_series(profile, cfg.plots, cfg.out_dir)


def _gate(label: str, checks) -> int:
    """Exit code 1 iff one of checks fails, each failing check named on
    stderr after label."""
    failed = [c for c in checks if not c.passed]
    for c in failed:
        print(f"{label}: FAIL {c}", file=sys.stderr)
    return int(bool(failed))


def cmd_solve(cfg: RunConfig) -> int:
    req = Request(cfg.spec)
    traj, profile = req.traj, req.profile
    _export_run(cfg, req)
    print(f"solve: {traj.s.size} samples, {traj.radau_steps} Radau steps and "
          f"{traj.tail_steps} tail steps, termination={traj.termination}, "
          f"t in [{profile.t[0]:.6g}, {profile.t[-1]:.6g}]")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    req = Request(cfg.spec)
    # the profile is written first, so that a run the suite cannot judge
    # (too short for the tail fits, exit 2) still leaves it to the user
    _export_run(cfg, req)
    report = req.report
    _write_json(report.to_dict(), os.path.join(cfg.out_dir, "verify_report.json"))
    for line in report.summary_lines():
        print(line)
    print(f"verify: {'PASS' if report.passed else 'FAIL'} "
          f"({sum(c.passed for c in report.checks)}/{len(report.checks)} checks)")
    return 0 if report.passed else 1


def cmd_curvature(cfg: RunConfig) -> int:
    req = Request(cfg.spec)
    curv = req.curv
    asym = geometry.asymptotics(req.profile, curv)
    extra = {
        "min_ricci": curv.min_ricci(),
        "soliton_residual_max": curv.soliton_residual_max,
        "g_gdot_limits": list(asym.g_gdot_limit),
        "g_sq_over_t_limits": list(asym.g_sq_over_t_limit),
        "curvature_slope": asym.curvature_slope,
        "scalar_slope": asym.scalar_slope,
    }
    checks = verify.curvature_checks(curv)
    if cfg.spec.mode is Mode.RICCI_FLAT:
        # the paraboloid limits and the fit of R (zero up to roundoff) hold
        # for solitons only; a Ricci-flat end is a cone
        extra.update(dict.fromkeys(("g_gdot_limits", "g_sq_over_t_limits",
                                    "scalar_slope")))
    else:
        checks += verify.tail_checks(asym, curv, cfg.spec)
    _export_run(cfg, req, extra_json=extra)
    if "csv" in cfg.formats:
        _write_table(os.path.join(cfg.out_dir, "curvature.csv"), (
            [("t", curv.t), ("ric_tt", curv.ric_tt)]
            + _per_factor("ric_factor", curv.ric_factor)
            + _per_factor("sect_mixed_t", curv.sectional_mixed_t)
            + [("scalar_R", curv.scalar_R)]
        ))
    print(f"curvature: min Ricci {curv.min_ricci():.3e}, "
          f"residual {curv.soliton_residual_max:.3e}, "
          f"|K| slope {asym.curvature_slope:+.4f}")
    return _gate("curvature", checks)


def cmd_oracle(cfg: RunConfig) -> int:
    req = Request(cfg.spec)
    run, devs = req.oracle_run, req.oracle_deviations
    drift = run.conservation_drift()
    _export_run(cfg, req, extra_json={
        "oracle_t0": run.t[0], "oracle_deviations": devs, "conservation_drift": drift})
    checks = verify.oracle_checks(devs, drift)
    print(f"oracle: max relative deviation {checks[0].measured:.3e}, "
          f"conservation drift {drift:.3e}")
    return _gate("oracle", checks)


def cmd_ricci_flat(cfg: RunConfig) -> int:
    spec = replace(cfg.spec, mode=Mode.RICCI_FLAT)
    validate_spec(spec)
    cfg = replace(cfg, spec=spec)
    req = Request(spec)
    checks = verify.ricci_flat_checks(req.traj, req.profile, req.ricci)
    _export_run(cfg, req, extra_json={c.name: c.measured for c in checks})
    code = _gate("ricci-flat", checks)
    max_L, max_H, max_ric = (c.measured for c in checks[:3])
    print(f"ricci-flat: |L| <= {max_L:.3e}, |H-1| <= {max_H:.3e}, "
          f"|Ric| <= {max_ric:.3e} ({'FAIL' if code else 'PASS'})")
    return code


def cmd_sweep(cfg: RunConfig) -> int:
    idx = cfg.sweep_coeff_index
    base = list(cfg.spec.seed_coeffs)
    if not 1 <= idx < len(base):
        raise ParseError(f"sweep coeff_index {idx} out of range for r={len(base)}")
    if base[0] == 0:
        raise ParseError(f"sweep scales seed_coeffs[{idx}] by |seed_coeffs[0]|, "
                         "which is 0")
    results = []
    code = 0
    _make_out_dir(cfg.out_dir)
    for k, ratio in enumerate(cfg.sweep_ratios):
        coeffs = list(base)
        coeffs[idx] = ratio * abs(base[0])
        point_spec = cfg.spec.with_seed_coeffs(tuple(coeffs))
        point_cfg = replace(
            cfg, spec=point_spec,
            out_dir=os.path.join(cfg.out_dir, f"sweep_{k:02d}"), plots=())
        req = Request(point_spec)
        boundary, checks = verify.boundary_checks(req.traj, req.profile)
        g0, g0_err = boundary["g_0"], boundary["g_0_err"]
        results.append({"ratio": ratio, "g_0": g0, "g_0_err": g0_err})
        _export_run(point_cfg, req, extra_json=results[-1])
        print(f"sweep[{k}]: ratio {ratio:g} -> g_{idx + 1}(0) = {g0[idx]:.8f} "
              f"(+/- {g0_err[idx]:.2e})")
        code |= _gate(f"sweep[{k}]: ratio {ratio:g}", checks)
    _write_json({"coeff_index": idx, "points": results},
                os.path.join(cfg.out_dir, "sweep_report.json"))
    distinct = verify.distinct_check([p["g_0"][idx] for p in results],
                                     [p["g_0_err"][idx] for p in results])
    print(f"sweep: g_{idx + 1}(0) values pairwise distinct: {distinct.passed}")
    return _gate("sweep", [distinct]) | code


_COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "curvature": cmd_curvature,
    "oracle": cmd_oracle,
    "ricci-flat": cmd_ricci_flat,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="solitonforge",
        description="Numerical construction and verification of steady "
                    "gradient Ricci solitons on multiply warped products.")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", required=True, help="path to a JSON config")
    p.add_argument("--out", help="output directory (overrides config and "
                                 f"${OUT_ENV_VAR})")
    p.add_argument("--format", choices=("csv", "json"),
                   help="restrict exports to one format")
    p.add_argument("--tol", type=float,
                   help="override both integration tolerances (rtol = atol)")
    p.add_argument("--seed-eps0", type=float,
                   help="override the primary seed coefficient")
    p.add_argument("--seed-eps", action="append", default=[],
                   metavar="i=value",
                   help="override seed coefficient i (1-based, repeatable)")
    return p


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    spec = cfg.spec
    if args.tol is not None:
        tol = _tolerance(args.tol, "--tol")
        spec = replace(spec, step_controls=replace(
            spec.step_controls, rtol=tol, atol=tol))
    coeffs = list(spec.seed_coeffs)
    if args.seed_eps0 is not None:
        coeffs[0] = _finite(args.seed_eps0, "--seed-eps0")
    for item in args.seed_eps:
        try:
            pos, val = item.split("=", 1)
            pos = int(pos)
            val = float(val)
        except ValueError:
            raise ParseError(f"--seed-eps expects i=value, got {item!r}") from None
        if not 1 <= pos <= len(coeffs):
            raise ParseError(f"--seed-eps index {pos} out of range 1..{len(coeffs)}")
        coeffs[pos - 1] = _finite(val, f"--seed-eps {pos}")
    spec = spec.with_seed_coeffs(tuple(coeffs))
    validate_spec(spec)
    out_dir = args.out if args.out is not None else cfg.out_dir
    formats = (args.format,) if args.format else cfg.formats
    return replace(cfg, spec=spec, out_dir=out_dir, formats=formats)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        cfg = _apply_overrides(cfg, args)
        return _COMMANDS[args.command](cfg)
    except SolitonForgeError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
