"""Command-line front end.

Subcommands: balance, shift, filter, birkhoff, bounds, demo-sensors.  Each
writes its files, then prints one JSON record: on stdout, or on stderr below a
signal printed on stdout; a failure prints one ``error:`` line on stderr.
Exit codes: 0 success, 2 invalid input, 3 numerical failure (including a
floating-point overflow, division by zero or invalid operation), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .balance import NotConvergedError, sinkhorn_knopp
from .birkhoff import DecompositionError, birkhoff_decompose
from .bounds import (
    RandomSignalModel,
    asymptotic_variance_bound,
    exact_shift_variance,
    kantorovich_bound,
    local_bounds,
    monte_carlo_shift_stats,
    shift_power_bounds,
    variance_upper_bound,
)
from .demo import SensorFieldConfig, run_sensor_demo
from .fileio import (
    _load_graph,
    _signal_text,
    load_matrix_market,
    load_signal_csv,
    save_birkhoff_json,
    save_json,
    save_matrix_market,
    save_signal_csv,
)
from .shifting import apply_filter, diffuse

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _signal_norms(x) -> dict:
    v = np.asarray(x, dtype=float)
    return {
        "l1": float(np.abs(v).sum()),
        "l2": float(np.sqrt((v**2).sum())),
        "linf": float(np.abs(v).max()),
    }


def _emit_signal(values, args, record: dict):
    """Write the values to ``--output`` (the record beside them) or, when it is
    omitted, to stdout; the record goes on stdout, or below the values on stderr."""
    if args.output is None:
        sys.stdout.write(_signal_text(values))
        return record, sys.stderr
    save_signal_csv(args.output, values)
    save_json(args.output + ".json", record)
    return record, sys.stdout


def _cmd_balance(args):
    op = sinkhorn_knopp(_load_graph(args.input), tol=args.tol).operator
    save_matrix_market(args.output, op)
    sidecar = {"residual": op.tolerance_achieved, "iterations": op.iterations_used}
    save_json(args.output + ".json", sidecar)
    return sidecar, sys.stdout


def _cmd_shift(args):
    s = load_matrix_market(args.op)
    x = load_signal_csv(args.signal)
    y = diffuse(s, x, args.k)
    record = {
        "shifts": args.k,
        "norms_before": _signal_norms(x),
        "norms_after": _signal_norms(y),
    }
    return _emit_signal(y, args, record)


def _cmd_filter(args):
    s = load_matrix_market(args.op)
    x = load_signal_csv(args.signal)
    h = load_signal_csv(args.coeffs)
    y = apply_filter(s, h, x)
    record = {
        "order": int(h.size - 1),
        "coefficient_l1": float(np.abs(h).sum()),
        "norms_before": _signal_norms(x),
        "norms_after": _signal_norms(y),
    }
    return _emit_signal(y, args, record)


def _cmd_birkhoff(args):
    s = load_matrix_market(args.op)
    d = birkhoff_decompose(s)
    save_birkhoff_json(args.output, d)
    return {"terms": d.n_terms, "repairs": d.repairs, "dust": d.dust,
            "dust_bound": d.dust_bound, "output": args.output}, sys.stdout


def _cmd_bounds(args):
    s = load_matrix_market(args.op)
    m = args.vertex
    lb = local_bounds(s, m)
    model = RandomSignalModel(mu=args.mu, sigma=args.sigma, rho=args.rho)
    stats = monte_carlo_shift_stats(s, m, model, trials=args.trials, seed=args.seed)
    # Asymptotic formulas require entries strictly inside (0, 1).
    if lb.upper < 1.0:
        var_asymptotic = asymptotic_variance_bound(args.sigma, args.rho, lb.lower, lb.upper)
        power_upper = shift_power_bounds(args.mu, args.sigma, args.rho, lb.lower, lb.upper).upper
    else:
        var_asymptotic = None
        power_upper = None
    report = {
        "vertex": m,
        "L": lb.lower,
        "U": lb.upper,
        "neighborhood_size": lb.size,
        "kantorovich": kantorovich_bound(s, m),
        "var_exact": exact_shift_variance(s, m, args.sigma, args.rho),
        "var_bound": variance_upper_bound(s, m, args.sigma, args.rho),
        "var_asymptotic": var_asymptotic,
        "power_upper": power_upper,
        "power_lower": args.mu**2,
        "mc": {"mean": stats.mean, "var": stats.variance, "power": stats.power,
               "trials": stats.trials, "stderr_mean": stats.stderr_mean,
               "stderr_var": stats.stderr_variance, "stderr_power": stats.stderr_power},
    }
    if args.output:
        save_json(args.output, report)
    return report, sys.stdout


def _cmd_demo_sensors(args):
    report = run_sensor_demo(SensorFieldConfig(
        n_sensors=args.sensors, noise_sigma=args.noise_sigma, kernel_scale=args.scale,
        threshold=args.threshold, seed=args.seed, shifts=args.k))
    payload = report.to_dict()  # JSON values: an infinite SNR is null
    if args.output:
        save_json(args.output, payload)
    summary = {k: payload[k] for k in ("input_snr_db", "output_snr_db", "gain_db")}
    return summary, sys.stdout


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsshift",
        description=(
            "Doubly stochastic graph shift operators: balancing, shifting, "
            "filtering, decomposition, statistical bounds, and the sensor demo."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("balance", help="balance a weight matrix to doubly stochastic form")
    p.add_argument("--input", required=True, help="weight matrix (Matrix Market)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="largest row/column sum error accepted; must be positive")
    p.add_argument("--output", required=True, help="balanced operator destination")
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("shift", help="apply k graph shifts to a signal")
    p.add_argument("--op", required=True, help="operator (Matrix Market)")
    p.add_argument("--signal", required=True, help="signal (single-column CSV)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--output", default=None, help="shifted signal destination (stdout when omitted)")
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("filter", help="apply a polynomial graph filter")
    p.add_argument("--op", required=True)
    p.add_argument("--coeffs", required=True, help="coefficients (single-column CSV)")
    p.add_argument("--signal", required=True)
    p.add_argument("--output", default=None, help="filtered signal destination (stdout when omitted)")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("birkhoff", help="decompose an operator into permutations")
    p.add_argument("--op", required=True)
    p.add_argument("--output", required=True, help="decomposition JSON destination")
    p.set_defaults(func=_cmd_birkhoff)

    p = sub.add_parser("bounds", help="closed-form and Monte Carlo shift statistics")
    p.add_argument("--op", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", default=None, help="optional report JSON destination")
    p.set_defaults(func=_cmd_bounds)

    demo = SensorFieldConfig()  # the demo's defaults, owned by its config
    p = sub.add_parser("demo-sensors", help="run the sensor-field denoising demo")
    p.add_argument("--sensors", type=int, default=demo.n_sensors)
    p.add_argument("--noise-sigma", type=float, default=demo.noise_sigma)
    p.add_argument("--scale", type=float, default=demo.kernel_scale)
    p.add_argument("--threshold", type=float, default=demo.threshold)
    p.add_argument("--k", type=int, default=demo.shifts)
    p.add_argument("--seed", type=int, default=demo.seed)
    p.add_argument("--output", default=None, help="optional report JSON destination")
    p.set_defaults(func=_cmd_demo_sensors)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Underflow stays silent: the Gaussian kernel underflows to 0 by design.
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            record, stream = args.func(args)  # its files written; its record, for stream
        print(json.dumps(record, sort_keys=True, allow_nan=False), file=stream)
        return EXIT_OK
    except (ValueError, NotConvergedError, DecompositionError, FloatingPointError,
            OSError) as exc:  # FileFormatError and UnbalanceableError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_INVALID_INPUT if isinstance(exc, ValueError)
                else EXIT_IO if isinstance(exc, OSError) else EXIT_NUMERICAL)


def entrypoint() -> None:
    sys.exit(main())
