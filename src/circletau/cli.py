"""Command-line front end.

Subcommands: rot, cycles, tau, boundary, trace, weld, sigma, tsujii,
atlas.  Outputs are deterministic files under --out, and this module is
the only one that knows their layout: the library returns dataclasses,
and each JSON and CSV layout is built here next to its file name.  Exit
code 0 on success, 2 on a validation error (non-finite inputs included),
3 on a numerical failure (the error class name is printed).  Each
command writes only the files whose formats --emit lists (_FORMATS), and
exits 2 when --emit lists none of them.

rot writes rot.json: rot (mod 1, converged to --tol), exact_rational
([p, q] when certified, else null), bracket_width (the width of the
closest-return bracket of the orbit that was run, usually wider than
--tol; 0 when exact) and iterations (that orbit's length).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .dynamics import find_cycles, rotation_estimate
from .errors import ConfigError, NumericalError
from .experiments import trace_atlas, trace_bubble, tsujii_gap
from .linearize import sigma
from .maps import CircleMap, total_distortion
from .svgplot import render_bubble_svg
from .uniformize import boundary_tau, complex_rotation_number
from .welding import welding_constant

# the formats each command can write; --emit picks among them
_FORMATS = {
    "rot": {"json"}, "cycles": {"csv"}, "tau": {"json", "csv"}, "boundary": {"json"},
    "trace": {"csv", "json", "svg"}, "weld": {"json"}, "sigma": {"json"},
    "tsujii": {"json"}, "atlas": {"csv", "svg"},
}

# trace.csv and atlas.csv: one row per bubble sample
_BUBBLE_HEADER = ("omega", "p", "q", "tau_re", "tau_im", "h", "angle", "err")


def _bubble_rows(traces):
    return [
        (s.omega, s.p, s.q, s.tau_re, s.tau_im, s.horocycle_height, s.tangency_angle,
         s.error_estimate)
        for tr in traces for s in tr.samples
    ]


def _parse_map(spec: str) -> CircleMap:
    """JSON map descriptor, inline or a file path."""
    if spec.strip().startswith("{"):
        desc = json.loads(spec)
    else:
        with open(spec) as fh:
            desc = json.load(fh)
    return CircleMap.from_descriptor(desc)


def _parse_omega(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ConfigError(f"--omega expects RE or RE,IM, got {text!r}")


def _parse_pq(text: str):
    try:
        fr = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"--pq expects P/Q, got {text!r}") from exc
    return fr.numerator, fr.denominator


def _parse_ladder(text: str):
    vals = [float(t) for t in text.split(",") if t.strip()]
    if not vals:
        raise ConfigError("--ladder needs at least one height")
    return vals


def _emit_json(outdir, name, payload):
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _emit_csv(outdir, name, header, rows):
    path = os.path.join(outdir, name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return path


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="circletau",
        description="complex rotation numbers of analytic circle diffeomorphisms",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    ap.add_argument("command", choices=list(_FORMATS))
    ap.add_argument("--map", required=True, help="JSON descriptor file or inline JSON")
    ap.add_argument("--omega", help="RE or RE,IM")
    ap.add_argument("--pq", help="rational P/Q")
    ap.add_argument("--n", type=int, help="frequency cutoff (>= 8)")
    ap.add_argument("--m", type=int, help="collocation count (>= 4n + 4)")
    ap.add_argument("--ladder", help="comma-separated decreasing heights")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--emit", default="json,csv,svg",
                    help="comma list of csv,json,svg")
    ap.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--samples", type=int, default=16, help="trace sample count")
    ap.add_argument("--qmax", type=int, default=2, help="atlas: largest period")
    ap.add_argument("--depth", type=int, default=4, help="tsujii: approximant count")
    ap.add_argument("--tol", type=float, default=1e-10)
    return ap


def _require(args, *fields):
    for f in fields:
        if getattr(args, f) is None:
            raise ConfigError(f"command {args.command!r} requires --{f}")


def run(args) -> int:
    fmap = _parse_map(args.map)
    emit = {e.strip() for e in args.emit.split(",") if e.strip()}
    if not emit <= {"csv", "json", "svg"}:
        raise ConfigError(f"--emit entries must be csv,json,svg, got {args.emit}")
    if not emit & _FORMATS[args.command]:
        raise ConfigError(f"{args.command} writes only {','.join(sorted(_FORMATS[args.command]))}, "
                          f"which --emit {args.emit!r} leaves out")
    if not args.tol > 0:
        raise ConfigError("--tol must be positive")
    if args.n is not None and args.n < 8:
        raise ConfigError(f"--n must be >= 8, got {args.n}")
    os.makedirs(args.out, exist_ok=True)
    outdir = args.out
    n_modes = args.n if args.n is not None else 48

    if args.command == "rot":
        est = rotation_estimate(fmap, tol=args.tol)
        _emit_json(outdir, "rot.json", {
            "rot": est.value % 1.0,
            "bracket_width": float(est.hi - est.lo),
            "exact_rational": None if est.exact is None else
                [est.exact.numerator, est.exact.denominator],
            "iterations": est.iterations,
        })

    elif args.command == "cycles":
        _require(args, "pq")
        p, q = _parse_pq(args.pq)
        cycles = find_cycles(fmap, p, q)
        _emit_csv(outdir, "cycles.csv", ("p", "q", "point", "rho", "kind"),
                  [(c.winding, c.period, t, c.multiplier, c.kind)
                   for c in cycles for t in c.points])

    elif args.command == "tau":
        _require(args, "omega")
        omega = _parse_omega(args.omega)
        sol = complex_rotation_number(fmap, omega, n_modes, args.m)
        if "json" in emit:
            _emit_json(outdir, "tau.json", {
                "re_omega": omega.real, "im_omega": omega.imag,
                "tau_re": sol.tau.re, "tau_im": sol.tau.im,
                "residual": sol.residual, "min_phi_prime": sol.min_phi_prime,
                "N": sol.n_modes, "M": sol.m_points,
            })
        if "csv" in emit:
            _emit_csv(outdir, "tau.csv",
                      ("re_omega", "im_omega", "re_tau", "im_tau", "residual",
                       "min_phi_prime", "N", "M"),
                      [(sol.omega.real, sol.omega.imag, sol.tau.re, sol.tau.im,
                        sol.residual, sol.min_phi_prime, sol.n_modes, sol.m_points)])

    elif args.command == "boundary":
        _require(args, "omega")
        omega = _parse_omega(args.omega)
        if omega.imag != 0.0:
            raise ConfigError(f"boundary needs a real --omega, got imaginary part {omega.imag!r}")
        ladder = _parse_ladder(args.ladder) if args.ladder else None
        bv = boundary_tau(fmap, omega.real, ladder=ladder)
        _emit_json(outdir, "boundary.json", {
            "omega": omega.real,
            "tau_re": bv.tau.re, "tau_im": bv.tau.im,
            "error_estimate": bv.error_estimate,
            "method": bv.method,
            "rungs": [[r.y, r.tau.real, r.tau.imag, r.residual, r.n_modes]
                      for r in bv.rungs],
        })

    elif args.command == "trace":
        _require(args, "pq")
        p, q = _parse_pq(args.pq)
        tr = trace_bubble(fmap, p, q, samples=args.samples,
                          workers=args.workers)
        if "csv" in emit:
            _emit_csv(outdir, "trace.csv", _BUBBLE_HEADER, _bubble_rows([tr]))
        if "json" in emit:
            _emit_json(outdir, "trace_endpoints.json", {
                "left": asdict(tr.left) if tr.left else None,
                "right": asdict(tr.right) if tr.right else None,
                "bubble": [tr.bubble_lo, tr.bubble_hi],
                "plateau": [tr.plateau.omega_lo, tr.plateau.omega_hi],
            })
        if "svg" in emit:
            with open(os.path.join(outdir, "trace.svg"), "w") as fh:
                fh.write(render_bubble_svg([tr], distortion=total_distortion(fmap)))

    elif args.command == "weld":
        w = welding_constant(fmap, n_modes, args.m)
        _emit_json(outdir, "weld.json", {
            "c_f_re": w.c_f.real, "c_f_im": w.c_f.imag, "residual": w.residual,
            "N": w.n_modes, "M": w.m_points,
        })

    elif args.command == "sigma":
        _require(args, "pq")
        p, q = _parse_pq(args.pq)
        sd = sigma(fmap, p, q)
        _emit_json(outdir, "sigma.json", {
            "sigma_re": sd.sigma.real, "sigma_im": sd.sigma.imag,
            "r_tilde": [[z.real, z.imag] for z in sd.r_tilde],
            "s_tilde": [[z.real, z.imag] for z in sd.s_tilde],
            "moduli": sd.moduli, "markers": sd.marker_points,
            "alphas": sd.alphas, "multipliers": sd.multipliers,
        })

    elif args.command == "tsujii":
        rows = tsujii_gap(fmap, args.depth)
        _emit_json(outdir, "tsujii.json", {
            "rows": [asdict(r) | {"passed": r.passed} for r in rows],
            "all_passed": all(r.passed for r in rows),
        })

    elif args.command == "atlas":
        traces, skipped = trace_atlas(fmap, args.qmax, samples=args.samples,
                                      workers=args.workers)
        for p, q, exc in skipped:
            print(f"skipped {p}/{q}: {type(exc).__name__}: {exc}", file=sys.stderr)
        if "csv" in emit:
            _emit_csv(outdir, "atlas.csv", _BUBBLE_HEADER, _bubble_rows(traces))
        if "svg" in emit:
            with open(os.path.join(outdir, "atlas.svg"), "w") as fh:
                fh.write(render_bubble_svg(traces, distortion=total_distortion(fmap)))

    return 0


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return run(args)
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"validation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
