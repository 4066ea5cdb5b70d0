"""Command-line front door: one subcommand per operation.

Every output embeds the tool version and the full config for exact
reproduction.  CSV output is byte-identical across runs of the same
config (wall time is reported in JSON output and on stderr only, never
inside CSV).  Exit codes: 0 success, 1 domain/validation error, 2
capacity/precision error.

The exit code of a failure lives on its error class, as ``exit_code`` in
errors.py: CapacityError, PrecisionError, ContourError and ExhaustionError
give 2, and so does a MemoryError (an allocation past the machine's memory);
every other KernelscopeError, a ValueError, an OSError (a file that cannot
be read or written) and a usage error give 1.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

from . import __version__
from . import automaton, christol, dirichlet, kernel, seqgen, zeta
from .errors import CapacityError, DomainError, KernelscopeError


def _config_string(args: argparse.Namespace) -> str:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    return json.dumps(cfg, default=str, sort_keys=True)


def _emit(args, payload_json, payload_csv, elapsed: float) -> None:
    """payload_json: dict; payload_csv: callable(fh) writing rows."""
    if args.format == "json":
        doc = {
            "tool": "kernelscope",
            "version": __version__,
            "config": json.loads(_config_string(args)),
            "wall_time_s": round(elapsed, 6),
            "result": payload_json,
        }
        text = json.dumps(doc, indent=2, default=str) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# tool=kernelscope version={__version__}\n")
        buf.write(f"# config={_config_string(args)}\n")
        payload_csv(buf)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({elapsed:.3f}s)", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _load_table(args) -> seqgen.ValueTable:
    if args.fn is None or args.N is None:
        raise DomainError("this command needs --fn and --N")
    return seqgen.build_table(seqgen.FunctionId(args.fn, args.fn_param, args.mod), args.N)


def _load_rep(args) -> automaton.LinearRepresentation:
    if args.rep:
        try:
            with open(args.rep) as fh:
                doc = json.load(fh)
            # build-rep --out writes the CLI envelope around the representation
            if isinstance(doc, dict) and "tool" in doc and "result" in doc:
                doc = doc["result"]
            return automaton.rep_from_json(doc)
        except (OSError, ValueError, DomainError) as exc:
            why = getattr(exc, "strerror", None) or exc
            raise DomainError(f"--rep {args.rep}: {why}") from exc
    if args.fn is None or args.N is None:
        raise DomainError("need --rep FILE, or --fn/--N (plus --k/--L/--M) to build")
    t = _load_table(args)
    return automaton.build_representation(t, args.k, args.L, args.M)


class _CommaList(str):
    """A comma list as given, which the config echoes, with its entries
    parsed into ``items``."""

    items: list


def _comma_list(convert):
    """argparse type: a comma list of ``convert`` values, refused when empty."""

    def parse(text: str) -> _CommaList:
        out = _CommaList(text)
        out.items = [convert(part) for part in text.split(",") if part]
        if not out.items:
            raise argparse.ArgumentTypeError(f"needs at least one value, got {text!r}")
        return out

    parse.__name__ = f"{convert.__name__} list"  # argparse names it in "invalid ... value"
    return parse


def _add_function_args(p, required=True):
    p.add_argument("--fn", required=required, choices=sorted(seqgen.ALL_TAGS))
    p.add_argument("--fn-param", type=int, default=None,
                   help="k of tau_k, m of sigma_m / q_m")
    p.add_argument("--mod", type=int, default=None,
                   help="reduce the table mod this value")
    p.add_argument("--N", type=int, required=required, help="table bound")


def _add_window_args(p, required=True):
    """--k/--L/--M: required, or 2, 6, 64 when a representation source omits them."""
    for flag, default in (("--k", 2), ("--L", 6), ("--M", 64)):
        p.add_argument(flag, type=int, required=required, default=default)


def _add_rep_source(p):
    p.add_argument("--rep", default=None, help="representation JSON file")
    _add_function_args(p, required=False)
    _add_window_args(p, required=False)


# --- subcommand bodies -------------------------------------------------------


def _cmd_generate(args):
    t = _load_table(args)
    return t.to_json(), t.write_csv


def _cmd_kernel_profile(args):
    t = _load_table(args)
    prof = kernel.kernel_profile(t, args.k, args.L, args.M)
    return prof.to_json(), prof.write_csv


def _cmd_rank_profile(args):
    t = _load_table(args)
    prof = kernel.rank_profile(t, args.k, args.L, args.M)
    return prof.to_json(), prof.write_csv


def _cmd_density(args):
    t = _load_table(args)
    ests = kernel.value_density(t, args.value, args.lengths.items)

    def to_csv(fh):
        import csv as _csv

        w = _csv.writer(fh, lineterminator="\n")
        w.writerow(["X", "count", "density", "approx_num", "approx_den", "residual"])
        for e in ests:
            w.writerow([e.X, e.count, repr(e.density), e.approx.numerator,
                        e.approx.denominator, repr(e.residual)])

    return [e.to_json() for e in ests], to_csv


def _cmd_build_rep(args):
    t = _load_table(args)
    rep = automaton.build_representation(t, args.k, args.L, args.M)
    return rep.to_json(), None


def _cmd_eval_rep(args):
    rep = _load_rep(args)
    val = automaton.evaluate(rep, args.n)
    return {"n": args.n, "value": val}, None


def _cmd_pole_lattice(args):
    rep = _load_rep(args)
    lat = automaton.pole_lattice(rep, args.m_max, args.l_max)
    return lat.to_json(), lat.write_csv


def _cmd_dirichlet_eval(args):
    s = complex(args.s)
    if args.method == "direct":
        t = _load_table(args)
        res = dirichlet.direct_sum(t, s, t.N if args.N_terms is None else args.N_terms)
    elif args.method == "recursion":
        rep = _load_rep(args)
        res = dirichlet.continue_via_recursion(
            rep, s, levels=args.levels, m_max=args.m_max
        )
    else:
        if args.id is None:
            raise DomainError("--method zeta-quotient needs --id")
        ident = dirichlet.IdentityId(args.id, args.id_param)
        res = dirichlet.zeta_quotient_eval(ident, s)
    return res.to_json(), None


def _cmd_verify_identity(args):
    ident = dirichlet.IdentityId(args.id, args.id_param)
    t = seqgen.build_table(ident.function_id(), args.N)
    report = dirichlet.verify_identity(ident, t, args.s.items, args.N)
    return report.to_json(), None


def _cmd_pole_scan(args):
    rep = _load_rep(args)
    res = dirichlet.pole_scan(
        rep, args.a, args.b, args.T, args.step,
        levels=args.levels, threads=args.threads,
    )
    return res.to_json(), res.write_csv


def _cmd_singularities(args):
    points = dirichlet.landau_walfisz_singularities(args.n_max)

    def to_csv(fh):
        import csv as _csv

        w = _csv.writer(fh, lineterminator="\n")
        w.writerow(["numerator", "denominator", "value"])
        for f in points:
            w.writerow([f.numerator, f.denominator, repr(float(f))])

    return (
        {"count": len(points),
         "points": [{"num": f.numerator, "den": f.denominator} for f in points]},
        to_csv,
    )


def _cmd_zeta(args):
    res = zeta.zeta_em(complex(args.re, args.im), args.tol)
    return {
        "s": [args.re, args.im],
        "value": [res.value.real, res.value.imag],
        "terms_used": res.terms_used,
        "bernoulli_order": res.bernoulli_order,
        "error_estimate": res.error_estimate,
    }, None


def _cmd_zeros(args):
    zs = zeta.critical_line_zeros(args.T)
    return (
        [{"index": i, "ordinate": z.ordinate} for i, z in enumerate(zs, start=1)],
        lambda fh: zeta.zeros_to_csv(zs, fh),
    )


def _cmd_zero_count(args):
    report = zeta.zero_count_report(args.T)
    return {
        "T": args.T,
        "N": report.winding_count,
        "sign_change_count": report.sign_change_count,
        "agree": report.agree,
    }, None


def _cmd_tlogt(args):
    rows = zeta.tlogt_ratio_table(args.T_list.items)
    return (
        [{"T": r.T, "N": r.N, "ratio_TlogT": r.ratio} for r in rows],
        lambda fh: zeta.ratio_table_to_csv(rows, fh),
    )


def _cmd_christol_orbit(args):
    t = _load_table(args)
    series = christol.series_from_table(t, args.p, min(args.N + 1, t.N + 1))
    report = christol.orbit_explore(series, args.budget)
    verdict = christol.algebraicity_verdict(report)
    return {"orbit": report.to_json(), "verdict": verdict.to_json()}, None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kernelscope",
        # the last docstring paragraph is for maintainers, not for --help
        description=__doc__.rsplit("\n\n", 1)[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, forms=("json",)):
        """Register a subcommand whose output forms are ``forms``, the first
        the default; a form it lacks is refused before the body runs."""

        def output_form(value):
            if value not in forms:
                raise argparse.ArgumentTypeError(
                    f"this command has no {value.upper()} form; use --format {forms[0]}")
            return value

        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=forms, type=output_form, default=forms[0])
        p.set_defaults(func=func)
        return p

    both, csv_first = ("json", "csv"), ("csv", "json")
    _add_function_args(command("generate", _cmd_generate, "tabulate a function", csv_first))

    for name, func in (("kernel-profile", _cmd_kernel_profile),
                       ("rank-profile", _cmd_rank_profile)):
        p = command(name, func, f"{name.replace('-', ' ')} of a sequence", both)
        _add_function_args(p)
        _add_window_args(p)

    p = command("density", _cmd_density, "value occurrence densities", both)
    _add_function_args(p)
    p.add_argument("--value", type=int, required=True)
    p.add_argument("--lengths", required=True, type=_comma_list(int),
                   help="comma list of prefix lengths")

    p = command("build-rep", _cmd_build_rep, "build a linear representation")
    _add_function_args(p)
    _add_window_args(p)

    p = command("eval-rep", _cmd_eval_rep, "evaluate a representation at n")
    _add_rep_source(p)
    p.add_argument("--n", type=int, required=True)

    p = command("pole-lattice", _cmd_pole_lattice, "candidate pole lattice", both)
    _add_rep_source(p)
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--l-max", type=int, default=3)

    p = command("dirichlet-eval", _cmd_dirichlet_eval, "evaluate a Dirichlet series")
    p.add_argument("--method", choices=("direct", "recursion", "zeta-quotient"),
                   required=True)
    p.add_argument("--s", required=True, help="complex point, e.g. 2 or 2+1j")
    p.add_argument("--id", choices=sorted(dirichlet.IDENTITY_TAGS), default=None)
    p.add_argument("--id-param", type=int, default=None)
    p.add_argument("--N-terms", type=int, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--m-max", type=int, default=200)
    _add_rep_source(p)

    p = command("verify-identity", _cmd_verify_identity, "truncated sum vs closed form")
    p.add_argument("--id", choices=sorted(dirichlet.IDENTITY_TAGS), required=True)
    p.add_argument("--id-param", type=int, default=None)
    p.add_argument("--s", required=True, type=_comma_list(complex),
                   help="comma list of complex points")
    p.add_argument("--N", type=int, required=True)

    p = command("pole-scan", _cmd_pole_scan, "grid scan for pole candidates", both)
    _add_rep_source(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)

    p = command("singularities", _cmd_singularities,
                "real singular points 1/n of the prime zeta function", both)
    p.add_argument("--n-max", type=int, required=True)

    p = command("zeta", _cmd_zeta, "evaluate zeta at one point")
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-12)

    p = command("zeros", _cmd_zeros, "critical-line zeros up to height T", csv_first)
    p.add_argument("--T", type=float, required=True)

    p = command("zero-count", _cmd_zero_count, "N(T) by the Riemann-von Mangoldt formula")
    p.add_argument("--T", type=float, required=True)

    p = command("tlogt", _cmd_tlogt, "N(T)/(T log10 T) growth table", csv_first)
    p.add_argument("--T-list", required=True, type=_comma_list(float),
                   help="comma list of heights")

    p = command("christol-orbit", _cmd_christol_orbit, "Cartier section orbit over F_p")
    _add_function_args(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--budget", type=int, default=50)

    return ap


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; here they are validation errors
        return 0 if exc.code in (0, None) else KernelscopeError.exit_code
    start = time.perf_counter()
    try:
        payload_json, payload_csv = args.func(args)
        _emit(args, payload_json, payload_csv, time.perf_counter() - start)
    except (KernelscopeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", KernelscopeError.exit_code)
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return CapacityError.exit_code
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
