"""Command line surface: bound | entropic | oracle | lur | continuous | demo.

Inputs are UTF-8 JSON files or built-in fixture names.  Every randomized
command takes and echoes a seed, so published numbers are reproducible.
Exit codes: 1 any other rejected input, and output cut off by its reader,
2 parse failure, 3 dimension mismatch, 4 non-Hermitian input, 5 invalid
state, 6 bad alpha.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
from pathlib import Path

from . import engine, entropic, fixtures, io
from .config import DEFAULT_TOLERANCES, TOOL_VERSION, Tolerances, with_overrides
from .core import HermitianMatrix, SpectralObservable, eigendecompose
from .errors import FileFormatError, VurkitError
from .lur import lur_test
from .oracle import OracleConfig, minimize_variance_sum


def _parse_tolerances(items) -> Tolerances:
    if not items:
        return DEFAULT_TOLERANCES
    overrides = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep:
            raise FileFormatError(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            overrides[name.strip()] = float(value)
        except ValueError as exc:
            raise FileFormatError(f"--tol value for {name!r} is not a number: {value!r}") from exc
    try:
        return with_overrides(DEFAULT_TOLERANCES, overrides)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc


def _lookup(token: str, registry: dict, loader, tol: Tolerances):
    """Fixture ``registry[token]``, or else the file ``token`` read by ``loader``."""
    if token in registry:
        return registry[token]()
    path = Path(token)
    try:
        path.stat()
    except (OSError, ValueError) as exc:  # the errors Path.exists() reads as no file; others make the name unreadable
        missing = getattr(exc, "errno", errno.ENOENT) in (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)
        raise FileFormatError(f"no such file or fixture: {token}" if missing else f"cannot read {path}: {exc}") from exc
    return loader(path, tol)


def _read_observables(tokens, tol: Tolerances) -> list[SpectralObservable | HermitianMatrix]:
    """Each token's list of observables, a fixture's or a file's one, joined in order; a file's matrix stays
    undecomposed.  Each distinct token is read once, in order, so the first bad file refuses."""
    read = {token: _lookup(token, fixtures.OBSERVABLES, lambda path, tol: [io.load_observable(path, tol)], tol)
            for token in dict.fromkeys(tokens)}
    return [o for token in tokens for o in read[token]]


def _resolve_observables(tokens, tol: Tolerances) -> list[SpectralObservable]:
    """``_read_observables``, each file's matrix decomposed, for commands that read spectra."""
    return [eigendecompose(o, tol) for o in _read_observables(tokens, tol)]


def _resolve_pairs(tokens, tol: Tolerances) -> list[tuple]:
    if len(tokens) == 1 and tokens[0] in fixtures.PAIR_SETS:
        return list(fixtures.PAIR_SETS[tokens[0]]())
    if len(tokens) % 2 != 0:
        raise FileFormatError("--pairs expects a pair-set fixture or an even number of "
                              "observables, alternating first-side and second-side")
    observables = _read_observables(tokens, tol)
    if len(observables) != len(tokens):  # every token names at least one
        raise FileFormatError("each --pairs entry must name a single observable")
    return list(zip(observables[::2], observables[1::2]))


def _set_inputs(args, observables, **extra) -> dict:
    return {"observables": list(args.observables), "count": len(observables),
            "dim": observables[0].dim, **extra}


def _constant(args, value, observables, tol: Tolerances) -> entropic.EntropicConstant:
    """The strongest constant for ``observables`` under --auto-C, else ``value``."""
    return (entropic.best_entropic_constant(observables, tol.mub) if args.auto_constant
            else entropic.user_supplied(value))


def _constant_line(constant: entropic.EntropicConstant) -> str:
    return f"C = {constant.value:.9f} nats ({constant.source.value}; {constant.inputs_digest})"


# Each cmd_* takes the parsed arguments and tolerances and returns the run
# report's inputs, seed and payload, and the lines of its text output.

def cmd_bound(args, tol: Tolerances):
    observables = _resolve_observables(args.observables, tol)
    constant = _constant(args, args.constant, observables, tol)
    report = (engine.optimize_alpha(observables, constant) if args.optimize
              else engine.bound_at_alpha(observables, args.alpha, constant))
    lines = [_constant_line(constant), f"alpha = {report.alpha!r}"]
    if args.optimize:
        lines.append(f"alpha bracket = {list(report.bracket) if report.bracket else 'none: floor 0 at every alpha'}")
        lines.append(f"kernel calls after the first: {report.refine_steps}")
    for k, r in enumerate(report.per_operator, start=1):
        lines.append(f"operator {k}: beta* = {r.beta_star:.9f}, M = {r.value:.9f}, "
                     f"{r.modes} mode(s), {r.iterations} iteration(s)")
    lines.append(f"raw bound = {report.raw_bound:.9f}")
    lines.append(f"lower bound = {report.lower_bound:.9f} (clamped: {'yes' if report.clamped else 'no'})")
    return _set_inputs(args, observables), None, io.payload(report), lines


def cmd_entropic(args, tol: Tolerances):
    observables = _resolve_observables(args.observables, tol)
    selection = entropic.select_constant(observables, tol.mub)
    overlaps = [(i + 1, j + 1, c) for i, j, c in selection.overlaps]  # 1-based in the report
    lines = [f"{len(observables)} observables, dimension {observables[0].dim}"]
    lines.extend(f"overlap c({i},{j}) = {c:.9f}" for i, j, c in overlaps)
    lines.append(f"mutually unbiased: {'yes' if selection.mutually_unbiased else 'no'}")
    lines.extend(f"candidate: {_constant_line(k)}" for k in selection.candidates)
    lines.append(f"selected: {_constant_line(selection.selected)}")
    return _set_inputs(args, observables), None, {
        "overlaps": [{"i": i, "j": j, "c": float(c)} for i, j, c in overlaps],
        "mutually_unbiased": selection.mutually_unbiased,
        "candidates": io.payload(selection.candidates),
        "selected": io.payload(selection.selected),
    }, lines


def cmd_oracle(args, tol: Tolerances):
    observables = _read_observables(args.observables, tol)
    config = OracleConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)
    result = minimize_variance_sum(observables, config, agreement_tol=tol.oracle_agreement)
    amplitudes = ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in result.argmin_state.vector)
    lines = [
        f"minimum variance sum = {result.minimum:.9f}",
        f"restarts agreeing = {result.restarts_agreeing}/{result.restarts}",
        "restart stops: " + ", ".join(f"{n} {reason}" for reason, n in result.stops.items()),
        f"iterations (slowest restart) = {result.iterations}",
        f"gradient norm = {result.gradient_norms[result.argmin_restart]:.3e} at the argmin restart "
        f"({result.argmin_restart}), {max(result.gradient_norms):.3e} at most",
        f"argmin state = [{amplitudes}]",
        f"seed = {config.seed}",
    ]
    return (_set_inputs(args, observables, restarts=config.restarts, max_iters=config.max_iters),
            config.seed, io.payload(result), lines)


def cmd_lur(args, tol: Tolerances):
    state = _lookup(args.state, fixtures.STATES, io.load_state, tol)
    pairs = _resolve_pairs(args.pairs, tol)
    # each side's floor: --u-x as given, else the optimized floor for --auto-C or --C-x, from the spectra
    # of that side's matrices, decomposed only where the floor is computed
    floors, constants = [args.u_a, args.u_b], (args.c_a, args.c_b)
    computed = [k for k in (0, 1) if floors[k] is None]
    for k in computed:
        if constants[k] is None and not args.auto_constant:
            raise FileFormatError(f"lur needs --u-{'ab'[k]}, --C-{'ab'[k]} or --auto-C for side {'AB'[k]}")
    for k in computed:
        observables = [eigendecompose(pair[k], tol) for pair in pairs]
        floors[k] = engine.optimize_alpha(observables, _constant(args, constants[k], observables, tol)).lower_bound
    report = lur_test(pairs, state, *floors, margin_tol=tol.lur_margin)
    lines = [
        f"lhs (variance sum of the pair operators) = {report.lhs:.9f}",
        *(f"pair {k}: variance = {v:.9f}" for k, v in enumerate(report.pair_variances, start=1)),
        f"U_A = {report.u_a:.9f}",
        f"U_B = {report.u_b:.9f}",
        f"margin = {report.margin:.9f}",
        f"verdict: {report.verdict.value}",
    ]
    return {"state": args.state, "pairs": list(args.pairs)}, None, io.payload(report), lines


def cmd_continuous(args, tol: Tolerances):
    alpha_used, bound = engine.continuous_pair_bound(args.constant, args.alpha)
    closed_form = args.alpha is None
    lines = [
        f"alpha = {alpha_used!r}" + (" (closed form)" if closed_form else ""),
        f"lower bound = {bound:.9f}",
    ]
    return ({"C": float(args.constant), "alpha": None if closed_form else float(args.alpha)}, None,
            {"alpha_used": float(alpha_used), "lower_bound": float(bound),
             "closed_form_alpha": closed_form}, lines)


# demo's observable sets: fixture name, text label, fixed alpha, dimension of
# the complete set of mutually unbiased bases whose constant they use
_DEMO_SETS = (("pauli3", "qubit triple: ", 0.597, 2), ("qutrit4", "qutrit quadruple:", 1.92, 3))


def cmd_demo(args, tol: Tolerances):
    """Run the built-in showcases end to end with one seed."""
    config = OracleConfig(restarts=args.restarts, seed=args.seed)
    lines, payload = [], {}
    for name, label, alpha, n in _DEMO_SETS:
        observables, constant = fixtures.OBSERVABLES[name](), entropic.wu_full_mub(n)
        fixed = engine.bound_at_alpha(observables, alpha, constant)
        optimized = engine.optimize_alpha(observables, constant)
        result = minimize_variance_sum(observables, config, agreement_tol=tol.oracle_agreement)
        lines.append(f"{label} floor {fixed.lower_bound:.4f} at alpha {alpha}, "
                     f"optimized {optimized.lower_bound:.4f} at alpha {optimized.alpha:.4f}, "
                     f"true minimum {result.minimum:.4f}")
        payload[name] = io.payload({"fixed": fixed, "optimized": optimized, "oracle": result})

    c_cont = 1.0 + math.log(math.pi)
    alpha_star, cont_auto = engine.continuous_pair_bound(c_cont)
    _, cont_fixed = engine.continuous_pair_bound(c_cont, 1.0)
    u = payload["pauli3"]["optimized"]["lower_bound"]
    lines.append(f"continuous pair (C = 1 + ln pi): floor {cont_fixed:.6f} at alpha 1, "
                 f"closed-form alpha* {alpha_star:.6f}")
    lines.append(f"separability test with the qubit triple on both sides (U_A = U_B = {u:.4f}):")
    payload["continuous"] = {"C": c_cont, "alpha_star": float(alpha_star),
                             "bound_at_alpha_1": float(cont_fixed),
                             "bound_closed_form": float(cont_auto)}
    pairs, payload["lur"] = fixtures.pauli_pairs(), {}
    for name in ("singlet", "ket00", "mixed2"):
        rep = lur_test(pairs, fixtures.STATES[name](), u, u, margin_tol=tol.lur_margin)
        lines.append(f"  {name}: lhs {rep.lhs:.4f}, margin {rep.margin:+.4f} -> {rep.verdict.value}")
        payload["lur"][name] = io.payload(rep)
    return {"restarts": args.restarts}, args.seed, payload, lines


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vurkit",
        description="State-independent lower bounds on variance sums of Hermitian "
                    "observables, with a brute-force oracle and a separability test.")
    parser.add_argument("--version", action="version", version=f"vurkit {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="variance-sum floor for a set of observables")
    p.add_argument("observables", nargs="+", metavar="OBS",
                   help="observable JSON files or fixture names")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--C", type=float, dest="constant", help="entropy-sum constant (nats)")
    g.add_argument("--auto-C", action="store_true", dest="auto_constant",
                   help="select the strongest applicable entropy constant")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--alpha", type=float, help="Gaussian width parameter")
    g.add_argument("--optimize", action="store_true", help="optimize the width parameter")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("entropic", help="entropy-sum constants for a set of observables")
    p.add_argument("observables", nargs="+", metavar="OBS")
    p.set_defaults(func=cmd_entropic)

    p = sub.add_parser("oracle", help="brute-force minimum of the variance sum over pure states")
    p.add_argument("observables", nargs="+", metavar="OBS")
    p.add_argument("--restarts", type=int, default=OracleConfig.restarts)
    p.add_argument("--max-iters", type=int, default=OracleConfig.max_iters)
    p.add_argument("--seed", type=int, default=OracleConfig.seed)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("lur", help="local-uncertainty separability test on a bipartite state")
    p.add_argument("--state", required=True, help="state JSON file or fixture name")
    p.add_argument("--pairs", required=True, nargs="+", metavar="OBS",
                   help="pair-set fixture, or observables alternating side A and side B")
    p.add_argument("--auto-C", action="store_true", dest="auto_constant",
                   help="select entropy constants for both sides automatically")
    p.add_argument("--C-a", type=float, dest="c_a", help="entropy constant for side A")
    p.add_argument("--C-b", type=float, dest="c_b", help="entropy constant for side B")
    p.add_argument("--u-a", type=float, help="explicit variance floor for side A")
    p.add_argument("--u-b", type=float, help="explicit variance floor for side B")
    p.set_defaults(func=cmd_lur)

    p = sub.add_parser("continuous", help="variance-sum floor for a continuous pair from C alone")
    p.add_argument("--C", type=float, dest="constant", required=True,
                   help="entropy-sum constant (nats)")
    p.add_argument("--alpha", type=float, default=None,
                   help="width parameter (omit for the closed-form optimum)")
    p.set_defaults(func=cmd_continuous)

    p = sub.add_parser("demo", help="run the built-in showcases end to end")
    p.add_argument("--seed", type=int, default=OracleConfig.seed)
    p.add_argument("--restarts", type=int, default=16)
    p.set_defaults(func=cmd_demo)

    for name, p in sub.choices.items():
        p.add_argument("--json", action="store_true", help="emit a machine-readable run report")
        if name == "continuous":  # the closed form reads no tolerance
            p.set_defaults(tol=None)
        else:
            p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                           help="override a named tolerance (repeatable)")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        inputs, seed, payload, lines = args.func(args, _parse_tolerances(args.tol))
        print(io.run_report(argv, inputs, seed, payload) if args.json else "\n".join(lines), flush=True)
    except BrokenPipeError:  # the reader is gone (`| head`); so is the rest of the output
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except (VurkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, VurkitError) else 1
    return 0
