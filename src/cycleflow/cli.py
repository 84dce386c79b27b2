"""Command line front door.

One process per run: load a model file, run the requested operation,
emit a report (canonical JSON, CSV rows, or a text table) and exit 0
when every check passed, 1 when any failed.  Error classes map to
distinct exit codes, listed in ``--help``.
"""

import argparse
import os
import sys

from . import __version__, harris, markov
from .errors import CycleflowError, PreconditionError
from .measure import EXHAUSTIVE_CAP, MAX_PLAN_BYTES, event_mask
from .modelio import load_model
# perfbench's tracer test checks that cli still holds model_hash
from .modelio import model_hash  # noqa: F401
from .report import CheckResult, SuiteReport, emit_report
from .suite import (RunConfig, estimator_gate, harris_details,
                    harris_simulation, model_identity, model_kind,
                    require_gate_cycles, run_suite)

_EXIT_TABLE = """\
exit codes:
  0   all checks passed
  1   a check failed (report still written)
  2   command line usage error
  3   file not readable
  4   file not parseable
  5   unknown model kind
  6   model invariant violated
  7   operation precondition violated
  8   operation unsupported for this model
  9   report destination unwritable
  10  simulation step budget exhausted
  11  no feasible minorization
  12  internal consistency failure
  70  unclassified error
"""


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cycleflow",
        description="Verify cycle identities, stationary laws and "
                    "regeneration structure of finite models.",
        epilog=_EXIT_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    split_cycles = ("number of simulated cycles; a split-chain run whose "
                    "visit counts (cycles x states, 4 bytes each) take over "
                    "%d bytes is refused with exit 7"
                    % harris.MAX_OCCUPATION_BYTES)

    def common(p, cycles=None):
        p.add_argument("file", help="model file (JSON)")
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default=None, help="report format (default text)")
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write the report to PATH instead of stdout")
        p.add_argument("--tolerance", type=float, default=None,
                       help="residual tolerance (default 1e-12)")
        p.add_argument("--seed", type=int, default=None,
                       help="simulation seed; falls back to CYCLEFLOW_SEED, "
                            "then 0")
        if cycles:
            p.add_argument("--cycles", type=int, default=None, help=cycles)

    p = sub.add_parser("verify", help="run the full check suite for the "
                                      "file's model kind")
    common(p, cycles=split_cycles)
    p.add_argument("--exhaustive-limit", type=int, default=None,
                   dest="exhaustive_limit", metavar="M",
                   help="enumerate all subset pairs up to M points "
                        "(default 8); an exhaustive plan over more than "
                        "%d points (4^%d subset pairs) is refused with "
                        "exit 7" % (EXHAUSTIVE_CAP, EXHAUSTIVE_CAP))
    p.add_argument("--sample-pairs", type=int, default=None,
                   dest="sample_pairs", metavar="N",
                   help="sampled pairs above the exhaustive limit "
                        "(default 50); a plan whose masks (2 x points x "
                        "pairs bytes) take over %d bytes is refused with "
                        "exit 7" % MAX_PLAN_BYTES)

    p = sub.add_parser("stationary", help="stationary distribution from "
                                          "return cycles of a base state")
    common(p, cycles="number of simulated cycles")
    p.add_argument("--base", type=int, default=0,
                   help="recurrent base state (default 0)")
    p.add_argument("--method", choices=("exact", "cycles"), default="exact",
                   help="exact linear solve or Monte Carlo cycles")

    p = sub.add_parser("harris", help="simulate the split chain and report "
                                      "the regenerative estimate")
    common(p, cycles=split_cycles)

    p = sub.add_parser("exchange", help="compare stationary laws built "
                                        "from two base states")
    common(p)
    p.add_argument("--states", required=True, metavar="B,C",
                   help="comma-separated pair of distinct states")

    p = sub.add_parser("fit-minorization",
                       help="fit the largest minorization of K^ell over a "
                            "regeneration set")
    common(p)
    p.add_argument("--set", required=True, dest="regen_set", metavar="I,J,..",
                   help="comma-separated regeneration states")
    p.add_argument("--ell", type=int, default=1,
                   help="block length (default 1); kernel powers "
                        "K^0..K^ell, each counted as at least %d bytes, "
                        "over %d bytes in all are refused with exit 7"
                        % (harris.MIN_POWER_BYTES, harris.MAX_POWER_BYTES))
    return parser


def _resolve_seed(args):
    seed = getattr(args, "seed", None)
    if seed is not None:
        return seed
    env = os.environ.get("CYCLEFLOW_SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise PreconditionError("CYCLEFLOW_SEED must be an integer, got %r"
                                % env, field="CYCLEFLOW_SEED") from None


def _config_from(args):
    kwargs = {}
    for name in ("tolerance", "exhaustive_limit", "sample_pairs", "cycles"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    seed = _resolve_seed(args)
    if seed is not None:
        kwargs["seed"] = seed
    fmt = getattr(args, "format", None)
    if fmt is not None:
        kwargs["output_format"] = fmt
    return RunConfig(**kwargs)


def _int_pair_list(text, field, exactly=None):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise PreconditionError("expected comma-separated integers, got %r"
                                % text, field=field) from None
    if not values:
        raise PreconditionError("expected at least one state", field=field)
    if exactly is not None and len(values) != exactly:
        raise PreconditionError("expected exactly %d states, got %d"
                                % (exactly, len(values)), field=field)
    return values


def _as_chain(model):
    kind = model_kind(model)
    if kind == "markov_chain":
        return model
    if kind == "harris_discrete":
        return model.kernel
    raise PreconditionError(
        "this command needs a transition kernel; %r files have none" % kind,
        field="file")


def _command_report(command, model, cfg, checks, details):
    from dataclasses import asdict
    kind = model_kind(model)
    return SuiteReport(kind=kind, model=model_identity(model, kind),
                       config=asdict(cfg), checks=checks, details=details,
                       command=command)


def _stationary_report(model, cfg, args):
    chain = _as_chain(model)
    base = chain._check_state(args.base, "base")
    details = {"base": base, "method": args.method}
    if args.method == "exact":
        occ = markov.cycle_occupation(chain, base)
        pi = markov.cycle_stationary(chain, base)
        checks = [CheckResult("cycle_invariance",
                              markov.invariance_residual(chain, pi),
                              cfg.tolerance)]
        details["stationary"] = pi
        details["mean_return"] = occ.mean_return
        details["occupation"] = occ.counts
    else:
        require_gate_cycles(cfg.cycles)
        estimate = markov.simulate_cycle_estimator(
            chain, base, cfg.cycles, cfg.seed)
        checks = [estimator_gate(details, estimate,
                                 markov.cycle_stationary(chain, base))]
        details["mean_return_hat"] = estimate.mean_cycle_length
        details["steps"] = estimate.steps
    return _command_report("stationary", model, cfg, checks, details)


def _harris_report(model, cfg):
    if model_kind(model) != "harris_discrete":
        raise PreconditionError(
            "the harris command needs a harris_discrete file", field="file")
    details = harris_details(model)
    checks, run = harris_simulation(model, cfg, details)
    details["steps"] = run.estimate.steps
    return _command_report("harris", model, cfg, checks, details)


def _exchange_report(model, cfg, args):
    chain = _as_chain(model)
    first, second = _int_pair_list(args.states, "states", exactly=2)
    residual = markov.exchange_residual(chain, first, second)
    checks = [CheckResult("exchange_identity", residual,
                          max(cfg.tolerance, markov.CROSS_FLOOR))]
    details = {"states": [first, second]}
    return _command_report("exchange", model, cfg, checks, details)


def _fit_report(model, cfg, args):
    chain = _as_chain(model)
    members = event_mask(chain.n, _int_pair_list(args.regen_set, "set"),
                         "set")
    fitted = harris.HarrisModel(chain, members, ell=args.ell)
    checks = [CheckResult("minorization_residual",
                          harris.minorization_residual(fitted),
                          -harris._RESIDUAL_TOL, comparator=">=")]
    details = harris_details(fitted)
    del details["fitted"]
    return _command_report("fit-minorization", model, cfg, checks, details)


def _dispatch(args):
    cfg = _config_from(args)
    model = load_model(args.file)
    if args.command == "verify":
        report = run_suite(model, cfg)
    elif args.command == "stationary":
        report = _stationary_report(model, cfg, args)
    elif args.command == "harris":
        report = _harris_report(model, cfg)
    elif args.command == "exchange":
        report = _exchange_report(model, cfg, args)
    else:
        report = _fit_report(model, cfg, args)
    return emit_report(report, cfg.output_format, args.output)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except CycleflowError as exc:
        print("cycleflow: error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        print("cycleflow: error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
