"""Command-line front end: matrix/group/flag I/O and seeded experiments.

Reports go to stdout as JSON (or CSV for experiments); diagnostics go to
stderr.  Exit status 0 on success, 1 with a structured error report on
validation or domain failures, 2 on unknown subcommands or bad flags.
``experiment`` is the only randomised subcommand; its seed is ``--seed``,
else a fixed constant, so identical invocations produce byte-identical
output.  ``dualnorm`` and ``boyd`` are deterministic and accept ``--seed``
without using it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys

from . import (CLASSICAL_TYPES, amenable, classical, factor, harish, nest, serialize,
               symfunc, utils)
from .errors import DomainError, InputError

DEFAULT_SEED = 1729


def _parse_ints(text: str, what: str):
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"{what} must be a comma-separated integer list") from None


def _parse_split(text: str):
    split = _parse_ints(text, "--split")
    if len(split) != 2:
        raise InputError("--split must be two integers p,q")
    return tuple(split)


def _rel(delta, ref) -> float:
    return float(delta / ref) if ref > 0 else float(delta)


def _flag_for(args, n: int) -> nest.Flag:
    return serialize.load_flag(args.flag) if args.flag else nest.Flag.standard(n)


def _partition_for(args, flag: nest.Flag) -> nest.Partition:
    if getattr(args, "cuts", None):
        return nest.Partition(flag, _parse_ints(args.cuts, "--cuts"))
    return nest.Partition.maximal(flag)


def _cmd_svalues(args):
    m = serialize.load_matrix(args.matrix)
    return {"singular_values": [float(v) for v in symfunc.singular_values(m)]}


def _cmd_norm(args):
    phi = symfunc.SymNormFunc.parse(args.phi)
    m = serialize.load_matrix(args.matrix)
    return {"phi": str(phi), "norm": symfunc.phi_norm(phi, m)}


def _cmd_dualnorm(args):
    phi = symfunc.SymNormFunc.parse(args.phi)
    eta = serialize.load_sequence(args.sequence)
    res = symfunc.adjoint_phi_eval(phi, eta)
    return {"phi": str(phi), "estimate": res.estimate, "closed_form": res.closed_form}


def _cmd_boyd(args):
    phi = symfunc.SymNormFunc.parse(args.phi)
    est = symfunc.boyd_estimate(phi, args.mmax, args.cap)

    def _num(v):
        return "inf" if math.isinf(v) else v

    return {
        "phi": str(phi),
        "p_hat": _num(est.p_hat),
        "q_hat": _num(est.q_hat),
        "m_max": est.m_max,
        "seq_len": est.seq_len,
        "dilation_norms": {str(m): v for m, v in est.dilation_norms.items()},
        "contraction_norms": {str(m): _num(v) for m, v in est.contraction_norms.items()},
    }


def _cmd_truncate(args):
    x = serialize.load_matrix(args.matrix)
    flag = _flag_for(args, x.shape[0])
    part = _partition_for(args, flag)
    low, d, u = nest.split(part, x)
    return {"cuts": list(part.cuts), "diag": d, "upper": u, "lower": low,
            "residuals": {"sum": _rel(utils.frob(d + u + low - x), utils.frob(x))}}


def _cmd_integral(args):
    x = serialize.load_matrix(args.matrix)
    flag = _flag_for(args, x.shape[0])
    low, d, u = nest.triangular_integral(flag, x)
    adj_low, adj_d, _ = nest.triangular_integral(flag, utils.dagger(x))
    ref = utils.frob(x)
    return {
        "lower": low, "diag": d, "upper": u,
        "residuals": {
            "sum": _rel(utils.frob(low + d + u - x), ref),
            "adjoint_lower": _rel(utils.frob(adj_low - utils.dagger(u)), ref),
            "adjoint_diag": _rel(utils.frob(adj_d - utils.dagger(d)), ref),
        },
    }


def _cmd_ldl_nest(args):
    import numpy as np
    a = serialize.load_matrix(args.matrix)
    flag = _flag_for(args, a.shape[0])
    part = _partition_for(args, flag)
    factors = factor.ldl_nest(a, part)
    eye = np.eye(a.shape[0])
    recon = (eye + factors.r) @ factors.d @ utils.dagger(eye + factors.r)
    # r is truncated once, in its adapted basis: there the truncation is the
    # standard flag's, and the nilpotency check rotates nothing
    adapted = nest.Partition(nest.Flag.standard(flag.n, flag.dims), part.cuts)
    upper = nest.truncate_upper(adapted, flag.to_adapted(factors.r))
    return {
        "cuts": list(part.cuts),
        "r": factors.r, "d": factors.d,
        "residuals": {
            "reconstruction": _rel(utils.frob(recon - a), utils.frob(a)),
            "strict_upper": utils.frob(flag.from_adapted(upper) - factors.r),
            "nilpotency_index": factor.nilpotency_check(upper, adapted),
        },
    }


def _cmd_qr_nest(args):
    g = serialize.load_matrix(args.matrix)
    flag = _flag_for(args, g.shape[0])
    factors = factor.qb_nest(g, flag)
    return {
        "u": factors.u, "b": factors.b,
        "residuals": {
            "reconstruction": _rel(utils.frob(factors.u @ factors.b - g), utils.frob(g)),
            "unitarity": utils.unitarity(factors.u),
            "nest_membership": nest.is_in_nest_algebra(
                factors.b, flag, tol=utils.NEST_TOL * utils.frob(factors.b)),
            "condition_number": factors.condition_number,
        },
    }


def _cmd_cartan(args):
    g = serialize.load_matrix(args.matrix)
    split = _parse_split(args.split) if args.split else None
    structure = classical.default_structure(args.type, g.shape[0], split=split)
    if split is not None and structure.split is None:
        raise InputError(f"--split applies only to types with a signature; {args.type} has none")
    factors = classical.cartan_decompose(g, args.type, structure)
    return {
        "type": args.type,
        "k": factors.k, "x": factors.x,
        "residuals": {
            "reconstruction": _rel(utils.frob(factors.k @ factors.p - g), utils.frob(g)),
            "k_unitarity": utils.unitarity(factors.k),
            "k_in_group": classical.group_membership(
                factors.k, args.type, structure, tol=utils.CARTAN_TOL),
            "x_in_algebra": classical.algebra_membership(
                factors.x, args.type, structure, tol=utils.CARTAN_TOL),
            "x_hermitian": utils.frob(factors.x - utils.dagger(factors.x)),
        },
    }


def _cmd_iwasawa(args):
    g = serialize.load_matrix(args.matrix)
    x0 = serialize.load_matrix(args.x0) if args.x0 else None
    factors = classical.iwasawa_decompose(g, x0)
    return {
        "k": factors.k, "a": factors.a, "n": factors.n,
        "residuals": {
            "reconstruction": _rel(utils.frob(factors.k @ factors.a @ factors.n - g),
                                   utils.frob(g)),
            "k_unitarity": utils.unitarity(factors.k),
            "a_commutes_x0": utils.frob(factors.a @ factors.x0 - factors.x0 @ factors.a),
        },
    }


def _cmd_hc(args):
    g = serialize.load_matrix(args.matrix)
    p, q = _parse_split(args.split)
    split = harish.BlockSplit(p, q)
    factors = harish.hc_factorize(g, split)
    recon = (harish.upper_unipotent(factors.zplus, split)
             @ factors.kappa
             @ harish.lower_unipotent(factors.zminus, split))
    report = {
        "zplus": factors.zplus, "kappa": factors.kappa, "zminus": factors.zminus,
        "residuals": {"reconstruction": _rel(utils.frob(recon - g), utils.frob(g))},
    }
    if args.z:
        z = serialize.load_matrix(args.z)
        try:    # g.Z and J(g, Z) are factors of g [[1, Z], [0, 1]]
            point = harish.hc_factorize(g @ harish.upper_unipotent(z, split), split)
        except DomainError:
            report["domain"] = False
        else:
            report.update(domain=True, action=point.zplus, cocycle=point.kappa)
    return report


def _cmd_mean(args):
    group = serialize.resolve_group(args.group)
    means = amenable.invariant_means(group)
    mu = means[0]
    return {
        "group": group.name or args.group,
        "order": group.order,
        "weights": mu.weights,
        "unique": len(means) == 1,
        "invariance_residual": amenable.invariance_residual(group, mu.weights.real),
    }


def _cmd_gns(args):
    import numpy as np
    group = serialize.resolve_group(args.group)
    mu = amenable.uniform_mean(group)
    rep = amenable.gns_regular(group, mu)
    char = rep.character()
    regular = amenable.regular_character(group)
    return {
        "group": group.name or args.group,
        "dim": rep.dim,
        "character": char,
        "matches_regular_character": bool(np.array_equal(char, regular)),
    }


def _cmd_arens(args):
    group = serialize.resolve_group(args.group)
    mu = serialize.load_functional(args.mu, group)
    nu = serialize.load_functional(args.nu, group)
    prod = amenable.arens_product(mu, nu)
    return {"group": group.name or args.group, "weights": prod.weights}


def _cmd_experiment(args):
    if args.which != "truncation-growth":
        raise InputError(f"unknown experiment {args.which!r}")
    phi = symfunc.SymNormFunc.parse(args.phi)
    sizes = _parse_ints(args.sizes, "--sizes")
    if args.seed < 0:
        raise InputError(f"--seed must be a nonnegative integer, got {args.seed}")
    rows = nest.truncation_norm_experiment(phi, sizes, args.trials, args.seed)
    return "n,ratio\n" + "".join(f"{n},{r!r}\n" for n, r in rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opideal",
        description="Gauge norms, triangular truncations and factorizations, "
                    "classical group decompositions, finite-group means.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="write the report to a file")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text,
                           parents=[common])
        p.set_defaults(func=func)
        return p

    p = add("svalues", _cmd_svalues, "Singular values of a matrix, sorted descending.")
    p.add_argument("--matrix", required=True, help="matrix JSON path")

    p = add("norm", _cmd_norm, "Unitarily invariant norm: gauge of the singular values.")
    p.add_argument("--phi", required=True, help="gauge, e.g. schatten:2 or kyfan:3")
    p.add_argument("--matrix", required=True)

    p = add("dualnorm", _cmd_dualnorm,
            "Dual gauge value of a sorted sequence: a numeric lower bound on "
            "the supremum of the pairing ratio, plus the exact value for every "
            "gauge (ell^q for schatten:p with 1/p + 1/q = 1, "
            "max(eta_1, sum/k) for kyfan:k).")
    p.add_argument("--phi", required=True)
    p.add_argument("--sequence", required=True, help="CSV, one value per line")
    p.add_argument("--seed", type=int, default=None,
                   help="accepted and ignored: the estimate is deterministic")

    p = add("boyd", _cmd_boyd,
            "Dilation growth exponents of a gauge from a finite scan of "
            "block-repeat and block-average operator norms.")
    p.add_argument("--phi", required=True)
    p.add_argument("--mmax", type=int, default=16)
    p.add_argument("--cap", type=int, default=64, help="sequence length cap")
    p.add_argument("--seed", type=int, default=None,
                   help="accepted and ignored: the scan is deterministic")

    p = add("truncate", _cmd_truncate,
            "Block-diagonal / strictly-upper / strictly-lower truncations "
            "of a matrix relative to a partition of a flag.")
    p.add_argument("--matrix", required=True)
    p.add_argument("--flag", default=None, help="flag JSON path (default standard)")
    p.add_argument("--cuts", default=None, help="comma list, default all dims")

    p = add("integral", _cmd_integral,
            "Lower/diagonal/upper parts at the finest partition of a flag.")
    p.add_argument("--matrix", required=True)
    p.add_argument("--flag", default=None)

    p = add("ldl-nest", _cmd_ldl_nest,
            "Factor a positive definite matrix as (1+r) d (1+r*) with r "
            "strictly block upper and d block diagonal.")
    p.add_argument("--matrix", required=True)
    p.add_argument("--flag", default=None)
    p.add_argument("--cuts", default=None)

    p = add("qr-nest", _cmd_qr_nest,
            "Factor an invertible matrix as unitary times block upper with "
            "positive definite block diagonal (QR on the maximal flag).")
    p.add_argument("--matrix", required=True)
    p.add_argument("--flag", default=None)

    p = add("cartan", _cmd_cartan,
            "Polar split g = k exp(x) inside a classical group type: k "
            "unitary in the group, x Hermitian in its Lie algebra.")
    p.add_argument("--type", required=True, choices=CLASSICAL_TYPES)
    p.add_argument("--matrix", required=True)
    p.add_argument("--split", default=None, help="p,q for signature types")

    p = add("iwasawa", _cmd_iwasawa,
            "KAN split of an invertible matrix relative to the eigenflag of "
            "a regular Hermitian element (default diag(n..1)).")
    p.add_argument("--matrix", required=True)
    p.add_argument("--x0", default=None, help="regular Hermitian matrix JSON")

    p = add("hc", _cmd_hc,
            "Two-block unipotent/diagonal/unipotent factorization, plus the "
            "fractional-linear action and multiplier at a point.")
    p.add_argument("--matrix", required=True)
    p.add_argument("--split", required=True, help="p,q block sizes")
    p.add_argument("--z", default=None, help="upper-right coordinate JSON")

    p = add("mean", _cmd_mean,
            "The left-invariant mean of a finite group: the uniform weights, "
            "unique because left multiplication is transitive.")
    p.add_argument("--group", required=True, help="z<n>, d<n>, s3, s4, q8, trivial, or JSON path")

    p = add("gns", _cmd_gns,
            "Regular representation attached to the uniform mean: left "
            "translation on the group's elements; reports its character.")
    p.add_argument("--group", required=True)

    p = add("arens", _cmd_arens,
            "Product of two functionals induced by iterated translation "
            "(weight convolution on a finite group).")
    p.add_argument("--group", required=True)
    p.add_argument("--mu", required=True, help="functional JSON path")
    p.add_argument("--nu", required=True, help="functional JSON path")

    p = add("experiment", _cmd_experiment,
            "Seeded experiment harness; 'truncation-growth' measures the "
            "max ratio of the strictly-upper truncation norm per size.")
    p.add_argument("which", help="experiment name: truncation-growth")
    p.add_argument("--phi", required=True)
    p.add_argument("--sizes", required=True, help="comma list of dimensions")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def _render(report) -> str:
    """CSV as given; anything else as strict JSON with finite numbers and
    each array encoded by ``serialize`` as it is reached."""
    if isinstance(report, str):
        return report
    try:   # a report is a tree: no cycle check on each matrix's many pair lists
        return json.dumps(report, sort_keys=True, allow_nan=False, check_circular=False,
                          default=serialize.array_to_obj) + "\n"
    except InputError:      # a non-finite array, named as the loaders name it
        raise
    except ValueError:
        raise DomainError("a report value lies outside the double range") from None


def _error(code: str, message) -> str:
    return _render({"error": {"code": code, "message": str(message)}})


def main(argv=None) -> int:
    """Parse argv (argparse exits 2 on a usage error) and run the command."""
    return _run(build_parser().parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Run a command line that ``build_parser`` has parsed: exit status 0,
    or 1 with a structured error report.  The process entry parses argv
    before it loads numpy, then calls this."""
    return _run(args)


def _run(args) -> int:
    # main calls this body, not run: a tracer that wraps each public
    # function then sees the command's calls as main's own
    import numpy as np
    status = 1
    gc_was_enabled = gc.isenabled()
    gc.disable()   # matrix JSON is many small lists, none in a cycle: GC passes find nothing
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            text, status = _render(args.func(args)), 0
    except InputError as exc:
        text = _error("input-error", exc)
    except DomainError as exc:
        text = _error("domain-error", exc)
    except (FloatingPointError, OverflowError):
        # finite input whose computation leaves the double range: a product
        # of entries near 1e300, or a square of entries near 1e-300 that
        # underflows to a zero divisor; a gauge divides by its largest entry
        # first, and a gauge sum past the range is inf, its value, not an error
        text = _error("domain-error", "a computed value is not a finite double")
    except OSError as exc:
        text = _error("io-error", exc)
    finally:
        if gc_was_enabled:
            gc.enable()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
            return status
        except OSError as exc:    # the report cannot be written: say so on stdout
            text, status = _error("io-error", exc), 1
    sys.stdout.write(text)
    return status
