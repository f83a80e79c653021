"""Command-line front end.

Subcommands: ``build``, ``verify``, ``classify``, ``hecke``, ``transform``.
Inputs are JSON configs (see :mod:`dynrmat.serialize` for the schema);
outputs go to ``--out`` or stdout and are deterministic for a fixed seed.

Exit codes: 0 success, 1 residual check failed, 2 invalid input,
3 pole encountered, 4 matrix not in the classified family, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from typing import Optional

import numpy as np

from .builder import build
from .classifier import (
    DEFAULT_ZERO_TOL,
    MIN_SAMPLES,
    classify,
    recover_params,
    _reference_point,
)
from .errors import (
    AmbiguityError,
    NotInFamilyError,
    ParameterError,
    PoleError,
)
from .hecke import DEFAULT_TOL as HECKE_TOL, hecke_classify
from .params import validate_params
from .partition import to_json as partition_to_json
from .rmatrix import point_to_json, stencil_points
from .serialize import (
    complex_to_json,
    load_config,
    matrix_from_samples,
    params_to_json,
    parse_config,
    sample_keys,
    two_form_from_json,
    two_form_to_json,
)
from .verifier import (
    DEFAULT_SAMPLES,
    DEFAULT_TOL,
    check_invertibility,
    check_system,
    dqybe_residual_normalized,
    sample_lambda,
)
from . import transforms

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_INVALID = 2
EXIT_POLE = 3
EXIT_NOT_IN_FAMILY = 4
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        raise UsageError(message)


def _parse_lambda(text: str, n: Optional[int] = None) -> np.ndarray:
    parts = [tok.strip() for tok in text.split(",") if tok.strip()]
    vals = []
    for tok in parts:
        try:
            vals.append(complex(tok.replace("i", "j").replace(" ", "")))
        except ValueError as exc:
            raise UsageError(f"cannot parse lambda component {tok!r}") from exc
    lam = np.array(vals, dtype=complex)
    if n is not None and len(lam) != n:
        raise ParameterError(f"lambda must have {n} components, got {len(lam)}")
    return lam


def _number_list(kind, what: str):
    """argparse type for a comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from None
    return parse


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("DYNRMAT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"DYNRMAT_SEED must be an integer, got {env!r}") from exc
    return 0


def _positive(value, flag: str, default):
    """The value of a --samples/--tol flag, or ``default`` when it is absent."""
    if value is None:
        return default
    if not value > 0:
        raise UsageError(f"{flag} must be positive")
    if not math.isfinite(value):
        raise UsageError(f"{flag} must be finite")
    return value


def _parse(obj):
    """Parsed config; a datum's params are validated."""
    kind, payload = parse_config(obj)
    if kind == "datum":
        res = validate_params(payload[1])
        if not res:
            raise ParameterError(res.message)
    return kind, payload


def _load_datum(path: str):
    """A datum config's (partition, params); a sampled matrix is rejected
    by its ``kind``, before its samples are parsed."""
    obj = load_config(path)
    if isinstance(obj, dict) and obj.get("kind") == "matrix":
        raise ParameterError(
            "this command needs an evaluable datum config "
            '("kind": "datum"); a sampled matrix cannot be rebuilt'
        )
    return _parse(obj)[1]


def _load_any(path: str):
    """Returns (R, points_or_None): the sample points of a sampled matrix,
    None for a datum."""
    kind, payload = _parse(load_config(path))
    if kind == "datum":
        return build(*payload), None
    return matrix_from_samples(payload), list(payload.lams)


def _enough_samples(samples, command: str) -> None:
    """Rejects a sampled matrix with fewer points than the classifier's
    zero-pattern detection needs; ``samples`` is None for a datum."""
    if samples is not None and len(samples) < MIN_SAMPLES:
        raise ParameterError(
            f"{command} needs at least {MIN_SAMPLES} sample points; "
            f"the sampled matrix has {len(samples)}"
        )


# -- subcommands ------------------------------------------------------------


def _fmt_c(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}i"


def cmd_build(args) -> int:
    p, c = _load_datum(args.config)
    R = build(p, c)
    lines = [f"n = {p.n}", f"partition = {partition_to_json(p)['blocks']}"]
    ref = _reference_point(R, stencil=False)
    dt, dd = R.tables(ref)
    lines.append("per-pair coefficients at the reference point "
                 f"{[complex_to_json(z) for z in ref]}:")
    for i in range(1, p.n + 1):
        for j in range(1, p.n + 1):
            if i == j:
                lines.append(f"  exchange({i},{i}) = {_fmt_c(dt[i-1,i-1])}")
            else:
                lines.append(
                    f"  exchange({i},{j}) = {_fmt_c(dt[i-1,j-1])}  "
                    f"diagonal({i},{j}) = {_fmt_c(dd[i-1,j-1])}"
                )
    out_obj = {"summary": lines}
    if args.lam:
        lam = _parse_lambda(args.lam, p.n)
        out_obj["point"] = point_to_json(lam, *R.tables(lam))
    _emit(_dumps(out_obj), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    num = _positive(args.samples, "--samples", DEFAULT_SAMPLES)
    tol = _positive(args.tol, "--tol", DEFAULT_TOL)
    try:
        R, points = _load_any(args.config)
    except NotInFamilyError as exc:  # a sample outside the zero-weight patterns
        sys.stderr.write(f"FAIL: {exc}\n")
        return EXIT_RESIDUAL
    seed = _seed(args)
    if points is None:
        samples = sample_lambda(R, np.random.default_rng(seed), num)
    else:
        # a sampled matrix is verifiable when, for some base points, all n
        # singly-shifted points are in the sample set too
        keys = set(sample_keys(points))
        shifts = stencil_points(points)[:, 1:].reshape(-1, R.n)
        found = np.array([key in keys for key in sample_keys(shifts)]).reshape(len(points), R.n)
        samples = [lam for lam, ok in zip(points, found.all(axis=1)) if ok]
        if not samples:
            raise ParameterError(
                "sampled matrix is not verifiable: no sample point has all "
                "of its singly-shifted points in the sample set"
            )
    report = check_system(R, samples=samples, tol=tol)
    inv = [check_invertibility(R, lam) for lam in samples]
    inv_ok = all(item["agree"] for item in inv)
    ok = report.passed and inv_ok
    worst = report.worst_case

    rows = ["equation,max_normalized_residual"]
    for tag in sorted(report.per_equation):
        rows.append(f"{tag},{report.per_equation[tag]:.6e}")
    rows.append(f"global,{max(report.global_residuals):.6e}")
    csv_text = "\n".join(rows) + "\n"
    json_obj = {
        "passed": bool(ok),
        "tol": tol,
        "seed": seed,
        "num_samples": len(samples),
        "global_residual": max(report.global_residuals),
        "per_equation": {k: v for k, v in sorted(report.per_equation.items())},
        "invertibility_agree": bool(inv_ok),
        # None when every component residual is exactly 0
        "worst": None if worst is None else {
            "equation": worst.equation,
            "indices": list(worst.indices),
            "value": worst.value,
        },
    }
    text = _dumps(json_obj) + "\n" + csv_text
    if not ok:
        if report.passed:
            k = next(k for k, item in enumerate(inv) if not item["agree"])
            reason = (f"invertibility check failed at sample {k + 1} of {len(samples)}, "
                      f"lam={np.asarray(samples[k], dtype=complex)}: {inv[k]['detail']}")
        elif worst is None:
            reason = "every component residual is 0; the global check failed"
        else:
            reason = (f"worst equation {worst.equation} at indices {list(worst.indices)} "
                      f"with normalized residual {worst.value:.3e}")
        sys.stderr.write(f"FAIL: {reason}\n")
        _emit(text, args.out)
        return EXIT_RESIDUAL
    _emit(text, args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    tol = _positive(args.tol, "--tol", DEFAULT_ZERO_TOL)
    R, samples = _load_any(args.config)
    seed = _seed(args)
    _enough_samples(samples, "classify")
    report = classify(R, samples=samples, tol=tol, seed=seed)
    obj = {
        "partition": partition_to_json(report.recovered_partition),
        "index_permutation": {str(k): v for k, v in report.index_permutation.items()},
        "levels": list(report.levels),
        "reduced_incidence": report.M_R.astype(int).tolist(),
        "block_sizes": list(report.block_sizes),
    }
    if samples is None:
        params = recover_params(R, report, seed=seed)
        ref = _reference_point(R, stencil=False)
        obj["params"] = params_to_json(params, probe_lam=ref)
    _emit(_dumps(obj), args.out)
    return EXIT_OK


def cmd_hecke(args) -> int:
    tol = _positive(args.tol, "--tol", HECKE_TOL)
    R, samples = _load_any(args.config)
    seed = _seed(args)
    _enough_samples(samples, "hecke")
    report = hecke_classify(R, samples=samples, tol=tol, seed=seed)

    def fmt(z: complex) -> str:
        if z is None:
            return "-"
        if abs(z.imag) <= 1e-12 * abs(z):  # relative: 0 prints as "0"
            return f"{z.real:.6g}"
        return f"{z.real:.6g}{z.imag:+.6g}i"

    if report.kind == "WeakHecke":
        line = f"WeakHecke rho={fmt(report.rho)} kappa={fmt(report.kappa)}; not Hecke"
    elif report.kind == "Hecke":
        line = f"Hecke rho={fmt(report.rho)} kappa={fmt(report.kappa)}"
    elif report.kind == "DegenerateSingleDClass":
        line = f"DegenerateSingleDClass value={fmt(report.rho)}"
    else:
        line = f"NotHecke ({report.detail})"
    obj = {
        "kind": report.kind,
        "rho": complex_to_json(report.rho) if report.rho is not None else None,
        "kappa": complex_to_json(report.kappa) if report.kappa is not None else None,
        "detail": report.detail,
        "line": line,
    }
    _emit(line + "\n" + _dumps(obj), args.out)
    return EXIT_OK


def cmd_transform(args) -> int:
    chosen = [
        name
        for name in ("twist", "two_form", "contract", "compose", "scale", "limit")
        if getattr(args, name) is not None
    ]
    if len(chosen) != 1:
        raise UsageError(
            "exactly one of --twist/--two-form/--contract/--compose/--scale/--limit"
        )
    mode = chosen[0]
    p, c = _load_datum(args.config)
    R = build(p, c)

    if mode == "scale":
        sd = transforms.scale_f(c, args.scale)
        obj = {
            "params": params_to_json(sd.params),
            "index_map": {str(k): v for k, v in sd.index_map.items()},
            "compensator": two_form_to_json(sd.compensator, p.n)["values"],
            "eta": sd.eta,
        }
        _emit(_dumps(obj), args.out)
        return EXIT_OK

    if mode == "limit":
        rep = transforms.trig_to_rational_limit(c, args.limit)
        obj = {
            "xi": rep.xi_values,
            "distances": rep.distances,
            "orders": rep.orders,
            "converging": bool(rep.converging),
        }
        _emit(_dumps(obj), args.out)
        return EXIT_OK

    if mode == "contract":
        subset = tuple(args.contract)
        out_R = transforms.contract(R, subset)
        m = len(subset)
    elif mode == "compose":
        p2, c2 = _load_datum(args.compose)
        R2 = build(p2, c2)
        out_R = transforms.decouple_compose(
            R, R2,
            complex(1.0 if args.g_ab is None else args.g_ab),
            complex(1.0 if args.g_ba is None else args.g_ba),
        )
        m = p.n + p2.n
    elif mode == "twist":
        spec = load_config(args.twist)
        if not isinstance(spec, dict):
            raise ParameterError('a --twist file is an object {"potentials": {...}}')
        out_R = transforms.apply_twist(R, two_form_from_json({**spec, "type": "exact"}, p.n))
        m = p.n
    else:  # two_form
        spec = load_config(args.two_form)
        g = two_form_from_json(spec, p.n)
        out_R = transforms.apply_2form(R, g, seed=_seed(args))
        m = p.n

    if args.lam:
        lam = _parse_lambda(args.lam, m)
    else:
        lam = _reference_point(out_R)
    obj = {
        "n": m,
        "point": point_to_json(lam, *out_R.tables(lam)),
        "residual": dqybe_residual_normalized(out_R, lam),
    }
    _emit(_dumps(obj), args.out)
    return EXIT_OK


# -- entry point ------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each call of :func:`main` gets a fresh namespace."""
    parser = _Parser(prog="dynrmat", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def command(name, summary, *, tol=False, seed=False, lam=False):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("config", help="JSON config path")
        if tol:
            sp.add_argument("--tol", type=float, default=None)
        if seed:
            sp.add_argument("--seed", type=int, default=None)
        if lam:
            sp.add_argument("--lambda", dest="lam", default=None,
                            help='evaluation point "a+bi,a+bi,..."')
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        return sp

    command("build", "build a matrix from a datum config", lam=True)
    vp = command("verify", "check the shifted consistency equations", tol=True, seed=True)
    vp.add_argument("--samples", type=int, default=None)
    command("classify", "recover partition and constants", tol=True, seed=True)
    command("hecke", "spectral classification", tol=True, seed=True)
    tp = command("transform", "apply a covariance transform", seed=True, lam=True)
    tp.add_argument("--twist", default=None, help="JSON file of per-index potentials")
    tp.add_argument("--two-form", dest="two_form", default=None,
                    help="JSON 2-form spec to apply")
    tp.add_argument("--contract", type=_number_list(int, "integers"), default=None,
                    help='index subset "1,2"')
    tp.add_argument("--compose", default=None, help="second datum config to append")
    tp.add_argument("--g-ab", dest="g_ab", type=complex, default=None)
    tp.add_argument("--g-ba", dest="g_ba", type=complex, default=None)
    tp.add_argument("--scale", type=float, default=None,
                    help="merge exchange classes at this scale")
    tp.add_argument("--limit", type=_number_list(float, "numbers"), default=None,
                    help='xi sequence "1e-1,1e-2,..."')
    return parser


_COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "classify": cmd_classify,
    "hecke": cmd_hecke,
    "transform": cmd_transform,
}


def _join_lambda(argv: list[str]) -> list[str]:
    """``--lambda VALUE`` (or an unambiguous abbreviation such as ``--lam
    VALUE``) as ``--lambda=VALUE``, so that argparse does not read a value
    starting with ``-`` as an option."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        flag = tok.startswith("--la") and "--lambda".startswith(tok)
        value = next(tokens, None) if flag else None
        out.append(tok if value is None else f"--lambda={value}")
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_lambda(sys.argv[1:] if argv is None else argv))
        if args.command is None:
            raise UsageError("a subcommand is required (build|verify|classify|hecke|transform)")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except ParameterError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
    except PoleError as exc:
        sys.stderr.write(f"pole: {exc}\n")
        return EXIT_POLE
    except (NotInFamilyError, AmbiguityError) as exc:
        sys.stderr.write(f"not in family: {exc}\n")
        return EXIT_NOT_IN_FAMILY


if __name__ == "__main__":
    sys.exit(main())
