"""Command-line front end: compose, decompose, collide, estimate.

Polynomials are written as comma-separated coefficients in descending power
order including the leading and constant terms ("1,4,5,2,0" is
x^4+4x^3+5x^2+2x); rationals as "p/q", complexes as "a+bi".  Exit codes:
0 success, 2 usage/parse error, 3 domain error (prime degree, or a required
decomposition that does not exist).  The library checks each input where
it enters and raises ValueError, as do the few checks that only the command
line needs; `main` alone maps a ValueError to exit 2 and a DomainError to
exit 3.  Algebraic commands default to exact rationals, estimation to real
doubles.  Identical flags and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import sys
from typing import Callable

from .collisions import CollisionParams, alpha_exp, alpha_trig
from .decompose import is_composite, is_decomposable, try_decompose
from .density import TubeSpec, density_report, estimate_density
from .polynomial import (
    FIELDS,
    Polynomial,
    compose,
    format_polynomial,
    parse_polynomial,
    parse_scalar,
    require_monic_original,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3

ESTIMATE_FIELDS = {"real64": "real", "complex64": "complex"}


class DomainError(Exception):
    pass


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out {out!r}: {exc.strerror}") from None
    else:
        print(text)


def _cmd_compose(args) -> int:
    g = require_monic_original(parse_polynomial(args.g, args.field))
    h = require_monic_original(parse_polynomial(args.h, args.field))
    f = compose(g, h)
    if not (f.is_exact() or all(map(cmath.isfinite, f.coeffs))):
        raise ValueError("the composition overflowed: a coefficient is not finite")
    _emit(format_polynomial(f), args.out)
    return EXIT_OK


def _decomposition_row(d: int, dec) -> dict:
    return {"d": d, "g": format_polynomial(dec.g), "h": format_polynomial(dec.h)}


def _require_composite(n: int) -> None:
    if not is_composite(n):
        raise DomainError(
            f"degree {n} has no proper divisors; nothing of prime degree decomposes"
        )


def _cmd_decompose(args) -> int:
    f = require_monic_original(parse_polynomial(args.f, args.field))
    n = f.degree
    _require_composite(n)
    found = is_decomposable(f) if args.d is None else [(args.d, try_decompose(f, args.d))]
    rows = [_decomposition_row(d, dec) for d, dec in found if dec is not None]
    _emit(json.dumps(rows), args.out)
    if args.d is not None and not rows:
        print(f"no decomposition of degree-{n} input at d={args.d}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def _parse_list(text: str, flag: str, kind) -> list:
    try:
        return [kind(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse {flag} value {text!r}") from None


def _cmd_estimate(args) -> int:
    field = ESTIMATE_FIELDS[args.field]
    divisors = [None] if args.union else _parse_list(args.d, "--d", int)
    eps_values = _parse_list(args.eps, "--eps", float)
    _require_composite(args.n)
    rows = []
    for d in divisors:
        for eps in eps_values:
            spec = TubeSpec(n=args.n, d=d, epsilon=eps, B=args.B, field=field)
            result = estimate_density(spec, args.samples, seed=args.seed, mode=args.mode)
            rows.append(density_report(spec, result))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue().rstrip("\n"), args.out)
    else:
        _emit(json.dumps(rows[0] if len(rows) == 1 else rows), args.out)
    return EXIT_OK


def _collision_params(payload: object, field: str) -> tuple[CollisionParams, Callable]:
    if not isinstance(payload, dict):
        raise ValueError("collision parameters must be a JSON object")
    try:
        variant = payload["variant"]
        n, d = payload["n"], payload["d"]
        u = parse_polynomial(str(payload["u"]), field)
        v = parse_polynomial(str(payload["v"]), field)
        a = parse_scalar(str(payload.get("a", "0")), field)
        if variant not in ("exp", "trig"):
            raise ValueError(f"unknown collision variant {variant!r}")
        if variant == "exp":
            if not isinstance(payload.get("w"), list):
                raise ValueError("exponential variant needs w as a list of lower coefficients")
            lower = [parse_scalar(str(c), field) for c in payload["w"]]
            w = Polynomial(list(reversed(lower)) + [1])
            return CollisionParams(n=n, d=d, u=u, v=v, a=a, w=w), alpha_exp
        z = parse_scalar(str(payload["z"]), field) if "z" in payload else None
        return CollisionParams(n=n, d=d, u=u, v=v, a=a, z=z), alpha_trig
    except KeyError as exc:
        raise ValueError(f"collision parameters missing {exc}") from None


def _cmd_collide(args) -> int:
    try:
        payload = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON parameters: {exc}") from None
    params, construct = _collision_params(payload, args.field)
    f = construct(params)
    d, e = params.d, params.e
    at_d, at_e = try_decompose(f, d), try_decompose(f, e)
    report = {
        "f": format_polynomial(f),
        "d": d,
        "e": e,
        "decomposes_at_d": at_d is not None,
        "decomposes_at_e": at_e is not None,
    }
    _emit(json.dumps(report), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydecomp",
        description="Compose and decompose polynomials, build collisions, "
        "and run tube-density experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    algebraic = argparse.ArgumentParser(add_help=False, parents=[out])
    algebraic.add_argument("--field", choices=FIELDS, default="rational")

    p = sub.add_parser("compose", parents=[algebraic], help="compose two monic original polynomials")
    p.add_argument("g")
    p.add_argument("h")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("decompose", parents=[algebraic], help="find decompositions f = g(h)")
    p.add_argument("f")
    p.add_argument("--d", type=int, default=None, help="only this divisor")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("estimate", parents=[out], help="Monte Carlo tube-density estimate")
    p.add_argument("--n", type=int, required=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--d", help="proper divisor, or comma list for a sweep")
    target.add_argument("--union", action="store_true", help="union of the two largest components")
    p.add_argument("--eps", required=True, help="tube radius, or comma list for a sweep")
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", choices=tuple(ESTIMATE_FIELDS), default="real64")
    p.add_argument("--mode", choices=("plain", "conditional"), default="plain")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("collide", parents=[algebraic], help="build a doubly decomposable polynomial")
    p.add_argument(
        "params",
        help='JSON: {"variant": "exp"|"trig", "n", "d", "u", "v", "a", "w"|"z"}',
    )
    p.set_defaults(func=_cmd_collide)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
