"""Command-line entry point.

Exit codes: 0 success or check passed, 2 input error, 3 check violation
(including joint feasibility disproved by a Farkas certificate), 4
feasibility undecided at its iteration budget.  Reports are deterministic
given identical inputs, tolerances, and seeds, and always embed the
tolerance and library version.  Every output is strict JSON: one that
would hold a non-finite number is an input error and is not written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from ._linalg import CheckViolation, Report, Tolerance
from . import serialization as io
from .causality import (
    CommutationReport,
    check_lon,
    check_poz,
    check_quantum_factorizability,
    check_spacelike_commutation,
)
from .hilbert import region_span
from .patching import (
    OPERATOR_ORDER,
    SETTING_KEYS,
    CorrelationTable,
    chsh_value,
    classical_factorizability_residual,
    classical_marginal_residual,
    classical_patch,
    joint_feasibility,
    no_signalling_residual,
    patch_marginal_residual,
    quantum_patch,
)
from .scenarios import (
    EprbConfig,
    gen_double_slit,
    gen_eprb,
    gen_ghz,
    gen_pr_box,
)
from .sk_model import (
    check_truncation_independence,
    decoupled_demo_config,
    gen_sk_circuit,
)

OK, INPUT_ERROR, VIOLATION, BUDGET = 0, 2, 3, 4


@dataclasses.dataclass(frozen=True)
class ResidualReport(Report):
    """The verdict of a residual check: passed iff the residual is at most
    tol.rel."""

    max_residual: float
    tol: Tolerance

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol.rel


def _read(path: str, tol: Tolerance, kinds: tuple[str, ...]):
    """The input at `path` as (kind, object), refused unless its kind (a
    `serialization.read_input` kind) is one of `kinds`.  Where both model
    and skmodel are taken, a circuit config is read as the model it builds.
    Every functional is built once, at `tol`, as the input is read."""
    if not os.path.exists(path):
        raise ValueError(f"no such input: {path}")
    try:
        kind, obj = io.read_input(path, tol)
        if kind == "skmodel" and "model" in kinds:
            circuit = gen_sk_circuit(obj, tol)
            kind, obj = "model", (circuit.dcf, circuit.order)
    except (TypeError, AttributeError) as exc:  # the mark of a malformed document
        raise ValueError(f"malformed input {path}: {exc}") from exc
    if kind not in kinds:
        if kind == "dcf" and "model" in kinds:
            raise ValueError("dcf document given; an order.json is also needed")
        raise ValueError(f"cannot interpret {path} as {' or '.join(kinds)}: its kind is {kind}")
    return kind, obj


def _model(args, need_order: bool = True):
    """The functional and order of a model input; a lone functional, with
    order None, only where no order is needed."""
    kinds = ("model", "skmodel") if need_order else ("model", "dcf", "skmodel")
    kind, obj = _read(args.input, _tol(args), kinds)
    return obj if kind == "model" else (obj, None)


def _scenario(args):
    return _read(args.input, _tol(args), ("scenario",))[1]


def _beam_dcfs(args) -> dict:
    """Beam functionals keyed by setting, from any two-wing input."""
    kind, obj = _read(args.input, _tol(args), ("scenario", "beamdcfs", "table", "jointdcf"))
    return obj if kind == "beamdcfs" else obj.beam_dcfs()


def _emit(report: dict, out: str | None = None) -> None:
    """Write a report, with the library version, to `out` or else stdout."""
    report = {**report, "version": __version__}
    if out:
        io.dump_json(report, out)
    else:
        sys.stdout.write(io.dumps(report))


def _verdict(report, args) -> int:
    """Emit a check report; exit on its verdict."""
    _emit(report.as_dict(), args.out)
    return OK if report.passed else VIOLATION


def _tol(args) -> Tolerance:
    return Tolerance(rel=args.tol)


def _parse_points(spec: str, names) -> tuple[str, ...]:
    """The points of a comma list, each named once.  A point name may
    itself hold commas (circuit cells are named "s,t"), so each point, from
    left to right, is the longest run of comma-joined tokens that names a
    point."""
    tokens, names = spec.split(","), set(names)
    points, i = [], 0
    while i < len(tokens):
        ends = [j for j in range(len(tokens), i, -1) if ",".join(tokens[i:j]) in names]
        if ends:
            name = ",".join(tokens[i:ends[0]])
            if name in points:
                raise ValueError(f"point {name!r} is listed twice")
            points.append(name)
        elif tokens[i]:
            raise ValueError(f"unknown point {tokens[i]!r}")
        i = ends[0] if ends else i + 1
    return tuple(points)


def _regions(spec: str | None, order):
    """The regions of a semicolon list of point lists; "exhaustive" if none.
    An empty list names the empty region."""
    if spec is None:
        return "exhaustive"
    return [order.region(_parse_points(chunk, order.points)) for chunk in spec.split(";")]


def _between(kind, lo, hi):
    """Argument type: a `kind` value strictly between lo and hi (nan is not)."""
    def parse(text):
        value = kind(text)
        if not lo < value < hi:
            raise argparse.ArgumentTypeError(f"{text} is not strictly between {lo} and {hi}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


# -- command handlers ---------------------------------------------------------

def cmd_validate(args) -> int:
    dcf, _ = _model(args, need_order=False)
    return _verdict(dcf.validate_axioms(seed=args.seed), args)


def event_space_report(dcf, points=None) -> dict:
    """The event Hilbert space of a region, every point if None, read from
    its span (`region_span`): the atom vectors' Gram has the spectrum s**2,
    padded with zeros to one eigenvalue per atom."""
    n_atoms, _, _, v, (_, s, _), r = region_span(
        dcf, dcf.space.points if points is None else points
    )
    # the universal event's vector is the sum of the atom vectors: atoms partition
    universal = v @ np.ones(v.shape[1], dtype=complex)
    return {
        "atoms": n_atoms,
        "rank": r,
        "universal_norm2": float(np.vdot(universal, universal).real),
        "min_eigenvalue": float(s[-1] ** 2) if s.size == n_atoms else 0.0,
        "max_eigenvalue": float(s[0] ** 2) if s.size else 0.0,
        "region": "all" if points is None else list(points),
        "tolerance": dcf.tol.rel,
    }


def cmd_hilbert(args) -> int:
    dcf, _ = _model(args, need_order=False)
    points = None if args.region is None else _parse_points(args.region, dcf.space.points)
    _emit(event_space_report(dcf, points), args.out)
    return OK


def cmd_poz(args) -> int:
    dcf, order = _model(args)
    return _verdict(check_poz(dcf, order, _regions(args.regions, order)), args)


def cmd_lon(args) -> int:
    dcf, order = _model(args)
    return _verdict(check_lon(dcf, order, _regions(args.regions, order)), args)


def cmd_commute(args) -> int:
    scenario = _scenario(args)
    reports = []
    for key in SETTING_KEYS:
        t = scenario.theory(*key)
        z = t.order.region(scenario.z_points)
        a = t.order.region(scenario.a_points)
        b = t.order.region(scenario.b_points)
        reports.append(
            check_spacelike_commutation(t.dcf, t.order, z, a, b, t.beam_a, t.beam_b)
        )
    report = CommutationReport(
        max([0.0] + [r.commutator_norm for r in reports]),
        max([0.0] + [r.action_residual for r in reports]),
        _tol(args),
    )
    return _verdict(report, args)


def cmd_factorizability(args) -> int:
    if args.kind == "classical":
        resid = classical_factorizability_residual(_scenario(args))
        return _verdict(ResidualReport(resid, _tol(args)), args)
    dcf, order = _model(args)
    if None in (args.z, args.a, args.b):
        raise ValueError("quantum factorizability needs --z --a --b point lists")
    z, a, b = (
        order.region(_parse_points(spec, order.points)) for spec in (args.z, args.a, args.b)
    )
    return _verdict(check_quantum_factorizability(dcf, order, z, a, b), args)


def cmd_patch(args) -> int:
    tol = _tol(args)
    scenario = _scenario(args)
    if args.kind == "classical":
        jm = classical_patch(scenario)
        resid = classical_marginal_residual(jm, scenario)
        doc = {
            "values": np.asarray(jm.values).tolist(),
            "slots": list(jm.values.shape),
            "total": jm.total(),
        }
        summary = {"marginal_residual": resid, "total": jm.total()}
        code = OK
    else:
        ordering = tuple(args.ordering.split(",")) if args.ordering else OPERATOR_ORDER
        jdcf = quantum_patch(scenario, ordering=ordering)
        resid = max(patch_marginal_residual(jdcf, scenario, *k) for k in SETTING_KEYS)
        doc = io.joint_dcf_to_json(jdcf)
        summary = {"marginal_residual": resid, "tolerance": tol.rel}
        code = OK if resid <= tol.rel else VIOLATION
    doc.update(marginal_residual=resid, tolerance=tol.rel)
    _emit(doc, args.out)
    if args.out:
        _emit({**summary, "out": args.out})
    return code


def cmd_chsh(args) -> int:
    table = CorrelationTable.from_beam_dcfs(_beam_dcfs(args), _tol(args))
    value = chsh_value(table)
    _emit({"chsh": value, "table": io.table_to_json(table)}, args.out)
    return OK


def cmd_nosignalling(args) -> int:
    resid = no_signalling_residual(_beam_dcfs(args))
    return _verdict(ResidualReport(resid, _tol(args)), args)


def cmd_feasibility(args) -> int:
    report = joint_feasibility(
        _beam_dcfs(args),
        budget=args.budget,
        tol=_tol(args),
    )
    _emit(report.as_dict(), args.out)
    if report.feasible:
        return OK
    return VIOLATION if report.verdict == "infeasible" else BUDGET


def cmd_gen(args) -> int:
    if args.name == "double-slit":
        _, order, dcf = gen_double_slit(time_reversed=args.time_reversed)
        docs = {"dcf.json": io.dcf_to_json(dcf), "order.json": io.order_to_json(order)}
    elif args.name == "eprb":
        cfg = _read(args.config, Tolerance(), ("eprbconfig",))[1] if args.config else EprbConfig()
        docs = {"scenario.json": io.scenario_to_json(gen_eprb(cfg))}
    elif args.name == "pr":
        model, table = gen_pr_box()
        docs = {
            "table.json": io.table_to_json(table),
            "beamdcfs.json": io.beam_dcfs_to_json(model.beam_dcfs),
            "dcf.json": io.dcf_to_json(model.dcf),
            "order.json": io.order_to_json(model.order),
        }
    else:
        model, event = gen_ghz()
        docs = {
            "dcf.json": io.dcf_to_json(model.dcf),
            "order.json": io.order_to_json(model.order),
            "events.json": {"ghz_event": io.event_to_json(event)},
        }
    os.makedirs(args.out, exist_ok=True)
    for name, doc in docs.items():
        io.dump_json(doc, os.path.join(args.out, name))
    _emit({"generated": args.name, "out": args.out})
    return OK


def cmd_sk(args) -> int:
    tol = _tol(args)
    if args.action == "fixture":
        cfg = decoupled_demo_config(steps=args.steps)
        io.dump_json(io.sk_config_to_json(cfg), args.out or "skmodel.json")
        _emit({"generated": "decoupled-demo", "steps": args.steps})
        return OK
    if not args.input:
        raise ValueError(f"sk {args.action} needs a circuit-model JSON input")
    cfg = _read(args.input, tol, ("skmodel",))[1]
    if args.action == "factorizability":
        model = gen_sk_circuit(cfg, tol)
        z, a, b = (model.region(tag) for tag in "ZAB")
        if z.is_empty() or a.is_empty() or b.is_empty():
            raise ValueError("region tagging must cover Z, A and B")
        report = check_quantum_factorizability(model.dcf, model.order, z, a, b)
    else:  # truncation, the last of the parser's choices
        report = check_truncation_independence(
            cfg, args.tf1, args.tf2, seed=args.seed, tol=tol
        )
    return _verdict(report, args)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept: each
    command's handler is the `cmd_*` function bound at that call."""
    parser = argparse.ArgumentParser(
        prog="qmeasure",
        description="Quantum measure theory on finite history spaces: "
        "axiom validation, causality checks, and patching constructions.",
    )
    parser.add_argument("--schema", action="store_true", help="print the JSON schemas and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument(
            "--tol", type=_between(float, 0, 1), default=1e-9, help="relative tolerance"
        )
        p.add_argument("--out", help="write the report to this path")

    p = sub.add_parser("validate", help="decoherence-functional axiom report")
    p.add_argument("input")
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled checks")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("hilbert", help="event Hilbert space rank report")
    p.add_argument("input")
    p.add_argument("--region", help="comma-separated point names")
    common(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("poz", help="persistence-of-zero check")
    p.add_argument("input")
    p.add_argument("--regions", help="semicolon-separated comma-point lists")
    common(p)
    p.set_defaults(func=cmd_poz)

    p = sub.add_parser("lon", help="lack-of-novelty check")
    p.add_argument("input")
    p.add_argument("--regions", help="semicolon-separated past sets")
    common(p)
    p.set_defaults(func=cmd_lon)

    p = sub.add_parser("commute", help="spacelike event-operator commutation")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_commute)

    p = sub.add_parser("factorizability", help="screening-off residuals")
    p.add_argument("kind", choices=("classical", "quantum"))
    p.add_argument("input")
    p.add_argument("--z")
    p.add_argument("--a")
    p.add_argument("--b")
    common(p)
    p.set_defaults(func=cmd_factorizability)

    p = sub.add_parser("patch", help="build a joint measure or functional")
    p.add_argument("kind", choices=("classical", "quantum"))
    p.add_argument("input")
    p.add_argument("--ordering", help="comma list of a,ap,b,bp")
    common(p)
    p.set_defaults(func=cmd_patch)

    p = sub.add_parser("chsh", help="CHSH value of a table, scenario, or joint")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("nosignalling", help="marginal compatibility residual")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_nosignalling)

    p = sub.add_parser("feasibility", help="PSD joint feasibility search")
    p.add_argument("input")
    p.add_argument("--budget", type=_between(int, 0, math.inf), default=1000)
    common(p)
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("gen", help="emit a built-in model as JSON")
    p.add_argument("name", choices=("double-slit", "eprb", "pr", "ghz"))
    p.add_argument("--config", help="generator configuration JSON")
    p.add_argument("--time-reversed", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sk", help="circuit-model checks")
    p.add_argument("action", choices=("fixture", "factorizability", "truncation"))
    p.add_argument("input", nargs="?")
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--tf1", type=int, default=2)
    p.add_argument("--tf2", type=int, default=3)
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled regions")
    common(p)
    p.set_defaults(func=cmd_sk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        sys.stdout.write(io.dumps(io.SCHEMAS))
        return OK
    if not getattr(args, "command", None):
        parser.print_usage()
        return INPUT_ERROR
    try:
        return args.func(args)
    except CheckViolation as exc:
        sys.stderr.write(f"violation: {exc}\n")
        return VIOLATION
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
