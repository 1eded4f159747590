"""Command-line surface: bound tables, verification pipelines, file I/O.

Exit codes: 0 when the requested check passes (or nothing had to be
checked), 1 when a mathematical check fails (a counterexample or model was
found, or a certificate does not verify), 2 on usage, input, or resource
errors.  Every command accepts --json for a machine-readable report;
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Optional

import click

from .coloring import (
    certificate_from_json,
    certificate_doc,
    certificate_to_json,
    coloring_from_json,
    decide_blue_closed_3,
    decide_red_closed_omega_plus_n,
    check_certificate,
)
from .lowerbound import export_dot, lower_bound_gamma, verify_lower_bound
from .ordinals import ONE, Ordinal, OrdinalError, SizeLimitError, parse
from .ramsey import (
    RamseyError,
    TableEntry,
    brute_force_ramsey,
    builtin_record,
    load_ramsey_table,
    ramsey_value,
    verify_witness,
    witness_from_json,
    witness_to_json,
)
from .replay import (instantiate_clauses, replay_gamma, replay_theorem,
                     resolve_k)
from .solver import BudgetExceeded

__all__ = ["main", "BoundsRow", "bounds_rows"]

_ERRORS = (OrdinalError, RamseyError, OSError, BudgetExceeded)


def _echo(message: str, err: bool = False) -> None:
    """click.echo to the current stdout/stderr, bypassing click's cache.

    click caches its corrected stream per sys.stdout/sys.stderr object in a
    WeakKeyDictionary whose value is usually the key itself, so an entry
    never dies, and every in-process run (CliRunner swaps in fresh streams)
    would leave one.  errors=None asks for the same correction as click's
    default path.
    """
    click.echo(message, file=click.get_text_stream(
        "stderr" if err else "stdout", errors=None))


def _guarded(fn):
    """Map domain/input/resource errors to exit code 2 with a message."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _ERRORS as exc:
            _echo(f"error: {exc}", err=True)
            raise SystemExit(2)

    return wrapper


def _load(path: str, reader, what: str):
    """`reader` applied to the file's text; whatever it refuses, except for
    size, makes the file a malformed `what` file."""
    try:
        with open(path) as fh:
            return reader(fh.read())
    except SizeLimitError:
        raise  # well-formed, refused for its size: its own message says so
    except (KeyError, TypeError, ValueError) as exc:
        raise OrdinalError(f"malformed {what} file: {exc!r}")


def _emit(doc: dict) -> None:
    _echo(json.dumps(doc, indent=2))


@click.group()
def main() -> None:
    """Exact ordinal combinatorics workbench."""


# -- bounds -----------------------------------------------------------------


@dataclass(frozen=True)
class BoundsRow:
    """The four bound values for one n, with the Ramsey data they consumed."""

    n: int
    lower: Ordinal
    upper_square: Ordinal
    upper_ramsey: Ordinal
    upper_prior: Ordinal
    square_better: bool
    ramsey_values_used: dict[str, TableEntry]

    def __post_init__(self):
        if not (self.lower <= self.upper_square
                and self.lower <= self.upper_ramsey):
            raise OrdinalError(
                f"configured Ramsey values put the n={self.n} lower bound "
                "above an upper bound")


def bounds_row(n: int, table: dict[int, TableEntry]) -> BoundsRow:
    """The four bounds at n.  lower is one past the space `lower verify`
    colors; square and ramsey are the spaces `upper replay` refutes.

    lower   = w^2*n + w*(R(n,3)-n) + n
    square  = w^2*n + w*(n^2-4) + 1
    ramsey  = w^2*n + w*(R(2n-3,3)+1) + 1
    prior   = w^2*(R(n-1,3)+1) + w*(n-1) + n
    """
    if n < 3:
        raise OrdinalError(f"bounds need n >= 3, got {n}")
    used: dict[str, TableEntry] = {}

    def val(m: int) -> int:
        entry = ramsey_value(m, table)
        used[f"R({m},3)"] = entry
        return entry.value

    lower = lower_bound_gamma(n, val(n)) + ONE
    upper_square = replay_gamma(n, resolve_k(n, "square-K", table)[0])
    k, used[f"R({2 * n - 3},3)"] = resolve_k(n, "ramsey-K", table)
    upper_ramsey = replay_gamma(n, k)
    upper_prior = (Ordinal.omega_power(2, val(n - 1) + 1)
                   + Ordinal.omega_power(1, n - 1) + Ordinal.from_int(n))
    return BoundsRow(n, lower, upper_square, upper_ramsey, upper_prior,
                     upper_square < upper_ramsey, used)


def bounds_rows(nmax: int, table: dict[int, TableEntry]) -> list[BoundsRow]:
    return [bounds_row(n, table) for n in range(3, nmax + 1)]


@main.command("bounds")
@click.option("--nmax", type=int, default=8, show_default=True,
              help="Largest n to tabulate (from 3).")
@click.option("--table", "table_path", type=click.Path(exists=True),
              default=None, help="Ramsey value table (JSON).")
@click.option("--json", "as_json", is_flag=True)
@_guarded
def cmd_bounds(nmax: int, table_path: Optional[str], as_json: bool) -> None:
    """Tabulate lower/upper bounds and compare the two upper routes."""
    if nmax < 3:
        raise OrdinalError(f"--nmax must be at least 3, got {nmax}")
    rows = bounds_rows(nmax, load_ramsey_table(table_path))
    if as_json:
        _emit({"nmax": nmax, "rows": [{
            "n": r.n,
            "lower": str(r.lower),
            "upper_square": str(r.upper_square),
            "upper_ramsey": str(r.upper_ramsey),
            "upper_prior": str(r.upper_prior),
            "square_better_than_ramsey": r.square_better,
            "ramsey_values_used": {
                k: {"value": e.value, "source": e.source}
                for k, e in sorted(r.ramsey_values_used.items())},
        } for r in rows]})
        return
    cols = ["n", "lower", "upper(square-K)", "upper(ramsey-K)",
            "upper(prior)", "square<ramsey"]
    cells = [[str(r.n), str(r.lower), str(r.upper_square),
              str(r.upper_ramsey), str(r.upper_prior),
              "yes" if r.square_better else "no"] for r in rows]
    widths = [max(len(c[i]) for c in [cols] + cells) for i in range(len(cols))]
    for line in [cols] + cells:
        _echo("  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip())
    flagged = sorted({(int(k.split("(")[1].split(",")[0]), e.value)
                      for r in rows
                      for k, e in r.ramsey_values_used.items()
                      if e.source == "external"})
    if flagged:
        _echo("external values: "
              + ", ".join(f"R({m},3)={v}" for m, v in flagged))


# -- lower ------------------------------------------------------------------


@main.group()
def lower() -> None:
    """Triangle-free construction pipeline."""


@lower.command("verify")
@click.option("-n", "n", type=int, required=True)
@click.option("--witness", "witness_path", type=click.Path(exists=True),
              default=None, help="Witness graph JSON (defaults to builtin).")
@click.option("--dot", "dot_path", type=click.Path(), default=None,
              help="Also write the construction graph in DOT form.")
@click.option("--json", "as_json", is_flag=True)
@_guarded
def cmd_lower_verify(n: int, witness_path: Optional[str],
                     dot_path: Optional[str], as_json: bool) -> None:
    """Build the coloring and check it avoids both homogeneous targets."""
    rec = (_load(witness_path, witness_from_json, "witness")
           if witness_path else None)
    if rec and not rec.report.ok:
        raise RamseyError(f"witness file fails verification: {rec.report}")
    report = verify_lower_bound(n, rec=rec)
    if dot_path:
        with open(dot_path, "w") as fh:
            fh.write(export_dot(report.graph))
    if as_json:
        _echo(report.to_json())
    else:
        for st in report.stages:
            mark = "pass" if st.ok else "FAIL"
            detail = " ".join(st.detail.split()) if st.detail else ""
            _echo(f"{st.name}: {mark}" + (f" ({detail})" if detail else ""))
        _echo(f"space {report.gamma}: "
              + ("PASS" if report.passed else "FAIL"))
    raise SystemExit(0 if report.passed else 1)


# -- upper ------------------------------------------------------------------


@main.group()
def upper() -> None:
    """Clause-catalogue replay of the upper bounds."""


def _mode_of(k_choice: str) -> str:
    return {"ramsey": "ramsey-K", "square": "square-K"}[k_choice]


@upper.command("replay")
@click.option("-n", "n", type=int, required=True)
@click.option("--k", "k_choice", type=click.Choice(["ramsey", "square"]),
              required=True, help="Which K the limit rows get.")
@click.option("--budget", type=int, default=10_000_000, show_default=True,
              help="Decision-node budget for the search.")
@click.option("--drop", "dropped", multiple=True, metavar="SCHEMA",
              help="Omit a clause schema (negative controls).")
@click.option("--table", "table_path", type=click.Path(exists=True),
              default=None)
@click.option("--json", "as_json", is_flag=True)
@_guarded
def cmd_upper_replay(n: int, k_choice: str, budget: int,
                     dropped: tuple[str, ...], table_path: Optional[str],
                     as_json: bool) -> None:
    """Decide the catalogue; UNSAT with a verified trace replays the bound."""
    rep = replay_theorem(n, _mode_of(k_choice), budget=budget, drop=dropped,
                         table=load_ramsey_table(table_path))
    if as_json:
        _echo(rep.to_json())
    else:
        _echo(f"n={rep.n} mode={rep.mode} K={rep.k} space={rep.gamma}")
        _echo(f"variables={rep.num_vars} clauses={rep.num_clauses}"
              + (f" dropped={','.join(rep.dropped)}" if rep.dropped else ""))
        if rep.status == "unsat":
            _echo(f"status=unsat nodes={rep.nodes} "
                  f"trace_steps={rep.trace_steps} "
                  f"trace_verified={rep.trace_verified} "
                  f"redundant={rep.redundant_status}")
        else:
            _echo(f"status=sat nodes={rep.nodes}; model tables follow")
            _echo(json.dumps(rep.model, indent=2))
    ok = (rep.status == "unsat" and rep.trace_verified
          and rep.redundant_status == "unsat")
    raise SystemExit(0 if ok else 1)


@upper.command("export")
@click.option("-n", "n", type=int, required=True)
@click.option("--k", "k_choice", type=click.Choice(["ramsey", "square"]),
              required=True)
@click.option("-o", "out_base", type=click.Path(), required=True,
              help="Output basename; writes BASE.cnf and BASE.json.")
@click.option("--table", "table_path", type=click.Path(exists=True),
              default=None)
@_guarded
def cmd_upper_export(n: int, k_choice: str, out_base: str,
                     table_path: Optional[str]) -> None:
    """Write the clause system as DIMACS CNF plus a variable/tag sidecar."""
    k, _ = resolve_k(n, _mode_of(k_choice),
                     table=load_ramsey_table(table_path))
    system = instantiate_clauses(n, k)
    with open(out_base + ".cnf", "w") as fh:
        fh.write(system.to_dimacs())
    with open(out_base + ".json", "w") as fh:
        fh.write(system.sidecar_json())
    _echo(f"wrote {out_base}.cnf ({len(system)} clauses, "
          f"{system.space.num_vars} variables) and {out_base}.json")


# -- ramsey -----------------------------------------------------------------


@main.group()
def ramsey() -> None:
    """Classical R(n,3) values and witness graphs."""


@ramsey.command("value")
@click.option("-n", "n", type=int, required=True)
@click.option("--table", "table_path", type=click.Path(exists=True),
              default=None)
@click.option("--json", "as_json", is_flag=True)
@_guarded
def cmd_ramsey_value(n: int, table_path: Optional[str],
                     as_json: bool) -> None:
    """Look up R(n,3) with its provenance."""
    entry = ramsey_value(n, load_ramsey_table(table_path))
    if as_json:
        _emit({"n": n, "value": entry.value, "source": entry.source})
    else:
        _echo(f"R({n},3) = {entry.value} ({entry.source})")


@ramsey.command("brute")
@click.option("-n", "n", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
@_guarded
def cmd_ramsey_brute(n: int, as_json: bool) -> None:
    """Compute R(n,3) exhaustively (n <= 4) with a verified witness."""
    rec = brute_force_ramsey(n)
    if as_json:
        _echo(witness_to_json(rec))
    else:
        _echo(f"R({n},3) = {rec.value}; extremal witness on "
              f"{rec.witness.order} vertices with "
              f"{len(rec.witness.edges)} edges")


@ramsey.command("verify")
@click.option("-n", "n", type=int, required=True)
@click.option("--witness", "witness_path", type=click.Path(exists=True),
              required=True)
@click.option("--json", "as_json", is_flag=True)
@_guarded
def cmd_ramsey_verify(n: int, witness_path: str, as_json: bool) -> None:
    """Check a witness file: triangle-free, no independent set of size n."""
    g = _load(witness_path, witness_from_json, "witness").witness
    rep = verify_witness(g, n)
    if as_json:
        _emit({"n": n, "order": g.order, "ok": rep.ok,
               "triangle": list(rep.triangle) if rep.triangle else None,
               "independent_set": (list(rep.independent_set)
                                   if rep.independent_set else None)})
    elif rep.ok:
        _echo(f"ok: order-{g.order} graph is triangle-free with no "
              f"independent set of size {n}")
    elif rep.triangle:
        _echo(f"FAIL: triangle at {rep.triangle}")
    else:
        _echo(f"FAIL: independent set {rep.independent_set}")
    raise SystemExit(0 if rep.ok else 1)


@ramsey.command("export")
@click.option("-n", "n", type=int, required=True)
@click.option("-o", "out_path", type=click.Path(), required=True)
@_guarded
def cmd_ramsey_export(n: int, out_path: str) -> None:
    """Write the builtin witness for R(n,3) as JSON."""
    rec = builtin_record(n)
    with open(out_path, "w") as fh:
        fh.write(witness_to_json(rec))
    _echo(f"wrote {out_path} (order {rec.witness.order}, "
          f"R({n},3) = {rec.value})")


# -- ordinal ----------------------------------------------------------------


@main.group()
def ordinal() -> None:
    """Ordinal expression utilities."""


@ordinal.command("eval")
@click.argument("expr")
@click.option("--json", "as_json", is_flag=True)
@_guarded
def cmd_ordinal_eval(expr: str, as_json: bool) -> None:
    """Normalize an ordinal expression (sums/products of w-powers)."""
    x = parse(expr)
    if as_json:
        kind = ("zero" if x.is_zero()
                else "limit" if x.is_limit() else "successor")
        _emit({"input": expr, "canonical": str(x),
               "cb_rank": x.cb_rank(), "kind": kind})
    else:
        _echo(str(x))


# -- coloring ---------------------------------------------------------------


@main.group()
def coloring() -> None:
    """Decision procedures on quotient colorings."""


@coloring.command("decide")
@click.argument("file", type=click.Path(exists=True))
@click.option("-n", "n", type=int, required=True,
              help="Red target is omega+n; blue target is a triple.")
@click.option("--json", "as_json", is_flag=True)
@_guarded
def cmd_coloring_decide(file: str, n: int, as_json: bool) -> None:
    """Search a coloring file for a blue triple or red closed omega+n."""
    c = _load(file, coloring_from_json, "coloring")
    red = decide_red_closed_omega_plus_n(c, n)  # refuses a large n unsearched
    blue = decide_blue_closed_3(c)
    if as_json:
        _emit({"gamma": str(c.gamma), "n": n,
               "blue_triple": certificate_doc(blue) if blue else None,
               "red_omega_plus_n": certificate_doc(red) if red else None})
    else:
        _echo("blue triple: "
              + (certificate_to_json(blue) if blue else "none"))
        _echo(f"red closed omega+{n}: "
              + (certificate_to_json(red) if red else "none"))
    raise SystemExit(1 if blue or red else 0)


@coloring.command("check")
@click.argument("file", type=click.Path(exists=True))
@click.option("--certificate", "cert_path", type=click.Path(exists=True),
              required=True)
@click.option("--json", "as_json", is_flag=True)
@_guarded
def cmd_coloring_check(file: str, cert_path: str, as_json: bool) -> None:
    """Re-verify a homogeneous-copy certificate against a coloring."""
    c = _load(file, coloring_from_json, "coloring")
    cert = _load(cert_path, certificate_from_json, "certificate")
    try:
        ok = check_certificate(c, cert)
    except SizeLimitError:
        raise  # well-formed, refused for its size: its own message says so
    except ValueError as exc:
        raise OrdinalError(f"bad certificate: {exc}")
    if as_json:
        _emit({"gamma": str(c.gamma), "kind": cert.kind, "ok": ok})
    else:
        _echo(("valid " if ok else "INVALID ") + cert.kind + " certificate")
    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":  # pragma: no cover
    main()
