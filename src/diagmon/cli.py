"""Command-line front end.

Four commands: count (one exact number), table (rebuild a reference table),
verify (run the identity matrix), enumerate (list elements as text).  Exit
codes: 0 success, 1 verification failure, 2 usage or domain error, 3 the
feasibility cap refused a brute-force request.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, Iterable, Iterator

import click

from .core import MonoidFamily, format_diagram
from .counting import ROUTES, e_rank, e_total, exi_rank, exi_total
from .errors import DomainError, TooLargeError
from .idempotency import as_twist_order, is_idempotent_direct, is_twisted_idempotent
from .oracle import DEFAULT_CAP, brute_report, enumerate_elements
from .tables import render_table
from .verify import run_full, run_quick

MAX_TABLE_N = 12

_FAMILY = click.Choice([f.value for f in MonoidFamily])
_CAP = click.IntRange(min=0)
_METHOD = click.Choice([
    *dict.fromkeys(m for by_count in ROUTES.values() for routes in by_count.values() for m in routes),
    "bruteforce",
])


def _guarded(fn: Callable[..., None]) -> Callable[..., None]:
    @functools.wraps(fn)
    def wrapper(*args: object, **kwargs: object) -> None:
        try:
            fn(*args, **kwargs)
        except TooLargeError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except DomainError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write each chunk of text as it is made, to stdout or to the file
    named by --out, which is opened once."""
    if out is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    try:
        with open(out, "w") as stream:
            for chunk in chunks:
                stream.write(chunk)
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc.strerror or exc}") from None


@click.group()
@click.version_option(package_name="diagmon")
def main() -> None:
    """Exact idempotent counts in diagram monoids."""


@main.command("count")
@click.option("--family", type=_FAMILY, required=True, help="Monoid family.")
@click.option("--n", type=int, required=True, help="Number of strands.")
@click.option("--rank", type=int, default=None, help="Restrict to one rank.")
@click.option("--M", "m_order", type=int, default=None, help="Twist order (0 = no finite order).")
@click.option(
    "--method",
    type=_METHOD,
    default=None,
    help="Computation route; defaults to the cheapest for the query.",
)
@click.option("--cap", type=_CAP, default=DEFAULT_CAP, help="Brute-force feasibility cap.")
@_guarded
def cmd_count(
    family: str,
    n: int,
    rank: int | None,
    m_order: int | None,
    method: str | None,
    cap: int,
) -> None:
    """Print one exact count: idempotents, by rank, or twisted."""
    click.echo(_decimal(_count(MonoidFamily(family), n, rank, m_order, method, cap)))


def _decimal(x: int) -> str:
    """All the digits of x.  Interpreters that limit int-to-text conversion
    (to 4300 digits by default) have the limit lifted for this one call."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(x)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def _count(
    fam: MonoidFamily, n: int, rank: int | None, m_order: int | None, method: str | None, cap: int
) -> int:
    if method == "bruteforce":
        if rank is not None and not 0 <= rank <= n:
            raise DomainError(f"rank needs 0 <= r <= n, got n={n} r={rank}")
        report = brute_report(fam, n, M=m_order, cap=cap)
        if m_order is not None:
            if rank is not None:
                return report.twisted_by_rank.get(rank, 0)
            return report.twisted_total
        if rank is not None:
            return report.idempotents_by_rank.get(rank, 0)
        return report.idempotents_total
    if m_order is not None:
        if rank is not None:
            return exi_rank(fam, n, rank, m_order, method)
        return exi_total(fam, n, m_order, method)
    if rank is not None:
        return e_rank(fam, n, rank, method)
    return e_total(fam, n, method)


@main.command("table")
@click.option("--which", required=True, help="Table id, 1 through 10.")
@click.option("--max-n", type=int, default=10, show_default=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json", "markdown"]),
    default="markdown",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write here instead of stdout.")
@_guarded
def cmd_table(which: str, max_n: int, fmt: str, out: str | None) -> None:
    """Rebuild one of the ten reference tables."""
    if max_n > MAX_TABLE_N:
        raise DomainError(f"max-n is limited to {MAX_TABLE_N}, got {max_n}")
    _emit([render_table(which, max_n, fmt)], out)


@main.command("verify")
@click.option(
    "--profile",
    type=click.Choice(["quick", "full"]),
    default="quick",
    show_default=True,
)
@_guarded
def cmd_verify(profile: str) -> None:
    """Run the verification matrix; exit 1 on any mismatch."""
    report = run_quick() if profile == "quick" else run_full()
    click.echo(report.render())
    if not report.ok:
        sys.exit(1)


@main.command("enumerate")
@click.option("--family", type=_FAMILY, required=True)
@click.option("--n", type=int, required=True)
@click.option(
    "--filter",
    "keep",
    type=click.Choice(["all", "idempotent", "twisted"]),
    default="all",
    show_default=True,
)
@click.option("--M", "m_order", type=int, default=None, help="Twist order for --filter twisted.")
@click.option("--cap", type=_CAP, default=DEFAULT_CAP)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def cmd_enumerate(
    family: str,
    n: int,
    keep: str,
    m_order: int | None,
    cap: int,
    out: str | None,
) -> None:
    """List elements, one diagram per line, with a count trailer."""
    fam = MonoidFamily(family)
    order = as_twist_order(0 if m_order is None else m_order)
    kept = {
        "all": lambda a: True,
        "idempotent": is_idempotent_direct,
        "twisted": lambda a: is_twisted_idempotent(a, order),
    }[keep]
    elements = enumerate_elements(fam, n, cap)  # refuses an over-cap stream before any output

    def listing() -> Iterator[str]:
        count = 0
        for a in elements:
            if kept(a):
                count += 1
                yield format_diagram(a) + "\n"
        yield f"# count: {count}\n"

    _emit(listing(), out)


if __name__ == "__main__":
    main()
