"""Shared parsing for compact CLI specs, with real error messages.

The CLI takes several mini-languages on the command line — ``FID:MINUTE``
coordinates for ``repro inspect`` queries and ``key=value,key=value``
bundles for ``--faults`` — and every flag used to hand-roll its own
parser. This module is the single implementation: helpful messages
(expected shape, the offending token, the known keys) and one error type.

:class:`SpecError` subclasses :class:`SystemExit`, so an unhandled parse
failure exits the CLI with the message on stderr (the historical
behaviour of ``repro inspect``), while library callers and tests can
still catch it like any exception.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from pathlib import Path

__all__ = [
    "ENGINES",
    "SpecError",
    "parse_choice_list",
    "parse_engine",
    "parse_fid_minute",
    "parse_float_list",
    "parse_kv_spec",
    "parse_optional_int",
    "parse_scoped_fid_minute",
    "resolve_paths",
]


class SpecError(SystemExit):
    """A malformed CLI spec. Exits the CLI; catchable by libraries."""


#: The engine vocabulary, in documentation order. Every surface that
#: takes an engine selector — ``repro simulate --engine``, the
#: :func:`repro.api.simulate` facade, ``ExperimentConfig``, the durable
#: sweep manifest, ``repro.serve`` sessions — shares this tuple, so the
#: spelling cannot drift between layers.
ENGINES = ("auto", "reference", "fleet")


def parse_engine(value: str, flag: str = "engine") -> str:
    """Validate and canonicalize an engine selector.

    Accepts any case, returns the lowercase canonical name. Raises
    :class:`ValueError` — not :class:`SpecError` — so it composes with
    argparse ``type=`` callables and with library-level config
    validation (``ExperimentConfig``) that promises ``ValueError`` on
    bad input; CLI surfaces get argparse's usage message for free.
    """
    if not isinstance(value, str):
        raise ValueError(
            f"{flag} must be a string, got {value!r}; "
            f"choose one of: {', '.join(ENGINES)}"
        )
    canonical = value.strip().lower()
    if canonical not in ENGINES:
        raise ValueError(
            f"unknown engine {value!r} for {flag}; "
            f"choose one of: {', '.join(ENGINES)}"
        )
    return canonical


def parse_fid_minute(spec: str, flag: str) -> tuple[int, int]:
    """Parse a ``FID:MINUTE`` coordinate (e.g. ``3:120``)."""
    fid_s, sep, minute_s = spec.partition(":")
    if not sep:
        raise SpecError(
            f"{flag} expects FID:MINUTE (e.g. 3:120), got {spec!r} — missing ':'"
        )
    try:
        return int(fid_s), int(minute_s)
    except ValueError:
        raise SpecError(
            f"{flag} expects FID:MINUTE with integer parts (e.g. 3:120), "
            f"got {spec!r}"
        ) from None


def parse_scoped_fid_minute(
    spec: str, flag: str
) -> tuple[int | None, int | None]:
    """Parse an optionally-scoped coordinate: ``''`` (everything),
    ``FID`` (one function) or ``FID:MINUTE`` (one cell).

    Used by the ``repro inspect`` scope flags (``--downgrades`` takes all
    three shapes); returns ``(fid, minute)`` with ``None`` for the
    unspecified parts.
    """
    spec = spec.strip()
    if not spec:
        return None, None
    if ":" in spec:
        return parse_fid_minute(spec, flag)
    try:
        return int(spec), None
    except ValueError:
        raise SpecError(
            f"{flag} expects FID or FID:MINUTE (e.g. 3 or 3:120), got {spec!r}"
        ) from None


def parse_optional_int(spec: str, flag: str) -> int | None:
    """Parse an optional integer scope (``''`` means unscoped)."""
    spec = spec.strip()
    if not spec:
        return None
    try:
        return int(spec)
    except ValueError:
        raise SpecError(
            f"{flag} expects an integer (or nothing), got {spec!r}"
        ) from None


def parse_choice_list(
    values: Iterable[str], flag: str, choices: Sequence[str]
) -> list[str]:
    """Normalize repeated/comma-separated choice flags against a fixed
    vocabulary (e.g. ``--rule RPR001 --rule rpr002,RPR005``).

    Matching is case-insensitive against upper-case ``choices``; the
    result is de-duplicated, original order preserved.
    """
    out: list[str] = []
    for value in values:
        for token in value.split(","):
            token = token.strip().upper()
            if not token:
                continue
            if token not in choices:
                raise SpecError(
                    f"{flag}: unknown choice {token!r} "
                    f"(known: {', '.join(choices)})"
                )
            if token not in out:
                out.append(token)
    if not out:
        raise SpecError(f"{flag} expects at least one choice, got none")
    return out


def resolve_paths(
    raw: Sequence[str], flag: str, default: Path | None = None
) -> list[Path]:
    """Turn CLI path operands into existing :class:`~pathlib.Path`\\ s.

    With no operands, returns ``[default]`` (the caller's notion of "the
    whole tree"). A nonexistent operand is a :class:`SpecError` — the
    historical behaviour was a bare traceback from deep inside the
    consumer.
    """
    if not raw:
        if default is None:
            raise SpecError(f"{flag} expects at least one path")
        return [default]
    out: list[Path] = []
    for token in raw:
        path = Path(token)
        if not path.exists():
            raise SpecError(f"{flag}: path {token!r} does not exist")
        out.append(path)
    return out


def parse_float_list(spec: str, flag: str) -> list[float]:
    """Parse a comma-separated list of floats (e.g. ``0,0.05,0.1``)."""
    out: list[float] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(float(token))
        except ValueError:
            raise SpecError(
                f"{flag} expects comma-separated numbers (e.g. 0,0.05,0.1), "
                f"got {token!r}"
            ) from None
    if not out:
        raise SpecError(f"{flag} expects at least one number, got {spec!r}")
    return out


def parse_kv_spec(
    spec: str,
    flag: str,
    fields: Mapping[str, tuple[str, Callable[[str], object]]],
) -> dict[str, object]:
    """Parse ``key=value,key=value`` against a schema.

    ``fields`` maps each accepted spec key to ``(attribute_name, cast)``;
    the returned dict is keyed by attribute name, ready to splat into a
    dataclass constructor. Unknown keys, missing ``=`` and uncastable
    values all raise :class:`SpecError` naming the known keys.
    """
    known = ", ".join(sorted(fields))
    out: dict[str, object] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep:
            raise SpecError(
                f"{flag} expects KEY=VALUE pairs, got {part!r} "
                f"(known keys: {known})"
            )
        if key not in fields:
            raise SpecError(
                f"{flag}: unknown key {key!r} (known keys: {known})"
            )
        attr, cast = fields[key]
        try:
            out[attr] = cast(raw)
        except (TypeError, ValueError):
            raise SpecError(
                f"{flag}: {key} expects a {cast.__name__} value, got {raw!r}"
            ) from None
    return out
