"""Strict config-file format: one dotted ``section.field = value`` per line.

Keys mirror the SystemConfig field paths exactly (``wire.resistance_warm``,
``load.v_rx``, ...). Values are plain ASCII SI numbers, ``true``/``false``
for booleans, or bare words for string fields; no unit suffixes, digit-group
underscores or non-ASCII digits. ``#`` starts a comment. Unknown keys are a
hard error so typos cannot silently fall back to defaults; ``parse_config``
checks each key, and the helpers below take only table keys. Each field's kind
is read from its dataclass annotation, through ``model._FIELD_KINDS``, the
table ``validate`` and the CLI sweep also read.
"""

from __future__ import annotations

from dataclasses import replace

from .model import _FIELD_KINDS, SystemConfig, default_config


class ConfigError(ValueError):
    """Malformed config text, an invalid value, or a key ``parse_config`` does not know."""


def _plain_number(text: str, convert=float):
    """``convert(text)``, for ``int`` or ``float``; a ``ValueError`` unless ``text`` is plain ASCII."""
    value = convert(text)
    if "_" in text or not text.isascii():  # int() and float() also take 1_000 and any Unicode digit
        raise ValueError("expected a plain ASCII number")
    return value


def coerce_value(path: str, raw: str):
    """Parse the textual value for ``path`` into its field type."""
    kind = _FIELD_KINDS[path]
    text = raw.strip()
    try:
        if kind == "a boolean":
            lowered = text.lower()
            if lowered == "true":
                return True
            if lowered == "false":
                return False
            raise ValueError(f"expected true or false, got {text!r}")
        if kind is None:
            return text
        return _plain_number(text, int if kind == "an integer" else float)
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid value {text!r} ({exc})") from exc


def set_value(config: SystemConfig, path: str, value) -> SystemConfig:
    """Return a config with the leaf at ``path`` replaced by ``value``."""
    section, leaf = path.split(".", 1)
    updated_section = replace(getattr(config, section), **{leaf: value})
    return replace(config, **{section: updated_section})


def get_value(config: SystemConfig, path: str):
    section, leaf = path.split(".", 1)
    return getattr(getattr(config, section), leaf)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: SystemConfig) -> str:
    """Render a config as parseable text, one dotted key per line."""
    lines = ["# cryopower system configuration (strict SI units)"]
    previous_section = None
    for path in _FIELD_KINDS:
        section = path.split(".", 1)[0]
        if section != previous_section:
            lines.append("")
            previous_section = section
        lines.append(f"{path} = {_format_value(get_value(config, path))}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> SystemConfig:
    """Parse config text; keys not present keep their default values.

    Raises :class:`ConfigError` on unknown keys, duplicate keys, missing
    ``=`` separators, or unparseable values.
    """
    config = default_config()
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, raw_value = line.split("=", 1)
        path = key.strip()
        if path in seen:
            raise ConfigError(f"line {lineno}: duplicate key {path!r}")
        seen.add(path)
        if path not in _FIELD_KINDS:
            raise ConfigError(f"line {lineno}: unknown configuration key: {path!r}")
        config = set_value(config, path, coerce_value(path, raw_value))
    return config
