"""YAML run configuration: load files, parse dotted overrides, apply each
source to the typed config objects, and echo the fully resolved result into
a run directory; plus the one way a run writes a file (whole, or not at
all) and the one number format of every CSV it writes.

The YAML layout mirrors the config dataclasses (nested sections for the
scenario, asteroid ranges, sensor, and update hyperparameters), so any
config field can be pinned in a file or overridden on the command line as
`section.key=value`. :func:`apply_to_dataclass` is the one way a value
reaches a config object: a run applies its sources in turn, later ones
winning, and checks every value of each, so a wrongly typed value in a file
is refused even where an override sets the same key. The paper's reward,
limits and sensor-noise model are module constants, not config fields.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import numbers
import os
import sys
import typing

from . import __version__
from .errors import ConfigurationError


def load_config_file(path: str) -> dict:
    import yaml

    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse config file {path}: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must hold a mapping")
    return data


def parse_overrides(pairs: list[str]) -> dict:
    """KEY=VALUE strings (dotted keys) to a nested dict; YAML-typed values."""
    import yaml

    items = []
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"override {pair!r} is not KEY=VALUE")
        try:
            items.append((key, yaml.safe_load(raw) if raw else ""))
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"override {pair!r}: {exc}") from exc
    return nest_dotted(items)


def nest_dotted(items) -> dict:
    """(dotted key, value) pairs to a nested dict: ("a.b", 1) -> {"a": {"b": 1}}."""
    out: dict = {}
    for key, value in items:
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigurationError(f"override {key!r} conflicts with {part}")
        node[parts[-1]] = value
    return out


def _fits(value, annotation) -> bool:
    """Whether a YAML scalar may go into a field annotated ``annotation``
    (a class or a union such as ``str | None``): bools only into bool
    fields, ints into int and float fields, and into float fields only
    finite values (no nan, no infinity, no int beyond the float range)."""
    allowed = typing.get_args(annotation) or (annotation,)
    if isinstance(value, bool):
        return bool in allowed
    if float in allowed and isinstance(value, (int, float)):
        return abs(value) <= sys.float_info.max
    return isinstance(value, allowed)


def apply_to_dataclass(obj, data: dict, path: str = "") -> None:
    """Set config fields from a nested dict; unknown keys and values of the
    wrong type are errors."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"config section {path or '<root>'} must be a mapping")
    hints = typing.get_type_hints(type(obj))
    names = {f.name for f in dataclasses.fields(obj)}
    for key, value in data.items():
        if key not in names:
            raise ConfigurationError(f"unknown config key {path}{key}")
        current = getattr(obj, key)
        if dataclasses.is_dataclass(current) and not isinstance(current, type):
            apply_to_dataclass(current, value, f"{path}{key}.")
        elif isinstance(value, dict):
            raise ConfigurationError(f"config key {path}{key} is not a section")
        elif not _fits(value, hints[key]):
            expected = getattr(hints[key], "__name__", str(hints[key]))
            raise ConfigurationError(
                f"config key {path}{key} must be {expected}, got {value!r}"
            )
        else:
            setattr(obj, key, value)


def csv_field(value) -> str:
    """One CSV field of a run's output files: integers in full, other
    numbers to 17 significant digits (they read back bit-exactly), and
    anything else as ``str`` gives it."""
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return format(float(value), ".17g")
    return str(value)


@contextlib.contextmanager
def replacing(path: str, mode: str = "w", **kwargs):
    """Open ``path + ".tmp"`` (`mode` "w" or "wb", `kwargs` as for ``open``,
    its directory made if need be) to be written; on success sync it and
    rename it over `path`, on any exception remove it. So `path` holds its
    old bytes or all of the new ones, never a file cut short by a kill."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    """Write a CSV file through :func:`replacing`: the `header` row (none
    when empty), then `rows` with every field as :func:`csv_field` gives it."""
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows([csv_field(v) for v in row] for row in rows)


def write_resolved_config(out_dir: str, command: str, cfg) -> str:
    """Echo the effective configuration and code version for reproducibility."""
    import yaml

    path = os.path.join(out_dir, "resolved_config.yaml")
    with replacing(path) as fh:
        yaml.safe_dump(
            {
                "command": command,
                "version": __version__,
                "config": dataclasses.asdict(cfg) if dataclasses.is_dataclass(cfg) else cfg,
            },
            fh, sort_keys=True,
        )
    return path
