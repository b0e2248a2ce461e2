"""JSON spec files for the CLI.

A spec file is a JSON document:

    {
      "direction": "uplink" | "downlink",
      "K": 2, "L": 2,
      "alphabets": {"X": [...], "Y": [...], "Yhat": [...]}    (uplink)
                   {"U": [...], "X": [...], "Y": [...]}       (downlink)
      "input_pmfs": [[...], ...],          (uplink)
      "aux_joint": nested,                 (downlink)
      "channel": nested,
      "test_channels": [nested, ...]       (uplink)
    }

Tensors are nested arrays with inputs outermost and outputs innermost
(the same axis order as the in-memory tensors).  `_FORMATS` states the
format of each direction once, and `parse_spec` and `spec_to_dict` both
read it.  A declared alphabet group is optional; one that disagrees with
the tensors is refused as
`field 'alphabets.X' declares sizes (3,) but tensors have sizes (2,)`.
"""

from __future__ import annotations

import json

import numpy as np

from .prob import DownlinkSpec, LawError, UplinkSpec


class SpecFileError(ValueError):
    """Raised with a field-level diagnostic for a malformed spec file."""


def _require(doc: dict, field: str):
    if field not in doc:
        raise SpecFileError(f"missing field {field!r}")
    return doc[field]


def _tensor(doc: dict, field: str, per_entry: bool):
    """The field's nested numbers as one float array, or one array per entry."""
    value = _require(doc, field)
    try:
        if per_entry:
            return tuple(np.asarray(v, dtype=float) for v in value)
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise SpecFileError(f"field {field!r}: {e}") from e


# The spec document format of each direction: the spec class, its tensor fields
# in document order (each True for one array per entry, False for one array),
# and the alphabet sizes of each variable group of a built spec.
_FORMATS = {
    "uplink": (UplinkSpec, {"input_pmfs": True, "channel": False, "test_channels": True},
               {"X": lambda s: [len(p) for p in s.input_pmfs],
                "Y": lambda s: s.channel.shape[s.K:],
                "Yhat": lambda s: s.quantizer_sizes}),
    "downlink": (DownlinkSpec, {"aux_joint": False, "channel": False},
                 {"U": lambda s: s.aux_joint.shape[:s.K],
                  "X": lambda s: s.aux_joint.shape[s.K:],
                  "Y": lambda s: s.channel.shape[s.L:]}),
}


def parse_spec(doc: dict):
    direction = _require(doc, "direction")
    if direction not in ("uplink", "downlink"):  # compared, not hashed: any JSON value may come
        raise SpecFileError(f"field 'direction' must be 'uplink' or 'downlink', got {direction!r}")
    cls, tensors, groups = _FORMATS[direction]
    K = _require(doc, "K")
    L = _require(doc, "L")
    if not (type(K) is int and type(L) is int and K >= 1 and L >= 1):  # a bool is an int too
        raise SpecFileError("fields 'K' and 'L' must be positive integers")
    alphabets = _require(doc, "alphabets")
    if not isinstance(alphabets, dict):
        raise SpecFileError("field 'alphabets' must be an object")
    try:
        spec = cls(K=K, L=L, **{f: _tensor(doc, f, per_entry) for f, per_entry in tensors.items()})
    except LawError as e:
        raise SpecFileError(str(e)) from e
    except (TypeError, ValueError) as e:
        # a SpecFileError of _tensor or _require is a ValueError too
        raise SpecFileError(f"malformed tensor data: {e}") from e
    for group, sizes in groups.items():
        try:
            d = tuple(alphabets.get(group, ()))
        except TypeError as e:
            raise SpecFileError(f"field 'alphabets.{group}' must be a list of sizes") from e
        actual = tuple(sizes(spec))
        if d and d != actual:
            raise SpecFileError(
                f"field 'alphabets.{group}' declares sizes {d} but tensors have sizes {actual}"
            )
    return spec


def spec_to_dict(spec) -> dict:
    for direction, (cls, tensors, groups) in _FORMATS.items():
        if isinstance(spec, cls):
            doc = {"direction": direction, "K": spec.K, "L": spec.L,
                   "alphabets": {group: list(sizes(spec)) for group, sizes in groups.items()}}
            for f, per_entry in tensors.items():
                value = getattr(spec, f)
                doc[f] = [a.tolist() for a in value] if per_entry else value.tolist()
            return doc
    raise TypeError(f"not a spec: {type(spec)}")


def load_spec(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise SpecFileError(f"cannot read spec file: {e}") from e
    except json.JSONDecodeError as e:
        raise SpecFileError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise SpecFileError("spec file must contain a JSON object")
    return parse_spec(doc)


def save_spec(spec, path):
    with open(path, "w") as f:
        json.dump(spec_to_dict(spec), f, indent=2)
        f.write("\n")
