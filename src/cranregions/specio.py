"""JSON spec files for the CLI.

A spec file is a JSON document:

    {
      "direction": "uplink" | "downlink",
      "K": 2, "L": 2,
      "alphabets": {"X": [...], "Y": [...], "Yhat": [...]}    (uplink)
                   {"U": [...], "X": [...], "Y": [...]}       (downlink)
      "input_pmfs": [[...], ...],          (uplink)
      "test_channels": [nested, ...],      (uplink)
      "aux_joint": nested,                 (downlink)
      "channel": nested
    }

Tensors are nested arrays with inputs outermost and outputs innermost
(the same axis order as the in-memory tensors).
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


def _tensor(doc: dict, field: str, per_entry: bool = False):
    """The field's nested numbers as one float array, or one array per entry."""
    value = _require(doc, field)
    try:
        if per_entry:
            return tuple(np.asarray(v, dtype=float) for v in value)
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise SpecFileError(f"field {field!r}: {e}") from e


def parse_spec(doc: dict):
    direction = _require(doc, "direction")
    if direction not in ("uplink", "downlink"):
        raise SpecFileError(f"field 'direction' must be 'uplink' or 'downlink', got {direction!r}")
    K = _require(doc, "K")
    L = _require(doc, "L")
    if not (isinstance(K, int) and isinstance(L, int) and K >= 1 and L >= 1):
        raise SpecFileError("fields 'K' and 'L' must be positive integers")
    alphabets = _require(doc, "alphabets")
    if not isinstance(alphabets, dict):
        raise SpecFileError("field 'alphabets' must be an object")
    try:
        if direction == "uplink":
            spec = UplinkSpec(K=K, L=L, input_pmfs=_tensor(doc, "input_pmfs", per_entry=True),
                              channel=_tensor(doc, "channel"),
                              test_channels=_tensor(doc, "test_channels", per_entry=True))
            groups = ("X", "Y", "Yhat")
            actual = (
                tuple(len(p) for p in spec.input_pmfs),
                spec.channel.shape[K:],
                spec.quantizer_sizes,
            )
        else:
            spec = DownlinkSpec(K=K, L=L, aux_joint=_tensor(doc, "aux_joint"),
                                channel=_tensor(doc, "channel"))
            groups = ("U", "X", "Y")
            actual = (
                spec.aux_joint.shape[:K],
                spec.aux_joint.shape[K:],
                spec.channel.shape[L:],
            )
    except LawError as e:
        raise SpecFileError(str(e)) from e
    except (TypeError, ValueError) as e:
        # a SpecFileError of _tensor or _require is a ValueError too
        raise SpecFileError(f"malformed tensor data: {e}") from e
    for name, group, a in zip(("first", "second", "third"), groups, actual):
        try:
            d = tuple(alphabets.get(group, ()))
        except TypeError as e:
            raise SpecFileError(f"field 'alphabets.{group}' must be a list of sizes") from e
        if d and d != tuple(a):
            raise SpecFileError(
                f"field 'alphabets' ({name} group) declares sizes {tuple(d)} "
                f"but tensors have sizes {tuple(a)}"
            )
    return spec


def spec_to_dict(spec) -> dict:
    if isinstance(spec, UplinkSpec):
        return {
            "direction": "uplink",
            "K": spec.K,
            "L": spec.L,
            "alphabets": {
                "X": [len(p) for p in spec.input_pmfs],
                "Y": list(spec.channel.shape[spec.K:]),
                "Yhat": list(spec.quantizer_sizes),
            },
            "input_pmfs": [p.tolist() for p in spec.input_pmfs],
            "channel": spec.channel.tolist(),
            "test_channels": [t.tolist() for t in spec.test_channels],
        }
    if isinstance(spec, DownlinkSpec):
        return {
            "direction": "downlink",
            "K": spec.K,
            "L": spec.L,
            "alphabets": {
                "U": list(spec.aux_joint.shape[: spec.K]),
                "X": list(spec.aux_joint.shape[spec.K:]),
                "Y": list(spec.channel.shape[spec.L:]),
            },
            "aux_joint": spec.aux_joint.tolist(),
            "channel": spec.channel.tolist(),
        }
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
