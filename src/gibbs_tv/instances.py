"""Instance file schema: parse, validate, and canonically re-emit models.

One JSON document per model.  Infinite Ising fields are spelled as the
string tokens ``"inf"`` / ``"-inf"`` because numeric infinities are not
portable across JSON parsers.  Emission is canonical (sorted keys, sorted
edge lists, minimal separators), so parse -> emit -> parse is the identity
and document hashes are stable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Mapping, NoReturn, Optional, Sequence, Union

import numpy as np

from . import __version__
from .errors import InstanceFormatError
from .estimators import EstimateReport
from .graph import Graph
from .models import HardcoreModel, IsingModel, SpinSystem

FORMAT_VERSION = 1


def _fail(field: str, msg: str) -> NoReturn:
    raise InstanceFormatError(f"{field}: {msg}")


def _parse_field_value(field: str, value) -> float:
    if isinstance(value, str):
        token = value.strip().lower()
        if token in ("inf", "+inf"):
            return math.inf
        if token == "-inf":
            return -math.inf
        _fail(field, f"unknown token {value!r} (use a number, 'inf' or '-inf')")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(field, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        _fail(field, "integer too large for a double")
    if not math.isfinite(out):
        _fail(field, f"numeric value {value!r} is not finite "
                     "(infinite fields are the strings 'inf' and '-inf')")
    return out


def _check_label(field: str, label, index: Mapping[str, int]) -> None:
    if not isinstance(label, str):
        _fail(field, f"vertex labels are strings, got {label!r}")
    if label not in index:
        _fail(field, f"unknown vertex reference {label!r}")


def parse_instance(doc) -> SpinSystem:
    """Parse one instance document (JSON text, open stream, or mapping)."""
    if hasattr(doc, "read"):
        doc = doc.read()
    if isinstance(doc, str):
        try:
            data = json.loads(doc)
        except (ValueError, RecursionError) as e:  # past the digit or depth limits too
            raise InstanceFormatError(f"invalid JSON: {e}") from e
    else:
        data = doc
    if not isinstance(data, Mapping):
        _fail("document", "top level must be an object")
    if data.get("format") != FORMAT_VERSION:
        _fail("format", f"expected {FORMAT_VERSION}, got {data.get('format')!r}")
    kind = data.get("model")
    if kind not in ("hardcore", "ising"):
        _fail("model", f"expected 'hardcore' or 'ising', got {kind!r}")

    vertices = data.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        _fail("vertices", "must be a list of string labels")
    if len(set(vertices)) != len(vertices):
        _fail("vertices", "labels must be unique")
    index = {label: i for i, label in enumerate(vertices)}

    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        _fail("edges", "must be a list of label pairs")
    edges = []
    for i, e in enumerate(raw_edges):
        if not (isinstance(e, list) and len(e) == 2):
            _fail(f"edges[{i}]", "must be a pair of labels")
        for lbl in e:
            _check_label(f"edges[{i}]", lbl, index)
        if e[0] == e[1]:
            _fail(f"edges[{i}]", "self-loop")
        edges.append((index[e[0]], index[e[1]]))
    if len({tuple(sorted(e)) for e in edges}) != len(edges):
        _fail("edges", "parallel edge")
    graph = Graph(len(vertices), edges)

    if kind == "hardcore":
        lam_map = data.get("lambda")
        if not isinstance(lam_map, Mapping):
            _fail("lambda", "must be a map from vertex label to field value")
        lam = np.zeros(graph.n)
        for lbl, value in lam_map.items():
            if lbl not in index:
                _fail("lambda", f"unknown vertex reference {lbl!r}")
            val = _parse_field_value(f"lambda[{lbl}]", value)
            if not math.isfinite(val) or val < 0:
                _fail(f"lambda[{lbl}]", f"must be finite and >= 0, got {value!r}")
            lam[index[lbl]] = val
        missing = set(vertices) - set(lam_map)
        if missing:
            _fail("lambda", f"missing entries for {sorted(missing)}")
        return HardcoreModel(graph, lam)

    j_list = data.get("J", [])
    if not isinstance(j_list, list):
        _fail("J", "must be a list of [u, v, value] triples")
    couplings: dict[tuple[int, int], float] = {}
    for i, triple in enumerate(j_list):
        if not (isinstance(triple, list) and len(triple) == 3):
            _fail(f"J[{i}]", "must be a [u, v, value] triple")
        a, b, value = triple
        for lbl in (a, b):
            _check_label(f"J[{i}]", lbl, index)
        val = _parse_field_value(f"J[{i}]", value)
        if not math.isfinite(val):
            _fail(f"J[{i}]", "coupling must be finite")
        key = (min(index[a], index[b]), max(index[a], index[b]))
        if not graph.has_edge(*key):
            _fail(f"J[{i}]", f"({a},{b}) is not an edge")
        if key in couplings and couplings[key] != val:
            _fail(f"J[{i}]", f"asymmetric/conflicting coupling for ({a},{b})")
        couplings[key] = val
    h_map = data.get("h")
    if not isinstance(h_map, Mapping):
        _fail("h", "must be a map from vertex label to field value")
    h = np.zeros(graph.n)
    for lbl, value in h_map.items():
        if lbl not in index:
            _fail("h", f"unknown vertex reference {lbl!r}")
        h[index[lbl]] = _parse_field_value(f"h[{lbl}]", value)
    missing = set(vertices) - set(h_map)
    if missing:
        _fail("h", f"missing entries for {sorted(missing)}")
    return IsingModel(graph, couplings, h)


def load_instance(path: str) -> SpinSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InstanceFormatError(f"cannot read {path}: {e}") from e
    return parse_instance(text)


def _field_token(value: float) -> Union[float, str]:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def emit_instance(model: SpinSystem, labels: Optional[Sequence[str]] = None) -> str:
    """Canonical JSON serialization (labels default to '0'..'n-1')."""
    if labels is None:
        labels = [str(i) for i in range(model.n)]
    if len(labels) != model.n or len(set(labels)) != model.n:
        raise InstanceFormatError("labels must be unique and cover every vertex")
    doc: dict = {
        "format": FORMAT_VERSION,
        "model": model.kind,
        "vertices": list(labels),
        "edges": sorted(
            sorted([labels[u], labels[v]]) for u, v in model.graph.edges
        ),
    }
    if model.kind == "hardcore":
        doc["lambda"] = {labels[v]: float(model.lam[v]) for v in range(model.n)}
    else:
        doc["J"] = sorted(
            [*sorted([labels[u], labels[v]]), j]
            for (u, v), j in model.couplings.items()
        )
        doc["h"] = {labels[v]: _field_token(float(model.h[v])) for v in range(model.n)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def instance_hash(model: SpinSystem) -> str:
    """SHA-256 of the canonical serialization."""
    return hashlib.sha256(emit_instance(model).encode()).hexdigest()


@dataclass(kw_only=True)
class RunRecord(EstimateReport):
    """One estimator invocation: the report, its inputs, and everything to
    replay it."""

    mu_hash: str
    nu_hash: Optional[str]
    seed: Optional[int]
    config: dict
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [
            f"estimate      {self.estimate!r}",
            f"error kind    {self.error_kind} (epsilon {self.epsilon})",
            f"branch        {self.branch}",
        ]
        for name in ("d_par", "theta", "b", "c_tv_par"):
            value = getattr(self, name)
            if value is not None:
                lines.append(f"{name:<13} {value!r}")
        lines += [
            f"samples used  {self.samples_used}",
            f"counter calls {self.counter_calls}",
            f"elapsed       {self.elapsed:.3f}s",
            f"mu hash       {self.mu_hash}",
        ]
        if self.nu_hash is not None:
            lines.append(f"nu hash       {self.nu_hash}")
        lines.append(f"seed          {self.seed}")
        lines.append(f"version       {self.version}")
        return "\n".join(lines) + "\n"
