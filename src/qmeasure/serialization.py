"""JSON document formats.

Complex numbers serialize as [re, im] pairs, events as sorted history
index arrays, matrices as nested lists.  A document field that expects a
sub-document also accepts a string, read as a path relative to the
referencing file.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np

from ._linalg import Tolerance
from .causal_order import CausalOrder
from .decoherence import DecoherenceFunctional
from .histories import Event, HistorySpace
from .patching import (
    OPERATOR_ORDER,
    CorrelationTable,
    JointDcf,
    SettingScenario,
    SettingTheory,
)
from .scenarios import EprbConfig
from .sk_model import SkCircuitConfig, SkGate, gen_sk_circuit

SETTING_NAMES = {"ab": (0, 0), "ab'": (0, 1), "a'b": (1, 0), "a'b'": (1, 1)}
SETTING_LABELS = {v: k for k, v in SETTING_NAMES.items()}
EPRB_CONFIG_KEYS = {"angles", "flip_b", "resolution_basis", "initial_state"}

SCHEMAS = {
    "historyspace": {
        "points": ["string"],
        "alphabets": {"<point>": "int"},
        "histories": [["int"]],
        "labels": ["string (optional)"],
    },
    "order": {"points": ["string"], "covers": [["string", "string"]]},
    "dcf": {
        "space": "historyspace | path",
        "matrix": "[[ [re, im], ... ]] (dense mode)",
        "skmodel": "skmodel | path (lazy mode, instead of matrix)",
    },
    "skmodel": {
        "L": "int sites",
        "T": "int gate layers",
        "q": "int qudit dimension",
        "psi": "[[re, im], ...] per first-slice configuration "
               "(or a list of such rows for a mixed state)",
        "gates": [{"t": "layer", "sites": ["int"], "u": "[[ [re, im], ... ]]"}],
        "t_f": "int truncation slice (optional, default T)",
        "regions": {"<site>,<t>": "Z|A|B|-"},
    },
    "scenario": {
        "z": ["point"],
        "a": ["point"],
        "b": ["point"],
        "theories": {
            "<ab|ab'|a'b|a'b'>": {
                "order": "order | path",
                "dcf": "dcf | path",
                "beam_a": "[[history index, ...] per outcome]",
                "beam_b": "[[history index, ...] per outcome]",
            }
        },
    },
    "model": {"dcf": "dcf | path", "order": "order | path"},
    "table": {"<ab|ab'|a'b|a'b'>": "[[probability, ...], ...]"},
    "beamdcfs": {
        "<ab|ab'|a'b|a'b'>": {
            "slots": "[na, nb]",
            "matrix": "[[ [re, im], ... ]] over flattened (i, j)",
        }
    },
    "jointdcf": {
        "slots": "[na, na, nb, nb, nk]",
        "ordering": ["a|ap|b|bp"],
        "matrix": "[[ [re, im], ... ]] over flattened slots",
    },
    "eprbconfig": {
        "angles": "[a, a', b, b'] radians (optional)",
        "flip_b": "bool (optional)",
        "resolution_basis": "4x4 [[ [re, im], ... ]] (optional)",
        "initial_state": "[[re, im], ...] four components (optional)",
    },
}


def complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(m: np.ndarray) -> list:
    return [[complex_to_json(z) for z in row] for row in np.asarray(m)]


def matrix_from_json(rows) -> np.ndarray:
    """A complex matrix from rows of [re, im] pairs; refuses ragged or
    malformed rows and non-finite entries."""
    try:
        pairs = np.array(rows)
    except ValueError:  # ragged rows
        pairs = np.array(None)
    if pairs.ndim >= 1 and pairs.size == 0:
        return np.zeros((len(pairs), 0), dtype=complex)
    if pairs.dtype.kind not in "biuf" or pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError("a matrix must be rows of [re, im] number pairs")
    pairs = pairs.astype(float)
    if not np.isfinite(pairs).all():
        raise ValueError("matrix has a non-finite entry")
    return pairs.view(complex)[..., 0]


def _resolve(doc, base_dir: str):
    if isinstance(doc, str):
        path = os.path.join(base_dir, doc)
        with open(path) as fh:
            return json.load(fh), os.path.dirname(path)
    return doc, base_dir


# -- history spaces ----------------------------------------------------------

def space_to_json(space: HistorySpace) -> dict:
    doc = {
        "points": list(space.points),
        "alphabets": {p: int(space.alphabets[p]) for p in space.points},
        "histories": space.value_matrix.tolist(),
    }
    if space.labels is not None:
        doc["labels"] = list(space.labels)
    return doc


def space_from_json(doc: dict) -> HistorySpace:
    return HistorySpace(
        points=_names(doc["points"], "points"),
        histories=doc["histories"],
        labels=_names(doc["labels"], "labels") if "labels" in doc else None,
        alphabets=doc.get("alphabets"),
    )


def event_to_json(event: Event) -> list[int]:
    return sorted(event.indices())


def event_from_json(space: HistorySpace, indices) -> Event:
    return space.event_from_indices(int(i) for i in indices)


# -- causal orders -----------------------------------------------------------

def order_to_json(order: CausalOrder) -> dict:
    n = order.size
    strict = order.leq & ~np.eye(n, dtype=bool)
    covers = []
    for i in range(n):
        for j in range(n):
            if strict[i, j] and not (strict[i] & strict[:, j]).any():
                covers.append([order.points[i], order.points[j]])
    return {"points": list(order.points), "covers": covers}


def order_from_json(doc: dict) -> CausalOrder:
    return CausalOrder.from_covers(
        _names(doc["points"], "points"), [_names(c, "each cover", 2) for c in doc["covers"]]
    )


# -- decoherence functionals --------------------------------------------------

def dcf_to_json(dcf: DecoherenceFunctional) -> dict:
    if not dcf.is_dense:
        raise ValueError("only dense functionals serialize directly; "
                         "lazy models serialize as skmodel documents")
    return {"space": space_to_json(dcf.space), "matrix": matrix_to_json(dcf.matrix)}


def dcf_from_json(doc: dict, base_dir: str = ".", tol=Tolerance()) -> DecoherenceFunctional:
    if "skmodel" in doc:
        sub, _ = _resolve(doc["skmodel"], base_dir)
        return gen_sk_circuit(sk_config_from_json(sub), tol).dcf
    space_doc, _ = _resolve(doc["space"], base_dir)
    return DecoherenceFunctional(
        space_from_json(space_doc), matrix=matrix_from_json(doc["matrix"]), tol=tol
    )


# -- circuit models -----------------------------------------------------------

def sk_config_to_json(cfg: SkCircuitConfig) -> dict:
    psi = cfg.psi
    psi_json = [[complex_to_json(z) for z in row] for row in psi]
    if cfg.mixed_rank == 1:
        psi_json = psi_json[0]
    doc = {
        "L": cfg.sites,
        "T": cfg.steps,
        "q": cfg.q,
        "psi": psi_json,
        "gates": [
            {"t": g.layer, "sites": list(g.sites), "u": matrix_to_json(g.matrix)}
            for g in cfg.gates
        ],
        "t_f": cfg.t_f,
    }
    if cfg.regions is not None:
        doc["regions"] = dict(cfg.regions)
    return doc


def sk_config_from_json(doc: dict) -> SkCircuitConfig:
    psi = doc.get("psi")
    if psi is not None:  # one branch of [re, im] pairs, or rows of them (mixed)
        psi = matrix_from_json(psi if np.array(psi, dtype=object).ndim == 3 else [psi])
    gates = tuple(
        SkGate(int(g["t"]), tuple(int(s) for s in g["sites"]), matrix_from_json(g["u"]))
        for g in doc.get("gates", [])
    )
    return SkCircuitConfig(
        sites=int(doc["L"]),
        steps=int(doc["T"]),
        q=int(doc.get("q", 2)),
        psi=psi,
        gates=gates,
        t_f=doc.get("t_f"),
        regions=doc.get("regions"),
    )


# -- scenarios ----------------------------------------------------------------

def scenario_to_json(scenario: SettingScenario) -> dict:
    theories = {}
    for key, t in scenario.theories.items():
        theories[SETTING_LABELS[key]] = {
            "order": order_to_json(t.order),
            "dcf": dcf_to_json(t.dcf),
            "beam_a": [event_to_json(e) for e in t.beam_a],
            "beam_b": [event_to_json(e) for e in t.beam_b],
        }
    return {
        "z": list(scenario.z_points),
        "a": list(scenario.a_points),
        "b": list(scenario.b_points),
        "theories": theories,
    }


def scenario_from_json(doc: dict, base_dir: str = ".", tol=Tolerance()) -> SettingScenario:
    theories, orders = {}, {}  # orders: equal order documents share one CausalOrder
    for name, key in SETTING_NAMES.items():
        if name not in doc["theories"]:
            continue  # SettingScenario names the settings missing
        tdoc, tdir = _resolve(doc["theories"][name], base_dir)
        order_doc, _ = _resolve(tdoc["order"], tdir)
        dcf = dcf_from_json(_resolve(tdoc["dcf"], tdir)[0], tdir, tol)
        text = json.dumps(order_doc, sort_keys=True)
        orders[text] = orders.get(text) or order_from_json(order_doc)
        theories[key] = SettingTheory(
            space=dcf.space,
            order=orders[text],
            dcf=dcf,
            beam_a=tuple(event_from_json(dcf.space, e) for e in tdoc["beam_a"]),
            beam_b=tuple(event_from_json(dcf.space, e) for e in tdoc["beam_b"]),
        )
    return SettingScenario(theories, *(_names(doc[k], k) for k in "zab"))


def eprb_config_from_json(doc: dict) -> EprbConfig:
    """A spin-pair configuration; absent keys keep their defaults."""
    kwargs = {}
    if "angles" in doc:
        kwargs["angles"] = tuple(float(a) for a in doc["angles"])
    if "flip_b" in doc:
        kwargs["flip_b"] = bool(doc["flip_b"])
    if "resolution_basis" in doc:
        kwargs["resolution_basis"] = matrix_from_json(doc["resolution_basis"])
    if "initial_state" in doc:
        kwargs["initial_state"] = matrix_from_json([doc["initial_state"]])[0]
    return EprbConfig(**kwargs)


# -- tables and joints ---------------------------------------------------------

def table_to_json(table: CorrelationTable) -> dict:
    return {
        SETTING_LABELS[k]: [[float(x) for x in row] for row in v]
        for k, v in table.tables.items()
    }


def table_from_json(doc: dict) -> CorrelationTable:
    return CorrelationTable(
        {SETTING_NAMES[name]: np.array(doc[name], dtype=float) for name in doc}
    )


def joint_dcf_to_json(jdcf: JointDcf) -> dict:
    slots = list(jdcf.values.shape[:5])
    return {
        "slots": slots,
        "ordering": list(jdcf.ordering),
        "matrix": matrix_to_json(jdcf.flat()),
    }


def _listed(value, count: int | None, item, refusal: str, error=ValueError) -> tuple:
    """A JSON list of `count` items (any number if None) that pass `item`."""
    if not (isinstance(value, list) and count in (None, len(value)) and all(map(item, value))):
        raise error(f"{refusal}, got {value!r}")
    return tuple(value)


def _slots(value, count: int, owner: str) -> tuple[int, ...]:
    """Outcome counts: a list of `count` positive integers."""
    refusal = f"{owner}: slots must be {count} positive integers"
    return _listed(value, count, lambda s: type(s) is int and s > 0, refusal)


def _names(value, key: str, count: int | None = None) -> tuple[str, ...]:
    """Point or label names: a list of strings, `count` of them where given."""
    refusal = f"{key} must be a list of {count or 'string'} names"
    return _listed(value, count, lambda v: isinstance(v, str), refusal, TypeError)


def joint_dcf_from_json(doc: dict) -> JointDcf:
    slots = _slots(doc["slots"], 5, "joint functional")
    flat = matrix_from_json(doc["matrix"])
    return JointDcf(flat.reshape(slots + slots), doc.get("ordering") or OPERATOR_ORDER)


def beam_dcfs_to_json(beam: dict) -> dict:
    out = {}
    for k, v in beam.items():
        arr = np.asarray(v)
        na, nb = arr.shape[0], arr.shape[1]
        out[SETTING_LABELS[k]] = {
            "slots": [na, nb],
            "matrix": matrix_to_json(arr.reshape(na * nb, na * nb)),
        }
    return out


def beam_dcfs_from_json(doc: dict) -> dict:
    """Beam functionals keyed by setting.  Each entry's `slots` must be two
    positive integers (na, nb), shared by all four settings, and its
    matrix square of size na * nb."""
    out = {}
    for name, key in SETTING_NAMES.items():
        entry = doc[name]
        na, nb = _slots(entry["slots"], 2, name)
        m = matrix_from_json(entry["matrix"])
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"{name}: matrix is not square")
        if m.shape[0] != na * nb:
            raise ValueError(
                f"{name}: a {m.shape[0]} x {m.shape[0]} matrix does not fit "
                f"slots [{na}, {nb}]"
            )
        out[key] = m.reshape(na, nb, na, nb)
    if len({v.shape for v in out.values()}) > 1:
        raise ValueError("the four settings must share one outcome shape")
    return out


# -- inputs -------------------------------------------------------------------

def read_input(path: str, tol: Tolerance = Tolerance()) -> tuple[str, Any]:
    """The document at `path` as (kind, parsed object), the kind a key of
    SCHEMAS and every functional built at `tol`.  A directory stands for its
    scenario.json, or else its dcf.json and order.json.  The first rule
    below to match a document's keys names its kind; a model is (dcf, order)."""
    if os.path.isfile(os.path.join(path, "scenario.json")):
        path = os.path.join(path, "scenario.json")
    if os.path.isdir(path):
        doc, base = {"dcf": "dcf.json", "order": "order.json"}, path
    else:
        doc, base = load_json(path), os.path.dirname(path)
    if "theories" in doc:
        return "scenario", scenario_from_json(doc, base, tol)
    if "dcf" in doc and "order" in doc:
        dcf = dcf_from_json(*_resolve(doc["dcf"], base), tol)
        return "model", (dcf, order_from_json(_resolve(doc["order"], base)[0]))
    if "L" in doc and "T" in doc:
        return "skmodel", sk_config_from_json(doc)
    if "matrix" in doc and "slots" in doc:
        return "jointdcf", joint_dcf_from_json(doc)
    if "matrix" in doc or "skmodel" in doc:
        return "dcf", dcf_from_json(doc, base, tol)
    if all(name in doc for name in SETTING_NAMES):
        functionals = [isinstance(doc[name], dict) for name in SETTING_NAMES]
        if all(functionals):
            return "beamdcfs", beam_dcfs_from_json(doc)
        if any(functionals):
            raise ValueError(f"{path} mixes beam functionals and probability tables")
        return "table", table_from_json(doc)
    if "points" in doc and "covers" in doc:
        return "order", order_from_json(doc)
    if "histories" in doc:
        return "historyspace", space_from_json(doc)
    if set(doc) <= EPRB_CONFIG_KEYS:
        return "eprbconfig", eprb_config_from_json(doc)
    raise ValueError(f"cannot interpret {path}: no document kind has the keys {sorted(doc)}")


def dumps(doc: Any) -> str:
    """The one output serializer: strict JSON, so a non-finite number is
    refused with ValueError rather than written as NaN or Infinity."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def dump_json(doc: Any, path: str) -> None:
    text = dumps(doc)  # before the open: a refused document leaves no file
    with open(path, "w") as fh:
        fh.write(text)


def load_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)
