"""JSON round-trips for the public value types."""

from __future__ import annotations

from .algebra import FiniteAlgebra
from .cantor import Clopen, PointContext, _words
from .errors import NotBijective, OverlappingDomains
from .fraisse import PowerEmbedding
from .homeo import EPHomeo, TailPiece
from .power import PowerContext, PowerElement


def clopen_to_obj(b: Clopen):
    return list(b.words)


def clopen_from_obj(obj) -> Clopen:
    return Clopen.make(obj)


def homeo_to_obj(h: EPHomeo):
    return {
        "pairs": [[p, q] for p, q in h.pairs],
        "tails": [
            {
                "branch": p.branch,
                "target": p.target,
                "modulus": p.step,
                "affine": [p.first, p.ifirst, p.istep],
                "cellmaps": [[u, v] for u, v in p.cellmap.pairs],
            }
            for p in h.pieces
        ],
    }


def homeo_from_obj(ctx: PointContext, obj) -> EPHomeo:
    """The homeomorphism the object describes; pairs, pieces or a cell map
    that make no bijection are a ValueError, as bad data."""
    pieces = []
    try:
        for t in obj["tails"]:
            first, ifirst, istep = t["affine"]
            cellmap = EPHomeo.make(PointContext(0), t["cellmaps"], ())
            pieces.append(
                TailPiece(t["branch"], first, t["modulus"], t["target"], ifirst, istep, cellmap)
            )
        return EPHomeo.make(ctx, [tuple(p) for p in obj["pairs"]], pieces)
    except (OverlappingDomains, NotBijective) as e:
        raise ValueError(f"{type(e).__name__}: {e}") from e


def element_to_obj(f: PowerElement):
    return {"cells": [{"prefix": w, "label": a} for w, a in _words(f.tree, "", [])]}


def element_from_obj(ctx: PowerContext, obj) -> PowerElement:
    return PowerElement.make(
        ctx, [(c["prefix"], c["label"]) for c in obj["cells"]]
    )


def embedding_to_obj(e: PowerEmbedding):
    coords = []
    for c in e.coords:
        if c[0] == "aut":
            coords.append({"aut": list(c[1]), "src": c[2]})
        else:
            coords.append({"idem": c[1]})
    return {"u": e.u, "v": e.v, "coords": coords}


def embedding_from_obj(algebra: FiniteAlgebra, obj) -> PowerEmbedding:
    coords = []
    for c in obj["coords"]:
        if "idem" in c:
            coords.append(("idem", c["idem"]))
        else:
            coords.append(("aut", tuple(c["aut"]), c["src"]))
    return PowerEmbedding.make(algebra, obj["u"], coords)
