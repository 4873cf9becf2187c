"""The three workloads: which instances each one solves, and why.

Each workload is a fixed recipe of instance shapes; the run seed only
draws the numbers. Uncertain-q enumeration costs 2^(n-h) supports
whatever the numbers, so that ladder is generated from the seed
directly. Every other shape costs what its numbers make it cost (Lemke
and simplex iterations, B&B nodes, supports that reach the box
conditions), so those instances are drawn from pools recorded in
reference.json (see record_pool.py): per class, the run seed samples
among the candidates whose recorded verdict is the class's verdict and
whose recorded work (simplex and Lemke iterations) lies within
WORK_BAND of the class median; shapes without LP work use the recorded
solve time and TIME_BAND instead.
Every seed then does about the same work, which keeps seed-to-seed
spread small, and every drawn instance has a recorded verdict to check.
"""

from __future__ import annotations

import json
import os
import statistics
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

import builder

REFERENCE = Path(__file__).with_name("reference.json")

WHY = {
    "enumeration": ("uncertain-q ladder n=6..13 (h=0..3) plus uncertain-m "
                    "n=8..10: support enumeration and small-block inversion; "
                    "lp, mip and lcp stay idle here"),
    "psd-lp": ("PSD uncertain-q n=6..10 plus PSD markets: Lemke, the "
               "support-P and uniqueness LP sweeps, is_psd and one large "
               "phase-1 LP; no B&B, no enumeration"),
    "mip": ("general-regime markets decided by big-M branch and bound: "
            "hundreds of cold phase-1 LPs under changing binary bounds; "
            "fixed-producer ones climb all 21 rungs"),
}

# (n, h, planted) of the uncertain-q ladder. Enumeration work is 2^(n-h)
# supports, so the ladder is built from clusters of equal n - h: the
# median of the solve times falls in the n - h = 9 cluster and the tail
# near the n - h = 10 one, whatever the seed.
_ENUM_Q = [(n, h, plant) for plant in (True, False)
           for n, h in ((6, 0), (6, 2), (7, 0), (7, 2), (8, 0),
                        (9, 0), (10, 1), (11, 2), (12, 3),
                        (10, 0), (11, 1), (12, 2))] + [(12, 0, True), (13, 2, True)]


class PoolClass(NamedTuple):
    """One pooled instance shape and what a run draws from it.

    kind: uncertain-m (shape n, k), psd-q (shape n), psd-market or
    mip-market (shape producers, markets, fixed producers).
    """

    kind: str
    shape: tuple
    planted: bool
    verdict: str | None  # recorded verdict a member must have (None: any)
    count: int  # members per run


_M = "uncertain-m"
POOLS = {
    "enumeration": {
        "m-n8-k1-planted": PoolClass(_M, (8, 1), True, "solution", 1),
        "m-n8-k2-random": PoolClass(_M, (8, 2), False, None, 1),
        "m-n9-k1-random": PoolClass(_M, (9, 1), False, None, 1),
        "m-n9-k2-planted": PoolClass(_M, (9, 2), True, "solution", 1),
        "m-n10-k1-planted": PoolClass(_M, (10, 1), True, "solution", 1),
        "m-n10-k1-random": PoolClass(_M, (10, 1), False, None, 1),
    },
    # eight n=7 instances hold the median and the tail of the solve times
    "psd-lp": {
        "psd-n6-planted": PoolClass("psd-q", (6,), True, "solution", 2),
        "psd-n6-random": PoolClass("psd-q", (6,), False, None, 2),
        "psd-n7-planted": PoolClass("psd-q", (7,), True, "solution", 4),
        "psd-n7-random": PoolClass("psd-q", (7,), False, None, 4),
        "psd-n8-planted": PoolClass("psd-q", (8,), True, "solution", 2),
        "psd-n8-random": PoolClass("psd-q", (8,), False, None, 2),
        "psd-n9-planted": PoolClass("psd-q", (9,), True, "solution", 2),
        "psd-n9-random": PoolClass("psd-q", (9,), False, None, 1),
        "psd-n10-planted": PoolClass("psd-q", (10,), True, "solution", 1),
        "market-p3-k2": PoolClass("psd-market", (3, 2, 0), False, None, 4),
        "market-p6-k3": PoolClass("psd-market", (6, 3, 0), False, None, 4),
    },
    # sorted by cost, the classes put the median of the solve times in
    # the p1k2 band and the tail in the p2k2 band
    "mip": {
        "mip-p2k1": PoolClass("mip-market", (2, 1, 0), False, "solution", 10),
        "mip-p1k2": PoolClass("mip-market", (1, 2, 0), False, "solution", 8),
        "mip-p2k2": PoolClass("mip-market", (2, 2, 0), False, "solution", 8),
        "mip-p1k1-fixed": PoolClass("mip-market", (1, 1, 1), False,
                                    "no-solution", 4),
    },
}
POOL_SEED = 0
POOL_SIZE = 32
# members lie within this share of their class's median recorded work
# (or, for shapes without LP work, recorded time)
WORK_BAND = 0.15
TIME_BAND = 0.25

# psd-lp instances up to this size are cross-checked against enumeration
CROSS_CHECK_MAX_N = 8


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def save_reference(ref: dict) -> None:
    """Replace reference.json in one step, so a concurrent reader never
    sees half a file."""
    tmp = REFERENCE.with_suffix(".tmp")
    tmp.write_text(json.dumps(ref, indent=1) + "\n")
    os.replace(tmp, REFERENCE)


def candidate(workload: str, cls: str, index: int) -> builder.Instance:
    """Pool candidate `index` of a class; its name is f"{cls}-{index}"."""
    c = POOLS[workload][cls]
    rng = np.random.default_rng([POOL_SEED, zlib.crc32(cls.encode()), index])
    name = f"{cls}-{index}"
    if c.kind == _M:
        return builder.uncertain_m(rng, *c.shape, c.planted, name)
    if c.kind == "psd-q":
        return builder.uncertain_q(rng, c.shape[0], 0, "psd", c.planted, name)
    regime = "psd" if c.kind == "psd-market" else "general"
    producers, markets, fixed = c.shape
    return builder.market(rng, producers, markets, regime, name, fixed)


def members(workload: str, cls: str, records: list) -> list:
    """Pool indices a run may draw for a class: recorded with the class's
    verdict and with work (or time) close to their median."""
    c = POOLS[workload][cls]
    ok = [i for i, rec in enumerate(records) if "status" in rec
          and c.verdict in (None, rec["status"])]
    if not ok:
        return []
    key, band = "work", WORK_BAND
    if statistics.median(records[i]["work"] for i in ok) == 0:
        key, band = "seconds", TIME_BAND
    mid = statistics.median(records[i][key] for i in ok)
    return [i for i in ok if abs(records[i][key] - mid) <= band * mid]


def recorded(name: str, pools: dict) -> dict | None:
    """The pool record of a drawn instance, by name (None if not pooled)."""
    cls, _, index = name.rpartition("-")
    records = pools.get(cls)
    return records[int(index)] if records and index.isdigit() else None


def _draw(workload: str, seed: int, pools: dict) -> list:
    rng = builder.stream(seed, workload, 10_000)
    out = []
    for cls, c in POOLS[workload].items():
        allowed = members(workload, cls, pools[cls])
        if len(allowed) < c.count:
            raise RuntimeError(f"pool class {cls} has too few members")
        for index in sorted(rng.choice(allowed, size=c.count, replace=False)):
            out.append(candidate(workload, cls, int(index)))
    return out


def instances(workload: str, seed: int, quick: bool = False) -> list:
    """The workload's instances in solve order. quick keeps only the
    three smallest (smoke mode)."""
    if workload not in POOLS:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    if workload == "enumeration":
        for i, (n, h, plant) in enumerate(_ENUM_Q):
            kind = "planted" if plant else "random"
            out.append(builder.uncertain_q(builder.stream(seed, workload, i),
                                           n, h, "general", plant,
                                           f"q-n{n}-h{h}-{kind}"))
    out += _draw(workload, seed, load_reference()["pools"][workload])
    if quick:
        out = [out[i] for i in smallest(out, 3)]
    return out


def smallest(insts: list, count: int) -> list:
    """Indices of the `count` smallest instances, in solve order (ties
    broken by solve order)."""
    order = sorted(range(len(insts)), key=lambda i: (insts[i].size, i))
    return sorted(order[:count])
