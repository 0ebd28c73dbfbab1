"""The serve-mix request sequence, generated from the workload seed.

Two lanes, one per keep-alive connection, each run as a closed loop.
Every block of :data:`BLOCK` requests in a lane holds 16 fresh grids,
3 repeats and 1 revalidation (80/15/5%), in a seed-shuffled order.

* **fresh** — 1–2 IALU workloads x 1–2 non-original policies x one swap
  mode (``none`` or ``hw``) at scale 1, never asked before in the run.
  The first policy is always a LUT (``lut-8``, ``lut-6``, ``lut-4`` or
  ``lut-2``), the optional second a cheap one (full or 1-bit Hamming, or
  the BDD table).  LUT synthesis is most of a fresh grid's compute
  (about 300 ms against 10-30 ms for a BDD or a matcher), so with a LUT
  in every grid the fresh latencies form one mode and p50 and p90 both
  fall inside it; grids without one would form a second, faster mode
  that p50 lands on the edge of.  Each block holds the same shapes
  (:data:`SHAPES`), and workloads and policies are dealt from shuffled
  decks, so every seed asks for about the same work.  Single-workload,
  single-policy grids are the scarcest (one per workload and table), so
  a block takes one of them per mode and more of the larger shapes.
* **repeat** — the body of an earlier fresh grid of the *same* lane,
  which the server answers from its response cache.  Same-lane targets
  have always completed (the lane is a closed loop), so no repeat can
  coalesce with an in-flight execution and the mix stays deterministic.
* **revalidate** — an earlier fresh grid of the same lane sent with
  ``If-None-Match`` set to the ETag it was served with; answered 304.
"""

from __future__ import annotations

import json
import random
from itertools import product
from typing import Dict, List, Tuple

#: the IALU suite and the non-original figure-4 policies a grid draws on
WORKLOADS = ("cc1", "compress", "go", "ijpeg", "li", "m88ksim", "perl",
             "vortex")
TABLES = ("lut-8", "lut-6", "lut-4", "lut-2")
EXTRAS = ("full-ham", "1bit-ham", "bdd-4")
MODES = ("none", "hw")
#: every grid runs its workloads at scale 1, the scale the CLI fills the
#: trace cache at by default
SCALE = 1

LANES = 2
BLOCK = 20
SHARES = {"fresh": 16, "repeat": 3, "revalidate": 1}
#: (workload count, policy count) of a block's fresh grids in each mode
SHAPES = ((1, 1),) + ((1, 2),) * 2 + ((2, 1),) * 2 + ((2, 2),) * 3
#: (workload, table) of the single-workload grids every set-up sends
#: first, in mode ``none``: the same for every seed, so that set-up does
#: the same work whatever the seed
WARMUP = (("li", "lut-4"), ("go", "lut-4"))
#: repeats target one of the lane's most recent fresh grids, well inside
#: the server's 256-entry response cache
REPEAT_WINDOW = 32


class _Deck:
    """Deal items evenly: reshuffle only once every item has been dealt."""

    def __init__(self, items, rng: random.Random):
        self.items, self.rng, self.cards = list(items), rng, []

    def deal(self, count: int) -> List[str]:
        hand: List[str] = []
        while len(hand) < count:
            if not self.cards:
                self.cards = self.items[:]
                self.rng.shuffle(self.cards)
            card = self.cards.pop()
            if card not in hand:
                hand.append(card)
        return hand


def fresh_payload(workloads, policies, mode) -> Dict:
    return {"fu": "ialu", "workloads": sorted(workloads),
            "policies": sorted(policies), "swap_modes": [mode],
            "scale": SCALE}


def encode(payload: Dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def make_mix(seed: int, blocks: int) -> Tuple[List[bytes], List[List[Dict]]]:
    """Return ``(warmup_bodies, lanes)`` for one run.

    Each lane item is ``{"cls", "body", "ref"}``: ``ref`` is the lane
    index of the fresh item a repeat or revalidation refers to.  Every
    fresh body is distinct from every other and from the warm-up ones.
    """
    # each block takes one single-workload, single-policy grid per mode
    # and lane; there are only len(WORKLOADS) * len(TABLES) of those
    if LANES * blocks + len(WARMUP) > len(WORKLOADS) * len(TABLES):
        raise ValueError(f"{blocks} blocks would exhaust the distinct"
                         f" single-workload grids")
    rng = random.Random(seed)
    loads = _Deck(WORKLOADS, rng)
    tables, extras = _Deck(TABLES, rng), _Deck(EXTRAS, rng)
    warm = [encode(fresh_payload([load], [table], "none"))
            for load, table in WARMUP]
    seen = set(warm)

    def fresh(shape) -> bytes:
        n_loads, n_policies, mode = shape
        while True:
            policies = tables.deal(1) + extras.deal(n_policies - 1)
            body = encode(fresh_payload(loads.deal(n_loads), policies,
                                        mode))
            if body not in seen:
                seen.add(body)
                return body

    shapes = [(*shape, mode) for shape, mode in product(SHAPES, MODES)]
    lanes: List[List[Dict]] = [[] for _ in range(LANES)]
    for _ in range(blocks):
        for lane in lanes:
            classes = [cls for cls, n in SHARES.items() for _ in range(n)]
            rng.shuffle(classes)
            if not lane and classes[0] != "fresh":
                # a lane's first request has nothing earlier to refer to
                first = classes.index("fresh")
                classes[0], classes[first] = classes[first], classes[0]
            block_shapes = shapes[:]
            rng.shuffle(block_shapes)
            for cls in classes:
                if cls == "fresh":
                    lane.append({"cls": cls, "body": fresh(block_shapes.pop()),
                                 "ref": None})
                    continue
                earlier = [i for i, item in enumerate(lane)
                           if item["cls"] == "fresh"][-REPEAT_WINDOW:]
                ref = rng.choice(earlier)
                lane.append({"cls": cls, "body": lane[ref]["body"],
                             "ref": ref})
    return warm, lanes
