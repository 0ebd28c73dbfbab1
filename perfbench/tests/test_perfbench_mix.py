"""The serve-mix generator (deterministic per seed, exact class shares)
and the client lanes that send it."""

import json
from collections import Counter

import pytest

import mix


def test_same_seed_same_sequence():
    assert mix.make_mix(7, 5) == mix.make_mix(7, 5)
    assert mix.make_mix(7, 5) != mix.make_mix(8, 5)


def test_warm_up_is_the_same_for_every_seed():
    assert mix.make_mix(7, 5)[0] == mix.make_mix(8, 5)[0]


@pytest.mark.parametrize("seed", range(6))
def test_every_block_holds_the_class_shares(seed):
    _, lanes = mix.make_mix(seed, 5)
    assert len(lanes) == mix.LANES
    for lane in lanes:
        assert len(lane) == 5 * mix.BLOCK
        for start in range(0, len(lane), mix.BLOCK):
            block = Counter(item["cls"] for item in lane[start:start
                                                          + mix.BLOCK])
            assert block == mix.SHARES
    total = Counter(item["cls"] for lane in lanes for item in lane)
    n = sum(total.values())
    assert (total["fresh"] / n, total["repeat"] / n,
            total["revalidate"] / n) == (0.8, 0.15, 0.05)


@pytest.mark.parametrize("seed", range(6))
def test_fresh_grids_are_distinct_and_refs_point_back(seed):
    import run
    warm, lanes = mix.make_mix(seed, run.MIX_BLOCKS)  # as a run makes them
    fresh = list(warm)
    for lane in lanes:
        assert lane[0]["cls"] == "fresh"
        for i, item in enumerate(lane):
            if item["cls"] == "fresh":
                assert item["ref"] is None
                fresh.append(item["body"])
            else:
                # an earlier fresh grid of the same lane, so it completed
                # before this request is sent and cannot coalesce with it
                ref = item["ref"]
                assert ref < i and lane[ref]["cls"] == "fresh"
                assert item["body"] == lane[ref]["body"]
    assert len(set(fresh)) == len(fresh)


def test_work_per_seed_is_balanced():
    def shapes(seed):
        _, lanes = mix.make_mix(seed, 4)
        out = Counter()
        for lane in lanes:
            for item in lane:
                if item["cls"] == "fresh":
                    body = json.loads(item["body"])
                    out[(len(body["workloads"]), len(body["policies"]),
                         body["swap_modes"][0])] += 1
        return out
    assert shapes(1) == shapes(2) == shapes(3)


def test_grids_use_known_names_only():
    _, lanes = mix.make_mix(3, 3)
    for lane in lanes:
        for item in lane:
            body = json.loads(item["body"])
            assert body["fu"] == "ialu"
            assert set(body["workloads"]) <= set(mix.WORKLOADS)
            tables = set(body["policies"]) & set(mix.TABLES)
            assert len(tables) == 1  # every grid synthesises one LUT
            assert set(body["policies"]) - tables <= set(mix.EXTRAS)
            assert body["swap_modes"][0] in mix.MODES


def test_too_many_blocks_is_refused():
    with pytest.raises(ValueError):
        mix.make_mix(0, 16)


class _Reply:
    status = 200

    def __init__(self, n):
        self.n = n

    def read(self):
        return b"{}"

    def getheader(self, name):
        return {"X-Cache": "computed", "X-Compute-Seconds": "0.1",
                "X-Request-Key": str(self.n), "ETag": f'"{self.n}"'}.get(name)


class _Conn:
    def __init__(self):
        self.sent = 0

    def request(self, *args, **kwargs):
        self.sent += 1

    def getresponse(self):
        return _Reply(self.sent)

    def close(self):
        pass


class _Server:
    def connect(self):
        return _Conn()


def _lane(deadline):
    import run
    result = run.Run(None)
    client = run.Client(_Server(), result)
    items = [{"cls": "fresh", "body": b"{}", "ref": None}] * 3
    client.lane(0, items, deadline)
    return result


def test_a_lane_that_runs_out_before_the_deadline_fails_the_run():
    import time
    result = _lane(time.perf_counter() + 3600)
    assert result.failed == 1 and "ran out" in result.problems[0]


def test_a_fixed_count_lane_may_run_out():
    assert _lane(float("inf")).failed == 0


def test_traced_split_holds_enough_samples_for_p90():
    import run
    from stats import percentile
    _, lanes = mix.make_mix(11, run.MIX_BLOCKS)
    fresh = [item for lane in lanes
             for item in lane[:run.SPLIT_BLOCKS * mix.BLOCK]
             if item["cls"] == "fresh"]
    percentile([float(n) for n in range(len(fresh))], 0.9)  # no refusal
