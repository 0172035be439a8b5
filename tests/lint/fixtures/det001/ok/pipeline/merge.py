"""DET001 near-misses: every construct here is deterministic and must not flag."""

from pipeline.util.rng import fingerprint


def merge_results(results):
    seen = set(results)
    merged = []
    for item in sorted(seen):  # sorted before iteration
        merged.append(item)
    return max(seen), merged  # order-insensitive consumer of a set


def jitter(rng):
    return rng.random()  # a RandomSource method, not the random module


def order(items):
    return sorted(items, key=str)  # deterministic key


def result_fingerprint(payload):
    return fingerprint(payload)  # the shared helper, not hashlib
