"""DET001 seeded violations: ambient clocks/RNG, an unsorted-set fold, an ad-hoc digest."""

import hashlib
import json
import random
import time


def merge_results(results):
    seen = set(results)
    merged = []
    for item in seen:  # unsorted set iterated inside a merge fold
        merged.append(item)
    return merged


def jitter():
    return random.random() + time.time()  # global RNG + wall clock


def order(items):
    return sorted(items, key=id)  # object addresses vary between runs


def result_fingerprint(payload):
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()  # a second canonical-JSON digest helper
