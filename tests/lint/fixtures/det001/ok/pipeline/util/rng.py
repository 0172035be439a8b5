"""The sanctioned home of the digest helper: hashlib is allowed here."""

import hashlib
import json


def fingerprint(payload):
    blob = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def reseeded(generator, seed):
    import _random

    _random.Random.seed(generator, seed)  # the sanctioned home of the generator
    return generator
