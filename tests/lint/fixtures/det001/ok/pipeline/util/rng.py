"""The sanctioned home of the digest helper: hashlib is allowed here."""

import hashlib
import json


def fingerprint(payload):
    blob = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
