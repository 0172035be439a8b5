"""DET001 seeded violations: the C-level generator and the secrets module."""

import _random
import secrets
from _random import Random


def token_seed():
    return _random.Random(1).random()  # the generator under random.Random


def pick(items):
    return items[secrets.randbelow(len(items))]  # OS entropy, different every run


def shuffled_seed():
    return Random(2)  # imported by name, still the C-level generator
