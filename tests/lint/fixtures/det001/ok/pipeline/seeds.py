"""DET001 near-misses: names that only look like the banned generators."""


def token_seed(source):
    return source.child_random("token", 1)  # a RandomSource per-key draw


def pick(config, items):
    return items[config.secrets.index(items[0])]  # an attribute named secrets


def shuffled_seed(state):
    return state._random.random()  # an attribute named _random, not the module
