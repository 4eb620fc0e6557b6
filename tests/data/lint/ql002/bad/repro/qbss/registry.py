"""QL002 bad fixture: registered runners with positional extras/defaults."""


def crummy(qi, extra, alpha=2.0):
    return (qi, extra, alpha)


def shim(qi, *args, alpha=2.0, query_policy=None):
    return (qi, args, alpha, query_policy)


ALGORITHMS = {"crummy": crummy, "shim": shim}
