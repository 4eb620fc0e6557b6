"""QL002 good fixture: uniform keyword-only (qi, *, ...) shape."""


def tidy(qi, *, alpha=2.0, query_policy=None):
    return (qi, alpha, query_policy)


ALGORITHMS = {"tidy": tidy}
