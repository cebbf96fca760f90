"""The dict shapes of the CLI's two large reports. `orckit.emit` streams
them from fixed templates; the tests hold its bytes to
json.dumps(shape, sort_keys=True, indent=2) + "\\n" of these."""

from fractions import Fraction

from orckit.curvature import frac_str
from orckit.diagnostics import CHECK_NAMES, TOLERANCE


def profile_to_json_obj(profile) -> dict:
    """Schema-shaped dict: rationals as "p/q" strings with advisory floats."""
    edges = []
    for r in profile.reports:
        edges.append(
            {
                "u": r.edge[0],
                "v": r.edge[1],
                "kappa": frac_str(r.kappa),
                "kappa_float": float(r.kappa),
                "w1": frac_str(1 - r.kappa),
                "common_neighbors": r.sets.n0,
                "s_size": r.sets.s_size,
                "n0": r.sets.n0,
                "n1": r.sets.n1,
            }
        )
    return {"edges": edges, "summary": _summary_obj(profile)}


def _summary_obj(profile) -> dict:
    """The summary worked out from the reports' kappas, not read from
    `CurvatureProfile.summary`, the code under test: the mean is a plain
    Fraction sum divided by the count."""
    ks = [r.kappa for r in profile.reports]
    low, high, mean = min(ks), max(ks), sum(ks, Fraction(0)) / len(ks)
    return {
        "edge_count": len(ks),
        "kappa_min": frac_str(low),
        "kappa_min_float": float(low),
        "kappa_max": frac_str(high),
        "kappa_max_float": float(high),
        "kappa_mean": frac_str(mean),
        "kappa_mean_float": float(mean),
        "negative_count": sum(k < 0 for k in ks),
        "positive_count": sum(k > 0 for k in ks),
    }


def check_obj(c) -> dict:
    """One BoundCheck of a suite report."""
    return {
        "name": c.name,
        "graph": c.graph,
        "context": c.context,
        "holds": c.holds,
        "skipped": c.skipped,
        "reason": c.reason,
        "tolerance": c.tolerance,
        "lhs": value_obj(c.lhs),
        "rhs": value_obj(c.rhs),
        "slack": value_obj(c.slack),
    }


def value_obj(x) -> dict | None:
    if x is None:
        return None
    if isinstance(x, Fraction):
        return {"exact": frac_str(x), "float": float(x)}
    return {"exact": None, "float": float(x)}


def suite_report_obj(suite, trials, seed, checks) -> dict:
    return {
        "suite": suite,
        "trials": trials,
        "seed": seed,
        "norm": "euclidean",
        "tolerance": TOLERANCE,
        "summary": summary_obj(checks),
        "checks": [check_obj(c) for c in checks],
    }


def summary_obj(checks) -> dict:
    """The summary tallies of checks, counted one check at a time: a row
    per name of CHECK_NAMES, passed or not, and one per other name seen."""
    by_name = {name: {"passed": 0, "violated": 0, "skipped": 0} for name in CHECK_NAMES}
    for c in checks:
        row = by_name.setdefault(c.name, {"passed": 0, "violated": 0, "skipped": 0})
        row["skipped" if c.skipped else "violated" if c.violated else "passed"] += 1
    return {
        "total": len(checks),
        "violations": sum(c.violated for c in checks),
        "skipped": sum(c.skipped for c in checks),
        "by_name": by_name,
    }
