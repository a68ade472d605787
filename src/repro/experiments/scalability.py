"""Section 6.3.5: scalability with the number of repositories.

The paper grows the system from 100 repositories (700 physical nodes) to
300 repositories (2100 nodes).  With *unlimited* cooperation the d3t's
diameter can balloon; with *controlled* cooperation the loss of fidelity
grows by less than 5%.

The plan sweeps a list of repository counts (routers scale 6x, as in the
paper) and reports the loss under controlled cooperation, plus tree
diameters.
"""

from __future__ import annotations

from repro.experiments import api
from repro.experiments.runner import ExperimentResult, Series, report

__all__ = ["SPEC"]


def _grid(ctx: api.ExperimentContext):
    base = ctx.base_config().with_(t_percent=ctx.params["t_percent"])
    repo_counts = ctx.params["repo_counts"]
    if repo_counts is None:
        n = base.n_repositories
        repo_counts = (n, 2 * n, 3 * n)
    return base, repo_counts


def _plan(ctx: api.ExperimentContext):
    base, repo_counts = _grid(ctx)
    return tuple(
        base.with_(
            n_repositories=n,
            n_routers=6 * n,
            offered_degree=min(100, n),
            controlled_cooperation=True,
            policy=ctx.params["policy"],
        )
        for n in repo_counts
    )


def _collect(ctx: api.ExperimentContext, results) -> ExperimentResult:
    _base, repo_counts = _grid(ctx)
    result = ExperimentResult(
        name="Section 6.3.5: scalability with repository count",
        xlabel="repositories",
        ylabel="loss of fidelity (%)",
        xs=[float(n) for n in repo_counts],
    )
    losses = [r.loss_of_fidelity for r in results]
    result.series.append(Series(label="controlled cooperation", ys=losses))
    result.series.append(
        Series(
            label="d3t diameter (hops)",
            ys=[float(r.tree_stats.diameter_hops) for r in results],
        )
    )
    result.notes["loss increase base->max (paper: <5%)"] = round(
        losses[-1] - losses[0], 3
    )
    return result


SPEC = api.register(api.ExperimentSpec(
    name="scalability",
    description=(
        "Under controlled cooperation, loss of fidelity grows by less "
        "than 5% as the repository count triples."
    ),
    params=(
        api.ParamSpec("repo_counts", "ints", None,
                      "repository counts (default: 1x, 2x, 3x the preset)"),
        api.ParamSpec("t_percent", "float", 80.0,
                      "coherency-stringency mix (T%)"),
        api.ParamSpec("policy", "str", "distributed",
                      "dissemination policy"),
    ),
    plan=_plan,
    collect=_collect,
    render=report,
))
