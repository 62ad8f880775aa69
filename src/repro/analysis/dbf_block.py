"""Block-shrink planning for the ``block`` demand kernel.

The scalar shrink descent (:func:`repro.analysis.vdtuning._descend`)
commits **one** task per exact HI probe: rank the candidates at the
current violation, shrink the best one just far enough to clear the
deficit, re-probe.  PR 9 measured that wall as *memo-bound* — each
iteration is already as cheap as memoization allows, so the remaining
lever is committing **more shrink per exact probe**, i.e. visiting fewer
distinct violation fronts.

This module plans that bigger commit.  From the scaffolding the scalar
descent already memoizes, :func:`plan_block` derives for several ranked
candidates at once their *minimal LO-feasible virtual deadline* ``V*``
(:meth:`~repro.analysis.vdtuning.DemandEngine.lo_min_deadline` — the
closed-form :meth:`~repro.analysis.dbf.LoShrinkProbe.min_feasible_deadline`)
and proposes jumping each straight to its boundary.  Two sound clamps make the *joint* jump provable:

* **Per-task lower bound.**  Each ``V*`` is a *lower* bound on the
  task's boundary at every assignment the scalar descent could reach
  from here: other tasks only ever shrink, which only removes LO slack
  and raises the boundary — so the jump never lands below anything the
  scalar descent could itself have committed (the property the
  block-vs-scalar oracle test asserts).
* **Sequential virtual walk.**  Committing several jumps at once is
  LO-safe only if the *combined* assignment stays feasible, and the
  tasks' boundaries couple through the shared LO slack.  The planner
  therefore walks the ranked candidates against a *virtual* copy of the
  assignment: each candidate's ``V*`` is evaluated with every earlier
  jump already applied, so each step is exactly LO-feasible by the same
  verdict machinery the scalar ``max_lo_feasible_shrink`` inverts, and
  the final joint assignment — reached through individually proven
  steps — is LO-feasible outright.  No screen-style approximation is
  involved; what the walk *skips* is the exact HI probe the scalar
  descent pays between any two commits.

Candidates whose boundary the plan cannot settle — ``V*`` unavailable
(horizon trouble), no remaining shrink, or no HI gain at the current
violation — fall through to the scalar per-task step, and any reject of
the block trajectory falls back to a
full scalar descent.  The ``block`` kernel therefore accepts at least
everything the scalar kernels accept, and sometimes more: a joint jump
can reach an assignment the one-task-at-a-time descent cannot, so its
contract is *sound only* (every accept passes the LO and HI demand
checks at its committed virtual deadlines).  It also gives up the
bit-identical descent *trajectory*: iteration counts and the committed
virtual deadlines of accepted sets may differ from forward/qpa.

Diagnostics live in the always-on ``kernel.block.*`` counter scope:
``block-jumps`` (blocks
committed), ``block-settled`` (tasks jumped inside those blocks),
``block-residual`` (ranked candidates the planner had to leave to the
scalar step), ``block-fallback`` (descents re-run on the scalar path
after a block-trajectory reject).
"""

from __future__ import annotations

from repro.obs import REGISTRY as _OBS_REGISTRY

__all__ = ["plan_block", "block_counters", "reset_block_counters"]

# Always-on like the "dbf" scope: the registry hands
# back a mutable dict, so planning keeps plain ``+= 1`` cost while
# snapshots and worker->parent merging see ``kernel.block.<key>``.
_COUNTERS = _OBS_REGISTRY.counter_scope(
    "kernel.block",
    (
        "block-jumps",  # committed multi-task blocks
        "block-settled",  # tasks jumped to their V* boundary in a block
        "block-residual",  # ranked candidates left to the scalar step
        "block-fallback",  # scalar-descent re-runs after a block reject
    ),
)


def plan_block(engine, vd, ranked, frozen, violation):
    """Plan a joint boundary jump for the current descent assignment.

    Walks ``ranked`` (the scalar descent's candidate ranking for ``vd``,
    best first, the ``(key, task, desired)`` entries of
    ``_rank_candidates``) against a virtual copy of the assignment:
    each candidate's boundary is evaluated with every earlier jump
    already applied, so every commit is exactly LO-feasible.  Returns
    ``{task_id: new_deadline}`` — empty when no candidate can be
    settled, in which case the caller takes one scalar step instead.

    Pure with respect to the descent state: only reads ``vd`` and the
    engine's memoized scaffolding (warming ``("vmin", ...)``/
    ``("lofp", ...)`` entries keyed by the virtual assignments — valid
    cache entries for any later query at the same signature), never
    mutates either.
    """
    commits: dict[int, int] = {}
    virtual = dict(vd)
    for _key, task, _desired in ranked:
        tid = task.task_id
        if tid in frozen:
            continue
        base = virtual[tid]
        v_min = engine.lo_min_deadline(virtual, task)
        if v_min is None or v_min >= base:
            # Horizon trouble, never LO-feasible, or already at (or past)
            # the boundary vs the virtually shrunk others — scalar's
            # problem if the violation survives the block.
            _COUNTERS["block-residual"] += 1
            continue
        if engine.hi_gain(task, base, base - v_min, violation) <= 0:
            # The jump would not lower HI demand at the violation the
            # descent is currently clearing; committing it risks
            # non-progress, so leave the task to the scalar freeze logic.
            _COUNTERS["block-residual"] += 1
            continue
        commits[tid] = v_min
        virtual[tid] = v_min

    if commits:
        _COUNTERS["block-jumps"] += 1
        _COUNTERS["block-settled"] += len(commits)
    return commits


def block_counters() -> dict[str, int]:
    """Snapshot of the process-local block-descent diagnostics."""
    return dict(_COUNTERS)


def reset_block_counters() -> None:
    """Zero the block-descent diagnostics (process-local slice)."""
    for key in _COUNTERS:
        _COUNTERS[key] = 0
