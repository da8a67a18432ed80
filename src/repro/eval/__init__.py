"""Evaluation: attack harness, metrics, tables, and learning curves."""

from .curves import Curve, CurveSet
from .harness import AttackEvaluation, evaluate_game, evaluate_single_agent
from .lockstep import evaluate_lockstep
from .metrics import bootstrap_ci, format_mean_std, mean_std
from .render import render_arena, render_locomotion_trace
from .tables import bold_min_per_row, render_table

__all__ = [
    "AttackEvaluation", "evaluate_single_agent", "evaluate_game",
    "evaluate_lockstep",
    "mean_std", "bootstrap_ci", "format_mean_std",
    "render_table", "bold_min_per_row",
    "render_locomotion_trace", "render_arena",
    "Curve", "CurveSet",
]
