"""Analytical models of the paper's evaluation (Section 6)."""
