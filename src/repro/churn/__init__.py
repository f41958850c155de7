"""Churn substrate: generative churn models, lifetimes, traces, adversaries."""
