"""Failure detection substrate."""
