"""Synchronous-rounds execution model (the paper's native framing)."""
