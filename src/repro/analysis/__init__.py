"""Analysis layer: metrics, statistics and table rendering."""
