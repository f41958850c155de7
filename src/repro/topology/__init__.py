"""Communication-topology substrate: graphs, generators and attachment rules."""
