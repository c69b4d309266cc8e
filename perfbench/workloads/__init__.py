"""The benchmark's workloads, by name."""

from . import algebra, bridge, cli, search

WORKLOADS = {module.NAME: module for module in (bridge, search, algebra, cli)}
