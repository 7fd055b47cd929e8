"""Deterministic desk-scale simulator of split and federated learning under
model-poisoning attacks against robust aggregation.

Every public name is imported from the module that defines it, for example
`from splitfedsim.protocol import train`."""

__version__ = "0.1.0"
