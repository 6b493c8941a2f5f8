"""Layered performance ledger of the Q-adaptive simulator (see README.md)."""
