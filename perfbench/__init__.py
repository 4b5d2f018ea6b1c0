"""Layered end-to-end benchmark of the hybridfleet pipeline (see README.md)."""
