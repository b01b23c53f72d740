"""Data-plane substrate: packets, links, FIFOs, link units, switches.

This package models the Autonet hardware of sections 5 and 6 of the paper
at byte-time fidelity using an event-driven fluid model: FIFO occupancies
are piecewise-linear in time and events fire exactly at threshold
crossings, packet boundaries, and flow-control transitions.
"""
