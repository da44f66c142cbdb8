"""Protocol timer profiles.

Two profiles ship by default: ``PRODUCTION_TIMERS`` matches common
real-router defaults and is used for the convergence-time experiments
(the paper's ~3-minute 30-node convergence is a timer phenomenon);
``FAST_TIMERS`` compresses everything for unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TimerProfile:
    """All protocol timing knobs in one immutable bundle (seconds)."""

    # IS-IS
    isis_hello: float = 10.0
    isis_hold: float = 30.0
    isis_spf_delay: float = 0.2
    isis_lsp_flood_delay: float = 0.033
    # BGP
    bgp_connect_retry: float = 5.0
    bgp_keepalive: float = 10.0
    bgp_hold: float = 30.0
    bgp_mrai: float = 0.5
    # Per-session UPDATE throughput in routes/second. Scale this down
    # together with synthetic table sizes to keep full-table transfer
    # *times* realistic while simulating fewer route objects.
    bgp_update_rate: float = 30_000.0
    # RSVP-TE
    rsvp_refresh: float = 30.0
    rsvp_cleanup_multiplier: float = 3.5
    # generic message-processing cost per hop
    processing_delay: float = 0.002


PRODUCTION_TIMERS = TimerProfile()

FAST_TIMERS = TimerProfile(
    isis_hello=0.5,
    isis_hold=1.5,
    isis_spf_delay=0.02,
    isis_lsp_flood_delay=0.005,
    bgp_connect_retry=0.25,
    bgp_keepalive=1.0,
    bgp_hold=3.0,
    bgp_mrai=0.05,
    rsvp_refresh=1.0,
)
