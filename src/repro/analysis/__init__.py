"""Offline analysis: windowing, connectivity (Fig. 7), time series (Figs. 8-9),
and trend detection."""

from .connectivity import (
    ConnectivityReport,
    WindowConnectivity,
    connectivity_by_window_size,
    window_connectivity,
)
from .timeseries import (
    CommunicationSeries,
    LoadSeries,
    communication_series,
    load_series,
)
from .trends import (
    CorrelationHistory,
    TrendAlert,
    TrendDetector,
    detect_trends_offline,
    window_coefficients,
)
from .windows import count_windows, sliding_windows, tumbling_windows

__all__ = [
    "CommunicationSeries",
    "ConnectivityReport",
    "CorrelationHistory",
    "LoadSeries",
    "TrendAlert",
    "TrendDetector",
    "WindowConnectivity",
    "communication_series",
    "connectivity_by_window_size",
    "count_windows",
    "detect_trends_offline",
    "load_series",
    "sliding_windows",
    "tumbling_windows",
    "window_coefficients",
    "window_connectivity",
]
