"""Rendering: terminal (ASCII), SVG and PPM output of the monitoring
windows and trace views — the SDL-window replacement."""
