"""Tracing: event model, recorder, .evt file format, EASYVIEW analysis."""
