"""End-to-end and per-module benchmark of the cohchaos verbs; see README.md."""
