"""Pipeline benchmark for the topoclass CLI; see run.py."""
