"""End-to-end benchmark: camera path to cache statistics (see README.md)."""
