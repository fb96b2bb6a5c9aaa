"""The base class of conwon's input errors, in a module that imports nothing."""


class InputError(Exception):
    """Malformed or out-of-range input: the CLI reports it in one line, exit 2."""
