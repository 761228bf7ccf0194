from .cli import _entry

_entry()
