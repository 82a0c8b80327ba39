"""The exception hierarchy holds only errors the package raises."""

import inspect
import re
from pathlib import Path

import nilmetric as nm
from nilmetric import errors

SRC = Path(nm.__file__).resolve().parent


def test_every_error_class_is_raised():
    source = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    names = [name for name, cls in inspect.getmembers(errors, inspect.isclass)
             if issubclass(cls, errors.NilmetricError)
             and cls is not errors.NilmetricError]
    assert names
    unraised = [name for name in names
                if not re.search(rf"\braise\s+{name}\b", source)]
    assert unraised == []
