"""Generated straight-line code, compiled once per shape and cached.

An emitter is a module-level function from a structural key to the source
lines of functions f0, f1, ...; compiled() runs that source once per
(emitter, key) and keeps the functions in a bounded LRU cache.  The source
holds only loops, locals, operators and indexing: every name, table and
helper comes in as an argument, so no input text becomes code and no
cached function holds a frame, algebra or model.  Each function takes the
tuple of all of them first, to call another without a reference cycle
through their globals.
"""

import functools

CACHE_SIZE = 2048  # a validity benchmark pool cycle compiles 754 shapes
# Nested loops per generated function.  CPython refuses more than 20
# statically nested blocks in one code object.
MAX_LOOPS = 16


@functools.lru_cache(maxsize=CACHE_SIZE)
def compiled(emit, key):
    """The functions f0, f1, ... that emit(key) defines, as a tuple."""
    namespace = {}
    source = "\n".join(emit(key))
    exec(compile(source, f"<lekit {emit.__qualname__}>", "exec"), namespace)
    return tuple(namespace.pop(f"f{k}") for k in range(len(namespace) - 1))
