"""Call recording for tests: a module's functions patched to log each call.

``record_calls`` swaps functions of a module, such as ``kernels.im2col``,
for wrappers that log one value read off each call's arguments and then call
the original, so a test can count the calls or check what they were given.
Only the read value is kept, so no argument array outlives its call.
"""


def batch_extent(first, *rest):
    """The length of a call's first argument: the images an unfold or a scatter covers."""
    return len(first)


def record_calls(monkeypatch, module, *names, read=batch_extent) -> dict:
    """Patch each named function of ``module`` to log ``read(*args)`` of each
    call; returns name -> the list of those values, in call order."""
    calls = {name: [] for name in names}
    for name, seen in calls.items():
        def recorded(*args, _seen=seen, _original=getattr(module, name)):
            _seen.append(read(*args))
            return _original(*args)
        monkeypatch.setattr(module, name, recorded)
    return calls
