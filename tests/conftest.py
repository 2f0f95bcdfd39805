import gc
import sys

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(label): criterion covered by this test; prints one PASS/FAIL line",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    terminal = item.config.pluginmanager.get_plugin("terminalreporter")
    if terminal is None:
        return
    status = "PASS" if report.passed else "FAIL"
    terminal.write_line(f"ACCEPTANCE {marker.args[0]}: {status}")


# -- helpers shared by the test modules ----------------------------------------


def python_calls(fn, *args, raises=()):
    """fn(*args) and the Python-level functions it called, fn itself included.

    An exception of a type in raises is returned as the result; the
    calls made up to it are still returned.
    """
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls.append(f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}")

    # A collection inside fn could run other objects' finalisers, which
    # the profile would count as fn's calls.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    except raises as exc:
        result = exc
    finally:
        sys.setprofile(None)
        gc.enable()
    return result, calls


def traced_opcodes(counted, fn, *args):
    """fn(*args), and the bytecodes run in frames whose code counted(code) accepts."""
    count = 0

    def step(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return step

    def enter(frame, event, arg):
        if counted(frame.f_code):
            frame.f_trace_opcodes = True
            return step
        return None

    sys.settrace(enter)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return result, count


# The pool's documented layout: guard pages and slot pages alternate, so
# slot i is the page right of guard i, and guard slot_count is the far
# right.


def slot_page_addr(pool, slot_index):
    return pool.base + (2 * slot_index + 1) * pool.page_size


def guard_page_addr(pool, guard_index):
    return pool.base + 2 * guard_index * pool.page_size


# The allocator's transitions, for tests that drive a pool directly: one
# pool call under the pool lock, as the allocator holds it.


def acquire_slot(pool, size, alignment=1, source=None, thread_id=5, trace=(0x100, 0x200)):
    """(slot_index, address) of a new ALLOCATED slot; None when the pool declines."""
    with pool.lock:
        addr = pool.acquire(size, alignment, source, thread_id, trace)
    return None if addr is None else ((addr - pool.base) // pool.page_size >> 1, addr)


def release_slot(pool, slot_index, thread_id=5, trace=(0x300,)):
    """Quarantine slot_index's occupant."""
    with pool.lock:
        pool.release(slot_index, thread_id, trace)
