"""Process-tree probes over ``/proc`` for the hard-kill tests."""

import os


def proc_stat(pid):
    """``(state, ppid)`` of a process from ``/proc``, ``None`` once it
    is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            # "pid (comm) state ppid ..."; comm may hold spaces
            state, ppid = fh.read().rpartition(")")[2].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def alive(pid):
    stat = proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def children(pid):
    """Pids of the live (non-zombie) direct children of ``pid``."""
    stats = {int(entry): proc_stat(entry)
             for entry in os.listdir("/proc") if entry.isdigit()}
    return [child for child, stat in stats.items()
            if stat is not None and stat[0] != "Z" and stat[1] == pid]
