"""VFS component — the POSIX file/socket surface (Table I).

Stateful: the fd table (descriptors, offsets, flags) is exactly the
state the paper's VFS example worries about — "when we reboot a VFS
component that maintains the file offset, the file operation of the
application after the rejuvenation cannot be done correctly since the
file offset is initialized to be zero" (§V-B).  The logged interface
matches Table II: ``create, open, write, pwrite, read, pread, close,
mount, fcntl, lseek, vfscore_vget, pipe, ioctl, writev, fsync,
vfs_alloc_socket`` — while ``stat``/``fstat`` are state-neutral and
skipped by the log.

Descriptors use lowest-free allocation (Unix semantics), which keeps
log replay deterministic after session-aware shrinking prunes
open/close pairs.

``accept()`` is logged here even though LWIP's accept is not: the fd
entry that accept creates is VFS state and must be rebuilt by VFS's
replay (during which the nested LWIP call is answered from the
return-value log, so the running LWIP is untouched).  In the Unikraft
prototype this path allocates through ``vfs_alloc_socket()``, which
Table II does log.

File operations route through a mount table to pluggable filesystem
backends — 9PFS (fid-based, host-backed) and RAMFS (path-based,
guest-memory) — mirroring how Unikraft's vfscore multiplexes
filesystems and demonstrating that VampOS's machinery is not tied to
one component (§VIII).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..sim.engine import Simulation
from ..unikernel.component import Component, MemoryLayout, export
from ..unikernel.errors import SyscallError
from ..unikernel.idalloc import lowest_free_id
from ..unikernel.registry import GLOBAL_REGISTRY

#: bytes charged to the VFS heap per live descriptor
FD_ALLOC_BYTES = 256
#: first descriptor handed out (0/1/2 are the std streams)
FIRST_FD = 3

#: fstype -> backing component
FS_BACKENDS = {"9pfs": "9PFS", "ramfs": "RAMFS"}


@dataclass
class FdEntry:
    fd: int
    kind: str                    # "file" | "socket" | "pipe_r" | "pipe_w"
    path: str = ""
    fstype: str = ""             # "9pfs" | "ramfs" for files
    fid: Optional[int] = None    # 9PFS fid for 9pfs files
    sock_id: Optional[int] = None  # LWIP socket for sockets
    pipe_id: Optional[int] = None
    offset: int = 0
    flags: Dict[str, int] = field(default_factory=dict)
    append: bool = False
    heap_offset: int = 0

    def to_blob(self) -> Dict[str, Any]:
        blob = vars(self).copy()
        blob["flags"] = dict(self.flags)
        return blob

    @classmethod
    def from_blob(cls, blob: Dict[str, Any]) -> "FdEntry":
        return cls(**blob)


@GLOBAL_REGISTRY.register
class VfsComponent(Component):
    NAME = "VFS"
    STATEFUL = True
    DEPENDENCIES = ("9PFS", "LWIP", "RAMFS")
    #: all backends are optional: SQLite links VFS+9PFS without LWIP,
    #: Echo links VFS+LWIP without any filesystem (§VI)
    OPTIONAL_DEPENDENCIES = ("9PFS", "LWIP", "RAMFS")
    LAYOUT = MemoryLayout(text=96 * 1024, data=16 * 1024, bss=32 * 1024,
                          heap_order=18, stack=32 * 1024)

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        self._fds: Dict[int, FdEntry] = {}
        self._pipes: Dict[int, bytearray] = {}
        self._vnodes: Dict[str, int] = {}
        #: mountpoint -> fstype ("9pfs"/"ramfs")
        self._mounts: Dict[str, str] = {}
        self._next_pipe = 1
        self._next_vnode = 1

    def on_boot(self) -> None:
        self._fds = {}
        self._pipes = {}
        self._vnodes = {}
        self._mounts = {}
        self._next_pipe = 1
        self._next_vnode = 1

    # --- checkpoint state ---------------------------------------------------------

    def export_custom_state(self) -> Any:
        return {
            "fds": {fd: entry.to_blob() for fd, entry in self._fds.items()},
            "pipes": {pid: bytes(buf) for pid, buf in self._pipes.items()},
            "vnodes": dict(self._vnodes),
            "mounts": dict(self._mounts),
            "next_pipe": self._next_pipe,
            "next_vnode": self._next_vnode,
        }

    def import_custom_state(self, blob: Any) -> None:
        self._fds = {fd: FdEntry.from_blob(entry)
                     for fd, entry in blob["fds"].items()}
        self._pipes = {pid: bytearray(buf)
                       for pid, buf in blob["pipes"].items()}
        self._vnodes = dict(blob["vnodes"])
        self._mounts = dict(blob["mounts"])
        self._next_pipe = blob["next_pipe"]
        self._next_vnode = blob["next_vnode"]

    def entry_is_state_neutral(self, func: str, key: Any) -> bool:
        if func not in ("read", "write", "writev", "ioctl"):
            return False
        entry = self._fds.get(key)
        return entry is not None and entry.kind == "socket"

    def extract_key_state(self, key: Any) -> Any:
        entry = self._fds.get(key)
        return entry.to_blob() if entry is not None else None

    def apply_key_state(self, key: Any, patch: Any) -> None:
        if patch is None:
            self._fds.pop(key, None)
            return
        self._fds[key] = FdEntry.from_blob(patch)

    # --- helpers ------------------------------------------------------------------------

    def _entry(self, fd: int) -> FdEntry:
        entry = self._fds.get(fd)
        if entry is None:
            raise SyscallError("EBADF", f"unknown descriptor {fd}")
        return entry

    def _file_entry(self, fd: int) -> FdEntry:
        entry = self._entry(fd)
        if entry.kind != "file":
            raise SyscallError("EINVAL", f"fd {fd} is a {entry.kind}")
        return entry

    def _new_fd(self, kind: str, **attrs: Any) -> FdEntry:
        forced = self.take_forced_id()
        fd = forced if forced is not None else \
            lowest_free_id(self._fds, start=FIRST_FD)
        offset = self.alloc(FD_ALLOC_BYTES)
        entry = FdEntry(fd=fd, kind=kind, heap_offset=offset, **attrs)
        self._fds[fd] = entry
        return entry

    # --- mount-table routing ----------------------------------------------------------

    def _fstype_of(self, path: str) -> str:
        best: Optional[str] = None
        for mountpoint in self._mounts:
            if path == mountpoint or path.startswith(
                    mountpoint.rstrip("/") + "/") or mountpoint == "/":
                if best is None or len(mountpoint) > len(best):
                    best = mountpoint
        if best is None:
            raise SyscallError("ENODEV",
                               f"no filesystem mounted for {path!r}")
        return self._mounts[best]

    @staticmethod
    def _backend(fstype: str) -> str:
        try:
            return FS_BACKENDS[fstype]
        except KeyError:
            raise SyscallError("ENODEV",
                               f"unknown fs type {fstype!r}") from None

    # --- Table II logged interface: files --------------------------------------------------

    @export(key_arg=0)
    def mount(self, mountpoint: str, fstype: str = "9pfs",
              share_root: str = "/") -> int:
        backend = self._backend(fstype)
        if fstype == "9pfs":
            self.os.invoke(backend, "uk_9pfs_mount", mountpoint,
                           share_root)
        else:
            self.os.invoke(backend, "ramfs_mount", mountpoint)
        self._mounts[mountpoint] = fstype
        return 0

    @export(key_from_result=True, session_opener=True)
    def create(self, path: str) -> int:
        """Create a file and open it read-write."""
        fstype = self._fstype_of(path)
        if fstype == "9pfs":
            fid = self.os.invoke("9PFS", "uk_9pfs_create", path)
            entry = self._new_fd("file", path=path, fid=fid,
                                 fstype=fstype)
        else:
            self.os.invoke("RAMFS", "ramfs_create", path)
            entry = self._new_fd("file", path=path, fstype=fstype)
        return entry.fd

    @export(key_from_result=True, session_opener=True)
    def open(self, path: str, flags: str = "r") -> int:
        """Open ``path``.  ``flags`` is a compact mode string:
        ``r`` read, ``w`` write, ``a`` append, ``c`` create-if-missing,
        ``t`` truncate."""
        fstype = self._fstype_of(path)
        if fstype == "9pfs":
            entry = self._open_9pfs(path, flags)
        else:
            entry = self._open_ramfs(path, flags)
        if "a" in flags:
            entry.append = True
            entry.offset = self._stat_entry(entry)["size"]
        return entry.fd

    def _open_9pfs(self, path: str, flags: str) -> FdEntry:
        mode = "".join(c for c in flags if c in "rw") or "r"
        if "a" in flags and "w" not in mode:
            mode += "w"
        try:
            fid = self.os.invoke("9PFS", "uk_9pfs_lookup", path)
        except SyscallError as exc:
            if exc.errno == "ENOENT" and "c" in flags:
                fid = self.os.invoke("9PFS", "uk_9pfs_create", path)
            else:
                raise
        self.os.invoke("9PFS", "uk_9pfs_open", fid, mode)
        if "t" in flags:
            self.os.invoke("9PFS", "uk_9pfs_truncate", fid, 0)
        return self._new_fd("file", path=path, fid=fid, fstype="9pfs")

    def _open_ramfs(self, path: str, flags: str) -> FdEntry:
        exists = self.os.invoke("RAMFS", "ramfs_lookup", path)
        if not exists:
            if "c" not in flags:
                raise SyscallError("ENOENT", f"ramfs: {path!r}")
            self.os.invoke("RAMFS", "ramfs_create", path)
        if "t" in flags:
            self.os.invoke("RAMFS", "ramfs_truncate", path, 0)
        return self._new_fd("file", path=path, fstype="ramfs")

    # --- backend adapters -------------------------------------------------------------------

    def _read_backend(self, entry: FdEntry, offset: int,
                      count: int) -> bytes:
        if entry.fstype == "ramfs":
            return self.os.invoke("RAMFS", "ramfs_read", entry.path,
                                  offset, count)
        return self.os.invoke("9PFS", "uk_9pfs_read", entry.fid,
                              offset, count)

    def _write_backend(self, entry: FdEntry, offset: int,
                       data: bytes) -> int:
        if entry.fstype == "ramfs":
            return self.os.invoke("RAMFS", "ramfs_write", entry.path,
                                  offset, data)
        return self.os.invoke("9PFS", "uk_9pfs_write", entry.fid,
                              offset, data)

    def _stat_entry(self, entry: FdEntry) -> Dict[str, Any]:
        if entry.fstype == "ramfs":
            return self.os.invoke("RAMFS", "ramfs_stat", entry.path)
        return self.os.invoke("9PFS", "uk_9pfs_stat", entry.fid)

    # --- data path ------------------------------------------------------------------------------

    @export(key_arg=0)
    def read(self, fd: int, count: int = 65536) -> bytes:
        entry = self._entry(fd)
        if entry.kind == "socket":
            return self._socket_recv(entry, count)
        if entry.kind == "pipe_r":
            return self._pipe_read(entry, count)
        entry = self._file_entry(fd)
        data = self._read_backend(entry, entry.offset, count)
        entry.offset += len(data)
        return data

    @export(key_arg=0)
    def write(self, fd: int, data: bytes) -> int:
        entry = self._entry(fd)
        if entry.kind == "socket":
            return self._socket_send(entry, data)
        if entry.kind == "pipe_w":
            return self._pipe_write(entry, data)
        entry = self._file_entry(fd)
        if entry.append:
            entry.offset = self._stat_entry(entry)["size"]
        written = self._write_backend(entry, entry.offset, data)
        entry.offset += written
        return written

    @export(key_arg=0)
    def pread(self, fd: int, count: int, offset: int) -> bytes:
        entry = self._file_entry(fd)
        return self._read_backend(entry, offset, count)

    @export(key_arg=0)
    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        entry = self._file_entry(fd)
        return self._write_backend(entry, offset, data)

    @export(key_arg=0)
    def writev(self, fd: int, buffers: List[bytes]) -> int:
        total = 0
        for buf in buffers:
            total += self.write(fd, buf)
        return total

    @export(key_arg=0)
    def lseek(self, fd: int, offset: int, whence: str = "set") -> int:
        entry = self._file_entry(fd)
        if whence == "set":
            entry.offset = offset
        elif whence == "cur":
            entry.offset += offset
        elif whence == "end":
            entry.offset = self._stat_entry(entry)["size"] + offset
        else:
            raise SyscallError("EINVAL", f"whence {whence!r}")
        if entry.offset < 0:
            raise SyscallError("EINVAL", "negative resulting offset")
        return entry.offset

    @export(key_arg=0)
    def fsync(self, fd: int) -> int:
        entry = self._file_entry(fd)
        if entry.fstype == "ramfs":
            return self.os.invoke("RAMFS", "ramfs_fsync", entry.path)
        return self.os.invoke("9PFS", "uk_9pfs_fsync", entry.fid)

    @export(key_arg=0)
    def fcntl(self, fd: int, cmd: str, arg: int = 0) -> int:
        entry = self._entry(fd)
        if cmd == "setfl":
            entry.flags["fl"] = arg
            return 0
        if cmd == "getfl":
            return entry.flags.get("fl", 0)
        entry.flags[cmd] = arg
        return 0

    @export(key_arg=0)
    def ioctl(self, fd: int, request: str, value: int = 0) -> int:
        entry = self._entry(fd)
        if entry.kind == "socket":
            return self.os.invoke("LWIP", "sock_net_ioctl", entry.sock_id,
                                  request, value)
        entry.flags[f"ioctl:{request}"] = value
        return 0

    @export(key_arg=0, canceling=True)
    def close(self, fd: int) -> int:
        entry = self._entry(fd)
        if entry.kind == "file" and entry.fstype == "9pfs":
            self.os.invoke("9PFS", "uk_9pfs_close", entry.fid)
        elif entry.kind == "socket":
            self.os.invoke("LWIP", "sock_net_close", entry.sock_id)
        elif entry.kind in ("pipe_r", "pipe_w"):
            self._close_pipe_end(entry)
        # ramfs files hold no per-descriptor backend state
        self.free(entry.heap_offset)
        del self._fds[fd]
        return 0

    @export(key_from_result=True, session_opener=True)
    def vfscore_vget(self, path: str) -> int:
        """Get (or create) the vnode id for a path."""
        vnode = self._vnodes.get(path)
        if vnode is None:
            vnode = self._next_vnode
            self._next_vnode += 1
            self._vnodes[path] = vnode
        return vnode

    @export(allocates_ids=True)
    def pipe(self) -> Tuple[int, int]:
        pipe_id = self._next_pipe
        self._next_pipe += 1
        self._pipes[pipe_id] = bytearray()
        r_entry = self._new_fd("pipe_r", pipe_id=pipe_id)
        w_entry = self._new_fd("pipe_w", pipe_id=pipe_id)
        return (r_entry.fd, w_entry.fd)

    # --- Table II logged interface: sockets ---------------------------------------------------

    @export(key_from_result=True, session_opener=True)
    def vfs_alloc_socket(self, kind: str = "tcp") -> int:
        sock_id = self.os.invoke("LWIP", "socket", kind)
        entry = self._new_fd("socket", sock_id=sock_id)
        return entry.fd

    @export(key_arg=0)
    def bind(self, fd: int, port: int) -> int:
        entry = self._entry(fd)
        return self.os.invoke("LWIP", "bind", entry.sock_id, port)

    @export(key_arg=0)
    def listen(self, fd: int, backlog: int = 128) -> int:
        entry = self._entry(fd)
        return self.os.invoke("LWIP", "listen", entry.sock_id, backlog)

    @export(key_from_result=True, session_opener=True)
    def accept(self, fd: int) -> Optional[int]:
        """Accept a pending connection; returns the new socket fd."""
        entry = self._entry(fd)
        new_sock = self.os.invoke("LWIP", "accept", entry.sock_id)
        if new_sock is None:
            return None
        new_entry = self._new_fd("socket", sock_id=new_sock)
        return new_entry.fd

    @export(key_arg=0)
    def shutdown(self, fd: int, how: str = "rdwr") -> int:
        entry = self._entry(fd)
        return self.os.invoke("LWIP", "shutdown", entry.sock_id, how)

    @export(key_arg=0, logged=True, state_changing=False)
    def getsockopt(self, fd: int, option: str) -> int:
        entry = self._entry(fd)
        return self.os.invoke("LWIP", "getsockopt", entry.sock_id, option)

    @export(key_arg=0)
    def setsockopt(self, fd: int, option: str, value: int) -> int:
        entry = self._entry(fd)
        return self.os.invoke("LWIP", "setsockopt", entry.sock_id, option,
                              value)

    def _socket_send(self, entry: FdEntry, data: bytes) -> int:
        return self.os.invoke("LWIP", "send", entry.sock_id, data)

    def _socket_recv(self, entry: FdEntry, count: int) -> bytes:
        return self.os.invoke("LWIP", "recv", entry.sock_id, count)

    # --- state-neutral interface (skipped by the log, §V-B) -------------------------------------

    @export(state_changing=False)
    def stat(self, path: str) -> Dict[str, Any]:
        fstype = self._fstype_of(path)
        if fstype == "ramfs":
            return self.os.invoke("RAMFS", "ramfs_stat", path)
        return self.os.invoke("9PFS", "uk_9pfs_stat_path", path)

    @export(state_changing=False)
    def fstat(self, fd: int) -> Dict[str, Any]:
        entry = self._entry(fd)
        if entry.kind == "file":
            return self._stat_entry(entry)
        return {"path": entry.path, "is_dir": False, "size": 0,
                "kind": entry.kind}

    @export(state_changing=False)
    def readdir(self, path: str) -> List[str]:
        fstype = self._fstype_of(path)
        if fstype == "ramfs":
            return self.os.invoke("RAMFS", "ramfs_readdir", path)
        fid = self.os.invoke("9PFS", "uk_9pfs_lookup", path)
        try:
            return self.os.invoke("9PFS", "uk_9pfs_readdir", fid)
        finally:
            self.os.invoke("9PFS", "uk_9pfs_inactive", fid)

    @export(state_changing=False)
    def socket_pending(self, fd: int) -> int:
        entry = self._entry(fd)
        if entry.kind != "socket":
            return 0
        return self.os.invoke("LWIP", "pending_bytes", entry.sock_id)

    @export(state_changing=False)
    def poll_fds(self, fds: List[int]) -> Dict[int, int]:
        """epoll-style readiness: {fd: pending bytes, or -1 on EOF}."""
        sock_map: Dict[int, int] = {}
        out: Dict[int, int] = {}
        for fd in fds:
            entry = self._fds.get(fd)
            if entry is None:
                out[fd] = -1
            elif entry.kind != "socket":
                out[fd] = 0
            else:
                sock_map[entry.sock_id] = fd
        if sock_map:
            pendings = self.os.invoke("LWIP", "poll_set", list(sock_map))
            for sock_id, pending in pendings.items():
                out[sock_map[sock_id]] = pending
        return out

    @export()
    def mkdir(self, path: str) -> int:
        fstype = self._fstype_of(path)
        if fstype == "ramfs":
            return self.os.invoke("RAMFS", "ramfs_mkdir", path)
        return self.os.invoke("9PFS", "uk_9pfs_mkdir", path)

    @export()
    def unlink(self, path: str) -> int:
        fstype = self._fstype_of(path)
        if fstype == "ramfs":
            return self.os.invoke("RAMFS", "ramfs_remove", path)
        return self.os.invoke("9PFS", "uk_9pfs_remove", path)

    # --- pipes -------------------------------------------------------------------------------------

    def _pipe_read(self, entry: FdEntry, count: int) -> bytes:
        buf = self._pipes.get(entry.pipe_id)
        if buf is None:
            raise SyscallError("EPIPE", "pipe gone")
        chunk = bytes(buf[:count])
        del buf[:len(chunk)]
        return chunk

    def _pipe_write(self, entry: FdEntry, data: bytes) -> int:
        buf = self._pipes.get(entry.pipe_id)
        if buf is None:
            raise SyscallError("EPIPE", "pipe gone")
        buf.extend(data)
        return len(data)

    def _close_pipe_end(self, entry: FdEntry) -> None:
        other_open = any(
            e.pipe_id == entry.pipe_id and e.fd != entry.fd
            for e in self._fds.values()
            if e.kind in ("pipe_r", "pipe_w"))
        if not other_open:
            self._pipes.pop(entry.pipe_id, None)

    # --- introspection --------------------------------------------------------------------------------

    def live_fds(self) -> List[int]:
        return sorted(self._fds)

    def fd_entry(self, fd: int) -> FdEntry:
        return self._entry(fd)
