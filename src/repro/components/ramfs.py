"""RAMFS component — an in-memory file system, fully inside the guest.

Not one of the paper's four prototyped applications' components, but a
direct answer to its §VIII call ("we need to prototype components used
in other applications ... to show [VampOS's] applicability more
clearly").  RAMFS is interesting for the recovery machinery because,
unlike 9PFS, the *file contents themselves* are component state:

* content-changing calls (``ramfs_write``, ``ramfs_truncate``,
  ``ramfs_create``, ``ramfs_mkdir``) are logged as **durable** entries
  keyed by path — a session close must not prune them, or replay would
  resurrect empty files;
* ``ramfs_remove`` is a *durable canceling* function: deleting a file
  makes its whole write history unnecessary (§V-F's canceling-function
  idea applied to data, not descriptors);
* threshold-triggered forced shrinking compacts a long write series
  into one synthetic entry holding the file's current bytes
  (``extract_key_state``), exactly the paper's "preserve the offset and
  contents to write" optimisation;
* without any of that, RAMFS is the §V-F caveat component whose log
  "becomes bigger over time" — the shrink ablation demonstrates both
  regimes.

The interface is path-based (no fids): VFS stores the path in its fd
entry and keeps the offset itself, so RAMFS needs no per-descriptor
state at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import posixpath

from ..sim.engine import Simulation
from ..unikernel.component import Component, MemoryLayout, export
from ..unikernel.errors import SyscallError
from ..unikernel.registry import GLOBAL_REGISTRY

#: heap bytes charged per file, plus one unit per content block
FILE_ALLOC_BYTES = 128
CONTENT_BLOCK = 512


@dataclass
class RamfsNode:
    is_dir: bool = False
    data: bytearray = field(default_factory=bytearray)
    heap_offsets: List[int] = field(default_factory=list)


@GLOBAL_REGISTRY.register
class RamfsComponent(Component):
    NAME = "RAMFS"
    STATEFUL = True
    DEPENDENCIES = ()
    LAYOUT = MemoryLayout(text=32 * 1024, data=4 * 1024, bss=4 * 1024,
                          heap_order=19, stack=16 * 1024)

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        self._nodes: Dict[str, RamfsNode] = {}
        self._mounted_at: Optional[str] = None

    def on_boot(self) -> None:
        self._nodes = {"/": RamfsNode(is_dir=True)}
        self._mounted_at = None

    # --- checkpoint state -----------------------------------------------------

    def export_custom_state(self) -> Any:
        return {
            "nodes": {path: {"is_dir": node.is_dir,
                             "data": bytes(node.data),
                             "heap_offsets": list(node.heap_offsets)}
                      for path, node in self._nodes.items()},
            "mounted_at": self._mounted_at,
        }

    def import_custom_state(self, blob: Any) -> None:
        self._nodes = {
            path: RamfsNode(is_dir=raw["is_dir"],
                            data=bytearray(raw["data"]),
                            heap_offsets=list(raw["heap_offsets"]))
            for path, raw in blob["nodes"].items()}
        self._mounted_at = blob["mounted_at"]

    def extract_key_state(self, key: Any) -> Any:
        node = self._nodes.get(key)
        if node is None:
            return None
        return {"is_dir": node.is_dir, "data": bytes(node.data)}

    def apply_key_state(self, key: Any, patch: Any) -> None:
        if patch is None:
            self._drop_node(key)
            return
        node = self._nodes.get(key)
        if node is None:
            node = RamfsNode(is_dir=patch["is_dir"])
            node.heap_offsets.append(self.alloc(FILE_ALLOC_BYTES))
            self._nodes[key] = node
        node.is_dir = patch["is_dir"]
        self._set_content(node, bytearray(patch["data"]))

    # --- helpers ---------------------------------------------------------------------

    def _node(self, path: str) -> RamfsNode:
        node = self._nodes.get(path)
        if node is None:
            raise SyscallError("ENOENT", f"ramfs: {path!r}")
        return node

    def _require_parent(self, path: str) -> None:
        parent = posixpath.dirname(path) or "/"
        node = self._nodes.get(parent)
        if node is None:
            raise SyscallError("ENOENT", f"ramfs: {parent!r}")
        if not node.is_dir:
            raise SyscallError("ENOTDIR", f"ramfs: {parent!r}")

    def _set_content(self, node: RamfsNode, data: bytearray) -> None:
        """Install content, re-charging heap blocks to match its size."""
        node.data = data
        wanted_blocks = 1 + len(data) // CONTENT_BLOCK
        while len(node.heap_offsets) < wanted_blocks:
            node.heap_offsets.append(self.alloc(CONTENT_BLOCK))
        while len(node.heap_offsets) > max(1, wanted_blocks):
            self.free(node.heap_offsets.pop())

    def _drop_node(self, path: str) -> None:
        node = self._nodes.pop(path, None)
        if node is not None:
            for offset in node.heap_offsets:
                self.free(offset)

    # --- interface ----------------------------------------------------------------------

    @export()
    def ramfs_mount(self, mountpoint: str) -> int:
        """Mount: the mountpoint becomes this filesystem's root dir."""
        self._mounted_at = mountpoint
        if mountpoint not in self._nodes:
            node = RamfsNode(is_dir=True)
            node.heap_offsets.append(self.alloc(FILE_ALLOC_BYTES))
            self._nodes[mountpoint] = node
        return 0

    @export(key_arg=0, durable=True)
    def ramfs_create(self, path: str) -> int:
        if path in self._nodes:
            raise SyscallError("EEXIST", f"ramfs: {path!r}")
        self._require_parent(path)
        node = RamfsNode()
        node.heap_offsets.append(self.alloc(FILE_ALLOC_BYTES))
        self._nodes[path] = node
        return 0

    @export(key_arg=0, durable=True)
    def ramfs_mkdir(self, path: str) -> int:
        if path in self._nodes:
            raise SyscallError("EEXIST", f"ramfs: {path!r}")
        self._require_parent(path)
        node = RamfsNode(is_dir=True)
        node.heap_offsets.append(self.alloc(FILE_ALLOC_BYTES))
        self._nodes[path] = node
        return 0

    @export(state_changing=False)
    def ramfs_lookup(self, path: str) -> bool:
        """Whether the path exists (VFS's open-time existence check)."""
        return path in self._nodes

    @export(key_arg=0, durable=True)
    def ramfs_write(self, path: str, offset: int, data: bytes) -> int:
        node = self._node(path)
        if node.is_dir:
            raise SyscallError("EISDIR", f"ramfs: {path!r}")
        content = node.data
        end = offset + len(data)
        if len(content) < end:
            content.extend(b"\x00" * (end - len(content)))
        content[offset:end] = data
        self._set_content(node, content)
        return len(data)

    @export(state_changing=False)
    def ramfs_read(self, path: str, offset: int, count: int) -> bytes:
        node = self._node(path)
        if node.is_dir:
            raise SyscallError("EISDIR", f"ramfs: {path!r}")
        return bytes(node.data[offset:offset + count])

    @export(key_arg=0, durable=True)
    def ramfs_truncate(self, path: str, length: int = 0) -> int:
        node = self._node(path)
        self._set_content(node, node.data[:length])
        return 0

    @export(key_arg=0, canceling=True, durable=True)
    def ramfs_remove(self, path: str) -> int:
        node = self._node(path)
        if node.is_dir and self.ramfs_readdir(path):
            raise SyscallError("ENOTEMPTY", f"ramfs: {path!r}")
        if path == "/":
            raise SyscallError("EBUSY", "cannot remove the ramfs root")
        self._drop_node(path)
        return 0

    @export(state_changing=False)
    def ramfs_stat(self, path: str) -> Dict[str, Any]:
        node = self._node(path)
        return {"path": path, "is_dir": node.is_dir,
                "size": len(node.data)}

    @export(state_changing=False)
    def ramfs_readdir(self, path: str) -> List[str]:
        node = self._node(path)
        if not node.is_dir:
            raise SyscallError("ENOTDIR", f"ramfs: {path!r}")
        prefix = path if path.endswith("/") else path + "/"
        names = set()
        for candidate in self._nodes:
            if candidate != path and candidate.startswith(prefix):
                names.add(candidate[len(prefix):].split("/", 1)[0])
        return sorted(names)

    @export(state_changing=False)
    def ramfs_fsync(self, path: str) -> int:
        """RAM-backed: durability is the component's memory; a no-op."""
        self._node(path)
        return 0
