"""MiniSQLite — a file-backed relational store (§VI).

Components: PROCESS, SYSINFO, USER, TIMER, VFS, 9PFS, VIRTIO — seven
components; the VampOS build uses ten MPK tags (application + seven
components + message domain + thread scheduler).  No network stack:
SQLite is the one local workload, driven through its query API.

The engine supports the SQL subset the paper's workload needs —
``CREATE TABLE``, ``INSERT``, ``SELECT`` (with ``WHERE col = value``),
``UPDATE``, ``DELETE``, ``BEGIN``/``COMMIT`` — and persists through the
unikernel's file path the way SQLite does: every committed write goes
to the database file via ``pwrite`` and is made durable with a
rollback-journal write plus ``fsync`` per transaction.  The on-disk
format is a row append-log per table; boot recovers the tables by
scanning it, so data survives full reboots (it lives on the host
share).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from ..unikernel.errors import SyscallError, UnikernelError
from .base import UnikernelApp

DB_DIR = "/sqlite"
DB_PATH = f"{DB_DIR}/database.db"
JOURNAL_PATH = f"{DB_DIR}/database.db-journal"


class SqlError(UnikernelError):
    """Bad SQL or constraint violation."""


_CREATE_RE = re.compile(
    r"^\s*CREATE\s+TABLE\s+(\w+)\s*\(([^)]*)\)\s*;?\s*$", re.IGNORECASE)
_INSERT_RE = re.compile(
    r"^\s*INSERT\s+INTO\s+(\w+)\s+VALUES\s*\((.*)\)\s*;?\s*$",
    re.IGNORECASE)
_SELECT_RE = re.compile(
    r"^\s*SELECT\s+(\*|[\w,\s]+)\s+FROM\s+(\w+)"
    r"(?:\s+WHERE\s+(\w+)\s*=\s*(.+?))?\s*;?\s*$", re.IGNORECASE)
_DELETE_RE = re.compile(
    r"^\s*DELETE\s+FROM\s+(\w+)(?:\s+WHERE\s+(\w+)\s*=\s*(.+?))?\s*;?\s*$",
    re.IGNORECASE)
_UPDATE_RE = re.compile(
    r"^\s*UPDATE\s+(\w+)\s+SET\s+(\w+)\s*=\s*(.+?)"
    r"(?:\s+WHERE\s+(\w+)\s*=\s*(.+?))?\s*;?\s*$", re.IGNORECASE)
_TXN_RE = re.compile(r"^\s*(BEGIN|COMMIT|ROLLBACK)\s*;?\s*$",
                     re.IGNORECASE)


def _parse_literal(text: str) -> Any:
    text = text.strip()
    if text.startswith("'") and text.endswith("'") and len(text) >= 2:
        return text[1:-1].replace("''", "'")
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    if re.fullmatch(r"-?\d*\.\d+", text):
        return float(text)
    raise SqlError(f"bad literal: {text!r}")


class MiniSQLite(UnikernelApp):
    NAME = "sqlite"
    COMPONENTS = ("PROCESS", "SYSINFO", "USER", "TIMER", "VFS", "9PFS",
                  "VIRTIO")

    def __init__(self, *args, synchronous: bool = True, **kwargs) -> None:
        #: table -> column names
        self._schemas: Dict[str, List[str]] = {}
        #: table -> list of row tuples
        self._tables: Dict[str, List[Tuple[Any, ...]]] = {}
        self._db_fd: Optional[int] = None
        self._in_txn = False
        self._txn_buffer: List[str] = []
        self.synchronous = synchronous
        self.statements_executed = 0
        super().__init__(*args, **kwargs)

    def prepare_host(self) -> None:
        if not self.share.exists(DB_DIR):
            self.share.makedirs(DB_DIR)
        if not self.share.exists(DB_PATH):
            self.share.create(DB_PATH)

    def setup(self) -> None:
        self.libc.mount("/", "/")
        self._db_fd = self.libc.open(DB_PATH, "rwa")
        self._recover_from_file()

    def reset_state(self) -> None:
        self._schemas = {}
        self._tables = {}
        self._db_fd = None
        self._in_txn = False
        self._txn_buffer = []

    # --- durability ----------------------------------------------------------------------

    def _recover_from_file(self) -> None:
        """Rebuild the in-memory tables from the on-disk append log,
        then complete any statement left in the write-ahead journal by
        a crash (power-cut recovery)."""
        self.libc.lseek(self._db_fd, 0, "set")
        chunks = []
        while True:
            chunk = self.libc.read(self._db_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
        self.libc.lseek(self._db_fd, 0, "end")
        lines = [line for line in
                 b"".join(chunks).decode("utf-8").splitlines()
                 if line.strip()]
        for line in lines:
            self._apply(line, durable=False)
        self._replay_journal(lines[-1] if lines else None)

    def _replay_journal(self, last_db_line: Optional[str]) -> None:
        """A non-empty journal means a crash interrupted `_persist`.

        If the journalled statement already made it to the database
        (crash landed between the db fsync and the journal reset), it
        must not be applied twice; the single-statement journal makes
        the tail comparison sufficient.
        """
        try:
            jfd = self.libc.open(JOURNAL_PATH, "r")
        except SyscallError:
            return
        try:
            content = self.libc.read(jfd, 1 << 16).decode("utf-8")
        finally:
            self.libc.close(jfd)
        statement = content.strip()
        if not statement:
            return
        if statement != (last_db_line or "").strip():
            self._apply(statement, durable=False)
            record = (statement + "\n").encode("utf-8")
            self.libc.write(self._db_fd, record)
            self.libc.fsync(self._db_fd)
            self.sim.emit("sqlite", "journal_recovered",
                          statement=statement[:60])
        self._reset_journal()

    def _persist(self, statement: str) -> None:
        record = (statement.strip() + "\n").encode("utf-8")
        if self.synchronous:
            # Write-ahead journal: journal + fsync, then the database
            # + fsync, then reset the journal — a crash at any point
            # leaves a recoverable state.
            jfd = self._open_journal()
            self.libc.write(jfd, record)
            self.libc.fsync(jfd)
            self.libc.close(jfd)
        self.libc.write(self._db_fd, record)
        if self.synchronous:
            self.libc.fsync(self._db_fd)
            self._reset_journal()

    def _open_journal(self) -> int:
        return self.libc.open(JOURNAL_PATH, "rwct")

    def _reset_journal(self) -> None:
        jfd = self.libc.open(JOURNAL_PATH, "rwct")
        self.libc.close(jfd)

    # --- the SQL surface ----------------------------------------------------------------------

    def execute(self, sql: str) -> List[Tuple[Any, ...]]:
        """Execute one statement; SELECTs return rows, others []."""
        self.statements_executed += 1
        txn = _TXN_RE.match(sql)
        if txn:
            return self._execute_txn_control(txn.group(1).upper())
        if self._in_txn and not sql.lstrip().upper().startswith("SELECT"):
            self._txn_buffer.append(sql)
            return self._apply(sql, durable=False)
        return self._apply(sql, durable=True)

    def _execute_txn_control(self, verb: str) -> List[Tuple[Any, ...]]:
        if verb == "BEGIN":
            if self._in_txn:
                raise SqlError("nested BEGIN")
            self._in_txn = True
            self._txn_buffer = []
        elif verb == "COMMIT":
            if not self._in_txn:
                raise SqlError("COMMIT outside a transaction")
            for statement in self._txn_buffer:
                self._persist(statement)
            self._in_txn = False
            self._txn_buffer = []
        elif verb == "ROLLBACK":
            if not self._in_txn:
                raise SqlError("ROLLBACK outside a transaction")
            # Buffered statements were applied in memory; rebuild from
            # the durable log to discard them.
            self._schemas, self._tables = {}, {}
            self._recover_from_file()
            self._in_txn = False
            self._txn_buffer = []
        return []

    def _apply(self, sql: str, durable: bool) -> List[Tuple[Any, ...]]:
        match = _CREATE_RE.match(sql)
        if match:
            return self._do_create(match, sql, durable)
        match = _INSERT_RE.match(sql)
        if match:
            return self._do_insert(match, sql, durable)
        match = _SELECT_RE.match(sql)
        if match:
            return self._do_select(match)
        match = _DELETE_RE.match(sql)
        if match:
            return self._do_delete(match, sql, durable)
        match = _UPDATE_RE.match(sql)
        if match:
            return self._do_update(match, sql, durable)
        raise SqlError(f"unsupported SQL: {sql!r}")

    def _do_create(self, match: "re.Match[str]", sql: str,
                   durable: bool) -> List[Tuple[Any, ...]]:
        table = match.group(1).lower()
        columns = [c.strip().split()[0].lower()
                   for c in match.group(2).split(",") if c.strip()]
        if not columns:
            raise SqlError("a table needs at least one column")
        if table in self._schemas:
            raise SqlError(f"table {table!r} already exists")
        self._schemas[table] = columns
        self._tables[table] = []
        if durable:
            self._persist(sql)
        return []

    def _table(self, name: str) -> List[Tuple[Any, ...]]:
        table = self._tables.get(name.lower())
        if table is None:
            raise SqlError(f"no such table: {name}")
        return table

    def _do_insert(self, match: "re.Match[str]", sql: str,
                   durable: bool) -> List[Tuple[Any, ...]]:
        table_name = match.group(1).lower()
        rows = self._table(table_name)
        values = tuple(_parse_literal(v)
                       for v in _split_values(match.group(2)))
        expected = len(self._schemas[table_name])
        if len(values) != expected:
            raise SqlError(
                f"table {table_name!r} has {expected} columns, "
                f"got {len(values)} values")
        rows.append(values)
        if durable:
            self._persist(sql)
        return []

    def _do_select(self, match: "re.Match[str]") -> List[Tuple[Any, ...]]:
        projection, table_name = match.group(1), match.group(2).lower()
        rows = self._table(table_name)
        columns = self._schemas[table_name]
        selected = self._filter(rows, columns, match.group(3),
                                match.group(4))
        if projection.strip() == "*":
            return list(selected)
        wanted = [c.strip().lower() for c in projection.split(",")]
        idx = [self._col_index(columns, c) for c in wanted]
        return [tuple(row[i] for i in idx) for row in selected]

    def _do_delete(self, match: "re.Match[str]", sql: str,
                   durable: bool) -> List[Tuple[Any, ...]]:
        table_name = match.group(1).lower()
        rows = self._table(table_name)
        columns = self._schemas[table_name]
        doomed = set(map(id, self._filter(rows, columns, match.group(2),
                                          match.group(3))))
        self._tables[table_name] = [r for r in rows if id(r) not in doomed]
        if durable:
            self._persist(sql)
        return []

    def _do_update(self, match: "re.Match[str]", sql: str,
                   durable: bool) -> List[Tuple[Any, ...]]:
        table_name = match.group(1).lower()
        rows = self._table(table_name)
        columns = self._schemas[table_name]
        set_idx = self._col_index(columns, match.group(2).lower())
        new_value = _parse_literal(match.group(3))
        targets = set(map(id, self._filter(rows, columns, match.group(4),
                                           match.group(5))))
        updated = []
        for row in rows:
            if id(row) in targets:
                row = row[:set_idx] + (new_value,) + row[set_idx + 1:]
            updated.append(row)
        self._tables[table_name] = updated
        if durable:
            self._persist(sql)
        return []

    def _filter(self, rows: List[Tuple[Any, ...]], columns: List[str],
                where_col: Optional[str],
                where_val: Optional[str]) -> List[Tuple[Any, ...]]:
        if where_col is None:
            return list(rows)
        idx = self._col_index(columns, where_col.lower())
        value = _parse_literal(where_val or "")
        return [row for row in rows if row[idx] == value]

    @staticmethod
    def _col_index(columns: List[str], name: str) -> int:
        try:
            return columns.index(name)
        except ValueError:
            raise SqlError(f"no such column: {name}") from None

    # --- introspection ----------------------------------------------------------------------------

    def tables(self) -> List[str]:
        return sorted(self._schemas)

    def row_count(self, table: str) -> int:
        return len(self._table(table))

    def app_state_bytes(self) -> int:
        total = 0
        for rows in self._tables.values():
            for row in rows:
                total += 48 + sum(
                    len(v) if isinstance(v, str) else 8 for v in row)
        return total


def _split_values(raw: str) -> List[str]:
    """Split a VALUES list on commas outside string literals."""
    parts: List[str] = []
    current: List[str] = []
    in_string = False
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "'":
            if in_string and i + 1 < len(raw) and raw[i + 1] == "'":
                current.append("''")
                i += 2
                continue
            in_string = not in_string
            current.append(ch)
        elif ch == "," and not in_string:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    if current or parts:
        parts.append("".join(current))
    if in_string:
        raise SqlError("unterminated string literal")
    return [p for p in (part.strip() for part in parts) if p]
