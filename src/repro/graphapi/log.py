"""Append-only Graph API request log, stored column-wise.

The log records exactly the metadata the paper's countermeasures consume:
who (user/app/token), from where (IP/AS), what (action/target), when, and
whether the request succeeded.  Detection algorithms (SynchroTrap) and the
IP/AS analyses of Fig. 8 all read from here.

Storage is *columnar*: one parallel column per field, with token / IP /
app-id strings interned (one shared object per distinct value) and
actions/outcomes stored as small integer codes.  A scale-0.02 study logs
well over half a million requests, so the old list-of-dataclasses layout
paid a ~9-slot object per request and a full list copy per query.  Here:

* :meth:`append_row` pushes nine scalars onto nine columns (no record
  object on the hot path — :class:`~repro.graphapi.api.GraphApi` calls
  this directly);
* :meth:`all`, :meth:`for_ip`, :meth:`for_app`, :meth:`successes` and
  :meth:`like_requests` return :class:`RecordsView` — a zero-copy,
  lazily-materializing sequence over row indices.  Views are read-only
  windows onto the live log: do not mutate them, and note that a view
  taken before further appends will see the new rows;
* :meth:`like_columns` hands analyses the raw column slices so hot
  consumers (detectors, Fig. 8, IP/AS stats) never materialize row
  objects at all;
* :class:`RequestRecord` survives as the row type — constructible as
  before for tests and ad-hoc callers, but only built on demand when a
  view row is actually touched.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.graphapi.request import ApiAction

#: Stable action <-> code mapping (definition order of the enum).
_ACTIONS: Tuple[ApiAction, ...] = tuple(ApiAction)
_ACTION_CODE: Dict[ApiAction, int] = {a: i for i, a in enumerate(_ACTIONS)}
_LIKE_CODES = frozenset(i for i, a in enumerate(_ACTIONS) if a.is_like)


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """One logged Graph API request (materialized row view)."""

    timestamp: int
    action: ApiAction
    token: str
    user_id: Optional[str]
    app_id: Optional[str]
    target_id: Optional[str]
    source_ip: Optional[str]
    asn: Optional[int]
    outcome: str  # "ok" or an error code


class RecordsView(Sequence):
    """A read-only, lazily materializing window over log rows.

    Holds only the owning log and a sequence of row indices; records are
    built on item access.  Slicing returns another view.
    """

    __slots__ = ("_log", "_rows")

    def __init__(self, log: "RequestLog",
                 rows: Union[range, Sequence[int]]) -> None:
        self._log = log
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RecordsView(self._log, self._rows[index])
        return self._log.record_at(self._rows[index])

    def __iter__(self) -> Iterator[RequestRecord]:
        materialize = self._log.record_at
        for row in self._rows:
            yield materialize(row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordsView({len(self)} records)"


class RequestLog:
    """Columnar request store with row-index secondary indexes."""

    __slots__ = (
        "_ts", "_action", "_token", "_user", "_app", "_target", "_ip",
        "_asn", "_outcome", "_outcome_names", "_outcome_codes",
        "_by_ip", "_by_app", "_like_rows", "_like_ok_rows", "_interned",
        "_pushes", "_journal",
    )

    def __init__(self) -> None:
        self._ts = array("q")
        self._action = array("b")
        self._token: List[str] = []
        self._user: List[Optional[str]] = []
        self._app: List[Optional[str]] = []
        self._target: List[Optional[str]] = []
        self._ip: List[Optional[str]] = []
        self._asn: List[Optional[int]] = []
        self._outcome = array("h")
        self._outcome_names: List[str] = []
        self._outcome_codes: Dict[str, int] = {}
        self._by_ip: Dict[str, array] = {}
        self._by_app: Dict[str, array] = {}
        #: Row indexes of like-action requests (all / successful only).
        self._like_rows = array("q")
        self._like_ok_rows = array("q")
        #: Intern table: one shared object per distinct token/IP/app id.
        self._interned: Dict[str, str] = {}
        #: Bound column appenders in append_row argument order; the
        #: column containers are never replaced after construction.
        self._pushes = (
            self._ts.append, self._action.append, self._token.append,
            self._user.append, self._app.append, self._target.append,
            self._ip.append, self._asn.append, self._outcome.append,
        )
        #: Optional durable WAL mirror (repro.journal); every appended
        #: row is forwarded in export_rows tuple format.
        self._journal = None

    # ------------------------------------------------------------------
    # Durable journal (see repro.journal)
    # ------------------------------------------------------------------
    def attach_journal(self, journal) -> None:
        """Mirror every future append into ``journal`` (WAL)."""
        self._journal = journal

    def detach_journal(self):
        """Stop journaling; returns the detached journal (or ``None``).

        Used when a journaled campaign ends or crashes, and to suspend
        the WAL for a sharded day before any child forks (only the
        parent may write the shared journal: the day merge journals the
        children's rows in serial order).
        """
        journal = self._journal
        self._journal = None
        return journal

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append_row(self, timestamp: int, action: ApiAction, token: str,
                   user_id: Optional[str], app_id: Optional[str],
                   target_id: Optional[str], source_ip: Optional[str],
                   asn: Optional[int], outcome: str) -> None:
        """Append one request as nine column pushes (the hot path)."""
        row = len(self._ts)
        interned = self._interned
        token = interned.setdefault(token, token)
        if source_ip is not None:
            source_ip = interned.setdefault(source_ip, source_ip)
        if app_id is not None:
            app_id = interned.setdefault(app_id, app_id)
        outcome_code = self._outcome_codes.get(outcome)
        if outcome_code is None:
            outcome_code = len(self._outcome_names)
            self._outcome_codes[outcome] = outcome_code
            self._outcome_names.append(outcome)
        code = _ACTION_CODE[action]
        (push_ts, push_action, push_token, push_user, push_app,
         push_target, push_ip, push_asn, push_outcome) = self._pushes
        push_ts(timestamp)
        push_action(code)
        push_token(token)
        push_user(user_id)
        push_app(app_id)
        push_target(target_id)
        push_ip(source_ip)
        push_asn(asn)
        push_outcome(outcome_code)
        if source_ip is not None:
            rows = self._by_ip.get(source_ip)
            if rows is None:
                rows = self._by_ip[source_ip] = array("q")
            rows.append(row)
        if app_id is not None:
            rows = self._by_app.get(app_id)
            if rows is None:
                rows = self._by_app[app_id] = array("q")
            rows.append(row)
        if code in _LIKE_CODES:
            self._like_rows.append(row)
            if outcome == "ok":
                self._like_ok_rows.append(row)
        if self._journal is not None:
            self._journal.append_row(
                (timestamp, code, token, user_id, app_id, target_id,
                 source_ip, asn, outcome))

    def extend_like_rows(self, timestamp: int, action: ApiAction,
                         target_id: Optional[str],
                         tokens: Sequence[str],
                         users: Sequence[Optional[str]],
                         apps: Sequence[Optional[str]],
                         ips: Sequence[Optional[str]],
                         asns: Sequence[Optional[int]],
                         outcomes: Sequence[str]) -> None:
        """Append one delivery wave of like-action rows in bulk.

        All rows share the wave's timestamp, action and target; the
        per-row columns are parallel sequences in row order.  Produces
        the exact log state ``len(tokens)`` :meth:`append_row` calls
        would — same interning, same secondary indexes — while paying
        the column bookkeeping once per wave instead of once per row.
        """
        n = len(tokens)
        if n == 0:
            return
        row0 = len(self._ts)
        interned = self._interned
        setdefault = interned.setdefault
        tokens = [setdefault(t, t) for t in tokens]
        ips = [ip if ip is None else setdefault(ip, ip) for ip in ips]
        apps = [a if a is None else setdefault(a, a) for a in apps]
        outcome_codes = self._outcome_codes
        codes = []
        for outcome in outcomes:
            code = outcome_codes.get(outcome)
            if code is None:
                code = len(self._outcome_names)
                outcome_codes[outcome] = code
                self._outcome_names.append(outcome)
            codes.append(code)
        self._ts.extend((timestamp,) * n)
        self._action.extend((_ACTION_CODE[action],) * n)
        self._token.extend(tokens)
        self._user.extend(users)
        self._app.extend(apps)
        self._target.extend((target_id,) * n)
        self._ip.extend(ips)
        self._asn.extend(asns)
        self._outcome.extend(codes)
        by_ip = self._by_ip
        by_app = self._by_app
        row = row0
        for ip, app_id in zip(ips, apps):
            if ip is not None:
                rows = by_ip.get(ip)
                if rows is None:
                    rows = by_ip[ip] = array("q")
                rows.append(row)
            if app_id is not None:
                rows = by_app.get(app_id)
                if rows is None:
                    rows = by_app[app_id] = array("q")
                rows.append(row)
            row += 1
        if _ACTION_CODE[action] in _LIKE_CODES:
            self._like_rows.extend(range(row0, row0 + n))
            ok = outcome_codes.get("ok")
            if ok is not None:
                self._like_ok_rows.extend(
                    row0 + i for i, code in enumerate(codes) if code == ok)
        if self._journal is not None:
            self._journal.append_row(*zip(
                repeat(timestamp, n), repeat(_ACTION_CODE[action], n),
                tokens, users, apps, repeat(target_id, n), ips, asns,
                outcomes))

    def append(self, record: RequestRecord) -> None:
        """Append a pre-built record (compatibility path)."""
        self.append_row(record.timestamp, record.action, record.token,
                        record.user_id, record.app_id, record.target_id,
                        record.source_ip, record.asn, record.outcome)

    # ------------------------------------------------------------------
    # Shard transfer (see repro.countermeasures.sharding)
    # ------------------------------------------------------------------
    def export_rows(self, start: int) -> List[tuple]:
        """Rows ``[start:]`` as plain picklable tuples.

        The action is exported as its stable enum-order code and the
        outcome as its name, so a delta survives a process boundary
        without carrying this log's intern/code tables along.
        """
        names = self._outcome_names
        return [
            (self._ts[row], self._action[row], self._token[row],
             self._user[row], self._app[row], self._target[row],
             self._ip[row], self._asn[row], names[self._outcome[row]])
            for row in range(start, len(self._ts))
        ]

    def append_exported(self, rows: Sequence[tuple]) -> None:
        """Replay :meth:`export_rows` output through :meth:`append_row`,
        rebuilding interning and every secondary index locally.

        The rows are already in the journal's format, so an attached
        journal takes them all in one call after the log has them.
        """
        journal = self.detach_journal()
        append_row = self.append_row
        actions = _ACTIONS
        for (ts, code, token, user, app, target, ip, asn,
             outcome) in rows:
            append_row(ts, actions[code], token, user, app, target, ip,
                       asn, outcome)
        if journal is not None:
            self.attach_journal(journal)
            if rows:
                journal.append_row(*rows)

    def truncate(self, n: int) -> None:
        """Discard rows ``[n:]``, restoring the state after row ``n-1``.

        Used by shard-worker supervision: a quarantined component's
        partial rows are rolled back before the day is deterministically
        re-executed.  All columns and secondary indexes are trimmed *in
        place* (the bound appenders in ``_pushes`` reference the live
        containers, which must never be replaced).
        """
        if n >= len(self._ts):
            return
        touched_ips = {ip for ip in self._ip[n:] if ip is not None}
        touched_apps = {app for app in self._app[n:] if app is not None}
        for column in (self._ts, self._action, self._token, self._user,
                       self._app, self._target, self._ip, self._asn,
                       self._outcome):
            del column[n:]
        for key in touched_ips:
            rows = self._by_ip[key]
            while rows and rows[-1] >= n:
                rows.pop()
            if not rows:
                del self._by_ip[key]
        for key in touched_apps:
            rows = self._by_app[key]
            while rows and rows[-1] >= n:
                rows.pop()
            if not rows:
                del self._by_app[key]
        for rows in (self._like_rows, self._like_ok_rows):
            while rows and rows[-1] >= n:
                rows.pop()

    def digest(self) -> str:
        """Stable content digest over every row (export tuple format).

        Two logs with the same digest hold byte-identical row sequences;
        the crash-recovery acceptance contract compares exactly this.
        """
        hasher = hashlib.blake2b(digest_size=16)
        names = self._outcome_names
        for row in range(len(self._ts)):
            hasher.update(repr(
                (self._ts[row], self._action[row], self._token[row],
                 self._user[row], self._app[row], self._target[row],
                 self._ip[row], self._asn[row],
                 names[self._outcome[row]])).encode("utf-8"))
        return hasher.hexdigest()

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ts)

    def record_at(self, row: int) -> RequestRecord:
        """Materialize one row as a :class:`RequestRecord`."""
        return RequestRecord(
            timestamp=self._ts[row],
            action=_ACTIONS[self._action[row]],
            token=self._token[row],
            user_id=self._user[row],
            app_id=self._app[row],
            target_id=self._target[row],
            source_ip=self._ip[row],
            asn=self._asn[row],
            outcome=self._outcome_names[self._outcome[row]],
        )

    # ------------------------------------------------------------------
    # Views and selectors (zero-copy; do not mutate results)
    # ------------------------------------------------------------------
    def all(self) -> RecordsView:
        return RecordsView(self, range(len(self._ts)))

    def successes(self) -> RecordsView:
        ok = self._outcome_codes.get("ok")
        if ok is None:
            return RecordsView(self, ())
        outcomes = self._outcome
        return RecordsView(
            self, [i for i in range(len(outcomes)) if outcomes[i] == ok])

    def for_ip(self, source_ip: str) -> RecordsView:
        return RecordsView(self, self._by_ip.get(source_ip, ()))

    def for_app(self, app_id: str) -> RecordsView:
        return RecordsView(self, self._by_app.get(app_id, ()))

    def filter(self, predicate: Callable[[RequestRecord], bool]) -> List[RequestRecord]:
        return [r for r in self.all() if predicate(r)]

    def _like_row_selection(self, since: Optional[int],
                            successful_only: bool) -> Union[array, Sequence[int]]:
        rows = self._like_ok_rows if successful_only else self._like_rows
        if since is not None:
            # Appends are clock-ordered, so timestamps are non-decreasing
            # and the `since` boundary is a binary search.
            ts = self._ts
            lo = bisect_left(rows, since, key=lambda r: ts[r])
            rows = rows[lo:]
        return rows

    def like_requests(self, since: Optional[int] = None,
                      successful_only: bool = True) -> RecordsView:
        """Like-action records, optionally restricted to ``t >= since``."""
        return RecordsView(
            self, self._like_row_selection(since, successful_only))

    def like_columns(self, fields: Sequence[str],
                     since: Optional[int] = None,
                     successful_only: bool = True) -> Tuple[list, ...]:
        """Vectorized selector: raw column slices for like requests.

        ``fields`` names columns among ``action``, ``timestamp``,
        ``token``, ``user_id``, ``app_id``, ``target_id``,
        ``source_ip``, ``asn`` and ``outcome``; one list per field is
        returned, all parallel.
        Hot analyses iterate these with ``zip`` instead of materializing
        a record per row.
        """
        rows = self._like_row_selection(since, successful_only)
        columns = {
            "action": self._action,
            "timestamp": self._ts,
            "token": self._token,
            "user_id": self._user,
            "app_id": self._app,
            "target_id": self._target,
            "source_ip": self._ip,
            "asn": self._asn,
        }
        out = []
        for name in fields:
            if name == "outcome":
                names = self._outcome_names
                codes = self._outcome
                out.append([names[codes[i]] for i in rows])
                continue
            col = columns[name]
            if name == "action":
                out.append([_ACTIONS[col[i]] for i in rows])
                continue
            out.append([col[i] for i in rows])
        return tuple(out)
