"""The one persistence primitive of every on-disk store.

Four stores persist state: run checkpoints (:mod:`repro.checkpoint.store`),
series pair states (:mod:`repro.checkpoint.series`), the published
evolution graph (:mod:`repro.service.store`) and census shards
(:mod:`repro.sharding.store`).  Each keeps only its file names, its
payload shape and its recovery policy; the five duties below are
implemented once, here:

* :func:`content_hash` — the canonical hash: SHA-256 over compact,
  sorted-key JSON with ``allow_nan=False``.
* :class:`Envelope` — the one document format::

      {"content_hash": "<sha256>", "payload": {...}, "<schema key>": N}

  written in a single pass (the compact payload is serialized once and
  spliced in by hand, schema key last) and read back verified: the
  schema is checked before the payload, the hash before anything is
  interpreted.  Every defect raises a :class:`CorruptFile` naming the
  file and the defect; an unknown schema raises :class:`UnsupportedSchema`.
* :meth:`WriteSeam.write_if_changed` — write unless the file already
  holds exactly those bytes (content, not existence, is compared, so a
  tampered file is healed by the next write).
* :func:`publish` — manifest-last commit: content-addressed files
  first, then the manifest, whose atomic replace is the commit point.
* :func:`sweep` — delete the files a manifest no longer references;
  in-flight temporary files are never swept.

Every write goes through a :class:`WriteSeam`, the one fault-injection
point: each write is staged in a temporary file in the target's
directory, optionally fsynced, and published with ``os.replace``
(atomic on POSIX and Windows), so a reader never observes a
half-written file.  Tests substitute ``replace`` or arm a crash after a
chosen write (:mod:`repro.checkpoint.faults`) to prove that behaviour
instead of assuming it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type,
    Union,
)

PathLike = Union[str, Path]
#: File content; text is written UTF-8 encoded.
Data = Union[str, bytes]
#: An ``os.replace`` stand-in (the fault seam's substitute).
Replace = Callable[[str, str], None]

#: Suffix of in-flight temporary files (never valid artifacts).
TEMP_SUFFIX = ".tmp"


class CorruptFile(RuntimeError):
    """A store file that cannot be trusted: unreadable, torn, tampered
    with or of another layout.  ``path`` names the file (``None`` when
    the bytes did not come from one) and ``defect`` says what is wrong.
    """

    def __init__(self, path: Optional[PathLike], defect: str) -> None:
        super().__init__(path, defect)
        self.path = None if path is None else Path(path)
        self.defect = defect

    def __str__(self) -> str:
        if self.path is None:
            return self.defect
        return f"{self.path}: {self.defect}"


class UnsupportedSchema(CorruptFile):
    """The file declares a schema version this build cannot read."""


class SimulatedCrash(RuntimeError):
    """Stands in for an abrupt process death in fault-injection tests.

    Raised *after* the triggering write hit the disk, so the on-disk
    state is indistinguishable from a real kill at that point.  Nothing
    in the program catches it.
    """


def failing_os_replace(src: str, dst: str) -> None:
    """An ``os.replace`` stand-in that always fails: a crash (or I/O
    error) between staging a file and publishing it."""
    raise OSError(
        f"injected failure: os.replace({src!r}, {dst!r}) never happened"
    )


def _canonical(payload: object) -> str:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def content_hash(payload: object) -> str:
    """SHA-256 over the compact canonical JSON form of ``payload``."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def check_file(
    path: PathLike, digest: str, corrupt: Type[CorruptFile], what: str
) -> None:
    """Verify that the bytes of ``path`` hash to ``digest`` (SHA-256,
    read in blocks, so a large file is never copied whole)."""
    actual = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                actual.update(block)
    except OSError as error:
        raise corrupt(path, f"cannot read {what}: {error}") from None
    if actual.hexdigest() != digest:
        raise corrupt(path, f"{what} content hash mismatch: manifest records "
                            f"{digest}, file holds {actual.hexdigest()}")


def is_temp_artifact(path: PathLike) -> bool:
    """True for the temporary files a write publishes from — directory
    scanners must skip these, never parse or sweep them."""
    name = Path(path).name
    return name.startswith(".") and name.endswith(TEMP_SUFFIX)


# -- writing ---------------------------------------------------------------


def atomic_write_text(
    path: PathLike,
    text: Data,
    encoding: str = "utf-8",
    replace: Optional[Replace] = None,
    fsync: bool = True,
) -> Path:
    """Write ``text`` (or bytes) to ``path`` atomically.

    The content first goes to a fresh temporary file next to ``path``
    (same directory, therefore same filesystem), is flushed and — by
    default — fsynced, and only then renamed over the target with
    ``os.replace`` (atomic on POSIX and Windows).  On any failure the
    temporary file is unlinked and the original ``path`` is left
    untouched.  ``replace`` substitutes ``os.replace`` for
    fault-injection tests.  Returns ``path`` as a :class:`Path`.
    """
    data = text.encode(encoding) if isinstance(text, str) else text
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=f".{target.name}.", suffix=TEMP_SUFFIX
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        (replace or os.replace)(temp_name, str(target))
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return target


class WriteSeam:
    """The one write path of every store, and its one fault seam.

    ``replace`` substitutes ``os.replace`` in every write; ``writes``
    counts the writes attempted.  Tests arm two faults:

    * ``fail_replace_at=n`` — the ``n``-th write is staged but its
      publish fails (:func:`failing_os_replace`): a kill mid-write;
    * ``crash_after_writes=n`` or ``crash_after_names`` — raise
      :class:`SimulatedCrash` once the ``n``-th write, or a file of one
      of those names, is on disk: a kill between two writes.
    """

    def __init__(
        self,
        replace: Optional[Replace] = None,
        fail_replace_at: Optional[int] = None,
        crash_after_writes: Optional[int] = None,
        crash_after_names: Iterable[str] = (),
    ) -> None:
        self.replace = replace
        self.fail_replace_at = fail_replace_at
        self.crash_after_writes = crash_after_writes
        self.crash_after_names = frozenset(crash_after_names)
        self.writes = 0

    def write(self, path: PathLike, data: Data, fsync: bool = True) -> Path:
        """Write ``data`` to ``path`` atomically, fsynced unless
        ``fsync`` is false."""
        self.writes += 1
        failing = self.writes == self.fail_replace_at
        target = atomic_write_text(
            path, data, fsync=fsync,
            replace=failing_os_replace if failing else self.replace,
        )
        if target.name in self.crash_after_names or (
            self.crash_after_writes is not None
            and self.writes >= self.crash_after_writes
        ):
            raise SimulatedCrash(
                f"simulated kill after write {self.writes} ({target.name})"
            )
        return target

    def write_if_changed(
        self, path: PathLike, data: Data, fsync: bool = True
    ) -> bool:
        """Write unless ``path`` already holds exactly these bytes;
        returns whether a write happened."""
        data = data.encode("utf-8") if isinstance(data, str) else data
        try:
            if Path(path).read_bytes() == data:
                return False
        except OSError:
            pass
        self.write(path, data, fsync=fsync)
        return True


def publish(
    seam: WriteSeam,
    files: Iterable[Tuple[Path, Data, bool]],
    manifest_path: Path,
    manifest: Callable[[], str],
) -> Tuple[List[Path], List[Path], bool]:
    """Manifest-last commit of content-addressed files.

    Each ``(path, data, fsync)`` of ``files`` is written unless already
    on disk; only then is ``manifest()`` built and written (fsynced), so
    ``files`` may be a generator that records what the manifest will
    reference.  A crash before the manifest's atomic replace leaves at
    worst unreferenced files beside the intact previous view.  Returns
    the paths written, the paths left unchanged and whether the
    manifest was written.
    """
    written: List[Path] = []
    unchanged: List[Path] = []
    for path, data, fsync in files:
        changed = seam.write_if_changed(path, data, fsync=fsync)
        (written if changed else unchanged).append(path)
    return written, unchanged, seam.write_if_changed(manifest_path, manifest())


def sweep(
    directory: PathLike, owned: "re.Pattern[str]", keep: Set[str]
) -> List[Path]:
    """Delete the files under ``directory`` whose relative POSIX path
    fully matches ``owned`` and is not in ``keep``; returns them.
    Unknown files and in-flight temporary files are never touched."""
    removed: List[Path] = []
    directory = Path(directory)
    for path in sorted(directory.rglob("*")):
        relative = path.relative_to(directory).as_posix()
        if (relative not in keep and owned.fullmatch(relative)
                and not is_temp_artifact(path) and path.is_file()):
            path.unlink()
            removed.append(path)
    return removed


# -- the document envelope -------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """One store's document format (module docstring).

    Formats differ only in ``schema_key`` and ``version``; ``noun``
    names the format in messages, ``corrupt`` and ``unsupported`` are
    the errors it raises and ``hint`` tells the reader of an
    unsupported schema what to do.
    """

    schema_key: str
    version: int
    noun: str
    corrupt: Type[CorruptFile] = CorruptFile
    unsupported: Type[UnsupportedSchema] = UnsupportedSchema
    hint: str = ""

    def seal(self, payload: Dict[str, object]) -> Tuple[str, str]:
        """The document text of ``payload`` and its content hash.

        Floats are serialized verbatim (shortest round-trip repr) and the
        payload exactly once; keys are spliced in sorted order, as
        ``json.dumps(sort_keys=True)`` would write them.
        """
        payload_text = _canonical(payload)
        digest = hashlib.sha256(payload_text.encode("utf-8")).hexdigest()
        return (
            f'{{"content_hash":"{digest}","payload":{payload_text},'
            f'"{self.schema_key}":{self.version}}}\n'
        ), digest

    def dumps(self, payload: Dict[str, object]) -> str:
        return self.seal(payload)[0]

    def read(
        self,
        path: Optional[PathLike] = None,
        data: Optional[Data] = None,
        what: Optional[str] = None,
    ) -> Tuple[Dict[str, object], str]:
        """Verify a document — ``data``, or the bytes of ``path`` —
        and return ``(payload, content hash)``.  ``what`` names the
        document in messages (default ``noun``)."""
        what = what or self.noun
        try:
            if data is None:
                data = Path(path).read_bytes()
        except OSError as error:
            raise self.corrupt(path, f"cannot read {what}: {error}") from None
        try:
            if isinstance(data, bytes):
                data = data.decode("utf-8")
            document = json.loads(data)
        except ValueError as error:
            raise self.corrupt(
                path, f"{what} is not valid JSON: {error}"
            ) from None
        if not isinstance(document, dict):
            raise self.corrupt(path, f"{what} must be an object, got "
                                     f"{type(document).__name__}")
        schema = document.get(self.schema_key)
        if schema != self.version:
            raise self.unsupported(
                path, f"unsupported {self.noun} schema {schema!r} (this build "
                      f"reads schema {self.version}){self.hint}")
        payload = document.get("payload")
        declared = document.get("content_hash")
        if payload is None or declared is None:
            raise self.corrupt(
                path, f"{what} lacks a payload/content_hash section"
            )
        actual = content_hash(payload)
        if actual != declared:
            raise self.corrupt(
                path, f"{what} content hash mismatch: declared {declared}, "
                      f"recomputed {actual} — the payload was altered after "
                      f"it was written")
        return payload, actual

    def build(
        self,
        factory: Callable[[Dict[str, object]], object],
        path: Optional[PathLike] = None,
        data: Optional[Data] = None,
    ):
        """``factory(payload)`` of the verified document, inside
        :meth:`malformed`."""
        payload, _ = self.read(path, data)
        with self.malformed(path):
            return factory(payload)

    @contextlib.contextmanager
    def malformed(
        self, path: Optional[PathLike], what: Optional[str] = None
    ) -> Iterator[None]:
        """Interpret a verified payload inside this block: a missing key
        or a value of the wrong shape raises the corrupt error."""
        try:
            yield
        except (KeyError, IndexError, TypeError, ValueError) as error:
            raise self.corrupt(path, f"{what or self.noun} payload is missing "
                                     f"or malformed: {error!r}") from None
