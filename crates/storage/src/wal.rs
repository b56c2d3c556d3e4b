//! Net-effect write-ahead log and full-database snapshots.
//!
//! The paper's central object — the *net effect* of a rule-processing
//! transition (\[WF90\]) — is exactly the unit this module logs durably: a
//! committed transition is captured as a [`CommitDelta`] (schemas created,
//! per-tuple row operations, the allocator position, optionally the full
//! rule-program text when DDL changed it) and appended to an on-disk log.
//! Periodically the whole database is written as a snapshot keyed by the
//! canonical content digest, and the log is truncated.
//!
//! # File layout
//!
//! A store directory holds two files:
//!
//! * `wal.log` — an 8-byte magic header followed by records framed as
//!   `[len: u32 LE][checksum: u64 LE][payload]`, where the checksum is
//!   `mix64(fnv64(payload))`. Recovery replays records in order and
//!   **truncates the torn tail**: the first incomplete or checksum-failing
//!   record and everything after it is discarded (a crash mid-append loses
//!   at most the unacknowledged record). A whole record that fails its
//!   checksum *with a valid record right behind it* is not a torn tail but
//!   damage to acknowledged commits, and the store refuses to open.
//! * `snapshot.bin` — a complete database image plus the rule-program text,
//!   written to a temp file, fsynced, then atomically renamed into place.
//!
//! # Sequence numbers
//!
//! Every commit record carries a monotonically increasing sequence number
//! and the snapshot records the last sequence it contains. Snapshot rotation
//! writes the snapshot *first* and truncates the log *second*, so a crash
//! between the two leaves log records the snapshot already covers; recovery
//! skips records with `seq <= snapshot.last_seq` instead of double-applying
//! them (deltas are not idempotent).
//!
//! # Verification
//!
//! Each commit record stores the post-state digest; replay recomputes the
//! incremental digest and fails with [`StorageError::RecoveryMismatch`] on
//! any divergence, so corruption that survives the per-record checksum is
//! still caught at the state level. The snapshot digest is checked the same
//! way.
//!
//! # Fault injection
//!
//! A shared [`FaultState`] (see [`crate::fault`]) can be attached; appends,
//! fsyncs, and snapshot writes observe `WalAppend` / `WalSync` /
//! `SnapshotWrite` operations on the pseudo-tables `__wal__` and
//! `__snapshot__`. An injected `WalAppend` deliberately leaves a **torn
//! half-frame** on disk before failing, so the recovery truncation path is
//! exercised by the crash-point harness, not just by unit tests.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::database::Database;
use crate::digest::{mix64, Fnv64};
use crate::error::StorageError;
use crate::fault::{FaultOpKind, FaultState};
use crate::schema::{ColumnDef, TableSchema};
use crate::tuple::{Row, TupleId};
use crate::value::{Value, ValueType};

/// Magic header of `wal.log`.
const WAL_MAGIC: &[u8; 8] = b"STRLWAL1";
/// Magic header of `snapshot.bin`.
const SNAP_MAGIC: &[u8; 8] = b"STRLSNP1";
const WAL_FILE: &str = "wal.log";
const SNAP_FILE: &str = "snapshot.bin";
const SNAP_TMP: &str = "snapshot.tmp";
/// Pseudo-table names reported to the fault injector.
const WAL_TABLE: &str = "__wal__";
const SNAP_TABLE: &str = "__snapshot__";
/// Reject frames larger than this on read: a corrupted length prefix must
/// not trigger a multi-gigabyte allocation.
const MAX_RECORD_BYTES: u32 = 1 << 30;
/// In [`SyncPolicy::Batch`] mode, fsync after this many appends.
const BATCH_SYNC_EVERY: u64 = 32;

/// When appended records are fsynced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Every append is fsynced before it is acknowledged: an acknowledged
    /// commit survives `kill -9`.
    #[default]
    Always,
    /// Fsync every 32 appends (`BATCH_SYNC_EVERY`) and at snapshot/detach
    /// points: higher throughput, a crash may lose the last unsynced batch
    /// (recovery still lands on a consistent earlier state).
    Batch,
}

impl SyncPolicy {
    /// Parses a policy name as used by `--sync` flags.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "always" => Some(SyncPolicy::Always),
            "batch" => Some(SyncPolicy::Batch),
            _ => None,
        }
    }

    /// The flag-level name.
    pub fn name(self) -> &'static str {
        match self {
            SyncPolicy::Always => "always",
            SyncPolicy::Batch => "batch",
        }
    }
}

/// One logged row-level operation, keyed by the stable [`TupleId`] so
/// replay composes per tuple exactly as the \[WF90\] net effect does.
#[derive(Clone, Debug, PartialEq)]
pub enum RowOp {
    /// Tuple present in post but not base.
    Insert {
        table: String,
        id: TupleId,
        row: Row,
    },
    /// Tuple present in both with different values; `row` is the post image.
    Update {
        table: String,
        id: TupleId,
        row: Row,
    },
    /// Tuple present in base but not post.
    Delete { table: String, id: TupleId },
}

/// The net effect of one committed transition: everything needed to carry a
/// database from the pre-state to the post-state.
#[derive(Clone, Debug, PartialEq)]
pub struct CommitDelta {
    /// Monotonic sequence number, stamped by [`WalStore::append_commit`].
    pub seq: u64,
    /// Schemas created by this transition (the language has no `DROP
    /// TABLE`, so schema DDL is append-only).
    pub created: Vec<TableSchema>,
    /// Row operations, composed per tuple.
    pub ops: Vec<RowOp>,
    /// The full rule-program text after this transition, if rule DDL or a
    /// refinement directive (`CERTIFY` / `ORDER`) changed it. **Replace**
    /// semantics: recovery keeps only the latest program text.
    pub rules: Option<String>,
    /// Exact allocator position of the post-state.
    pub next_tuple_id: u64,
    /// Canonical digest of the post-state, verified on replay.
    pub post_digest: u64,
}

impl CommitDelta {
    /// Computes the net effect carrying `base` to `post` by structural
    /// diff, which captures *everything* that changed — including DDL
    /// executed outside any transaction snapshot. `seq` is left 0 for
    /// [`WalStore::append_commit`] to stamp.
    pub fn diff(base: &Database, post: &Database) -> CommitDelta {
        let mut created = Vec::new();
        for schema in post.catalog().tables() {
            if !base.catalog().contains(&schema.name) {
                created.push(schema.clone());
            }
        }
        let mut ops = Vec::new();
        for table in post.tables() {
            let name = table.name();
            match base.table(name) {
                Err(_) => {
                    ops.reserve(table.len());
                    for (id, row) in table.iter() {
                        ops.push(RowOp::Insert {
                            table: name.to_owned(),
                            id,
                            row: row.clone(),
                        });
                    }
                }
                // Costs the chunks the two versions do not share (none at
                // all for an untouched table).
                Ok(old) => ops.extend(old.diff(table).map(|(id, was, now)| {
                    let table = name.to_owned();
                    match (was, now) {
                        (_, None) => RowOp::Delete { table, id },
                        (Some(_), Some(row)) => RowOp::Update {
                            table,
                            id,
                            row: row.clone(),
                        },
                        (None, Some(row)) => RowOp::Insert {
                            table,
                            id,
                            row: row.clone(),
                        },
                    }
                })),
            }
        }
        CommitDelta {
            seq: 0,
            created,
            ops,
            rules: None,
            next_tuple_id: post.next_tuple_id(),
            post_digest: post.state_digest(),
        }
    }

    /// Applies the delta to `db` — its rows move in, they are not copied —
    /// and verifies the resulting digest against the logged post-state
    /// digest.
    pub fn apply(self, db: &mut Database) -> Result<(), StorageError> {
        for schema in self.created {
            db.create_table(schema)?;
        }
        for op in self.ops {
            match op {
                RowOp::Insert { table, id, row } => db.insert_with_id(&table, id, row)?,
                RowOp::Update { table, id, row } => {
                    db.update(&table, id, row)?;
                }
                RowOp::Delete { table, id } => {
                    db.delete(&table, id)?;
                }
            }
        }
        db.set_next_tuple_id(self.next_tuple_id);
        let found = db.state_digest();
        if found != self.post_digest {
            return Err(StorageError::RecoveryMismatch {
                expected: self.post_digest,
                found,
            });
        }
        Ok(())
    }

    /// Whether the delta changes anything at all.
    pub fn is_empty(&self) -> bool {
        self.created.is_empty() && self.ops.is_empty() && self.rules.is_none()
    }
}

/// The state reconstructed by [`WalStore::open`].
#[derive(Debug)]
pub struct Recovered {
    /// The recovered database (snapshot plus replayed WAL tail).
    pub db: Database,
    /// The latest persisted rule-program text (empty if none was logged).
    pub rules_text: String,
    /// The last applied commit sequence number (0 if none).
    pub last_seq: u64,
    /// Number of WAL records applied (excluding ones the snapshot covered).
    pub records_applied: usize,
    /// Bytes discarded from the torn tail, if any.
    pub truncated_bytes: u64,
    /// Whether a snapshot file was loaded.
    pub snapshot_loaded: bool,
}

impl Recovered {
    /// Whether the store held no durable state at all.
    pub fn is_empty(&self) -> bool {
        !self.snapshot_loaded && self.last_seq == 0 && self.rules_text.is_empty()
    }
}

/// An open durable store: the WAL file handle plus append/snapshot state.
#[derive(Debug)]
pub struct WalStore {
    dir: PathBuf,
    wal: File,
    /// Logical end of the log; bytes past it are torn garbage awaiting
    /// overwrite (rejected by checksum if ever read back).
    wal_len: u64,
    /// Whether a failed append may have left garbage past `wal_len`.
    dirty_tail: bool,
    next_seq: u64,
    sync: SyncPolicy,
    appends_since_sync: u64,
    fault: Option<Arc<FaultState>>,
}

impl WalStore {
    /// Opens (creating if absent) the store at `dir` and recovers its
    /// state: latest valid snapshot, then the WAL tail, truncating torn
    /// trailing records and verifying every digest along the way.
    pub fn open(
        dir: impl AsRef<Path>,
        sync: SyncPolicy,
    ) -> Result<(WalStore, Recovered), StorageError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| wal_err("create store dir", &e))?;

        let (mut db, mut rules_text, mut last_seq, snapshot_loaded) =
            match read_snapshot(&dir.join(SNAP_FILE))? {
                Some((db, rules, seq)) => (db, rules, seq, true),
                None => (Database::new(), String::new(), 0, false),
            };

        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(WAL_FILE))
            .map_err(|e| wal_err("open wal.log", &e))?;
        let mut bytes = Vec::new();
        wal.read_to_end(&mut bytes)
            .map_err(|e| wal_err("read wal.log", &e))?;

        if bytes.len() < WAL_MAGIC.len() || !bytes.starts_with(WAL_MAGIC) {
            if WAL_MAGIC.starts_with(&bytes[..]) {
                // Empty or torn header write: reinitialize.
                wal.set_len(0)
                    .map_err(|e| wal_err("truncate wal.log", &e))?;
                wal.seek(SeekFrom::Start(0))
                    .map_err(|e| wal_err("seek wal.log", &e))?;
                wal.write_all(WAL_MAGIC)
                    .map_err(|e| wal_err("write wal magic", &e))?;
                bytes = WAL_MAGIC.to_vec();
            } else {
                return Err(StorageError::Wal(format!(
                    "{} is not a starling wal (bad magic)",
                    dir.join(WAL_FILE).display()
                )));
            }
        }

        // Replay, remembering where the last fully valid record ends.
        let mut pos = WAL_MAGIC.len();
        let mut records_applied = 0usize;
        while let Some((payload, end)) = next_frame(&bytes, pos) {
            let mut delta = decode_delta(payload)?;
            if delta.seq > last_seq {
                if delta.seq != last_seq + 1 {
                    return Err(StorageError::Wal(format!(
                        "wal sequence gap: expected {}, found {}",
                        last_seq + 1,
                        delta.seq
                    )));
                }
                last_seq = delta.seq;
                if let Some(text) = delta.rules.take() {
                    rules_text = text;
                }
                delta.apply(&mut db)?;
                records_applied += 1;
            }
            // Records with seq <= snapshot last_seq were covered by the
            // snapshot (crash between snapshot rename and log truncation).
            pos = end;
        }

        // The scan stopped at `pos`. A crash tears only the end of the log;
        // a whole record that fails its checksum with a valid one right
        // behind it is damage to acknowledged commits, which truncation
        // would silently drop.
        if let Some((_, _, end)) = frame_at(&bytes, pos) {
            if next_frame(&bytes, end).is_some() {
                return Err(StorageError::Wal(format!(
                    "{}: corrupt record at byte {pos} is followed by a valid record at byte \
                     {end}; refusing to truncate acknowledged commits",
                    dir.join(WAL_FILE).display()
                )));
            }
        }

        let truncated_bytes = (bytes.len() - pos) as u64;
        if truncated_bytes > 0 {
            wal.set_len(pos as u64)
                .map_err(|e| wal_err("truncate torn tail", &e))?;
        }
        wal.seek(SeekFrom::Start(pos as u64))
            .map_err(|e| wal_err("seek wal.log", &e))?;

        let store = WalStore {
            dir,
            wal,
            wal_len: pos as u64,
            dirty_tail: false,
            next_seq: last_seq + 1,
            sync,
            appends_since_sync: 0,
            fault: None,
        };
        let recovered = Recovered {
            db,
            rules_text,
            last_seq,
            records_applied,
            truncated_bytes,
            snapshot_loaded,
        };
        Ok((store, recovered))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next commit will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Attaches (or clears) a shared fault injector; WAL appends, syncs,
    /// and snapshot writes will observe it.
    pub fn set_fault_state(&mut self, fault: Option<Arc<FaultState>>) {
        self.fault = fault;
    }

    fn check_fault(&self, op: FaultOpKind, table: &str) -> Result<(), StorageError> {
        if let Some(state) = &self.fault {
            if let Some(op_index) = state.observe(op, table) {
                return Err(StorageError::Injected {
                    op_index,
                    op,
                    table: table.to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Stamps the next sequence number on `delta` and appends it. On
    /// success the record is durable per the sync policy; on failure the
    /// log's logical state is unchanged (a torn partial frame may remain on
    /// disk, to be overwritten by the next append and rejected by checksum
    /// if the process dies first).
    pub fn append_commit(&mut self, delta: &mut CommitDelta) -> Result<(), StorageError> {
        delta.seq = self.next_seq;
        // The payload is encoded behind room for its header, so the frame
        // of a large commit (a first image) is built once, not copied.
        let mut e = Enc::new();
        e.buf.resize(FRAME_HEADER, 0);
        encode_delta(delta, &mut e);
        let mut frame = e.buf;
        let (len, sum) = (frame.len() - FRAME_HEADER, checksum(&frame[FRAME_HEADER..]));
        frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
        frame[4..FRAME_HEADER].copy_from_slice(&sum.to_le_bytes());

        if let Err(e) = self.check_fault(FaultOpKind::WalAppend, WAL_TABLE) {
            // Simulate a crash mid-append: half the frame reaches the disk.
            let torn = &frame[..frame.len() / 2];
            let _ = self.wal.seek(SeekFrom::Start(self.wal_len));
            let _ = self.wal.write_all(torn);
            let _ = self.wal.flush();
            self.dirty_tail = true;
            return Err(e);
        }

        self.wal
            .seek(SeekFrom::Start(self.wal_len))
            .map_err(|e| wal_err("seek for append", &e))?;
        self.wal
            .write_all(&frame)
            .map_err(|e| wal_err("append record", &e))?;
        self.wal_len += frame.len() as u64;
        if self.dirty_tail {
            // Clear stale torn bytes that a shorter successful frame did
            // not overwrite.
            self.wal
                .set_len(self.wal_len)
                .map_err(|e| wal_err("trim dirty tail", &e))?;
            self.dirty_tail = false;
        }
        self.next_seq += 1;

        let synced = match self.sync {
            SyncPolicy::Always => self.sync_now(),
            SyncPolicy::Batch => {
                self.appends_since_sync += 1;
                if self.appends_since_sync >= BATCH_SYNC_EVERY {
                    self.sync_now()
                } else {
                    Ok(())
                }
            }
        };
        if let Err(e) = synced {
            // The frame is complete on disk but the caller will report the
            // commit as failed — left in place it would be *replayed* on
            // recovery, resurrecting a commit nobody acknowledged. Roll the
            // log back to the pre-append boundary. (Only this frame is
            // dropped: earlier batched-but-unsynced frames were
            // acknowledged under the Batch contract and stay.)
            self.wal_len -= frame.len() as u64;
            self.next_seq -= 1;
            self.wal
                .set_len(self.wal_len)
                .map_err(|te| wal_err("roll back unsynced frame", &te))?;
            return Err(e);
        }
        Ok(())
    }

    /// Forces an fsync of the log.
    pub fn sync_now(&mut self) -> Result<(), StorageError> {
        self.check_fault(FaultOpKind::WalSync, WAL_TABLE)?;
        self.wal
            .sync_data()
            .map_err(|e| wal_err("fsync wal.log", &e))?;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Writes a full snapshot of `db` (plus the current rule-program text)
    /// and truncates the log. The snapshot lands via temp-file + fsync +
    /// atomic rename *before* the log is touched, so a crash at any point
    /// leaves a recoverable store (see module docs on sequence numbers).
    pub fn snapshot(&mut self, db: &Database, rules_text: &str) -> Result<(), StorageError> {
        self.check_fault(FaultOpKind::SnapshotWrite, SNAP_TABLE)?;
        // Unsynced batched appends must be on disk before the log shrinks.
        self.sync_now()?;
        let last_seq = self.next_seq - 1;
        let tmp = self.dir.join(SNAP_TMP);
        let snap = self.dir.join(SNAP_FILE);
        {
            let mut f = File::create(&tmp).map_err(|e| wal_err("create snapshot.tmp", &e))?;
            write_snapshot(&mut f, db, rules_text, last_seq)
                .map_err(|e| wal_err("write snapshot", &e))?;
            f.sync_data().map_err(|e| wal_err("fsync snapshot", &e))?;
        }
        std::fs::rename(&tmp, &snap).map_err(|e| wal_err("rename snapshot", &e))?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.wal
            .set_len(WAL_MAGIC.len() as u64)
            .map_err(|e| wal_err("truncate wal after snapshot", &e))?;
        self.wal_len = WAL_MAGIC.len() as u64;
        self.dirty_tail = false;
        self.wal
            .seek(SeekFrom::Start(self.wal_len))
            .map_err(|e| wal_err("seek wal.log", &e))?;
        self.wal
            .sync_data()
            .map_err(|e| wal_err("fsync truncated wal", &e))?;
        Ok(())
    }
}

fn wal_err(op: &str, e: &std::io::Error) -> StorageError {
    StorageError::Wal(format!("{op}: {e}"))
}

/// Bytes of a frame before its payload: `u32` length, `u64` checksum.
const FRAME_HEADER: usize = 12;

fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(payload);
    mix64(h.finish())
}

/// The whole frame starting at `pos` as `(payload, stored checksum, end)`,
/// or `None` if the remaining bytes are too few for the length its header
/// claims, or the length is out of range.
fn frame_at(bytes: &[u8], pos: usize) -> Option<(&[u8], u64, usize)> {
    let rest = &bytes[pos..];
    if rest.len() < FRAME_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
    if len > MAX_RECORD_BYTES {
        return None;
    }
    let sum = u64::from_le_bytes(rest[4..FRAME_HEADER].try_into().unwrap());
    let end = FRAME_HEADER.checked_add(len as usize)?;
    if rest.len() < end {
        return None;
    }
    Some((&rest[FRAME_HEADER..end], sum, pos + end))
}

/// Extracts the frame starting at `pos`, returning `(payload, end)` or
/// `None` if the remaining bytes are incomplete or fail the checksum.
fn next_frame(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let (payload, sum, end) = frame_at(bytes, pos)?;
    (checksum(payload) == sum).then_some((payload, end))
}

// ---------------------------------------------------------------------------
// Binary codec. Little-endian throughout; strings and vectors are
// u32-length-prefixed; floats are encoded via `to_bits` so the byte image
// round-trips NaN payloads and signed zeros exactly.

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.u8(*b as u8);
            }
            Value::Int(i) => {
                self.u8(2);
                self.u64(*i as u64);
            }
            Value::Float(f) => {
                self.u8(3);
                self.u64(f.to_bits());
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s);
            }
        }
    }

    fn row(&mut self, row: &Row) {
        self.u32(row.len() as u32);
        for v in row {
            self.value(v);
        }
    }

    fn schema(&mut self, schema: &TableSchema) {
        self.str(&schema.name);
        self.u32(schema.columns.len() as u32);
        for c in &schema.columns {
            self.str(&c.name);
            self.u8(match c.ty {
                ValueType::Bool => 0,
                ValueType::Int => 1,
                ValueType::Float => 2,
                ValueType::Str => 3,
            });
            self.u8(c.nullable as u8);
        }
    }
}

/// Decoder over the next `left` bytes of a source: a record payload
/// (`&[u8]`), or a snapshot file read a buffer's worth at a time.
struct Dec<R> {
    src: R,
    left: u64,
}

impl<R: Read> Dec<R> {
    fn new(src: R, len: u64) -> Self {
        Dec { src, left: len }
    }

    fn truncated() -> StorageError {
        StorageError::Wal("truncated record payload".into())
    }

    /// Fills `buf` with the next bytes of the input.
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), StorageError> {
        self.left = self
            .left
            .checked_sub(buf.len() as u64)
            .ok_or_else(Self::truncated)?;
        self.src.read_exact(buf).map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => Self::truncated(),
            _ => wal_err("read", &e),
        })
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StorageError> {
        let mut bytes = [0; N];
        self.fill(&mut bytes)?;
        Ok(bytes)
    }

    fn done(&self) -> bool {
        self.left == 0
    }

    fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn str(&mut self) -> Result<String, StorageError> {
        let n = self.u32()? as usize;
        // Checked against what is left of the input before allocating: a
        // corrupt length cannot ask for gigabytes.
        if n as u64 > self.left {
            return Err(Self::truncated());
        }
        let mut bytes = vec![0; n];
        self.fill(&mut bytes)?;
        String::from_utf8(bytes).map_err(|_| StorageError::Wal("invalid UTF-8 in record".into()))
    }

    fn value(&mut self) -> Result<Value, StorageError> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.u64()? as i64),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::Str(self.str()?),
            tag => return Err(StorageError::Wal(format!("unknown value tag {tag}"))),
        })
    }

    fn row(&mut self) -> Result<Row, StorageError> {
        let n = self.u32()? as usize;
        let mut row = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            row.push(self.value()?);
        }
        Ok(row)
    }

    fn schema(&mut self) -> Result<TableSchema, StorageError> {
        let name = self.str()?;
        let n = self.u32()? as usize;
        let mut columns = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let cname = self.str()?;
            let ty = match self.u8()? {
                0 => ValueType::Bool,
                1 => ValueType::Int,
                2 => ValueType::Float,
                3 => ValueType::Str,
                tag => return Err(StorageError::Wal(format!("unknown type tag {tag}"))),
            };
            let nullable = self.u8()? != 0;
            columns.push(ColumnDef {
                name: cname,
                ty,
                nullable,
            });
        }
        TableSchema::new(name, columns)
    }
}

/// Record-kind tag (single kind today; the byte keeps the format open).
const TAG_COMMIT: u8 = 1;

/// Appends `delta`'s record payload to `e`.
fn encode_delta(delta: &CommitDelta, e: &mut Enc) {
    e.u8(TAG_COMMIT);
    e.u64(delta.seq);
    e.u32(delta.created.len() as u32);
    for s in &delta.created {
        e.schema(s);
    }
    e.u32(delta.ops.len() as u32);
    for op in &delta.ops {
        match op {
            RowOp::Insert { table, id, row } => {
                e.u8(0);
                e.str(table);
                e.u64(id.0);
                e.row(row);
            }
            RowOp::Update { table, id, row } => {
                e.u8(1);
                e.str(table);
                e.u64(id.0);
                e.row(row);
            }
            RowOp::Delete { table, id } => {
                e.u8(2);
                e.str(table);
                e.u64(id.0);
            }
        }
    }
    match &delta.rules {
        Some(text) => {
            e.u8(1);
            e.str(text);
        }
        None => e.u8(0),
    }
    e.u64(delta.next_tuple_id);
    e.u64(delta.post_digest);
}

fn decode_delta(payload: &[u8]) -> Result<CommitDelta, StorageError> {
    let mut d = Dec::new(payload, payload.len() as u64);
    let tag = d.u8()?;
    if tag != TAG_COMMIT {
        return Err(StorageError::Wal(format!("unknown record tag {tag}")));
    }
    let seq = d.u64()?;
    let n = d.u32()? as usize;
    let mut created = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        created.push(d.schema()?);
    }
    let n = d.u32()? as usize;
    // An op is at least `MIN_OP_BYTES` long, which bounds what a corrupt
    // count can reserve by the payload that is actually there.
    const MIN_OP_BYTES: usize = 1 + 4 + 8;
    let mut ops = Vec::with_capacity(n.min(payload.len() / MIN_OP_BYTES));
    for _ in 0..n {
        let kind = d.u8()?;
        let table = d.str()?;
        let id = TupleId(d.u64()?);
        ops.push(match kind {
            0 => RowOp::Insert {
                table,
                id,
                row: d.row()?,
            },
            1 => RowOp::Update {
                table,
                id,
                row: d.row()?,
            },
            2 => RowOp::Delete { table, id },
            tag => return Err(StorageError::Wal(format!("unknown op tag {tag}"))),
        });
    }
    let rules = match d.u8()? {
        0 => None,
        1 => Some(d.str()?),
        tag => return Err(StorageError::Wal(format!("unknown rules tag {tag}"))),
    };
    let next_tuple_id = d.u64()?;
    let post_digest = d.u64()?;
    if !d.done() {
        return Err(StorageError::Wal("trailing bytes in record".into()));
    }
    Ok(CommitDelta {
        seq,
        created,
        ops,
        rules,
        next_tuple_id,
        post_digest,
    })
}

/// Encodes a snapshot of `db` into `out`, a buffer's worth at a time: the
/// image of a large database is never held in memory whole.
fn write_snapshot(
    out: &mut impl Write,
    db: &Database,
    rules_text: &str,
    last_seq: u64,
) -> std::io::Result<()> {
    const FLUSH_AT: usize = 1 << 16;
    let mut e = Enc::new();
    e.buf.extend_from_slice(SNAP_MAGIC);
    e.u32(1); // format version
    e.u64(last_seq);
    e.u64(db.state_digest());
    e.u64(db.next_tuple_id());
    e.str(rules_text);
    let tables: Vec<_> = db.tables().collect();
    e.u32(tables.len() as u32);
    for t in tables {
        e.schema(t.schema());
        e.u32(t.len() as u32);
        for (id, row) in t.iter() {
            e.u64(id.0);
            e.row(row);
            if e.buf.len() >= FLUSH_AT {
                out.write_all(&e.buf)?;
                e.buf.clear();
            }
        }
    }
    out.write_all(&e.buf)
}

/// Loads and verifies `snapshot.bin`, returning `(db, rules_text,
/// last_seq)`, or `None` when the file does not exist.
fn read_snapshot(path: &Path) -> Result<Option<(Database, String, u64)>, StorageError> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(wal_err("open snapshot.bin", &e)),
    };
    let len = file
        .metadata()
        .map_err(|e| wal_err("stat snapshot.bin", &e))?
        .len();
    // Decoded as it is read: the image of a large database is never held
    // in memory beside the database built from it.
    let mut d = Dec::new(BufReader::with_capacity(1 << 16, file), len);
    if d.array::<{ SNAP_MAGIC.len() }>().ok().as_ref() != Some(SNAP_MAGIC) {
        return Err(StorageError::Wal(format!(
            "{} is not a starling snapshot (bad magic)",
            path.display()
        )));
    }
    let version = d.u32()?;
    if version != 1 {
        return Err(StorageError::Wal(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let last_seq = d.u64()?;
    let digest = d.u64()?;
    let next_tuple_id = d.u64()?;
    let rules_text = d.str()?;
    let mut db = Database::new();
    let tables = d.u32()? as usize;
    for _ in 0..tables {
        let schema = d.schema()?;
        let name = schema.name.clone();
        db.create_table(schema)?;
        let rows = d.u32()? as usize;
        for _ in 0..rows {
            let id = TupleId(d.u64()?);
            let row = d.row()?;
            db.insert_with_id(&name, id, row)?;
        }
    }
    if !d.done() {
        return Err(StorageError::Wal("trailing bytes in snapshot".into()));
    }
    db.set_next_tuple_id(next_tuple_id);
    let found = db.state_digest();
    if found != digest {
        return Err(StorageError::RecoveryMismatch {
            expected: digest,
            found,
        });
    }
    Ok(Some((db, rules_text, last_seq)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSpec};
    use crate::schema::ColumnDef;

    fn tmpdir(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "starling-wal-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("x", ValueType::Int),
                    ColumnDef::nullable("note", ValueType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert("t", vec![Value::Int(1), Value::Null]).unwrap();
        db.insert("t", vec![Value::Int(2), Value::from("two")])
            .unwrap();
        db
    }

    fn commit(store: &mut WalStore, base: &Database, post: &Database) {
        let mut delta = CommitDelta::diff(base, post);
        store.append_commit(&mut delta).unwrap();
    }

    #[test]
    fn diff_and_apply_roundtrip() {
        let base = sample_db();
        let mut post = base.clone();
        post.create_table(
            TableSchema::new("u", vec![ColumnDef::new("y", ValueType::Float)]).unwrap(),
        )
        .unwrap();
        post.insert("u", vec![Value::Float(1.5)]).unwrap();
        post.insert("t", vec![Value::Int(3), Value::Null]).unwrap();
        let ids = post.table("t").unwrap().ids();
        let (first, second) = (ids[0], ids[1]);
        post.update("t", first, vec![Value::Int(10), Value::Null])
            .unwrap();
        post.delete("t", second).unwrap();

        let delta = CommitDelta::diff(&base, &post);
        assert_eq!(delta.created.len(), 1);
        assert_eq!(delta.ops.len(), 4);
        let mut rebuilt = base.clone();
        delta.clone().apply(&mut rebuilt).unwrap();
        assert_eq!(rebuilt, post);

        // Codec round-trip preserves the delta exactly.
        let mut e = Enc::new();
        encode_delta(&delta, &mut e);
        let decoded = decode_delta(&e.buf).unwrap();
        assert_eq!(decoded, delta);
    }

    #[test]
    fn empty_store_roundtrip() {
        let dir = tmpdir("empty");
        let (_, rec) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
        assert!(rec.is_empty());
        assert_eq!(rec.db, Database::new());
        // Re-opening an initialized-but-empty store is still empty.
        let (_, rec) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
        assert!(rec.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_replay_and_rules_replace() {
        let dir = tmpdir("replay");
        let base = Database::new();
        let mid = sample_db();
        {
            let (mut store, rec) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
            assert!(rec.is_empty());
            let mut d1 = CommitDelta::diff(&base, &mid);
            d1.rules = Some("create rule r ...;".into());
            store.append_commit(&mut d1).unwrap();
            let mut post = mid.clone();
            post.insert("t", vec![Value::Int(3), Value::Null]).unwrap();
            let mut d2 = CommitDelta::diff(&mid, &post);
            d2.rules = Some("create rule r2 ...;".into());
            store.append_commit(&mut d2).unwrap();
        }
        let (_, rec) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(rec.records_applied, 2);
        assert_eq!(rec.last_seq, 2);
        // Replace semantics: only the latest rules text survives.
        assert_eq!(rec.rules_text, "create rule r2 ...;");
        assert_eq!(rec.db.total_rows(), 3);
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tmpdir("torn");
        let base = Database::new();
        let mid = sample_db();
        {
            let (mut store, _) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
            commit(&mut store, &base, &mid);
        }
        let wal_path = dir.join(WAL_FILE);
        let clean = std::fs::read(&wal_path).unwrap();

        // Garbage appended past the last record is discarded.
        let mut torn = clean.clone();
        torn.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01]);
        std::fs::write(&wal_path, &torn).unwrap();
        let (_, rec) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(rec.db, mid);
        assert_eq!(rec.truncated_bytes, 5);
        assert_eq!(std::fs::read(&wal_path).unwrap(), clean);

        // A record cut mid-payload is discarded entirely.
        std::fs::write(&wal_path, &clean[..clean.len() - 3]).unwrap();
        let (_, rec) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(rec.db, Database::new());
        assert_eq!(rec.last_seq, 0);

        // A corrupted byte inside the payload fails the checksum.
        let mut corrupt = clean.clone();
        let mid_byte = clean.len() - 4;
        corrupt[mid_byte] ^= 0xff;
        std::fs::write(&wal_path, &corrupt).unwrap();
        let (_, rec) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(rec.db, Database::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_before_valid_data_refuses_to_open() {
        let dir = tmpdir("midflip");
        let mut dbs = vec![Database::new(), sample_db()];
        for x in [3, 4] {
            let mut next = dbs.last().unwrap().clone();
            next.insert("t", vec![Value::Int(x), Value::Null]).unwrap();
            dbs.push(next);
        }
        let wal_path = dir.join(WAL_FILE);
        // Byte offsets where each of the three records ends.
        let mut ends = Vec::new();
        {
            let (mut store, _) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
            for pair in dbs.windows(2) {
                commit(&mut store, &pair[0], &pair[1]);
                ends.push(std::fs::metadata(&wal_path).unwrap().len() as usize);
            }
        }
        let clean = std::fs::read(&wal_path).unwrap();

        // One flipped byte in the middle record: truncating there would
        // drop two acknowledged commits, so the store refuses, naming the
        // record, and leaves the file alone.
        let mut corrupt = clean.clone();
        corrupt[ends[1] - 1] ^= 0xff;
        std::fs::write(&wal_path, &corrupt).unwrap();
        match WalStore::open(&dir, SyncPolicy::Always) {
            Err(StorageError::Wal(msg)) => {
                assert!(msg.contains(&format!("byte {}", ends[0])), "{msg}")
            }
            other => panic!("expected a wal error, got {other:?}"),
        }
        assert_eq!(std::fs::read(&wal_path).unwrap(), corrupt);

        // The same flip in the last record is indistinguishable from a
        // torn append: truncated, as before.
        let mut torn = clean.clone();
        torn[ends[2] - 1] ^= 0xff;
        std::fs::write(&wal_path, &torn).unwrap();
        let (_, rec) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(rec.db, dbs[2]);
        assert_eq!(rec.truncated_bytes, (ends[2] - ends[1]) as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_and_skips_covered_records() {
        let dir = tmpdir("snap");
        let base = Database::new();
        let mid = sample_db();
        let mut post = mid.clone();
        post.insert("t", vec![Value::Int(3), Value::from("x")])
            .unwrap();
        {
            let (mut store, _) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
            commit(&mut store, &base, &mid);
            let pre_snapshot_wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
            store.snapshot(&mid, "rules v1").unwrap();
            assert_eq!(
                std::fs::read(dir.join(WAL_FILE)).unwrap().len(),
                WAL_MAGIC.len()
            );
            commit(&mut store, &mid, &post);
            // Simulate a crash *between* snapshot rename and wal truncation:
            // splice the pre-snapshot records back in front of the tail.
            let tail = std::fs::read(dir.join(WAL_FILE)).unwrap();
            let mut stale = pre_snapshot_wal;
            stale.extend_from_slice(&tail[WAL_MAGIC.len()..]);
            std::fs::write(dir.join(WAL_FILE), &stale).unwrap();
        }
        let (_, rec) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.rules_text, "rules v1");
        // The stale record (seq 1) is skipped, the tail (seq 2) applied.
        assert_eq!(rec.records_applied, 1);
        assert_eq!(rec.last_seq, 2);
        assert_eq!(rec.db, post);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_wal_append_leaves_recoverable_torn_frame() {
        let dir = tmpdir("fault");
        let base = Database::new();
        let mid = sample_db();
        let mut post = mid.clone();
        post.insert("t", vec![Value::Int(3), Value::Null]).unwrap();
        {
            let (mut store, _) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
            store.set_fault_state(Some(FaultState::new(FaultPlan::single(
                FaultSpec::nth(1).on_kind(FaultOpKind::WalAppend),
            ))));
            commit(&mut store, &base, &mid);
            let err = store
                .append_commit(&mut CommitDelta::diff(&mid, &post))
                .unwrap_err();
            assert!(err.is_injected());
            // The torn half-frame is on disk...
            assert!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len() > store.wal_len);
            // ...and the one-shot fault lets the retry overwrite it.
            commit(&mut store, &mid, &post);
        }
        let (_, rec) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(rec.db, post);
        assert_eq!(rec.last_seq, 2);

        // Crash right after the torn write (no retry): recovery truncates.
        let dir2 = tmpdir("fault2");
        {
            let (mut store, _) = WalStore::open(&dir2, SyncPolicy::Always).unwrap();
            store.set_fault_state(Some(FaultState::new(FaultPlan::single(
                FaultSpec::nth(1).on_kind(FaultOpKind::WalAppend),
            ))));
            commit(&mut store, &base, &mid);
            assert!(store
                .append_commit(&mut CommitDelta::diff(&mid, &post))
                .is_err());
        }
        let (_, rec) = WalStore::open(&dir2, SyncPolicy::Always).unwrap();
        assert_eq!(rec.db, mid);
        assert!(rec.truncated_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn injected_sync_and_snapshot_faults_fail_cleanly() {
        let dir = tmpdir("sync");
        let base = Database::new();
        let mid = sample_db();
        let (mut store, _) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
        store.set_fault_state(Some(FaultState::new(
            FaultPlan::new()
                .with(FaultSpec::nth(0).on_kind(FaultOpKind::WalSync))
                .with(FaultSpec::nth(0).on_kind(FaultOpKind::SnapshotWrite)),
        )));
        let err = store
            .append_commit(&mut CommitDelta::diff(&base, &mid))
            .unwrap_err();
        assert!(err.is_injected());
        let err = store.snapshot(&mid, "").unwrap_err();
        assert!(err.is_injected());
        assert!(!dir.join(SNAP_FILE).exists());
        // The fully-appended-but-unsynced frame was rolled back: recovery
        // must NOT resurrect the unacknowledged commit.
        drop(store);
        let (_, rec) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(rec.db, base);
        assert_eq!(rec.last_seq, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_mismatch_is_detected() {
        let dir = tmpdir("mismatch");
        let base = Database::new();
        let mid = sample_db();
        {
            let (mut store, _) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
            let mut delta = CommitDelta::diff(&base, &mid);
            delta.post_digest ^= 1; // forged digest, checksum still valid
            delta.seq = 1;
            let mut e = Enc::new();
            encode_delta(&delta, &mut e);
            let payload = e.buf;
            let mut frame = Vec::new();
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&checksum(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            store.wal.write_all(&frame).unwrap();
            store.wal.sync_data().unwrap();
        }
        let err = WalStore::open(&dir, SyncPolicy::Always).unwrap_err();
        assert!(matches!(err, StorageError::RecoveryMismatch { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_sync_policy_counts_appends() {
        let dir = tmpdir("batch");
        let (mut store, _) = WalStore::open(&dir, SyncPolicy::Batch).unwrap();
        let mut db = Database::new();
        let mut prev = db.clone();
        db.create_table(TableSchema::new("t", vec![ColumnDef::new("x", ValueType::Int)]).unwrap())
            .unwrap();
        for i in 0..3 {
            db.insert("t", vec![Value::Int(i)]).unwrap();
            commit(&mut store, &prev, &db);
            prev = db.clone();
        }
        assert_eq!(store.appends_since_sync, 3);
        store.sync_now().unwrap();
        assert_eq!(store.appends_since_sync, 0);
        drop(store);
        let (_, rec) = WalStore::open(&dir, SyncPolicy::Batch).unwrap();
        assert_eq!(rec.db, db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = tmpdir("magic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(WAL_FILE), b"NOTAWAL!").unwrap();
        assert!(matches!(
            WalStore::open(&dir, SyncPolicy::Always),
            Err(StorageError::Wal(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_snapshots_are_rejected_and_a_large_one_round_trips() {
        let dir = tmpdir("snapdamage");
        // Larger than the write and read buffers, with a string per row.
        let mut db = sample_db();
        for i in 0..20_000 {
            db.insert("t", vec![Value::Int(i), Value::from("some text")])
                .unwrap();
        }
        {
            let (mut store, _) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
            store.snapshot(&db, "rules").unwrap();
        }
        let (_, rec) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
        assert!(rec.snapshot_loaded && rec.db == db && rec.rules_text == "rules");

        let snap = dir.join(SNAP_FILE);
        let good = std::fs::read(&snap).unwrap();
        assert!(good.len() > 1 << 17);
        let mut long_string = good.clone();
        // The rules text's length prefix: magic, version, seq, digest, next id.
        long_string[36..40].copy_from_slice(&u32::MAX.to_le_bytes());
        let damaged: [&[u8]; 5] = [
            &good[..good.len() - 1],
            &good[..good.len() / 2],
            &good[..4],
            &[&good[..], b"x"].concat(),
            &long_string,
        ];
        for bytes in damaged {
            std::fs::write(&snap, bytes).unwrap();
            assert!(matches!(
                WalStore::open(&dir, SyncPolicy::Always),
                Err(StorageError::Wal(_))
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_policy_names() {
        assert_eq!(SyncPolicy::from_name("always"), Some(SyncPolicy::Always));
        assert_eq!(SyncPolicy::from_name("batch"), Some(SyncPolicy::Batch));
        assert_eq!(SyncPolicy::from_name("nope"), None);
        assert_eq!(SyncPolicy::Batch.name(), "batch");
    }
}
