//! # starling-storage
//!
//! In-memory relational storage substrate for the Starling production rule
//! system — the stand-in for the Starburst DBMS prototype [HCL+90] that the
//! paper's rule system was embedded in.
//!
//! The store provides exactly what set-oriented production rules need:
//!
//! * a typed catalog of tables ([`Catalog`], [`TableSchema`], [`ColumnDef`]);
//! * tuples with **stable identity** ([`TupleId`]) — the net-effect semantics
//!   of \[WF90\] compose operations *per tuple*, so identity must survive
//!   updates;
//! * cheap cloneable snapshots ([`Database`] is `Clone`), used by the
//!   execution-graph explorer to branch on nondeterministic rule choices and
//!   by `ROLLBACK` to restore the assertion-point state;
//! * deterministic canonical digests ([`digest`]) so execution-graph states
//!   can be deduplicated and cycles detected exactly.
//!
//! The store is deliberately single-threaded: the paper's rule-processing
//! semantics are sequential (one rule considered at a time), so there is no
//! concurrency to manage.
//!
//! ```
//! use starling_storage::{ColumnDef, Database, TableSchema, Value, ValueType};
//!
//! let mut db = Database::new();
//! db.create_table(TableSchema::new(
//!     "emp",
//!     vec![
//!         ColumnDef::new("id", ValueType::Int),
//!         ColumnDef::nullable("salary", ValueType::Int),
//!     ],
//! )?)?;
//! let id = db.insert("emp", vec![Value::Int(1), Value::Int(100)])?;
//! db.update_column("emp", id, "salary", Value::Int(150))?;
//!
//! // Snapshots are cheap clones; digests are content-based.
//! let snap = db.clone();
//! db.delete("emp", id)?;
//! assert_ne!(db.state_digest(), snap.state_digest());
//! # Ok::<(), starling_storage::StorageError>(())
//! ```

pub mod batch;
mod chunk;
pub mod column;
pub mod database;
pub mod digest;
pub mod error;
pub mod fault;
pub mod ops;
pub mod schema;
pub mod table;
pub mod tuple;
pub mod value;
pub mod wal;

pub use batch::{Selection, SelectionKey, TableBatch};
pub use column::{Bitmap, Column, ColumnData};
pub use database::Database;
pub use digest::{CanonicalDigest, Fnv64};
pub use error::StorageError;
pub use fault::{FaultOpKind, FaultPlan, FaultSpec, FaultState};
pub use ops::Op;
pub use schema::{Catalog, ColRef, ColumnDef, TableSchema};
pub use table::{Columnar, Table};
pub use tuple::{Row, Tuple, TupleId};
pub use value::{Value, ValueType};
pub use wal::{CommitDelta, Recovered, RowOp, SyncPolicy, WalStore};

/// Convenient result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
