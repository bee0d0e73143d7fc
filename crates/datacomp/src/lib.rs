//! # datacomp — data components (the paper's Figure 2)
//!
//! > "The data is divided into the structure described in Figure 2. Example
//! > data could be OO structured data concerned with a person or a
//! > relational table used for transaction processing or an XML stream. The
//! > metadata represents the standard metadata found in traditional
//! > databases e.g. attribute statistics, triggers etc. The Adaptability
//! > Rules are the list of rules associated with the adaptivity constraints
//! > ... The list of versions is indications of where alternatives can be
//! > found. Versions are not necessarily exact replicas; they could be
//! > compressed versions of the data (perhaps with associated decompression
//! > code) or be out-of-date. They also could be lower quality versions or
//! > summaries of the data."
//!
//! Modules:
//!
//! * [`value`] / [`schema`] — the value model and relational schema shared
//!   with the `query` crate. Rows and tables share storage: a [`Row`] is an
//!   immutable `Rc<[Value]>` and a [`Table`] keeps its rows behind one
//!   `Rc`, so a clone of either copies no values (an insert into a shared
//!   table copies the row list first); a join's output row is [`concat()`];
//! * [`payload`] — the three payload shapes: relational table, OO record,
//!   XML stream;
//! * [`xml`] — a small XML event parser/serialiser (the sensor "streams in
//!   XML format");
//! * [`codec`] — from-scratch compression codecs (RLE and an LZ77-style
//!   dictionary coder), the "associated decompression code" a compressed
//!   version carries;
//! * [`metadata`] — attribute statistics (with controllable *staleness
//!   error* for Scenario 3's misestimating optimiser);
//! * [`version`] — the version list and constraint-driven version selection
//!   (`BEST` under bandwidth/staleness/quality constraints);
//! * [`component`] — the assembled [`component::DataComponent`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod component;
pub mod metadata;
pub mod payload;
pub mod schema;
pub mod value;
pub mod xml;

pub use codec::{Codec, LzCodec, RleCodec};
pub use component::DataComponent;
pub use metadata::{Metadata, TableStats};
pub use payload::Payload;
pub use schema::{concat, ColumnType, Row, Schema, Table};
pub use value::Value;
pub use version::{Version, VersionKind, VersionList};

pub mod version;
