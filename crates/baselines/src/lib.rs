//! `baselines` — comparator engines for the paper's Fig. 9/10 evaluation:
//! a document-store engine (AsterixDB stand-in) that re-parses serialized JSON
//! documents on every scan, and a RumbleDB-like runner that executes the JSONiq
//! iterator tree row at a time.
#![deny(unsafe_code)]

pub mod docstore;
pub mod rumble;

pub use docstore::DocStore;
pub use rumble::RumbleRunner;
