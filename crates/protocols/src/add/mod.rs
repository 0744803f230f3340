//! The ADD+ synchronous BA family (three variants, §III-B1 of the paper).

pub mod machine;
pub(crate) mod v1;
pub(crate) mod v2;
pub(crate) mod v3;
