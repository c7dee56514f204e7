//! Empty placeholder: no crate of this workspace uses this package. It stays
//! only because `benchmark/Cargo.lock` records it.
