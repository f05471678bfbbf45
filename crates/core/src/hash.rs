//! The trace-identity hash, defined in `ibsim-event` and re-exported here.

/// FNV-1a over raw bytes.
///
/// ```
/// use ibsim_odp::hash::fnv1a;
///
/// assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
/// ```
pub use ibsim_event::fnv1a;
pub use ibsim_event::fnv1a_str;
