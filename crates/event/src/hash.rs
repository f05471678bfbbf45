//! The repository's stable trace-identity hash.
//!
//! Every byte-identity gate in this workspace — the damming/flood golden
//! trace pins, the scenario corpus 1-vs-N worker comparison, the typed
//! work-request determinism pins — compresses a rendered run artifact
//! (capture timeline, completion log, memory image) into one 64-bit
//! FNV-1a digest. It lives in the lowest crate so that every gate, in
//! every crate, hashes with the one definition.

/// FNV-1a over raw bytes: dependency-free, deterministic, and stable
/// across platforms (the two magic constants are the standard 64-bit
/// offset basis and prime).
///
/// # Examples
///
/// ```
/// use ibsim_event::fnv1a;
///
/// assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Convenience for hashing rendered text artifacts (timelines, reports).
pub fn fnv1a_str(s: &str) -> u64 {
    fnv1a(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn output_is_pinned_on_a_fixed_byte_string() {
        // Reference digests computed by the canonical FNV-1a definition;
        // any change to the constants or the fold order breaks these and
        // therefore every golden gate downstream.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(
            fnv1a(b"ibsim trace-identity"),
            fnv1a(b"ibsim trace-identity")
        );
        assert_eq!(fnv1a_str("foobar"), fnv1a(b"foobar"));
    }

    #[test]
    fn single_byte_order_matters() {
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
